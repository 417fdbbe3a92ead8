import math
import random

import numpy as np
import pytest

from yoshida.curves import ap_table
from yoshida.errors import ValidationError
from yoshida.lift import (
    SIGN_TOL,
    UNCERTAIN,
    LiftSpec,
    lift_euler_coeffs,
    lift_euler_ints,
    lift_sequence,
    validate_pair,
)
from yoshida.primes import factorize, primes_up_to
from tests.conftest import (CURVE_11A, CURVE_33A, lam, normalized_pair, rows, seq_items,
                            seq_signs, seq_value, table, value)


# ---------------------------------------------------------------------------
# validate_pair
# ---------------------------------------------------------------------------

def _toy_table(level, coeffs):
    return table(level, 2, coeffs)


def test_validate_pair_basic(table_11a, table_33a):
    spec = validate_pair(table_11a, table_33a)
    assert spec.f is table_11a and spec.g is table_33a
    assert spec.f.atkin_lehner[11] == spec.g.atkin_lehner[11] == -1
    assert spec.f.weight == 2


def test_validate_pair_coprime_levels():
    f = _toy_table(11, {2: 0, 3: 0, 5: 0, 7: 0, 11: 1})
    g = _toy_table(13, {2: 0, 3: 0, 5: 0, 7: 0, 11: 0, 13: -1})
    with pytest.raises(ValidationError, match="coprime"):
        validate_pair(f, g)


def test_validate_pair_nonsquarefree_level_cannot_exist():
    # non-squarefree levels are already unrepresentable as tables
    with pytest.raises(ValidationError, match="squarefree"):
        _toy_table(12, {2: 0, 3: 0})


def test_validate_pair_al_mismatch(table_11a, table_33a):
    f = table(11, 2, {**rows(table_11a), 11: -1})
    with pytest.raises(ValidationError, match="Atkin-Lehner mismatch at p=11"):
        validate_pair(f, table_33a)


def test_validate_pair_rejects_non_weight2_g(table_11a):
    g4 = table(33, 4, {2: 0, 3: 3, 5: 0, 7: 0, 11: -11})
    with pytest.raises(ValidationError, match="weight 2"):
        validate_pair(table_11a, g4)


def test_validate_pair_rejects_same_newform(table_11a):
    with pytest.raises(ValidationError, match="same newform"):
        validate_pair(table_11a, table_11a)


def test_validate_pair_same_level_sturm_bound():
    # level 33, weight 2: B = 2 (3 + 1)(11 + 1) // 12 = 8, so a_p at p <= 7 decide
    base = {2: 0, 3: -1, 5: 0, 7: 0, 11: 1, 13: 0}
    f = _toy_table(33, base)
    with pytest.raises(ValidationError, match="agrees up to 8"):
        validate_pair(f, _toy_table(33, {**base, 13: 2}))
    assert validate_pair(f, _toy_table(33, {**base, 7: 2})).g.level == 33
    with pytest.raises(ValidationError, match="missing p=7"):
        validate_pair(f, _toy_table(33, {2: 0, 3: -1, 5: 0}))


def test_validate_pair_infers_al_from_counts(table_11a, table_33a):
    # f: a_11 = 1 -> w = -1; g: a_3 = -1 -> w = +1, a_11 = 1 -> w = -1
    spec = validate_pair(table_11a, table_33a)
    assert spec.g.atkin_lehner == {3: 1, 11: -1}


# ---------------------------------------------------------------------------
# lift_euler_coeffs
# ---------------------------------------------------------------------------

def test_euler_coeffs_sum_of_two():
    assert lift_euler_coeffs(1.0, -1.0, 7, 1)[1] == pytest.approx(0.0, abs=1e-15)


def test_euler_coeffs_r2_zero_eigenvalues():
    # lambda_f(p^2) + lambda_g(p^2) + lambda_f lambda_g - 1/p = -1 - 1 + 0 - 0.2
    assert lift_euler_coeffs(0.0, 0.0, 5, 2)[2] == pytest.approx(-2.2, abs=1e-14)


def test_euler_coeffs_r3_edge():
    # (1 - X^2/5)/(1-X)^4: coefficient C(6,3) - C(4,3)/5 = 20 - 0.8
    assert lift_euler_coeffs(2.0, 2.0, 5, 3)[3] == pytest.approx(19.2, abs=1e-12)


def test_euler_coeffs_against_power_series_division():
    """Long-division oracle for the rational function
    (1 - X^2/p) / ((1 - a X + X^2)(1 - b X + X^2))."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(-2, 2, size=2)
        p = int(rng.choice([2, 3, 5, 101]))
        rmax = 6
        # denominator polynomial coefficients
        den = np.polynomial.polynomial.polymul([1.0, -a, 1.0], [1.0, -b, 1.0])
        num = np.zeros(rmax + 1)
        num[0], num[2] = 1.0, -1.0 / p
        series = np.zeros(rmax + 1)
        for r in range(rmax + 1):
            acc = num[r] if r < len(num) else 0.0
            for j in range(1, min(r, len(den) - 1) + 1):
                acc -= den[j] * series[r - j]
            series[r] = acc
        got = lift_euler_coeffs(a, b, p, rmax)
        assert np.allclose(got, series, atol=1e-10)


def test_square_identity_random():
    # lambda_F(p)^2 - lambda_F(p^2) = 2 + 1/p + lambda_f lambda_g
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, b = rng.uniform(-2, 2, size=2)
        p = int(rng.choice([2, 3, 5, 101]))
        c = lift_euler_coeffs(a, b, p, 2)
        assert abs(c[1] ** 2 - c[2] - (2 + 1 / p + a * b)) <= 1e-12


def test_euler_coeffs_rejects_negative_rmax():
    with pytest.raises(ValidationError):
        lift_euler_coeffs(0.0, 0.0, 5, -1)


def test_euler_ints_match_float_channel():
    # weight 2, weight 4, and weight 12 (tau(2), tau(3), tau(5) of Delta)
    cases = [(-2, 1, 2, 2), (-1, -1, 3, 2), (1, -2, 5, 2), (4, -2, 13, 2),
             (-4, 1, 2, 4), (20, -3, 5, 4), (-30, 5, 7, 4),
             (-24, 1, 2, 12), (252, -3, 3, 12), (4830, 4, 5, 12)]
    for af, ag, p, k in cases:
        lf, lg = af / p ** ((k - 1) / 2), ag / math.sqrt(p)
        floats = lift_euler_coeffs(lf, lg, p, 6)
        ints = lift_euler_ints(af, ag, p, 6, k)
        for r in range(7):
            assert floats[r] == pytest.approx(ints[r] / p ** (r * (k - 1) / 2), abs=1e-10)


def test_euler_ints_displayed_identity():
    # lambda_F(p^2) p = a_f^2 + a_g^2 + a_f a_g - 2p - 1 at a_f = a_g = 0, p = 5
    assert lift_euler_ints(0, 0, 5, 2, 2)[2] == -11


# ---------------------------------------------------------------------------
# lift_sequence
# ---------------------------------------------------------------------------

def test_sequence_xmax_1(reg_spec):
    seq = lift_sequence(reg_spec, 1)
    assert seq.index.tolist() == [1] and seq.values.tolist() == [1.0]


def test_sequence_indices_coprime(reg_spec, reg_seq):
    N = 33
    assert all(math.gcd(n, N) == 1 for n in reg_seq.index.tolist())
    assert reg_seq.index.tolist() == [n for n in range(1, reg_seq.xmax + 1) if math.gcd(n, N) == 1]
    assert seq_value(reg_seq, 1) == 1.0


def test_sequence_doubled_pair():
    # degenerate f = g fixture: lambda_F(p) must equal 2 lambda_f(p); built
    # directly, since validate_pair refuses f = g
    t = ap_table(CURVE_11A, 100)
    spec = LiftSpec(f=t, g=t)
    seq = lift_sequence(spec, 100)
    for p in primes_up_to(100).tolist():
        if p != 11:
            assert seq_value(seq, p) == pytest.approx(2 * lam(t, p), abs=1e-12)


def test_sequence_multiplicativity(reg_seq):
    vals = dict(seq_items(reg_seq))
    for m in range(2, 100):
        if m not in vals:
            continue
        for n in range(2, 10**4 // m + 1):
            if n in vals and math.gcd(m, n) == 1:
                assert vals[m * n] == pytest.approx(vals[m] * vals[n], abs=1e-10)


def test_sequence_exact_multiplicativity(reg_seq):
    sc = seq_signs(reg_seq)
    for m in range(2, 100):
        if m not in sc:
            continue
        for n in range(2, 10**4 // m + 1):
            if n in sc and math.gcd(m, n) == 1:
                assert sc[m * n] == sc[m] * sc[n]


def test_sequence_exact_vs_float_signs(reg_seq):
    sc = seq_signs(reg_seq)
    for n, v in seq_items(reg_seq):
        if abs(v) > 1e-9:
            assert sc[n] == (1 if v > 0 else -1)


def _synthetic_pair(k, xmax, seed):
    """Deligne-bounded random integer tables: f of weight k and level 11, g of
    weight 2 and level 33, with w_11 = -1 on both sides."""
    rng = np.random.default_rng(seed)
    ps = primes_up_to(xmax).tolist()

    def draw(bound):  # an integer in [-bound, bound]; numpy's stop at int64
        if bound < 2**62:
            return int(rng.integers(-bound, bound + 1))
        return int(rng.integers(-(2**62), 2**62)) * bound // 2**62

    fa = {p: draw(math.isqrt(4 * p ** (k - 1))) for p in ps}
    ga = {p: draw(math.isqrt(4 * p)) for p in ps}
    fa[11], ga[3], ga[11] = 11 ** ((k - 2) // 2), -1, 1
    f = table(11, k, fa)
    g = table(33, 2, ga)
    return validate_pair(f, g)


def test_sequence_weight4_exact_channel():
    xmax = 3000
    seq = lift_sequence(_synthetic_pair(4, xmax, 4), xmax)
    sc = seq_signs(seq)
    assert seq.signs.shape == seq.index.shape and UNCERTAIN not in sc.values()
    for m in range(2, 60):
        for n in range(2, xmax // m + 1):
            if m in sc and n in sc and math.gcd(m, n) == 1:
                assert sc[m * n] == sc[m] * sc[n]
    checked = 0
    for n, v in seq_items(seq):
        if abs(v) > 1e-9:
            checked += 1
            assert sc[n] == (1 if v > 0 else -1), n
    assert checked > 0.9 * seq.index.size


def test_sequence_square_identity_in_data(reg_spec, reg_seq):
    spec = reg_spec
    for p in primes_up_to(100).tolist():
        if 33 % p == 0:
            continue
        lhs = seq_value(reg_seq, p) ** 2 - seq_value(reg_seq, p * p)
        rhs = 2 + 1 / p + lam(spec.f, p) * lam(spec.g, p)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sequence_prime_power_bound(reg_spec, reg_seq):
    # coarse product bound (r+1)^2 + (r-1)^2 on stored prime powers
    N = 33
    for p in primes_up_to(100).tolist():
        if N % p == 0:
            continue
        q, r = p, 1
        while q <= reg_seq.xmax:
            assert abs(seq_value(reg_seq, q)) <= (r + 1) ** 2 + (r - 1) ** 2
            q *= p
            r += 1


def dirichlet_oracle(spec, xmax):
    """Brute-force coefficients of L(f) L(g) / zeta_N(1+2s).

    Full multiplicative tables for f and g (three-term recurrence at good
    primes, geometric at bad), the inverse zeta factor as mu(m)/m at m^2 with
    (m, N) = 1, then two Dirichlet convolutions.
    """
    def full_table(nf):
        out = np.zeros(xmax + 1)
        out[1] = 1.0
        for p in primes_up_to(xmax).tolist():
            lp = lam(nf, p)
            powers = [1.0, lp]
            q = p * p
            while q <= xmax:
                if nf.level % p == 0:
                    powers.append(powers[-1] * lp)
                else:
                    powers.append(lp * powers[-1] - powers[-2])
                q *= p
            q, r = p, 1
            while q <= xmax:
                for m in range(1, xmax // q + 1):
                    if m % p != 0:
                        out[m * q] = out[m] * powers[r]
                q *= p
                r += 1
        return out

    lf = full_table(spec.f)
    lg = full_table(spec.g)
    N = math.lcm(spec.f.level, spec.g.level)
    # mobius via factorization (small range, clarity over speed)
    zinv = np.zeros(xmax + 1)
    zinv[1] = 1.0
    m = 2
    while m * m <= xmax:
        if math.gcd(m, N) == 1:
            fac = factorize(m)
            if all(e == 1 for _, e in fac):
                zinv[m * m] = (-1) ** len(fac) / m
        m += 1
    conv = np.zeros(xmax + 1)
    for a in range(1, xmax + 1):
        if lf[a] == 0.0:
            continue
        for b in range(1, xmax // a + 1):
            conv[a * b] += lf[a] * lg[b]
    out = np.zeros(xmax + 1)
    for a in range(1, xmax + 1):
        if zinv[a] == 0.0:
            continue
        for b in range(1, xmax // a + 1):
            out[a * b] += zinv[a] * conv[b]
    return out


def test_sequence_dirichlet_oracle(reg_spec):
    xmax = 1000
    seq = lift_sequence(reg_spec, xmax)
    oracle = dirichlet_oracle(reg_spec, xmax)
    got = dict(seq_items(seq))
    for n in range(1, xmax + 1):
        if math.gcd(n, 33) == 1:
            assert got[n] == pytest.approx(oracle[n], abs=1e-10), n


def test_sequence_table_too_short(table_11a, table_33a):
    spec = validate_pair(table_11a, table_33a)
    with pytest.raises(ValidationError, match="missing p="):
        lift_sequence(spec, 10**5)


def test_sequence_rejects_exact_on_normalized():
    f = table(11, 2, {2: -0.7, 3: -0.5, 5: 0.4, 7: -0.7, 11: 11**-0.5}, normalized=True)
    g = table(33, 2, {2: 0.7, 3: -(3**-0.5), 5: -0.9, 7: 1.5, 11: 11**-0.5}, normalized=True)
    spec = validate_pair(f, g)
    seq = lift_sequence(spec, 10)
    assert seq_value(seq, 2) == pytest.approx(0.0, abs=1e-15)
    # normalized tables get no exact channel, so lambda_F(2) has no certified sign
    assert seq_signs(seq)[2] == UNCERTAIN


# ---------------------------------------------------------------------------
# dense arrays against the per-n dict assembly
# ---------------------------------------------------------------------------

def dict_lift_reference(spec, xmax):
    """The per-n dict assembly that the dense arrays replace.

    Euler coefficients per prime from lift_euler_coeffs / lift_euler_ints,
    then for every n coprime to N, in ascending order,
    lambda_F(n) = c(p^e) lambda_F(n / p^e) with p the smallest prime factor.
    Returns ({n: float}, {n: int} or None).
    """
    exact = not (spec.f.normalized or spec.g.normalized)
    N = math.lcm(spec.f.level, spec.g.level)
    ps = primes_up_to(xmax)
    pw_float, pw_int = {}, {}
    for p in ps.tolist():
        if N % p == 0:
            continue
        rmax, q = 1, p
        while q * p <= xmax:
            q *= p
            rmax += 1
        pw_float[p] = lift_euler_coeffs(lam(spec.f, p), lam(spec.g, p), p, rmax)
        if exact:
            pw_int[p] = lift_euler_ints(value(spec.f, p), value(spec.g, p), p, rmax, spec.f.weight)
    spf = np.zeros(xmax + 1, dtype=np.int64)
    for p in ps.tolist():
        block = spf[p::p]
        block[block == 0] = p
    values = {1: 1.0}
    scaled = {1: 1} if exact else None
    for n in range(2, xmax + 1):
        if math.gcd(n, N) != 1:
            continue
        p = int(spf[n])
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        values[n] = pw_float[p][e] * values[m]
        if exact:
            scaled[n] = pw_int[p][e] * scaled[m]
    return values, scaled


def _assert_matches_reference(spec, seq):
    values, scaled = dict_lift_reference(spec, seq.xmax)
    assert seq.index.tolist() == list(values)
    # bit for bit: compare the binary64 patterns, so -0.0 != 0.0 here
    want = np.array(list(values.values()))
    assert np.array_equal(seq.values.view(np.uint64), want.view(np.uint64))
    if scaled is None:
        # no exact channel: the products of the float factor signs
        assert seq.signs.tolist() == list(float_sign_oracle(spec, seq.xmax).values())
    else:
        # the signs of the reference's Python-int products
        assert seq.signs.tolist() == [(v > 0) - (v < 0) for v in scaled.values()]


def test_dense_sequence_matches_dict_reference_11a_33a():
    xmax = 2 * 10**4
    spec = validate_pair(ap_table(CURVE_11A, xmax), ap_table(CURVE_33A, xmax))
    seq = lift_sequence(spec, xmax)
    assert spec.f.values.dtype == np.int64
    _assert_matches_reference(spec, seq)
    # every small xmax, among them those where the level prime 11 lies above
    # sqrt(xmax) and no multiple of it may be built
    for x in range(1, 151):
        _assert_matches_reference(spec, lift_sequence(spec, x))


def test_dense_sequence_matches_dict_reference_weight4():
    xmax = 3000
    spec = _synthetic_pair(4, xmax, 4)
    _assert_matches_reference(spec, lift_sequence(spec, xmax))


def test_dense_sequence_matches_dict_reference_python_int_table():
    # 16 pmax^11 >= 2^126 at weight 12 and pmax 3000: the sign of I_1 is
    # taken over values' Python ints
    xmax = 3000
    spec = _synthetic_pair(12, xmax, 12)
    assert spec.f.values.dtype == object
    _assert_matches_reference(spec, lift_sequence(spec, xmax))


def test_dense_sequence_matches_dict_reference_normalized_zeros():
    # (-0.0) + (-0.0) is -0.0 but the two-term fsum gives 0.0.  p = 13 lies
    # below sqrt(200), where lambda_F(13) is lift_euler_coeffs's fsum; 17 and
    # 19 lie above it, where lambda_F(p) is one array add and its + 0.0
    assert math.isqrt(200) == 14
    ps = primes_up_to(200).tolist()
    fc = {p: (-0.0 if p in (13, 17, 19) else 0.3) for p in ps}
    gc = {p: (-0.0 if p in (13, 17, 19) else -0.7) for p in ps}
    fc[11], gc[3], gc[11] = 11**-0.5, -(3**-0.5), 11**-0.5
    f = table(11, 2, fc, normalized=True)
    g = table(33, 2, gc, normalized=True)
    spec = validate_pair(f, g)
    seq = lift_sequence(spec, 200)
    for p in (13, 17, 19):
        assert math.copysign(1.0, seq_value(seq, p)) == 1.0, p
    _assert_matches_reference(spec, seq)


def test_dense_sequence_matches_dict_reference_even_level():
    # levels 14 and 6 share the prime 2, with w_2 = 1 on both, and
    # a_f(p) + a_g(p) = 0 at every third prime: no even n is built, while
    # lambda_F(p) = 0 at those p is built, with sign 0 in the exact channel
    # and UNCERTAIN in the normalized copy
    xmax = 3000
    rng = random.Random(42)
    ps = primes_up_to(xmax).tolist()
    fa = {p: rng.randint(-math.isqrt(4 * p), math.isqrt(4 * p)) for p in ps}
    ga = {p: -a if i % 3 == 0 else rng.randint(-math.isqrt(4 * p), math.isqrt(4 * p))
          for i, (p, a) in enumerate(fa.items())}
    fa[2], fa[7], ga[2], ga[3] = -1, 1, -1, 1
    zeros = [p for i, p in enumerate(ps) if i % 3 == 0 and 42 % p]
    for normalized, zero_code in ((False, 0), (True, UNCERTAIN)):
        def scaled(a):
            return {p: v / math.sqrt(p) for p, v in a.items()} if normalized else a

        spec = validate_pair(table(14, 2, scaled(fa), normalized),
                             table(6, 2, scaled(ga), normalized))
        seq = lift_sequence(spec, xmax)
        _assert_matches_reference(spec, seq)
        assert not np.any(seq.index % 2 == 0)
        sc = seq_signs(seq)
        assert [sc[p] for p in zeros] == [zero_code] * len(zeros)


def test_scaled_overflow_falls_back_to_python_ints():
    # weight 12: lambda_F(n) n^(11/2) passes 2^63 below xmax while the tables
    # fit int64, so a per-n int64 product would wrap; the exact signs must
    # still be those of the reference's Python-int products
    xmax = 1800
    spec = _synthetic_pair(12, xmax, 1)
    seq = lift_sequence(spec, xmax)
    assert spec.f.values.dtype == np.int64
    _, scaled = dict_lift_reference(spec, xmax)
    # every Euler coefficient I(p^e) fits int64; the overflow is in the products
    assert max(abs(v) for n, v in scaled.items() if len(factorize(n)) == 1) < 2**62
    assert max(abs(v) for v in scaled.values()) >= 2**63
    _assert_matches_reference(spec, seq)
    for (n, v), s in zip(seq_items(seq), seq.signs.tolist()):
        if abs(v) > 1e-9:
            assert s == (1 if v > 0 else -1), n


def _factor_sign(c):
    """The float channel's sign code of one prime-power factor c(q): +-1
    outside |c| <= SIGN_TOL and UNCERTAIN inside it."""
    if abs(c) <= SIGN_TOL:
        return UNCERTAIN
    return 1 if c > 0 else -1


def float_sign_oracle(spec, xmax):
    """{n: sign code} of the float channel for every n <= xmax coprime to N,
    ascending, each n factorized on its own: the product of the codes of its
    factors c(p^e) = lift_euler_coeffs(lambda_f(p), lambda_g(p), p, e)[e],
    UNCERTAIN where any factor's code is."""
    N = math.lcm(spec.f.level, spec.g.level)
    codes = {}
    for n in range(1, xmax + 1):
        if math.gcd(n, N) != 1:
            continue
        factors = [_factor_sign(lift_euler_coeffs(lam(spec.f, p), lam(spec.g, p), p, e)[e])
                   for p, e in factorize(n)]
        codes[n] = UNCERTAIN if UNCERTAIN in factors else math.prod(factors)
    return codes


def test_signs_array_matches_scalar_rule(reg_seq):
    # lambda_F(p) at a good prime above sqrt(xmax) is its own factor: f holds
    # values at and around the band's edges there, and g holds 0.0, so that
    # lambda_F(p) is that value (0.0 for -0.0) and its code the float rule's
    rng = np.random.default_rng(17)
    edge = [0.0, -0.0, SIGN_TOL, -SIGN_TOL, np.nextafter(SIGN_TOL, 1.0),
            np.nextafter(-SIGN_TOL, -1.0), 5e-10, -5e-10]
    draws = iter(edge + rng.uniform(-3e-9, 3e-9, 200).tolist())
    xmax = 3000
    root = math.isqrt(xmax)
    spec = normalized_pair(lambda p: next(draws, 0.5) if p > root else 0.5,
                           lambda p: 0.0 if p > root else 0.25, xmax)
    seq = lift_sequence(spec, xmax)
    sc = seq_signs(seq)
    big = [p for p in primes_up_to(xmax).tolist() if p > root]
    assert [sc[p] for p in big] == [_factor_sign(lam(spec.f, p)) for p in big]
    assert {-1, 1, UNCERTAIN} == {sc[p] for p in big[:208]}
    # and at each multiple 2 p, the code of lambda_F(2) = 0.75 times that of p
    assert [sc[2 * p] for p in big if 2 * p <= xmax] == [sc[p] for p in big if 2 * p <= xmax]
    # the exact channel certifies every sign, zeros included, where the float
    # value is inside the band and even where it is not 0.0
    assert UNCERTAIN not in reg_seq.signs
    zeros = reg_seq.values[reg_seq.signs == 0]
    assert np.abs(zeros).max() <= SIGN_TOL and np.count_nonzero(zeros)


def test_float_signs_are_products_of_factor_signs():
    # seeded normalized pairs with lambda_g(p) = -lambda_f(p) + d at about a
    # third of the good primes, d at, inside and just past SIGN_TOL: every
    # sign is the product of its factors' signs, taken one factor at a time,
    # and ? appears exactly where some factor is inside the band
    rng = random.Random(26)
    near = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6)
    uncertain_outside = certified_inside = 0
    for _ in range(8):
        xmax = rng.randrange(50, 1500)
        lf = {}

        def lam_f(p):
            lf[p] = rng.uniform(-1.9, 1.9)
            return lf[p]

        def lam_g(p):
            return -lf[p] + rng.choice(near) if rng.random() < 0.3 else rng.uniform(-1.9, 1.9)

        spec = normalized_pair(lam_f, lam_g, xmax)
        seq = lift_sequence(spec, xmax)
        assert seq_signs(seq) == float_sign_oracle(spec, xmax)
        for (n, v), s in zip(seq_items(seq), seq.signs.tolist()):
            uncertain_outside += s == UNCERTAIN and abs(v) > SIGN_TOL
            certified_inside += s != UNCERTAIN and abs(v) <= SIGN_TOL
    # the value of lambda_F(n) and its factors disagree both ways
    assert uncertain_outside and certified_inside


def test_signs_array_is_one_read_only_object(reg_spec):
    seq = lift_sequence(reg_spec, 500)
    codes = seq.signs
    assert codes.dtype == np.int8 and codes.shape == seq.index.shape
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0] = -1


def test_sequence_columns_are_aligned_and_read_only(reg_spec):
    # the exact channel, a float channel, and xmax = 1: index, values and
    # signs have one length, none can be written, and log_index is the log
    # of index
    f = table(11, 2, {2: -0.5, 3: 0.25, 5: 0.0, 7: 0.1, 11: 11**-0.5}, normalized=True)
    g = table(33, 2, {2: 0.5, 3: -(3**-0.5), 5: 0.0, 7: 0.2, 11: 11**-0.5}, normalized=True)
    for seq in (lift_sequence(reg_spec, 500), lift_sequence(validate_pair(f, g), 10),
                lift_sequence(reg_spec, 1)):
        assert seq.index.shape == seq.values.shape == seq.signs.shape
        for col in (seq.index, seq.values, seq.signs):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 0
        assert seq.log_index.tolist() == [math.log(n) for n in seq.index.tolist()]


def test_lam_array_bit_identical_to_lam():
    # int64 values at weights 2 and 4, Python ints from weight 12 on; lam is
    # the scalar formula a / (p**((k-2)//2) * math.sqrt(p))
    for k, seed in ((2, 2), (4, 4), (12, 12), (24, 24), (100, 100)):
        spec = _synthetic_pair(k, 3000, seed)
        for h in (spec.f, spec.g):
            want = np.array([lam(h, p) for p in h.prime_array.tolist()])
            assert h.values.dtype == (object if h.weight >= 12 else np.int64)
            assert np.array_equal(h.lam_array.view(np.uint64), want.view(np.uint64)), k
            assert h.values.shape == h.prime_array.shape


def test_sequence_rejects_nan_above_sqrt_xmax():
    # a non-finite lambda(p) is refused when the table is built, before any
    # sequence reaches it; the array path above sqrt(xmax) has no check of its own
    fc = {p: 0.1 for p in primes_up_to(100).tolist()}
    fc[11] = 0.301511
    for bad in (math.nan, math.inf, -math.inf):
        fc[97] = bad
        with pytest.raises(ValidationError, match=r"p=97: need \|lambda\| <= 2"):
            table(11, 2, fc, normalized=True)
