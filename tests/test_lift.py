import math

import numpy as np
import pytest

from yoshida.curves import ap_table
from yoshida.errors import ValidationError
from yoshida.hecke import NewformCoeffs
from yoshida.lift import (
    UNCERTAIN,
    lift_euler_coeffs,
    lift_euler_ints,
    lift_sequence,
    validate_pair,
)
from yoshida.primes import factorize, primes_up_to
from tests.conftest import CURVE_11A, CURVE_33A, seq_items


# ---------------------------------------------------------------------------
# validate_pair
# ---------------------------------------------------------------------------

def _toy_table(level, coeffs):
    return NewformCoeffs(level=level, weight=2, coeffs=coeffs)


def test_validate_pair_basic(table_11a, table_33a):
    spec = validate_pair(table_11a, table_33a)
    assert (spec.M, spec.N) == (11, 33)
    assert spec.al_f[11] == spec.al_g[11] == -1
    assert spec.weight == 2


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
    f = NewformCoeffs(level=11, weight=2, coeffs={**table_11a.coeffs, 11: -1})
    with pytest.raises(ValidationError, match="Atkin-Lehner mismatch at p=11"):
        validate_pair(f, table_33a)


def test_validate_pair_rejects_non_weight2_g(table_11a):
    g4 = NewformCoeffs(level=33, weight=4, coeffs={2: 0, 3: 3, 5: 0, 7: 0, 11: -11})
    with pytest.raises(ValidationError, match="weight 2"):
        validate_pair(table_11a, g4)


def test_validate_pair_infers_al_from_counts(table_11a, table_33a):
    # f: a_11 = 1 -> w = -1; g: a_3 = -1 -> w = +1, a_11 = 1 -> w = -1
    spec = validate_pair(table_11a, table_33a)
    assert spec.al_g == {3: 1, 11: -1}


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
    assert seq.index.tolist() == [1] and seq.values.tolist() == [0.0, 1.0]


def test_sequence_indices_coprime(reg_spec, reg_seq):
    N = reg_spec.N
    assert all(math.gcd(n, N) == 1 for n in reg_seq.index.tolist())
    assert reg_seq.index.tolist() == [n for n in range(1, reg_seq.xmax + 1) if math.gcd(n, N) == 1]
    assert reg_seq.values[1] == 1.0


def test_sequence_doubled_pair():
    # degenerate f = g fixture: lambda_F(p) must equal 2 lambda_f(p)
    t = ap_table(CURVE_11A, 100)
    spec = validate_pair(t, t)
    seq = lift_sequence(spec, 100)
    for p in primes_up_to(100).tolist():
        if p != 11:
            assert seq.values[p] == pytest.approx(2 * t.lam(p), abs=1e-12)


def test_sequence_multiplicativity(reg_seq):
    vals = reg_seq.values
    stored = set(reg_seq.index.tolist())
    for m in range(2, 100):
        if m not in stored:
            continue
        for n in range(2, 10**4 // m + 1):
            if n in stored and math.gcd(m, n) == 1:
                assert vals[m * n] == pytest.approx(vals[m] * vals[n], abs=1e-10)


def test_sequence_exact_multiplicativity(reg_seq):
    sc = reg_seq.exact_sign.tolist()
    stored = set(reg_seq.index.tolist())
    for m in range(2, 100):
        if m not in stored:
            continue
        for n in range(2, 10**4 // m + 1):
            if n in stored and math.gcd(m, n) == 1:
                assert sc[m * n] == sc[m] * sc[n]


def test_sequence_exact_vs_float_signs(reg_seq):
    for n, v in seq_items(reg_seq):
        if abs(v) > 1e-9:
            assert reg_seq.sign(n) == (1 if v > 0 else -1)


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
    f = NewformCoeffs(level=11, weight=k, coeffs=fa)
    g = NewformCoeffs(level=33, weight=2, coeffs=ga)
    return validate_pair(f, g)


def test_sequence_weight4_exact_channel():
    xmax = 3000
    seq = lift_sequence(_synthetic_pair(4, xmax, 4), xmax)
    sc = seq.exact_sign.tolist()
    assert seq.exact_sign.shape == seq.values.shape
    stored = set(seq.index.tolist())
    for m in range(2, 60):
        for n in range(2, xmax // m + 1):
            if m in stored and n in stored and math.gcd(m, n) == 1:
                assert sc[m * n] == sc[m] * sc[n]
    checked = 0
    for n, v in seq_items(seq):
        if abs(v) > 1e-9:
            checked += 1
            assert seq.sign(n) == (1 if v > 0 else -1), n
    assert checked > 0.9 * seq.index.size


def test_sequence_square_identity_in_data(reg_spec, reg_seq):
    spec = reg_spec
    for p in primes_up_to(100).tolist():
        if spec.N % p == 0:
            continue
        lhs = reg_seq.values[p] ** 2 - reg_seq.values[p * p]
        rhs = 2 + 1 / p + spec.f.lam(p) * spec.g.lam(p)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sequence_prime_power_bound(reg_spec, reg_seq):
    # coarse product bound (r+1)^2 + (r-1)^2 on stored prime powers
    N = reg_spec.N
    for p in primes_up_to(100).tolist():
        if N % p == 0:
            continue
        q, r = p, 1
        while q <= reg_seq.xmax:
            assert abs(reg_seq.values[q]) <= (r + 1) ** 2 + (r - 1) ** 2
            q *= p
            r += 1


def dirichlet_oracle(spec, xmax):
    """Brute-force coefficients of L(f) L(g) / zeta_N(1+2s).

    Full multiplicative tables for f and g (three-term recurrence at good
    primes, geometric at bad), the inverse zeta factor as mu(m)/m at m^2 with
    (m, N) = 1, then two Dirichlet convolutions.
    """
    def full_table(nf):
        lam = np.zeros(xmax + 1)
        lam[1] = 1.0
        for p in primes_up_to(xmax).tolist():
            lp = nf.lam(p)
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
                        lam[m * q] = lam[m] * powers[r]
                q *= p
                r += 1
        return lam

    lf = full_table(spec.f)
    lg = full_table(spec.g)
    # mobius via factorization (small range, clarity over speed)
    zinv = np.zeros(xmax + 1)
    zinv[1] = 1.0
    m = 2
    while m * m <= xmax:
        if math.gcd(m, spec.N) == 1:
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
    for n in range(1, xmax + 1):
        if math.gcd(n, reg_spec.N) == 1:
            assert seq.values[n] == pytest.approx(oracle[n], abs=1e-10), n


def test_sequence_table_too_short(table_11a, table_33a):
    spec = validate_pair(table_11a, table_33a)
    with pytest.raises(ValidationError, match="missing p="):
        lift_sequence(spec, 10**5)


def test_sequence_rejects_exact_on_normalized():
    f = NewformCoeffs(level=11, weight=2,
                      coeffs={2: -0.7, 3: -0.5, 5: 0.4, 7: -0.7, 11: 11**-0.5}, normalized=True)
    g = NewformCoeffs(level=33, weight=2,
                      coeffs={2: 0.7, 3: -(3**-0.5), 5: -0.9, 7: 1.5, 11: 11**-0.5},
                      normalized=True)
    spec = validate_pair(f, g)
    seq = lift_sequence(spec, 10)
    assert seq.exact_sign is None  # normalized tables get no exact channel
    assert seq.values[2] == pytest.approx(0.0, abs=1e-15)
    assert seq.sign(2) is None  # inside the sign tolerance


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
    N = spec.N
    ps = primes_up_to(xmax)
    pw_float, pw_int = {}, {}
    for p in ps.tolist():
        if N % p == 0:
            continue
        rmax, q = 1, p
        while q * p <= xmax:
            q *= p
            rmax += 1
        pw_float[p] = lift_euler_coeffs(spec.f.lam(p), spec.g.lam(p), p, rmax)
        if exact:
            pw_int[p] = lift_euler_ints(spec.f.a_exact(p), spec.g.a_exact(p), p, rmax, spec.weight)
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
    got = seq.values[seq.index]
    assert np.array_equal(got.view(np.uint64), np.array(list(values.values())).view(np.uint64))
    if scaled is None:
        assert seq.exact_sign is None
    else:
        # the signs of the reference's Python-int products
        assert seq.signs().tolist() == [(v > 0) - (v < 0) for v in scaled.values()]


def test_dense_sequence_matches_dict_reference_11a_33a():
    xmax = 2 * 10**4
    spec = validate_pair(ap_table(CURVE_11A, xmax), ap_table(CURVE_33A, xmax))
    seq = lift_sequence(spec, xmax)
    assert spec.f.a_array.dtype == np.int64
    _assert_matches_reference(spec, seq)


def test_dense_sequence_matches_dict_reference_weight4():
    xmax = 3000
    spec = _synthetic_pair(4, xmax, 4)
    _assert_matches_reference(spec, lift_sequence(spec, xmax))


def test_dense_sequence_matches_dict_reference_python_int_table():
    # 16 pmax^11 >= 2^126 at weight 12 and pmax 3000: the sign of I_1 is
    # taken over a_array's Python ints
    xmax = 3000
    spec = _synthetic_pair(12, xmax, 12)
    assert spec.f.a_array.dtype == object
    _assert_matches_reference(spec, lift_sequence(spec, xmax))


def test_dense_sequence_matches_dict_reference_normalized_zeros():
    # (-0.0) + (-0.0) is -0.0 but the two-term fsum gives 0.0; p = 13, 17, 19
    # lie above sqrt(200), where lambda_F(p) is one array add
    ps = primes_up_to(200).tolist()
    fc = {p: (-0.0 if p in (13, 17, 19) else 0.3) for p in ps}
    gc = {p: (-0.0 if p in (13, 17, 19) else -0.7) for p in ps}
    fc[11], gc[3], gc[11] = 11**-0.5, -(3**-0.5), 11**-0.5
    f = NewformCoeffs(level=11, weight=2, coeffs=fc, normalized=True)
    g = NewformCoeffs(level=33, weight=2, coeffs=gc, normalized=True)
    spec = validate_pair(f, g)
    seq = lift_sequence(spec, 200)
    assert math.copysign(1.0, seq.values[13]) == 1.0
    _assert_matches_reference(spec, seq)


def test_scaled_overflow_falls_back_to_python_ints():
    # weight 12: lambda_F(n) n^(11/2) passes 2^63 below xmax while the tables
    # fit int64, so a per-n int64 product would wrap; the exact signs must
    # still be those of the reference's Python-int products
    xmax = 1800
    spec = _synthetic_pair(12, xmax, 1)
    seq = lift_sequence(spec, xmax)
    assert spec.f.a_array.dtype == np.int64
    _, scaled = dict_lift_reference(spec, xmax)
    # every Euler coefficient I(p^e) fits int64; the overflow is in the products
    assert max(abs(v) for n, v in scaled.items() if len(factorize(n)) == 1) < 2**62
    assert max(abs(v) for v in scaled.values()) >= 2**63
    _assert_matches_reference(spec, seq)
    assert seq.signs().tolist() == [seq.sign(n) for n in seq.index.tolist()]
    for n, v in seq_items(seq):
        if abs(v) > 1e-9:
            assert seq.sign(n) == (1 if v > 0 else -1), n


def test_signs_array_matches_scalar_rule(reg_seq):
    assert reg_seq.signs().tolist() == [reg_seq.sign(n) for n in reg_seq.index.tolist()]
    f = NewformCoeffs(level=11, weight=2,
                      coeffs={2: -0.5, 3: 0.25, 5: 0.0, 7: 0.1, 11: 11**-0.5}, normalized=True)
    g = NewformCoeffs(level=33, weight=2,
                      coeffs={2: 0.5, 3: -(3**-0.5), 5: 0.0, 7: 0.2, 11: 11**-0.5},
                      normalized=True)
    seq = lift_sequence(validate_pair(f, g), 10)
    codes = seq.signs().tolist()
    assert codes == [UNCERTAIN if seq.sign(n) is None else seq.sign(n)
                     for n in seq.index.tolist()]
    assert UNCERTAIN in codes


def test_signs_array_is_one_read_only_object(reg_spec):
    seq = lift_sequence(reg_spec, 500)
    codes = seq.signs()
    assert seq.signs() is codes and not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0] = -1


def test_sign_rejects_n_outside_sequence(reg_seq):
    for n in (0, 3, 11, 33, 99, reg_seq.xmax + 1, -1):
        with pytest.raises(ValidationError, match="not in the sequence"):
            reg_seq.sign(n)
    assert reg_seq.sign(reg_seq.index[-1].item()) in (-1, 0, 1)


def test_lam_array_bit_identical_to_lam():
    # int64 a_array at weights 2 and 4, Python ints from weight 12 on
    for k, seed in ((2, 2), (4, 4), (12, 12), (24, 24), (100, 100)):
        spec = _synthetic_pair(k, 3000, seed)
        for h in (spec.f, spec.g):
            want = np.array([h.lam(p) for p in h.coeffs])
            assert h.a_array.dtype == (object if h.weight >= 12 else np.int64)
            assert np.array_equal(h.lam_array.view(np.uint64), want.view(np.uint64)), k
            assert h.prime_array.tolist() == list(h.coeffs)


def test_sequence_rejects_nan_above_sqrt_xmax():
    # a non-finite lambda(p) is refused when the table is built, before any
    # sequence reaches it; the array path above sqrt(xmax) has no check of its own
    fc = {p: 0.1 for p in primes_up_to(100).tolist()}
    fc[11] = 0.3
    for bad in (math.nan, math.inf, -math.inf):
        fc[97] = bad
        with pytest.raises(ValidationError, match=r"p=97: need \|lambda\| <= 2"):
            NewformCoeffs(level=11, weight=2, coeffs=fc, normalized=True)
