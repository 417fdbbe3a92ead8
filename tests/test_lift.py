import math

import numpy as np
import pytest

from yoshida.curves import ap_table
from yoshida.errors import ValidationError
from yoshida.hecke import NewformCoeffs
from yoshida.lift import (
    lift_euler_coeffs,
    lift_euler_ints,
    lift_sequence,
    validate_pair,
)
from yoshida.primes import factorize, primes_up_to
from tests.conftest import CURVE_11A


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
    with pytest.raises(ValidationError, match="Atkin-Lehner mismatch at p=11"):
        validate_pair(table_11a, table_33a, al_f={11: 1}, al_g={11: -1})


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
    assert seq.values == {1: 1.0}


def test_sequence_indices_coprime(reg_seq):
    N = reg_seq.spec.N
    assert all(math.gcd(n, N) == 1 for n in reg_seq.values)
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
    for m in range(2, 100):
        if m not in vals:
            continue
        for n in range(2, 10**4 // m + 1):
            if n in vals and math.gcd(m, n) == 1:
                assert vals[m * n] == pytest.approx(vals[m] * vals[n], abs=1e-10)


def test_sequence_exact_multiplicativity(reg_seq):
    sc = reg_seq.scaled
    for m in range(2, 100):
        if m not in sc:
            continue
        for n in range(2, 10**4 // m + 1):
            if n in sc and math.gcd(m, n) == 1:
                assert sc[m * n] == sc[m] * sc[n]


def test_sequence_exact_vs_float_signs(reg_seq):
    for n, v in reg_seq.values.items():
        if abs(v) > 1e-9:
            assert reg_seq.sign(n) == (1 if v > 0 else -1)


def test_sequence_weight4_exact_channel():
    # synthetic Deligne-bounded integer tables: f of weight 4 and level 11,
    # g of weight 2 and level 33, with w_11 = -1 on both sides
    rng = np.random.default_rng(4)
    xmax = 3000
    ps = primes_up_to(xmax).tolist()
    fa = {p: int(rng.integers(-math.isqrt(4 * p**3), math.isqrt(4 * p**3) + 1)) for p in ps}
    ga = {p: int(rng.integers(-math.isqrt(4 * p), math.isqrt(4 * p) + 1)) for p in ps}
    fa[11], ga[3], ga[11] = 11, -1, 1
    f = NewformCoeffs(level=11, weight=4, coeffs=fa)
    g = NewformCoeffs(level=33, weight=2, coeffs=ga)
    seq = lift_sequence(validate_pair(f, g), xmax)
    sc = seq.scaled
    assert sc is not None and sc.keys() == seq.values.keys()
    for m in range(2, 60):
        for n in range(2, xmax // m + 1):
            if m in sc and n in sc and math.gcd(m, n) == 1:
                assert sc[m * n] == sc[m] * sc[n]
    checked = 0
    for n, v in seq.values.items():
        if abs(v) > 1e-9:
            checked += 1
            assert seq.sign(n) == (1 if v > 0 else -1), n
    assert checked > 0.9 * len(sc)


def test_sequence_square_identity_in_data(reg_seq):
    spec = reg_seq.spec
    for p in primes_up_to(100).tolist():
        if spec.N % p == 0:
            continue
        lhs = reg_seq.values[p] ** 2 - reg_seq.values[p * p]
        rhs = 2 + 1 / p + spec.f.lam(p) * spec.g.lam(p)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sequence_prime_power_bound(reg_seq):
    # coarse product bound (r+1)^2 + (r-1)^2 on stored prime powers
    N = reg_seq.spec.N
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
    f = NewformCoeffs(level=11, weight=2, coeffs={2: -0.7, 3: -0.5, 5: 0.4, 7: -0.7, 11: 0.3},
                      normalized=True)
    g = NewformCoeffs(level=33, weight=2,
                      coeffs={2: 0.7, 3: -0.5, 5: -0.9, 7: 1.5, 11: 0.3}, normalized=True)
    spec = validate_pair(f, g, al_f={11: -1}, al_g={3: 1, 11: -1})
    seq = lift_sequence(spec, 10)
    assert seq.scaled is None  # normalized tables get no exact channel
    assert seq.values[2] == pytest.approx(0.0, abs=1e-15)
    assert seq.sign(2) is None  # inside the sign tolerance
