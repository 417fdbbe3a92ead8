import math
import time
from fractions import Fraction

import numpy as np
import pytest

from yoshida.errors import ValidationError
from yoshida.hecke import NewformCoeffs, hecke_power_seq, infer_atkin_lehner
from yoshida.primes import primes_up_to


def chebyshev_u(r, x):
    """Independent oracle: U_r(x) by the explicit polynomial sum
    U_r(x) = sum_j (-1)^j C(r-j, j) (2x)^(r-2j)."""
    return sum((-1) ** j * math.comb(r - j, j) * (2 * x) ** (r - 2 * j) for j in range(r // 2 + 1))


# ---------------------------------------------------------------------------
# hecke_power_seq
# ---------------------------------------------------------------------------

def test_power_examples():
    assert hecke_power_seq(0.0, 2)[2] == -1.0
    assert hecke_power_seq(2.0, 3)[3] == 4.0
    assert hecke_power_seq(1.0, 4)[4] == -1.0  # 1 - 3 + 1


def test_power_rejects_negative_exponent():
    with pytest.raises(ValidationError):
        hecke_power_seq(0.5, -1)
    with pytest.raises(ValidationError):
        hecke_power_seq(float("nan"), 2)


def test_power_array_bit_identical_to_scalar_calls():
    lams = np.random.default_rng(5).uniform(-2.0, 2.0, size=500)
    lams[:4] = (-2.0, 2.0, 0.0, -0.0)
    arr = hecke_power_seq(lams, 6)
    for r in range(1, 7):
        want = np.array([hecke_power_seq(float(v), 6)[r] for v in lams])
        assert np.array_equal(arr[r].view(np.uint64), want.view(np.uint64)), r
    assert arr[0] == 1.0
    with pytest.raises(ValidationError, match="finite"):
        hecke_power_seq(np.array([0.5, math.nan, 1.0]), 4)


def test_power_matches_chebyshev_on_grid():
    # recurrence vs direct polynomial evaluation, 1e-3 grid, all r <= 8
    for lam in np.arange(-2.0, 2.0 + 1e-9, 1e-3):
        seq = hecke_power_seq(lam, 8)
        for r in range(9):
            assert abs(seq[r] - chebyshev_u(r, lam / 2)) < 1e-10


def test_power_degree_bound_on_grid():
    for lam in np.arange(-2.0, 2.0 + 1e-9, 1e-3):
        seq = hecke_power_seq(lam, 8)
        for r, v in enumerate(seq):
            assert abs(v) <= r + 1 + 1e-12


def test_power_exact_float_agreement():
    # unnormalised integer recurrence a(p^(r+1)) = a a(p^r) - p a(p^(r-1)),
    # then divide by p^(r/2) exactly via Fractions and sqrt at the end
    for p, a_p in [(2, -2), (3, -1), (5, 1), (7, -2), (13, 4)]:
        lam = a_p / math.sqrt(p)
        seq = hecke_power_seq(lam, 8)
        A = [1, a_p]
        for _ in range(7):
            A.append(a_p * A[-1] - p * A[-2])
        for r in range(9):
            exact = A[r] / p ** Fraction(r, 2) if r % 2 == 0 else A[r] / (p ** (r // 2) * math.sqrt(p))
            assert abs(seq[r] - float(exact)) < 1e-10


# ---------------------------------------------------------------------------
# infer_atkin_lehner
# ---------------------------------------------------------------------------

def test_atkin_lehner_inference():
    assert infer_atkin_lehner(1, 11, 2) == -1
    assert infer_atkin_lehner(-1, 3, 2) == 1
    with pytest.raises(ValidationError):
        infer_atkin_lehner(0, 5, 2)
    with pytest.raises(ValidationError):
        infer_atkin_lehner(2, 5, 2)
    # weight 4: |a_p| must equal p
    assert infer_atkin_lehner(-5, 5, 4) == 1
    with pytest.raises(ValidationError):
        infer_atkin_lehner(3, 5, 4)


# ---------------------------------------------------------------------------
# NewformCoeffs validation
# ---------------------------------------------------------------------------

def test_table_accepts_valid():
    nf = NewformCoeffs(level=11, weight=2, coeffs={2: -2, 3: -1, 5: 1, 7: -2, 11: 1})
    assert nf.pmax == 11
    assert nf.lam(2) == pytest.approx(-math.sqrt(2))
    assert nf.a_exact(11) == 1
    assert nf.level_primes == (11,)


def test_table_rejects_nonsquarefree_level():
    with pytest.raises(ValidationError, match="squarefree"):
        NewformCoeffs(level=12, weight=2, coeffs={2: 0})


def test_integer_table_weight_bound_is_exact():
    # 2^(k-1) < 2^2046 at k = 2046: the largest a_2 still gives a finite lambda
    nf = NewformCoeffs(level=1, weight=2046, coeffs={2: -(2**1023)})
    assert nf.lam(2) == -2 / math.sqrt(2)
    for k in (2048, 10**6):
        with pytest.raises(ValidationError, match="must stay below 2\\^2046"):
            NewformCoeffs(level=1, weight=k, coeffs={2: 0})
    # normalized tables are bounded alike: a_p = lambda(p) p^((k-1)/2) must be finite
    assert NewformCoeffs(level=1, weight=2046, coeffs={2: 1.0}, normalized=True).lam(2) == 1.0
    with pytest.raises(ValidationError, match="must stay below 2\\^2046"):
        NewformCoeffs(level=1, weight=2048, coeffs={2: 1.0}, normalized=True)


def test_table_rejects_odd_weight():
    with pytest.raises(ValidationError):
        NewformCoeffs(level=11, weight=3, coeffs={2: 0})


def test_table_rejects_gap():
    with pytest.raises(ValidationError, match="missing p=3"):
        NewformCoeffs(level=7, weight=2, coeffs={2: 1, 5: 1})


def test_table_rejects_gap_in_large_table():
    # the gap search builds each set once, so a 1e5 table is rejected quickly
    coeffs = {p: 0 for p in primes_up_to(10**5).tolist() if p != 99989}
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="missing p=99989"):
        NewformCoeffs(level=7, weight=2, coeffs=coeffs)
    assert time.perf_counter() - t0 < 1.0


def test_table_rejects_nonprime_key():
    with pytest.raises(ValidationError, match="not prime"):
        NewformCoeffs(level=7, weight=2, coeffs={2: 1, 3: 1, 4: 1, 5: 1})


def test_table_rejects_deligne_violation():
    with pytest.raises(ValidationError, match="Deligne"):
        NewformCoeffs(level=11, weight=2, coeffs={2: 5})
    NewformCoeffs(level=11, weight=2, coeffs={2: -2.0}, normalized=True)  # |lam| = 2 allowed
    with pytest.raises(ValidationError, match="Deligne"):
        NewformCoeffs(level=11, weight=2, coeffs={2: 2.1}, normalized=True)


def test_table_rejects_bad_prime_out_of_range():
    with pytest.raises(ValidationError, match="p=11"):
        NewformCoeffs(level=11, weight=2, coeffs={2: 0, 3: 0, 5: 0, 7: 0, 11: 2})
    # weight 4 at a bad prime: a_p^2 <= p^3
    NewformCoeffs(level=5, weight=4, coeffs={2: 3, 3: -1, 5: -5})
    with pytest.raises(ValidationError):
        NewformCoeffs(level=5, weight=4, coeffs={2: 3, 3: -1, 5: 12})


def test_cover_reporting():
    nf = NewformCoeffs(level=11, weight=2, coeffs={2: -2, 3: -1, 5: 1, 7: -2})
    assert nf.first_missing_prime(7) is None
    assert nf.first_missing_prime(10) is None  # no prime in (7, 10]
    assert nf.first_missing_prime(11) == 11
    with pytest.raises(ValidationError, match="missing p=11"):
        nf.require_cover(20)
    # the first prime above pmax is found by stepping from pmax + 1, with no
    # sieve up to y
    big = NewformCoeffs(level=11, weight=2, coeffs={p: 0 for p in primes_up_to(199).tolist()})
    t0 = time.perf_counter()
    assert big.first_missing_prime(10**8) == 211
    with pytest.raises(ValidationError, match="missing p=211"):
        big.require_cover(10**8)
    assert time.perf_counter() - t0 < 0.5
