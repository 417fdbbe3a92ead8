import math
import time
from fractions import Fraction

import numpy as np
import pytest

from yoshida.errors import ValidationError
from yoshida.hecke import _FLOAT_BOUND_SLACK, NewformCoeffs, hecke_power_seq
from yoshida.primes import prime_sieve, primes_up_to
from tests.conftest import table


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
# NewformCoeffs.atkin_lehner
# ---------------------------------------------------------------------------

def test_atkin_lehner_inference():
    assert table(11, 2, {2: -2, 3: -1, 5: 1, 7: -2, 11: 1}).atkin_lehner == {11: -1}
    assert table(3, 2, {2: 0, 3: -1}).atkin_lehner == {3: 1}
    # weight 4: w_p = -a_p / p (an a_p of another size is refused when the
    # table is built: test_table_rejects_bad_prime_out_of_range)
    assert table(5, 4, {2: 3, 3: -1, 5: -5}).atkin_lehner == {5: 1}
    # a normalized lambda(p) is read as the integer it rounds to
    nf = table(11, 2, {2: 0.0, 3: 0.0, 5: 0.0, 7: 0.0, 11: -0.301511}, normalized=True)
    assert nf.atkin_lehner == {11: 1}
    # a table that stops below its level prime has no sign there
    short = table(11, 2, {2: -2, 3: -1, 5: 1, 7: -2})
    with pytest.raises(ValidationError, match="missing bad-prime coefficient at p=11"):
        short.atkin_lehner


def test_atkin_lehner_matches_the_pair_signs(table_11a, table_33a):
    # the maps validate_pair returned when it inferred the signs from the
    # coefficients itself: 11a/33a, and the seeded weight-4 and weight-12 pairs
    from tests.test_lift import _synthetic_pair
    pairs = [(table_11a, table_33a)]
    pairs += [(s.f, s.g) for s in (_synthetic_pair(4, 3000, 4), _synthetic_pair(12, 1800, 1))]
    for f, g in pairs:
        assert f.atkin_lehner == {11: -1}
        assert g.atkin_lehner == {3: 1, 11: -1}
        assert list(g.atkin_lehner) == [3, 11]


# ---------------------------------------------------------------------------
# NewformCoeffs validation
# ---------------------------------------------------------------------------

def test_table_accepts_valid():
    nf = table(11, 2, {2: -2, 3: -1, 5: 1, 7: -2, 11: 1})
    assert nf.pmax == 11
    assert nf.lam_array[0] == pytest.approx(-math.sqrt(2))
    assert nf.values.tolist() == [-2, -1, 1, -2, 1]
    assert nf.level_primes == (11,)


def _weight12(pmax):
    ps = primes_up_to(pmax).tolist()
    return table(11, 12, {p: -(11**5) if p == 11 else 0 for p in ps})


def test_values_typed_once_by_the_integer_width_rule():
    # weight 12: 16 pmax^11 < 2^126 holds at 2179 and fails at the next prime, 2203
    assert 16 * 2179**11 < 2**126 <= 16 * 2203**11
    below, above = _weight12(2179), _weight12(2203)
    assert below.values.dtype == np.int64 and below.pmax == 2179
    assert above.values.dtype == object and above.pmax == 2203
    assert {type(v) for v in above.values.tolist()} == {int}
    assert table(11, 2, {2: -2, 3: -1, 5: 1, 7: -2, 11: 1}).values.dtype == np.int64
    nf = table(11, 2, {2: -1, 3: 0, 5: 1, 7: 0, 11: 11**-0.5}, normalized=True)
    assert nf.values.dtype == np.float64 and nf.values.tolist()[:3] == [-1.0, 0.0, 1.0]
    # an int64 column is kept as it was given
    col = np.array([-2, -1, 1, -2, 1], dtype=np.int64)
    t = NewformCoeffs(11, 2, col)
    assert np.shares_memory(t.values, col)
    assert nf.lam_array is nf.values


def test_bound_checks_read_the_column_the_table_keeps(monkeypatch):
    # the scalar rule at the level prime 11 sees values already typed by the
    # width rule, on both sides of its weight-12 edge
    seen = []
    check = NewformCoeffs._check_bound

    def spy(self, p, v, good):
        if p == 11:
            seen.append(self.values.dtype)
        check(self, p, v, good)

    monkeypatch.setattr(NewformCoeffs, "_check_bound", spy)
    below, above = _weight12(2179), _weight12(2203)
    assert seen == [np.int64, object]
    assert [below.values.dtype, above.values.dtype] == seen


def test_prime_array_is_the_first_n_primes():
    # trial division, independent of the sieve; n < 6 and n >= 6 take the
    # two branches of nth_prime_bound
    first = [q for q in range(2, 40) if all(q % d for d in range(2, q))][:12]
    for n in range(13):
        nf = NewformCoeffs(1, 2, [0] * n)
        assert nf.prime_array.dtype == np.int64
        assert nf.prime_array.tolist() == first[:n], n
        assert nf.pmax == (first[n - 1] if n else 0)


def test_primes_are_not_a_parameter():
    # a prime column before the values is refused, not read as the values
    # with the value column taken for the normalized flag
    with pytest.raises(TypeError):
        NewformCoeffs(11, 2, [2, 3, 5], [0, 0, 0])
    with pytest.raises(TypeError):
        NewformCoeffs(11, 2, [0.0, 0.0], True)
    assert NewformCoeffs(11, 2, [0.0, 0.0], normalized=True).normalized


def test_good_primes_read_from_the_factorized_level():
    # the primorial 2 * 3 * ... * 53 is above 2^63, and 2^64 + 13 is a prime
    # above 2^64: neither level fits an int64 array
    ps = primes_up_to(59).tolist()
    for level in (math.prod(ps[:-1]), 2**64 + 13, 11, 1):
        nf = table(level, 2, {p: (-1 if level % p == 0 else 0) for p in ps})
        assert nf.good.dtype == bool
        assert nf.good.tolist() == [level % p != 0 for p in ps], level


def test_table_rejects_nonsquarefree_level():
    with pytest.raises(ValidationError, match="squarefree"):
        table(12, 2, {2: 0})


def test_integer_table_weight_bound_is_exact():
    # 2^(k-1) < 2^2046 at k = 2046: the largest a_2 still gives a finite lambda
    nf = table(1, 2046, {2: -(2**1023)})
    assert nf.lam_array[0] == -2 / math.sqrt(2)
    for k in (2048, 10**6):
        with pytest.raises(ValidationError, match="must stay below 2\\^2046"):
            table(1, k, {2: 0})
    # normalized tables are bounded alike: a_p = lambda(p) p^((k-1)/2) must be finite
    nf = table(1, 2046, {2: 1.0}, normalized=True)
    assert nf.lam_array[0] == 1.0
    with pytest.raises(ValidationError, match="must stay below 2\\^2046"):
        table(1, 2048, {2: 1.0}, normalized=True)


def test_table_rejects_odd_weight():
    with pytest.raises(ValidationError):
        table(11, 3, {2: 0})


def test_table_rejects_deligne_violation():
    with pytest.raises(ValidationError, match="Deligne"):
        table(11, 2, {2: 5})
    table(11, 2, {2: -2.0}, normalized=True)  # |lam| = 2 allowed
    with pytest.raises(ValidationError, match="Deligne"):
        table(11, 2, {2: 2.1}, normalized=True)


def test_table_rejects_bad_prime_out_of_range():
    # a level prime is of multiplicative type: |a_p| = p^((k-2)/2) exactly
    rows = {2: -2, 3: -1, 5: 1, 7: -2}
    for a11 in (0, 2):
        with pytest.raises(ValidationError, match="bad-prime bound violated at p=11"):
            table(11, 2, {**rows, 11: a11})
    table(5, 4, {2: 3, 3: -1, 5: -5})
    # 3 passes a_p^2 <= p^(k-2), 10 passes a_p^2 <= p^(k-1)
    for a5 in (3, 10, 12):
        with pytest.raises(ValidationError,
                           match=rf"p=5: need \|a_p\| = p\^\(\(k-2\)/2\), got {a5}$"):
            table(5, 4, {2: 3, 3: -1, 5: a5})
    # normalized: lambda(11) sqrt(11) must round to +-1 within the decimal slack
    for lam in (0.3, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="bad-prime bound violated at p=11"):
            table(11, 2, {**rows, 11: lam}, normalized=True)
    assert table(11, 2, {**rows, 11: 0.301511}, normalized=True).integer_ap(11) == 1


def _refusal(make):
    """The ValidationError text make() raises, or None."""
    try:
        make()
    except ValidationError as exc:
        return str(exc)
    return None


def _scalar_refusal(ref, coeffs):
    """The first refusal of the scalar rule (_check_bound) over coeffs, in
    table order; ref is a valid table of the same level, weight and kind
    that holds the same level-prime values."""
    for p, v in coeffs.items():
        msg = _refusal(lambda: ref._check_bound(p, v, ref.level % p != 0))
        if msg is not None:
            return msg
    return None


@pytest.mark.parametrize("k,pmax,dtype", [(2, 50, np.int64), (4, 50, np.int64),
                                          (12, 50, np.int64), (12, 2400, object)])
def test_array_bound_check_matches_scalar_rule(k, pmax, dtype):
    """The one-pass Deligne check over lam_array refuses exactly what the
    scalar rule refuses, at the same first p, at the integer edges of the
    bound, past int64 and past binary64, in int64 and object tables."""
    ps = primes_up_to(pmax).tolist()
    base = {p: 0 for p in ps}
    base[11] = -(11 ** ((k - 2) // 2))
    ref = table(11, k, base)
    assert ref.values.dtype == dtype
    p, q = ps[-3], ps[-1]
    edge = math.isqrt(4 * p ** (k - 1))
    edge_q = math.isqrt(4 * q ** (k - 1))
    values = [edge, -edge, edge + 1, -edge - 1, 2**32, -2**32, 2**63 - 1, -(2**63 - 1),
              -2**63, 2**63, 2**64, 2**1100, -2**1100]
    for a in values:
        for later in (None, edge_q + 1, -edge_q):
            coeffs = {**base, p: a}
            if later is not None:
                coeffs[q] = later
            want = _scalar_refusal(ref, coeffs)
            assert _refusal(lambda: table(11, k, coeffs)) == want
            assert (want is None) == (a * a <= 4 * p ** (k - 1) and later != edge_q + 1)


@pytest.mark.parametrize("k", [2, 4, 12])
def test_array_bound_check_matches_scalar_rule_normalized(k):
    cap = 2.0 + _FLOAT_BOUND_SLACK
    ps = primes_up_to(50).tolist()
    base = {p: 0.0 for p in ps}
    base[11] = -1 / math.sqrt(11)
    ref = table(11, k, base, normalized=True)
    p, q = ps[-3], ps[-1]
    values = [2.0, -2.0, cap, -cap, math.nextafter(cap, math.inf), -math.nextafter(cap, math.inf),
              math.nan, -math.nan, math.inf, -math.inf, 1e308]
    for lam in values:
        for later in (None, math.nextafter(cap, math.inf), -2.0):
            coeffs = {**base, p: lam}
            if later is not None:
                coeffs[q] = later
            want = _scalar_refusal(ref, coeffs)
            got = _refusal(lambda: table(11, k, coeffs, normalized=True))
            assert got == want
            assert (want is None) == (abs(lam) <= cap and later != math.nextafter(cap, math.inf))


def test_bound_check_names_first_prime_across_level_primes():
    rows = {2: -2, 3: -1, 5: 1, 7: -2, 11: 0, 13: 4}
    with pytest.raises(ValidationError, match=r"Deligne bound violated at p=7: a_p=6$"):
        table(11, 2, {**rows, 7: 6})
    with pytest.raises(ValidationError, match="bad-prime bound violated at p=11"):
        table(11, 2, {**rows, 13: 8})


def test_cover_reporting():
    nf = table(11, 2, {2: -2, 3: -1, 5: 1, 7: -2})
    assert nf.require_cover(7) == 4
    assert nf.require_cover(10) == 4  # no prime in (7, 10]
    assert nf.require_cover(6) == 3 and nf.require_cover(1) == 0
    with pytest.raises(ValidationError, match="missing p=11"):
        nf.require_cover(11)
    with pytest.raises(ValidationError, match="missing p=11"):
        nf.require_cover(20)
    # the first prime above pmax is found by stepping from pmax + 1, with no
    # sieve up to y
    big = table(1, 2, {p: 0 for p in primes_up_to(199).tolist()})
    t0 = time.perf_counter()
    assert big.require_cover(210) == 46
    with pytest.raises(ValidationError, match="missing p=211"):
        big.require_cover(10**8)
    assert time.perf_counter() - t0 < 0.5


def test_require_cover_counts_the_primes_up_to_y():
    nf = table(1, 2, dict.fromkeys(primes_up_to(30000).tolist(), 0))
    # pi[y + 1] is the number of primes <= y, from one sieve
    pi = np.concatenate(([0], np.cumsum(prime_sieve(nf.pmax))))
    assert [nf.require_cover(y) for y in range(-1, nf.pmax + 1)] == pi.tolist()
    for y in (-1, 0, 2, 10, 29988, nf.pmax):
        c = nf.require_cover(y)
        assert c == primes_up_to(y).size
        assert nf.prime_array[:c].tolist() == primes_up_to(y).tolist()
    empty = table(1, 2, {})
    assert empty.pmax == 0 and empty.prime_array.size == 0
    assert [empty.require_cover(y) for y in (-1, 0, 1)] == [0, 0, 0]
    with pytest.raises(ValidationError, match="missing p=2"):
        empty.require_cover(2)
