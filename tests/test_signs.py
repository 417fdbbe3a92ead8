import math
import random
from fractions import Fraction

import numpy as np
import pytest

from yoshida.errors import SignUncertainError, ValidationError
from yoshida.lift import UNCERTAIN, EigenSequence, lift_sequence, validate_pair
from yoshida.primes import factorize, primes_up_to
from yoshida.signs import (
    BoundConfig,
    abs_sum_ratio,
    bad_factor_bound,
    bound_report,
    conductor_proxy,
    corollary_check,
    first_negative,
    invert_xlog_bound,
    lower_bound_witness,
    v_density,
    weighted_sum,
)

from tests.conftest import lam, normalized_pair, seq_items, seq_signs, seq_value, table


def _flat_table(level, pmax, lam):
    """Normalized table with constant eigenvalue at every prime <= pmax."""
    coeffs = {int(p): float(lam) for p in primes_up_to(pmax)}
    for p in list(coeffs):
        if level % p == 0:
            coeffs[p] = 0.0
    return table(level, 2, coeffs, normalized=True)


# ---------------------------------------------------------------------------
# weighted_sum / first_negative
# ---------------------------------------------------------------------------

def _seq_from_values(values, xmax, signs=None):
    """EigenSequence holding exactly the {n: lambda_F(n)} entries, with the
    sign codes {n: code} of signs, by default the sign of each value."""
    index = np.array(sorted(values), dtype=np.int64)
    column = np.array([values[n] for n in index.tolist()], dtype=np.float64)
    codes = np.sign(column) if signs is None else [signs[n] for n in index.tolist()]
    return EigenSequence(xmax=xmax, index=index, values=column,
                         signs=np.array(codes, dtype=np.int8))


def _tampered(seq, new):
    """A copy of seq holding lambda_F(n) and its sign code (value, code) =
    new[n] at the n of new, and seq's own entries elsewhere."""
    at = np.searchsorted(seq.index, list(new))
    values, signs = seq.values.copy(), seq.signs.copy()
    values[at], signs[at] = zip(*new.values())
    return EigenSequence(xmax=seq.xmax, index=seq.index, values=values, signs=signs)


def test_weighted_sum_x1():
    seq = _seq_from_values({1: 1.0, 2: 3.0}, 2)
    assert weighted_sum(seq, 1) == 0.0


def test_weighted_sum_only_n1():
    seq = _seq_from_values({1: 1.0, 2: 0.0, 3: 0.0}, 4)
    assert weighted_sum(seq, 3.5) == pytest.approx(math.log(3.5), abs=1e-15)


def test_weighted_sum_order_insensitive(reg_seq):
    x = 4096.0
    base = weighted_sum(reg_seq, x)
    items = [(n, v) for n, v in seq_items(reg_seq) if n <= x]
    rng = random.Random(123)
    lx = math.log(x)
    for _ in range(5):
        rng.shuffle(items)
        alt = math.fsum(v * (lx - math.log(n)) for n, v in items)
        assert abs(alt - base) <= 1e-10 * max(1.0, abs(base))


def test_weighted_sum_range_error(reg_seq):
    with pytest.raises(ValidationError):
        weighted_sum(reg_seq, reg_seq.xmax + 1)
    with pytest.raises(ValidationError, match="x must be >= 1"):
        weighted_sum(reg_seq, math.nan)


def test_count_upto_matches_full_count(reg_seq):
    """The binary-search count of stored n <= x equals the full comparison
    pass at every bound_report grid point, at non-integer x and at xmax, and
    the weighted sum over that prefix keeps its bits."""
    grid = [float(2**j) for j in range(1, 14)] + [float(reg_seq.xmax)]
    for x in grid + [1, 1.5, 2.999, 1000.5, 4096.25, reg_seq.xmax, reg_seq.xmax - 0.5]:
        c = reg_seq.count_upto(x)
        assert c == np.count_nonzero(reg_seq.index <= x)
        lx = math.log(x)
        full = reg_seq.index <= x
        terms = reg_seq.values[full] * (lx - reg_seq.log_index[full])
        assert weighted_sum(reg_seq, x) == math.fsum(terms.tolist())


def test_first_negative_absent():
    seq = _seq_from_values({1: 1.0, 2: 0.5, 3: 0.0}, 3)
    assert first_negative(seq) is None


def test_first_negative_minimality():
    seq = _seq_from_values({1: 1.0, 2: 0.1, 5: 0.0, 7: -0.5, 11: -2.0}, 11)
    n = first_negative(seq)
    assert n == 7
    assert all(v >= 0 for m, v in seq_items(seq) if m < n)


def test_first_negative_uncertain_band():
    # an uncertain sign refuses where it comes first, whatever its value:
    # before a certified negative, or with none after it
    values = {1: 1.0, 2: -5e-10, 3: -1.0}
    for v2 in (-5e-10, 5e-10, 0.0, 1.5e-9):
        for last in (-1, 1):
            seq = _seq_from_values({**values, 2: v2}, 3, {1: 1, 2: UNCERTAIN, 3: last})
            with pytest.raises(SignUncertainError, match="sign uncertain at n=2"):
                first_negative(seq)
    # an uncertain sign after the first certified negative does not
    assert first_negative(_seq_from_values(values, 3, {1: 1, 2: -1, 3: UNCERTAIN})) == 2


def test_first_negative_exact_channel_overrides_floats():
    # the certified sign decides, not the value: a tiny or even positive value
    # whose exact sign is -1 is the first negative, and a negative value whose
    # exact sign is 0 is not
    seq = _seq_from_values({1: 1.0, 2: -5e-10}, 2, {1: 1, 2: -1})
    assert first_negative(seq) == 2
    seq = _seq_from_values({1: 1.0, 2: 5e-10, 3: -3e-16, 5: -1.0}, 5, {1: 1, 2: -1, 3: 0, 5: -1})
    assert first_negative(seq) == 2
    seq = _seq_from_values({1: 1.0, 3: -3e-16, 5: -1.0}, 5, {1: 1, 3: 0, 5: -1})
    assert first_negative(seq) == 5


# ---------------------------------------------------------------------------
# conductor proxy and reports
# ---------------------------------------------------------------------------

def test_conductor_proxy(reg_spec):
    assert conductor_proxy(reg_spec, BoundConfig()) == 4 * 11 * 33
    assert conductor_proxy(reg_spec, BoundConfig(conductor_constant=2.5)) == pytest.approx(3630.0)


def test_bound_config_validation():
    with pytest.raises(ValidationError):
        BoundConfig(theta=0.25)
    with pytest.raises(ValidationError):
        BoundConfig(theta=-0.01)
    with pytest.raises(ValidationError):
        BoundConfig(epsilon=-1.0)
    with pytest.raises(ValidationError):
        BoundConfig(conductor_constant=0.0)


def test_bound_report_trivial_sequence(reg_spec):
    seq = lift_sequence(reg_spec, 1)
    rep = bound_report(seq, reg_spec, BoundConfig(theta=0.0, epsilon=0.01))
    assert rep.first_negative_n is None and rep.ratio is None
    assert rep.x_searched == 1


def test_bound_report_values(reg_seq, reg_spec):
    rep = bound_report(reg_seq, reg_spec, BoundConfig())
    assert rep.q_f_hat == 1452.0
    assert rep.bound_value == pytest.approx(math.sqrt(1452.0), abs=1e-9)
    assert rep.first_negative_n == 2
    assert rep.ratio == pytest.approx(2 / math.sqrt(1452.0))
    xs = [s[0] for s in rep.s_curve]
    assert xs == sorted(xs) and xs[-1] == reg_seq.xmax
    # samples carry (x, S, normalised S)
    for x, s, sn in rep.s_curve:
        assert sn == pytest.approx(s / (1452.0**0.25 * math.sqrt(x)), rel=1e-12)


# ---------------------------------------------------------------------------
# invert_xlog_bound
# ---------------------------------------------------------------------------

def test_invert_power0_identity():
    for B in (10.0, 100.0, 1e6):
        assert invert_xlog_bound(B, 0) == B


def test_invert_power1():
    x = invert_xlog_bound(100.0, 1)
    assert abs(x / math.log(x) - 100.0) <= 1e-6
    assert x == pytest.approx(647.278, abs=1e-3)


def test_invert_power4_small_B():
    # the initial bracket endpoint is far below the root here; it must grow
    x = invert_xlog_bound(10.0, 4)
    assert abs(x / math.log(x) ** 4 - 10.0) <= 1e-6


def test_invert_domain_errors():
    with pytest.raises(ValidationError):
        invert_xlog_bound(math.e, 1)
    with pytest.raises(ValidationError):
        invert_xlog_bound(100.0, -1)


# ---------------------------------------------------------------------------
# prime statistics
# ---------------------------------------------------------------------------

def test_abs_sum_ratio_all_zero():
    t = _flat_table(1, 100, 0.0)
    st = abs_sum_ratio(t, 10)
    assert st.ratio_abs == 0.0
    assert st.ratio_sym2 == pytest.approx(1.0)  # each lambda(p^2) = -1
    assert st.pi_yL == 4


def test_abs_sum_ratio_edge_eigenvalues():
    t = _flat_table(1, 100, 2.0)
    st = abs_sum_ratio(t, 10)
    assert st.ratio_abs == pytest.approx(2.0)
    assert st.ratio_sym2 == pytest.approx(3.0)
    assert st.ratio_sym4 == pytest.approx(5.0)


def test_abs_sum_ratio_table_gap(table_11a):
    with pytest.raises(ValidationError, match="missing p="):
        abs_sum_ratio(table_11a, 10**5)


def test_v_density_bounds(table_33a):
    assert v_density(table_33a, 100, 2.0) == 1.0
    t2 = _flat_table(1, 100, 2.0)
    assert v_density(t2, 100, 1.9) == 0.0
    with pytest.raises(ValidationError):
        v_density(table_33a, 100, -0.5)


def test_corollary_check_constant_exact(table_33a):
    cc = corollary_check(table_33a, 100)
    assert cc.contradiction_constant == Fraction(1112, 1000)


def test_corollary_check_all_zero():
    t = _flat_table(1, 100, 0.0)
    cc = corollary_check(t, 100)
    assert cc.d1 == cc.d2 == 1.0 and cc.holds


def test_corollary_check_edge_table():
    t = _flat_table(1, 100, 2.0)
    cc = corollary_check(t, 100)
    assert cc.d1 == cc.d2 == 0.0 and not cc.holds


# ---------------------------------------------------------------------------
# bad_factor_bound
# ---------------------------------------------------------------------------

def test_bad_factor_level_11():
    t = table(11, 2, {2: 0, 3: 0, 5: 0, 7: 0, 11: 1})
    bb = bad_factor_bound(t)
    assert bb.lhs == pytest.approx(1 + 1 / 11, abs=1e-12)  # 1 + (1/sqrt(11))/sqrt(11)
    assert bb.rhs == pytest.approx(1 + 1 / math.sqrt(11), abs=1e-12)
    assert bb.lhs <= bb.rhs


def test_bad_factor_level_1():
    t = _flat_table(1, 10, 0.5)
    bb = bad_factor_bound(t)
    assert bb.lhs == 1.0 and bb.rhs == 1.0


def test_bad_factor_level_6():
    # |lambda(p)| = p^(-1/2) at each level prime: lhs = (1 + 1/2)(1 + 1/3)
    t = table(6, 2, {2: -1, 3: 1})
    bb = bad_factor_bound(t)
    assert bb.lhs == pytest.approx(1.5 * (4 / 3))
    assert bb.rhs == pytest.approx(1 + 1 / math.sqrt(2) + 1 / math.sqrt(3) + 1 / math.sqrt(6))


def test_bad_factor_rhs_matches_the_divisor_sum():
    # oracle: the sum of 1/sqrt(d) over the squarefree divisor lattice
    ps = primes_up_to(400).tolist()
    for level in range(1, 400):
        factors = factorize(level)
        if any(e > 1 for _, e in factors):
            continue
        divisors = [1]
        for p, _ in factors:
            divisors += [d * p for d in divisors]
        oracle = math.fsum(1.0 / math.sqrt(d) for d in divisors)
        t = table(level, 2, {p: -1 if level % p == 0 else 0 for p in ps})
        rhs = bad_factor_bound(t).rhs
        assert abs(rhs - oracle) <= 4e-16 * oracle, level
        if level in (11, 33):
            assert rhs == oracle


def test_bad_factor_lhs_matches_per_prime_loop():
    # oracle: the product over the level primes with the scalar lambda(p), so
    # the level primes and the entries of lam_array outside good line up
    rng = random.Random(6)
    ps = primes_up_to(100).tolist()
    for level in (6, 30, 2 * 3 * 5 * 7 * 11 * 13, 97, 3 * 89):
        for k in (2, 4, 12):
            root = {p: p ** ((k - 2) // 2) for p in ps}
            coeffs = {p: rng.choice((-1, 1)) * root[p] if level % p == 0 else 0 for p in ps}
            t = table(level, k, coeffs)
            tn = table(level, k, {p: lam(t, p) for p in ps}, normalized=True)
            for h in (t, tn):
                want = 1.0
                for p in ps:
                    if level % p == 0:
                        want *= 1.0 + abs(lam(h, p)) / math.sqrt(p)
                assert bad_factor_bound(h).lhs.hex() == want.hex(), (level, k)


def test_bad_factor_missing_coefficient():
    t = table(11, 2, {2: 0, 3: 0})
    with pytest.raises(ValidationError, match="p=11"):
        bad_factor_bound(t)


# ---------------------------------------------------------------------------
# lower_bound_witness
# ---------------------------------------------------------------------------

def test_witness_empty_below_4(reg_spec, reg_seq):
    rep = lower_bound_witness(reg_seq, reg_spec, 3)
    assert all(v == 0 for v in rep.counts.values())
    assert rep.pair_count == 0


def _zero_pair(pmax):
    """Integer f of level 11 and g of level 33 with a_p = 0 at every good
    prime <= pmax: lambda_F(p) = 0 is a certified zero and lambda_F(p^2) =
    -2 - 1/p < 0, so the first negative is 4."""
    ps = primes_up_to(pmax).tolist()
    return validate_pair(table(11, 2, {p: int(p == 11) for p in ps}),
                         table(33, 2, {p: {3: -1, 11: 1}.get(p, 0) for p in ps}))


def test_witness_all_zero_tables_hypothesis_violated():
    # every prime lands in the violated list, none in the branches
    spec = _zero_pair(200)
    seq = lift_sequence(spec, 200)
    assert seq_signs(seq)[2] == 0
    rep = lower_bound_witness(seq, spec, 196)
    assert rep.counts["v1"] == rep.counts["case_i"] == rep.counts["case_ii"] == 0
    assert rep.counts["hypothesis_violated"] == len(rep.hypothesis_violated) > 0
    assert not rep.bound_failures and rep.first_negative_n == 4


def test_witness_branch_bounds_verified(reg_seq, reg_spec):
    rep = lower_bound_witness(reg_seq, reg_spec, 10**4)
    assert rep.bound_failures == []
    total = sum(rep.counts.values())
    assert total == sum(1 for p in primes_up_to(100).tolist() if 33 % p != 0)
    assert rep.pair_count == rep.active_count * (rep.active_count - 1)
    assert rep.first_negative_n == 2
    assert not rep.nonnegative_up_to_x


def test_witness_range_error(reg_seq, reg_spec):
    with pytest.raises(ValidationError):
        lower_bound_witness(reg_seq, reg_spec, reg_seq.xmax + 1)


# ---------------------------------------------------------------------------
# array forms against the per-n / per-prime loops they replace
# ---------------------------------------------------------------------------

def test_weighted_sum_bit_identical_to_per_n_loop(reg_seq):
    for x in (1.5, 2.0, 100.0, 4096.0, 9999.5, float(reg_seq.xmax)):
        lx = math.log(x)
        loop = math.fsum(v * (lx - math.log(n)) for n, v in seq_items(reg_seq) if n <= x)
        assert weighted_sum(reg_seq, x).hex() == loop.hex()


def test_prime_statistics_bit_identical_to_per_prime_loop(table_11a, table_33a):
    from yoshida.hecke import hecke_power_seq
    for h in (table_11a, table_33a):
        for y in (2, 100, 10**4):
            lams = [lam(h, p) for p in h.prime_array.tolist() if p <= y and h.level % p != 0]
            st = abs_sum_ratio(h, y)
            n = len(lams)
            assert st.pi_yL == n and type(st.pi_yL) is int
            assert st.ratio_abs.hex() == (math.fsum(abs(v) for v in lams) / n).hex()
            powers = [hecke_power_seq(v, 4) for v in lams]
            assert st.ratio_sym2.hex() == (abs(math.fsum(c[2] for c in powers)) / n).hex()
            assert st.ratio_sym4.hex() == (abs(math.fsum(c[4] for c in powers)) / n).hex()
            for gamma in (19 / 20, 13 / 10):
                d = v_density(h, y, gamma)
                assert type(d) is float and d == sum(1 for v in lams if abs(v) <= gamma) / n


def test_abs_sum_ratio_rejects_nan():
    # abs(nan) > 2 is False, so the table itself must refuse nan before any
    # statistic (or the bad-factor bound, at the level prime 7) reads it
    for level in (1, 7):
        coeffs = {2: 0.5, 3: 0.5, 5: 0.5, 7: math.nan}
        with pytest.raises(ValidationError, match="p=7: need"):
            table(level, 2, coeffs, normalized=True)


def _witness_loop(seq, spec, x):
    """The per-prime loop that lower_bound_witness's masks replace."""
    from yoshida.signs import (CASE_I_BOUND, CASE_I_CUT, CASE_II_BOUND, V1_BOUND, V1_GAMMA,
                               V2_GAMMA, WitnessReport, _BOUND_SLACK)
    if x > seq.xmax:
        raise ValidationError(f"x={x} exceeds sequence range xmax={seq.xmax}")
    y = math.isqrt(x)
    sc = seq_signs(seq)

    def nonneg(n):
        return sc[n] in (0, 1)

    counts = {"v1": 0, "case_i": 0, "case_ii": 0, "outside": 0, "hypothesis_violated": 0}
    violated, failures, v1_set, v2_set = [], [], [], []
    for p in primes_up_to(y).tolist():
        if spec.f.level % p == 0 or spec.g.level % p == 0:
            continue
        if not (nonneg(p) and nonneg(p * p)):
            counts["hypothesis_violated"] += 1
            violated.append(p)
            continue
        lf, lg = abs(lam(spec.f, p)), abs(lam(spec.g, p))
        lF = seq_value(seq, p)
        if lg <= V1_GAMMA:
            counts["v1"] += 1
            v1_set.append(p)
            v2_set.append(p)
            if lF < V1_BOUND - _BOUND_SLACK:
                failures.append((p, "v1", lF))
        elif lg <= V2_GAMMA:
            v2_set.append(p)
            if lf >= CASE_I_CUT:
                counts["case_i"] += 1
                if lF < CASE_I_BOUND - _BOUND_SLACK:
                    failures.append((p, "case_i", lF))
            else:
                counts["case_ii"] += 1
                if lF < CASE_II_BOUND - _BOUND_SLACK:
                    failures.append((p, "case_ii", lF))
        else:
            counts["outside"] += 1
    cor = corollary_check(spec.g, y) if y >= 2 else None
    active, active_set = ("v1", v1_set) if cor is not None and cor.d1 >= 1 / 100 else ("v2", v2_set)
    m = len(active_set)
    esum = math.fsum(v for n, v in seq_items(seq) if n <= x)
    lx = math.log(x) if x > 1 else 1.0
    n0 = first_negative(seq)
    qg = float(spec.g.level)
    log_y = math.log(y) if y >= 2 else 0.0
    return WitnessReport(
        x=x, counts=counts, hypothesis_violated=violated, bound_failures=failures,
        active_branch=active, active_count=m, pair_count=m * (m - 1), eigen_sum=esum,
        empirical_c=esum * lx * lx / x, nonnegative_up_to_x=(n0 is None or n0 > x),
        first_negative_n=n0, gate_log_y=log_y, gate_log_qg_sq=math.log(qg) ** 2,
        gate_ok=log_y >= math.log(qg) ** 2)


def _assert_witness_matches_loop(seq, spec, x):
    """The witness's report, equal to the loop's field by field; or None when
    the loop refuses an uncertain first sign, and the witness refuses it too."""
    import dataclasses
    try:
        want = _witness_loop(seq, spec, x)
    except SignUncertainError as exc:
        with pytest.raises(SignUncertainError, match=f"sign uncertain at n={exc.n} "):
            lower_bound_witness(seq, spec, x)
        return None
    got = lower_bound_witness(seq, spec, x)
    for fld in dataclasses.fields(got):
        assert repr(getattr(got, fld.name)) == repr(getattr(want, fld.name)), (x, fld.name)
    return got


def test_witness_matches_per_prime_loop(reg_spec, reg_seq):
    from tests.test_lift import _synthetic_pair
    for x in (3, 4, 100, 10**4):
        _assert_witness_matches_loop(reg_seq, reg_spec, x)
    for k in (4, 12):
        spec = _synthetic_pair(k, 3000, k)
        seq = lift_sequence(spec, 3000)
        for x in (4, 300, 3000):
            _assert_witness_matches_loop(seq, spec, x)
    zero = _zero_pair(200)
    rep = _assert_witness_matches_loop(lift_sequence(zero, 200), zero, 196)
    assert rep.hypothesis_violated and not rep.bound_failures


def test_witness_matches_per_prime_loop_on_tampered_sequences():
    # random eigenvalues, then lambda_F(p) and lambda_F(p^2) redrawn at random
    # good p <= sqrt(xmax): uncertain, zero, negative and small positive
    # values, so that every branch, the hypothesis and the bound failures are
    # all exercised.  A value of 0.0 gets the code of a certified zero, a
    # value of 1e-12 the code UNCERTAIN, and the others their sign; where an
    # uncertain code comes before the first negative both sides refuse
    rng = random.Random(20201)
    failing, refused, seen = 0, 0, set()
    for _ in range(60):
        xmax = rng.randrange(3, 3000)
        spec = normalized_pair(lambda p: rng.uniform(-2, 2), lambda p: rng.uniform(-2, 2), xmax)
        seq = lift_sequence(spec, xmax)
        new = {}
        for p in seq.index[1:].tolist():
            if p * p > xmax:
                break
            if rng.random() < 0.6:
                new[p] = rng.choice((0.0, 1e-12, -0.3, *[rng.uniform(0, 0.5)] * 3))
            if rng.random() < 0.7:
                new[p * p] = rng.choice((0.0, -1.0, 1e-12, 1.0, 1.0, 1.0))
        x = xmax if rng.random() < 0.75 else rng.randrange(1, xmax + 1)
        codes = {n: (v, UNCERTAIN if v == 1e-12 else np.sign(v)) for n, v in new.items()}
        rep = _assert_witness_matches_loop(_tampered(seq, codes), spec, x)
        if rep is None:
            refused += 1
            continue
        failing += bool(rep.bound_failures)
        seen.update(branch for _, branch, _ in rep.bound_failures)
    assert failing >= 10 and refused and seen == {"v1", "case_i", "case_ii"}


def test_witness_lists_one_failure_per_branch():
    # good primes <= sqrt(200): 2 in v1, 5 in case_i, 7 in case_ii, 13 outside;
    # lambda_F(p^2) >= 0 at each, and lambda_F(p) is then set below each bound
    lam_f = {2: 1.5, 5: 1.5, 7: 1.0, 13: 1.0}
    lam_g = {2: 0.5, 5: 1.0, 7: 1.2, 13: 2.0}
    spec = normalized_pair(lambda p: lam_f.get(p, 0.5), lambda p: lam_g.get(p, 0.5), 200)
    seq = _tampered(lift_sequence(spec, 200), {2: (0.3, 1), 5: (0.05, 1), 7: (0.4, 1)})
    rep = _assert_witness_matches_loop(seq, spec, 200)
    assert rep.counts == {"v1": 1, "case_i": 1, "case_ii": 1, "outside": 1,
                          "hypothesis_violated": 0}
    assert rep.bound_failures == [(2, "v1", 0.3), (5, "case_i", 0.05), (7, "case_ii", 0.4)]
    # no factor of this pair is inside the sign band, so nothing is uncertain
    assert UNCERTAIN not in seq.signs and rep.first_negative_n == 8
