import math
import random
from fractions import Fraction

import numpy as np
import pytest

from yoshida.errors import SignUncertainError, ValidationError
from yoshida.hecke import NewformCoeffs
from yoshida.lift import EigenSequence, lift_sequence, validate_pair
from yoshida.primes import primes_up_to
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
    q_hat_g,
    v_density,
    weighted_sum,
)

from tests.conftest import seq_items


def _flat_table(level, pmax, lam):
    """Normalized table with constant eigenvalue at every prime <= pmax."""
    coeffs = {int(p): float(lam) for p in primes_up_to(pmax)}
    for p in list(coeffs):
        if level % p == 0:
            coeffs[p] = 0.0
    return NewformCoeffs(level=level, weight=2, coeffs=coeffs, normalized=True)


# ---------------------------------------------------------------------------
# weighted_sum / first_negative
# ---------------------------------------------------------------------------

def _seq_from_values(values, xmax, scaled=None):
    """EigenSequence holding exactly the {n: lambda_F(n)} (and {n: scaled}) entries."""
    index = np.array(sorted(values), dtype=np.int64)
    dense = np.zeros(xmax + 1)
    dense[index] = [values[n] for n in index.tolist()]
    dense_scaled = None
    if scaled is not None:
        dense_scaled = np.zeros(xmax + 1, dtype=np.int64)
        dense_scaled[list(scaled)] = list(scaled.values())
    return EigenSequence(xmax=xmax, index=index, values=dense, scaled=dense_scaled)


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


def test_first_negative_absent():
    seq = _seq_from_values({1: 1.0, 2: 0.5, 3: 0.0}, 3)
    assert first_negative(seq) is None


def test_first_negative_minimality():
    seq = _seq_from_values({1: 1.0, 2: 0.1, 5: 0.0, 7: -0.5, 11: -2.0}, 11)
    n = first_negative(seq)
    assert n == 7
    assert all(v >= 0 for m, v in seq_items(seq) if m < n)


def test_first_negative_uncertain_band():
    seq = _seq_from_values({1: 1.0, 2: -5e-10}, 2)
    with pytest.raises(SignUncertainError):
        first_negative(seq)


def test_first_negative_exact_channel_overrides_floats():
    # tiny float value, but the exact channel certifies the sign
    seq = _seq_from_values({1: 1.0, 2: -5e-10}, 2, scaled={1: 1, 2: -1})
    assert first_negative(seq) == 2


# ---------------------------------------------------------------------------
# conductor proxy and reports
# ---------------------------------------------------------------------------

def test_conductor_proxy(reg_spec):
    assert conductor_proxy(reg_spec, BoundConfig()) == 4 * 11 * 33
    assert conductor_proxy(reg_spec, BoundConfig(conductor_constant=2.5)) == pytest.approx(3630.0)
    assert q_hat_g(reg_spec) == 33.0


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
    t = NewformCoeffs(level=11, weight=2, coeffs={2: 0, 3: 0, 5: 0, 7: 0, 11: 1})
    bb = bad_factor_bound(t)
    assert bb.lhs == pytest.approx(1 + 1 / 11, abs=1e-12)  # 1 + (1/sqrt(11))/sqrt(11)
    assert bb.rhs == pytest.approx(1 + 1 / math.sqrt(11), abs=1e-12)
    assert bb.lhs <= bb.rhs


def test_bad_factor_level_1():
    t = _flat_table(1, 10, 0.5)
    bb = bad_factor_bound(t)
    assert bb.lhs == 1.0 and bb.rhs == 1.0


def test_bad_factor_level_6_zeros():
    t = NewformCoeffs(level=6, weight=2, coeffs={2: 0, 3: 0})
    bb = bad_factor_bound(t)
    assert bb.lhs == 1.0
    assert bb.rhs == pytest.approx(1 + 1 / math.sqrt(2) + 1 / math.sqrt(3) + 1 / math.sqrt(6))


def test_bad_factor_missing_coefficient():
    t = NewformCoeffs(level=11, weight=2, coeffs={2: 0, 3: 0})
    with pytest.raises(ValidationError, match="p=11"):
        bad_factor_bound(t)


# ---------------------------------------------------------------------------
# lower_bound_witness
# ---------------------------------------------------------------------------

def test_witness_empty_below_4(reg_spec, reg_seq):
    rep = lower_bound_witness(reg_seq, reg_spec, 3)
    assert all(v == 0 for v in rep.counts.values())
    assert rep.pair_count == 0


def test_witness_all_zero_tables_hypothesis_violated():
    # lambda_f = lambda_g = 0 at every good prime: lambda_F(p^2) = -2 - 1/p < 0, so
    # every prime lands in the violated list, none in the branches
    zeros = {p: 0.0 for p in primes_up_to(200).tolist()}
    f = NewformCoeffs(level=11, weight=2, coeffs={**zeros, 11: 11**-0.5}, normalized=True)
    g = NewformCoeffs(level=33, weight=2, coeffs={**zeros, 3: -(3**-0.5), 11: 11**-0.5},
                      normalized=True)
    spec = validate_pair(f, g)
    seq = lift_sequence(spec, 200)
    rep = lower_bound_witness(seq, spec, 196)
    assert rep.counts["v1"] == rep.counts["case_i"] == rep.counts["case_ii"] == 0
    assert rep.counts["hypothesis_violated"] == len(rep.hypothesis_violated) > 0
    assert not rep.bound_failures


def test_witness_branch_bounds_verified(reg_seq, reg_spec):
    rep = lower_bound_witness(reg_seq, reg_spec, 10**4)
    assert rep.bound_failures == []
    total = sum(rep.counts.values())
    assert total == sum(1 for p in primes_up_to(100).tolist() if reg_spec.N % p != 0)
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
            lams = [h.lam(p) for p in h.coeffs if p <= y and h.level % p != 0]
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
            NewformCoeffs(level=level, weight=2, coeffs=coeffs, normalized=True)
