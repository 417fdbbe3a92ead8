"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Frozen constants were computed once at first build from the stated
independent oracles and are regression-locked here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from yoshida.curves import WeierstrassCurve, ap_table
from yoshida.lift import lift_euler_coeffs, lift_sequence, validate_pair
from yoshida.majorant import (
    REFERENCE_PARAMS,
    feasible_numeric,
    feasible_sufficient,
    optimize_delta,
)
from yoshida.primes import primes_up_to
from yoshida.signs import (
    BoundConfig,
    abs_sum_ratio,
    bound_report,
    corollary_check,
    first_negative,
    invert_xlog_bound,
    lower_bound_witness,
    weighted_sum,
)
from tests.conftest import CURVE_11A, CURVE_33A, count_ap, r_eval, seq_items
from tests.test_curves import ap_character_sum
from tests.test_lift import dirichlet_oracle

# ---------------------------------------------------------------------------
# frozen regression constants (first build; oracles noted per criterion)
# ---------------------------------------------------------------------------
FROZEN_FIRST_NEGATIVE = 2                       # exhaustive exact-sign scan
FROZEN_RATIO = 0.0524863881081478               # 2 / 1452^(1/2)
FROZEN_S_4096 = -0.050367120668087365           # direct summation
FROZEN_WITNESS_COUNTS = {"v1": 1, "case_i": 0, "case_ii": 1,
                         "outside": 1, "hypothesis_violated": 20}
FROZEN_WITNESS_EIGEN_SUM = -0.3141040778097231
FROZEN_DELTA_STAR = 0.9348468421529819          # dense 1e-5-grid LP oracle


def _report(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS  ({detail})")


@pytest.fixture(scope="module")
def table_11a_1e5():
    t0 = time.perf_counter()
    table = ap_table(CURVE_11A, 10**5)
    return table, time.perf_counter() - t0


def test_c01_reference_majorant_solution():
    t0 = time.perf_counter()
    fc = feasible_sufficient(REFERENCE_PARAMS)
    assert fc.ok
    der = fc.checks["derivative"]
    assert der.lhs == Fraction(207936, 1000) and der.rhs == 216
    assert fc.checks["endpoint_0"].rhs == Fraction(644, 1000)
    assert fc.checks["endpoint_0"].lhs == 0
    assert fc.checks["endpoint_2"].rhs == Fraction(2012, 1000)
    assert fc.checks["endpoint_2"].lhs == 2
    cert = feasible_numeric(REFERENCE_PARAMS, 1e-4)
    assert cert.ok
    assert abs(cert.min_r - 0.012) <= 1e-6
    assert cert.argmin == 2.0
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report("C1", f"exact slacks 207.936<216, 0.644>0, 2.012>2; min_r={cert.min_r:.6f} at t=2; {dt:.3f}s")


def test_c02_pointwise_majorant_on_grid():
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 2.0, 20001)
    d, a, u = REFERENCE_PARAMS.as_floats()
    t2 = ts * ts
    r = d + a * (t2 * t2 + (u - 3.0) * t2 + (1.0 - u)) - ts
    assert (r >= 0.0).all()
    mn = float(r.min())
    assert 0.0 <= mn <= 0.02
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report("C2", f"grid min {mn:.6f} in [0, 0.02]; {dt:.3f}s")


def test_c03_corollary_constant_exact(table_33a):
    cc = corollary_check(table_33a, 100)
    assert cc.contradiction_constant == Fraction(1112, 1000)
    assert cc.contradiction_constant == Fraction(49, 100) * Fraction(13, 10) \
        + Fraction(50, 100) * Fraction(19, 20)
    _report("C3", "contradiction constant == 1112/1000 exactly")


def test_c04_square_identity_random():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        lf, lg = rng.uniform(-2.0, 2.0, size=2)
        p = int(rng.choice([2, 3, 5, 101]))
        c = lift_euler_coeffs(lf, lg, p, 2)
        worst = max(worst, abs(c[1] ** 2 - c[2] - (2.0 + 1.0 / p + lf * lg)))
    assert worst <= 1e-12
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report("C4", f"10^3 samples, worst deviation {worst:.2e} <= 1e-12; {dt:.3f}s")


def test_c05_multiplicativity_oracle(reg_spec):
    seq = lift_sequence(reg_spec, 1000)
    oracle = dirichlet_oracle(reg_spec, 1000)
    worst = 0.0
    for n, v in seq_items(seq):
        worst = max(worst, abs(v - oracle[n]))
    assert worst <= 1e-10
    checked = 0
    for (n, v), s in zip(seq_items(seq), seq.signs.tolist()):
        if abs(v) > 1e-9:
            checked += 1
            assert s == (1 if v > 0 else -1)
    _report("C5", f"Dirichlet convolution matches to {worst:.2e}; {checked} signs cross-checked")


def test_c06_point_counting(table_11a):
    t0 = time.perf_counter()
    assert count_ap(CURVE_11A, 2) == -2
    assert count_ap(CURVE_11A, 3) == -1
    assert count_ap(CURVE_11A, 5) == 1
    for p, a in zip(table_11a.prime_array.tolist(), table_11a.values.tolist()):
        if p != 11:
            assert a * a <= 4 * p
    dual = 0
    for p in primes_up_to(50).tolist():
        if p > 3:
            assert count_ap(CURVE_11A, p) == ap_character_sum(CURVE_11A, p)
            dual += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report("C6", f"a_2,a_3,a_5 = -2,-1,1; Hasse to 1e4; {dual} dual-oracle primes; {dt:.2f}s")


def test_c07_abs_sum_surrogate(table_11a_1e5):
    table, build_s = table_11a_1e5
    t0 = time.perf_counter()
    st = abs_sum_ratio(table, 10**5)
    dt = build_s + (time.perf_counter() - t0)
    assert st.ratio_abs < 11 / 10  # strict; observed ~0.845 (Sato-Tate heuristic ~8/(3pi))
    assert st.ratio_sym2 <= 0.2
    assert st.ratio_sym4 <= 0.2
    assert dt < 120.0
    _report("C7", f"ratio_abs={st.ratio_abs:.6f} < 1.1; sym2={st.ratio_sym2:.4f}, "
                  f"sym4={st.ratio_sym4:.4f} <= 0.2; {dt:.1f}s incl. table build")


def test_c08_density_disjunction(table_11a_1e5):
    table, _ = table_11a_1e5
    cc = corollary_check(table, 10**5)
    assert cc.holds
    assert cc.d1 >= 1 / 100 or cc.d2 >= 51 / 100
    _report("C8", f"d1={cc.d1:.4f} (>=0.01) or d2={cc.d2:.4f} (>=0.51) holds")


def test_c09_end_to_end_regression(table_11a, table_33a):
    t0 = time.perf_counter()
    spec = validate_pair(table_11a, table_33a)  # AL signs inferred from bad-prime counts
    assert spec.f.atkin_lehner[11] == spec.g.atkin_lehner[11] == -1
    assert (math.gcd(spec.f.level, spec.g.level), math.lcm(spec.f.level, spec.g.level)) == (11, 33)
    cfg = BoundConfig()
    seq = lift_sequence(spec, 10**4)
    n0 = first_negative(seq)
    assert n0 is not None
    assert n0 == FROZEN_FIRST_NEGATIVE
    rep = bound_report(seq, spec, cfg)
    assert rep.q_f_hat == 1452.0
    assert rep.ratio == pytest.approx(FROZEN_RATIO, abs=1e-12)
    assert weighted_sum(seq, 4096.0) == pytest.approx(FROZEN_S_4096, abs=1e-10)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report("C9", f"M=11 N=33 Q^=1452; first negative n={n0}; ratio={rep.ratio:.6f}; {dt:.2f}s")


def test_c10_witness_regression(reg_seq, reg_spec):
    rep = lower_bound_witness(reg_seq, reg_spec, 10**4)
    assert rep.bound_failures == []
    assert rep.counts == FROZEN_WITNESS_COUNTS
    assert rep.eigen_sum == pytest.approx(FROZEN_WITNESS_EIGEN_SUM, abs=1e-10)
    covered = sum(rep.counts.values())
    assert covered == sum(1 for p in primes_up_to(100).tolist() if 33 % p != 0)
    _report("C10", f"counts {rep.counts}; per-prime branch bounds verified")


def test_c11_optimizer():
    opt = optimize_delta(1e-4)
    assert float(opt.params.delta) <= 11 / 10 - 1e-3
    assert opt.certificate.ok
    assert opt.grid_delta == pytest.approx(FROZEN_DELTA_STAR, abs=1e-5)
    rerun = optimize_delta(1e-4)
    assert abs(float(rerun.params.delta) - float(opt.params.delta)) <= 1e-6
    _report("C11", f"certified delta*={float(opt.params.delta):.6f} <= 1.099; "
                   f"grid optimum {opt.grid_delta:.8f} vs frozen {FROZEN_DELTA_STAR:.8f}")


def test_c12_bound_inversion():
    for B in (10.0, 100.0, 1e6):
        assert invert_xlog_bound(B, 0) == B
    x = invert_xlog_bound(100.0, 1)
    assert abs(x / math.log(x) - 100.0) <= 1e-6
    _report("C12", f"power-0 identity exact; x/log x = 100 at x={x:.6f}")


def test_c13_bad_factor_bound(table_11a, table_33a):
    from yoshida.signs import bad_factor_bound
    for t in (table_11a, table_33a):
        bb = bad_factor_bound(t)
        assert bb.lhs <= bb.rhs
        assert bb.rhs - bb.lhs > 0.0
    _report("C13", "bad-factor product <= divisor sum with positive slack on both fixtures")
