import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from yoshida.errors import ValidationError
from yoshida.majorant import (
    OPTIMUM_PARAMS,
    REFERENCE_PARAMS,
    MajorantParams,
    _grid_min,
    feasible_numeric,
    feasible_sufficient,
    optimize_delta,
    parameter,
    r_positive,
)
from tests.conftest import q_eval, r_eval

# Optimum of the 1e-5-grid LP oracle (dense linprog over 200001 points),
# frozen at first build; re-derived live in test_optimize_against_dense_oracle.
DENSE_ORACLE_DELTA = 0.9348468421529819


def dense_lp_oracle(step):
    """Independent dense-grid LP: minimize delta s.t. the majorant dominates
    t at every grid point."""
    n = round(2.0 / step)
    t = np.linspace(0.0, 2.0, n + 1)
    P = t**4 - 3 * t**2 + 1
    Q = t**2 - 1
    A = np.column_stack([-np.ones_like(t), -P, -Q])
    res = linprog(c=[1.0, 0.0, 0.0], A_ub=A, b_ub=-t,
                  bounds=[(None, None)] * 3, method="highs")
    assert res.success
    return res.x


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_q_eval_reference_point():
    assert q_eval(REFERENCE_PARAMS, Fraction(0)) == Fraction(644, 1000)
    assert q_eval(REFERENCE_PARAMS, Fraction(2)) == Fraction(2012, 1000)
    assert r_eval(REFERENCE_PARAMS, Fraction(2)) == Fraction(12, 1000)


def test_q_eval_alpha_zero():
    p = MajorantParams(1.0, 0.0, 5.0)
    assert q_eval(p, 1.0) == 1.0
    assert r_eval(p, 1.0) == 0.0


def test_scale_coherence_exact():
    # r(0) and r(2) reproduce the two endpoint expressions exactly
    for params in (REFERENCE_PARAMS, MajorantParams(Fraction(2), Fraction(-1, 50), Fraction(1))):
        d, a, u = params.delta, params.alpha, params.upsilon
        assert r_eval(params, Fraction(0)) == d + (1 - u) * a
        assert r_eval(params, Fraction(2)) == d + (5 + 3 * u) * a - 2


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------

def test_feasible_sufficient_reference_slacks():
    fc = feasible_sufficient(REFERENCE_PARAMS)
    assert fc.ok
    der = fc.checks["derivative"]
    assert der.lhs == Fraction(207936, 1000)  # (0.456)^2 * 10^3
    assert der.rhs == 216
    assert fc.checks["endpoint_0"].rhs == Fraction(644, 1000)
    assert fc.checks["endpoint_2"].rhs == Fraction(2012, 1000)
    assert fc.checks["endpoint_2"].slack == Fraction(12, 1000)


def test_feasible_sufficient_sign_flip():
    fc = feasible_sufficient(MajorantParams(Fraction(11, 10), Fraction(57, 1000), Fraction(-7)))
    assert not fc.ok
    assert not fc.checks["alpha_negative"].ok


def test_feasible_sufficient_endpoint2_fails():
    fc = feasible_sufficient(MajorantParams(Fraction(1), Fraction(-57, 1000), Fraction(-7)))
    assert not fc.ok
    assert not fc.checks["endpoint_2"].ok  # 1 + 0.912 = 1.912 <= 2


def test_exact_checks_read_numpy_integers_as_python_ints():
    # Fraction(np.int64(n)) would keep int64 arithmetic: 64 alpha^2 wraps to 0
    # and the derivative condition would pass
    ints = (2**45, -(2**40), 0)
    py = MajorantParams(*ints)
    npy = MajorantParams(*(np.int64(v) for v in ints))
    assert feasible_sufficient(npy).checks["derivative"].lhs == 64 * 2**80 * 27
    assert feasible_sufficient(npy).checks == feasible_sufficient(py).checks
    assert r_positive(npy) == r_positive(py)


def test_parameter_is_exact_and_bounded():
    assert parameter("1.1") == Fraction(11, 10) and parameter("-57/1000") == Fraction(-57, 1000)
    assert parameter("9" * 100) == 10**100 - 1 and parameter("1e99") == 10**99
    assert parameter("0e0_0") == 0
    for text, reason in (("1/0", "nonzero denominator"), ("1.1.1", "nonzero denominator"),
                         ("1e100", "more than 100 digits"), ("1/" + "7" * 101, "more than 100"),
                         ("1e-9999999999", "exponent too large"), ("0e500", "exponent too large")):
        with pytest.raises(ValidationError, match=reason):
            parameter(text)


# ---------------------------------------------------------------------------
# numeric certificate
# ---------------------------------------------------------------------------

def test_feasible_numeric_reference():
    cert = feasible_numeric(REFERENCE_PARAMS, 1e-4)
    assert cert.ok
    assert cert.min_r == pytest.approx(0.012, abs=1e-6)
    assert cert.argmin == 2.0


def test_feasible_numeric_near_linear():
    cert = feasible_numeric(MajorantParams(2.001, -1e-9, 0.0), 1e-4)
    assert cert.ok


def test_feasible_numeric_infeasible_point():
    cert = feasible_numeric(MajorantParams(1.0, 0.0, 0.0), 1e-4)
    assert not cert.ok
    assert cert.min_r == pytest.approx(-1.0)  # r(2) = 1 - 2


def test_feasible_numeric_rejects_coarse_grid():
    with pytest.raises(ValidationError):
        feasible_numeric(REFERENCE_PARAMS, 1.0)
    with pytest.raises(ValidationError):
        feasible_numeric(REFERENCE_PARAMS, 0.0)


def test_certificate_accepts_optimum_below_grid_margin():
    # grid min_r is about 1e-12 at t = 2; a Lipschitz grid margin
    # (1 + |a| (32 + 4 |U - 3|)) * step / 2 ~ 3e-4 could never certify it
    params = optimize_delta(1e-4).params
    cert = feasible_numeric(params, 1e-4)
    assert cert.ok
    assert 0 < cert.min_r < 1e-11


DIP_ROOT = Fraction(16331, 20000)


def _dip_pair():
    """r with a double root at DIP_ROOT = 0.81655, midway between grid points
    of step 1e-4, and the same with delta lowered by 1e-12, which splits it
    into two roots with r < 0 between them."""
    a, s = Fraction(-1, 200), DIP_ROOT
    u = 3 + (1 / a - 4 * s**3) / (2 * s)  # r'(s) = 0
    d = s - q_eval(MajorantParams(Fraction(0), a, u), s)  # r(s) = 0
    return MajorantParams(d, a, u), MajorantParams(d - Fraction(1, 10**12), a, u)


def test_certificate_rejects_dip_between_grid_points():
    # the split pair's r stays about +1.5e-9 at every grid point
    touching, split = _dip_pair()
    assert r_eval(touching, DIP_ROOT) == 0
    cert = feasible_numeric(split, 1e-4)
    assert not cert.ok
    assert 0 < cert.min_r < 1e-8
    assert cert.argmin == pytest.approx(0.8166)
    assert not feasible_numeric(touching, 1e-4).ok  # r(s) = 0 is not > 0


def test_no_delta_below_optimum_certifies():
    # delta* is the least delta: lowering it by 1e-9 leaves r < 0 somewhere
    opt = optimize_delta(1e-4)
    p = opt.params
    assert not feasible_numeric(MajorantParams(opt.grid_delta - 1e-9, p.alpha, p.upsilon), 1e-4).ok
    assert opt.grid_delta == pytest.approx(0.2 + 0.3 * math.sqrt(6), abs=1e-15)


class _NumpyGrid:
    """Oracle: np.argmin of r over np.linspace(0, 2, ceil(2/step) + 1), with
    r_eval's expression computed in place over a grid shared by every
    triple; IEEE + and * are commutative, so the operand order is free."""

    def __init__(self, step):
        self.ts = np.linspace(0.0, 2.0, math.ceil(2.0 / step) + 1)
        self.t2 = self.ts * self.ts
        self.t4 = self.t2 * self.t2

    def min(self, params):
        d, a, u = params.as_floats()
        r = (u - 3) * self.t2  # d + a (t2 t2 + (u - 3) t2 + (1 - u)) - t
        r += self.t4
        r += 1 - u
        r *= a
        r += d
        r -= self.ts
        i = int(np.argmin(r))
        return float(r[i]), float(self.ts[i])


GRID_EDGE_TRIPLES = [
    REFERENCE_PARAMS,
    OPTIMUM_PARAMS,
    MajorantParams(2.001, -1e-9, 0.0),
    MajorantParams(1, 0, 0),
    *_dip_pair(),
    MajorantParams(10**99, Fraction(-1, 10**99), 10**99),  # every value rounds to 1e99
    MajorantParams(-(10**99), 10**99, -(10**99)),
    MajorantParams(Fraction(1, 10**99), -(10**99), 10**99),
    MajorantParams(0, 0, 0),
    # values tie in binary64 over [1.79, 2]; the first of them is the least
    MajorantParams(-7160336780966927.0, -0.042624756029083916, 25.637567856292335),
]


def _random_triples(rng, k):
    """k triples: half near the feasible region, the rest over 24 decades."""
    out = []
    for i in range(k):
        if i % 2:
            out.append(MajorantParams(rng.uniform(0.5, 2.5), rng.uniform(-0.3, 0.3),
                                      rng.uniform(-12.0, 6.0)))
        else:
            out.append(MajorantParams(*(float(rng.choice([-1, 1]) * 10 ** rng.uniform(-12, 12))
                                        for _ in range(3))))
    return out


# at 7e-4, n = ceil(2/step) = 2858 is not round(2/step), and n (2/n) is not 2.0;
# fewer random triples on the finer grids, whose Python scan costs 0.2 us a
# point; the floor 1e-6 is in test_cli's frozen majorant digests
@pytest.mark.parametrize("step, k", [(0.3, 400), (1e-3, 100), (7e-4, 100), (3.3e-4, 100),
                                     (1e-4, 20)])
def test_grid_min_matches_numpy_bit_for_bit(step, k):
    """Oracle for the grid scan: min_r and argmin equal numpy's, compared
    with ==, on the edge triples and k seeded random ones."""
    rng, grid = np.random.default_rng(16), _NumpyGrid(step)
    for params in GRID_EDGE_TRIPLES + _random_triples(rng, k):
        got, want = _grid_min(params, step), grid.min(params)
        assert got == want, (params, step)
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])


def test_certificate_agrees_with_dense_grid():
    """Oracle: a triple with r < 0 at a grid point is rejected, and one whose
    grid minimum clears the largest possible dip between grid points is
    accepted."""
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 2.0, 20001)
    t2 = ts * ts
    seen = {True: 0, False: 0}
    for d, a, u in zip(rng.uniform(0.5, 2.5, 400), rng.uniform(-0.3, 0.3, 400),
                       rng.uniform(-12.0, 6.0, 400)):
        min_r = float((d + a * (t2 * t2 + (u - 3.0) * t2 + (1.0 - u)) - ts).min())
        lip = 1.0 + abs(a) * (32.0 + 4.0 * abs(u - 3.0))
        if min_r < -1e-9 or min_r > lip * 1e-4:
            ok = r_positive(MajorantParams(d, a, u))
            assert ok == (min_r > 0), (d, a, u, min_r)
            seen[ok] += 1
    assert seen[True] > 20 and seen[False] > 20


def test_sufficient_implies_grid_positive():
    """Soundness: triples passing the sufficient conditions have r > 0 on the
    whole grid, and the certificate passes whenever the endpoint slack clears
    the certificate margin (min r = r(2) since r is decreasing)."""
    rng = np.random.default_rng(2024)
    ts = np.linspace(0.0, 2.0, 20001)
    t2 = ts * ts
    t4 = t2 * t2
    kept = 0
    cert_checked = 0
    while kept < 10**4:
        d = rng.uniform(0.3, 3.2, size=4096)
        a = rng.uniform(-0.25, -1e-4, size=4096)
        u = rng.uniform(-12.0, 2.95, size=4096)
        ok = (
            (64 * a * a * (3 - u) ** 3 < 216)
            & (d + (1 - u) * a > 0)
            & (d + (5 + 3 * u) * a > 2)
        )
        d, a, u = d[ok], a[ok], u[ok]
        if d.size == 0:
            continue
        take = min(d.size, 10**4 - kept)
        d, a, u = d[:take], a[:take], u[:take]
        kept += take
        # r on the grid for the whole batch (batch x grid), in place:
        # d + a (t2 t2 + (u - 3) t2 + (1 - u)) - t, operands commuted
        r = (u[:, None] - 3.0) * t2
        r += t4
        r += (1.0 - u)[:, None]
        r *= a[:, None]
        r += d[:, None]
        r -= ts
        min_r = r.min(axis=1)
        assert (min_r > 0.0).all()
        # grid minimum sits at t = 2 (r decreasing under the conditions)
        assert (np.argmin(r, axis=1) == len(ts) - 1).all()
        lip = 1.0 + np.abs(a) * (32.0 + 4.0 * np.abs(u - 3.0))
        strong = min_r > lip * 1e-4  # clears the margin with room
        for i in np.flatnonzero(strong)[:50]:
            cert_checked += 1
            assert r_positive(MajorantParams(d[i], a[i], u[i]))
    assert cert_checked > 0


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimize_beats_reference_delta():
    opt = optimize_delta(1e-4)
    assert float(opt.params.delta) <= 11 / 10 - 1e-3
    assert opt.certificate.ok
    assert opt.grid_delta == pytest.approx(DENSE_ORACLE_DELTA, abs=1e-5)
    assert float(opt.params.alpha) < 0


def test_optimize_reproducible():
    a = optimize_delta(1e-4)
    b = optimize_delta(1e-4)
    assert abs(float(a.params.delta) - float(b.params.delta)) <= 1e-6
    assert a.grid_delta == b.grid_delta


def test_optimize_against_dense_oracle():
    x = dense_lp_oracle(1e-5)
    assert x[0] == pytest.approx(DENSE_ORACLE_DELTA, abs=1e-7)
    opt = optimize_delta(1e-4)
    assert opt.grid_delta <= x[0] + 1e-6  # coarser grid can only relax


def test_optimize_rejects_coarse_grid():
    with pytest.raises(ValidationError):
        optimize_delta(1e-2)
