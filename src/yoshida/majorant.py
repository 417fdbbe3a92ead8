"""Quartic majorant of |lambda(p)| in the symmetric-power basis.

Seeks delta + alpha (t^4 - 3 t^2 + 1) + beta (t^2 - 1) >= t on [0, 2] with
delta as small as possible; since t^2 - 1 and t^4 - 3 t^2 + 1 are the
prime-power eigenvalues lambda(p^2), lambda(p^4) as polynomials of
t = lambda(p), any feasible triple bounds sum |lambda(p)| by
sum (delta + alpha lambda(p^4) + beta lambda(p^2)) over good primes.

With beta = alpha * Upsilon the majorant reads
q(t) = delta + alpha (t^4 + (Upsilon - 3) t^2 + 1 - Upsilon) and
r(t) = q(t) - t.  Sufficient conditions for r > 0 on [0, 2]:

    alpha < 0, Upsilon < 3,
    (-8 alpha)^2 (3 - Upsilon)^3 < 6^3        (r' < 0 throughout (0, 2)),
    delta + (1 - Upsilon) alpha > 0           (r(0) > 0),
    delta + (5 + 3 Upsilon) alpha > 2         (r(2) > 0),

checked in exact rational arithmetic (the cube/square clearing keeps the
first condition rational).  The reference feasible point is
delta = 11/10, alpha = -57/1000, Upsilon = -7.

Grid feasibility certificates bound inter-grid dips by the Lipschitz
constant of r on [0, 2]: |r'(t)| <= 1 + |alpha| (4 * 2^3 + 2 |Upsilon - 3| * 2).
The optimizer solves the discretized semi-infinite LP (minimize delta over
(delta, alpha, beta) subject to the grid constraints), lifts delta by
Lip * grid_step, and certifies the lifted point; exact root isolation of the
quartic is deliberately out of scope.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ComputationError, ValidationError


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    return Fraction(x)  # exact binary value of the float


@dataclass(frozen=True)
class MajorantParams:
    """(delta, alpha, Upsilon) with beta = alpha * Upsilon derived on access.

    Fields may be Fractions (exact feasibility checks) or floats.
    """

    delta: object
    alpha: object
    upsilon: object

    @property
    def beta(self):
        return self.alpha * self.upsilon

    def as_floats(self) -> tuple[float, float, float]:
        return float(self.delta), float(self.alpha), float(self.upsilon)


REFERENCE_PARAMS = MajorantParams(Fraction(11, 10), Fraction(-57, 1000), Fraction(-7))


def q_eval(params: MajorantParams, t):
    """delta + alpha (t^4 + (Upsilon - 3) t^2 + 1 - Upsilon); exact when the
    params and t are Fractions."""
    d, a, u = params.delta, params.alpha, params.upsilon
    t2 = t * t
    return d + a * (t2 * t2 + (u - 3) * t2 + 1 - u)


def r_eval(params: MajorantParams, t):
    return q_eval(params, t) - t


@dataclass
class InequalityCheck:
    """A strict inequality lhs < rhs with exact slack = rhs - lhs."""

    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs < self.rhs

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs


@dataclass
class FeasibilityCheck:
    ok: bool
    checks: dict

    def __bool__(self) -> bool:
        return self.ok


def feasible_sufficient(params: MajorantParams) -> FeasibilityCheck:
    """The four sufficient conditions, each in exact rational arithmetic.

    The derivative condition is squared/cleared to (-8 alpha)^2 (3-Upsilon)^3
    < 216 so no irrational roots appear.
    """
    d = _as_fraction(params.delta)
    a = _as_fraction(params.alpha)
    u = _as_fraction(params.upsilon)
    checks = {
        "alpha_negative": InequalityCheck("alpha < 0", a, Fraction(0)),
        "upsilon_below_3": InequalityCheck("Upsilon < 3", u, Fraction(3)),
        "derivative": InequalityCheck("(-8a)^2 (3-U)^3 < 216",
                                      (64 * a * a) * (3 - u) ** 3, Fraction(216)),
        "endpoint_0": InequalityCheck("0 < d + (1-U) a", Fraction(0), d + (1 - u) * a),
        "endpoint_2": InequalityCheck("2 < d + (5+3U) a", Fraction(2), d + (5 + 3 * u) * a),
    }
    return FeasibilityCheck(ok=all(c.ok for c in checks.values()), checks=checks)


def lipschitz_bound(params: MajorantParams) -> float:
    """Upper bound for |r'| on [0, 2] from r'(t) = 4 a t^3 + 2 a t (U - 3) - 1."""
    _, a, u = params.as_floats()
    return 1.0 + abs(a) * (4.0 * 8.0 + 2.0 * abs(u - 3.0) * 2.0)


@dataclass
class GridCertificate:
    ok: bool
    min_r: float
    argmin: float
    lipschitz: float
    margin: float
    grid_step: float

    def __bool__(self) -> bool:
        return self.ok


def _r_grid(params: MajorantParams, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    n = max(1, math.ceil(2.0 / grid_step))
    ts = np.linspace(0.0, 2.0, n + 1)
    d, a, u = params.as_floats()
    t2 = ts * ts
    return ts, d + a * (t2 * t2 + (u - 3.0) * t2 + (1.0 - u)) - ts


def feasible_numeric(params: MajorantParams, grid_step: float) -> GridCertificate:
    """Certify r > 0 on [0, 2]: grid minimum must clear Lip * grid_step / 2,
    which bounds any dip between adjacent grid points."""
    if not grid_step > 0:
        raise ValidationError(f"grid_step must be > 0, got {grid_step}")
    if not grid_step < 1:
        raise ValidationError(f"grid_step {grid_step} too coarse for a certificate")
    ts, r = _r_grid(params, grid_step)
    i = int(np.argmin(r))
    lip = lipschitz_bound(params)
    margin = lip * grid_step / 2.0
    return GridCertificate(ok=bool(r[i] > margin), min_r=float(r[i]), argmin=float(ts[i]),
                           lipschitz=lip, margin=margin, grid_step=grid_step)


@dataclass
class DeltaOptimum:
    params: MajorantParams  # certified (lifted) point
    grid_delta: float       # raw optimum of the discretized LP
    lift: float
    certificate: GridCertificate


def optimize_delta(grid_step: float, refine: bool = False) -> DeltaOptimum:
    """Minimize delta subject to delta + alpha P(t) + beta Q(t) >= t on the
    grid (P = t^4 - 3t^2 + 1, Q = t^2 - 1), then certify delta + Lip*grid_step.

    Plain dense LP over the grid (deterministic dual simplex); refine=True
    runs a few exchange rounds that append the worst points of a 16x finer
    grid, pushing the optimum toward the continuum value.
    """
    if not 0 < grid_step <= 1e-3:
        raise ValidationError(f"grid_step must lie in (0, 1e-3], got {grid_step}")
    # scipy.optimize takes most of a second to import; only this LP needs it
    from scipy.optimize import linprog

    n = max(1, math.ceil(2.0 / grid_step))
    ts = np.linspace(0.0, 2.0, n + 1)

    def solve(points: np.ndarray):
        P = points**4 - 3 * points**2 + 1
        Q = points**2 - 1
        A = np.column_stack([-np.ones_like(points), -P, -Q])
        res = linprog(c=[1.0, 0.0, 0.0], A_ub=A, b_ub=-points, bounds=[(None, None)] * 3,
                      method="highs")
        if not res.success:
            raise ComputationError(f"majorant LP failed: {res.message}")
        return res.x

    pts = ts
    x = solve(pts)
    if refine:
        fine = np.linspace(0.0, 2.0, 16 * n + 1)
        Pf = fine**4 - 3 * fine**2 + 1
        Qf = fine**2 - 1
        for _ in range(20):
            r = x[0] + x[1] * Pf + x[2] * Qf - fine
            worst = np.argsort(r)[:8]
            if r[worst[0]] >= -1e-14:
                break
            pts = np.unique(np.concatenate([pts, fine[worst]]))
            x = solve(pts)

    delta_g, alpha, beta = (float(v) for v in x)
    upsilon = beta / alpha if alpha != 0.0 else 0.0
    lip = lipschitz_bound(MajorantParams(delta_g, alpha, upsilon))
    lifted = MajorantParams(delta_g + lip * grid_step, alpha, upsilon)
    cert = feasible_numeric(lifted, grid_step)
    if not cert.ok:
        raise ComputationError("lifted optimum failed its own grid certificate")
    if float(lifted.delta) >= 11 / 10:
        raise ComputationError(f"optimizer did not beat the reference delta: {lifted.delta!r}")
    return DeltaOptimum(params=lifted, grid_delta=delta_g, lift=lip * grid_step, certificate=cert)
