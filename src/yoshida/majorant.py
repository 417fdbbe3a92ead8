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

The certificate decides r > 0 on [0, 2] exactly.  Each parameter is read as
a Fraction (a float as its exact binary value); r > 0 on [0, 2] holds iff
r(0) > 0, r(2) > 0 and the Sturm sequence of the quartic r has as many sign
changes at 0 as at 2, i.e. r has no root in between (Sturm's theorem).  No
grid, tolerance or solver is involved; the grid minimum of r is reported
beside it for display only.

The optimum is in closed form.  At the least delta the majorant touches t
twice: tangentially at t0 and at t = 2 (semi-infinite LP duality: the dual
weights sit on the contact points).  The weights force
P(t0)/Q(t0) = P(2)/Q(2) = 5/3 with P = t^4 - 3 t^2 + 1, Q = t^2 - 1, that is
3 t0^4 - 14 t0^2 + 8 = 0, so t0 = sqrt(2/3).  The contact equations
r(t0) = r'(t0) = r(2) = 0 are then linear in (delta, alpha, beta):

    delta* = 1/5 + 3 sqrt(6)/10,  alpha* = 9/50 - 21 sqrt(6)/200,
    beta* = 3/10 + 3 sqrt(6)/40,

and r = alpha* (t - t0)^2 (t - 2) (t + 2 + 2 t0) >= 0 on [0, 2] since
alpha* < 0.  optimize_delta returns delta* with the binary64 point
(delta* + 1e-12, alpha*, Upsilon*), which the exact certificate accepts.
"""

import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import ComputationError, ValidationError


def _as_fraction(x) -> Fraction:
    # Fraction(np.int64(n)) keeps the numpy integer as its numerator, whose
    # products then wrap around at 2^63
    return Fraction(int(x)) if isinstance(x, numbers.Integral) else Fraction(x)


_MAX_DIGITS = 100  # of a parameter's numerator and of its denominator


def parameter(text: str) -> Fraction:
    """A parameter given as text (--delta 1.1), as an exact rational with at
    most _MAX_DIGITS digits in its numerator and denominator, which keeps the
    exact checks and their printing small.  A nonzero decimal with an
    exponent above len(text) + _MAX_DIGITS has more digits than that, so the
    exponent is refused before Fraction forms 10^exponent."""
    exp = re.search(r"e[-+]?0*(\d[\d_]*)\s*$", text, re.IGNORECASE)
    if exp and (len(exp[1]) > 6 or int(exp[1]) > len(text) + _MAX_DIGITS):
        raise ValidationError(f"exponent too large in {text!r}")
    try:
        v = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a rational with a nonzero denominator: {text!r}") from None
    if max(abs(v.numerator), v.denominator) >= 10**_MAX_DIGITS:
        raise ValidationError(f"more than {_MAX_DIGITS} digits in the numerator "
                              f"or denominator of {text!r}")
    return v


@dataclass(frozen=True)
class MajorantParams:
    """(delta, alpha, Upsilon); the majorant's beta is alpha * Upsilon.

    Fields may be Fractions, integers or floats; the exact checks read each
    as a Fraction, a float as its exact binary value.
    """

    delta: object
    alpha: object
    upsilon: object

    def as_floats(self) -> tuple[float, float, float]:
        return float(self.delta), float(self.alpha), float(self.upsilon)


REFERENCE_PARAMS = MajorantParams(Fraction(11, 10), Fraction(-57, 1000), Fraction(-7))

DELTA_STAR = 1 / 5 + 3 * math.sqrt(6) / 10
_ALPHA_STAR = 9 / 50 - 21 * math.sqrt(6) / 200
_BETA_STAR = 3 / 10 + 3 * math.sqrt(6) / 40
# delta* is raised so that rounding alpha* and Upsilon* to binary64 cannot
# open a dip below zero at the contact points; the float delta* itself fails
# the exact certificate
OPTIMUM_PARAMS = MajorantParams(DELTA_STAR + 1e-12, _ALPHA_STAR, _BETA_STAR / _ALPHA_STAR)


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


def feasible_sufficient(params: MajorantParams) -> FeasibilityCheck:
    """The four sufficient conditions, each in exact rational arithmetic.

    The derivative condition is squared/cleared to (-8 alpha)^2 (3-Upsilon)^3
    < 216 so no irrational roots appear.
    """
    d, a, u = (_as_fraction(v) for v in (params.delta, params.alpha, params.upsilon))
    checks = {
        "alpha_negative": InequalityCheck("alpha < 0", a, Fraction(0)),
        "upsilon_below_3": InequalityCheck("Upsilon < 3", u, Fraction(3)),
        "derivative": InequalityCheck("(-8a)^2 (3-U)^3 < 216",
                                      (64 * a * a) * (3 - u) ** 3, Fraction(216)),
        "endpoint_0": InequalityCheck("0 < d + (1-U) a", Fraction(0), d + (1 - u) * a),
        "endpoint_2": InequalityCheck("2 < d + (5+3U) a", Fraction(2), d + (5 + 3 * u) * a),
    }
    return FeasibilityCheck(ok=all(c.ok for c in checks.values()), checks=checks)


# Polynomials below are coefficient lists, highest degree first, with no
# leading zero; [] is the zero polynomial.

def _trim(p: list) -> list:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _horner(p: list, x):
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def _rem(num: list, den: list) -> list:
    """Remainder of num divided by den (den nonzero)."""
    num = list(num)
    while len(num) >= len(den):
        f = num[0] / den[0]
        for i in range(1, len(den)):
            num[i] -= f * den[i]
        num.pop(0)
    return _trim(num)


def _sign_changes(chain: list, x) -> int:
    signs = [v > 0 for v in (_horner(p, x) for p in chain) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def r_positive(params: MajorantParams) -> bool:
    """r > 0 on [0, 2], decided exactly: positive at both ends and, by
    Sturm's theorem, no root strictly between them."""
    d, a, u = (_as_fraction(v) for v in (params.delta, params.alpha, params.upsilon))
    r = _trim([a, Fraction(0), a * (u - 3), Fraction(-1), d + a * (1 - u)])
    if not (_horner(r, 0) > 0 and _horner(r, 2) > 0):
        return False
    n = len(r) - 1
    chain = [r, [c * (n - i) for i, c in enumerate(r[:-1])]]  # r has degree >= 1
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()
    return _sign_changes(chain, 0) == _sign_changes(chain, 2)


@dataclass
class Certificate:
    ok: bool         # r > 0 on [0, 2], decided exactly by r_positive
    min_r: float     # grid minimum of r, for display only
    argmin: float
    grid_step: float


def _grid_min(params: MajorantParams, grid_step: float) -> tuple[float, float]:
    """(min r, argmin t) over the n + 1 points t_i = i (2/n), t_n = 2, with
    n = ceil(2 / grid_step) and r evaluated in binary64 from
    params.as_floats(): bit for bit the minimum np.argmin finds over
    np.linspace(0, 2, n + 1), the first point among equal values."""
    d, a, u = params.as_floats()
    um3, omu = u - 3, 1 - u
    n = math.ceil(2.0 / grid_step)
    best, best_t = math.inf, 0.0
    for t in chain(map((2.0 / n).__mul__, range(n)), (2.0,)):
        t2 = t * t
        v = d + a * (t2 * t2 + um3 * t2 + omu) - t  # r_eval's expression (tests/conftest.py)
        if v < best:
            best, best_t = v, t
    return best, best_t


def feasible_numeric(params: MajorantParams, grid_step: float) -> Certificate:
    """Certify r > 0 on [0, 2] exactly (r_positive), and report the minimum
    of r over the grid of step grid_step beside the decision (_grid_min).
    The floor 1e-6 caps that grid, which is only displayed, at 2e6 + 1
    points."""
    if not 1e-6 <= grid_step < 1:
        raise ValidationError(f"grid_step must lie in [1e-6, 1), got {grid_step}")
    min_r, argmin = _grid_min(params, grid_step)
    return Certificate(ok=r_positive(params), min_r=min_r, argmin=argmin,
                       grid_step=grid_step)


@dataclass
class DeltaOptimum:
    params: MajorantParams  # certified binary64 point just above the optimum
    grid_delta: float       # the optimum delta* = 1/5 + 3 sqrt(6)/10
    certificate: Certificate


def optimize_delta(grid_step: float) -> DeltaOptimum:
    """The least delta (closed form, see the module docstring) and a certified
    point (delta* + 1e-12, alpha*, Upsilon*); grid_step sets the grid of the
    certificate's reported minimum."""
    if not 1e-6 <= grid_step <= 1e-3:
        raise ValidationError(f"grid_step must lie in [1e-6, 1e-3], got {grid_step}")
    cert = feasible_numeric(OPTIMUM_PARAMS, grid_step)
    if not cert.ok:
        raise ComputationError("the closed-form optimum failed its exact certificate")
    return DeltaOptimum(params=OPTIMUM_PARAMS, grid_delta=DELTA_STAR, certificate=cert)
