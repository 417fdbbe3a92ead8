"""Sign statistics of lift eigenvalue sequences.

Covers the logarithmically weighted sum S(F, x) = sum_{n<=x, (n,N)=1}
lambda_F(n) log(x/n), location of the first certified negative eigenvalue,
conductor proxies and the resulting first-sign-change bound values,
eigenvalue statistics over primes (absolute sums, symmetric-power
cancellation, small-eigenvalue densities), the two-branch lower-bound
witness built from the square identity

    lambda_F(p)^2 - lambda_F(p^2) = 2 + 1/p + lambda_f(p) lambda_g(p),

and the inversion of x / log^power(x) = B bounds.

Asymptotic statements are never asserted here: measured ratios and empirical
constants are reported, and only desk-scale surrogate thresholds declared by
the test suite are checked.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SignUncertainError, ValidationError
from .hecke import NewformCoeffs, hecke_power_seq
from .lift import UNCERTAIN, EigenSequence, LiftSpec


@dataclass(frozen=True)
class BoundConfig:
    """Exponent and constant knobs for the first-sign-change bound.

    theta is the saving over the convexity exponent 1/4 on the critical line
    (0 <= theta < 1/4, default 0 = convexity-safe); conductor_constant is the
    implied constant in the conductor proxy, default 1.
    """

    theta: float = 0.0
    epsilon: float = 0.0
    conductor_constant: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.theta < 0.25:
            raise ValidationError(f"theta must lie in [0, 1/4), got {self.theta}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValidationError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 < self.conductor_constant < math.inf:
            raise ValidationError(f"conductor_constant must be finite and > 0, "
                                  f"got {self.conductor_constant}")


@dataclass
class SignReport:
    first_negative_n: int | None
    x_searched: int
    q_f_hat: float
    bound_value: float
    ratio: float | None
    s_curve: list  # (x, S(F,x), S/(Q^(1/4-theta+eps) sqrt(x))) triples
    theta: float
    epsilon: float


def weighted_sum(seq: EigenSequence, x: float) -> float:
    """S(F, x) = sum_{n <= x, (n,N)=1} lambda_F(n) log(x/n), fsum-accumulated
    in ascending n (the canonical order)."""
    if x > seq.xmax:
        raise ValidationError(f"x={x} exceeds sequence range xmax={seq.xmax}")
    if not x >= 1:
        raise ValidationError(f"x must be >= 1, got {x}")
    lx = math.log(x)
    upto = seq.count_upto(x)
    terms = seq.values[:upto] * (lx - seq.log_index[:upto])
    return math.fsum(terms.tolist())


def first_negative(seq: EigenSequence) -> int | None:
    """Smallest stored n with certified sign -1 (EigenSequence.signs), or None.

    The scan stops at the first sign that is -1 or UNCERTAIN.  An uncertain
    sign there, positive, zero or negative in value, aborts with
    SignUncertainError: that n may be the first negative, so no later -1 is
    certified to be first, nor is the absence of one."""
    sg = seq.signs
    hit = np.flatnonzero((sg == -1) | (sg == UNCERTAIN))
    if hit.size == 0:
        return None
    i = hit[0]
    if sg[i] == -1:
        return int(seq.index[i])
    raise SignUncertainError(int(seq.index[i]), float(seq.values[i]))


def conductor_proxy(spec: LiftSpec, cfg: BoundConfig) -> float:
    """Conductor proxy Q^_F = conductor_constant * k^2 N1 N2, with k the
    weight of f."""
    return cfg.conductor_constant * spec.f.weight**2 * spec.f.level * spec.g.level


def bound_report(seq: EigenSequence, spec: LiftSpec, cfg: BoundConfig) -> SignReport:
    """First negative, bound value Q^_F^(1/2 - 2 theta + epsilon), their ratio,
    and S(F, x) samples on a geometric grid (with the sqrt(x)-normalised value
    alongside, for empirical inspection; nothing asymptotic is asserted).
    Q^_F and both of its powers must be finite positive binary64 (a level of
    2^1024 or more makes Q^_F itself overflow)."""
    qf = bound = q_norm = math.inf  # whichever overflows stays inf
    try:
        qf = conductor_proxy(spec, cfg)
        bound = qf ** (0.5 - 2.0 * cfg.theta + cfg.epsilon)
        q_norm = qf ** (0.25 - cfg.theta + cfg.epsilon)
    except OverflowError:
        pass
    if not all(0.0 < v < math.inf for v in (qf, bound, q_norm)):
        raise ValidationError(f"Q^_F = {qf!r} (theta={cfg.theta}, epsilon={cfg.epsilon}): "
                              "Q^_F, Q^_F^(1/2-2theta+epsilon) and Q^_F^(1/4-theta+epsilon) "
                              "must be finite and positive")
    n0 = first_negative(seq)
    samples = []
    x = 2.0
    grid = []
    while x < seq.xmax:
        grid.append(x)
        x *= 2.0
    grid.append(float(seq.xmax))
    for xg in grid:
        s = weighted_sum(seq, xg)
        samples.append((xg, s, s / (q_norm * math.sqrt(xg))))
    return SignReport(
        first_negative_n=n0,
        x_searched=seq.xmax,
        q_f_hat=qf,
        bound_value=bound,
        ratio=(n0 / bound) if n0 is not None else None,
        s_curve=samples,
        theta=cfg.theta,
        epsilon=cfg.epsilon,
    )


def invert_xlog_bound(B: float, power: int) -> float:
    """The solution x >= e of x / log^power(x) = B, for B > e (power 0: x = B).

    phi(x) = x / log^power(x) crosses the level B exactly once on [B, oo)
    since phi(B) < B and phi is eventually increasing, so sign bisection
    converges; the upper endpoint starts at B (2 log B)^power + 10 and doubles
    until it brackets (needed for small B with power >= 2).
    """
    if power < 0:
        raise ValidationError(f"power must be >= 0, got {power}")
    if B <= math.e:
        raise ValidationError(f"need B > e, got {B}")
    if power == 0:
        return float(B)

    def phi(x: float) -> float:
        return x / math.log(x) ** power

    lo = float(B)
    hi = B * (2.0 * math.log(B)) ** power + 10.0
    while phi(hi) < B:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < B:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


@dataclass
class AbsSumStats:
    ratio_abs: float
    ratio_sym2: float
    ratio_sym4: float
    pi_yL: int


def _good_lams(h: NewformCoeffs, y: int) -> np.ndarray:
    """lambda(p) at the primes p <= y not dividing the level, ascending."""
    c = h.require_cover(y)
    return h.lam_array[:c][h.good[:c]]


def abs_sum_ratio(h: NewformCoeffs, y: int) -> AbsSumStats:
    """Per-prime averages over p <= y, p not dividing the level:
    sum |lambda(p)| / pi(y, L) plus the symmetric-power cancellation ratios
    |sum lambda(p^2)| / pi and |sum lambda(p^4)| / pi."""
    lams = _good_lams(h, y)
    piyL = lams.size
    if piyL == 0:
        return AbsSumStats(0.0, 0.0, 0.0, 0)
    u = hecke_power_seq(lams, 4)
    s_abs = math.fsum(np.abs(lams).tolist())
    s2 = math.fsum(u[2].tolist())
    s4 = math.fsum(u[4].tolist())
    return AbsSumStats(s_abs / piyL, abs(s2) / piyL, abs(s4) / piyL, piyL)


def v_density(h: NewformCoeffs, y: int, gamma: float) -> float:
    """#{p <= y, p not | L, |lambda(p)| <= gamma} / pi(y, L)."""
    if gamma < 0:
        raise ValidationError(f"gamma must be >= 0, got {gamma}")
    lams = _good_lams(h, y)
    if lams.size == 0:
        return 0.0
    return int(np.count_nonzero(np.abs(lams) <= gamma)) / lams.size


# Branch constants of the lower-bound witness: primes with |lambda_g| <= 19/20
# give lambda_F(p) > 10^(-1/2); with |lambda_g| <= 13/10 either
# |lambda_f| >= 14/10 gives lambda_F(p) >= 1/10 (sum of the two eigenvalues)
# or both small gives lambda_F(p) > 3 sqrt(2)/10 (square identity).
V1_GAMMA = 19 / 20
V2_GAMMA = 13 / 10
CASE_I_CUT = 14 / 10
V1_BOUND = 10.0**-0.5
CASE_I_BOUND = 1 / 10
CASE_II_BOUND = 3.0 * math.sqrt(2.0) / 10.0
_BOUND_SLACK = 1e-10


@dataclass
class CorollaryCheck:
    d1: float
    d2: float
    holds: bool
    contradiction_constant: Fraction


def corollary_check(h: NewformCoeffs, y: int) -> CorollaryCheck:
    """Small-eigenvalue density disjunction: d1 = density at 19/20, d2 at
    13/10; holds iff d1 >= 1/100 or d2 >= 51/100.  The contradiction constant
    (49/100)(13/10) + (50/100)(19/20) = 1112/1000 is recomputed in exact
    rational arithmetic."""
    d1 = v_density(h, y, V1_GAMMA)
    d2 = v_density(h, y, V2_GAMMA)
    const = Fraction(49, 100) * Fraction(13, 10) + Fraction(50, 100) * Fraction(19, 20)
    return CorollaryCheck(d1=d1, d2=d2,
                          holds=(d1 >= 1 / 100) or (d2 >= 51 / 100),
                          contradiction_constant=const)


@dataclass
class WitnessReport:
    x: int
    counts: dict
    hypothesis_violated: list
    bound_failures: list
    active_branch: str
    active_count: int
    pair_count: int
    eigen_sum: float
    empirical_c: float
    nonnegative_up_to_x: bool
    first_negative_n: int | None
    gate_log_y: float
    gate_log_qg_sq: float
    gate_ok: bool


def lower_bound_witness(seq: EigenSequence, spec: LiftSpec, x: int) -> WitnessReport:
    """Classify primes p <= sqrt(x), p not dividing N, into the lower-bound
    branches and verify each claimed per-prime bound against the data.

    The branch bounds presuppose lambda_F(p) >= 0 and lambda_F(p^2) >= 0;
    primes violating that land in hypothesis_violated and are exempt from the
    bound check; the hypothesis holds only where both signs are certified
    (EigenSequence.signs) in {0, +1}.  Primes with |lambda_g(p)| > 13/10
    carry no claim and are counted as outside.  Each branch is a mask over the
    good primes of both tables, ascending.  The witness is only meaningful where
    the sequence is nonnegative: first_negative checks it, as in bound_report.
    """
    if x > seq.xmax:
        raise ValidationError(f"x={x} exceeds sequence range xmax={seq.xmax}")
    y = math.isqrt(x)
    c = spec.f.require_cover(y)
    spec.g.require_cover(y)
    good = spec.f.good[:c] & spec.g.good[:c]
    ps = spec.f.prime_array[:c][good]
    sq = np.stack((ps, ps * ps))
    at = np.searchsorted(seq.index, sq).clip(max=seq.index.size - 1)
    if (seq.index[at] != sq).any():
        raise ValidationError("the sequence was not lifted from this pair up to x")
    hyp = np.isin(seq.signs[at], (0, 1)).all(axis=0)
    lf, lg = (np.abs(h.lam_array[:c][good]) for h in (spec.f, spec.g))
    lF = seq.values[at[0]]

    v1 = hyp & (lg <= V1_GAMMA)
    v2 = hyp & (lg > V1_GAMMA) & (lg <= V2_GAMMA)
    branches = {"v1": v1, "case_i": v2 & (lf >= CASE_I_CUT), "case_ii": v2 & (lf < CASE_I_CUT),
                "outside": hyp & (lg > V2_GAMMA), "hypothesis_violated": ~hyp}
    counts = {b: int(np.count_nonzero(m)) for b, m in branches.items()}
    claims = [v1, branches["case_i"], branches["case_ii"]]
    fail = lF < np.select(claims, [V1_BOUND, CASE_I_BOUND, CASE_II_BOUND], -np.inf) - _BOUND_SLACK
    name = np.select(claims, ["v1", "case_i", "case_ii"], "")
    failures = list(zip(ps[fail].tolist(), name[fail].tolist(), lF[fail].tolist()))

    # branch selection mirrors the density disjunction on g over p <= sqrt(x)
    active = "v1" if y >= 2 and v_density(spec.g, y, V1_GAMMA) >= 1 / 100 else "v2"
    m = counts["v1"] if active == "v1" else counts["v1"] + counts["case_i"] + counts["case_ii"]

    esum = math.fsum(seq.values[:seq.count_upto(x)].tolist())
    lx = math.log(x) if x > 1 else 1.0
    n0 = first_negative(seq)
    log_qg_sq = math.log(spec.g.level) ** 2
    log_y = math.log(y) if y >= 2 else 0.0
    return WitnessReport(
        x=x,
        counts=counts,
        hypothesis_violated=ps[~hyp].tolist(),
        bound_failures=failures,
        active_branch=active,
        active_count=m,
        pair_count=m * (m - 1),
        eigen_sum=esum,
        empirical_c=esum * lx * lx / x,
        nonnegative_up_to_x=(n0 is None or n0 > x),
        first_negative_n=n0,
        gate_log_y=log_y,
        gate_log_qg_sq=log_qg_sq,
        gate_ok=log_y >= log_qg_sq,
    )


@dataclass
class BadFactorBound:
    lhs: float
    rhs: float


def bad_factor_bound(h: NewformCoeffs) -> BadFactorBound:
    """Bad-Euler-factor product bound: prod_{p | L} (1 + |lambda(p)|/sqrt(p))
    <= prod_{p | L} (1 + 1/sqrt(p)) = sum_{d | L} 1/sqrt(d), the right side
    taken as the product, one step per level prime (its last bit may differ
    from a summed divisor lattice).

    The primes are those of h.atkin_lehner, which refuses a table that
    stops below one, so they are the table primes outside h.good, ascending,
    as lam_array[~h.good] reads them.  The inequality holds factor by factor:
    a table is built only if |lambda(p)| <= 1.001 p^(-1/2) at each level
    prime (a normalized value within 1e-3 of its integer a_p), so each factor
    is at most 1 + 1.001/p, far enough below 1 + 1/sqrt(p) (sqrt(p) > 1.001)
    that the binary64 factors and products keep lhs <= rhs."""
    lhs = rhs = 1.0
    for p, lam in zip(h.atkin_lehner, h.lam_array[~h.good].tolist()):
        lhs *= 1.0 + abs(lam) / math.sqrt(p)
        rhs *= 1.0 + 1.0 / math.sqrt(p)
    return BadFactorBound(lhs=lhs, rhs=rhs)
