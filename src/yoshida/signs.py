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
from .primes import primes_up_to, squarefree_divisors


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
    if x < 1:
        raise ValidationError(f"x must be >= 1, got {x}")
    lx = math.log(x)
    upto = np.count_nonzero(seq.index <= x)
    terms = seq.values[seq.index[:upto]] * (lx - seq.log_index[:upto])
    return math.fsum(terms.tolist())


def first_negative(seq: EigenSequence) -> int | None:
    """Smallest stored n with certified sign -1 (EigenSequence.signs), or None.

    A negative float value whose sign is uncertain aborts with
    SignUncertainError, since no smaller negative exists to rescue it.
    """
    sg = seq.signs()
    hit = np.flatnonzero((sg == -1) | ((sg == UNCERTAIN) & (seq.values[seq.index] < 0.0)))
    if hit.size == 0:
        return None
    n = int(seq.index[hit[0]])
    if sg[hit[0]] == -1:
        return n
    raise SignUncertainError(n, float(seq.values[n]))


def q_hat_g(spec: LiftSpec) -> float:
    return float(spec.g.level)


def conductor_proxy(spec: LiftSpec, cfg: BoundConfig) -> float:
    """Conductor proxy Q^_F = conductor_constant * k^2 N1 N2."""
    return cfg.conductor_constant * spec.weight**2 * spec.f.level * spec.g.level


def bound_report(seq: EigenSequence, spec: LiftSpec, cfg: BoundConfig) -> SignReport:
    """First negative, bound value Q^_F^(1/2 - 2 theta + epsilon), their ratio,
    and S(F, x) samples on a geometric grid (with the sqrt(x)-normalised value
    alongside, for empirical inspection; nothing asymptotic is asserted)."""
    qf = conductor_proxy(spec, cfg)
    bound = qf ** (0.5 - 2.0 * cfg.theta + cfg.epsilon)
    n0 = first_negative(seq)
    norm_exp = 0.25 - cfg.theta + cfg.epsilon
    samples = []
    x = 2.0
    grid = []
    while x < seq.xmax:
        grid.append(x)
        x *= 2.0
    grid.append(float(seq.xmax))
    for xg in grid:
        s = weighted_sum(seq, xg)
        samples.append((xg, s, s / (qf**norm_exp * math.sqrt(xg))))
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
    h.require_cover(y)
    ps = h.prime_array
    return h.lam_array[(ps <= y) & (h.level % ps != 0)]


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
    d1 = v_density(h, y, 19 / 20)
    d2 = v_density(h, y, 13 / 10)
    const = Fraction(49, 100) * Fraction(13, 10) + Fraction(50, 100) * Fraction(19, 20)
    return CorollaryCheck(d1=d1, d2=d2,
                          holds=(d1 >= 1 / 100) or (d2 >= 51 / 100),
                          contradiction_constant=const)


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
    (EigenSequence.sign) in {0, +1}.  Primes with |lambda_g(p)| > 13/10 carry
    no claim and are counted as outside.  The witness is only meaningful where
    the sequence is nonnegative, which is checked and reported, never assumed.
    """
    if x > seq.xmax:
        raise ValidationError(f"x={x} exceeds sequence range xmax={seq.xmax}")
    y = math.isqrt(x)
    N = spec.N

    def nonneg(n: int) -> bool:
        return seq.sign(n) in (0, 1)

    counts = {"v1": 0, "case_i": 0, "case_ii": 0, "outside": 0, "hypothesis_violated": 0}
    violated = []
    failures = []
    v1_set, v2_set = [], []
    for p in primes_up_to(y).tolist():
        if N % p == 0:
            continue
        if not (nonneg(p) and nonneg(p * p)):
            counts["hypothesis_violated"] += 1
            violated.append(p)
            continue
        lf, lg = abs(spec.f.lam(p)), abs(spec.g.lam(p))
        lF = float(seq.values[p])
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

    # branch selection mirrors the density disjunction on g over p <= sqrt(x)
    cor = corollary_check(spec.g, y) if y >= 2 else None
    if cor is not None and cor.d1 >= 1 / 100:
        active, active_set = "v1", v1_set
    else:
        active, active_set = "v2", v2_set
    m = len(active_set)

    esum = math.fsum(seq.values[seq.index[seq.index <= x]].tolist())
    lx = math.log(x) if x > 1 else 1.0
    try:
        n0 = first_negative(seq)
    except SignUncertainError as exc:
        n0 = exc.n  # not certified, but a negative float value was observed there
    qg = q_hat_g(spec)
    log_y = math.log(y) if y >= 2 else 0.0
    return WitnessReport(
        x=x,
        counts=counts,
        hypothesis_violated=violated,
        bound_failures=failures,
        active_branch=active,
        active_count=m,
        pair_count=m * (m - 1),
        eigen_sum=esum,
        empirical_c=esum * lx * lx / x,
        nonnegative_up_to_x=(n0 is None or n0 > x),
        first_negative_n=n0,
        gate_log_y=log_y,
        gate_log_qg_sq=math.log(qg) ** 2,
        gate_ok=log_y >= math.log(qg) ** 2,
    )


@dataclass
class BadFactorBound:
    lhs: float
    rhs: float


def bad_factor_bound(h: NewformCoeffs) -> BadFactorBound:
    """Bad-Euler-factor product bound: prod_{p | L} (1 + |lambda(p)|/sqrt(p))
    <= sum_{d | L} 1/sqrt(d) over the squarefree divisor lattice.

    The inequality follows from |lambda(p)| <= 1 at bad primes by expanding
    the product into the divisor sum, and is asserted with 1e-12 slack."""
    lhs = 1.0
    for p in h.level_primes:
        if p not in h.coeffs:
            raise ValidationError(f"missing bad-prime coefficient at p={p}")
        lhs *= 1.0 + abs(h.lam(p)) / math.sqrt(p)
    rhs = math.fsum(1.0 / math.sqrt(d) for d in squarefree_divisors(h.level_primes))
    if lhs > rhs + 1e-12:
        raise ValidationError(f"bad-factor bound violated: {lhs!r} > {rhs!r}")
    return BadFactorBound(lhs=lhs, rhs=rhs)
