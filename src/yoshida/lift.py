"""Eigenvalue sequences of Yoshida lifts from the spinor Euler factorization.

A validated pair (f, g) of newforms (f of even weight k and squarefree level
N1, g of weight 2 and squarefree level N2, gcd(N1, N2) > 1, matching
Atkin-Lehner signs on common level divisors) determines a degree-2 Siegel
eigenform whose spinor L-function away from N = lcm(N1, N2) factors as
L(f, s) L(g, s).  The lift's Hecke eigenvalues lambda_F(n) for (n, N) = 1 are
DEFINED here through

    sum_{(n,N)=1} lambda_F(n) n^-s  =  L_N(f, s) L_N(g, s) / zeta_N(1 + 2s),

i.e. per prime p not dividing N, lambda_F(p^r) is the X^r coefficient of

    (1 - X^2/p) / ((1 - lambda_f(p) X + X^2)(1 - lambda_g(p) X + X^2)).

In particular lambda_F(p) = lambda_f(p) + lambda_g(p) and

    lambda_F(p^2) = lambda_f(p^2) + lambda_g(p^2) + lambda_f(p) lambda_g(p) - 1/p.

No Siegel modular forms are constructed; whether a genuine lift exists for a
given pair is not decided here, the eigenvalue system is computed
unconditionally.

When both tables hold integer a_p (neither is `normalized`) the sequence
also carries an exact channel: with A_i = a_f(p^i) and B_j = a_g(p^j) the
unnormalised Hecke sequences,

    lambda_F(p^r) p^(r(k-1)/2) = sum_{i+j=r} A_i B_j p^(j(k-2)/2)
                                 - sum_{i+j=r-2} A_i B_j p^(j(k-2)/2 + k-2)

is an integer (in weight 2, e.g. lambda_F(p) sqrt(p) = a_f(p) + a_g(p) and
lambda_F(p^2) p = a_f(p)^2 + a_g(p)^2 + a_f(p) a_g(p) - 2p - 1), so
lambda_F(n) n^((k-1)/2) is an integer whose sign is computed exactly.
Normalized float tables get float signs, certified only outside
|lambda_F(n)| <= SIGN_TOL.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .hecke import NewformCoeffs, hecke_power_seq, infer_atkin_lehner
from .primes import factorize, primes_up_to

# A float-channel eigenvalue certifies its sign only when |lambda_F(n)|
# exceeds this; the exact channel is the only certified source of zero signs.
SIGN_TOL = 1e-9


def _infer_al_map(nf: NewformCoeffs) -> dict[int, int]:
    out = {}
    for p in nf.level_primes():
        if p not in nf.coeffs:
            raise ValidationError(f"cannot infer Atkin-Lehner sign: no coefficient at p={p}")
        if nf.normalized:
            # a_p = lambda(p) p^((k-1)/2), an integer of magnitude p^((k-2)/2);
            # tolerate decimal rounding in the stored lambda
            scaled = nf.coeffs[p] * math.sqrt(p) * p ** ((nf.weight - 2) // 2)
            a = round(scaled)
            if abs(scaled - a) > 1e-3 * max(1, abs(a)):
                raise ValidationError(f"not multiplicative-type at p={p}: lambda={nf.coeffs[p]!r}")
        else:
            a = nf.coeffs[p]
        out[p] = infer_atkin_lehner(a, p, nf.weight)
    return out


@dataclass(frozen=True, eq=False)
class LiftSpec:
    """A validated Yoshida pair: f, g and their Atkin-Lehner signs."""

    f: NewformCoeffs
    g: NewformCoeffs
    al_f: dict
    al_g: dict
    M: int = field(init=False, default=0)
    N: int = field(init=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "M", math.gcd(self.f.level, self.g.level))
        object.__setattr__(self, "N", math.lcm(self.f.level, self.g.level))

    @property
    def weight(self) -> int:
        return self.f.weight


def validate_pair(f: NewformCoeffs, g: NewformCoeffs,
                  al_f: dict | None = None, al_g: dict | None = None) -> LiftSpec:
    """Check the lift setting: squarefree levels with gcd > 1, g of weight 2,
    and coinciding Atkin-Lehner signs at every prime dividing the gcd.

    Missing sign maps are inferred from the tables' bad-prime coefficients.
    """
    # NewformCoeffs construction already enforces squarefree levels
    if g.weight != 2:
        raise ValidationError(f"g must have weight 2, got {g.weight}")
    M = math.gcd(f.level, g.level)
    if M == 1:
        raise ValidationError(f"levels coprime: gcd({f.level}, {g.level}) = 1")
    if al_f is None:
        al_f = _infer_al_map(f)
    if al_g is None:
        al_g = _infer_al_map(g)
    for p, _ in factorize(M):
        sf, sg = al_f.get(p), al_g.get(p)
        if sf is None or sg is None:
            raise ValidationError(f"Atkin-Lehner sign missing at p={p}")
        if sf not in (1, -1) or sg not in (1, -1):
            raise ValidationError(f"Atkin-Lehner signs must be +-1 at p={p}")
        if sf != sg:
            raise ValidationError(f"Atkin-Lehner mismatch at p={p}: {sf} vs {sg}")
    return LiftSpec(f=f, g=g, al_f=dict(al_f), al_g=dict(al_g))


def lift_euler_coeffs(lam_f: float, lam_g: float, p: int, rmax: int) -> list[float]:
    """[lambda_F(p^0), ..., lambda_F(p^rmax)] at a prime p not dividing N.

    Expands (1 - X^2/p) / ((1 - lam_f X + X^2)(1 - lam_g X + X^2)): the two
    quadratic inverses are Chebyshev-U sequences u, v via the Hecke
    recurrence, so the coefficient is conv(u, v)[r] - conv(u, v)[r-2] / p.
    """
    u = hecke_power_seq(lam_f, rmax)
    v = hecke_power_seq(lam_g, rmax)
    out = []
    for r in range(rmax + 1):
        c = math.fsum(u[i] * v[r - i] for i in range(r + 1))
        if r >= 2:
            c -= math.fsum(u[i] * v[r - 2 - i] for i in range(r - 1)) / p
        out.append(c)
    return out


def lift_euler_ints(af: int, ag: int, p: int, rmax: int, k: int) -> list[int]:
    """Exact channel: integers I_r = lambda_F(p^r) p^(r(k-1)/2) for r <= rmax,
    with f of even weight k and g of weight 2.

    A_i = a_f(p^i) follows the unnormalised recurrence with step p^(k-1), and
    so does B_j = a_g(p^j) p^(j(k-2)/2), started from a_g(p) p^((k-2)/2);
    then I_r = sum_{i+j=r} A_i B_j - p^(k-2) sum_{i+j=r-2} A_i B_j.
    """
    step = p ** (k - 1)
    A = hecke_power_seq(af, rmax, step)
    B = hecke_power_seq(ag * p ** ((k - 2) // 2), rmax, step)

    def conv(r: int) -> int:
        return sum(A[i] * B[r - i] for i in range(r + 1)) if r >= 0 else 0

    # the 1/p of the numerator (1 - X^2/p) times the p^(k-1) by which
    # p^(r(k-1)/2) exceeds the scale p^((r-2)(k-1)/2) of conv(r-2)
    return [conv(r) - p ** (k - 2) * conv(r - 2) for r in range(rmax + 1)]


@dataclass(eq=False)
class EigenSequence:
    """lambda_F(n) for n <= xmax coprime to N, with optional exact channel.

    values[n] is binary64; when both tables hold integers, scaled[n] is the
    integer lambda_F(n) n^((k-1)/2).
    """

    spec: LiftSpec
    xmax: int
    values: dict
    scaled: dict | None = None

    def sign(self, n: int) -> int | None:
        """Certified sign of lambda_F(n) in {-1, 0, +1}, or None if uncertain.

        Exact from scaled when present; otherwise +-1 from the float value
        when |lambda_F(n)| > SIGN_TOL, and None inside that band.
        """
        if self.scaled is not None:
            s = self.scaled[n]
            return (s > 0) - (s < 0)
        v = self.values[n]
        if abs(v) <= SIGN_TOL:
            return None
        return 1 if v > 0 else -1


def lift_sequence(spec: LiftSpec, xmax: int) -> EigenSequence:
    """Assemble lambda_F(n) for all n <= xmax with (n, N) = 1.

    Prime-power coefficients are computed once per prime (up to log_p xmax)
    and extended multiplicatively over a smallest-prime-factor decomposition.
    The exact integer channel is built whenever neither table is normalized.
    """
    if xmax < 1:
        raise ValidationError(f"xmax must be >= 1, got {xmax}")
    spec.f.require_cover(xmax)
    spec.g.require_cover(xmax)
    exact = not (spec.f.normalized or spec.g.normalized)

    N = spec.N
    ps = primes_up_to(xmax)
    pw_float: dict[int, list[float]] = {}
    pw_int: dict[int, list[int]] = {}
    for p in ps.tolist():
        if N % p == 0:
            continue
        rmax, q = 1, p
        while q * p <= xmax:
            q *= p
            rmax += 1
        pw_float[p] = lift_euler_coeffs(spec.f.lam(p), spec.g.lam(p), p, rmax)
        if exact:
            pw_int[p] = lift_euler_ints(spec.f.a_exact(p), spec.g.a_exact(p), p, rmax, spec.weight)

    # smallest prime factor sieve for the multiplicative assembly
    spf = np.zeros(xmax + 1, dtype=np.int64)
    for p in ps.tolist():
        block = spf[p::p]
        block[block == 0] = p

    values = {1: 1.0}
    scaled: dict[int, int] | None = {1: 1} if exact else None
    for n in range(2, xmax + 1):
        if math.gcd(n, N) != 1:
            continue
        p = int(spf[n])
        m = n
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        values[n] = pw_float[p][e] * values[m]
        if exact:
            scaled[n] = pw_int[p][e] * scaled[m]

    return EigenSequence(spec=spec, xmax=xmax, values=values, scaled=scaled)
