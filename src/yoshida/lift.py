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

An EigenSequence holds both channels as dense numpy arrays indexed by n,
assembled without a per-n Python loop but with the same float operations as
the per-n recurrence, so every printed bit is that of the textbook loop.  The
exact channel holds signs only: the sign of the integer at each prime power
q is taken exactly, and sign(n) = sign(q) sign(n/q) by multiplicativity, so
no per-n integer (which grows like n^((k-1)/2)) is ever formed.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .hecke import NewformCoeffs, hecke_power_seq, infer_atkin_lehner
from .primes import primes_up_to

# A float-channel eigenvalue certifies its sign only when |lambda_F(n)|
# exceeds this; the exact channel is the only certified source of zero signs.
SIGN_TOL = 1e-9
# EigenSequence.signs() code for an uncertain sign (sign(n) is None)
UNCERTAIN = 2


def _infer_al_map(nf: NewformCoeffs) -> dict[int, int]:
    out = {}
    for p in nf.level_primes:
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


def validate_pair(f: NewformCoeffs, g: NewformCoeffs) -> LiftSpec:
    """Check the lift setting: squarefree levels with gcd > 1, g of weight 2,
    and coinciding Atkin-Lehner signs at every prime dividing the gcd.

    The signs are inferred from each table's coefficients at its level
    primes, w_p = -a_p / p^((k-2)/2).
    """
    # NewformCoeffs construction already enforces squarefree levels
    if g.weight != 2:
        raise ValidationError(f"g must have weight 2, got {g.weight}")
    if math.gcd(f.level, g.level) == 1:
        raise ValidationError(f"levels coprime: gcd({f.level}, {g.level}) = 1")
    al_f, al_g = _infer_al_map(f), _infer_al_map(g)
    for p in al_f:
        if p in al_g and al_f[p] != al_g[p]:
            raise ValidationError(f"Atkin-Lehner mismatch at p={p}: {al_f[p]} vs {al_g[p]}")
    return LiftSpec(f=f, g=g, al_f=al_f, al_g=al_g)


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
    """lambda_F(n) for the n <= xmax coprime to N, as arrays indexed by n.

    index holds those n in ascending order.  values[n] is the binary64
    lambda_F(n) for n in index; every other slot holds 0.0 and is never read.
    When both tables hold integers, exact_sign[n] is the exact sign in
    {-1, 0, +1} of the integer lambda_F(n) n^((k-1)/2), as int8; otherwise
    None.
    """

    xmax: int
    index: np.ndarray
    values: np.ndarray
    exact_sign: np.ndarray | None = None

    def sign(self, n: int) -> int | None:
        """Certified sign of lambda_F(n) in {-1, 0, +1}, or None if uncertain:
        n's entry of signs().  Raises ValidationError for n outside index."""
        i = int(np.searchsorted(self.index, n))
        if i == self.index.size or self.index[i] != n:
            raise ValidationError(f"lambda_F({n}) is not in the sequence: "
                                  f"n must lie in [1, {self.xmax}] and be coprime to N")
        s = int(self.signs()[i])
        return None if s == UNCERTAIN else s

    def signs(self) -> np.ndarray:
        """The certified sign of lambda_F(n) for every n in index, as one
        read-only int8 array, built on first use and the same object after.

        exact_sign when present; otherwise +-1 from the float value
        when |lambda_F(n)| > SIGN_TOL, and UNCERTAIN inside that band.
        """
        return self._sign_codes

    @cached_property
    def _sign_codes(self) -> np.ndarray:
        if self.exact_sign is not None:
            codes = self.exact_sign[self.index]
        else:
            v = self.values[self.index]
            codes = np.where(np.abs(v) <= SIGN_TOL, UNCERTAIN, np.sign(v)).astype(np.int8)
        codes.flags.writeable = False
        return codes

    @cached_property
    def log_index(self) -> np.ndarray:
        """math.log(n) for every n in index.  np.log is not guaranteed to
        round the same way, and S(F, x) must keep its printed bits."""
        return np.fromiter(map(math.log, self.index.tolist()), dtype=np.float64,
                           count=self.index.size)


def _spf_power(xmax: int, small_primes: np.ndarray) -> np.ndarray:
    """q[n] = p^e with p the smallest prime factor of n and p^e exactly
    dividing n (q[n] = n for n <= 1); small_primes are the primes <= sqrt(xmax)."""
    spf = np.arange(xmax + 1)
    for p in small_primes[::-1].tolist():  # descending: the smallest p writes last
        spf[p * p :: p] = p
    q = spf.copy()
    for p in small_primes.tolist():
        pe = p * p
        while pe <= xmax:
            block = q[pe::pe]
            block[spf[pe::pe] == p] = pe
            pe *= p
    return q


def lift_sequence(spec: LiftSpec, xmax: int) -> EigenSequence:
    """Assemble lambda_F(n) for all n <= xmax with (n, N) = 1.

    Euler coefficients are tabulated by prime power q = p^e <= xmax.  At every
    good prime, lambda_F(p) = lambda_f(p) + lambda_g(p) and the sign of I_1 =
    a_f(p) + a_g(p) p^((k-2)/2) are array operations, the latter in the dtype
    of f's a_array; lift_euler_coeffs / lift_euler_ints fill only the p^e with
    e >= 2.  Then lambda_F(n) = c(q) lambda_F(n/q) with q the power of the
    smallest prime factor of n, one gather-multiply round per number of
    distinct prime factors: the per-n float product of the textbook
    recurrence, so the bits do not depend on the assembly.  The exact sign
    channel, sign(n) = sign(I(q)) sign(n/q) in int8, rides in the same rounds
    whenever neither table is normalized.
    """
    if xmax < 1:
        raise ValidationError(f"xmax must be >= 1, got {xmax}")
    spec.f.require_cover(xmax)
    spec.g.require_cover(xmax)
    exact = not (spec.f.normalized or spec.g.normalized)
    N, k = spec.N, spec.weight

    ps = primes_up_to(xmax)
    root = math.isqrt(xmax)
    good = N % ps != 0
    lam_f, lam_g = spec.f.lam_array[: ps.size][good], spec.g.lam_array[: ps.size][good]

    # Euler coefficients indexed by q = p^e.  The two-term fsum of
    # lift_euler_coeffs at r = 1 is one IEEE add; + 0.0 turns the -0.0 of
    # (-0.0) + (-0.0) into fsum's 0.0.
    euler = np.zeros(xmax + 1)
    euler[ps[good]] = (lam_f + lam_g) + 0.0
    if exact:
        # sign of I(q) = lambda_F(q) q^((k-1)/2); a_array's dtype holds I_1
        a_f, a_g = spec.f.a_array[: ps.size][good], spec.g.a_array[: ps.size][good]
        euler_sign = np.zeros(xmax + 1, dtype=np.int8)
        euler_sign[ps[good]] = np.sign(a_f + a_g * ps[good].astype(a_f.dtype) ** ((k - 2) // 2))
    for p in ps[good & (ps <= root)].tolist():
        qs = [p * p]
        while qs[-1] * p <= xmax:
            qs.append(qs[-1] * p)
        rmax = len(qs) + 1
        euler[qs] = lift_euler_coeffs(spec.f.lam(p), spec.g.lam(p), p, rmax)[2:]
        if exact:
            ints = lift_euler_ints(spec.f.a_exact(p), spec.g.a_exact(p), p, rmax, k)[2:]
            euler_sign[qs] = [(v > 0) - (v < 0) for v in ints]

    coprime = np.ones(xmax + 1, dtype=bool)
    coprime[0] = False
    for p in spec.al_f.keys() | spec.al_g.keys():  # the primes dividing N
        coprime[::p] = False
    index = np.flatnonzero(coprime)
    spf_q = _spf_power(xmax, ps[ps <= root])

    values = np.zeros(xmax + 1)
    values[1] = 1.0
    sign = None
    if exact:
        sign = np.zeros(xmax + 1, dtype=np.int8)
        sign[1] = 1
    done = np.zeros(xmax + 1, dtype=bool)
    done[1] = True
    todo = index[1:]
    while todo.size:
        q = spf_q[todo]
        m = todo // q
        ready = done[m]
        n, q, m = todo[ready], q[ready], m[ready]
        values[n] = euler[q] * values[m]
        if exact:
            sign[n] = euler_sign[q] * sign[m]
        done[n] = True
        todo = todo[~ready]

    return EigenSequence(xmax=xmax, index=index, values=values, exact_sign=sign)
