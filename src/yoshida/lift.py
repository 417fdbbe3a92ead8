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

When both tables' values are integer a_p (neither is `normalized`) the lift
also carries an exact channel: with A_i = a_f(p^i) and B_j = a_g(p^j) the
unnormalised Hecke sequences,

    lambda_F(p^r) p^(r(k-1)/2) = sum_{i+j=r} A_i B_j p^(j(k-2)/2)
                                 - sum_{i+j=r-2} A_i B_j p^(j(k-2)/2 + k-2)

is an integer (in weight 2, e.g. lambda_F(p) sqrt(p) = a_f(p) + a_g(p) and
lambda_F(p^2) p = a_f(p)^2 + a_g(p)^2 + a_f(p) a_g(p) - 2p - 1), so
lambda_F(n) n^((k-1)/2) is an integer whose sign is computed exactly.

Every certified sign follows one rule: sign(q m) = sign(c(q)) sign(m) for
the full power q of a prime of n, so the sign of lambda_F(n) is the product
of the signs of its prime-power factors c(q) = lambda_F(q).  The two channels
differ only in where sign(c(q)) comes from, which _factor_signs decides: the
exact integer above when both tables hold integers, otherwise the float
c(q), whose sign is certified only where |c(q)| > SIGN_TOL.  One uncertain
factor makes the sign of n uncertain, however large |lambda_F(n)| is, and
the float channel certifies no zero.

lift_sequence assembles lambda_F(n) and its sign in two dense numpy arrays
indexed by n, one good prime at a time, largest first, without a per-n
Python loop but with the same float operations as the per-n recurrence, so
every printed bit is that of the textbook loop; the sign array also records
which n are built.  No per-n integer (which grows like n^((k-1)/2)) is ever
formed.  The EigenSequence holds the n, their lambda_F(n) and their
certified signs as three aligned columns.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .hecke import NewformCoeffs, hecke_power_seq

# A float prime-power factor c(q) = lambda_F(q) certifies its sign only when
# |c(q)| exceeds this; the exact channel is the only certified source of zero
# signs.
SIGN_TOL = 1e-9
# EigenSequence.signs code for an uncertain sign
UNCERTAIN = 2
# EigenSequence.signs code -> sign column of the lift CSV
SIGN_CHARS = {-1: "-1", 0: "0", 1: "1", UNCERTAIN: "?"}


def _same_ap(f: NewformCoeffs, g: NewformCoeffs, i: int) -> bool:
    """Whether two tables hold one eigenvalue at their i-th prime p: lambda(p)
    bit for bit, or one integer a_p (a normalized copy of an integer table)."""
    if f.lam_array[i] == g.lam_array[i]:
        return True
    p = int(f.prime_array[i])
    a = f.integer_ap(p)
    return a is not None and a == g.integer_ap(p)


@dataclass(frozen=True, eq=False)
class LiftSpec:
    """A validated Yoshida pair; the tables hold their Atkin-Lehner signs."""

    f: NewformCoeffs
    g: NewformCoeffs


def validate_pair(f: NewformCoeffs, g: NewformCoeffs) -> LiftSpec:
    """Check the lift setting: squarefree levels with gcd > 1, g of weight 2,
    coinciding Atkin-Lehner signs at every prime dividing the gcd, and f, g
    distinct: of one weight k and level N, they are the same newform if
    a_p agrees at every p <= k prod_{p|N} (p + 1) // 12 (Sturm 1987), as an
    integer or, between normalized tables, as lambda(p) bit for bit.

    The signs are each table's atkin_lehner, w_p = -a_p / p^((k-2)/2) from
    its coefficients at its level primes.
    """
    # NewformCoeffs construction already enforces squarefree levels
    if g.weight != 2:
        raise ValidationError(f"g must have weight 2, got {g.weight}")
    if math.gcd(f.level, g.level) == 1:
        raise ValidationError(f"levels coprime: gcd({f.level}, {g.level}) = 1")
    if (f.level, f.weight) == (g.level, g.weight):
        B = f.weight * math.prod(p + 1 for p in f.level_primes) // 12
        c = f.require_cover(B)
        g.require_cover(B)
        if all(_same_ap(f, g, i) for i in range(c)):
            raise ValidationError(f"f and g are the same newform: lambda(p) agrees up to {B}")
    for p, w in f.atkin_lehner.items():
        if g.atkin_lehner.get(p, w) != w:
            raise ValidationError(f"Atkin-Lehner mismatch at p={p}: {w} vs {g.atkin_lehner[p]}")
    return LiftSpec(f=f, g=g)


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


def _factor_signs(c, ints) -> np.ndarray:
    """The certified int8 signs of a run of prime-power factors c(q): those of
    the integers I(q) if ints is not None (both tables hold integers), else
    those of the floats c where |c| > SIGN_TOL, and 0 inside that band."""
    if ints is None:
        return np.where(np.abs(c) > SIGN_TOL, np.sign(c), 0).astype(np.int8)
    return np.sign(ints).astype(np.int8)


@dataclass(eq=False)
class EigenSequence:
    """lambda_F(n) and its certified sign for the n <= xmax coprime to N.

    Three columns of one length, read-only from lift_sequence: index holds
    those n in ascending order, values[i] is the binary64 lambda_F(index[i]),
    and signs[i] its certified sign, the product of the signs of its
    prime-power factors: -1, 0, +1, or UNCERTAIN.
    """

    xmax: int
    index: np.ndarray
    values: np.ndarray
    signs: np.ndarray

    @cached_property
    def log_index(self) -> np.ndarray:
        """math.log(n) for every n in index.  np.log is not guaranteed to
        round the same way, and S(F, x) must keep its printed bits."""
        return np.fromiter(map(math.log, self.index.tolist()), dtype=np.float64,
                           count=self.index.size)

    def count_upto(self, x) -> int:
        """The number of stored n <= x (x >= 1 finite), so that index[:c] are
        those n: a binary search for floor(x), an integer like index."""
        return int(np.searchsorted(self.index, math.floor(x), side="right"))


def lift_sequence(spec: LiftSpec, xmax: int) -> EigenSequence:
    """Assemble lambda_F(n) for all n <= xmax with (n, N) = 1.

    Such an n > 1 is q m with q = p^e the full power of its smallest prime p
    and every prime of m above p, so lambda_F(n) = c(q) lambda_F(m): the
    per-n float product of the textbook recurrence, so the bits do not depend
    on the assembly.  sign(n) = sign(c(q)) sign(m) rides along in int8, with
    sign(c(q)) from _factor_signs, 0 where the float channel is uncertain:
    the products carry that 0 to every multiple, and it becomes UNCERTAIN at
    the end.  A good prime p > sqrt(xmax) occurs only as n = p, its own
    factor, where lambda_F(p) = lambda_f(p) + lambda_g(p) and its sign (from
    I_1 = a_f(p) + a_g(p) p^((k-2)/2) in the dtype of f's values) are array
    operations.  The good primes p <= sqrt(xmax) follow from the largest
    down.  The dense sign starts at UNCERTAIN, which no product of -1, 0 and
    +1 makes, so its other entries mark the n built so far, all of whose
    primes exceed p: read once per p, each power q of p multiplies c(q) and
    its sign into every such m <= xmax / q at once.  Multiples of the primes
    dividing N are never built, so the built n end as the index.  The dense
    sign, then lam (lambda_F by n), is gathered at the index and dropped.
    """
    if xmax < 1:
        raise ValidationError(f"xmax must be >= 1, got {xmax}")
    c = spec.f.require_cover(xmax)
    spec.g.require_cover(xmax)
    exact = not (spec.f.normalized or spec.g.normalized)
    k = spec.f.weight

    ps = spec.f.prime_array[:c]
    root = math.isqrt(xmax)
    good = spec.f.good[:c] & spec.g.good[:c]
    big = good & (ps > root)
    big_ps = ps[big]
    lam = np.zeros(xmax + 1)
    lam[1] = 1.0
    # The two-term fsum of lift_euler_coeffs at r = 1 is one IEEE add; + 0.0
    # turns the -0.0 of (-0.0) + (-0.0) into fsum's 0.0.
    lam[big_ps] = (spec.f.lam_array[:c][big] + spec.g.lam_array[:c][big]) + 0.0
    ints = None
    if exact:
        a_f, a_g = spec.f.values[:c][big], spec.g.values[:c][big]
        ints = a_f + a_g * big_ps.astype(a_f.dtype) ** ((k - 2) // 2)
    sign = np.full(xmax + 1, UNCERTAIN, dtype=np.int8)
    sign[1] = 1
    sign[big_ps] = _factor_signs(lam[big_ps], ints)

    small = np.flatnonzero(good & (ps <= root))[::-1]
    cols = [ps, spec.f.lam_array, spec.g.lam_array]
    cols += [spec.f.values, spec.g.values] if exact else []
    for p, lam_f, lam_g, *ap in zip(*(col[small].tolist() for col in cols)):
        qs = [p]
        while qs[-1] * p <= xmax:
            qs.append(qs[-1] * p)
        coeffs = lift_euler_coeffs(lam_f, lam_g, p, len(qs))[1:]
        ints = lift_euler_ints(*ap, p, len(qs), k)[1:] if exact else None
        # the m built before p, read once: no power of p reads another
        ms = np.flatnonzero(sign[: xmax // p + 1] != UNCERTAIN)
        for q, c_q, s_q in zip(qs, coeffs, _factor_signs(coeffs, ints)):
            m = ms[: np.searchsorted(ms, xmax // q, side="right")]
            n = q * m
            lam[n] = c_q * lam[m]
            sign[n] = s_q * sign[m]

    index = np.flatnonzero(sign != UNCERTAIN)
    sign = sign[index]
    if not exact:
        sign[sign == 0] = UNCERTAIN
    values = lam[index]
    del lam
    index.flags.writeable = values.flags.writeable = sign.flags.writeable = False
    return EigenSequence(xmax=xmax, index=index, values=values, signs=sign)
