"""Arithmetic of normalised Hecke eigenvalues of elliptic newforms.

A newform of even weight k and squarefree level L has integer Fourier
coefficients a_p at primes.  The normalised eigenvalue is

    lambda(p) = a_p / p^((k-1)/2),

so the Deligne bound reads |lambda(p)| <= 2 at good primes (a_p^2 <= 4 p^(k-1)
as an exact integer check).  At a prime dividing the level the newform is of
multiplicative type, |a_p| = p^((k-2)/2) exactly (|lambda(p)| = p^(-1/2)); a
normalized table's lambda(p) there must round to such an integer a_p.

At good primes the eigenvalues at prime powers follow the three-term Hecke
recurrence

    lambda(p^(r+1)) = lambda(p) lambda(p^r) - lambda(p^(r-1)),

equivalently lambda(p^r) = U_r(lambda(p)/2) with U_r the degree-r Chebyshev
polynomial of the second kind; in particular

    lambda(p^2) = lambda(p)^2 - 1,
    lambda(p^4) = lambda(p)^4 - 3 lambda(p)^2 + 1,

which are also the p-th coefficients of the symmetric-square and
symmetric-fourth-power L-functions.  At primes exactly dividing a squarefree
level the Euler factor is linear, so lambda(p^r) = lambda(p)^r, and the
Atkin-Lehner sign at p is w_p = -a_p / p^((k-2)/2) (NewformCoeffs.atkin_lehner).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .primes import factorize, is_prime, nth_prime_bound, primes_up_to

# Normalised float tables may carry rounding in their last digit; exact
# integer tables are checked with no slack.
_FLOAT_BOUND_SLACK = 1e-9
# |a_p| <= _EXACT_SCREEN p^((k-1)/2), computed in binary64 (a few roundings,
# relative error below 1e-15), clears a_p^2 <= 4 p^(k-1) without squaring;
# Python ints decide above it.
_EXACT_SCREEN = 2.0 - 1e-9


def hecke_power_seq(lam_p, rmax: int, step: int = 1) -> list:
    """[c(p^0), ..., c(p^rmax)] at a good prime from the Hecke recurrence
    c(p^(r+1)) = c(p) c(p^r) - step c(p^(r-1)).

    step = 1 with the float lambda(p) gives the normalised eigenvalues
    lambda(p^r); step = p^(k-1) with the integer a_p of a weight-k form gives
    the unnormalised a(p^r) = lambda(p^r) p^(r(k-1)/2) in exact integers.
    lam_p may also be a float array, checked finite as a whole; each entry
    after c(p^0) = 1.0 is then an array of the per-element results, bit for
    bit (1 * x is exact).  The recurrence is used instead of the Chebyshev
    closed forms to avoid cancellation for lambda near +-2.
    """
    if rmax < 0:
        raise ValidationError(f"prime-power exponent must be >= 0, got {rmax}")
    if isinstance(lam_p, (int, np.integer)):
        c, one = int(lam_p), 1
    else:
        c, one = np.asarray(lam_p, dtype=np.float64), 1.0
        if not np.isfinite(c).all():
            raise ValidationError("eigenvalues must be finite")
        if c.ndim == 0:
            c = float(c)
    seq = [one, c]
    for _ in range(rmax - 1):
        seq.append(c * seq[-1] - step * seq[-2])
    return seq[: rmax + 1]


@dataclass(frozen=True, eq=False)
class NewformCoeffs:
    """Prime-indexed coefficient table of a newform of squarefree level:
    values[i] is a_p (an exact integer), or lambda(p) (finite binary64) when
    normalized, at p the i-th prime.  A table of n values holds the first n
    primes by construction: prime_array is that int64 column, from one sieve
    to nth_prime_bound(n), and pmax is its last entry.  A layer that needs
    the primes up to y slices the first require_cover(y) entries of
    prime_array, good, values and lam_array, and sieves nothing.  values is
    typed once, before the bound check reads it: float64 when normalized,
    else int64 while 16 pmax^(k-1) < 2^126 (so that p^((k-2)/2) and, for the
    f of a lift, |a_f(p)| + |a_g(p)| p^((k-2)/2) <= 4 p^((k-1)/2) fit too)
    and Python ints beyond, the one integer-width decision of the program.

    level_primes holds the level's primes, ascending, from its one
    factorization; good marks, in table order, the primes outside it, decided
    once when the table is built, so no layer divides the level (of any
    size).  Each level prime it holds is then checked to be of multiplicative
    type, and atkin_lehner reads the signs off it; integer_ap and lam_array
    are the one integer and the one float reading of lambda(p).  The Deligne
    bound is screened in one binary64 pass over the values; the scalar rule
    (_check_bound) decides the level primes and every good prime the screen
    does not clear, in exact integers for an exact table.
    """

    level: int
    weight: int
    values: np.ndarray = field(repr=False)
    normalized: bool = field(default=False, kw_only=True)
    pmax: int = field(init=False, default=0)
    level_primes: tuple = field(init=False, default=())
    prime_array: np.ndarray = field(init=False, default=None, repr=False)
    good: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        factors = factorize(self.level) if self.level >= 1 else None
        if factors is None or any(e > 1 for _, e in factors):
            raise ValidationError(f"level {self.level} is not squarefree")
        object.__setattr__(self, "level_primes", tuple(p for p, _ in factors))
        if self.weight < 2 or self.weight % 2 != 0:
            raise ValidationError(f"weight must be an even integer >= 2, got {self.weight}")
        n = len(self.values)
        prime_array = primes_up_to(nth_prime_bound(n))[:n]
        pmax = int(prime_array[-1]) if n else 0
        object.__setattr__(self, "pmax", pmax)
        object.__setattr__(self, "prime_array", prime_array)
        k = self.weight
        # lam_array divides a_p by p^((k-2)/2) sqrt(p) in binary64, and a normalized
        # table's a_p = lambda(p) p^((k-1)/2) is formed the same way: finite
        # while pmax^(k-1) < 2^2046; the bit-length test refuses a huge k unpowered
        if (k - 1) * (pmax.bit_length() - 1) >= 2046 or pmax ** (k - 1) >= 2**2046:
            raise ValidationError(f"weight {k} is too large for a table up to "
                                  f"p={pmax}: p^(k-1) must stay below 2^2046")
        good = np.isin(prime_array, self.level_primes, invert=True)
        object.__setattr__(self, "good", good)
        if self.normalized:
            dtype = np.float64
        else:
            dtype = np.int64 if 16 * pmax ** (k - 1) < 2**126 else object
        try:
            values = np.asarray(self.values, dtype=dtype)
        except OverflowError:  # an integer past that width, which breaks the bound
            values = np.array(self.values, dtype=object)
        object.__setattr__(self, "values", values)
        # one binary64 pass clears the good primes within the Deligne bound;
        # the scalar rule decides every other prime, in table order, and
        # names the first that breaks its bound
        try:
            mag = np.abs(values.astype(np.float64))
        except OverflowError:  # an a_p past binary64, which breaks the bound
            mag = np.full(n, np.inf)
        if self.normalized:
            cleared = mag <= 2.0 + _FLOAT_BOUND_SLACK
        else:
            cap = np.sqrt(prime_array, dtype=np.float64)
            if k > 2:
                cap *= prime_array.astype(np.float64) ** ((k - 2) // 2)
            cap *= _EXACT_SCREEN
            cleared = mag <= cap
        at = np.flatnonzero(~(good & cleared))
        for p, v, is_good in zip(prime_array[at].tolist(), values[at].tolist(), good[at].tolist()):
            self._check_bound(p, v, is_good)

    def _check_bound(self, p: int, v, good: bool) -> None:
        """The scalar rule at one prime: refuse v, the value at p, unless a
        level prime's a_p is of multiplicative type, or a good prime's value
        keeps the Deligne bound (exactly, in integers, for an exact table)."""
        k = self.weight
        if not good:
            a = self.integer_ap(p)
            if a is None or a * a != p ** (k - 2):
                raise ValidationError(f"bad-prime bound violated at p={p}: "
                                      f"need |a_p| = p^((k-2)/2), got {v!r}")
        elif self.normalized:
            # repeats the screen's test: this rule is the oracle the screen is tested against
            if not abs(v) <= 2.0 + _FLOAT_BOUND_SLACK:
                raise ValidationError(f"Deligne bound violated at p={p}: "
                                      f"need |lambda| <= 2, got {v!r}")
        elif v * v > 4 * p ** (k - 1):
            raise ValidationError(f"Deligne bound violated at p={p}: a_p={v}")

    def integer_ap(self, p: int) -> int | None:
        """The integer a_p = lambda(p) p^((k-1)/2) at the table prime p: the
        stored value, or the integer a normalized lambda(p) rounds to within
        decimal rounding; None if it is not finite or not that close to one."""
        v = self.values[int(np.searchsorted(self.prime_array, p))]
        if not self.normalized:
            return int(v)
        scaled = float(v) * math.sqrt(p) * p ** ((self.weight - 2) // 2)
        if not math.isfinite(scaled):
            return None
        a = round(scaled)
        return a if abs(scaled - a) <= 1e-3 * max(1, abs(a)) else None

    @cached_property
    def atkin_lehner(self) -> dict[int, int]:
        """The Atkin-Lehner sign w_p = -a_p / p^((k-2)/2) at every level
        prime, ascending; construction made |a_p| = p^((k-2)/2) there.
        Refuses a table that stops below a level prime."""
        out = {}
        for p in self.level_primes:
            if p > self.pmax:
                raise ValidationError(f"missing bad-prime coefficient at p={p}")
            out[p] = -self.integer_ap(p) // p ** ((self.weight - 2) // 2)
        return out

    @cached_property
    def lam_array(self) -> np.ndarray:
        """lambda(p) of every table prime, in table order: a normalized table's
        values, or a_p / (p^((k-2)/2) sqrt(p)) over values, in its dtype, with
        the roundings of the scalar a / (p**((k-2)//2) * math.sqrt(p)): int to
        binary64 (correctly rounded for int64 and Python ints alike), the
        correctly rounded sqrt, one multiply, one divide."""
        if self.normalized:
            return self.values
        a, ps = self.values, self.prime_array
        scale = ps.astype(a.dtype) ** ((self.weight - 2) // 2)
        return a.astype(np.float64) / (scale.astype(np.float64) * np.sqrt(ps.astype(np.float64)))

    def require_cover(self, y: int) -> int:
        """The number of table primes <= y, so that prime_array[:c] (and the
        same prefix of good, values and lam_array) are the primes <= y.

        Refuses a table that lacks a prime <= y: a table holds every prime
        up to pmax, so the first missing one is the first prime above
        pmax, found by stepping up from pmax + 1 with no sieve up to y."""
        q = self.pmax + 1
        while q <= y:
            if is_prime(q):
                raise ValidationError(f"coefficient table too short: missing p={q} "
                                      f"(needed up to {y})")
            q += 1
        return int(np.searchsorted(self.prime_array, y, side="right"))
