"""Arithmetic of normalised Hecke eigenvalues of elliptic newforms.

A newform of even weight k and squarefree level L has integer Fourier
coefficients a_p at primes.  The normalised eigenvalue is

    lambda(p) = a_p / p^((k-1)/2),

so the Deligne bound reads |lambda(p)| <= 2 at good primes (a_p^2 <= 4 p^(k-1)
as an exact integer check) and |lambda(p)| <= 1 at primes dividing the level.

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
Atkin-Lehner sign at p is w_p = -a_p / p^((k-2)/2).
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


def infer_atkin_lehner(a_p: int, p: int, k: int) -> int:
    """Atkin-Lehner sign w_p = -a_p / p^((k-2)/2) at a prime exactly dividing
    the (squarefree) level; in weight 2 this is just -a_p with a_p in {+-1}.

    Rejects a_p that is not of multiplicative type (zero or wrong magnitude),
    which signals a corrupted table in this setting.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if k < 2 or k % 2 != 0:
        raise ValidationError(f"weight must be an even integer >= 2, got {k}")
    scale = p ** ((k - 2) // 2)
    if a_p == 0 or abs(a_p) != scale:
        raise ValidationError(
            f"not multiplicative-type at p={p}: a_p={a_p}, expected |a_p|={scale}"
        )
    return -a_p // scale


@dataclass(frozen=True, eq=False)
class NewformCoeffs:
    """Prime-indexed coefficient table of a newform of squarefree level.

    coeffs maps p -> a_p (exact integers) when normalized is False, or
    p -> lambda(p) (finite binary64) when normalized is True.  Keys must be
    exactly the primes up to pmax (gap-free).  level_primes holds the level's
    primes, ascending, from its one factorization.  Exact tables are the
    authoritative representation wherever sign decisions matter; lam()
    derives the float normalisation on demand.
    """

    level: int
    weight: int
    coeffs: dict
    normalized: bool = False
    pmax: int = field(init=False, default=0)
    level_primes: tuple = field(init=False, default=())

    def __post_init__(self):
        factors = factorize(self.level) if self.level >= 1 else None
        if factors is None or any(e > 1 for _, e in factors):
            raise ValidationError(f"level {self.level} is not squarefree")
        object.__setattr__(self, "level_primes", tuple(p for p, _ in factors))
        if self.weight < 2 or self.weight % 2 != 0:
            raise ValidationError(f"weight must be an even integer >= 2, got {self.weight}")
        keys = list(self.coeffs.keys())
        if sorted(keys) != keys:
            raise ValidationError("table primes are not strictly ascending")
        pmax = int(keys[-1]) if keys else 0
        # a gap-free table of n primes ends at p_n <= limit: sieve no further
        limit = nth_prime_bound(len(keys))
        expected = primes_up_to(min(pmax, limit)).tolist()
        if keys != expected:
            expected_set = set(expected)
            bad = next((p for p in keys
                        if not (p in expected_set if p <= limit else is_prime(p))), None)
            if bad is not None:
                raise ValidationError(f"{bad} is not prime")
            key_set = set(keys)
            missing = next(p for p in expected if p not in key_set)
            raise ValidationError(f"prime table has a gap: missing p={missing}")
        object.__setattr__(self, "pmax", pmax)
        k = self.weight
        # lam() divides a_p by p^((k-2)/2) sqrt(p) in binary64, and a normalized
        # table's a_p = lambda(p) p^((k-1)/2) is formed the same way: finite
        # while pmax^(k-1) < 2^2046; the bit-length test refuses a huge k unpowered
        if (k - 1) * (pmax.bit_length() - 1) >= 2046 or pmax ** (k - 1) >= 2**2046:
            raise ValidationError(f"weight {k} is too large for a table up to "
                                  f"p={pmax}: p^(k-1) must stay below 2^2046")
        for p, v in self.coeffs.items():
            self._check_bound(p, v)

    def _check_bound(self, p: int, v) -> None:
        k = self.weight
        if self.level % p == 0:
            if self.normalized:
                if not abs(v) <= 1.0 + _FLOAT_BOUND_SLACK:
                    raise ValidationError(f"bad-prime bound violated at p={p}: "
                                          f"need |lambda| <= 1, got {v!r}")
            elif k == 2:
                if v not in (-1, 0, 1):
                    raise ValidationError(f"bad-prime coefficient at p={p} must be in {{-1,0,1}}, got {v}")
            elif v * v > p ** (k - 1):
                raise ValidationError(f"bad-prime bound violated at p={p}: a_p={v}")
        else:
            if self.normalized:
                if not abs(v) <= 2.0 + _FLOAT_BOUND_SLACK:
                    raise ValidationError(f"Deligne bound violated at p={p}: "
                                          f"need |lambda| <= 2, got {v!r}")
            elif v * v > 4 * p ** (k - 1):
                raise ValidationError(f"Deligne bound violated at p={p}: a_p={v}")

    @cached_property
    def prime_array(self) -> np.ndarray:
        """The table's primes as an int64 array (built on first use)."""
        return np.fromiter(self.coeffs, dtype=np.int64, count=len(self.coeffs))

    @cached_property
    def a_array(self) -> np.ndarray:
        """The exact a_p of every table prime, in table order; refuses
        normalized tables.

        int64 while 16 pmax^(k-1) < 2^126, so that p^((k-2)/2) and, for the
        f of a lift, |a_f(p)| + |a_g(p)| p^((k-2)/2) <= 4 p^((k-1)/2) fit as
        well; beyond that an object array of Python ints.  This is the one
        integer-width decision of the program.
        """
        if self.normalized:
            raise ValidationError("table holds normalised floats, exact a_p unavailable")
        dtype = np.int64 if 16 * self.pmax ** (self.weight - 1) < 2**126 else object
        return np.fromiter(self.coeffs.values(), dtype=dtype, count=len(self.coeffs))

    @cached_property
    def lam_array(self) -> np.ndarray:
        """lam(p) for every table prime, in table order, bit for bit.

        One formula over a_array, in its dtype, with lam()'s roundings: int to
        binary64 (correctly rounded for int64 and Python ints alike), the
        correctly rounded sqrt, one multiply, one divide.
        """
        if self.normalized:
            return np.fromiter(self.coeffs.values(), dtype=np.float64, count=len(self.coeffs))
        a, ps = self.a_array, self.prime_array
        scale = ps.astype(a.dtype) ** ((self.weight - 2) // 2)
        return a.astype(np.float64) / (scale.astype(np.float64) * np.sqrt(ps.astype(np.float64)))

    def lam(self, p: int) -> float:
        """Normalised eigenvalue lambda(p)."""
        v = self.coeffs[p]
        if self.normalized:
            return float(v)
        return v / (p ** ((self.weight - 2) // 2) * math.sqrt(p))

    def a_exact(self, p: int) -> int:
        """Exact integer a_p; refuses normalized-mode tables."""
        if self.normalized:
            raise ValidationError("table holds normalised floats, exact a_p unavailable")
        return self.coeffs[p]

    def first_missing_prime(self, y: int) -> int | None:
        """Smallest prime <= y absent from the table, or None if covered.

        A gap-free table holds every prime up to pmax, so this is the first
        prime above pmax, found by stepping up from pmax + 1."""
        q = self.pmax + 1
        while q <= y:
            if is_prime(q):
                return q
            q += 1
        return None

    def require_cover(self, y: int) -> None:
        q = self.first_missing_prime(y)
        if q is not None:
            raise ValidationError(f"coefficient table too short: missing p={q} (needed up to {y})")
