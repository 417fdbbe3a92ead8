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

import numpy as np

from .errors import ValidationError
from .primes import factorize, is_prime, is_squarefree, nth_prime_bound, primes_up_to

# Normalised float tables may carry rounding in their last digit; exact
# integer tables are checked with no slack.
_FLOAT_BOUND_SLACK = 1e-9


def normalize_coeff(a_p: int, p: int, k: int) -> float:
    """a_p / p^((k-1)/2): the analytic normalisation in which the functional
    equation relates s and 1-s.  For k = 2 this is a_p / sqrt(p)."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if k < 2 or k % 2 != 0:
        raise ValidationError(f"weight must be an even integer >= 2, got {k}")
    return a_p / (p ** ((k - 2) // 2) * math.sqrt(p))


def hecke_power(lam_p: float, r: int) -> float:
    """lambda(p^r) at a good prime via the three-term Hecke recurrence.

    The recurrence is used instead of the Chebyshev closed forms to avoid
    cancellation for lambda near +-2.
    """
    return hecke_power_seq(lam_p, r)[r]


def hecke_power_seq(lam_p, rmax: int, step: int = 1) -> list:
    """[c(p^0), ..., c(p^rmax)] at a good prime from the Hecke recurrence
    c(p^(r+1)) = c(p) c(p^r) - step c(p^(r-1)).

    step = 1 with the float lambda(p) gives the normalised eigenvalues
    lambda(p^r); step = p^(k-1) with the integer a_p of a weight-k form gives
    the unnormalised a(p^r) = lambda(p^r) p^(r(k-1)/2) in exact integers.
    """
    if rmax < 0:
        raise ValidationError(f"prime-power exponent must be >= 0, got {rmax}")
    if isinstance(lam_p, (int, np.integer)):
        c, one = int(lam_p), 1
    elif math.isfinite(lam_p):
        c, one = float(lam_p), 1.0
    else:
        raise ValidationError(f"eigenvalue must be finite, got {lam_p!r}")
    seq = [one, c]
    for _ in range(rmax - 1):
        seq.append(c * seq[-1] - step * seq[-2])
    return seq[: rmax + 1]


def hecke_power_bad(lam_p: float, r: int) -> float:
    """lambda(p^r) = lambda(p)^r at a prime exactly dividing a squarefree
    level (the Euler factor (1 - lambda(p) p^-s)^-1 has no quadratic term)."""
    if r < 0:
        raise ValidationError(f"prime-power exponent must be >= 0, got {r}")
    if not math.isfinite(lam_p):
        raise ValidationError(f"eigenvalue must be finite, got {lam_p!r}")
    return float(lam_p) ** r


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
    p -> lambda(p) (binary64) when normalized is True.  Keys must be exactly
    the primes up to pmax (gap-free).  Exact tables are the authoritative
    representation wherever sign decisions matter; lam() derives the float
    normalisation on demand.
    """

    level: int
    weight: int
    coeffs: dict
    normalized: bool = False
    pmax: int = field(init=False, default=0)

    def __post_init__(self):
        if self.level < 1 or not is_squarefree(self.level):
            raise ValidationError(f"level {self.level} is not squarefree")
        if self.weight < 2 or self.weight % 2 != 0:
            raise ValidationError(f"weight must be an even integer >= 2, got {self.weight}")
        keys = list(self.coeffs.keys())
        if sorted(keys) != keys:
            raise ValidationError("table primes are not strictly ascending")
        pmax = keys[-1] if keys else 0
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
        for p, v in self.coeffs.items():
            self._check_bound(p, v)

    def _check_bound(self, p: int, v) -> None:
        k = self.weight
        if self.level % p == 0:
            if self.normalized:
                if abs(v) > 1.0 + _FLOAT_BOUND_SLACK:
                    raise ValidationError(f"bad-prime bound violated at p={p}: |{v!r}| > 1")
            elif k == 2:
                if v not in (-1, 0, 1):
                    raise ValidationError(f"bad-prime coefficient at p={p} must be in {{-1,0,1}}, got {v}")
            elif v * v > p ** (k - 1):
                raise ValidationError(f"bad-prime bound violated at p={p}: a_p={v}")
        else:
            if self.normalized:
                if abs(v) > 2.0 + _FLOAT_BOUND_SLACK:
                    raise ValidationError(f"Deligne bound violated at p={p}: |{v!r}| > 2")
            elif v * v > 4 * p ** (k - 1):
                raise ValidationError(f"Deligne bound violated at p={p}: a_p={v}")

    def primes(self) -> list[int]:
        return list(self.coeffs.keys())

    def level_primes(self) -> list[int]:
        return [p for p, _ in factorize(self.level)]

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
        """Smallest prime <= y absent from the table, or None if covered."""
        if y <= self.pmax:
            return None
        for q in primes_up_to(y).tolist():
            if q > self.pmax:
                return q
        return None

    def require_cover(self, y: int) -> None:
        q = self.first_missing_prime(y)
        if q is not None:
            raise ValidationError(f"coefficient table too short: missing p={q} (needed up to {y})")
