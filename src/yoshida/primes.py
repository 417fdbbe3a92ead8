"""Prime enumeration and small factorization utilities: an Eratosthenes
sieve, trial-division primality, factorization and squarefree divisors."""

import math

import numpy as np

from .errors import ValidationError


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    if n < 2:
        return np.array([], dtype=np.int64)
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def is_prime(n: int) -> bool:
    """Trial-division primality check (scalars only; sieve for bulk work)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, exponent) pairs, ascending."""
    if n < 1:
        raise ValidationError(f"cannot factorize {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for _, e in factorize(n))


def squarefree_divisors(n: int) -> list[int]:
    """All divisors of squarefree n (the full divisor lattice), ascending."""
    divs = [1]
    for p, _ in factorize(n):
        divs += [d * p for d in divs]
    return sorted(divs)

