"""Prime enumeration and small factorization utilities: an Eratosthenes
sieve, a bound on the n-th prime, trial-division primality, factorization
and squarefree divisors."""

import math

import numpy as np

from .errors import ValidationError


def prime_sieve(n: int) -> np.ndarray:
    """Boolean array of length max(n + 1, 0) whose entry k is True iff k is prime."""
    is_p = np.ones(max(n + 1, 0), dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return is_p


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    return np.flatnonzero(prime_sieve(n)).astype(np.int64)


def nth_prime_bound(n: int) -> int:
    """An integer >= the n-th prime: n (ln n + ln ln n) for n >= 6 (Rosser's
    theorem, strict there), else p_5 = 11.  A gap-free table of n primes ends
    at or below it, so no sieve for such a table needs to reach further."""
    if n < 6:
        return 11
    return math.ceil(n * (math.log(n) + math.log(math.log(n))))


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

