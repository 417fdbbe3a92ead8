"""Prime enumeration and small factorization utilities: an Eratosthenes
sieve, a bound on the n-th prime, Miller-Rabin primality, and factorization
by trial division up to a fixed limit."""

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
    theorem, strict there), else p_5 = 11.  The first n primes end at or
    below it, so the sieve of a table of n values reaches no further."""
    if n < 6:
        return 11
    return math.ceil(n * (math.log(n) + math.log(math.log(n))))


# the first 13 primes: as Miller-Rabin bases they decide primality for every
# n < 3317044064679887385961981 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality check on the bases _MR_BASES (scalars only;
    sieve for bulk work).

    Deterministic for n < 3.3e24.  Above that bound it is a strong
    probable-prime test: a composite passing all 13 bases would be reported
    prime.  No gap-free table reaches that far (its primes stay below
    nth_prime_bound of its row count), so for table rows a wrong answer there
    changes only which error rejects the table.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# factorize trial-divides no further than this
TRIAL_LIMIT = 2**20


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, exponent) pairs, ascending.

    Trial division stops at TRIAL_LIMIT; a cofactor left above it is kept as
    a prime only if is_prime accepts it, and otherwise n is refused with a
    ValidationError, so a huge level costs a bounded time.
    """
    if n < 1:
        raise ValidationError(f"cannot factorize {n}")
    out = []
    m = n
    p = 2
    while p * p <= m and p <= TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        if p * p <= m and not is_prime(m):
            raise ValidationError(f"cannot factorize {n}: the cofactor {m} has no prime "
                                  f"factor up to {TRIAL_LIMIT} and is not prime")
        out.append((m, 1))
    return out

