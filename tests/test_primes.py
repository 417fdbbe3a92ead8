import time

import numpy as np
import pytest

from yoshida.errors import ValidationError
from yoshida.primes import (
    factorize,
    is_prime,
    nth_prime_bound,
    prime_sieve,
    primes_up_to,
)


def trial_division_primes(n):
    """Independent oracle: trial division."""
    out = []
    for m in range(2, n + 1):
        if all(m % d for d in range(2, int(m**0.5) + 1)):
            out.append(m)
    return out


def test_sieve_matches_trial_division_up_to_1e4():
    assert primes_up_to(10**4).tolist() == trial_division_primes(10**4)


@pytest.mark.parametrize("n,expected", [(0, []), (1, []), (2, [2]), (10, [2, 3, 5, 7])])
def test_sieve_small(n, expected):
    assert primes_up_to(n).tolist() == expected


def test_is_prime_matches_sieve():
    flags = np.zeros(2001, dtype=bool)
    flags[primes_up_to(2000)] = True
    for n in range(2001):
        assert is_prime(n) == bool(flags[n])


def test_nth_prime_bound_holds_up_to_1e6():
    ps = primes_up_to(10**6).tolist()
    assert all(p <= nth_prime_bound(n) for n, p in enumerate(ps, start=1))
    assert nth_prime_bound(0) == 11 and nth_prime_bound(len(ps)) < 2 * ps[-1]


def test_prime_sieve_flags():
    assert prime_sieve(-1).tolist() == []
    assert prime_sieve(1).tolist() == [False, False]
    assert np.flatnonzero(prime_sieve(30)).tolist() == trial_division_primes(30)


def test_factorize_and_squarefree():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(33) == [(3, 1), (11, 1)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and to every prime base up to 37
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1) and is_prime(2**89 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    # above the deterministic bound the test still sees a Mersenne prime
    assert is_prime(2**127 - 1) and not is_prime(2**127 + 1)


def test_is_prime_matches_sieve_in_a_window():
    lo = 10**6
    flags = prime_sieve(lo + 5000)
    assert [n for n in range(lo, lo + 5001) if is_prime(n)] == (np.flatnonzero(flags[lo:]) + lo).tolist()


def test_factorize_bounded_trial_division():
    P = 10**18 + 3
    t0 = time.perf_counter()
    assert factorize(P) == [(P, 1)]
    assert factorize(6 * P) == [(2, 1), (3, 1), (P, 1)]
    assert factorize(1000003 * 1048583) == [(1000003, 1), (1048583, 1)]
    # no factor up to the limit and not prime: refused instead of trial-divided to 1e9
    for n in ((10**9 + 7) * (10**9 + 9), 1048583**2):
        with pytest.raises(ValidationError, match="cannot factorize"):
            factorize(n)
    assert time.perf_counter() - t0 < 2.0
    # two primes below the limit of 2^20 are both found by trial division
    assert factorize(1048573 * 1048571) == [(1048571, 1), (1048573, 1)]
