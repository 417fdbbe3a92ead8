import numpy as np
import pytest

from yoshida.primes import (
    factorize,
    is_prime,
    is_squarefree,
    nth_prime_bound,
    prime_sieve,
    primes_up_to,
    squarefree_divisors,
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
    assert is_squarefree(33) and not is_squarefree(12)
    assert squarefree_divisors(1) == [1]
    assert squarefree_divisors(6) == [1, 2, 3, 6]
    assert squarefree_divisors(33) == [1, 3, 11, 33]
