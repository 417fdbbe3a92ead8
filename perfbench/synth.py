"""Seeded synthetic weight-2 coefficient tables for the synthetic-scan workload.

Two integer tables, levels 11 and 33, cover every prime up to pmax:

- at good primes a_p = round(sqrt(p) * t) with t the trace of a Haar-random
  SU(2) matrix (so a_p / sqrt(p) follows Sato-Tate), clamped into the Hasse
  interval a_p^2 <= 4p;
- at bad primes a_p = +-1.  Both tables carry the same a_11, so the
  Atkin-Lehner signs w_11 = -a_11 agree and the pair is a valid lift input.

The tables are written in the CLI's documented coefficient format.  The
generator uses its own sieve, so it does not depend on the program under test.
"""

import math

import numpy as np

LEVELS = (11, 33)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n (Eratosthenes)."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def generate(seed: int, pmax: int) -> dict[int, dict[int, int]]:
    """{level: {p: a_p}} for levels 11 and 33, deterministic in seed."""
    rng = np.random.default_rng(seed)
    ps = primes_up_to(pmax)
    root_p = np.sqrt(np.array(ps, dtype=float))
    cap = np.array([math.isqrt(4 * p) for p in ps])
    a_11 = int(rng.choice((-1, 1)))
    bad = {11: {11: a_11}, 33: {3: int(rng.choice((-1, 1))), 11: a_11}}
    tables = {}
    for level in LEVELS:
        x = rng.standard_normal((len(ps), 4))
        t = 2.0 * x[:, 0] / np.linalg.norm(x, axis=1)
        a = np.clip(np.rint(root_p * t).astype(np.int64), -cap, cap).tolist()
        table = dict(zip(ps, a))
        for p, v in bad[level].items():
            if p in table:
                table[p] = v
        tables[level] = table
    return tables


def write_table(path, level: int, table: dict[int, int]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# level={level} weight=2\n")
        fh.write("".join(f"{p} {v}\n" for p, v in table.items()))
