"""Independent slow oracles the benchmark checks the CLI's outputs against.

None of these import the program under test:

- ap_char_sum: a_p of a long Weierstrass curve by a character sum with the
  Legendre symbol from Euler's criterion;
- lift_values: lambda_F(n) for small n by Dirichlet convolution of the two
  normalised Hecke series and mu(c)/c at c^2;
- first_negative_exact: the first n with lambda_F(n) < 0 from the exact
  integers lambda_F(p^r) p^(r/2), expanded from the quartic denominator.
"""

import math


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def ap_char_sum(ai, p: int) -> int:
    """a_p = -sum_x chi(h(x)^2 + 4 f(x)) for odd p, where the curve reads
    y^2 + h(x) y = f(x).  At a node the singular point has chi = 0 and counts
    once, so the same sum gives p - #E_ns(F_p) at multiplicative primes."""
    a1, a2, a3, a4, a6 = ai
    half = (p - 1) // 2
    total = 0
    for x in range(p):
        h = a1 * x + a3
        t = (h * h + 4 * (x * x * x + a2 * x * x + a4 * x + a6)) % p
        if t:
            total += 1 if pow(t, half, p) == 1 else -1
    return -total


def _hecke_table(table: dict[int, int], N: int, xmax: int) -> list[float]:
    """lambda(n) for n <= xmax coprime to N (0 elsewhere), weight 2."""
    lam = [0.0] * (xmax + 1)
    lam[1] = 1.0
    for n in range(2, xmax + 1):
        if math.gcd(n, N) != 1:
            continue
        v = 1.0
        for p, e in factorize(n):
            lp = table[p] / math.sqrt(p)
            prev, cur = 1.0, lp
            for _ in range(e - 1):
                prev, cur = cur, lp * cur - prev
            v *= cur
        lam[n] = v
    return lam


def _mobius(n: int) -> int:
    fac = factorize(n)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


def lift_values(f: dict[int, int], g: dict[int, int], N: int, xmax: int) -> dict[int, float]:
    """{n: lambda_F(n)} for n <= xmax coprime to N."""
    lf = _hecke_table(f, N, xmax)
    lg = _hecke_table(g, N, xmax)
    conv = [0.0] * (xmax + 1)
    for a in range(1, xmax + 1):
        if lf[a]:
            for b in range(1, xmax // a + 1):
                conv[a * b] += lf[a] * lg[b]
    out = [0.0] * (xmax + 1)
    for c in range(1, math.isqrt(xmax) + 1):
        mu = _mobius(c)
        if mu and math.gcd(c, N) == 1:
            for m in range(1, xmax // (c * c) + 1):
                out[m * c * c] += mu / c * conv[m]
    return {n: out[n] for n in range(1, xmax + 1) if math.gcd(n, N) == 1}


def _scaled_prime_power(af: int, ag: int, p: int, r: int) -> int:
    """lambda_F(p^r) p^(r/2): the X^r coefficient of
    (1 - X^2) / ((1 - af X + p X^2)(1 - ag X + p X^2))."""
    s, m = af + ag, 2 * p + af * ag
    d = [1]
    for k in range(1, r + 1):
        v = s * d[k - 1]
        if k >= 2:
            v -= m * d[k - 2]
        if k >= 3:
            v += p * s * d[k - 3]
        if k >= 4:
            v -= p * p * d[k - 4]
        d.append(v)
    return d[r] - (d[r - 2] if r >= 2 else 0)


def first_negative_exact(f: dict[int, int], g: dict[int, int], N: int, xmax: int) -> int | None:
    """Smallest n <= xmax coprime to N with lambda_F(n) < 0, or None."""
    for n in range(2, xmax + 1):
        if math.gcd(n, N) != 1:
            continue
        sign = 1
        for p, e in factorize(n):
            v = _scaled_prime_power(f[p], g[p], p, e)
            if v == 0:
                sign = 0
                break
            if v < 0:
                sign = -sign
        if sign < 0:
            return n
    return None
