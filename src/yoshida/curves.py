"""Weight-2 coefficient tables from point counting on elliptic curves.

A long Weierstrass curve y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with
integer coefficients yields a_p = p + 1 - #E(F_p) at good primes and
a_p = p - #E_ns(F_p) in {+1, -1} at multiplicative primes (the nonsingular
locus is a form of G_m there; a cusp gives #E_ns = p, i.e. a_p = 0, which is
rejected as additive reduction).  The reduction is singular exactly when p
divides the discriminant, and then it has exactly one singular point, which
is F_p-rational and affine (Silverman, AEC, Prop. III.1.4); so #E_ns is the
affine count plus the point at infinity less [p | disc], with no search.

At good primes p > MESTRE_MIN_P, #E(F_p) is found by Mestre's baby-step
giant-step method on the short model y^2 = x^3 + A x + B: each point found
gives the set of N in the Hasse interval with N P = O, on E or (mapped by
N -> 2p + 2 - N) on its quadratic twist, and the sets are intersected until a
single N survives.  The true #E(F_p) lies in every set, so the survivor is
exact; Mestre's theorem says one survives once enough points are tried.
Smaller primes, primes dividing the discriminant, and the rare prime where no
single N survives a fixed number of points are counted by a full enumeration
over x with a squares table for the y-count; p = 2, 3 enumerate all (x, y)
pairs directly since completing the square is not available there.

The level is the conductor, computed from the model: at p | disc the
reduction is multiplicative exactly when p does not divide c4 (Silverman,
AEC, Prop. VII.5.1, at every p), so a curve with gcd(disc, c4) = 1 has
conductor rad(disc) and any other is refused as additive (or non-minimal:
models should be globally minimal).  A declared level must equal it.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdditiveReductionError, ComputationError, ValidationError
from .hecke import NewformCoeffs
from .primes import factorize, is_prime, nth_prime_bound, prime_sieve, primes_up_to

# Mestre: for p > 229, E or its quadratic twist has a point whose order has a
# single multiple in the Hasse interval, so the candidate sets can shrink to one.
MESTRE_MIN_P = 229
# points tried before a prime falls back to the full count
MESTRE_MAX_POINTS = 40

@dataclass(frozen=True)
class WeierstrassCurve:
    """Integer long-Weierstrass coefficients [a1, a2, a3, a4, a6]."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    declared_level: int | None = None

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            if not isinstance(getattr(self, name), int):
                raise ValidationError(f"coefficient {name} must be an integer")
        if self.discriminant == 0:
            raise ValidationError("curve is singular (discriminant 0)")

    @classmethod
    def from_list(cls, ai, declared_level=None) -> "WeierstrassCurve":
        if len(ai) != 5:
            raise ValidationError(f"expected 5 coefficients a1,a2,a3,a4,a6, got {len(ai)}")
        return cls(*(int(a) for a in ai), declared_level=declared_level)

    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c_invariants(self) -> tuple[int, int]:
        b2, b4, b6, _ = self.b_invariants()
        return b2 * b2 - 24 * b4, -b2**3 + 36 * b2 * b4 - 216 * b6

    @cached_property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _count_affine_brute(curve: WeierstrassCurve, p: int) -> int:
    """#affine points by a full (x, y) double loop."""
    a1, a2, a3, a4, a6 = (a % p for a in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    naff = 0
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                naff += 1
    return naff


def _count_affine_fast(curve: WeierstrassCurve, p: int) -> int:
    """#affine points for odd p via a squares table.

    For each x the y-equation y^2 + h y = f (h = a1 x + a3) completes to
    (y + h/2)^2 = f + h^2/4, so the y-count is the number of square roots of
    f + h^2/4, read off a table built by enumerating all squares mod p.
    """
    a1, a2, a3, a4, a6 = (a % p for a in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    x = np.arange(p, dtype=np.int64)
    x2 = x * x % p
    f = (x2 * x + a2 * x2 + a4 * x + a6) % p
    h = (a1 * x + a3) % p
    inv4 = pow(4, -1, p)
    t = (f + h * h % p * inv4) % p
    sq_count = np.bincount(x2, minlength=p)
    return int(sq_count[t].sum())


def _ec_add(P, Q, a: int, p: int):
    """P + Q in affine coordinates on y^2 = x^3 + a x + b over F_p (b is not
    needed); None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P, a: int, p: int):
    """k P for k >= 0 by double-and-add."""
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, a, p)
        k >>= 1
        if k:
            P = _ec_add(P, P, a, p)
    return R


def _hasse_multiples(P, a: int, p: int, w: int) -> tuple[list[int], bool]:
    """(every N in [p+1-w, p+1+w] with N P = O, ascending; whether P has small
    order) for an affine point P with y != 0.

    Baby steps j P, 1 <= j <= m, are keyed by x-coordinate; giant steps
    (p + 1 + s (2m + 1)) P meet +-j P exactly when N = p + 1 + s (2m + 1) -+ j
    kills P.  If a baby step meets y = 0 (order 2j) or repeats an
    x-coordinate (the first repeat is j P = -i P, order i + j; O cannot come
    before either), the order o of P is known and the answer is every
    multiple of o.
    """
    lo, hi = p + 1 - w, p + 1 + w
    m = math.isqrt(w) + 1
    baby = {}
    last, R = None, P
    for j in range(1, m + 1):
        if R[1] == 0:
            order = 2 * j
        elif R[0] in baby:
            order = baby[R[0]][0] + j
        else:
            baby[R[0]] = (j, R[1])
            last, R = R, _ec_add(R, P, a, p)
            continue
        return list(range(-(-lo // order) * order, hi + 1, order)), True
    # no small order: P has order > 2m, so each N below is met exactly once
    step = 2 * m + 1
    G = _ec_add(last, R, a, p)  # m P + (m + 1) P
    S = (w + m) // step
    Q = _ec_mul(p + 1 - S * step, P, a, p)
    out = []
    for s in range(-S, S + 1):
        base = p + 1 + s * step
        if Q is None:
            out.append(base)
        else:
            hit = baby.get(Q[0])
            if hit is not None:
                j, y = hit
                out.append(base - j if Q[1] == y else base + j)
        Q = _ec_add(Q, G, a, p)
    return [N for N in out if lo <= N <= hi], False


def _short_model(curve: WeierstrassCurve, p: int) -> tuple[int, int]:
    """(A, B) mod p of y^2 = x^3 + A x + B, A = -27 c4, B = -54 c6: a model
    of the curve over F_p for p > 3."""
    c4, c6 = curve.c_invariants()
    return -27 * c4 % p, -54 * c6 % p


def _order_mestre(A: int, B: int, p: int, tally: Counter | None = None) -> int | None:
    """#E(F_p) of y^2 = x^3 + A x + B at a good prime p > 3, or None if no
    single candidate survives MESTRE_MAX_POINTS points.

    For x = 0, 1, 2, ... with r = x^3 + A x + B != 0, the point (x r, r^2)
    lies on Y^2 = X^3 + A r^2 X + B r^3, which is E when r is a square and
    the quadratic twist (#E' = 2p + 2 - #E) when it is not; no square root is
    ever taken.  tally, if given, counts the points used and how many of
    them lay on the twist or had small order.
    """
    w = math.isqrt(4 * p)  # floor(2 sqrt p): the Hasse interval is p + 1 +- w
    alive = None
    points = 0
    for x in range(p):
        r = (x * x * x + A * x + B) % p
        if r == 0:
            continue
        r2 = r * r % p
        twist = pow(r, (p - 1) // 2, p) != 1
        found, small = _hasse_multiples((x * r % p, r2), A * r2 % p, p, w)
        if twist:
            found = [2 * p + 2 - N for N in found]
        alive = set(found) if alive is None else alive & set(found)
        points += 1
        if tally is not None:
            tally.update(points=1, twist=twist, small_order=small)
        if len(alive) <= 1 or points == MESTRE_MAX_POINTS:
            break
    return alive.pop() if alive is not None and len(alive) == 1 else None


def count_ap(curve: WeierstrassCurve, p: int) -> int:
    """a_p by point counting: p + 1 - #E(F_p) at good p, p - #E_ns(F_p) at
    multiplicative p.  Raises ValidationError if p is not prime and
    AdditiveReductionError at a cusp."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    return _count_ap(curve, p)


def _count_ap(curve: WeierstrassCurve, p: int) -> int:
    """count_ap at a p already known to be prime."""
    good = curve.discriminant % p != 0
    n = _order_mestre(*_short_model(curve, p), p) if good and p > MESTRE_MIN_P else None
    if n is None:
        # nonsingular points: affine ones and O, less the one singular point if p | disc
        n = (_count_affine_brute if p <= 3 else _count_affine_fast)(curve, p) + good
    if good:
        a = p + 1 - n
        if a * a > 4 * p:
            raise ComputationError(f"Hasse bound violated at p={p}: a_p={a}")
        return a
    a = p - n
    if a == 0:
        raise AdditiveReductionError(p)
    if a not in (1, -1):
        raise ComputationError(f"inconsistent singular count at p={p}: a={a}")
    return a


def conductor(curve: WeierstrassCurve) -> int:
    """The product of the primes dividing the discriminant, which is the
    conductor when every one of them is multiplicative.  Raises
    AdditiveReductionError at the smallest prime dividing both the
    discriminant and c4 (additive reduction, or a model not minimal there)."""
    disc_primes = [p for p, _ in factorize(abs(curve.discriminant))]
    c4, _ = curve.c_invariants()
    for p in disc_primes:
        if c4 % p == 0:
            raise AdditiveReductionError(p)
    return math.prod(disc_primes)


def ap_table(curve: WeierstrassCurve, pmax: int) -> NewformCoeffs:
    """Exact a_p for every prime p <= pmax, as a weight-2 table at the
    conductor.  An additive curve, then a declared level other than the
    conductor, is refused before any prime is counted."""
    if pmax < 1:
        raise ValidationError(f"pmax must be >= 1, got {pmax}")
    level = conductor(curve)
    if curve.declared_level not in (None, level):
        raise ValidationError(f"declared level {curve.declared_level} contradicts the model: "
                              f"it must divide the discriminant {curve.discriminant} and share "
                              f"its prime factors; the conductor is {level}")
    coeffs = {p: _count_ap(curve, p) for p in primes_up_to(pmax).tolist()}
    return NewformCoeffs(level=level, weight=2, coeffs=coeffs, normalized=False)


# ---------------------------------------------------------------------------
# Coefficient file format: first line "# level=<int> weight=<int> [normalized]",
# then "<p> <value>" rows with primes strictly ascending; "#" starts a comment.
# ---------------------------------------------------------------------------

def load_coeffs(path) -> NewformCoeffs:
    """Read a coefficient file.

    All table invariants (squarefree level, Deligne bound, gap-free primes)
    are re-validated on load.  Parse errors carry 1-based line numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or not lines[0].startswith("#"):
        raise ValidationError(f"{path}: missing header line '# level=<int> weight=<int> [normalized]'")

    header = lines[0][1:].split()
    fields: dict[str, str] = {}
    flags: set[str] = set()
    for tok in header:
        if "=" in tok:
            k, _, v = tok.partition("=")
            fields[k] = v
        else:
            flags.add(tok)
    try:
        level = int(fields["level"])
        weight = int(fields["weight"])
    except KeyError as exc:
        raise ValidationError(f"{path}: missing header field {exc.args[0]!r} (line 1)") from None
    except ValueError:
        raise ValidationError(f"{path}: malformed header field (line 1)") from None
    normalized = "normalized" in flags

    coeffs: dict[int, int | float] = {}
    last_p = 0
    # one sieve to the largest prime a gap-free table of this many rows can
    # hold; a larger p (which NewformCoeffs rejects) is trial-divided
    sieve = prime_sieve(nth_prime_bound(len(lines)))
    for i, line in enumerate(lines[1:], start=2):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ValidationError(f"{path}: expected '<p> <value>' (line {i})")
        try:
            p = int(parts[0])
        except ValueError:
            raise ValidationError(f"{path}: bad prime {parts[0]!r} (line {i})") from None
        if not (sieve[p] if 0 <= p < len(sieve) else is_prime(p)):
            raise ValidationError(f"{path}: {p} is not prime (line {i})")
        if p <= last_p:
            raise ValidationError(f"{path}: primes not strictly ascending at p={p} (line {i})")
        last_p = p
        try:
            value = float(parts[1]) if normalized else int(parts[1])
        except ValueError:
            raise ValidationError(f"{path}: bad coefficient {parts[1]!r} (line {i})") from None
        coeffs[p] = value
    return NewformCoeffs(level=level, weight=weight, coeffs=coeffs, normalized=normalized)


def write_coeffs(nf: NewformCoeffs, path) -> None:
    """Write a table in the coefficient file format (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        flag = " normalized" if nf.normalized else ""
        fh.write(f"# level={nf.level} weight={nf.weight}{flag}\n")
        for p, v in nf.coeffs.items():
            fh.write(f"{p} {v!r}\n" if nf.normalized else f"{p} {v}\n")
