"""Weight-2 coefficient tables from point counting on elliptic curves.

A long Weierstrass curve y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with
integer coefficients yields a_p = p + 1 - #E(F_p) at good primes and
a_p = p - #E_ns(F_p) in {+1, -1} at multiplicative primes (the nonsingular
locus is a form of G_m there; a cusp gives #E_ns = p, i.e. a_p = 0, which is
rejected as additive reduction).  Counting is a full enumeration over x with
a squares table for the y-count; p = 2, 3 enumerate all (x, y) pairs
directly since completing the square is not available there.

Conductors are never computed: the user declares the level (validated for
squarefreeness), or |disc| is used with a warning.  Models should be
globally minimal; a non-minimal model shows up as spurious additive
reduction and is rejected.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdditiveReductionError, ComputationError, ValidationError
from .hecke import NewformCoeffs
from .primes import is_prime, primes_up_to


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
        if self.declared_level is not None and self.declared_level < 1:
            raise ValidationError("declared level must be positive")
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

    @cached_property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _count_affine_brute(curve: WeierstrassCurve, p: int) -> tuple[int, int]:
    """(#affine points, #affine singular points) by a full (x, y) double loop."""
    a1, a2, a3, a4, a6 = (a % p for a in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    naff = 0
    nsing = 0
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                naff += 1
                fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % p
                fy = (2 * y + a1 * x + a3) % p
                if fx == 0 and fy == 0:
                    nsing += 1
    return naff, nsing


def _count_affine_fast(curve: WeierstrassCurve, p: int) -> tuple[int, int]:
    """(#affine, #affine singular) for odd p via a squares table.

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
    naff = int(sq_count[t].sum())

    nsing = 0
    if curve.discriminant % p == 0:
        inv2 = pow(2, -1, p)
        ys = (-h * inv2) % p
        on_curve = (ys * ys + a1 * x % p * ys + a3 * ys - f) % p == 0
        fx_zero = (a1 * ys - (3 * x2 + 2 * a2 * x + a4)) % p == 0
        nsing = int(np.count_nonzero(on_curve & fx_zero))
    return naff, nsing


def count_ap(curve: WeierstrassCurve, p: int) -> int:
    """a_p by point counting: p + 1 - #E(F_p) at good p, p - #E_ns(F_p) at
    multiplicative p.  Raises AdditiveReductionError at a cusp."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if p <= 3:
        naff, nsing = _count_affine_brute(curve, p)
    else:
        naff, nsing = _count_affine_fast(curve, p)
    if curve.discriminant % p != 0:
        a = p - naff  # p + 1 - (naff + point at infinity)
        if a * a > 4 * p:
            raise ComputationError(f"Hasse bound violated at p={p}: a_p={a}")
        return a
    # singular reduction; the unique singular point is F_p-rational
    a = p - (naff - nsing + 1)
    if a == 0:
        raise AdditiveReductionError(p)
    if a not in (1, -1):
        raise ComputationError(f"inconsistent singular count at p={p}: a={a}")
    return a


def ap_table(curve: WeierstrassCurve, pmax: int, threads: int = 1) -> NewformCoeffs:
    """Exact a_p for every prime p <= pmax, as a weight-2 table.

    Level is the declared level when given, else |discriminant| with a
    warning.  The prime range may be partitioned across threads; results are
    exact integers, so the merged table is independent of the partitioning.
    """
    if pmax < 1:
        raise ValidationError(f"pmax must be >= 1, got {pmax}")
    ps = primes_up_to(pmax).tolist()
    if threads > 1 and len(ps) > 64:
        chunks = [ps[i::threads] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda ch: [(p, count_ap(curve, p)) for p in ch], chunks))
        pairs = sorted(pair for part in parts for pair in part)
    else:
        pairs = [(p, count_ap(curve, p)) for p in ps]
    level = curve.declared_level
    if level is None:
        level = abs(curve.discriminant)
        warnings.warn(
            f"no declared level; using |discriminant| = {level} (conductor not computed)",
            stacklevel=2,
        )
    return NewformCoeffs(level=level, weight=2, coeffs=dict(pairs), normalized=False)


# ---------------------------------------------------------------------------
# Coefficient file format: first line "# level=<int> weight=<int> [normalized]",
# then "<p> <value>" rows with primes strictly ascending; "#" starts a comment.
# ---------------------------------------------------------------------------

def load_coeffs(path, *, level: int | None = None, weight: int | None = None,
                normalized: bool | None = None) -> NewformCoeffs:
    """Read a coefficient file; keyword options override header fields.

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
        if level is None:
            level = int(fields["level"])
        if weight is None:
            weight = int(fields["weight"])
    except KeyError as exc:
        raise ValidationError(f"{path}: missing header field {exc.args[0]!r} (line 1)") from None
    except ValueError:
        raise ValidationError(f"{path}: malformed header field (line 1)") from None
    if normalized is None:
        normalized = "normalized" in flags

    coeffs: dict[int, int | float] = {}
    last_p = 0
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
        if not is_prime(p):
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
