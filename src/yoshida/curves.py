"""Weight-2 coefficient tables from point counting on elliptic curves.

A long Weierstrass curve y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with
integer coefficients yields a_p = p + 1 - #E(F_p) at good primes and
a_p = p - #E_ns(F_p) in {+1, -1} at multiplicative primes (the nonsingular
locus is a form of G_m there).  The reduction is singular exactly when p
divides the discriminant, and then it has exactly one singular point, which
is F_p-rational and affine (Silverman, AEC, Prop. III.1.4).  So a_p is
p - #affine points at every prime: at a good p the point at infinity adds one
point, and at p | disc the singular point takes it away again.

At good primes p > MESTRE_MIN_P, #E(F_p) is found by Mestre's baby-step
giant-step method (yoshida.mestre), for all such primes of a table at once,
one numpy lane per prime; mestre.orders returns the counts aligned with the
primes, and a_p = p + 1 - #E(F_p) is one array operation over them.  Points
of E and of its quadratic twist cut the Hasse interval down to the one
possible #E(F_p), so the count is exact.  In one process (2-core machine,
Python 3.11.7, numpy 2.4.6), a table of 11a takes about 0.07 s at
pmax = 3e4, 0.2 s at 1e5 and 2 s at 1e6 (1.8-2.4 s over six runs).
Smaller primes, primes dividing the discriminant, and the rare prime where no
single N survives mestre.MAX_POINTS points are counted by a full enumeration
over x with a squares table for the y-count, at every odd p (completing the
square needs 2 invertible); p = 2 alone enumerates all (x, y) pairs.

The counter only counts.  The table it fills is the one check of each count:
NewformCoeffs refuses a_p^2 > 4p at a good prime and |a_p| != 1 at a prime of
the level, here rad(disc), and ap_table reports that as a ComputationError
naming the prime.

The level is the conductor, computed from the model: at p | disc the
reduction is multiplicative exactly when p does not divide c4 (Silverman,
AEC, Prop. VII.5.1, at every p), so a curve with gcd(disc, c4) = 1 has
conductor rad(disc) and any other is refused as additive (or non-minimal:
models should be globally minimal).  A declared level must equal it.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdditiveReductionError, ComputationError, ValidationError
from .hecke import NewformCoeffs
from .primes import factorize, is_prime, nth_prime_bound, prime_sieve, primes_up_to

# Mestre: for p > 229, E or its quadratic twist has a point whose order has a
# single multiple in the Hasse interval, so the candidate sets can shrink to one.
MESTRE_MIN_P = 229

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
    """#affine points by a full (x, y) double loop; used at p = 2 only."""
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


def _ap_values(curve: WeierstrassCurve, primes) -> np.ndarray:
    """a_p at the given primes, as an int64 array aligned with them: p + 1 - N
    from Mestre's N = #E(F_p) at the good p > MESTRE_MIN_P, and p - #affine
    points at every other p and where Mestre gives up (N = 0).  Unchecked:
    the table ap_table builds from them is their one check."""
    # imported here, so that a process which counts no points never compiles it
    from . import mestre

    ps = np.asarray(primes, dtype=np.int64)
    disc = curve.discriminant
    lane = np.array([p > MESTRE_MIN_P and disc % p != 0 for p in ps.tolist()], dtype=bool)
    n = np.zeros_like(ps)
    n[lane] = mestre.orders(*curve.c_invariants(), ps[lane].tolist())
    a = ps + 1 - n
    for i in np.flatnonzero(n == 0).tolist():
        p = int(ps[i])
        a[i] = p - (_count_affine_brute if p == 2 else _count_affine_fast)(curve, p)
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
    a = _ap_values(curve, primes_up_to(pmax))
    try:
        return NewformCoeffs(level, 2, a)
    except ValidationError as exc:  # a count its own table refuses is a counter fault
        raise ComputationError(f"point count refused by the table: {exc}") from None


# ---------------------------------------------------------------------------
# Coefficient file format: first line "# level=<int> weight=<int> [normalized]",
# then "<p> <value>" rows with primes strictly ascending; "#" starts a comment.
# ---------------------------------------------------------------------------

def load_coeffs(path) -> NewformCoeffs:
    """Read a coefficient file.

    numpy's text reader parses every row in one call, and the table built
    from its value column is returned when it accepts the values and the
    file's prime column is its own, the first n primes.  Any other file is
    read again by _rows_by_line, the row-at-a-time reader that names the
    first bad line (a gap by the row that skips a prime), so a refusal
    carries the same message, with its 1-based line number, whichever reader
    ran first.  All table invariants (squarefree level, Deligne bound,
    gap-free primes) are re-validated on load.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_lines = _line_count(path, fh)
        fh.seek(0)
        level, weight, normalized = _parse_header(path, fh.readline())
        columns = _rows_by_numpy(fh, normalized)
        if columns is not None:
            try:
                nf = NewformCoeffs(level, weight, columns[1], normalized=normalized)
                if np.array_equal(columns[0], nf.prime_array):
                    return nf
            except ValidationError:
                pass  # the row loop names the first bad line, or the table refuses again below
        fh.seek(0)
        fh.readline()
        values = _rows_by_line(path, fh, normalized, n_lines)
    return NewformCoeffs(level, weight, values, normalized=normalized)


def _line_count(path, fh) -> int:
    """The number of lines of the file, read in blocks, so that a file that
    is not UTF-8 is refused before its header or any row is read."""
    try:
        return sum(block.count("\n") for block in iter(lambda: fh.read(1 << 16), "")) + 1
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (cannot decode byte "
                              f"{exc.object[exc.start]:#04x})") from None


def _parse_header(path, first: str) -> tuple[int, int, bool]:
    """level, weight and the normalized flag from the first line."""
    if not first.startswith("#"):
        raise ValidationError(f"{path}: missing header line '# level=<int> weight=<int> [normalized]'")
    fields: dict[str, str] = {}
    flags: set[str] = set()
    for tok in first[1:].split():
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
    return level, weight, "normalized" in flags


def _rows_by_numpy(fh, normalized: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The prime and value columns from one numpy.loadtxt call over the rest
    of the file, or None when the reader refuses a row or warns.  The prime
    column is int64 in every table, the value column int64 or float64.
    Where the reader takes a field it reads the value int() or float() reads;
    it refuses what int() alone takes (1_0, non-ASCII digits) and integers
    past int64, so those files fall to the row loop."""
    dtype = np.dtype([("p", np.int64), ("v", np.float64 if normalized else np.int64)])
    try:
        with warnings.catch_warnings():
            # an empty body, or a numpy version's deprecation, refuses the rows
            warnings.simplefilter("error")
            rows = np.loadtxt(fh, dtype=dtype, comments="#", ndmin=1)
    except (ValueError, Warning):
        return None
    # each column contiguous, so that the table keeps its values and not the rows
    return rows["p"].copy(), rows["v"].copy()


def _rows_by_line(path, fh, normalized: bool, n_lines: int) -> list:
    """The values read a row at a time from line 2 on, naming the first bad
    line: a row that is not two fields, a prime int() cannot read or that is
    not prime or not above the one before, or a value int() (float() in a
    normalized table) cannot read; then the first row that skips a prime.
    Reads integers of any size, as a list."""
    values = []
    last_p, gap = 0, None
    # one sieve to the largest prime a gap-free table of this many rows can
    # hold; a larger p (which leaves a gap) is tested by is_prime
    sieve = prime_sieve(nth_prime_bound(n_lines))
    expected = np.flatnonzero(sieve).tolist()
    for i, line in enumerate(fh, start=2):
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
        if gap is None and p != expected[len(values)]:
            gap = f"{path}: prime table has a gap: missing p={expected[len(values)]} (line {i})"
        last_p = p
        try:
            value = float(parts[1]) if normalized else int(parts[1])
        except ValueError:
            raise ValidationError(f"{path}: bad coefficient {parts[1]!r} (line {i})") from None
        values.append(value)
    if gap is not None:
        raise ValidationError(gap)
    return values


def write_coeffs(nf: NewformCoeffs, path) -> None:
    """Write a table in the coefficient file format (UTF-8, LF), 2^14 rows
    a write call, as the lift CSV is written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        flag = " normalized" if nf.normalized else ""
        fh.write(f"# level={nf.level} weight={nf.weight}{flag}\n")
        for i in range(0, nf.values.size, 2**14):
            block = slice(i, i + 2**14)
            rows = zip(nf.prime_array[block].tolist(), nf.values[block].tolist())
            fh.write("".join(f"{p} {v!r}\n" if nf.normalized else f"{p} {v}\n" for p, v in rows))
