"""Mestre's baby-step giant-step point count, batched over primes.

orders() finds #E(F_p) of the short model y^2 = x^3 + A x + B, A = -27 c4,
B = -54 c6, of a curve at many good primes p > 3 at once: one numpy lane per
prime, LANES lanes at a time (Kedlaya and Sutherland, ANTS VIII, 2008, batch
many primes the same way).  Each round takes one point per open lane, on E
or on its quadratic twist, and finds the set of N in the Hasse interval with
N P = O, mapped to #E by N -> 2p + 2 - N on the twist; the lane's sets are
intersected until a single N survives.  The true #E(F_p) lies in every set,
so the survivor is exact; Mestre's theorem says one survives once enough
points are tried, and about 95% of lanes close after one point.  Later
rounds run on the open lanes only.

The steps are projective, with every exceptional case of the group law (O,
P = Q, P = -Q) computed exactly, and each row of steps is made affine with
one Fermat inverse per lane (Montgomery, Math. Comp. 48, 1987).  Lanes are
int64 while every p < INT64_BELOW = ceil(sqrt(2^63)), so that two residues
multiply without overflow, and Python ints in object arrays beyond.

The counter is a module of its own, imported by curves only when it counts
points: run from source, an interpreter's peak memory grows with the code of
the largest module it compiles, and commands that count no points need not
compile this one.
"""

import math

import numpy as np

# points tried per prime before it is left to the full count
MAX_POINTS = 40
# primes counted side by side, one numpy lane each; it bounds the block's
# (steps x lanes) arrays: counting the 3195 good primes of 11a up to 3e4
# peaks at about 1.3 MB
LANES = 512
# two residues below p multiply within int64 while p < ceil(sqrt(2^63)); the
# lanes of a call with a larger prime hold Python ints in object arrays
INT64_BELOW = 3037000500


def _powmod(b, e, p):
    """b^e mod p in every lane (every e >= 1), by right-to-left square and multiply."""
    r, b = np.ones_like(p), b % p
    while True:
        r = np.where((e & 1) == 1, r * b % p, r)
        e = e >> 1
        if not (e > 0).any():
            return r
        b = b * b % p


def _dbl(P, a, p):
    """2 P in projective coordinates (X : Y : Z) on y^2 = x^3 + a x + b, lane
    by lane.  Z = 0 marks the point at infinity O, and every O made here has
    X = 0 too; a point of order 2 (Y = 0) and O itself both double to O."""
    X, Y, Z = P
    w = (a * (Z * Z % p) % p + 3 * (X * X % p)) % p
    s = Y * Z % p
    ss = s * s % p
    B = X * Y % p * s % p
    h = (w * w - 8 * B) % p
    return (h * s % p * 2 % p,
            (w * ((4 * B - h) % p) - Y * Y % p * ss % p * 8) % p,
            ss * s % p * 8 % p)


def _add(P, Q, a, p):
    """P + Q, lane by lane, for P projective (O allowed) and Q = (x, y) an
    affine point, exact for every input.  v = x Z_P - X_P is 0 exactly in the
    exceptional cases: P = O (whose X is 0), P = Q, where the general formula
    degenerates to (0 : 0 : 0), and P = -Q, where it gives O; the first two
    are replaced by Q and 2 P."""
    X1, Y1, Z1 = P
    x2, y2 = Q
    u = (y2 * Z1 - Y1) % p
    v = (x2 * Z1 - X1) % p
    vv = v * v % p
    vvv = vv * v % p
    r = vv * X1 % p
    A = (u * u % p * Z1 - vvv - 2 * r) % p
    out = (v * A % p, (u * ((r - A) % p) - vvv * Y1) % p, vvv * Z1 % p)
    odd = v == 0
    if odd.any():
        inf = odd & (Z1 == 0)
        same = odd & ~inf & (u == 0)
        out[0][inf], out[1][inf], out[2][inf] = x2[inf], y2[inf], 1
        if same.any():
            for c, d in zip(out, _dbl(tuple(c[same] for c in P), a[same], p[same])):
                c[same] = d
    return out


def _mul(k, T, a, p):
    """k P for every lane's k >= 1, t bits at a time from the top, where the
    rows of T = (x, y) are the affine j P, j = 1 .. 2^t - 1."""
    t = len(T[0]).bit_length()
    R = (np.zeros_like(p), np.ones_like(p), np.zeros_like(p))
    lane = np.arange(len(p))
    for shift in range((int(k.max()).bit_length() - 1) // t * t, -1, -t):
        for _ in range(t):
            R = _dbl(R, a, p)
        d = ((k >> shift) & ((1 << t) - 1)).astype(np.int64)
        S = _add(R, (T[0][d - 1, lane], T[1][d - 1, lane]), a, p)
        R = tuple(np.where(d > 0, s, r) for s, r in zip(S, R))
    return R


def _walk(R, Q, out, a, p):
    """Fill row i of out = (X, Y, Z), one column per lane, with R + i Q."""
    for i in range(out.shape[1]):
        if i:
            R = _add(R, Q, a, p)
        out[:, i] = R
    return out


def _affine(P, p):
    """Overwrite the rows of projective points P = (X, Y, Z), one column per
    lane, with their affine x in X and y in Y, and return the mask of O
    (where X and Y mean nothing).  One Fermat inverse per lane: Montgomery's
    simultaneous inversion of the lane's Z down its column."""
    X, Y, Z = P
    inf = Z == 0
    Z[inf] = 1
    zinv = np.empty_like(Z)
    acc = zinv[0] = Z[0]
    for k in range(1, len(Z)):
        acc = zinv[k] = acc * Z[k] % p  # Z[0] ... Z[k]
    inv = _powmod(acc, p - 2, p)
    for k in range(len(Z) - 1, 0, -1):
        zinv[k] = inv * zinv[k - 1] % p
        inv = inv * Z[k] % p
    zinv[0] = inv
    for c in (X, Y):
        c *= zinv
        c %= p
    return inf


def _round(x, A, B, p):
    """One point per lane on E: y^2 = x^3 + A x + B or its quadratic twist,
    and every N in the Hasse interval [p + 1 - w, p + 1 + w], w = floor(2
    sqrt p), with N P = O, mapped to #E.

    The point is (x r, r^2) on Y^2 = X^3 + A r^2 X + B r^3 for the lane's
    first x with r = x^3 + A x + B != 0: that curve is E when r is a square
    and the twist (#E' = 2 p + 2 - #E) when it is not.  Baby steps j P,
    1 <= j <= m = isqrt(w) + 1, are sorted by the key lane (pmax + 1) + x;
    giant steps (p + 1 + s (2m + 1)) P meet +-j P exactly when
    N = p + 1 + s (2m + 1) -+ j kills P, found by searching the keys.  If a
    baby step has y = 0 (order 2j) or repeats an x-coordinate (the first
    repeat is j P = -i P, order i + j; O cannot come before either), the
    order o of P is known and the answer is every multiple of o.  Returns
    (the x used, lane and N of every pair found, twist mask, small-order
    mask); a lane finds each N once.
    """
    while True:
        r = ((x * x % p + A) % p * x % p + B) % p
        zero = r == 0
        if not zero.any():
            break
        x = np.where(zero, x + 1, x)
    twist = _powmod(r, (p - 1) // 2, p) != 1
    r2 = r * r % p
    a = A * r2 % p
    P = (x * r % p, r2)
    w = np.array([math.isqrt(4 * q) for q in p.tolist()], dtype=p.dtype)
    m = np.array([math.isqrt(v) + 1 for v in w.tolist()], dtype=np.int64)
    step = 2 * m + 1
    S = ((w + m) // step).astype(np.int64)  # giant steps s = -S .. S cover the interval
    lo, hi = p + 1 - w, p + 1 + w
    L, M = len(p), int(m.max())
    lane = np.arange(L)

    baby = np.empty((3, M + 1, L), dtype=p.dtype)  # row j - 1: j P; row M: (2m + 1) P
    _walk((*P, np.ones_like(p)), P, baby[:, :M], a, p)
    baby[:, M] = _add(_dbl(baby[:, m - 1, lane], a, p), P, a, p)
    inf = _affine(baby, p)
    bx, by = baby[0, :M], baby[1, :M]
    ok = (np.arange(1, M + 1)[:, None] <= m) & ~inf[:M]
    width = int(p.max()) + 1
    # the other steps get distinct negative keys; equal keys stay in order of j
    keys = np.where(ok, lane.astype(p.dtype) * width + bx, -1 - np.arange(M * L).reshape(M, L))
    order = np.argsort(keys, axis=None, kind="stable")  # flat index (j - 1) L + lane
    keys = keys.ravel()[order]

    # small order: each lane's first event, y = 0 before a repeat at equal j;
    # with none, P has order > 2m, and (2m + 1) P = O means order 2m + 1
    y0 = np.flatnonzero(ok & (by == 0))
    rep = np.flatnonzero(keys[1:] == keys[:-1])
    ev = np.concatenate((y0, order[rep + 1]))
    ev_lane, ev_j = ev % L, ev // L + 1
    ev_order = np.concatenate((2 * ev_j[:len(y0)], order[rep] // L + 1 + ev_j[len(y0):]))
    o = np.lexsort((2 * ev_j + (np.arange(len(ev)) >= len(y0)), ev_lane))
    o = o[np.unique(ev_lane[o], return_index=True)[1]]
    small_order = np.where(inf[M], step, 0)
    small_order[ev_lane[o]] = ev_order[o]
    small = small_order > 0
    sl = np.flatnonzero(small)
    so = small_order[sl]
    start = -(-lo[sl] // so) * so
    count = ((hi[sl] - start) // so + 1).astype(np.int64)
    nth = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    found_lane = [np.repeat(sl, count)]
    found_N = [np.repeat(start, count) + nth * np.repeat(so, count)]

    # giant steps Q_s = (k + s (2m + 1)) P from k = p + 1 - S (2m + 1); lanes
    # of small order read none, and step by P instead of a G that may be O
    k = p + 1 - S * step
    t = (int(m.min()) + 1).bit_length() - 1  # 2^t - 1 <= m
    G = (np.where(small, P[0], baby[0, M]), np.where(small, P[1], baby[1, M]))
    giant = _walk(_mul(k, (bx[:2**t - 1], by[:2**t - 1]), a, p), G,
                  np.empty((3, 2 * int(S.max()) + 1, L), dtype=p.dtype), a, p)
    qinf = _affine(giant, p)
    s = np.arange(giant.shape[1])[:, None]
    base = k + s * step
    use = (s <= 2 * S) & ~small
    found_lane.append(np.broadcast_to(lane, use.shape)[use & qinf])
    found_N.append(base[use & qinf])
    look = use & ~qinf
    gl = np.broadcast_to(lane, look.shape)[look]
    gk = gl.astype(p.dtype) * width + giant[0][look]
    pos = np.minimum(np.searchsorted(keys, gk), len(keys) - 1)
    hit = keys[pos] == gk
    idx = order[pos[hit]]  # the baby step j P with the x-coordinate of Q_s
    j = idx // L + 1
    found_lane.append(gl[hit])
    found_N.append(base[look][hit] - np.where(giant[1][look][hit] == by.ravel()[idx], j, -j))

    fl, fN = np.concatenate(found_lane), np.concatenate(found_N)
    keep = (lo[fl] <= fN) & (fN <= hi[fl])
    fl, fN = fl[keep], fN[keep]
    return x, fl, np.where(twist[fl], 2 * p[fl] + 2 - fN, fN), twist, small


def orders(c4: int, c6: int, primes: list[int]) -> np.ndarray:
    """#E(F_p) at the given good primes p > 3 of a curve with invariants c4,
    c6, as an int64 array aligned with primes, holding 0 at a prime where no
    single candidate survives MAX_POINTS points.

    Each round takes one point per open lane, LANES lanes at a time, and
    intersects the lane's candidate set with the N it finds; a lane closes
    when one N is left.
    """
    if not primes:
        return np.zeros(0, dtype=np.int64)
    dtype = np.int64 if max(primes) < INT64_BELOW else object
    A, B = (np.fromiter((c % q for q in primes), dtype, len(primes)) for c in (-27 * c4, -54 * c6))
    p = np.array(primes, dtype=dtype)
    n = np.zeros_like(p)
    radix = 2 * int(p.max()) + 3  # > every N; candidates are keyed lane radix + N
    live, x, alive = np.arange(len(p)), np.zeros_like(p), None
    for _ in range(MAX_POINTS):
        xs, keys = [], []
        for i in range(0, len(live), LANES):
            b = live[i:i + LANES]
            xb, fl, fN, _, _ = _round(x[i:i + LANES], A[b], B[b], p[b])
            xs.append(xb)
            keys.append(b[fl].astype(p.dtype) * radix + fN)
        keys = np.concatenate(keys)
        alive = keys if alive is None else np.intersect1d(alive, keys, assume_unique=True)
        lanes = (alive // radix).astype(np.int64)
        count = np.bincount(lanes, minlength=len(p))
        single = count[lanes] == 1
        n[lanes[single]] = alive[single] % radix
        still = count[live] > 1
        live, x, alive = live[still], np.concatenate(xs)[still] + 1, alive[~single]
        if not live.size:
            break
    return n.astype(np.int64, copy=False)
