import gc
import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from yoshida import curves, mestre, primes
from yoshida.cli import run
from yoshida.curves import WeierstrassCurve, ap_table, load_coeffs, write_coeffs
from yoshida.errors import AdditiveReductionError, ComputationError, ValidationError
from yoshida.hecke import NewformCoeffs
from yoshida.primes import nth_prime_bound, primes_up_to
from tests.conftest import CURVE_11A, CURVE_33A, count_ap, rows, table


def ap_character_sum(curve, p):
    """Independent oracle for good odd p > 3: short-Weierstrass transform
    y^2 = x^3 - 27 c4 x - 54 c6, then a_p = -sum_x chi(x^3 + A x + B) with the
    Legendre symbol computed by Euler's criterion."""
    b2, b4, b6, _ = curve.b_invariants()
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    A = (-27 * c4) % p
    B = (-54 * c6) % p

    def chi(t):
        t %= p
        if t == 0:
            return 0
        e = pow(t, (p - 1) // 2, p)
        return 1 if e == 1 else -1

    return -sum(chi(x * x * x + A * x + B) for x in range(p))


def test_discriminant_examples():
    assert CURVE_11A.discriminant == -11
    assert WeierstrassCurve(0, 0, 1, -1, 0).discriminant == 37
    assert CURVE_33A.discriminant == 3**6 * 11**2


def test_singular_curve_rejected():
    with pytest.raises(ValidationError, match="singular"):
        WeierstrassCurve(0, 0, 0, 0, 0)


def test_discriminant_wide_integers():
    # coefficients near 2^32 must not overflow anywhere
    c = WeierstrassCurve(2**32, -(2**32), 2**32, -(2**32), 2**32)
    d = c.discriminant
    assert isinstance(d, int) and d != 0


def test_count_ap_examples():
    assert count_ap(CURVE_11A, 2) == -2
    assert count_ap(CURVE_11A, 3) == -1
    assert count_ap(CURVE_11A, 5) == 1


def test_count_ap_brute_vs_fast_small():
    # the p<=3 brute path and the squares-table path must agree where both run
    for curve in (CURVE_11A, CURVE_33A, WeierstrassCurve(0, 0, 1, -1, 0)):
        for p in (5, 7, 13):
            from yoshida.curves import _count_affine_brute, _count_affine_fast
            assert _count_affine_brute(curve, p) == _count_affine_fast(curve, p)


def test_squares_table_at_p3_matches_brute_force():
    # completing the square needs only 2 invertible: every class of curves
    # mod 3 (coefficients in {0, 1, 2}), singular reductions included
    nonsingular = 0
    for ai in itertools.product(range(3), repeat=5):
        try:
            c = WeierstrassCurve(*ai)
        except ValidationError:  # discriminant 0
            continue
        nonsingular += 1
        assert curves._count_affine_fast(c, 3) == curves._count_affine_brute(c, 3), ai
    assert nonsingular == 230


def test_count_ap_character_sum_oracle():
    # dual-route check for 3 < p <= 50 at good primes
    for curve in (CURVE_11A, CURVE_33A, WeierstrassCurve(0, 0, 1, -1, 0)):
        d = curve.discriminant
        for p in primes_up_to(50).tolist():
            if p <= 3 or d % p == 0:
                continue
            assert count_ap(curve, p) == ap_character_sum(curve, p), (curve, p)


def test_multiplicative_primes():
    assert count_ap(CURVE_11A, 11) == 1
    assert count_ap(CURVE_33A, 3) == -1
    assert count_ap(CURVE_33A, 11) == 1


def test_hasse_bound_up_to_1e4(table_11a):
    for p, a in rows(table_11a).items():
        if 11 % p != 0:
            assert a * a <= 4 * p


# Mestre's method against the O(p) counter: 11a, 33a, 37a, and two curves with
# large rational torsion (y^2 = x^3 - x and 15a1 [1,1,1,-10,-10]), whose points
# often have small order and whose twists are often needed.
ORACLE_CURVES = (CURVE_11A, CURVE_33A, WeierstrassCurve(0, 0, 1, -1, 0),
                 WeierstrassCurve(0, 0, 0, -1, 0), WeierstrassCurve(1, 1, 1, -10, -10))


def _good_primes(curve, pmax):
    return [p for p in primes_up_to(pmax).tolist() if curve.discriminant % p != 0]


def test_mestre_tables_match_full_count_up_to_1e4(monkeypatch):
    # one batched call per curve (the path of ap_table and count_ap); y^2 = x^3 - x
    # is additive at 2, so ap_table would refuse it
    fast = {c: curves._ap_values(c, _good_primes(c, 10**4)) for c in ORACLE_CURVES}
    monkeypatch.setattr(curves, "MESTRE_MIN_P", 10**9)  # every prime takes the O(p) path
    for c in ORACLE_CURVES:
        assert np.array_equal(fast[c], curves._ap_values(c, _good_primes(c, 10**4))), c


# SHA-256 of the ap tables as written by write_coeffs, frozen from the
# per-prime counter these tables were first made with
AP_DIGESTS = {
    (CURVE_11A, 10**4): "0f6eac0b1ccee37c024da75df705fe716f50a1ca9da8e64182c72b67f5e51f42",
    (CURVE_11A, 3 * 10**4): "5313b6b04f85b77e1a0f913bef55bf584f40808a9ad9c2cf292be89caa048349",
    (CURVE_33A, 10**4): "1c7be3c13ab3ce255dbaf72e3fce20dcb1c9798a2d87d1080dbc85ca40805c1a",
    (CURVE_33A, 3 * 10**4): "da304b635aaba419cdf7c0c4f014f5f77921651cb9b85be911b7f899b896d678",
}


@pytest.mark.parametrize("curve,pmax", AP_DIGESTS, ids=["11a-1e4", "11a-3e4", "33a-1e4", "33a-3e4"])
def test_ap_table_matches_frozen_digest(curve, pmax, tmp_path):
    path = tmp_path / "t.txt"
    write_coeffs(ap_table(curve, pmax), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == AP_DIGESTS[curve, pmax]


def singular_points(curve, p):
    """Slow oracle: the affine points of the curve over F_p where F and both
    partial derivatives vanish, by a full (x, y) double loop."""
    a1, a2, a3, a4, a6 = (a % p for a in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    out = []
    for x in range(p):
        for y in range(p):
            F = y * y + a1 * x * y + a3 * y - (x * x * x + a2 * x * x + a4 * x + a6)
            Fx = a1 * y - (3 * x * x + 2 * a2 * x + a4)
            Fy = 2 * y + a1 * x + a3
            if F % p == Fx % p == Fy % p == 0:
                out.append((x, y))
    return out


def test_one_affine_singular_point_exactly_at_primes_of_disc():
    # count_ap counts the nonsingular points as naff + [p does not divide disc]
    for c in (*ORACLE_CURVES, WeierstrassCurve(0, 0, 0, 5, 0)):
        for p in primes_up_to(50).tolist():
            assert len(singular_points(c, p)) == (c.discriminant % p == 0), (c, p)


def test_mestre_runs_twist_and_small_order_branches(monkeypatch):
    # each _round call records its lanes and how many of its points lay on
    # the twist or had small order
    calls = []
    real_round = mestre._round

    def counted(x, A, B, p):
        out = real_round(x, A, B, p)
        twist, small = out[3:]
        calls.append((len(p), int(twist.sum()), int(small.sum())))
        return out

    monkeypatch.setattr(mestre, "_round", counted)
    for c in ORACLE_CURVES[3:]:
        ps = [p for p in _good_primes(c, 3000) if p > curves.MESTRE_MIN_P]
        calls.clear()
        n = mestre.orders(*c.c_invariants(), ps)
        assert n.dtype == np.int64
        assert n.tolist() == [curves._count_affine_fast(c, p) + 1 for p in ps], c
        points, twist, small = map(sum, zip(*calls))
        assert twist > 0 and small > 0, (c, calls)
        # one block a round, so one call a round: a second round runs on the
        # lanes the first leaves open, and no prime is left to the full count
        assert len(ps) <= mestre.LANES
        assert len(calls) >= 2 and points > len(ps) and (n == 0).sum() == 0


def ec_add(P, Q, a, p):
    """Slow oracle: P + Q in affine coordinates on y^2 = x^3 + a x + b over
    F_p; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def ec_mul(k, P, a, p):
    R = None
    for bit in bin(k)[2:]:
        R = ec_add(ec_add(R, R, a, p), P if bit == "1" else None, a, p)
    return R


def test_hasse_multiples_match_scalar_multiplication():
    # each lane's N against every N in the Hasse interval with N P = O, found by
    # walking P from (p + 1 - w) P one addition at a time
    small = 0
    for c in ORACLE_CURVES[3:]:
        ps = [p for p in _good_primes(c, 1200) if p > curves.MESTRE_MIN_P]
        c4, c6 = c.c_invariants()
        p = np.array(ps)
        A, B = -27 * c4 % p, -54 * c6 % p
        for x0 in range(4):
            x, lanes, found, twist, is_small = mestre._round(np.full(len(ps), x0), A, B, p)
            small += int(is_small.sum())
            for i, q in enumerate(ps):
                xi, Ai = int(x[i]), int(A[i])
                r = (xi**3 + Ai * xi + int(B[i])) % q
                P, a, w = (xi * r % q, r * r % q), Ai * r * r % q, math.isqrt(4 * q)
                assert r != 0 and (x0 <= xi < x0 + 4) and twist[i] == (pow(r, (q - 1) // 2, q) != 1)
                brute, R = [], ec_mul(q + 1 - w, P, a, q)
                for N in range(q + 1 - w, q + 2 + w):
                    if R is None:
                        brute.append(2 * q + 2 - N if twist[i] else N)
                    R = ec_add(R, P, a, q)
                assert sorted(found[lanes == i].tolist()) == sorted(brute), (c, q, x0)
    assert small > 0


def test_mestre_falls_back_when_no_single_candidate(monkeypatch):
    # 15a has rational 8-torsion: one point often leaves several candidates
    c = WeierstrassCurve(1, 1, 1, -10, -10)
    expected = ap_table(c, 3000).values
    full = []
    count = curves._count_affine_fast
    monkeypatch.setattr(curves, "_count_affine_fast", lambda c, p: full.append(p) or count(c, p))
    monkeypatch.setattr(mestre, "MAX_POINTS", 1)
    assert np.array_equal(ap_table(c, 3000).values, expected)
    assert any(p > curves.MESTRE_MIN_P for p in full)


def test_object_lanes_match_int64_lanes(monkeypatch):
    ps = [p for p in _good_primes(CURVE_11A, 10**4) if p > curves.MESTRE_MIN_P]
    want = mestre.orders(*CURVE_11A.c_invariants(), ps)
    monkeypatch.setattr(mestre, "INT64_BELOW", 0)  # every lane holds a Python int
    assert np.array_equal(mestre.orders(*CURVE_11A.c_invariants(), ps), want)


@pytest.mark.parametrize("curve,p,a", [
    (CURVE_11A, 3037000507, 73978), (CURVE_11A, 4294967311, -76388),
    (CURVE_33A, 3037000507, 34312), (CURVE_33A, 4294967311, 19540),
])
def test_count_ap_past_int64_bound(curve, p, a):
    # p^2 >= 2^63: the lane holds a Python int; values from the per-prime counter
    assert count_ap(curve, p) == a


def test_mestre_character_sum_oracle_above_1e5():
    ps = [p for p in primes_up_to(2 * 10**5).tolist() if p >= 10**5]
    for p in random.Random(20201).sample(ps, 10):
        assert count_ap(CURVE_11A, p) == ap_character_sum(CURVE_11A, p), p


def test_ap_table_empty_below_first_prime():
    for pmax in (1, 0):
        t = ap_table(CURVE_11A, pmax)
        assert t.prime_array.size == t.values.size == 0


@pytest.mark.parametrize("ai,want", [
    ((0, -1, 1, 0, 0), 11),
    ((1, 1, 0, -11, 0), 33),
    ((0, 0, 1, -1, 0), 37),
    ((1, 1, 1, -10, -10), 15),
    ((1, 0, 1, -19, 26), 30),
    # gcd(disc, c4) > 1: refused at its smallest prime (disc -147 = -3 7^2, c4 = 112)
    ((0, 0, 0, -1, 0), "additive reduction at p=2"),
    ((0, 0, 0, 5, 0), "additive reduction at p=2"),
    ((0, -1, 1, -2, -1), "additive reduction at p=7"),
])
def test_conductor(ai, want):
    c = WeierstrassCurve(*ai)
    if isinstance(want, str):
        with pytest.raises(AdditiveReductionError, match=f"^{want}$"):
            c.conductor
    else:
        assert c.conductor == want


def test_ap_table_tests_no_sieve_prime_for_primality(monkeypatch):
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")
    want = ap_table(CURVE_33A, 500).values
    monkeypatch.setattr(curves, "is_prime", refuse)
    assert np.array_equal(ap_table(CURVE_33A, 500).values, want)


def test_ap_table_propagates_additive_error():
    c = WeierstrassCurve(0, 0, 0, 5, 0)
    with pytest.raises(AdditiveReductionError):
        ap_table(c, 10)


def _plant(monkeypatch, counter, p, a):
    """Make one counter report a_p = a at the prime p: mestre.orders through
    its lane's #E(F_p) = p + 1 - a, _count_affine_fast through p - a affine
    points."""
    if counter == "mestre":
        real = mestre.orders

        def orders(c4, c6, ps):
            n = real(c4, c6, ps)
            n[ps.index(p)] = p + 1 - a
            return n
        monkeypatch.setattr(mestre, "orders", orders)
    else:
        real = curves._count_affine_fast
        monkeypatch.setattr(curves, "_count_affine_fast",
                            lambda c, q: p - a if q == p else real(c, q))


@pytest.mark.parametrize("counter,p,a", [
    ("mestre", 997, -64),  # a Mestre lane outside the Hasse interval: 64^2 > 4 997
    ("affine", 97, 97),  # a fully counted good prime past Hasse
    ("affine", 11, 0),  # the level prime of 11a counted as a cusp
    ("affine", 11, 2),  # ... and with a count no reduction type gives
], ids=["mestre-good", "full-good", "level-0", "level-2"])
def test_counter_fault_is_refused_by_the_table(counter, p, a, monkeypatch, tmp_path, capsys):
    # the table is the one check of each count: a planted fault names its
    # prime, and `yoshida ap` exits 2 and writes no file
    _plant(monkeypatch, counter, p, a)
    with pytest.raises(ComputationError, match=rf"\bp={p}\b"):
        ap_table(CURVE_11A, 1000)
    out = tmp_path / "t.txt"
    assert run(["ap", "--curve", "0,-1,1,0,0", "--pmax", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation error:") and f"p={p}" in err, err
    assert not out.exists()


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

def test_load_coeffs_roundtrip(tmp_path, table_33a):
    path = tmp_path / "g.txt"
    write_coeffs(table_33a, path)
    back = load_coeffs(path)
    assert np.array_equal(back.prime_array, table_33a.prime_array)
    assert np.array_equal(back.values, table_33a.values)
    assert (back.level, back.weight, back.normalized) == (33, 2, False)


def test_load_coeffs_normalized_roundtrip(tmp_path):
    nf = table(11, 2, {2: -0.5, 3: 0.25}, normalized=True)
    path = tmp_path / "n.txt"
    write_coeffs(nf, path)
    back = load_coeffs(path)
    assert back.normalized and rows(back) == {2: -0.5, 3: 0.25}


@pytest.mark.parametrize("k,normalized,dtype", [(2, False, np.int64), (12, False, object),
                                                 (2, True, np.float64)])
def test_write_load_roundtrip_each_dtype(tmp_path, k, normalized, dtype):
    ps = primes_up_to(2203).tolist()
    rng = random.Random(k)
    if normalized:
        rows_in = {p: rng.uniform(-2, 2) for p in ps}
        rows_in[5], rows_in[7], rows_in[11] = -0.0, 5e-324, -(11**-0.5)
    else:
        rows_in = {p: rng.randint(-math.isqrt(4 * p ** (k - 1)), math.isqrt(4 * p ** (k - 1)))
                   for p in ps}
        rows_in[11] = 11 ** ((k - 2) // 2)
    nf = table(11, k, rows_in, normalized=normalized)
    assert nf.values.dtype == dtype
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_coeffs(nf, first)
    back = load_coeffs(first)
    write_coeffs(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert back.values.dtype == dtype and np.array_equal(back.prime_array, nf.prime_array)
    assert [repr(v) for v in back.values.tolist()] == [repr(v) for v in rows_in.values()]


def test_loaded_table_keeps_two_columns(tmp_path):
    # the primes, the values and the good mask: 8 + 8 + 1 bytes a prime, where
    # a {p: a_p} dict of Python ints kept about 110
    ps = primes_up_to(10**5).tolist()
    path = tmp_path / "t.txt"
    path.write_text(_EXACT + "".join(f"{p} {-1 if p == 11 else p % 3 - 1}\n" for p in ps))
    load_coeffs(path)  # imports and first-call caches outside the measure
    tracemalloc.start()
    try:
        nf = load_coeffs(path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert nf.values.dtype == np.int64 and nf.values.flags.owndata
    assert kept < 48 * len(ps), kept


def test_load_coeffs_simple(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n2 -2\n3 -1\n5 1\n")
    nf = load_coeffs(path)
    assert rows(nf) == {2: -2, 3: -1, 5: 1}


def test_load_coeffs_nonprime_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n2 1\n4 7\n")
    with pytest.raises(ValidationError, match=r"4 is not prime \(line 3\)"):
        load_coeffs(path)


def test_load_coeffs_nonprime_outside_and_above_sieve(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n1 1\n")
    with pytest.raises(ValidationError, match=r"1 is not prime \(line 2\)"):
        load_coeffs(path)
    path.write_text("# level=11 weight=2\n-7 1\n")
    with pytest.raises(ValidationError, match=r"-7 is not prime \(line 2\)"):
        load_coeffs(path)
    path.write_text("# level=11 weight=2\n2 1\n1000000008 1\n")
    with pytest.raises(ValidationError, match=r"1000000008 is not prime \(line 3\)"):
        load_coeffs(path)


def test_load_coeffs_deligne(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n2 5\n")
    with pytest.raises(ValidationError, match="Deligne bound violated at p=2"):
        load_coeffs(path)


def test_load_coeffs_missing_header(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("2 1\n3 1\n")
    with pytest.raises(ValidationError, match="header"):
        load_coeffs(path)
    path.write_text("# level=11\n2 1\n")
    with pytest.raises(ValidationError, match="weight"):
        load_coeffs(path)


def test_load_coeffs_comments_and_overrides(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=33 weight=2\n# a comment\n2 -2  # trailing\n\n3 -1\n")
    nf = load_coeffs(path)
    assert nf.level == 33 and rows(nf) == {2: -2, 3: -1}


def test_load_coeffs_descending_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n3 1\n2 1\n")
    with pytest.raises(ValidationError, match="ascending"):
        load_coeffs(path)


def _refusal_text(path):
    with pytest.raises(ValidationError) as exc:
        load_coeffs(path)
    return str(exc.value)


def test_load_coeffs_repeated_prime_names_its_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n2 -2\n3 -1\n3 -1\n5 1\n")
    assert _refusal_text(path) == f"{path}: primes not strictly ascending at p=3 (line 4)"


def test_load_coeffs_gap_before_prime_past_int64(tmp_path):
    # numpy's reader refuses the last row, so the row loop reads every row
    path = tmp_path / "t.txt"
    path.write_text(_EXACT + _body(_ROWS_11A) + f"{2**64 + 13} 0\n")
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        assert curves._rows_by_numpy(fh, False) is None
    assert _refusal_text(path) == f"{path}: prime table has a gap: missing p=17 (line 8)"


def test_load_coeffs_gap_refused_after_every_row(tmp_path):
    # a later bad row outranks an earlier gap, as a later bad value does
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n2 -2\n5 1\n7 -2\n9 0\n")
    assert _refusal_text(path) == f"{path}: 9 is not prime (line 5)"
    path.write_text("# level=11 weight=2\n2 -2\n5 1\n7 x\n")
    assert _refusal_text(path) == f"{path}: bad coefficient 'x' (line 4)"


def test_load_coeffs_gap_in_large_table(tmp_path):
    ps = [p for p in primes_up_to(10**5).tolist() if p != 99989]
    path = tmp_path / "t.txt"
    path.write_text("# level=7 weight=2\n" + "".join(f"{p} 0\n" for p in ps))
    line = ps.index(99991) + 2
    t0 = time.perf_counter()
    msg = _refusal_text(path)
    assert time.perf_counter() - t0 < 1.0
    assert msg == f"{path}: prime table has a gap: missing p=99989 (line {line})"


def test_load_coeffs_gap_named_before_shifted_values(tmp_path):
    """Read as values alone, a file that skips 3 puts a_5 = 4 at p = 3,
    where it breaks the Deligne bound; the loader names the gap instead."""
    with pytest.raises(ValidationError, match=r"^Deligne bound violated at p=3: a_p=4$"):
        NewformCoeffs(11, 2, [-2, 4])
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n2 -2\n5 4\n")
    assert _refusal_text(path) == f"{path}: prime table has a gap: missing p=3 (line 3)"


def test_loaded_primes_are_the_sieved_primes(tmp_path):
    """The table's own primes equal the primes up to pmax, for an 11a table
    to 3e4 and the seed-37 synthetic 3e5 table of the benchmark."""
    from perfbench import synth

    nf = ap_table(CURVE_11A, 3 * 10**4)
    assert nf.prime_array.size == 3245
    assert np.array_equal(nf.prime_array, primes_up_to(3 * 10**4))
    path = tmp_path / "f11.txt"
    synth.write_table(path, 11, synth.generate(37, 3 * 10**5)[11])
    nf = load_coeffs(path)
    assert nf.prime_array.size == 25997
    assert np.array_equal(nf.prime_array, primes_up_to(nf.pmax))
    assert nf.prime_array.tolist() == synth.primes_up_to(3 * 10**5)


# Differential corpus for the two row readers: numpy's text reader (the fast
# path) and the row loop (the oracle, which names the first bad line).
_EXACT = "# level=11 weight=2\n"
_NORM = "# level=11 weight=2 normalized\n"
_ROWS_11A = [(2, "-2"), (3, "-1"), (5, "1"), (7, "-2"), (11, "1"), (13, "4")]
_ROWS_NORM = [(2, "-1.4142135623730951"), (3, "-0.5773502691896258"),
              (5, "0.4472135954999579"), (7, "-0.7559289460184544"),
              (11, "0.30151134457776363"), (13, "1.1094003924504583")]


def _body(rows, sep=" ", end="\n", **at):
    """rows as '<p><sep><value><end>' lines, with the value at p replaced by at[f'p{p}']."""
    return "".join(f"{p}{sep}{at.get(f'p{p}', v)}{end}" for p, v in rows)


LOADER_CORPUS = {
    "plain": _EXACT + _body(_ROWS_11A),
    "tabs": _EXACT + _body(_ROWS_11A, sep="\t"),
    "crlf": _EXACT.replace("\n", "\r\n") + _body(_ROWS_11A, end="\r\n"),
    "cr only": _EXACT.replace("\n", "\r") + _body(_ROWS_11A, end="\r"),
    "no final newline": _EXACT + _body(_ROWS_11A).rstrip("\n"),
    "blanks and comments": _EXACT + "\n# note\n" + _body(_ROWS_11A, end="  # trailing\n") + "\n \n",
    "leading spaces": _EXACT + _body(_ROWS_11A).replace("\n", "\n   "),
    "plus sign": _EXACT + _body(_ROWS_11A, p5="+1"),
    "leading zeros": _EXACT + _body(_ROWS_11A, p5="01").replace("2 -2", "02 -2"),
    "underscore value": _EXACT + _body(_ROWS_11A, p5="0_1"),
    "underscore prime": _EXACT + _body(_ROWS_11A).replace("13 4", "1_3 4"),
    "arabic-indic digit": _EXACT + _body(_ROWS_11A, p13="\u0663"),
    "float value in exact table": _EXACT + _body(_ROWS_11A, p5="1.0"),
    "exponent value": _EXACT + _body(_ROWS_11A, p5="1e3"),
    "hex value": _EXACT + _body(_ROWS_11A, p5="0x1"),
    "2**63": _EXACT + _body(_ROWS_11A, p7=str(2**63)),
    "2**63 - 1": _EXACT + _body(_ROWS_11A, p7=str(2**63 - 1)),
    "-2**63": _EXACT + _body(_ROWS_11A, p7=str(-2**63)),
    "2**64 prime": _EXACT + _body(_ROWS_11A) + f"{2**64} 1\n",
    "huge prime": _EXACT + _body(_ROWS_11A) + "1000000007 1\n",
    "header only": _EXACT,
    "comments only": _EXACT + "# nothing\n\n",
    "one field": _EXACT + _body(_ROWS_11A) + "17\n",
    "three fields": _EXACT + _body(_ROWS_11A, p5="1 1"),
    "comma separated": _EXACT + _body(_ROWS_11A, sep=","),
    "non-prime": _EXACT + _body(_ROWS_11A).replace("13 4", "15 4"),
    "one": _EXACT + "1 1\n",
    "negative prime": _EXACT + "-7 1\n",
    "descending": _EXACT + "3 1\n2 1\n",
    "repeated prime": _EXACT + _body(_ROWS_11A[:2]) + "3 -1\n" + _body(_ROWS_11A[2:]),
    "gap": _EXACT + _body(_ROWS_11A[:2] + _ROWS_11A[3:]),
    "deligne": _EXACT + _body(_ROWS_11A, p13="8"),
    "bad level prime": _EXACT + _body(_ROWS_11A, p11="0"),
    "squarefree level and bad row": "# level=4 weight=2\n" + _body(_ROWS_11A).replace("13 4", "15 4"),
    "weight 4": "# level=11 weight=4\n" + _body([(2, "-1"), (3, "5"), (5, "-7"), (7, "3"),
                                                  (11, "11"), (13, "-2")]),
    "vertical tab": _EXACT + _body(_ROWS_11A, sep="\x0b"),
    "form feed": _EXACT + _body(_ROWS_11A, sep="\x0c"),
    "no-break space": _EXACT + _body(_ROWS_11A, sep="\xa0"),
    "em space": _EXACT + _body(_ROWS_11A, sep="\u2003"),
    "file separator": _EXACT + _body(_ROWS_11A, sep="\x1c"),
    "next line": _EXACT + _body(_ROWS_11A, sep="\x85"),
    "line separator": _EXACT + _body(_ROWS_11A, sep="\u2028"),
    "nul": _EXACT + _body(_ROWS_11A, p5="1\x00"),
    "quoted": _EXACT + _body(_ROWS_11A, p5='"1"'),
    "normalized": _NORM + _body(_ROWS_NORM),
    "normalized -0.0": _NORM + _body(_ROWS_NORM, p5="-0.0"),
    "normalized subnormal": _NORM + _body(_ROWS_NORM, p5="5e-324"),
    "normalized integer text": _NORM + _body(_ROWS_NORM, p5="0", p2="-1"),
    "normalized nan": _NORM + _body(_ROWS_NORM, p5="nan"),
    "normalized -nan": _NORM + _body(_ROWS_NORM, p5="-nan"),
    "normalized inf": _NORM + _body(_ROWS_NORM, p5="inf"),
    "normalized -Infinity": _NORM + _body(_ROWS_NORM, p5="-Infinity"),
    "normalized 1e309": _NORM + _body(_ROWS_NORM, p5="1e309"),
    "normalized nan at level prime": _NORM + _body(_ROWS_NORM, p11="nan"),
    "normalized prime 2.0": _NORM + _body(_ROWS_NORM).replace("2 -1.41", "2.0 -1.41"),
    "normalized underscore": _NORM + _body(_ROWS_NORM, p5="0_0.5"),
    "normalized arabic-indic": _NORM + _body(_ROWS_NORM, p5="\u0661.5"),
    "normalized hex float": _NORM + _body(_ROWS_NORM, p5="0x1p-1"),
    "normalized long decimal": _NORM + _body(
        _ROWS_NORM, p5="0.1000000000000000055511151231257827021181583404541015625"),
    "normalized above slack": _NORM + _body(_ROWS_NORM, p7="2.000000001000001"),
}


def _outcome(path):
    """A loaded table as comparable data (values by repr, so -0.0 and nan
    compare), or the refusal's type and text."""
    try:
        nf = load_coeffs(path)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    return nf.level, nf.weight, nf.normalized, [(p, repr(v)) for p, v in rows(nf).items()]


@pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
def test_load_coeffs_same_as_row_loop(tmp_path, monkeypatch, name):
    path = tmp_path / "t.txt"
    path.write_bytes(LOADER_CORPUS[name].encode("utf-8"))
    fast = _outcome(path)

    def refuse(*args, **kwargs):
        raise ValueError("numpy reader off")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert fast == _outcome(path)


def test_load_coeffs_not_utf8_same_as_row_loop(tmp_path, monkeypatch):
    # the decode error outranks the missing header and every bad row
    path = tmp_path / "t.txt"
    path.write_bytes(b"2 1\n4 1\n\xff 1\n")
    with pytest.raises(ValidationError, match="not UTF-8 text") as fast:
        load_coeffs(path)
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: None)
    with pytest.raises(ValidationError) as slow:
        load_coeffs(path)
    assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("name", ["plain", "tabs", "crlf", "blanks and comments", "plus sign",
                                  "-2**63", "2**63 - 1", "normalized", "normalized -0.0",
                                  "normalized subnormal", "weight 4"])
def test_load_coeffs_plain_tables_skip_row_loop(tmp_path, monkeypatch, name):
    """Well-formed tables, and tables the row loop refuses only for their
    values, never reach the row loop once numpy has read every row."""
    path = tmp_path / "t.txt"
    path.write_bytes(LOADER_CORPUS[name].encode("utf-8"))
    want = _outcome(path)

    def refuse(*args):
        raise AssertionError("row loop reached")

    monkeypatch.setattr(curves, "_rows_by_line", refuse)
    if want[0] == "ValidationError":
        # a refused table is handed to the row loop, which names its line
        with pytest.raises(AssertionError, match="row loop reached"):
            load_coeffs(path)
    else:
        assert _outcome(path) == want


def test_load_coeffs_3e5_table_one_sieve(tmp_path, monkeypatch):
    """A gap-free 3e5 table read by numpy sieves once, in NewformCoeffs, to
    the bound on its 25997th prime, and its prime_array is that sieve's first
    25997 primes."""
    ps = primes_up_to(3 * 10**5)
    cap = np.array([math.isqrt(4 * p) for p in ps.tolist()])
    a = np.clip(np.rint(np.sqrt(ps) * np.random.default_rng(18).uniform(-2, 2, ps.size)),
                -cap, cap).astype(np.int64)
    a[ps == 11] = -1
    path = tmp_path / "big.txt"
    path.write_text(_EXACT + "".join(f"{p} {v}\n" for p, v in zip(ps.tolist(), a.tolist())))
    sieved = []
    real = primes.prime_sieve

    def counted(n):
        sieved.append(n)
        return real(n)

    monkeypatch.setattr(primes, "prime_sieve", counted)
    monkeypatch.setattr(curves, "prime_sieve", counted)
    nf = load_coeffs(path)
    assert ps.size == 25997 and nth_prime_bound(ps.size) == 324567
    assert sieved == [324567]
    assert np.array_equal(nf.prime_array, ps) and nf.values.tolist() == a.tolist()
