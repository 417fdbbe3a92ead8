import math
import random
from collections import Counter

import pytest

from yoshida import curves
from yoshida.curves import (WeierstrassCurve, ap_table, conductor, count_ap, load_coeffs,
                            write_coeffs)
from yoshida.errors import AdditiveReductionError, ValidationError
from yoshida.primes import primes_up_to
from tests.conftest import CURVE_11A, CURVE_33A


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


def test_additive_reduction_rejected():
    # y^2 = x^3 - 5^2 x has additive reduction at 5 (cusp ... a cusp at p=5)
    c = WeierstrassCurve(0, 0, 0, 5, 0)  # disc = -64*125, additive at 5
    with pytest.raises(AdditiveReductionError) as exc:
        count_ap(c, 5)
    assert exc.value.p == 5


def test_hasse_bound_up_to_1e4(table_11a):
    for p, a in table_11a.coeffs.items():
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
    fast = {c: {p: count_ap(c, p) for p in _good_primes(c, 10**4)} for c in ORACLE_CURVES}
    monkeypatch.setattr(curves, "MESTRE_MIN_P", 10**9)  # every prime takes the O(p) path
    for c in ORACLE_CURVES:
        assert fast[c] == {p: count_ap(c, p) for p in _good_primes(c, 10**4)}, c


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


def test_mestre_runs_twist_and_small_order_branches():
    for c in ORACLE_CURVES[3:]:
        tally = Counter()
        for p in _good_primes(c, 3000):
            if p > curves.MESTRE_MIN_P:
                n = curves._order_mestre(*curves._short_model(c, p), p, tally)
                assert n == curves._count_affine_fast(c, p) + 1, (c, p)
        assert tally["twist"] > 0 and tally["small_order"] > 0, (c, tally)


def test_hasse_multiples_match_scalar_multiplication():
    # every N in the Hasse interval that kills P, found by N P directly
    small = 0
    for c in ORACLE_CURVES[3:]:
        for p in _good_primes(c, 1200):
            if p <= curves.MESTRE_MIN_P:
                continue
            A, B = curves._short_model(c, p)
            w = math.isqrt(4 * p)
            for x in range(4):
                r = (x**3 + A * x + B) % p
                if r == 0:
                    continue
                P, a = (x * r % p, r * r % p), A * r * r % p
                found, is_small = curves._hasse_multiples(P, a, p, w)
                brute = [N for N in range(p + 1 - w, p + 2 + w)
                         if curves._ec_mul(N, P, a, p) is None]
                assert found == brute, (c, p, x)
                small += is_small
    assert small > 0


def test_mestre_falls_back_when_no_single_candidate(monkeypatch):
    c = WeierstrassCurve(0, 0, 0, -1, 0)
    ps = [p for p in _good_primes(c, 3000) if p > curves.MESTRE_MIN_P]
    expected = [count_ap(c, p) for p in ps]
    monkeypatch.setattr(curves, "MESTRE_MAX_POINTS", 1)
    assert any(curves._order_mestre(*curves._short_model(c, p), p) is None for p in ps)
    assert [count_ap(c, p) for p in ps] == expected


def test_mestre_character_sum_oracle_above_1e5():
    ps = [p for p in primes_up_to(2 * 10**5).tolist() if p >= 10**5]
    for p in random.Random(20201).sample(ps, 10):
        assert count_ap(CURVE_11A, p) == ap_character_sum(CURVE_11A, p), p


def test_ap_table_empty_below_first_prime():
    t = ap_table(CURVE_11A, 1)
    assert t.coeffs == {}


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
            conductor(c)
    else:
        assert conductor(c) == want


def test_ap_table_refuses_level_the_model_contradicts():
    # 33a has disc 3^6 11^2: 11 misses the multiplicative prime 3, 7 does not divide
    for level in (11, 33 * 7):
        with pytest.raises(ValidationError, match=f"level {level} contradicts the model"):
            ap_table(WeierstrassCurve(1, 1, 0, -11, 0, declared_level=level), 100)


def test_ap_table_tests_no_sieve_prime_for_primality(monkeypatch):
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")
    want = ap_table(CURVE_33A, 500).coeffs
    monkeypatch.setattr(curves, "is_prime", refuse)
    assert ap_table(CURVE_33A, 500).coeffs == want


def test_ap_table_propagates_additive_error():
    c = WeierstrassCurve(0, 0, 0, 5, 0, declared_level=10)
    with pytest.raises(AdditiveReductionError):
        ap_table(c, 10)


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

def test_load_coeffs_roundtrip(tmp_path, table_33a):
    path = tmp_path / "g.txt"
    write_coeffs(table_33a, path)
    back = load_coeffs(path)
    assert back.coeffs == table_33a.coeffs
    assert (back.level, back.weight, back.normalized) == (33, 2, False)


def test_load_coeffs_normalized_roundtrip(tmp_path):
    from yoshida.hecke import NewformCoeffs
    nf = NewformCoeffs(level=11, weight=2, coeffs={2: -0.5, 3: 0.25}, normalized=True)
    path = tmp_path / "n.txt"
    write_coeffs(nf, path)
    back = load_coeffs(path)
    assert back.normalized and back.coeffs == nf.coeffs


def test_load_coeffs_simple(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n2 -2\n3 -1\n5 1\n")
    nf = load_coeffs(path)
    assert nf.coeffs == {2: -2, 3: -1, 5: 1}


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
    assert nf.level == 33 and nf.coeffs == {2: -2, 3: -1}


def test_load_coeffs_descending_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# level=11 weight=2\n3 1\n2 1\n")
    with pytest.raises(ValidationError, match="ascending"):
        load_coeffs(path)
