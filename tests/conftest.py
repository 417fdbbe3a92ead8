import math

import numpy as np
import pytest

from yoshida import curves
from yoshida.curves import WeierstrassCurve, ap_table
from yoshida.hecke import NewformCoeffs
from yoshida.lift import lift_sequence, validate_pair
from yoshida.primes import primes_up_to

# Regression pair: the discriminant -11 curve (level 11) and a conductor-33
# curve (disc 3^6 11^2, multiplicative at 3 and 11).  Their Atkin-Lehner
# signs at p = 11 agree (both a_11 = +1, so w_11 = -1); frozen as fixtures.
CURVE_11A = WeierstrassCurve(0, -1, 1, 0, 0)
CURVE_33A = WeierstrassCurve(1, 1, 0, -11, 0)


@pytest.fixture(scope="session")
def table_11a():
    return ap_table(CURVE_11A, 10**4)


@pytest.fixture(scope="session")
def table_33a():
    return ap_table(CURVE_33A, 10**4)


@pytest.fixture(scope="session")
def reg_spec(table_11a, table_33a):
    return validate_pair(table_11a, table_33a)


@pytest.fixture(scope="session")
def reg_seq(reg_spec):
    """Regression sequence: xmax 10^4; integer tables, so the exact channel is on."""
    return lift_sequence(reg_spec, 10**4)


def seq_items(seq):
    """(n, lambda_F(n)) for every n of an EigenSequence, ascending, as Python
    ints and floats."""
    return zip(seq.index.tolist(), seq.values.tolist())


def seq_value(seq, n):
    """lambda_F(n) of an EigenSequence at one stored n, read by position, as
    a Python float."""
    i = int(np.searchsorted(seq.index, n))
    assert seq.index[i:i + 1].tolist() == [n], f"n={n} is not stored"
    return seq.values[i:i + 1].tolist()[0]


def seq_signs(seq):
    """{n: certified sign code} for every n of an EigenSequence."""
    return dict(zip(seq.index.tolist(), seq.signs.tolist()))


def table(level, weight, rows, normalized=False):
    """A NewformCoeffs from a {p: value} dict, whose keys must be the first
    primes, in order: the table is built from the values alone."""
    assert list(rows) == primes_up_to(max(rows, default=0)).tolist(), \
        "table rows must be keyed by the first primes"
    return NewformCoeffs(level, weight, list(rows.values()), normalized=normalized)


def normalized_pair(lam_f, lam_g, pmax):
    """Normalized f of level 11 and g of level 33 with w_11 = -1 on both
    sides, holding lam_f(p), lam_g(p) at the good primes <= max(pmax, 11):
    lam_f is called at every such p, ascending, before lam_g."""
    ps = [p for p in primes_up_to(max(pmax, 11)).tolist() if 33 % p]
    fc = {**{p: lam_f(p) for p in ps}, 3: 0.0, 11: 11**-0.5}
    gc = {**{p: lam_g(p) for p in ps}, 3: -(3**-0.5), 11: 11**-0.5}
    return validate_pair(table(11, 2, dict(sorted(fc.items())), normalized=True),
                         table(33, 2, dict(sorted(gc.items())), normalized=True))


def rows(h):
    """{p: value} of table h, as Python ints and floats, in table order."""
    return dict(zip(h.prime_array.tolist(), h.values.tolist()))


def value(h, p):
    """The value table h holds at its prime p, read by position, as a Python
    int or float."""
    i = int(np.searchsorted(h.prime_array, p))
    return h.values[i:i + 1].tolist()[0]


def lam(h, p):
    """lambda(p) of table h by the scalar formula a_p / (p^((k-2)/2) sqrt(p)),
    the reading NewformCoeffs.lam_array must equal bit for bit."""
    v = value(h, p)
    if h.normalized:
        return float(v)
    return v / (p ** ((h.weight - 2) // 2) * math.sqrt(p))


def count_ap(curve, p):
    """a_p of curve at one prime p: the one-lane case of the table's counter."""
    return int(curves._ap_values(curve, [p])[0])


def q_eval(params, t):
    """delta + alpha (t^4 + (Upsilon - 3) t^2 + 1 - Upsilon): the exact
    evaluator of the majorant q when the params and t are Fractions."""
    d, a, u = params.delta, params.alpha, params.upsilon
    t2 = t * t
    return d + a * (t2 * t2 + (u - 3) * t2 + (1 - u))


def r_eval(params, t):
    """r(t) = q(t) - t; majorant._grid_min inlines this expression in binary64."""
    return q_eval(params, t) - t
