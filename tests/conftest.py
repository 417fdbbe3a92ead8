import math

import pytest

from yoshida.curves import WeierstrassCurve, ap_table
from yoshida.lift import lift_sequence, validate_pair

# Regression pair: the discriminant -11 curve (level 11) and a conductor-33
# curve (disc 3^6 11^2, multiplicative at 3 and 11).  Their Atkin-Lehner
# signs at p = 11 agree (both a_11 = +1, so w_11 = -1); frozen as fixtures.
CURVE_11A = WeierstrassCurve(0, -1, 1, 0, 0, declared_level=11)
CURVE_33A = WeierstrassCurve(1, 1, 0, -11, 0, declared_level=33)


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
    return zip(seq.index.tolist(), seq.values[seq.index].tolist())


def seq_signs(seq):
    """{n: certified sign code} for every n of an EigenSequence."""
    return dict(zip(seq.index.tolist(), seq.signs.tolist()))


def lam(h, p):
    """lambda(p) of table h by the scalar formula a_p / (p^((k-2)/2) sqrt(p)),
    the reading NewformCoeffs.lam_array must equal bit for bit."""
    v = h.coeffs[p]
    if h.normalized:
        return float(v)
    return v / (p ** ((h.weight - 2) // 2) * math.sqrt(p))
