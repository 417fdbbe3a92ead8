"""Eigenvalue machinery for Yoshida lifts.

Builds weight-2 newform coefficient tables by point counting on elliptic
curves, synthesizes the lift's Hecke eigenvalue sequence from the spinor
Euler factorization, locates first negative eigenvalues with certified
signs, measures the prime statistics behind the lower-bound argument, and
certifies/optimizes the quartic majorant of |lambda(p)|.
"""

from .curves import WeierstrassCurve, ap_table, count_ap, load_coeffs, write_coeffs
from .errors import AdditiveReductionError, ComputationError, SignUncertainError, ValidationError
from .hecke import NewformCoeffs, infer_atkin_lehner
from .lift import (
    EigenSequence,
    LiftSpec,
    lift_euler_coeffs,
    lift_euler_ints,
    lift_sequence,
    validate_pair,
)
from .majorant import (
    REFERENCE_PARAMS,
    MajorantParams,
    feasible_numeric,
    feasible_sufficient,
    optimize_delta,
    q_eval,
    r_eval,
)
from .primes import primes_up_to
from .signs import (
    BoundConfig,
    SignReport,
    abs_sum_ratio,
    bad_factor_bound,
    bound_report,
    conductor_proxy,
    corollary_check,
    first_negative,
    invert_xlog_bound,
    lower_bound_witness,
    v_density,
    weighted_sum,
)

__version__ = "0.1.0"
