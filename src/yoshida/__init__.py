"""Eigenvalue machinery for Yoshida lifts.

Builds weight-2 newform coefficient tables by point counting on elliptic
curves, synthesizes the lift's Hecke eigenvalue sequence from the spinor
Euler factorization, locates first negative eigenvalues with certified
signs, measures the prime statistics behind the lower-bound argument, and
certifies/optimizes the quartic majorant of |lambda(p)|.
"""

__version__ = "0.1.0"
