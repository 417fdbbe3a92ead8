"""Exception types shared across the package.

Validation errors signal rejected input (bad preconditions, broken table
invariants); computation errors signal states discovered mid-computation
that fall outside the supported setting.  The CLI maps the two families
to distinct exit codes.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition or table invariant."""


class ComputationError(RuntimeError):
    """A computation reached a state outside the supported setting."""


class AdditiveReductionError(ComputationError):
    """Reduction mod p is a cusp: the curve is outside the squarefree-conductor
    setting (or the model is non-minimal at p)."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"additive reduction at p={p}")


class SignUncertainError(ComputationError):
    """The first sign that is not certified nonnegative is uncertain: a
    prime-power factor of n from normalized float tables lies within the sign
    tolerance of zero, so whether n is the first negative cannot be
    certified; integer coefficient tables give the exact sign."""

    def __init__(self, n: int, value: float):
        self.n = n
        self.value = value
        super().__init__(f"sign uncertain at n={n} (lambda={value!r}); "
                         "integer coefficient tables required")
