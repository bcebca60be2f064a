"""Exception types shared across the package."""


class RegimeError(ValueError):
    """An operation was asked for outside its parameter regime.

    Typical causes: sqrt of the discriminant requested while it is negative,
    or the logarithmic borderline correction requested away from the
    borderline.
    """


class WeightOverflowError(ArithmeticError):
    """A weighted integral has a quadrature term too large to represent.

    Raised when some term exp(expo)*density has exponent expo + log density
    above the budget; a large weight alone is harmless where the integrand
    decays faster.  The data do not lie in the weighted space on this grid.
    Only ``functionals.weighted_quadrature`` raises it; a run records such a
    norm as +inf instead.
    """
