"""The exception type shared across the package."""


class RegimeError(ValueError):
    """An operation was asked for outside its parameter regime.

    Typical causes: sqrt of the discriminant requested while it is negative,
    or the logarithmic borderline correction requested away from the
    borderline.
    """
