"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """A matrix or vector has an unusable shape (mismatch, non-finite, not 2-D, ...)."""


class InvalidRankError(ValueError):
    """A requested decomposition rank is out of range for the given matrix."""


class InvalidBitsError(ValueError):
    """A bit-width is outside the supported set."""


class InvalidPartitionError(ValueError):
    """A block partition does not divide the matrix dimensions."""


class InvalidSpanError(ValueError):
    """A bit configuration does not cover a contiguous layer interval, or
    two queues slated for merging are not adjacent."""


class ConvergenceError(RuntimeError):
    """A solver's answer failed its accuracy check.

    The SVD (``linalg``) is direct and does not iterate to a tolerance; it
    raises this only when its residual max ||A v_j - sigma_j u_j||
    exceeds ``linalg.SVD_RESIDUAL_FACTOR`` * max(m, n) * eps * sigma_1,
    or is not finite.

    Carries the message without the residual and the worst residual of
    the failing problems, so callers can re-raise with more context.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.message = message
        self.residual = float(residual)
