"""Exception hierarchy shared by all soblab modules."""


class SoblabError(Exception):
    """Base class for all errors raised by this package."""


class EmptyCloudError(SoblabError):
    """Point cloud contains no points."""


class DuplicatePointsError(SoblabError):
    """Two points in the cloud are bitwise identical."""


class CloudFormatError(SoblabError):
    """A point-cloud CSV file could not be parsed."""


class KTooLargeError(SoblabError):
    """Requested more neighbors than there are points."""


class ConfigError(SoblabError):
    """A configuration violates its invariants (e.g. K < basis size)."""


class NonpositiveSupportError(SoblabError):
    """Weight function called with support radius D <= 0."""


class SingularNormalMatrixError(SoblabError):
    """MLS normal matrix is rank deficient beyond the ridge/pseudo-inverse rescue."""

    def __init__(self, message, point_index=None):
        super().__init__(message)
        self.point_index = point_index


class OrderTooHighError(SoblabError):
    """Requested derivative order exceeds the fitted polynomial order."""


class ShapeMismatchError(SoblabError):
    """Prediction and target arrays have incompatible shapes."""


class BothZeroError(SoblabError):
    """Both task gradients are zero; nothing to merge."""


class DimMismatchError(SoblabError):
    """Array dimensions are incompatible with the network or formula."""


class ZeroTargetNormError(SoblabError):
    """A target function is identically zero; relative error undefined."""


class ZeroVectorError(SoblabError):
    """An angle or projection was requested for a zero vector."""


class NotUnitError(SoblabError):
    """A direction argument is not a unit vector."""


class OutOfDomainError(SoblabError):
    """Scalar argument outside the formula's domain."""


class NoLocalMinError(SoblabError):
    """Cubic does not satisfy the local-minimum preconditions."""


class StepTooLargeError(SoblabError):
    """Flow integration step too large: the distance grew by more than 10%,
    or the RK4 increment left its Euler predictor by more than half."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class PhiZeroError(SoblabError):
    """Landscape normalization requested where phi0 vanishes (theta = pi)."""


class NanLossError(SoblabError):
    """Training loss became NaN."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
