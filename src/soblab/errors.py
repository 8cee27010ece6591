"""Exception hierarchy shared by all soblab modules; each class carries its
command-line exit code (2 input, 3 configuration, 4 numerical) and prefix."""

EXIT_PARSE, EXIT_CONFIG, EXIT_NUMERIC = 2, 3, 4


class SoblabError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, prefix = EXIT_NUMERIC, ""


class EmptyCloudError(SoblabError):
    """Point cloud contains no points."""

    exit_code, prefix = EXIT_PARSE, "input error: "


class DuplicatePointsError(SoblabError):
    """Two points in the cloud are bitwise identical."""

    exit_code, prefix = EXIT_PARSE, "input error: "


class CloudFormatError(SoblabError):
    """A point-cloud CSV file could not be parsed."""

    exit_code, prefix = EXIT_PARSE, "input error: "


class KTooLargeError(SoblabError):
    """Requested more neighbors than there are points."""

    exit_code, prefix = EXIT_CONFIG, "configuration error: "


class ConfigError(SoblabError):
    """A configuration violates its invariants (e.g. K < basis size)."""

    exit_code, prefix = EXIT_CONFIG, "configuration error: "


class NonpositiveSupportError(SoblabError):
    """Weight function called with support radius D <= 0."""

    exit_code, prefix = EXIT_CONFIG, "configuration error: "


class SingularNormalMatrixError(SoblabError):
    """MLS normal matrix is rank deficient beyond the ridge/pseudo-inverse rescue."""

    exit_code, prefix = EXIT_NUMERIC, "numerical failure: "

    def __init__(self, message, point_index=None):
        super().__init__(message)
        self.point_index = point_index


class OrderTooHighError(SoblabError):
    """Requested derivative order exceeds the fitted polynomial order."""

    exit_code, prefix = EXIT_CONFIG, "configuration error: "


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

    exit_code, prefix = EXIT_CONFIG, "configuration error: "


class NoLocalMinError(SoblabError):
    """Cubic does not satisfy the local-minimum preconditions."""


class StepTooLargeError(SoblabError):
    """Flow integration step too large: the distance grew by more than 10%,
    or the RK4 increment left its Euler predictor by more than half."""

    exit_code, prefix = EXIT_NUMERIC, "numerical failure: "

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class PhiZeroError(SoblabError):
    """Landscape normalization requested where phi0 vanishes (theta = pi)."""

    exit_code, prefix = EXIT_NUMERIC, "numerical failure: "


class NanLossError(SoblabError):
    """Training loss became NaN."""

    exit_code, prefix = EXIT_NUMERIC, "numerical failure: "

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
