"""Exception hierarchy shared by all soblab modules: one class per
command-line exit code, each carrying its code and message prefix.

InputError (2) is an input file or point cloud that cannot be used;
ConfigError (3) a setting or argument outside its domain; NumericalError
(4) a computation that failed on valid input, with StepTooLargeError for
a flow step the guard rejects.  The base SoblabError exits 4 with no
prefix.
"""

EXIT_PARSE, EXIT_CONFIG, EXIT_NUMERIC = 2, 3, 4


class SoblabError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, prefix = EXIT_NUMERIC, ""


class InputError(SoblabError):
    """A point cloud or its CSV file is empty, malformed or has duplicate points."""

    exit_code, prefix = EXIT_PARSE, "input error: "


class ConfigError(SoblabError):
    """A setting or argument violates its invariants (e.g. K < basis size)."""

    exit_code, prefix = EXIT_CONFIG, "configuration error: "


class NumericalError(SoblabError):
    """A computation on valid input failed (a singular fit, a non-finite loss)."""

    exit_code, prefix = EXIT_NUMERIC, "numerical failure: "


class StepTooLargeError(NumericalError):
    """Flow integration step too large: the distance grew by more than 10%,
    became non-finite, or the RK4 increment left its Euler predictor by
    more than half."""

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = step_index

    def __reduce__(self):  # pickled with its step, as a forked flow returns it
        return type(self), (str(self), self.step_index)
