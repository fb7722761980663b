"""Exception types shared across the package.

Each error carries a stable ``code`` slug.  The command line interface
prints the slug and maps every one of these to exit status 2, keeping
"bad input or violated contract" distinct from internal failures.
"""


class DulacError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class DimensionMismatchError(DulacError):
    code = "dimension-mismatch"


class TruncationOrderError(DulacError):
    """Requested order is below 2 or exceeds what the input data supports."""

    code = "truncation-order"


class NonDiagonalLinearPartError(DulacError):
    """The operation needs a diagonal linear part, with no constant term."""

    code = "non-diagonal-linear-part"


class SingularLinearPartError(DulacError):
    code = "singular-linear-part"


class NotInNormalFormError(DulacError):
    """The input field does not commute with its own linear part."""

    code = "not-in-normal-form"


class BudgetExceededError(DulacError):
    code = "enumeration-budget-exceeded"


class DegenerateEigenvaluesError(DulacError):
    """Repeated (or otherwise inadmissible) eigenvalues where the
    bifurcation test matrix requires distinct ones.  Degenerate spectra
    need a case-by-case analysis that this tool does not automate."""

    code = "degenerate-eigenvalues"


class ParameterCountError(DulacError):
    """A parameter family must have exactly n - 1 parameters to build
    the n x n bifurcation test matrix."""

    code = "parameter-count"


class InputFormatError(DulacError):
    """Malformed input file; the message names the offending field."""

    code = "input-format"


class ScalarParseError(InputFormatError):
    code = "scalar-parse"
