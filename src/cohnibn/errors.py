"""Exception hierarchy shared across the package."""


class CohnIbnError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(CohnIbnError):
    """Invalid graph input."""


class DuplicateNameError(GraphError):
    """A vertex or edge name occurs more than once."""


class DanglingEdgeError(GraphError):
    """An edge endpoint names a vertex that does not exist."""


class EmptyGraphError(GraphError):
    """The graph has no vertices.

    The unital algebras considered here need at least one vertex; every
    downstream decision would degenerate on the zero ring.
    """


class NotRegularError(GraphError):
    """A vertex set that must consist of regular vertices does not."""


class OutOfRangeError(CohnIbnError):
    """A number outside the range the package accepts.

    Raised for family parameters outside 1 <= m <= n, for an element whose
    total coefficient exceeds 2**62, for a ``max_total_coefficient`` above
    2**62, and for a ``find_scalar_witness`` step below 1.
    """


class LengthMismatchError(CohnIbnError):
    """A coefficient vector does not match the generator count."""


class ZeroElementError(CohnIbnError):
    """Equivalence search is only defined for nonzero monoid elements."""


class InternalInvariantViolation(CohnIbnError):
    """An outcome the underlying theory rules out; indicates a bug."""


class GraphParseError(CohnIbnError):
    """A graph file could not be parsed.

    Carries a line number (1-based) when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownExampleError(CohnIbnError):
    """Requested built-in example does not exist."""
