"""Exception hierarchy shared by all modules."""


class IndecompError(Exception):
    """Base class for all library errors."""


class IllegalParameter(IndecompError, ValueError):
    """A family parameter outside its legal range."""


class NotTotallyReal(IndecompError, ValueError):
    """Cubic polynomial without three real roots."""


class Reducible(IndecompError, ValueError):
    """Cubic polynomial with a rational root."""


class FieldMismatch(IndecompError, ValueError):
    """Operands live in different fields."""


class ZeroElement(IndecompError, ValueError):
    """Operation undefined for the zero element."""


class NotGalois(IndecompError, ValueError):
    """Conjugation requested for a non-Galois family."""


class NotAUnit(IndecompError, ValueError):
    """Inverse requested for an element of norm other than +-1."""


class NonIntegralTrace(IndecompError, ArithmeticError):
    """Internal consistency failure: a codifferent trace came out non-integral."""


class UnsupportedFamily(IndecompError, ValueError):
    """Operation only defined for some families."""


class OutOfTriangle(IndecompError, ValueError):
    """Index pair outside the triangle of indecomposables."""


class OutOfDomain(IndecompError, ValueError):
    """Rotation applied to a point outside its domain."""


class OutOfRange(IndecompError, ValueError):
    """Index pair outside the decomposable strip."""


class DegenerateSpan(IndecompError, ValueError):
    """Parallelepiped generators or HNF input rows are linearly dependent."""


class UnboundedRegion(IndecompError, ValueError):
    """Search constraints do not define a bounded region."""


class IndexOutOfRange(IndecompError, ValueError):
    """Semiconvergent index outside its legal range."""


class NotSquarefree(IndecompError, ValueError):
    """Quadratic field parameter D must be squarefree."""


class CertificateFailure(IndecompError, ArithmeticError):
    """A trace certificate failed its defining checks."""


class BoundTooLarge(IndecompError, ValueError):
    """Norm-count bound X exceeds the supported range."""


class GuardExceeded(IndecompError, ValueError):
    """Brute-force guard on parameters exceeded."""


class IllegalRank(IndecompError, ValueError):
    """Lattice rank outside the supported range."""


class DescentStuck(IndecompError, ArithmeticError):
    """Greedy decomposition into indecomposables found no subtractable part."""


class RefinementLimit(IndecompError, ArithmeticError):
    """Root-interval refinement hit its hard cap (never expected for legal input)."""


class ConsistencyError(IndecompError, ArithmeticError):
    """An internal self-check failed: a library defect, never a bad input."""
