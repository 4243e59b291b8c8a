"""Exception types raised across the package."""


class PolyPencilError(Exception):
    """Base class for all polypencil errors."""


class SingularMatrixError(PolyPencilError):
    """A matrix required to be nonsingular had an exactly zero pivot column."""


class SingularPencilError(PolyPencilError):
    """z*C1 - C0 was singular at the requested evaluation point."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


class NonFiniteError(SingularPencilError):
    """A pencil or a polynomial value overflowed: it holds an infinity or a NaN.

    ``z`` names the sample point whose value overflowed, when there is one.
    """


class SingularPencilEverywhereError(PolyPencilError):
    """No acceptable shift could be found; the pencil looks singular for all z."""


class SingularC0Error(PolyPencilError):
    """The constant term of the pencil is singular; the equivalence transform is undefined."""


class DuplicateNodesError(PolyPencilError):
    """Interpolation nodes must be pairwise distinct."""


class BadConfluencyError(PolyPencilError):
    """Confluency data must be positive and match the node list."""


class GradeTooSmallError(PolyPencilError):
    """The polynomial grade is below what the construction supports."""


class UnsupportedBasisError(PolyPencilError):
    """The operation is not defined for this basis variant."""


class DimensionMismatchError(PolyPencilError):
    """Block dimensions of the operands do not agree."""


class NoConvergenceError(PolyPencilError):
    """The eigenvalue iteration exhausted its sweep budget."""


class DocumentError(PolyPencilError):
    """A polynomial document failed schema validation."""

