"""Companion pencils, generalized standard triples, algebraic linearizations and
strict equivalence to the monomial pencil for regular matrix polynomials in
monomial, orthogonal, Newton, Bernstein and Hermite bases (Lagrange is the
Hermite basis with every confluency 1), with eigenvalues from LAPACK (through
numpy) and a self-contained dense complex QR solver kept as the reference."""

from .algebraic import build_algebraic, composed_triple, verify_algebraic
from .bases import (
    Basis,
    Bernstein,
    ChebyshevT,
    CustomThreeTerm,
    Hermite,
    Lagrange,
    LegendreP,
    Monomial,
    Newton,
    ShiftedMonomial,
    Taylor,
    ThreeTermBasis,
    barycentric_weights,
    node_polynomial,
    null_vector_basis_matrix,
    one_coefficients,
)
from .eigen import (
    EigenResult,
    eig,
    eigen_residual,
    generalized_eigenvalues,
    hessenberg,
    qr_eigenvalues,
)
from .equivalence import (
    TO_MONOMIAL,
    EquivalencePair,
    equivalence_degree_graded,
    equivalence_lagrange,
    monomial_form,
    verify_equivalence,
)
from .errors import (
    BadConfluencyError,
    DimensionMismatchError,
    DocumentError,
    DuplicateNodesError,
    GradeTooSmallError,
    NoConvergenceError,
    NonFiniteError,
    PolyPencilError,
    SingularC0Error,
    SingularMatrixError,
    SingularPencilError,
    SingularPencilEverywhereError,
    UnsupportedBasisError,
)
from .matpoly import MatrixPolynomial, evaluate
from .pencils import (
    CompanionPencil,
    build,
    build_bernstein,
    build_hermite,
    build_lagrange,
    build_three_term,
)
from .triples import (
    GeneralizedStandardTriple,
    flip_triple,
    make_triple,
    resolvent,
    sample_points,
    sample_resolvents,
    similarity_triple,
    transpose_triple,
    verify_triple,
)

__version__ = "0.1.0"
