"""Exact link invariants of braid closures from N-state vertex models.

The package computes closed-form polynomial invariants (N = 2 gives the
Jones polynomial) from exact R-matrices, and mechanically verifies every
algebraic identity the construction rests on: Yang-Baxter, twist
equations, Markov trace conditions, minimal polynomials, skein relations,
Temperley-Lieb relations and the quantum-group correspondence.
"""

from ._kernel import kernel_name
from .errors import (
    BadLetter,
    ClosedFormMismatch,
    ConventionValidationFailed,
    DimensionMismatch,
    DomainError,
    InexactDivision,
    MinPolyViolated,
    NoSolution,
    NotDecomposable,
    NotScalar,
    UnsupportedN,
    VertexLinkError,
)

__version__ = "0.1.0"

__all__ = [
    "kernel_name",
    "VertexLinkError",
    "DomainError",
    "InexactDivision",
    "DimensionMismatch",
    "MinPolyViolated",
    "BadLetter",
    "UnsupportedN",
    "ConventionValidationFailed",
    "NoSolution",
    "ClosedFormMismatch",
    "NotDecomposable",
    "NotScalar",
    "__version__",
]
