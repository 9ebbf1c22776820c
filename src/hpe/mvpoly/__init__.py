"""Sparse multivariate polynomials, univariate root finding, and F_q linear algebra."""

from . import linalg, upoly
from .linalg import Solution, nullspace
from .multipoly import MultiPoly

__all__ = [
    "MultiPoly",
    "Solution",
    "linalg",
    "nullspace",
    "upoly",
]
