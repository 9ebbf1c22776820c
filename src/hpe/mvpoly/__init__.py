"""Univariate root finding and F_q linear algebra."""

from . import linalg, upoly
from .linalg import Solution, nullspace

__all__ = [
    "Solution",
    "linalg",
    "nullspace",
    "upoly",
]
