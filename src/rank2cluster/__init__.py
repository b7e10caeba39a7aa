"""Exact rank-2 cluster variables via maximal Dyck path combinatorics.

Computes the cluster variables of the rank-2 cluster algebra with exchange
exponent r as manifestly positive Laurent polynomials, together with
F-polynomials, g-vectors, and Euler-characteristic tables, all cross-checked
against an independent recursion oracle.
"""

from .caps import DEFAULT_CONFIG_BUDGET, DEFAULT_MAX_EXPONENT
from .cluster import (
    ClusterVariable,
    EulerTable,
    GVector,
    cluster_variable,
    euler_table,
    f_polynomial,
    g_vector,
    oracle,
    verify_range,
)
from .combinat import PiecePool, build_pool, generating_poly
from .dyck import (
    Color,
    ColoredSubpath,
    DimSequence,
    DyckPath,
    build_path,
    classify,
    dim_sequence,
)
from .errors import (
    ConfigBudgetError,
    ExponentOverflowError,
    NonExactDivisionError,
    PoleError,
    Rank2ClusterError,
)
from .laurent import LaurentPoly2

__version__ = "0.1.0"

__all__ = [
    "ClusterVariable",
    "Color",
    "ColoredSubpath",
    "ConfigBudgetError",
    "DEFAULT_CONFIG_BUDGET",
    "DEFAULT_MAX_EXPONENT",
    "DimSequence",
    "DyckPath",
    "EulerTable",
    "ExponentOverflowError",
    "GVector",
    "LaurentPoly2",
    "NonExactDivisionError",
    "PiecePool",
    "PoleError",
    "Rank2ClusterError",
    "build_path",
    "build_pool",
    "classify",
    "cluster_variable",
    "dim_sequence",
    "euler_table",
    "f_polynomial",
    "g_vector",
    "generating_poly",
    "oracle",
    "verify_range",
]
