"""Exception types shared across the package.

Each class corresponds to one failure mode of the computation pipeline.
"""

from __future__ import annotations


class Rank2ClusterError(Exception):
    """Base class for all package-specific errors."""


class NonExactDivisionError(Rank2ClusterError):
    """Laurent-polynomial division left a nonzero remainder.

    In the recursion pipeline this would falsify the Laurent phenomenon,
    so it always indicates an upstream bug.
    """


class PoleError(Rank2ClusterError):
    """Evaluation raised a zero base to a negative exponent."""


class ExponentOverflowError(Rank2ClusterError):
    """A dimension value or exponent exceeded the configured cap."""


class ConfigBudgetError(Rank2ClusterError):
    """The aggregation step count exceeds the budget."""


class GridSizeError(Rank2ClusterError):
    """A path output would exceed its cap: the ASCII character grid, or the path itself."""
