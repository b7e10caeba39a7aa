"""Resource caps with safe defaults.

Heavy operations take these as keyword arguments and check them before any
work starts, so scripts never hang by accident; the CLI exposes them as flags.
"""

from __future__ import annotations

import os

# Largest exponent magnitude allowed: x_n is refused when d(n) exceeds it.
DEFAULT_MAX_EXPONENT = 10**6

# Largest number of steps the aggregator's edge scan may take, counted from
# d(1)..d(n-1) before the path is built.
DEFAULT_CONFIG_BUDGET = 10**8

ENV_CONFIG_BUDGET = "CLUSTER_COMB_BUDGET"


def config_budget_from_env(default: int = DEFAULT_CONFIG_BUDGET) -> int:
    """Return the aggregation budget, honoring the override env var."""
    raw = os.environ.get(ENV_CONFIG_BUDGET)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_CONFIG_BUDGET} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_CONFIG_BUDGET} must be positive, got {value}")
    return value
