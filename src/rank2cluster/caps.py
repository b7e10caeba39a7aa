"""Resource caps with safe defaults.

Heavy operations take these as keyword arguments and check them from
d(1)..d(n) before any work starts; the CLI exposes them as flags.  They bound
the formula engine's scan and every exponent; the r = 1 oracle walk needs no
cap, as its period bounds it to five steps.  Not bounded: the oracle's cost
at r >= 2, and the character grid of ``path --ascii``, which ``max_exponent``
limits only through d(n-1).
"""

# Largest exponent magnitude allowed: x_n is refused when d(n) exceeds it.
DEFAULT_MAX_EXPONENT = 10**6

# Largest number of steps the aggregator's edge scan may take, counted from
# d(1)..d(n-1) before the path is built.
DEFAULT_CONFIG_BUDGET = 10**8
