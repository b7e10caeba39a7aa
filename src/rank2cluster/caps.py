"""Resource caps with safe defaults.

Heavy operations take the first two as keyword arguments and check them from
d(1)..d(n) before any work starts; the CLI exposes them as flags.  They bound
the formula engine's scan and every exponent; the r = 1 oracle walk needs no
cap, as its period bounds it to five steps.  The character grid of ``path
--ascii`` has a fixed cap, checked from the path's box before the grid is
built, and so has the path of ``--json``, ``--svg`` and ``--tikz``, checked
from d(n-1) and d(n-2) before the path is built.  Not bounded: the oracle's
cost at r >= 2.
"""

# Largest exponent magnitude allowed: x_n is refused when d(n) exceeds it.
DEFAULT_MAX_EXPONENT = 10**6

# Largest number of steps the aggregator's edge scan may take, counted from
# d(1)..d(n-1) before the path is built.
DEFAULT_CONFIG_BUDGET = 10**8

# Largest (2*width+1) * (2*height+1) character grid ``render.ascii_path``
# builds.  (3,12) needs 43 228 347 cells (about 4.3 s and 408 MB peak RSS on
# a 2-core Linux host, Python 3.11.7); (4,10) needs 92 626 461 and is refused.
MAX_ASCII_CELLS = 5 * 10**7

# Largest d(n-1) + d(n-2), the path's edges plus its distinguished vertices,
# that ``path --json``, ``--svg`` and ``--tikz`` build.  Every path admitted at
# DEFAULT_MAX_EXPONENT fits: its d(n-1) is at most 10**6.  The largest,
# (2,1000002) with 1 999 999, takes 0.7 s and 82 MB peak RSS for --json,
# 1.6 s and 282 MB for --tikz and 3.6 s and 594 MB for --svg (medians of
# three runs through the CLI, 2-core Linux host, Python 3.11.7); with
# --overlay 999990,999999 it takes 1.7 s and 286 MB for --tikz and 3.7 s and
# 584 MB for --svg (medians of three runs, child ru_maxrss, same host), as
# the overlay's classification reads only v_999990..v_999999.  (2,1000003)
# is refused when --max-exponent admits it.
MAX_PATH_SIZE = 2 * 10**6
