"""Cluster variables, F-polynomials, g-vectors, and Euler tables.

The sequence of cluster variables is defined for every integer index by

    x_{m+1} = (x_m^r + 1) / x_{m-1},      x_1, x_2 the initial variables.

Two independent routes compute the same expansions:

* ``oracle`` iterates the recursion with exact Laurent division (forward for
  indices above 2, backward below 1).  Exact division doubles as a built-in
  Laurentness assertion.  ``_walk`` writes the recursion step once; the
  oracle takes one value from it.
* ``cluster_variable`` assembles the expansion from the Dyck-path generating
  polynomial of x_n, n = max(index, 3 - index) >= 3, and mirrors it through
  ``swap_vars`` for indices <= 0.  Indices 1 and 2 return the generators.

``verify_range`` sweeps both routes against each other and is the package's
own correctness gate.  It opens one walk up and one walk down per r and
advances them cell by cell, so a sweep to n = N pays for x_N once.  The
combinatorial route requires r >= 2; r = 1 (the five-periodic case) is
supported by the oracle only.

Both routes admit a cell from d(1)..d(n) before any path, pool or recursion
step exists: ``max_exponent`` caps d(n), x_n's largest exponent, and
``config_budget`` caps the formula route's ``combinat.scan_steps``.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .caps import DEFAULT_CONFIG_BUDGET, DEFAULT_MAX_EXPONENT
from .combinat import check_budget, generating_poly
from .dyck import DimSequence, build_path, dim_sequence
from .errors import ConfigBudgetError, ExponentOverflowError
from .carried import _Carried, _carry
from .laurent import LaurentPoly2, _decode, _step


@dataclass(frozen=True, slots=True)
class ClusterVariable:
    r: int
    index: int
    value: LaurentPoly2


@dataclass(frozen=True, slots=True)
class GVector:
    g1: int
    g2: int

    def __str__(self) -> str:
        return f"({self.g1}, {self.g2})"


@dataclass(frozen=True, slots=True)
class EulerTable:
    """Euler characteristics of subrepresentation varieties, dense with zeros.

    ``sign`` selects which of the two indecomposables the table describes:
    "positive" for the one with dimension vector (d(n-1), d(n-2)), "negative"
    for its transpose-dimension partner at the mirrored index.
    """

    r: int
    n: int
    sign: str
    max_e1: int
    max_e2: int
    entries: dict[tuple[int, int], int]

    def to_csv(self) -> str:
        lines = ["e1,e2,chi"]
        for e1 in range(self.max_e1 + 1):
            for e2 in range(self.max_e2 + 1):
                lines.append(f"{e1},{e2},{self.entries[(e1, e2)]}")
        return "\n".join(lines) + "\n"


def _admit(r: int, index: int, max_exponent: int) -> DimSequence:
    """d(1)..d(n) for x_index, n = index or 3 - index; refused when d(n) > max_exponent.

    x_n has denominator x1^d(n-1) x2^d(n-2) and g-vector (-d(n-1), d(n)), so
    d(n) is its largest exponent.  Raises ``ValueError`` when r < 2.
    """
    return dim_sequence(r, max(index, 3 - index), max_exponent=max_exponent)


def _walk(r: int, downward: bool) -> Iterator[_Carried]:
    """x_3, x_4, ... (x_0, x_-1, ... when ``downward``), one recursion step per
    value, each carried packed (``carried._Carried``; ``laurent._decode``
    turns one into a polynomial).

    Holds only the last two values.  Downward, x_{m-1} = (x_m^r + 1) / x_{m+1}:
    the same recursion started from (x2, x1) instead of (x1, x2).  Each step
    is ``laurent._step``, which packs x_m^r + 1 once and hands its quotient
    to the next step still packed, so no value is decoded inside the walk.
    """
    prev, cur = _carry({(1, 0): 1}), _carry({(0, 1): 1})  # x1, x2
    if downward:
        prev, cur = cur, prev
    while True:
        prev, cur = cur, _step(prev, cur, r)
        yield cur


def oracle(r: int, index: int, max_exponent: int = DEFAULT_MAX_EXPONENT) -> LaurentPoly2:
    """Exact Laurent expansion of x_index: step index - 2 (or 1 - index) of one
    ``_walk``, the one value of the walk that is decoded.

    Works for any r >= 1 and any integer index, in both directions.  A
    non-exact division cannot happen (it would falsify the Laurent
    phenomenon) and would surface as ``NonExactDivisionError``.  The largest
    exponent, d(n) for r >= 2 and 1 for r = 1, is capped before the first step.
    At r = 1 the sequence is five-periodic, so the walk takes at most five steps.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if index >= 2:
        value, steps = LaurentPoly2.var2(), index - 2
    else:
        value, steps = LaurentPoly2.var1(), 1 - index
    if r >= 2:
        _admit(r, index, max_exponent)
    elif steps and max_exponent < 1:
        raise ExponentOverflowError(f"exponent magnitude 1 exceeds the cap {max_exponent} (r=1)")
    else:
        steps = (steps - 1) % 5 + 1 if steps else 0  # r = 1 is five-periodic
    walked = None
    for walked in islice(_walk(r, downward=index < 2), steps):
        pass
    return value if walked is None else _decode(walked)


@lru_cache(maxsize=128)
def _generating_poly_cached(
    r: int, n: int, config_budget: int, max_exponent: int
) -> tuple[LaurentPoly2, int, int]:
    """Generating polynomial of x_n (n >= 3) and its box sides d(n-1), d(n-2)."""
    dims = _admit(r, n, max_exponent)
    check_budget(r, n, dims, config_budget)
    gen = generating_poly(build_path(r, n, max_exponent=max_exponent), config_budget=config_budget)
    return gen, dims.value(n - 1), dims.value(n - 2)


def cluster_variable(
    r: int,
    index: int,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
    max_exponent: int = DEFAULT_MAX_EXPONENT,
) -> ClusterVariable:
    """Cluster variable at any integer index via the combinatorial formula.

    Requires r >= 2.  Indices 1 and 2 are the generators.  For n >= 3 a
    family (weight1, weight2) of the path for (r, n) contributes
    x1^(r*weight1 - d(n-1)) * x2^(r*(d(n-1) - weight2) - d(n-2)) to x_n, and
    x_(3-n) is the variable swap of x_n.
    """
    _admit(r, index, max_exponent)
    if index in (1, 2):
        value = LaurentPoly2.var1() if index == 1 else LaurentPoly2.var2()
    else:
        n = max(index, 3 - index)
        gen, e_total, h_total = _generating_poly_cached(r, n, config_budget, max_exponent)
        value = LaurentPoly2._canonical({  # one-to-one, as r >= 2
            (r * w1 - e_total, r * (e_total - w2) - h_total): count
            for (w2, w1), count in gen._terms.items()
        })
        if index <= 0:
            value = value.swap_vars()
    return ClusterVariable(r=r, index=index, value=value)


def g_vector(r: int, index: int, max_exponent: int = DEFAULT_MAX_EXPONENT) -> GVector:
    """g-vector of x_index.

    Indices n >= 3 give (-d(n-1), d(n)), so (-1, r) at index 3; indices <= 0
    give (-d(n-2), d(n-3)) with n = 3 - index, written r*d(n-2) - d(n-1), so
    (0, -1) at index 0.  Indices 1 and 2 return the standard convention
    (1, 0) and (0, 1) for the initial cluster (a convention, not part of the
    expansion formulas).
    """
    dims = _admit(r, index, max_exponent)
    if index == 1:
        return GVector(1, 0)
    if index == 2:
        return GVector(0, 1)
    if index >= 3:
        return GVector(-dims.value(index - 1), dims.value(index))
    n = 3 - index
    return GVector(-dims.value(n - 2), r * dims.value(n - 2) - dims.value(n - 1))


def f_polynomial(
    r: int,
    index: int,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
    max_exponent: int = DEFAULT_MAX_EXPONENT,
) -> LaurentPoly2:
    """F-polynomial of x_index in the variables (y1, y2); constant term 1.

    Defined for index >= 3 or index <= 0 (the initial cluster has no
    F-polynomial here).  For n >= 3 the positive-index polynomial is
    sum(y1^weight2 * y2^weight1) over families, which is exactly the
    generating polynomial; the mirrored index 3 - n takes each family to
    y1^(d(n-2) - weight1) * y2^(d(n-1) - weight2), the statistics reflected
    within the bounding rectangle with the variables swapped.
    """
    _admit(r, index, max_exponent)
    if index in (1, 2):
        raise ValueError("F-polynomials are defined for index >= 3 or index <= 0")
    n = max(index, 3 - index)
    gen, e_total, h_total = _generating_poly_cached(r, n, config_budget, max_exponent)
    if index >= 3:
        return gen
    return LaurentPoly2._canonical({  # a reflection: one-to-one
        (h_total - w1, e_total - w2): count for (w2, w1), count in gen._terms.items()
    })


def euler_table(
    r: int,
    n: int,
    sign: str = "positive",
    config_budget: int = DEFAULT_CONFIG_BUDGET,
    max_exponent: int = DEFAULT_MAX_EXPONENT,
) -> EulerTable:
    """Euler-characteristic table of the subrepresentation varieties, n >= 3.

    Entry (e1, e2) is the coefficient of y1^e2 y2^e1 in an F-polynomial.
    Positive sign: that of x_(3-n), the count of families with weight1 =
    d(n-2) - e2 and weight2 = d(n-1) - e1, over the full rectangle
    [0, d(n-1)] x [0, d(n-2)].  Negative sign: that of x_n, the count of
    families with weight1 = e1 and weight2 = e2, over the transposed rectangle.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if sign not in ("positive", "negative"):
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}")
    dims = _admit(r, n, max_exponent)
    e_total, h_total = dims.value(n - 1), dims.value(n - 2)
    if sign == "positive":
        index, max_e1, max_e2 = 3 - n, e_total, h_total
    else:
        index, max_e1, max_e2 = n, h_total, e_total
    terms = f_polynomial(r, index, config_budget, max_exponent)._terms
    entries = {
        (e1, e2): terms.get((e2, e1), 0)
        for e1 in range(max_e1 + 1)
        for e2 in range(max_e2 + 1)
    }
    return EulerTable(r=r, n=n, sign=sign, max_e1=max_e1, max_e2=max_e2, entries=entries)


def verify_range(
    r_max: int | None,
    sum_cap: int,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
    max_exponent: int = DEFAULT_MAX_EXPONENT,
) -> list[dict]:
    """Sweep formula vs. oracle for all 2 <= r <= r_max, 4 <= n, r + n <= sum_cap.

    Each cell checks exact equality of the formula expansion against the
    recursion at index n AND at the mirrored index 3 - n (whose formula is
    the variable swap of the first).  Per r, one walk up and one walk down
    (``_walk``, independent recursions) advance with n, so each cell pays
    only the steps from the last admitted cell to x_n and x_(3-n).  Cells
    whose aggregation step count exceeds the budget, or whose exponents
    exceed the cap, are reported as skipped, never silently dropped, and
    take no recursion step.  The walks carry their values packed and decode
    only the two each cell compares.  Rows come back sorted by (r, n) with
    status pass/fail/skipped; ``millis`` times the formula and the new steps.
    No cell has r > sum_cap - 4, so ``r_max`` is clamped there and a huge
    value costs nothing; ``r_max=None`` means sum_cap - 4.
    """
    last_r = sum_cap - 4 if r_max is None else min(r_max, sum_cap - 4)
    rows: list[dict] = []
    for r in range(2, last_r + 1):
        walks = zip(_walk(r, downward=False), _walk(r, downward=True))
        reached = 2  # the walks stand at x_reached and x_(3 - reached)
        for n in range(4, sum_cap - r + 1):
            start = time.perf_counter()
            try:
                up = cluster_variable(r, n, config_budget, max_exponent).value
                down = cluster_variable(r, 3 - n, config_budget, max_exponent).value
                for x_up, x_down in islice(walks, n - reached):
                    pass
                reached = n
                status = "pass" if (up, down) == (_decode(x_up), _decode(x_down)) else "fail"
            except (ConfigBudgetError, ExponentOverflowError):
                status = "skipped"
            millis = int((time.perf_counter() - start) * 1000)
            rows.append({"r": r, "n": n, "status": status, "millis": millis})
    return rows
