"""Families of non-overlapping subpaths and their generating polynomial.

The piece pool of a path consists of every classified subpath (one per
vertex pair i < k) together with every single edge.  A *family* is a finite
subset of the pool subject to three rules:

1. elements are pairwise edge-disjoint;
2. two colored elements never chain: the start index of one never equals the
   end index of another;
3. every green element needs support: at least one edge of its window must
   be covered by some other element of the family.

``generating_poly`` computes the exact bivariate generating polynomial

    sum over families of  y1^(total edges) * y2^(sum of k-i over colored)

without materializing the families: it backtracks over sets of pairwise
compatible colored elements only (all 2^height of them), and folds the free
single edges in closed form, with an inclusion-exclusion correction over the
unsupported green windows.  The family count is exponential in the edge
count (every subset of single edges is a family), so the aggregated route is
the only scalable one.  The brute-force family stream that checks it lives
with the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .caps import DEFAULT_CONFIG_BUDGET
from .dyck import ColoredSubpath, DyckPath, _classify_with_first, first_exceeding_by_vertex
from .errors import ConfigBudgetError
from .laurent import LaurentPoly2


@dataclass(frozen=True, slots=True)
class PiecePool:
    """All candidate family members: classified subpaths plus single edges."""

    colored: tuple[ColoredSubpath, ...]
    singles: tuple[int, ...]


def build_pool(path: DyckPath) -> PiecePool:
    """Classify every vertex pair i < k and collect the single edges.

    Yields exactly C(height+1, 2) colored subpaths and n_edges singles.
    """
    firsts = first_exceeding_by_vertex(path)
    colored = []
    for i in range(path.height):
        t_star = firsts[i]
        for k in range(i + 1, path.height + 1):
            first = t_star if (t_star is not None and t_star <= k) else None
            colored.append(_classify_with_first(path, i, k, first))
    return PiecePool(colored=tuple(colored), singles=tuple(range(1, path.n_edges + 1)))


def _edge_mask(span: tuple[int, int]) -> int:
    lo, hi = span
    return ((1 << (hi - lo + 1)) - 1) << (lo - 1)


def _prepare_masks(colored: tuple[ColoredSubpath, ...]) -> tuple[list[int], list[int], list[int]]:
    """Per-element edge masks, window masks, and allowed-successor masks.

    ``allow[j]`` keeps only elements with index > j that neither share an edge
    with element j nor clash with it at an endpoint, so the backtracker can
    extend a configuration with a single bitwise AND.
    """
    m = len(colored)
    edge_masks = [_edge_mask(c.edge_span) for c in colored]
    window_masks = [_edge_mask(c.window) if c.window is not None else 0 for c in colored]
    allow = []
    for j, cj in enumerate(colored):
        mask = 0
        for j2 in range(j + 1, m):
            c2 = colored[j2]
            if edge_masks[j] & edge_masks[j2]:
                continue
            if cj.i == c2.k or cj.k == c2.i:
                continue
            mask |= 1 << j2
        allow.append(mask)
    return edge_masks, window_masks, allow


def generating_poly(
    path: DyckPath,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
    _element_key: Callable[[ColoredSubpath], object] | None = None,
) -> LaurentPoly2:
    """Exact generating polynomial sum(y1^weight2 * y2^weight1) over families.

    Backtracks over compatible sets S of colored elements; each S contributes

        y1^edges(S) * y2^weight1(S) *
            sum over subsets T of the unsupported greens of
                (-1)^|T| * (1 + y1)^(free(S) - |union of T's windows|)

    where free(S) counts the edges S leaves uncovered.  The inner sum forces
    at least one chosen single edge inside every unsupported window.  The
    configuration count is exactly 2^height; budgets above that raise
    ``ConfigBudgetError`` before any work happens.

    ``_element_key`` reorders the backtracking elements (testing hook; the
    result is order-independent).
    """
    configs = 1 << path.height
    if configs > config_budget:
        raise ConfigBudgetError(
            f"(r={path.r}, n={path.n}) needs {configs} configurations, "
            f"above the budget {config_budget}"
        )
    pool = build_pool(path)
    colored = pool.colored
    if _element_key is not None:
        colored = tuple(sorted(colored, key=_element_key))
    edge_masks, window_masks, allow = _prepare_masks(colored)
    n_edges = path.n_edges
    edge_counts = [c.edge_count for c in colored]
    weights = [c.weight1 for c in colored]

    # tally[(w1, e, u)] accumulates signed configuration counts, where u is
    # the size of a window union subtracted from the free-edge exponent.
    tally: dict[tuple[int, int, int], int] = {}

    def visit(candidates: int, covered: int, e: int, w1: int, greens: tuple[int, ...]) -> None:
        unsupported = [wm for wm in greens if not wm & covered]
        if not unsupported:
            key = (w1, e, 0)
            tally[key] = tally.get(key, 0) + 1
        else:
            for pick in range(1 << len(unsupported)):
                union = 0
                sign = 1
                p = pick
                while p:
                    low = p & -p
                    union |= unsupported[low.bit_length() - 1]
                    sign = -sign
                    p ^= low
                key = (w1, e, union.bit_count())
                tally[key] = tally.get(key, 0) + sign
        c = candidates
        while c:
            low = c & -c
            j = low.bit_length() - 1
            c ^= low
            wmask = window_masks[j]
            visit(
                candidates & allow[j],
                covered | edge_masks[j],
                e + edge_counts[j],
                w1 + weights[j],
                greens + (wmask,) if wmask else greens,
            )

    visit((1 << len(colored)) - 1, 0, 0, 0, ())

    acc: dict[tuple[int, int], int] = {}
    for (w1, e, u), count in tally.items():
        if not count:
            continue
        remaining = n_edges - e - u
        for j in range(remaining + 1):
            exps = (e + j, w1)
            acc[exps] = acc.get(exps, 0) + count * math.comb(remaining, j)
    return LaurentPoly2(acc)
