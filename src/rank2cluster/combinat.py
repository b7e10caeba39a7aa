"""Families of non-overlapping subpaths and their generating polynomial.

The pieces of a path are its classified subpaths (one per vertex pair
i < k, collected by ``build_pool``) and its single edges.  A *family* is a
finite set of pieces subject to three rules:

1. elements are pairwise edge-disjoint;
2. two colored elements never chain: the start index of one never equals the
   end index of another;
3. every green element needs support: at least one edge of its window must
   be covered by some other element of the family.

``generating_poly`` computes the exact bivariate generating polynomial

    sum over families of  y1^(total edges) * y2^(sum of k-i over colored)

without materializing the families.  Every rule is local along the path:
elements are intervals of edges, a chain can only join a colored element
ending at edge p to a blue or green one starting at edge p+1, and a green
element's window ends right before it.  So one left-to-right scan over the
edges carries all families at once, remembering only how far back the last
covered edge lies and whether a colored element ends at the current edge.
Its cost is polynomial in the path size, and ``check_budget`` refuses a
cell whose ``scan_steps`` exceed ``config_budget`` before its path is built.
The family count is exponential in the edge count (every subset of single
edges is a family), so the aggregated route is the only scalable one.  The
brute-force family stream that checks it lives with the test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_CONFIG_BUDGET
from .dyck import Color, ColoredSubpath, DimSequence, DyckPath, _classify_with_first
from .dyck import first_exceeding_by_vertex, green_table
from .errors import ConfigBudgetError
from .laurent import LaurentPoly2


@dataclass(frozen=True, slots=True)
class PiecePool:
    """The classified subpaths of a path, one per vertex pair i < k."""

    colored: tuple[ColoredSubpath, ...]


def build_pool(path: DyckPath) -> PiecePool:
    """Classify every vertex pair i < k: exactly C(height+1, 2) colored subpaths."""
    firsts, greens = first_exceeding_by_vertex(path), green_table(path)
    return PiecePool(colored=tuple(
        _classify_with_first(path, greens, i, k, firsts[i])
        for i in range(path.height) for k in range(i + 1, path.height + 1)
    ))


def _longest_window(r: int, n: int, dims: DimSequence) -> int:
    """The longest window g of ``green_table``, or 1 without greens, before any path exists.

    A window has d(m-1) - w*d(m-2) edges with 3 <= m <= n-2 and w >= 1, so
    m = n-2, w = 1 is the largest: d(k) - d(k-1) never decreases when r >= 2.
    There are no greens when r = 2 or n <= 4.
    """
    if r < 3 or n < 5:
        return 1
    return dims.value(n - 3) - dims.value(n - 4)


def scan_steps(r: int, n: int, dims: DimSequence) -> int:
    """Steps of the edge scan for (r, n), from d(1)..d(n-1) alone.

    Each of the E = d(n-1) edges merges 2g+5 rows (g the longest green window)
    and each of the h(h+1)/2 colored elements one more (h = d(n-2)); a merge
    adds at most h+1 weights of E+1 slots each.
    """
    n_edges, height = dims.value(n - 1), dims.value(n - 2)
    merges = (2 * _longest_window(r, n, dims) + 5) * n_edges + height * (height + 1) // 2
    return merges * (height + 1) * (n_edges + 1)


def check_budget(r: int, n: int, dims: DimSequence, config_budget: int) -> None:
    """Raise ``ConfigBudgetError`` when ``scan_steps`` exceed ``config_budget``."""
    if (steps := scan_steps(r, n, dims)) > config_budget:
        raise ConfigBudgetError(f"(r={r}, n={n}) needs {steps} aggregation steps, "
                                f"above the budget {config_budget}")


def _accumulate(
    dest: dict[int, int], src: dict[int, int], weight1: int = 0, shift: int = 0
) -> dict[int, int]:
    """Add the rows of ``src``, times y2^weight1 and shifted ``shift`` bits, into ``dest``."""
    for w, packed in src.items():
        key = w + weight1
        dest[key] = dest[key] + (packed << shift) if key in dest else packed << shift
    return dest


def generating_poly(path: DyckPath, config_budget: int = DEFAULT_CONFIG_BUDGET) -> LaurentPoly2:
    """Exact generating polynomial sum(y1^weight2 * y2^weight1) over families.

    Scans the edges left to right, over the partial families of edges 1..p.
    Those in which a colored element ends at edge p sit in ``marker``; the
    others sit in ``near[L]`` when their last covered edge lies fewer than L
    edges back, for 1 <= L <= g and the longest green window g, and all of
    them in ``near[g+1]``.  Edge p+1 is then left free, taken as a single
    edge, or is the first edge of a colored element that carries its family
    to ``marker`` at the element's last edge.  A red element may follow any
    family, a blue one only those in ``near[g+1]`` (rule 2), and a green one
    with an L-edge window only those in ``near[L]`` (rules 2 and 3).

    A row maps weight1 to an int that packs the coefficients of y1^0, y1^1,
    ... in fixed-width slots, so the scan only adds and shifts.  Its
    ``scan_steps`` are checked against ``config_budget`` before the pool is
    built; a larger count raises ``ConfigBudgetError``.
    """
    check_budget(path.r, path.n, path.dims, config_budget)
    n_edges = path.n_edges
    top = _longest_window(path.r, path.n, path.dims) + 1
    starting: dict[int, list[ColoredSubpath]] = {}
    for c in build_pool(path).colored:
        starting.setdefault(c.edge_span[0], []).append(c)
    # A family labels each edge free, single, inside an element, or first edge
    # of one of the at most two colored elements that share a span, so no
    # coefficient reaches 5**n_edges and the slots never carry into each other.
    width = (5**n_edges).bit_length()

    near: list[dict[int, int]] = [{} for _ in range(top)] + [{0: 1}]
    marker: dict[int, int] = {}
    arriving: dict[int, dict[int, int]] = {}  # rows of colored elements ending at a later edge
    for p in range(n_edges):
        every = _accumulate(dict(near[top]), marker)
        for c in starting.get(p + 1, ()):
            if c.color is Color.RED:
                source = every
            elif c.window is not None:
                source = near[len(c.window_edges())]
            else:
                source = near[top]
            _accumulate(arriving.setdefault(c.edge_span[1], {}), source, c.weight1, c.edge_count * width)
        # Taking edge p+1 as a single edge puts a family in every near[L].
        # Leaving it free puts a family one edge further from its last covered
        # edge: the ``marker`` rows join near[L] from L = 2 on, near[L-1]
        # moves up to near[L], and near[g+1] keeps its rows.
        single = _accumulate({}, every, shift=width)
        close = _accumulate(dict(single), marker)
        near = [{}, single] + [_accumulate(dict(close), row) for row in near[1 : top - 1] + near[top:]]
        marker = arriving.pop(p + 1, {})

    total = _accumulate(dict(near[top]), marker)
    mask = (1 << width) - 1
    return LaurentPoly2._canonical({
        (e, w1): coeff
        for w1, packed in total.items()
        for e in range(n_edges + 1)
        if (coeff := (packed >> e * width) & mask)
    })
