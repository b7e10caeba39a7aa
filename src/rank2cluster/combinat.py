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
edges carries all families at once in two sums: ``top``, the families in
which no colored element ends at the current edge, and ``marker``, those in
which one does.  The elements from a vertex v_i are blue up to the first
vertex whose slope from v_i exceeds the diagonal and all of one color from
there on, so each v_i hands the scan at most two sources.  Each source is
written, signed and weighted, into one change map under the vertex where
it comes into reach and, for a blue one, under the vertex where it stops;
one running sum moves up a weight at each vertex, takes that vertex's
changes and is ``marker`` there.  A green source is ``top`` minus the
families whose covered edges all lie before its window, and that
correction goes into the map at the edge before the window, so no sum is
kept for later.  The scan makes two row merges per edge and at most five
per vertex, a cost polynomial in the path size; ``check_budget`` refuses a
cell whose ``scan_steps`` exceed ``config_budget`` before its path is
built.  The family count is exponential in the edge count (every subset of
single edges is a family), so the aggregated route is the only scalable
one.  The brute-force family stream that checks it lives with the test
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .caps import DEFAULT_CONFIG_BUDGET
from .dyck import DimSequence, DyckPath, _classify_with_first, _turns
from .errors import ConfigBudgetError
from .laurent import LaurentPoly2

if TYPE_CHECKING:
    from .dyck import ColoredSubpath


@dataclass(frozen=True, slots=True)
class PiecePool:
    """The classified subpaths of a path, one per vertex pair i < k."""

    colored: tuple[ColoredSubpath, ...]


def build_pool(path: DyckPath) -> PiecePool:
    """Classify every vertex pair i < k: exactly C(height+1, 2) colored subpaths."""
    turns = _turns(path)
    return PiecePool(colored=tuple(
        _classify_with_first(path, i, k, turns.get(i))
        for i in range(path.height) for k in range(i + 1, path.height + 1)
    ))


def scan_steps(r: int, n: int, dims: DimSequence) -> int:
    """Steps of the edge scan for (r, n), from d(1)..d(n-1) alone.

    Each of the E = d(n-1) edges merges 2 rows, and each of the h = d(n-2)
    vertices v_i, i < h, at most 5 into ``changes`` and ``running``: a blue
    source where it joins and where it leaves, a green source and its
    correction or a red source, and v_i's own changes into ``running``.
    The count keeps the 6 per vertex it was set with, so that no cell's
    admission changes.  A merge adds at most h+1 weights of E+1 slots.
    """
    n_edges, height = dims.value(n - 1), dims.value(n - 2)
    return (2 * n_edges + 6 * height) * (height + 1) * (n_edges + 1)


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


def _subtract(
    dest: dict[int, int], src: dict[int, int], weight1: int = 0, shift: int = 0
) -> dict[int, int]:
    """Subtract the rows of ``src``, times y2^weight1 and shifted ``shift`` bits, from ``dest``."""
    for w, packed in src.items():
        key = w + weight1
        dest[key] = dest[key] - (packed << shift) if key in dest else -(packed << shift)
    return dest


def _scan(
    path: DyckPath, turns: dict[int, tuple[int, tuple[int, int, int] | None]], width: int,
    step: int,
) -> dict[int, int]:
    """Rows of the families of ``path``: y2^(weight1 * step) -> their polynomial in y1 at 2**width.

    A row packs the coefficient of y1^e at bit e*width, so adding and
    shifting rows adds and multiplies polynomials.  Here y1 marks a free
    edge: an element adds no power of y1, and edge p+1, free or a single
    edge, turns ``every = top + marker`` into ``top = (1 + y1)*every``.

    ``turns = dyck._turns(path)`` maps v_i to (t, green) for the first v_t
    whose slope from v_i exceeds the diagonal: (i, k) is blue for k < t and
    from t on red if ``green`` is None, else green.  The families that reach
    v_k through an element (i, k) are ``running``, a sum over the v_i in
    reach of y2^(k-i) times a source: ``top`` at v_i for a blue element (no
    chain), ``every`` one edge before v_i for a red one, and for a green one
    with an L = green[2] edge window ``top`` minus y1^L times ``every`` from
    the edge before the window (the families whose covered edges all lie
    before the window, padded with L free edges).  ``running`` moves up
    y2^step at each vertex and takes ``changes[k]`` at v_k: the sources that
    come into reach there and, negated, the blue ones that stop there, each
    already weighted y2^(k-i).  Every term goes into ``changes`` at the edge
    where it is known, the green correction at the edge before the window,
    so no sum is kept for later.
    """
    height, v_index = path.height, path.v_index
    vertex_at = {e: j for j, e in enumerate(v_index)}
    # The edge before each green window -> (t, weight1, shift) of the green correction.
    corrections: dict[int, list[tuple[int, int, int]]] = {}
    for i, (t, green) in turns.items():
        if green is not None:
            corrections.setdefault(v_index[i] - green[2], []).append(
                (t, (t - i) * step, green[2] * width))

    top: dict[int, int] = {0: 1}
    marker: dict[int, int] = {}
    running: dict[int, int] = {}
    changes: dict[int, dict[int, int]] = {}
    for p in range(path.n_edges):
        every = _accumulate(dict(top), marker)
        for t, weight, shift in corrections.get(p, ()):
            _subtract(changes.setdefault(t, {}), every, weight, shift)
        if (i := vertex_at.get(p)) is not None:
            t, green = turns.get(i, (height + 1, None))
            if i + 1 < t:
                _accumulate(changes.setdefault(i + 1, {}), top, step)
                if t <= height:
                    _subtract(changes.setdefault(t, {}), top, (t - i) * step)
            if green is not None:
                _accumulate(changes.setdefault(t, {}), top, (t - i) * step)
        k = vertex_at.get(p + 1)
        if (turn := turns.get(k)) is not None and turn[1] is None:
            _accumulate(changes.setdefault(turn[0], {}), every, (turn[0] - k) * step)
        top = _accumulate(dict(every), every, shift=width)
        marker = {}
        if k is not None:
            running = marker = _accumulate(changes.pop(k, {}), running, step)
    return _accumulate(top, marker)


def generating_poly(path: DyckPath, config_budget: int = DEFAULT_CONFIG_BUDGET) -> LaurentPoly2:
    """Exact generating polynomial sum(y1^weight2 * y2^weight1) over families.

    Runs ``_scan`` twice on the same turns.  The first pass, at width 0 and
    step 0, evaluates at y1 = y2 = 1: one int row, the family count F.  The
    second keeps a row per weight1 and gives each power of y1 a slot of
    bits(F) bits, rounded up to whole bytes for decoding.

    Packing evaluates each row at y1 = 2**width, a ring homomorphism, so a
    packed sum, difference or shift is the packing of the same operation on
    polynomials, and signed or oversized slots along the way cancel
    exactly.  Only the decoded final rows must fit in their slots: their
    coefficients count families of the path, so none exceeds F <
    2**bits(F).  ``top``, ``every`` and ``running`` still count partial
    families; the ``changes`` maps are signed and never decoded.  The
    argument uses only the scan, not the paper's theorem on x_n.

    Its ``scan_steps`` are checked against ``config_budget`` before the path
    is classified; a larger count raises ``ConfigBudgetError``.
    """
    check_budget(path.r, path.n, path.dims, config_budget)
    turns = _turns(path)
    size = -(-_scan(path, turns, 0, 0)[0].bit_length() // 8)  # bytes per slot

    n_edges = path.n_edges
    terms: dict[tuple[int, int], int] = {}
    for w1, packed in _scan(path, turns, 8 * size, 1).items():
        data = packed.to_bytes((n_edges + 1) * size, "little")
        for free in range(n_edges + 1):
            if coeff := int.from_bytes(data[free * size:(free + 1) * size], "little"):
                terms[n_edges - free, w1] = coeff
    return LaurentPoly2._canonical(terms)
