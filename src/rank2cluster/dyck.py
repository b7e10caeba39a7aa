"""Maximal Dyck paths and exact slope-based subpath classification.

Geometry conventions used throughout the package:

* The rectangle for parameters (r, n) has width ``d(n-1) - d(n-2)`` and
  height ``d(n-2)``, where ``d`` is the dimension sequence defined by
  ``d(1) = 0, d(2) = 1, d(k) = r*d(k-1) - d(k-2)``.
* Edges are numbered 1..n_edges along the path; vertex ``w_i`` is the
  lattice point reached after ``i`` edges (so ``w_0`` is the origin).
* ``v_j`` is the upper endpoint of the j-th north edge, with ``v_0`` the
  origin; ``v_index[j]`` is the edge position of that north edge (0 for j=0).
  The y-coordinate of ``v_j`` is exactly j.

Classification reads one fact per vertex, t*: the first v_t whose slope
from v_i exceeds the diagonal.  Let f(j) = j*width - x_j*height for
v_j = (x_j, j), where x_j = v_index[j] - j.  That slope exceeds the
diagonal iff f(t) > f(i), so t* is the next strictly greater f, found for
every i by one monotone stack in O(height).  f is an exact int: no floating
point is used anywhere, since near-diagonal slopes would misclassify under
rounding for large rectangles.  ``_turns`` pairs each t* with its color.
The color of the subpath (v_i, v_k) depends only on v_i..v_k, so the table
takes a vertex range: ``classify`` reads the table of v_i..v_k, in
O(k - i), and the formula scan and ``build_pool`` read that of the whole path.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, pairwise

from .caps import DEFAULT_MAX_EXPONENT
from .errors import ExponentOverflowError


@dataclass(frozen=True, slots=True)
class DimSequence:
    """Dimension sequence d(1)=0, d(2)=1, d(k) = r*d(k-1) - d(k-2).

    Strictly increasing from d(2) onward when r >= 2; consecutive values are
    coprime.  Governs rectangle dimensions and denominator exponents.
    ``values`` is a tuple, or at r = 2, where d(k) = k - 1, a ``range``.
    """

    r: int
    values: tuple[int, ...] | range

    def value(self, k: int) -> int:
        """d(k) for 1 <= k <= len(values)."""
        if not 1 <= k <= len(self.values):
            raise IndexError(f"index {k} outside computed range 1..{len(self.values)}")
        return self.values[k - 1]


def dim_sequence(r: int, upto: int, max_exponent: int = DEFAULT_MAX_EXPONENT) -> DimSequence:
    """Compute d(1)..d(upto) for the given r.

    Raises ``ExponentOverflowError`` as soon as a value exceeds
    ``max_exponent``; the sequence grows like ((r+sqrt(r^2-4))/2)^k for r > 2.
    At r = 2 it is d(k) = k - 1, checked and returned in constant time.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if upto < 2:
        raise ValueError(f"upto must be >= 2, got {upto}")
    if r == 2:
        if upto >= (first := max(3, max_exponent + 2)):  # the first k >= 3 with k - 1 > cap
            raise ExponentOverflowError(
                f"d({first}) = {first - 1} exceeds the cap {max_exponent} (r=2)"
            )
        return DimSequence(r=2, values=range(upto))
    values = [0, 1]
    while len(values) < upto:
        nxt = r * values[-1] - values[-2]
        if nxt > max_exponent:
            raise ExponentOverflowError(
                f"d({len(values) + 1}) = {nxt} exceeds the cap {max_exponent} (r={r})"
            )
        values.append(nxt)
    return DimSequence(r=r, values=tuple(values))


class Color(enum.Enum):
    BLUE = "blue"
    GREEN = "green"
    RED = "red"


@dataclass(frozen=True, slots=True)
class ColoredSubpath:
    """A classified subpath between distinguished vertices v_i and v_k.

    ``edge_span`` is the inclusive 1-based interval of edge positions covered:
    blue and green subpaths run from v_i to v_k, a red subpath starts one edge
    earlier (at the immediate predecessor of v_i).  Green subpaths carry the
    parameters (green_m, green_w) and a ``window``: the inclusive interval of
    edges immediately preceding v_i whose coverage elsewhere legitimizes the
    green element inside a family.
    """

    i: int
    k: int
    color: Color
    edge_span: tuple[int, int]
    green_m: int | None = None
    green_w: int | None = None
    window: tuple[int, int] | None = None


@dataclass(frozen=True, slots=True)
class DyckPath:
    """The maximal Dyck path for parameters (r, n), held as its distinguished vertices.

    ``v_index`` fixes the path: it runs east from v_(j-1) to x_j = v_index[j] - j
    and then north to v_j, and after v_height east to ``width``.  The word,
    the lattice points and the edge count are derived from it when read.
    """

    r: int
    n: int
    width: int
    height: int
    v_index: tuple[int, ...]
    dims: DimSequence

    def _rows(self) -> Iterator[tuple[int, int]]:
        """(x where the path enters row y, x where it leaves it) for y = 0..height."""
        # Lazy: a list of every x_j would outlive its use in the allocator and
        # raised the peak RSS of ``path --svg`` at (2,1000002) by 14 MB.
        xs = (position - y for y, position in enumerate(self.v_index))
        return pairwise(chain(xs, (self.width,)))

    @property
    def n_edges(self) -> int:
        return self.width + self.height

    @property
    def word(self) -> str:
        """The path over {E, N}, one letter per edge; O(n_edges) on each read."""
        return "N".join("E" * (end - start) for start, end in self._rows())

    def points(self, first: int = 0, last: int | None = None) -> Iterator[tuple[int, int]]:
        """The lattice points w_first..w_last (default w_(n_edges)), one at a time.

        Every edge adds one to x + y, so w_p = (p - y, y) for y the row of w_p,
        the last j with v_index[j] <= p.  The row of w_first is found by
        bisection, so a run late in the path starts there at once.
        """
        v_index, height = self.v_index, self.height
        y = bisect_right(v_index, first) - 1
        for p in range(first, (self.n_edges if last is None else last) + 1):
            if y < height and v_index[y + 1] == p:
                y += 1
            yield p - y, y

    def vertex(self, j: int) -> tuple[int, int]:
        """Coordinates of v_j, 0 <= j <= height."""
        return self.v_index[j] - j, j

    def to_json_dict(self) -> dict:
        return {"r": self.r, "n": self.n, "word": self.word, "v_index": list(self.v_index)}


def build_path(r: int, n: int, max_exponent: int = DEFAULT_MAX_EXPONENT) -> DyckPath:
    """Construct the unique maximal Dyck path for (r, n), n >= 3, in O(height).

    The path steps north whenever the vertex it reaches stays on or below the
    diagonal (y*width <= x*height), else east, so v_j sits at the least such
    x: x_j = ceil(j*width/height), an exact integer division, and
    v_index[j] = j + x_j.  Its word is the lower Christoffel word of slope
    height/width.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    dims = dim_sequence(r, n - 1, max_exponent=max_exponent)
    width = dims.value(n - 1) - dims.value(n - 2)
    height = dims.value(n - 2)
    v_index = (0,) + tuple(j - (-j * width // height) for j in range(1, height + 1))
    return DyckPath(r=r, n=n, width=width, height=height, v_index=v_index, dims=dims)


def green_table(path: DyckPath) -> dict[int, tuple[int, int, int]]:
    """The paper's green condition: each distance d(m) - w*d(m-1) -> (m, w, window edges).

    Covers 3 <= m <= n-2 and 1 <= w <= r-2; the window has d(m-1) - w*d(m-2)
    edges.  No two pairs share a distance: at a level m the distances fall
    strictly as w grows, since d(m-1) >= 1, so they fill
    [2d(m-1) - d(m-2), d(m) - d(m-1)], and level m+1 starts at
    2d(m) - d(m-1), above d(m) - d(m-1).  The (n-4)(r-2) entries are at most
    the path's d(n-1) edges, and w runs outside m so that no level is walked
    when there are none, as at r = 2 or n <= 4.
    """
    d = path.dims.value
    return {
        d(m) - w * d(m - 1): (m, w, d(m - 1) - w * d(m - 2))
        for w in range(1, path.r - 1)
        for m in range(3, path.n - 1)
    }


def first_exceeding_by_vertex(path: DyckPath, first: int = 0,
                              last: int | None = None) -> tuple[int | None, ...]:
    """For each i in first..last-1, the first t in i+1..last with f(t) > f(i), or None.

    One stack over v_first..v_last (default the whole path, v_0..v_height);
    entry i - first of the result belongs to v_i.  A t found this way is t*
    whenever t* <= last, and None means t* > last or there is none.
    """
    width, height = path.width, path.height
    last = height if last is None else last
    firsts: list[int | None] = [None] * (last - first)
    waiting: list[tuple[int, int]] = []  # (f(j), j) with no greater f yet; f falls upward
    for j, position in enumerate(path.v_index[first:last + 1], first):
        f = j * width - (position - j) * height
        while waiting and waiting[-1][0] < f:
            firsts[waiting.pop()[1] - first] = j
        waiting.append((f, j))
    return tuple(firsts)


def _turns(path: DyckPath, first: int = 0,
           last: int | None = None) -> dict[int, tuple[int, tuple[int, int, int] | None]]:
    """Each v_i, first <= i < last, whose t* <= last -> (t*, its green entry or None for red).

    Reads only v_first..v_last (default the whole path), through
    ``first_exceeding_by_vertex(path, first, last)``, and checks both of its
    invariants for every turn it returns.  The green entry is that of
    ``green_table``.
    """
    greens, v_index = green_table(path), path.v_index
    turns = {}
    for i, t in enumerate(first_exceeding_by_vertex(path, first, last), first):
        if t is not None:
            # A slope from v_0 can never exceed the diagonal (every vertex lies
            # on or below it), so i >= 1 and the predecessor of v_i exists.
            assert i >= 1, "a turn at i=0 contradicts the on-or-below invariant"
            if (green := greens.get(t - i)) is not None and green[2] > (start := v_index[i]):
                raise AssertionError(f"green window underflows the path start: "
                                     f"{(start - green[2] + 1, start)} at (i={i}, t={t})")
            turns[i] = (t, green)
    return turns


def check_pair(height: int, i: int, k: int) -> None:
    """Raise ``ValueError`` unless 0 <= i < k <= height."""
    if not 0 <= i < k <= height:
        raise ValueError(f"need 0 <= i < k <= {height}, got i={i}, k={k}")


def _classify_with_first(path: DyckPath, i: int, k: int,
                         turn: tuple[int, tuple[int, int, int] | None] | None) -> ColoredSubpath:
    """Classify (v_i, v_k) from v_i's entry in ``_turns`` over any range holding v_i..v_k."""
    start, end = path.v_index[i], path.v_index[k]
    if turn is None or turn[0] > k:  # the one blue rule: no slope up to v_k exceeds
        return ColoredSubpath(i=i, k=k, color=Color.BLUE, edge_span=(start + 1, end))
    if (green := turn[1]) is None:
        return ColoredSubpath(i=i, k=k, color=Color.RED, edge_span=(start, end))
    m, w, length = green
    return ColoredSubpath(i=i, k=k, color=Color.GREEN, edge_span=(start + 1, end),
                          green_m=m, green_w=w, window=(start - length + 1, start))


def classify(path: DyckPath, i: int, k: int) -> ColoredSubpath:
    """Classify the subpath determined by (v_i, v_k) as blue, green, or red.

    Blue: no slope v_i -> v_t with i < t <= k exceeds the diagonal.
    Otherwise, if t* - i is a key of ``green_table(path)``, the subpath is
    green with that entry's (m, w) and a window of its edge count ending at
    v_i; if not, it is red and extends one edge backward.  The color reads
    only v_i..v_k, so one stack runs over that range: a t* beyond v_k is
    blue either way.
    """
    check_pair(path.height, i, k)
    return _classify_with_first(path, i, k, _turns(path, i, k).get(i))
