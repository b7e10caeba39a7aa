"""Independent test oracles and frozen reference data.

Everything here is computed by a route that does NOT share code with the
implementation it checks: the Christoffel word comes from the arithmetic
(mod-total) definition, reference F-polynomials are recovered from the
recursion oracle's Laurent expansion by inverting the exponent bookkeeping,
and the brute-force family stream applies the three family rules with its own
edge and window masks instead of the aggregator's.  A classified subpath's
weight1, edge count, edges and window edges are read off its fields here
(``weight1``, ``edge_count``, ``edges``, ``window_edges``), since only these
oracles use them.  ``first_exceeding`` finds each vertex's first exceeding
vertex by a slope search on the vertex coordinates, the reference for the
package's one stack.
``assert_no_late_greens`` is a bug trap for the classifier that the package
itself never calls, and it reads that search.  ``green_matches`` searches
every green parameter pair to pin the classifier's one table per path,
``dyck.green_table``.  The ``reference_*`` functions are plain Laurent
arithmetic on (e1, e2) tuple keys, with no row form and no quotient box, to
check the package's ring kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from rank2cluster.cluster import oracle
from rank2cluster.combinat import build_pool
from rank2cluster.dyck import Color, ColoredSubpath, DyckPath, dim_sequence
from rank2cluster.errors import NonExactDivisionError, Rank2ClusterError
from rank2cluster.laurent import LaurentPoly2

# Largest edge count for which the brute-force family stream is allowed.
DEFAULT_BRUTEFORCE_EDGE_CAP = 22


class BruteForceCapError(Rank2ClusterError):
    """The path has more edges than the brute-force enumeration cap."""


class LateGreenError(Rank2ClusterError):
    """A green classification would require a level m >= n-1."""


def weight1(sub: ColoredSubpath) -> int:
    """k - i: the subpath's contribution to a family's weight1."""
    return sub.k - sub.i


def edge_count(sub: ColoredSubpath) -> int:
    """Number of edges the subpath covers."""
    return sub.edge_span[1] - sub.edge_span[0] + 1


def edges(sub: ColoredSubpath) -> range:
    """The 1-based edge positions the subpath covers."""
    return range(sub.edge_span[0], sub.edge_span[1] + 1)


def window_edges(sub: ColoredSubpath) -> range:
    """The edges of a green subpath's window; empty for blue and red."""
    if sub.window is None:
        return range(0)
    return range(sub.window[0], sub.window[1] + 1)


@dataclass(frozen=True, slots=True)
class Family:
    """One member of the family collection: colored subpaths plus single edges."""

    colored: tuple[ColoredSubpath, ...]
    singles: tuple[int, ...]

    @property
    def weight1(self) -> int:
        """Sum of k - i over the colored elements."""
        return sum(weight1(c) for c in self.colored)

    @property
    def weight2(self) -> int:
        """Total number of edges across all elements."""
        return sum(edge_count(c) for c in self.colored) + len(self.singles)


def is_member(path: DyckPath, family: Family) -> bool:
    """Check the three family rules against a candidate drawn from the pool."""
    covered: set[int] = set()
    total = 0
    for element in family.colored:
        span = set(edges(element))
        covered |= span
        total += len(span)
    singles = set(family.singles)
    covered |= singles
    total += len(family.singles)
    if len(covered) != total:
        return False
    starts = {c.i for c in family.colored}
    ends = {c.k for c in family.colored}
    if starts & ends:
        return False
    for element in family.colored:
        if element.color is Color.GREEN:
            if not covered.intersection(window_edges(element)):
                return False
    return True


def _bits(edges: Iterable[int]) -> int:
    """Bit set of 1-based edge numbers: edge e is bit e - 1."""
    mask = 0
    for edge in edges:
        mask |= 1 << (edge - 1)
    return mask


def enumerate_bruteforce(
    path: DyckPath,
    edge_cap: int = DEFAULT_BRUTEFORCE_EDGE_CAP,
) -> Iterator[Family]:
    """Yield every family exactly once (exponential output).

    Refuses paths with more than ``edge_cap`` edges.  For each compatible set
    of colored elements the free single edges are swept by binary counting,
    keeping only subsets that hit every unsupported green window.
    """
    n_edges = path.n_edges
    if n_edges > edge_cap:
        raise BruteForceCapError(
            f"path has {n_edges} edges, above the brute-force cap {edge_cap}"
        )
    colored = build_pool(path).colored
    edge_masks = [_bits(edges(c)) for c in colored]
    window_masks = [_bits(window_edges(c)) for c in colored]
    # later[j]: elements after j that share no edge with j and do not chain with it.
    later = [
        sum(
            1 << j2
            for j2 in range(j + 1, len(colored))
            if not edge_masks[j] & edge_masks[j2]
            and cj.i != colored[j2].k
            and cj.k != colored[j2].i
        )
        for j, cj in enumerate(colored)
    ]

    def emit(chosen: tuple[int, ...], covered: int) -> Iterator[Family]:
        elements = tuple(colored[j] for j in chosen)
        free = [e + 1 for e in range(n_edges) if not (covered >> e) & 1]
        position = {edge: idx for idx, edge in enumerate(free)}
        pending = []
        for j in chosen:
            wmask = window_masks[j]
            if wmask and not (wmask & covered):
                pending.append(_bits(position[edge] + 1 for edge in window_edges(colored[j])))
        for sub in range(1 << len(free)):
            if pending and not all(sub & wmask for wmask in pending):
                continue
            picked = []
            s = sub
            while s:
                low = s & -s
                picked.append(free[low.bit_length() - 1])
                s ^= low
            yield Family(colored=elements, singles=tuple(picked))

    def visit(candidates: int, chosen: tuple[int, ...], covered: int) -> Iterator[Family]:
        yield from emit(chosen, covered)
        c = candidates
        while c:
            low = c & -c
            j = low.bit_length() - 1
            c ^= low
            yield from visit(candidates & later[j], chosen + (j,), covered | edge_masks[j])

    yield from visit((1 << len(colored)) - 1, (), 0)


def bruteforce_poly(path: DyckPath, edge_cap: int = DEFAULT_BRUTEFORCE_EDGE_CAP) -> LaurentPoly2:
    """Accumulate the generating polynomial term by term from the raw stream."""
    acc: dict[tuple[int, int], int] = {}
    for family in enumerate_bruteforce(path, edge_cap=edge_cap):
        exps = (family.weight2, family.weight1)
        acc[exps] = acc.get(exps, 0) + 1
    return LaurentPoly2(acc)


def slope_exceeds(path: DyckPath, a: int, b: int) -> bool:
    """True iff the slope of the segment v_a -> v_b exceeds the diagonal slope.

    Decided by cross-multiplication (dy*width vs dx*height) on the vertex
    coordinates; vertical segments (dx == 0) compare as infinitely steep.
    """
    if not 0 <= a < b <= path.height:
        raise ValueError(f"need 0 <= a < b <= {path.height}, got a={a}, b={b}")
    xa, ya = path.vertex(a)
    xb, yb = path.vertex(b)
    return (yb - ya) * path.width > (xb - xa) * path.height


def first_exceeding(path: DyckPath) -> tuple[int | None, ...]:
    """For each i < height, the smallest t > i with ``slope_exceeds(path, i, t)``, or None."""
    return tuple(next((t for t in range(i + 1, path.height + 1) if slope_exceeds(path, i, t)), None)
                 for i in range(path.height))


def assert_no_late_greens(path: DyckPath) -> None:
    """Check that no classification would require a green level m >= n-1.

    Scans every realized first-exceeding distance and searches levels
    m >= n-1 for a matching d(m) - w*d(m-1); a match raises
    ``LateGreenError`` (an implementation-bug trap: the minimum over w
    is 2*d(m-1) - d(m-2), which outgrows the rectangle height at m = n-1).
    """
    if path.height < 1:
        return
    distances = {
        t_star - i
        for i, t_star in enumerate(first_exceeding(path))
        if t_star is not None
    }
    if not distances:
        return
    max_distance = max(distances)

    # Extend the dimension sequence past n-1 until the smallest candidate
    # window start outgrows every realized distance.
    values = list(path.dims.values)
    r = path.r
    m = path.n - 1
    while True:
        while len(values) < m:
            values.append(r * values[-1] - values[-2])
        d_m, d_m1 = values[m - 1], values[m - 2]
        if d_m - (r - 2) * d_m1 > max_distance:
            return
        for w in range(1, r - 1):
            if d_m - w * d_m1 in distances:
                raise LateGreenError(
                    f"distance {d_m - w * d_m1} matches (m={m}, w={w}) with m >= n-1 "
                    f"for (r={path.r}, n={path.n})"
                )
        m += 1


def green_matches(r: int, n: int) -> dict[int, list[tuple[int, int]]]:
    """Every (m, w) with 3 <= m <= n-2 and 1 <= w <= r-2, grouped by d(m) - w*d(m-1).

    An exhaustive search over its own dimension sequence that keeps every
    match; the package's ``green_table`` keeps one entry per distance.
    """
    d = [0, 1]  # d[k - 1] is d(k)
    while len(d) < n - 2:
        d.append(r * d[-1] - d[-2])
    matches: dict[int, list[tuple[int, int]]] = {}
    for m in range(3, n - 1):
        for w in range(1, r - 1):
            matches.setdefault(d[m - 1] - w * d[m - 2], []).append((m, w))
    return matches


def lower_christoffel_word(p: int, q: int) -> str:
    """Lower Christoffel word of slope p/q over {E, N}.

    Arithmetic (cutting-sequence) definition: letter i is E exactly when
    i*p mod (p+q) increases over (i-1)*p mod (p+q).  Requires gcd(p, q) = 1.
    """
    total = p + q
    letters = []
    prev = 0
    for i in range(1, total + 1):
        cur = (i * p) % total
        letters.append("E" if cur > prev else "N")
        prev = cur
    return "".join(letters)


def f_polynomial_from_oracle(r: int, n: int) -> LaurentPoly2:
    """Recover F_n (n >= 3) from the oracle expansion of x_n.

    Each Laurent term of x_n determines its statistics pair by inverting
    e1 = r*w1 - d(n-1) and e2 = r*(d(n-1) - w2) - d(n-2); the F-polynomial
    collects y1^w2 * y2^w1 with the same coefficients.
    """
    dims = dim_sequence(r, n - 1)
    edges = dims.value(n - 1)
    height = dims.value(n - 2)
    terms: dict[tuple[int, int], int] = {}
    for (e1, e2), coeff in oracle(r, n).terms.items():
        w1, rem1 = divmod(e1 + edges, r)
        drop, rem2 = divmod(e2 + height, r)
        if rem1 or rem2:
            raise AssertionError("oracle term outside the expected lattice")
        terms[(edges - drop, w1)] = coeff
    return LaurentPoly2(terms)


def family_count(r: int, n: int) -> int:
    """Number of families for (r, n): the coefficient sum of x_n, computed
    by iterating the recursion over plain integers (x1 = x2 = 1)."""
    prev, cur = 1, 1
    for _ in range(n - 2):
        prev, cur = cur, (cur**r + 1) // prev
    return cur


def reference_mul(p: LaurentPoly2, q: LaurentPoly2) -> LaurentPoly2:
    """Product by direct convolution over (e1, e2) tuple keys."""
    out: dict[tuple[int, int], int] = {}
    for (a1, a2), ca in p.terms.items():
        for (b1, b2), cb in q.terms.items():
            exps = (a1 + b1, a2 + b2)
            acc = out.get(exps, 0) + ca * cb
            if acc:
                out[exps] = acc
            else:
                del out[exps]
    return LaurentPoly2(out)


def reference_pow(p: LaurentPoly2, k: int) -> LaurentPoly2:
    """k-th power by k multiplications with ``reference_mul``, starting from 1."""
    result = LaurentPoly2.one()
    for _ in range(k):
        result = reference_mul(result, p)
    return result


def reference_div_exact(p: LaurentPoly2, q: LaurentPoly2) -> LaurentPoly2:
    """Exact quotient p / q by division against the divisor's lexicographic
    largest term, taking the remainder's largest term with ``max`` each step.

    Monomial factors are normalized out of both operands first.  A leading
    monomial or coefficient that does not divide raises
    ``NonExactDivisionError``.  Only meant for exact inputs: nothing bounds
    the walk.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return LaurentPoly2.zero()
    p_min, q_min = p.min_exponents(), q.min_exponents()
    rem = {(e1 - p_min[0], e2 - p_min[1]): c for (e1, e2), c in p.terms.items()}
    den = {(e1 - q_min[0], e2 - q_min[1]): c for (e1, e2), c in q.terms.items()}
    lead_den = max(den)
    lead_den_coeff = den[lead_den]
    quotient: dict[tuple[int, int], int] = {}
    while rem:
        lead_rem = max(rem)
        t1, t2 = lead_rem[0] - lead_den[0], lead_rem[1] - lead_den[1]
        if t1 < 0 or t2 < 0:
            raise NonExactDivisionError("leading monomial not divisible")
        coeff, residue = divmod(rem[lead_rem], lead_den_coeff)
        if residue:
            raise NonExactDivisionError("leading coefficient not divisible over Z")
        quotient[(t1 + p_min[0] - q_min[0], t2 + p_min[1] - q_min[1])] = coeff
        for (d1, d2), dc in den.items():
            exps = (t1 + d1, t2 + d2)
            acc = rem.get(exps, 0) - coeff * dc
            if acc:
                rem[exps] = acc
            else:
                rem.pop(exps, None)
    return LaurentPoly2(quotient)


# The 19-term numerator of the (r=3, n=5) expansion, frozen from the worked
# example; dividing by x1^8 * x2^3 gives x_5 itself.
EQ3_NUMERATOR_TERMS = {
    (0, 24): 1, (0, 21): 8, (3, 15): 3, (0, 18): 28, (3, 12): 15,
    (0, 15): 56, (6, 6): 3, (3, 9): 30, (0, 12): 70, (9, 0): 1,
    (6, 3): 6, (3, 6): 30, (0, 9): 56, (6, 0): 3, (3, 3): 15,
    (0, 6): 28, (3, 0): 3, (0, 3): 8, (0, 0): 1,
}

X5_R3_TERMS = {(e1 - 8, e2 - 3): c for (e1, e2), c in EQ3_NUMERATOR_TERMS.items()}
