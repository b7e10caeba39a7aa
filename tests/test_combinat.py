import pytest

from rank2cluster import combinat, dyck
from rank2cluster.caps import DEFAULT_CONFIG_BUDGET
from rank2cluster.combinat import build_pool, generating_poly
from rank2cluster.dyck import Color, build_path, classify, dim_sequence
from rank2cluster.errors import ConfigBudgetError
from rank2cluster.laurent import LaurentPoly2

from oracles import (
    EQ3_NUMERATOR_TERMS,
    BruteForceCapError,
    Family,
    bruteforce_poly,
    enumerate_bruteforce,
    f_polynomial_from_oracle,
    family_count,
    is_member,
)

# Cells cheap enough to enumerate completely inside unit tests.
ENUM_CELLS = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (4, 4), (5, 4), (6, 4)]


def pool_elements(r, n):
    return {(c.i, c.k): c for c in build_pool(build_path(r, n)).colored}


def test_pool_sizes():
    for (r, n), colored, singles in [((3, 5), 6, 8), ((2, 4), 1, 2), ((3, 4), 1, 3)]:
        path = build_path(r, n)
        assert len(build_pool(path).colored) == colored
        assert path.n_edges == singles


@pytest.mark.parametrize("cell", [(2, 8), (3, 6), (3, 7), (4, 6), (5, 6), (6, 5)],
                         ids=lambda cell: "r{}_n{}".format(*cell))
def test_pool_matches_pairwise_classification(cell):
    path = build_path(*cell)
    pool = build_pool(path)
    by_pair = {(c.i, c.k): c for c in pool.colored}
    for i in range(path.height):
        for k in range(i + 1, path.height + 1):
            assert by_pair[(i, k)] == classify(path, i, k)


def test_empty_family_is_member():
    path = build_path(3, 5)
    assert is_member(path, Family(colored=(), singles=()))


def test_green_needs_window_support():
    path = build_path(3, 5)
    by_pair = pool_elements(3, 5)
    green = by_pair[(1, 3)]
    assert not is_member(path, Family(colored=(green,), singles=()))
    assert is_member(path, Family(colored=(green,), singles=(3,)))
    # Support must land inside the window: edge 1 does not help.
    assert not is_member(path, Family(colored=(green,), singles=(1,)))


def test_endpoint_chains_are_rejected():
    path = build_path(3, 5)
    by_pair = pool_elements(3, 5)
    assert not is_member(path, Family(colored=(by_pair[(0, 1)], by_pair[(1, 2)]), singles=()))


def test_edge_overlap_is_rejected():
    path = build_path(3, 5)
    by_pair = pool_elements(3, 5)
    assert not is_member(path, Family(colored=(by_pair[(0, 2)],), singles=(4,)))
    assert not is_member(path, Family(colored=(by_pair[(0, 1)], by_pair[(0, 2)]), singles=()))


def test_window_support_by_colored_span():
    # Support may come from another colored element's span, not just from a
    # single edge.  In (3,7) the (m,w)=(5,1) green at (8,21) has a five-edge
    # window 17..21, and the blue subpath (6,7) covers edges 17..19.
    from rank2cluster.dyck import Color, classify

    path = build_path(3, 7)
    green = classify(path, 8, 21)
    assert green.color is Color.GREEN
    assert (green.green_m, green.green_w) == (5, 1)
    assert green.window == (17, 21)
    helper = classify(path, 6, 7)
    assert not is_member(path, Family(colored=(green,), singles=()))
    assert is_member(path, Family(colored=(helper, green), singles=()))


def test_enumerate_count_worked_example():
    families = list(enumerate_bruteforce(build_path(3, 5)))
    assert len(families) == 365
    seen = {(f.colored, f.singles) for f in families}
    assert len(seen) == 365


def test_enumerate_respects_membership():
    path = build_path(3, 5)
    for family in enumerate_bruteforce(path):
        assert is_member(path, family)


def test_enumerate_count_smallest_cell():
    # (2,4): the 4 single-edge subsets plus the all-covering blue subpath.
    assert len(list(enumerate_bruteforce(build_path(2, 4)))) == 5


def test_enumerate_count_r3_n4():
    # (3,4): 2^3 single-edge subsets plus the all-covering blue subpath.
    assert len(list(enumerate_bruteforce(build_path(3, 4)))) == 9


@pytest.mark.parametrize("cell", ENUM_CELLS)
def test_enumerate_count_matches_recursion(cell):
    count = sum(1 for _ in enumerate_bruteforce(build_path(*cell)))
    assert count == family_count(*cell)


def test_enumerate_edge_cap():
    with pytest.raises(BruteForceCapError):
        next(enumerate_bruteforce(build_path(3, 7)))  # 55 edges
    with pytest.raises(BruteForceCapError):
        next(enumerate_bruteforce(build_path(3, 5), edge_cap=7))


@pytest.mark.parametrize("cell", ENUM_CELLS + [(4, 5)])
def test_generating_poly_equals_bruteforce(cell):
    path = build_path(*cell)
    assert generating_poly(path) == bruteforce_poly(path)


def test_generating_poly_worked_example_rows():
    poly = generating_poly(build_path(3, 5))
    # Families without colored elements contribute the full binomial row.
    assert [poly.coefficient(a, 0) for a in range(9)] == [1, 8, 28, 56, 70, 56, 28, 8, 1]
    # Weight-1 = 2 row: three configurations, each y1^6 (1+y1)^2.
    assert [poly.coefficient(a, 2) for a in range(9)] == [0, 0, 0, 0, 0, 0, 3, 6, 3]
    assert poly.coefficient(8, 3) == 1
    assert poly.coefficient(0, 0) == 1
    assert poly.eval_at(1, 1) == 365


def test_generating_poly_matches_frozen_example():
    # EQ3 terms (e1, e2) = (3*w1, 3*(8 - w2)) pull back to the statistics grid.
    expected = LaurentPoly2(
        {(8 - e2 // 3, e1 // 3): c for (e1, e2), c in EQ3_NUMERATOR_TERMS.items()}
    )
    assert generating_poly(build_path(3, 5)) == expected


@pytest.mark.parametrize("cell", [(2, 6), (3, 5), (4, 5)])
def test_generating_poly_invariants(cell):
    path = build_path(*cell)
    poly = generating_poly(path)
    assert poly.coefficient(0, 0) == 1
    assert all(c > 0 for c in poly.terms.values())
    max_a, max_b = poly.max_exponents()
    assert max_a <= path.n_edges
    assert max_b <= path.height
    assert poly.coefficient(path.n_edges, path.height) == 1


def test_generating_poly_budget():
    with pytest.raises(ConfigBudgetError):
        generating_poly(build_path(3, 6), config_budget=100)  # needs 17 820 steps


@pytest.mark.parametrize("cell", [(5, 6), (6, 6), (3, 8), (2, 30), (20, 5), (4, 7), (7, 6)])
def test_generating_poly_matches_oracle_on_tall_cells(cell):
    # Heights 20 to 56: far too many families to enumerate, and up to 2^56
    # sets of compatible colored elements.  (3,8), (2,30) and (20,5) are the
    # upward cells of the oracle-deep benchmark; (4,7) needs 9 025 380 and
    # (7,6), refused by the earlier step count, 15 296 820 of the default
    # 10^8 aggregation steps.
    assert generating_poly(build_path(*cell)) == f_polynomial_from_oracle(*cell)


@pytest.mark.parametrize("cell", [(2, 12), (3, 7), (4, 6), (5, 6), (7, 5)],
                         ids=lambda cell: "r{}_n{}".format(*cell))
def test_turns_fix_the_color_of_every_later_pair(cell):
    # The scan reads one turn (t, green) per vertex: (i, k) is blue before
    # k = t, and from there red when green is None, else green with the
    # green table entry's (m, w) and a window of its edge count ending at v_i.
    path = build_path(*cell)
    turns = dyck._turns(path)
    for c in build_pool(path).colored:
        t, green = turns.get(c.i, (path.height + 1, None))
        if c.k < t:
            assert c.color is Color.BLUE
        elif green is None:
            assert (c.color, c.window) == (Color.RED, None)
        else:
            m, w, length = green
            start = path.v_index[c.i]
            assert (c.color, c.green_m, c.green_w, c.window) == (
                Color.GREEN, m, w, (start - length + 1, start))


SLOT_CELLS = [(3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7)]


@pytest.mark.parametrize("cell", SLOT_CELLS)
def test_scan_steps_track_the_row_additions(cell, monkeypatch):
    added = []

    def counting(merge):
        def merge_and_count(dest, src, *args, **kwargs):
            added.append(len(src))
            return merge(dest, src, *args, **kwargs)
        return merge_and_count

    monkeypatch.setattr(combinat, "_accumulate", counting(combinat._accumulate))
    monkeypatch.setattr(combinat, "_subtract", counting(combinat._subtract))
    path = build_path(*cell)
    generating_poly(path, config_budget=10**9)
    # Each added or subtracted row is a packed int of n_edges + 1 slots.
    work = sum(added) * (path.n_edges + 1)
    assert work <= combinat.scan_steps(path.r, path.n, path.dims) <= 8 * work


def _admitted_cells(sum_cap):
    for r in range(2, sum_cap - 2):
        for n in range(3, sum_cap - r + 1):
            if combinat.scan_steps(r, n, dim_sequence(r, n - 1)) <= DEFAULT_CONFIG_BUDGET:
                yield r, n


@pytest.mark.parametrize("cell", list(_admitted_cells(12)), ids=lambda cell: "r{}_n{}".format(*cell))
def test_plain_int_pass_counts_the_families(cell):
    # The width-0, step-0 pass evaluates the scan at y1 = y2 = 1: one int row.
    path = build_path(*cell)
    count = family_count(*cell)
    assert combinat._scan(path, dyck._turns(path), 0, 0) == {0: count}
    assert generating_poly(path).eval_at(1, 1) == count


@pytest.mark.parametrize("cell", SLOT_CELLS)
def test_no_slot_exceeds_the_family_count(cell, monkeypatch):
    # Run the packed pass with slots of (5**E).bit_length() bits, far wider
    # than needed, and decode every sum the scan reads back (``top``,
    # ``every`` and ``running``, each the source of a later merge) and the
    # rows it returns.  A ``changes`` map is signed by design until it is
    # added to ``running``, and nothing reads it before, so it is not decoded.
    path = build_path(*cell)
    n_edges, width = path.n_edges, (5**path.n_edges).bit_length()
    mask, largest = (1 << width) - 1, []

    def record(rows):
        for packed in rows.values():
            assert 0 <= packed < 1 << (n_edges + 1) * width
            largest.append(max((packed >> e * width) & mask for e in range(n_edges + 1)))
        return rows

    def reading(merge):
        return lambda dest, src, *a, **k: merge(dest, record(src), *a, **k)

    monkeypatch.setattr(combinat, "_accumulate", reading(combinat._accumulate))
    monkeypatch.setattr(combinat, "_subtract", reading(combinat._subtract))
    total = record(combinat._scan(path, dyck._turns(path), width, 1))
    count = family_count(*cell)
    assert max(largest) <= count
    assert sum((packed >> e * width) & mask for packed in total.values()
               for e in range(n_edges + 1)) == count


@pytest.mark.parametrize(("cell", "steps"), [
    ((3, 7), 290_752), ((3, 8), 5_018_160), ((4, 7), 9_025_380), ((7, 6), 15_296_820),
    ((3, 9), 88_682_580), ((2, 233), 98_716_464), ((2, 234), 100_003_600),
    ((5, 7), 114_745_344),
], ids=lambda value: "r{}_n{}".format(*value) if isinstance(value, tuple) else str(value))
def test_scan_steps_match_the_readme_budget_numbers(cell, steps):
    r, n = cell
    assert combinat.scan_steps(r, n, dim_sequence(r, n - 1)) == steps
    # The README's admission split at the default budget: (2,234) and (5,7) are refused.
    assert (steps <= DEFAULT_CONFIG_BUDGET) == (cell not in {(2, 234), (5, 7)})


def test_family_json_lines_schema():
    path = build_path(3, 5)
    by_pair = pool_elements(3, 5)
    family = Family(colored=(by_pair[(1, 3)],), singles=(3, 1))
    assert family.weight1 == 2
    assert family.weight2 == 7
