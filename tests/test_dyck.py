import pytest
from hypothesis import given, strategies as st

from rank2cluster.dyck import (
    Color,
    build_path,
    classify,
    dim_sequence,
    first_exceeding_by_vertex,
    green_table,
)
from rank2cluster.errors import ExponentOverflowError

from oracles import (
    assert_no_late_greens, first_exceeding, green_matches, lower_christoffel_word, slope_exceeds
)

# (r, n) pairs small enough for exhaustive scans in unit tests.
SMALL_CELLS = [(r, n) for r in range(2, 7) for n in range(4, 9) if r + n <= 10]

params = st.sampled_from(SMALL_CELLS)


def test_dim_sequence_r3():
    seq = dim_sequence(3, 8)
    assert seq.values == (0, 1, 3, 8, 21, 55, 144, 377)
    assert seq.values[:7] == (0, 1, 3, 8, 21, 55, 144)


def test_dim_sequence_r2_is_linear():
    # d(k) = k - 1 at r = 2, held as a range rather than built value by value.
    assert dim_sequence(2, 6).values == range(6)
    assert tuple(dim_sequence(2, 6).values) == (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("k", [0, -1, 6])
def test_dim_sequence_value_refuses_an_index_outside_its_range(r, k):
    # Without the guard, value(0) would read values[-1], the last value.
    with pytest.raises(IndexError, match=rf"^index {k} outside computed range 1\.\.5$"):
        dim_sequence(r, 5).value(k)


def test_dim_sequence_r4_prefix():
    seq = dim_sequence(4, 5)
    assert seq.values[:4] == (0, 1, 4, 15)
    assert len(seq.values) == 5


def test_dim_sequence_recurrence_and_growth():
    for r in range(2, 8):
        seq = dim_sequence(r, 12, max_exponent=10**12)
        for k in range(3, 13):
            assert seq.value(k) == r * seq.value(k - 1) - seq.value(k - 2)
        assert all(a < b for a, b in zip(seq.values[1:], seq.values[2:]))


def test_dim_sequence_matches_closed_form():
    # Independent route: d(k) = sum_i (-1)^i C(k-2-i, i) r^(k-2-2i) for k >= 2.
    import math

    def closed_form(r, k):
        return sum(
            (-1) ** i * math.comb(k - 2 - i, i) * r ** (k - 2 - 2 * i)
            for i in range((k - 2) // 2 + 1)
        )

    for r in (3, 4, 7):
        seq = dim_sequence(r, 9, max_exponent=10**9)
        for k in range(2, 10):
            assert seq.value(k) == closed_form(r, k)


def test_dim_sequence_overflow():
    with pytest.raises(ExponentOverflowError):
        dim_sequence(3, 40, max_exponent=10**4)


def test_dim_sequence_rejects_bad_args():
    with pytest.raises(ValueError):
        dim_sequence(1, 6)
    with pytest.raises(ValueError):
        dim_sequence(3, 1)


def test_build_path_worked_example():
    path = build_path(3, 5)
    assert path.word == "EENEENEN"
    assert (path.width, path.height) == (5, 3)
    assert path.v_index == (0, 3, 6, 8)
    assert [path.vertex(j) for j in range(4)] == [(0, 0), (2, 1), (4, 2), (5, 3)]


def test_build_path_smallest_rectangles():
    assert build_path(2, 4).word == "EN"
    assert build_path(3, 4).word == "EEN"


def test_build_path_rejects_small_n():
    with pytest.raises(ValueError):
        build_path(3, 2)


@given(params)
def test_step_counts(cell):
    r, n = cell
    path = build_path(r, n)
    assert path.word.count("E") == path.width
    assert path.word.count("N") == path.height
    assert path.n_edges == path.dims.value(n - 1)


@given(params)
def test_path_stays_on_or_below_diagonal(cell):
    path = build_path(*cell)
    for x, y in path.vertex_coords:
        assert y * path.width <= x * path.height


@given(params)
def test_maximality_at_every_east_step(cell):
    # Wherever the path goes east, the north neighbor is strictly above the diagonal.
    path = build_path(*cell)
    lattice = path.vertex_coords
    for position, letter in enumerate(path.word):
        if letter == "E":
            x, y = lattice[position]
            assert (y + 1) * path.width > x * path.height


@given(params)
def test_word_is_lower_christoffel(cell):
    path = build_path(*cell)
    assert path.word == lower_christoffel_word(path.height, path.width)


@pytest.mark.parametrize("r, n", [(2, 10**5), (3, 14), (4, 10), (5, 8), (6, 8)])
def test_derived_word_and_lattice_points_on_larger_cells(r, n):
    # The path keeps only v_index; its word, lattice points and vertices are
    # read back from it and must match the Christoffel word and a walk of it.
    path = build_path(r, n)
    word = path.word
    assert word == lower_christoffel_word(path.height, path.width)
    assert path.v_index == (0, *(p + 1 for p, letter in enumerate(word) if letter == "N"))
    walk = [(0, 0)]
    for letter in word:
        x, y = walk[-1]
        walk.append((x + 1, y) if letter == "E" else (x, y + 1))
    assert path.vertex_coords == tuple(walk)
    assert [path.vertex(j) for j in range(path.height + 1)] == [walk[p] for p in path.v_index]
    assert path.n_edges == len(word) == path.dims.value(n - 1)


def test_slope_exceeds_worked_example():
    path = build_path(3, 5)
    assert not slope_exceeds(path, 1, 2)  # slope 1/2 vs 3/5
    assert slope_exceeds(path, 1, 3)  # slope 2/3 vs 3/5
    for b in range(1, path.height + 1):
        assert not slope_exceeds(path, 0, b)


def test_slope_exceeds_validates_indices():
    path = build_path(3, 5)
    with pytest.raises(ValueError):
        slope_exceeds(path, 2, 2)
    with pytest.raises(ValueError):
        slope_exceeds(path, 0, 4)


def _stack_cells():
    # Every cell with r = 2..7 and height d(n-2) <= 400, then three taller ones.
    for r in range(2, 8):
        n = 3
        while dim_sequence(r, n - 1).value(n - 2) <= 400:
            yield r, n
            n += 1
    yield from ((3, 12), (4, 10), (2, 300_000))


def test_first_exceeding_stack_matches_the_slope_search():
    cells = list(_stack_cells())
    assert len(cells) == 433
    for cell in cells:
        path = build_path(*cell, max_exponent=10**6)
        assert first_exceeding_by_vertex(path) == first_exceeding(path), cell


def test_classify_blue_spans_vertices():
    sub = classify(build_path(3, 5), 0, 2)
    assert sub.color is Color.BLUE
    assert sub.edge_span == (1, 6)
    assert sub.window is None
    assert sub.weight1 == 2


def test_classify_green_with_window():
    sub = classify(build_path(3, 5), 1, 3)
    assert sub.color is Color.GREEN
    assert (sub.green_m, sub.green_w) == (3, 1)
    assert sub.edge_span == (4, 8)
    assert sub.window == (3, 3)


def test_classify_red_extends_backward():
    sub = classify(build_path(3, 5), 2, 3)
    assert sub.color is Color.RED
    assert sub.edge_span == (6, 8)


def test_classify_validates_indices():
    path = build_path(3, 5)
    with pytest.raises(ValueError):
        classify(path, 2, 2)
    with pytest.raises(ValueError):
        classify(path, -1, 2)


@given(params)
def test_classify_from_origin_is_blue(cell):
    path = build_path(*cell)
    for k in range(1, path.height + 1):
        assert classify(path, 0, k).color is Color.BLUE


@given(params)
def test_classify_is_total_and_deterministic(cell):
    path = build_path(*cell)
    for i in range(path.height):
        for k in range(i + 1, path.height + 1):
            first = classify(path, i, k)
            again = classify(path, i, k)
            assert first == again
            if first.color is Color.GREEN:
                assert 3 <= first.green_m <= path.n - 2
                assert 1 <= first.green_w <= path.r - 2
                length = path.dims.value(first.green_m - 1) - first.green_w * path.dims.value(
                    first.green_m - 2
                )
                assert first.window == (path.v_index[i] - length + 1, path.v_index[i])
            span_start = path.v_index[i] if first.color is Color.RED else path.v_index[i] + 1
            assert first.edge_span == (span_start, path.v_index[k])


def test_no_greens_for_r2():
    for n in range(4, 9):
        path = build_path(2, n)
        for i in range(path.height):
            for k in range(i + 1, path.height + 1):
                assert classify(path, i, k).color is not Color.GREEN


@pytest.mark.parametrize("cell", [(3, 5), (2, 6), (4, 6)])
def test_no_late_greens(cell):
    assert_no_late_greens(build_path(*cell))


def _green_cells():
    # r = 3..30, every n >= 5 with d(n-2) <= 2000.
    for r in range(3, 31):
        n = 5
        while dim_sequence(r, n - 2).value(n - 2) <= 2000:
            yield r, n
            n += 1


def test_green_table_is_the_one_exhaustive_match():
    cells = 0
    for r, n in _green_cells():
        d = [0, 1]  # d[k - 1] is d(k)
        while len(d) < n - 2:
            d.append(r * d[-1] - d[-2])
        table = green_table(build_path(r, n))
        matches = green_matches(r, n)
        assert all(len(pairs) == 1 for pairs in matches.values()), (r, n)
        assert {distance: pairs[0] for distance, pairs in matches.items()} == {
            distance: (m, w) for distance, (m, w, _) in table.items()
        }, (r, n)
        for m, w, length in table.values():
            assert length == d[m - 2] - w * d[m - 3], (r, n, m, w)
        cells += 1
    assert cells == 74


def test_path_json_schema():
    payload = build_path(3, 5).to_json_dict()
    assert payload == {"r": 3, "n": 5, "word": "EENEENEN", "v_index": [0, 3, 6, 8]}
