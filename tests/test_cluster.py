import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from rank2cluster import cluster, laurent
from rank2cluster.caps import DEFAULT_MAX_EXPONENT
from rank2cluster.cluster import (
    GVector,
    cluster_variable,
    euler_table,
    f_polynomial,
    g_vector,
    oracle,
    verify_range,
)
from rank2cluster.combinat import generating_poly
from rank2cluster.dyck import build_path, dim_sequence
from rank2cluster.errors import ConfigBudgetError, ExponentOverflowError
from rank2cluster.laurent import LaurentPoly2

from oracles import X5_R3_TERMS, f_polynomial_from_oracle, family_count

SWEEP_CELLS = [(r, n) for r in range(2, 7) for n in range(4, 9) if r + n <= 10]


def test_oracle_generators():
    assert oracle(3, 1) == LaurentPoly2.var1()
    assert oracle(3, 2) == LaurentPoly2.var2()


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_oracle_one_step(r):
    assert oracle(r, 3) == LaurentPoly2({(-1, r): 1, (-1, 0): 1})
    assert oracle(r, 0) == LaurentPoly2({(r, -1): 1, (0, -1): 1})


def test_oracle_r1_periodicity():
    assert oracle(1, 6) == LaurentPoly2.var1()
    assert oracle(1, 7) == LaurentPoly2.var2()
    assert oracle(1, 8) == oracle(1, 3)
    assert oracle(1, -2) == oracle(1, 3)
    assert oracle(1, 4) == LaurentPoly2({(-1, -1): 1, (-1, 0): 1, (0, -1): 1})


# A walk of |m| steps would take days at m = 10**12; the period keeps it at five.
@pytest.mark.parametrize(
    "m", [10**12 + k for k in range(5)] + [-(10**12) + k for k in range(5)] + [1000, -999]
)
def test_oracle_r1_walks_at_most_five_steps(time_limit, m):
    assert oracle(1, m) == oracle(1, 5 + m % 5)


def test_oracle_r2_x4():
    assert oracle(2, 4) == LaurentPoly2({(-2, 3): 1, (-2, 1): 2, (-2, -1): 1, (0, -1): 1})


def test_oracle_rejects_bad_r():
    with pytest.raises(ValueError):
        oracle(0, 4)


def test_oracle_exponent_cap():
    with pytest.raises(ExponentOverflowError):
        oracle(3, 9, max_exponent=100)


def test_cluster_variable_worked_example():
    assert cluster_variable(3, 5).value == LaurentPoly2(X5_R3_TERMS)


def test_cluster_variable_small_indices_match_oracle():
    for index in (-1, 0, 1, 2, 3, 4):
        assert cluster_variable(3, index).value == oracle(3, index)


def test_cluster_variable_matches_oracle_r2():
    assert cluster_variable(2, 4).value == oracle(2, 4)


def test_cluster_variable_mirror():
    x5 = cluster_variable(3, 5).value
    assert cluster_variable(3, -2).value == x5.swap_vars()
    assert cluster_variable(3, -2).value == oracle(3, -2)


@pytest.mark.parametrize("r", range(2, 9))
def test_indices_3_and_0_come_from_the_one_edge_path(r):
    # At n = 3 the box is 1 x 0 and the path is the single edge E: its two
    # families, {} and {edge 1}, give the generating polynomial 1 + y1.
    assert generating_poly(build_path(r, 3)) == LaurentPoly2({(0, 0): 1, (1, 0): 1})
    for index in (3, 0):
        assert cluster_variable(r, index).value == oracle(r, index)


def test_cluster_variable_rejects_r1():
    with pytest.raises(ValueError):
        cluster_variable(1, 5)


def test_cluster_variable_budget():
    with pytest.raises(ConfigBudgetError):
        cluster_variable(3, 7, config_budget=1000)


def test_default_budget_admits_2_233_and_refuses_2_234():
    # (2,233) needs 98 716 464 scan steps and (2,234) needs 100 003 600.
    assert sum(f_polynomial(2, 233).terms.values()) == family_count(2, 233)
    with pytest.raises(ConfigBudgetError):
        f_polynomial(2, 234)


def _d(r, k):
    """d(k) for k >= 0, with d(0) = -1, d(1) = 0 and d(k) = r*d(k-1) - d(k-2)."""
    values = [-1, 0]
    while len(values) <= k:
        values.append(r * values[-1] - values[-2])
    return values[k]


def _top(index):
    """The n whose d(n) is the largest exponent of x_index."""
    return index if index >= 1 else 3 - index


class _Started(Exception):
    """Raised by the first piece of real work: the call got past admission."""


def _refused(call):
    try:
        call()
    except ExponentOverflowError:
        return True
    except (_Started, ConfigBudgetError):
        pass
    return False


def test_cap_matrix_is_decided_from_d_n_before_any_work(monkeypatch):
    def start(*args, **kwargs):
        raise _Started

    monkeypatch.setattr(cluster, "build_path", start)
    monkeypatch.setattr(laurent, "_step", start)
    monkeypatch.setattr(laurent, "_affine_step", start)
    for r in range(2, 6):
        for index in range(-6, 9):
            n = _top(index)
            # Caps below 1 are outside the contract (the CLI rejects them).
            for cap in {_d(r, n - 1), _d(r, n) - 1, _d(r, n)} - {-1, 0}:
                expected = _d(r, n) > cap
                for call in (
                    lambda: oracle(r, index, max_exponent=cap),
                    lambda: cluster_variable(r, index, max_exponent=cap),
                    lambda: g_vector(r, index, max_exponent=cap),
                ):
                    assert _refused(call) == expected, (r, index, cap)


def test_engines_finish_at_the_cap_d_n():
    for r in range(2, 6):
        for index in range(-6, 9):
            n = _top(index)
            if r + n > 9:
                continue
            cap = max(_d(r, n), 1)
            value = oracle(r, index, max_exponent=cap)
            assert cluster_variable(r, index, max_exponent=cap).value == value
            assert g_vector(r, index, max_exponent=cap) == g_vector(r, index)


def test_oracle_r1_caps_only_below_1():
    assert oracle(1, 1, max_exponent=0) == LaurentPoly2.var1()
    with pytest.raises(ExponentOverflowError):
        oracle(1, 3, max_exponent=0)
    assert oracle(1, 1000, max_exponent=1) == oracle(1, 5)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SWEEP_CELLS))
def test_positivity_and_denominator(cell):
    r, n = cell
    value = cluster_variable(r, n).value
    assert all(coeff > 0 for coeff in value.terms.values())
    dims = dim_sequence(r, n)
    assert value.min_exponents() == (-dims.value(n - 1), -dims.value(n - 2))


def test_g_vector_examples():
    assert g_vector(3, 5) == GVector(-8, 21)
    for r in (2, 3, 6):
        assert g_vector(r, 3) == GVector(-1, r)
        assert g_vector(r, 0) == GVector(0, -1)
    assert g_vector(3, 1) == GVector(1, 0)
    assert g_vector(3, 2) == GVector(0, 1)


def test_g_vector_negative_indices():
    # index -2 corresponds to n = 5: (-d(3), d(2)).
    assert g_vector(3, -2) == GVector(-3, 1)
    # index -1 corresponds to n = 4: (-d(2), d(1)).
    assert g_vector(3, -1) == GVector(-1, 0)


def test_r2_admission_takes_constant_time(time_limit):
    # d(k) = k - 1 at r = 2: a billion-index cell is admitted or refused
    # without building d(1)..d(n).
    assert g_vector(2, 10**9, max_exponent=10**10) == GVector(-(10**9 - 2), 10**9 - 1)
    assert g_vector(2, 3 - 10**9, max_exponent=10**10) == GVector(-(10**9 - 3), 10**9 - 4)
    with pytest.raises(ConfigBudgetError):
        cluster_variable(2, 10**9, max_exponent=10**10)
    with pytest.raises(ExponentOverflowError, match=r"^d\(102\) = 101 exceeds the cap 100 \(r=2\)$"):
        g_vector(2, 10**9, max_exponent=100)


def test_g_vector_matches_denominator_component():
    for r, n in [(2, 6), (3, 5), (4, 5)]:
        value = cluster_variable(r, n).value
        assert g_vector(r, n).g1 == value.min_exponents()[0]


def test_f_polynomial_base_cases():
    for r in (2, 3, 7):
        assert f_polynomial(r, 3) == LaurentPoly2({(1, 0): 1, (0, 0): 1})
        assert f_polynomial(r, 0) == LaurentPoly2({(0, 1): 1, (0, 0): 1})


def test_f_polynomial_worked_example():
    assert f_polynomial(3, 5).eval_at(1, 1) == 365


@pytest.mark.parametrize("cell", [(2, 4), (2, 6), (3, 5), (3, 6), (4, 5)])
def test_f_polynomial_against_oracle_derivation(cell):
    r, n = cell
    assert f_polynomial(r, n) == f_polynomial_from_oracle(r, n)


def test_f_polynomial_mirror_identity():
    # F_{-2} = y1^d(3) y2^d(4) F_5(1/y2, 1/y1) for r = 3.
    f5 = f_polynomial(3, 5)
    expected = LaurentPoly2({(3 - b, 8 - a): c for (a, b), c in f5.terms.items()})
    assert f_polynomial(3, -2) == expected


@pytest.mark.parametrize("cell", [(2, 5), (3, 5), (4, 4), (4, 6)])
def test_f_polynomial_reciprocity(cell):
    r, n = cell
    dims = dim_sequence(r, n)
    f_n = f_polynomial(r, n)
    f_mirror = f_polynomial(r, 3 - n)
    mapped = LaurentPoly2(
        {(dims.value(n - 2) - b, dims.value(n - 1) - a): c for (a, b), c in f_n.terms.items()}
    )
    assert f_mirror == mapped
    assert f_mirror.coefficient(0, 0) == 1


def test_f_polynomial_rejects_initial_cluster():
    with pytest.raises(ValueError):
        f_polynomial(3, 1)
    with pytest.raises(ValueError):
        f_polynomial(3, 2)


def test_euler_table_worked_example():
    table = euler_table(3, 5, "positive")
    assert table.entries[(0, 0)] == 1
    assert table.entries[(8, 3)] == 1
    assert sum(table.entries.values()) == 365
    assert (table.max_e1, table.max_e2) == (8, 3)


def test_euler_table_negative_sign():
    table = euler_table(3, 5, "negative")
    assert (table.max_e1, table.max_e2) == (3, 8)
    assert table.entries[(0, 0)] == 1
    assert table.entries[(3, 8)] == 1
    assert sum(table.entries.values()) == 365
    positive = euler_table(3, 5, "positive")
    # The two tables are the same multiset of counts, reflected.
    assert sorted(table.entries.values()) == sorted(positive.entries.values())


def test_euler_table_total_is_family_count():
    for cell in [(2, 5), (3, 4), (4, 5)]:
        assert sum(euler_table(*cell).entries.values()) == family_count(*cell)


def test_euler_table_csv():
    text = euler_table(3, 5, "positive").to_csv()
    lines = text.splitlines()
    assert lines[0] == "e1,e2,chi"
    assert lines[1] == "0,0,1"
    assert len(lines) == 1 + 9 * 4  # dense over the bounding rectangle
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 365


# Per r, the indices from -6 to 9 whose formula the default budget admits;
# each finishes in under 1 s.
CANONICAL_INDICES = {2: range(-6, 10), 3: range(-5, 9), 4: range(-4, 8), 5: range(-3, 7)}


def _assert_canonical(poly):
    # ``type(x) is int`` also refuses bools, which ``isinstance`` would pass.
    for (e1, e2), coeff in poly.terms.items():
        assert type(e1) is int and type(e2) is int
        assert type(coeff) is int and coeff != 0


@pytest.mark.parametrize("r", sorted(CANONICAL_INDICES))
def test_engines_return_canonical_term_maps(r):
    for index in CANONICAL_INDICES[r]:
        if index >= 3:
            _assert_canonical(generating_poly(build_path(r, index)))
        if index not in (1, 2):
            _assert_canonical(f_polynomial(r, index))
        _assert_canonical(cluster_variable(r, index).value)
        _assert_canonical(oracle(r, index))


def test_r1_oracle_returns_canonical_term_maps():
    for index in range(-6, 10):
        _assert_canonical(oracle(1, index))


def test_euler_table_validates_args():
    with pytest.raises(ValueError):
        euler_table(3, 2)
    with pytest.raises(ValueError):
        euler_table(3, 5, "sideways")


def test_verify_range_small_sweep():
    rows = verify_range(2, 8)
    assert [(row["r"], row["n"]) for row in rows] == [(2, n) for n in range(4, 7)]
    assert all(row["status"] == "pass" for row in rows)
    assert all(isinstance(row["millis"], int) for row in rows)


def test_verify_range_reports_skips():
    rows = verify_range(3, 10, config_budget=10**4)
    status = {(row["r"], row["n"]): row["status"] for row in rows}
    assert status[(3, 7)] == "skipped"  # needs 290 752 aggregation steps
    assert status[(2, 8)] == "pass"


def test_verify_range_sorted_rows():
    rows = verify_range(4, 9)
    keys = [(row["r"], row["n"]) for row in rows]
    assert keys == sorted(keys)


def _count_steps(monkeypatch):
    """Count ``_step`` and ``_affine_step`` calls, one per recursion step."""
    calls = []
    for name in ("_step", "_affine_step"):
        step = getattr(laurent, name)

        def counting(*args, step=step):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(laurent, name, counting)
    return calls


def test_verify_range_walks_each_step_once(monkeypatch):
    calls = _count_steps(monkeypatch)
    rows = verify_range(2, 24)
    assert [row["n"] for row in rows] == list(range(4, 23))
    assert all(row["status"] == "pass" for row in rows)
    # x_3..x_22 up and x_0..x_-19 down: 20 steps each.
    assert len(calls) == 2 * (22 - 2)


def test_verify_range_opens_one_walk_up_and_one_down_per_r(monkeypatch):
    calls = _count_steps(monkeypatch)
    opened = []
    walk = cluster._walk

    def recording(r, downward):
        opened.append((r, downward))
        return walk(r, downward)

    monkeypatch.setattr(cluster, "_walk", recording)
    verify_range(None, 10)
    assert opened == [(r, downward) for r in range(2, 7) for downward in (False, True)]
    assert len(calls) == sum(2 * (10 - r - 2) for r in range(2, 7))


def test_the_walk_decodes_only_the_values_that_leave_it(monkeypatch):
    decoded = []
    decode = cluster._decode

    def counting(value):
        decoded.append(1)
        return decode(value)

    monkeypatch.setattr(cluster, "_decode", counting)
    oracle(3, 8)
    assert len(decoded) == 1
    decoded.clear()
    verify_range(2, 24)
    # x_4..x_22 up and x_-1..x_-19 down: 19 compared values per direction.
    assert len(decoded) == 2 * 19


# SHA-256 of repr(sorted(terms.items())) of the oracle's value, computed with
# the recursion step that decoded every x_m into a term map; (2, 100) and
# (2, -97) with the division step ``_step``, before r = 2 took ``_affine_step``.
ORACLE_HASHES = {
    (3, 8): "ada5835ed22c06ac0ace79cb9a0578dab329696ec170cd9c45b13096631a0849",
    (2, 30): "8ae708a37150547acdd4917b1f3c210628edfefbf4a9dc0738afed096e9c4a18",
    (2, -26): "3b95b5b56b34d1f6c0312d883d66c4608d29bc4fc06207d9f408a42a295ff560",
    (20, 5): "757c4dbaf8862aa0ea0a6ceec2d82e0ee36d5a8f5850fb68790de1b278ab1337",
    (20, -2): "2e7e8bf8d2a8eec139ef1cde808949898fbe0f539e284001d731c140c7860984",
    (3, -4): "dfeb046236a50ce8a9a1c9dcf6d22f689dd27a33bc351f1f136fc8e3dc47fb49",
    (4, 7): "e1fc5187c3f589bba8315b3592f7402508b5ca703dbd0a91c3d35b0bac0d015c",
    (7, 6): "6e4cf46427eee6b6b6aae0bc8cd04e4057c1bdd91fbddc783c808bbc4e959353",
    (1, 1000): "eb49812049888f1312c09d48aa8cc038ee2516471c2033e7ec7fa4930144d099",
    (2, 100): "4e156f888f0ad667ff8746e29428d4ec9de1a9c078c2ba69312974256d508b40",
    (2, -97): "69b57f03fc58353cc87ee1b5597e479c50d2040ac87da10cdd1fd36502184067",
}


@pytest.mark.parametrize("cell", list(ORACLE_HASHES))
def test_oracle_values_are_pinned(cell):
    terms = sorted(oracle(*cell).terms.items())
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == ORACLE_HASHES[cell]


def test_only_oracle_deep_requests_take_two_point_products(monkeypatch):
    sizes = []
    at_two_points = laurent._at_two_points

    def spy(rows, size):
        sizes.append(size)
        return at_two_points(rows, size)

    monkeypatch.setattr(laurent, "_at_two_points", spy)
    # verify-sweep.
    verify_range(2, 24)
    verify_range(6, 9)
    # formula-tall runs the formula engine only, at these cells and their mirrors.
    for r, n in ((3, 7), (4, 6), (2, 18), (2, 17), (6, 5), (5, 5), (3, 6)):
        cluster_variable(r, n)
        cluster_variable(r, 3 - n)
    # session-mix runs the oracle (expand --engine oracle or both) at most at
    # every index n or 3 - n of a path of height d(n - 2) <= 10, r <= 6.
    for r in range(2, 7):
        n = 4
        while _d(r, n - 2) <= 10:
            oracle(r, n)
            oracle(r, 3 - n)
            n += 1
    assert sizes == []
    # oracle-deep: the last step of (3, 8) multiplies rows of 10 to 20 kbit.
    oracle(3, 8)
    assert sizes


@pytest.mark.parametrize("r_max, sum_cap, caps, admitted", [
    # d(2, n) = n - 1, so the cap admits n <= 15 and skips 16..22.
    (2, 24, {"max_exponent": 14}, {2: 15}),
    # The budget skips (3, 6) and (3, 7) and admits every r = 2 cell.
    (3, 10, {"config_budget": 10**4}, {2: 8, 3: 5}),
])
def test_verify_range_takes_no_step_for_a_skipped_cell(monkeypatch, r_max, sum_cap, caps, admitted):
    calls = _count_steps(monkeypatch)
    rows = verify_range(r_max, sum_cap, **caps)
    for row in rows:
        expected = "pass" if row["n"] <= admitted[row["r"]] else "skipped"
        assert row["status"] == expected, row
    assert "skipped" in {row["status"] for row in rows}
    assert len(calls) == sum(2 * (top - 2) for top in admitted.values())


@pytest.mark.parametrize("r_max, sum_cap, caps", [
    (None, 10, {}),
    (3, 10, {"config_budget": 10**4}),
    (6, 11, {"max_exponent": 20}),
])
def test_verify_range_rows_match_a_per_cell_reference(r_max, sum_cap, caps):
    def reference(r, n):
        try:
            agree = all(
                cluster_variable(r, i, **caps).value
                == oracle(r, i, caps.get("max_exponent", DEFAULT_MAX_EXPONENT))
                for i in (n, 3 - n)
            )
        except (ConfigBudgetError, ExponentOverflowError):
            return "skipped"
        return "pass" if agree else "fail"

    last_r = sum_cap - 4 if r_max is None else r_max
    cells = [(r, n) for r in range(2, last_r + 1) for n in range(4, sum_cap - r + 1)]
    rows = [{k: v for k, v in row.items() if k != "millis"}
            for row in verify_range(r_max, sum_cap, **caps)]
    assert rows == [{"r": r, "n": n, "status": reference(r, n)} for r, n in cells]
