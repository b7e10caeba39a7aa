"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria sweep ranges:

* oracle-equivalence sweep: r >= 2, n >= 4, r + n <= 10 (plus mirrors);
* geometry checks (Christoffel word, maximality, late-green trap, green
  uniqueness): r + n <= 12;
* brute-force agreement: every (r, n) with at most 22 edges whose family
  count fits the enumeration workload budget; larger cells are reported as
  skipped with their predicted counts, never silently dropped.
"""

import time
from contextlib import contextmanager

from rank2cluster.cluster import (
    _generating_poly_cached,
    cluster_variable,
    euler_table,
    f_polynomial,
    g_vector,
    verify_range,
)
from rank2cluster.combinat import build_pool, generating_poly
from rank2cluster.dyck import Color, build_path, dim_sequence
from rank2cluster.laurent import LaurentPoly2

from oracles import (
    X5_R3_TERMS, assert_no_late_greens, bruteforce_poly, family_count, first_exceeding,
    green_matches, lower_christoffel_word,
)

SWEEP_CELLS = [(r, n) for r in range(2, 7) for n in range(4, 9) if r + n <= 10]
GEOMETRY_CELLS = [(r, n) for r in range(2, 9) for n in range(4, 11) if r + n <= 12]

# Largest family count the brute-force agreement criterion will materialize.
ENUM_BUDGET = 10**6

EXPECTED_COEFFS = [1, 8, 3, 28, 15, 56, 3, 30, 70, 1, 6, 30, 56, 3, 15, 28, 3, 8, 1]


@contextmanager
def report(line: str):
    try:
        yield
    except Exception:
        print(f"FAIL {line}")
        raise
    print(f"PASS {line}")


def bruteforce_cells():
    """All (r, n) with r >= 2, n >= 4 and at most 22 edges."""
    cells = []
    for r in range(2, 23):
        n = 4
        while True:
            dims = dim_sequence(r, n - 1)
            if dims.value(n - 1) > 22:
                break
            cells.append((r, n))
            n += 1
    return cells


def test_criterion_1_worked_example_reproduction():
    with report("criterion 1: (r=3, n=5) expansion matches the 19-term display, < 1 s"):
        _generating_poly_cached.cache_clear()
        start = time.perf_counter()
        value = cluster_variable(3, 5).value
        elapsed = time.perf_counter() - start
        expected = LaurentPoly2(X5_R3_TERMS)
        assert value == expected
        assert len(value.terms) == 19
        assert sorted(value.terms.values()) == sorted(EXPECTED_COEFFS)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence_sweep():
    with report("criterion 2: formula == oracle for r+n <= 10 and mirrored indices"):
        start = time.perf_counter()
        rows = verify_range(6, 10)
        elapsed = time.perf_counter() - start
        assert [(row["r"], row["n"]) for row in rows] == SWEEP_CELLS
        bad = [row for row in rows if row["status"] != "pass"]
        assert not bad, f"non-passing cells: {bad}"
        assert elapsed <= 300.0, f"sweep took {elapsed:.1f}s"
        # Extending to r+n <= 11 under a budget between the step counts of (3,7)
        # (290 752) and (3,8) (5 018 160) overruns it at (3,8); that cell must
        # be reported skipped, not passed.
        extended = {
            (row["r"], row["n"]): row["status"]
            for row in verify_range(3, 11, config_budget=10**6)
        }
        assert extended[(3, 8)] == "skipped"
        assert extended[(3, 7)] == "pass"


def test_criterion_3_bruteforce_aggregate_agreement():
    with report("criterion 3: brute-force stream agrees with the aggregated polynomial"):
        ran, skipped = [], []
        for r, n in bruteforce_cells():
            count = family_count(r, n)
            if count > ENUM_BUDGET:
                skipped.append((r, n, count))
                continue
            path = build_path(r, n)
            assert bruteforce_poly(path) == generating_poly(path), f"mismatch at {(r, n)}"
            ran.append((r, n, count))
        for r, n, count in skipped:
            print(f"  skipped (r={r}, n={n}): predicted {count} families > budget {ENUM_BUDGET}")
        assert (3, 5, 365) in ran
        assert len(ran) >= 25
        # Every skip is genuinely over budget; nothing was silently dropped.
        assert all(count > ENUM_BUDGET for _, _, count in skipped)
        assert {(r, n) for r, n, _ in ran} | {(r, n) for r, n, _ in skipped} == set(
            bruteforce_cells()
        )


def test_criterion_4_positivity_and_denominators():
    with report("criterion 4: positive coefficients and exact denominator exponents"):
        for r, n in SWEEP_CELLS:
            value = cluster_variable(r, n).value
            assert all(c > 0 for c in value.terms.values()), f"nonpositive at {(r, n)}"
            dims = dim_sequence(r, n)
            assert value.min_exponents() == (-dims.value(n - 1), -dims.value(n - 2)), (
                f"denominator mismatch at {(r, n)}"
            )


def test_criterion_5_mirror_symmetry():
    with report("criterion 5: x_{3-n} equals the variable swap of x_n on the sweep"):
        for r, n in SWEEP_CELLS:
            assert (
                cluster_variable(r, 3 - n).value == cluster_variable(r, n).value.swap_vars()
            ), f"swap mismatch at {(r, n)}"


def test_criterion_6_christoffel_and_maximality():
    with report("criterion 6: Christoffel word equality and maximality for r+n <= 12"):
        for r, n in GEOMETRY_CELLS:
            path = build_path(r, n)
            assert path.word == lower_christoffel_word(path.height, path.width), (
                f"word mismatch at {(r, n)}"
            )
            lattice = list(path.points())
            for position, letter in enumerate(path.word):
                x, y = lattice[position]
                assert y * path.width <= x * path.height
                if letter == "E":
                    assert (y + 1) * path.width > x * path.height, (
                        f"maximality violated at {(r, n)} position {position}"
                    )


def test_criterion_7_fpolys_gvectors_euler_tables():
    with report("criterion 7: g-vectors, F-polynomials, reciprocity, Euler tables"):
        assert g_vector(3, 5).g1 == -8 and g_vector(3, 5).g2 == 21
        for r in range(2, 7):
            assert f_polynomial(r, 3) == LaurentPoly2({(1, 0): 1, (0, 0): 1})
        for r, n in SWEEP_CELLS:
            dims = dim_sequence(r, n)
            f_n = f_polynomial(r, n)
            mapped = LaurentPoly2(
                {
                    (dims.value(n - 2) - b, dims.value(n - 1) - a): c
                    for (a, b), c in f_n.terms.items()
                }
            )
            assert f_polynomial(r, 3 - n) == mapped, f"reciprocity fails at {(r, n)}"
            table = euler_table(r, n, "positive")
            assert table.entries[(0, 0)] == 1
            assert table.entries[(dims.value(n - 1), dims.value(n - 2))] == 1
            assert sum(table.entries.values()) == f_n.eval_at(1, 1) == family_count(r, n)


def test_criterion_8_late_green_and_ambiguity_traps():
    with report("criterion 8: no late greens and no ambiguous greens for r+n <= 12"):
        for r, n in GEOMETRY_CELLS:
            path = build_path(r, n)
            assert_no_late_greens(path)
            # No two (m, w) pairs share a distance d(m) - w*d(m-1), and each
            # green subpath carries the one pair of its first-exceeding distance.
            matches = green_matches(r, n)
            assert all(len(pairs) == 1 for pairs in matches.values()), (r, n)
            firsts = first_exceeding(path)
            pool = build_pool(path)
            assert len(pool.colored) == path.height * (path.height + 1) // 2
            for element in pool.colored:
                if element.color is Color.GREEN:
                    assert 3 <= element.green_m <= n - 2
                    distance = firsts[element.i] - element.i
                    assert matches[distance] == [(element.green_m, element.green_w)]
