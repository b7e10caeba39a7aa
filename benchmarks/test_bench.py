"""Tests of the benchmark itself:  python3 -m pytest benchmarks -q"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checker
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from rank2cluster import cli, cluster  # noqa: E402

POINTS = workloads.fingerprint_points(0)


def _cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "out": out.getvalue(), "err": ""}


def _bump_first(pattern: str, text: str) -> str:
    """Add one to the first integer captured by ``pattern``."""
    match = re.search(pattern, text)
    assert match is not None
    lo, hi = match.span(1)
    return text[:lo] + str(int(match.group(1)) + 1) + text[hi:]


def test_checker_catches_one_changed_coefficient_in_a_library_result():
    var = cluster.cluster_variable(3, 5)
    spec = {"kind": "expansion", "r": 3, "index": 5}
    output = {"r": 3, "index": 5, "terms": var.value.terms}
    assert checker.check(spec, output, POINTS) is None
    key = next(iter(output["terms"]))
    output["terms"][key] += 1
    assert checker.check(spec, output, POINTS) is not None


def test_checker_catches_a_change_that_keeps_the_coefficient_sum():
    terms = cluster.oracle(2, 9).terms
    spec = {"kind": "expansion", "r": 2, "index": 9}
    up = next(iter(terms))
    down = next(key for key, coeff in terms.items() if coeff > 1 and key != up)
    terms[up] += 1
    terms[down] -= 1
    reason = checker.check(spec, {"r": 2, "index": 9, "terms": terms}, POINTS)
    assert reason is not None and "mod P" in reason


@pytest.mark.parametrize(
    ("argv", "spec", "pattern"),
    [
        (["expand", "--r", "3", "--n", "5"],
         {"kind": "expansion", "r": 3, "index": 5, "format": "plain"}, r"\+ (\d+)\*"),
        (["expand", "--r", "3", "--n", "-2", "--format", "latex"],
         {"kind": "expansion", "r": 3, "index": -2, "format": "latex"}, r"\+ (\d+) "),
        (["expand", "--r", "2", "--n", "8", "--format", "json"],
         {"kind": "expansion", "r": 2, "index": 8, "format": "json"}, r'"c": "(\d+)"'),
        (["fpoly", "--r", "3", "--n", "-2"],
         {"kind": "fpoly", "r": 3, "index": -2}, r"\+ (\d+)\*"),
        (["euler", "--r", "3", "--n", "5", "--sign", "negative"],
         {"kind": "euler", "r": 3, "n": 5, "sign": "negative"}, r"\n\d+,\d+,([1-9]\d*)\n"),
        (["gvector", "--r", "4", "--n", "6"],
         {"kind": "gvector", "r": 4, "index": 6}, r"\((-?\d+),"),
    ],
)
def test_checker_catches_one_changed_coefficient_in_cli_output(argv, spec, pattern):
    output = _cli(argv)
    assert checker.check(spec, output, POINTS) is None
    output["out"] = _bump_first(pattern, output["out"])
    assert checker.check(spec, output, POINTS) is not None


def test_checker_rejects_failed_and_nonzero_exits():
    spec = {"kind": "gvector", "r": 3, "index": 5}
    assert checker.check(spec, {"error": "ValueError: boom"}, POINTS) is not None
    assert checker.check(spec, {"code": 2, "out": "(-8, 21)\n", "err": ""}, POINTS) is not None


def test_verify_rows_must_cover_exactly_the_expected_cells():
    argv = ["verify", "--sum-cap", "9", "--r-max", "6"]
    spec = {"kind": "verify", "cells": workloads.verify_cells(tuple(argv))}
    output = _cli(argv)
    assert checker.check(spec, output, POINTS) is None
    output["out"] = "".join(output["out"].splitlines(keepends=True)[:-1])
    assert checker.check(spec, output, POINTS) is not None


def test_seed_changes_order_but_not_cells_of_fixed_workloads():
    for workload in ("formula-tall", "oracle-deep", "verify-sweep"):
        lists = [workloads.requests(workload, seed) for seed in range(8)]
        cells = {tuple(sorted(json.dumps(req[:2]) for req in reqs)) for reqs in lists}
        orders = {tuple(json.dumps(req[:2]) for req in reqs) for reqs in lists}
        assert len(cells) == 1, workload
        assert len(orders) > 1, workload
    assert workloads.requests("session-mix", 1) != workloads.requests("session-mix", 2)
    assert workloads.requests("session-mix", 1) == workloads.requests("session-mix", 1)


def test_per_layer_metrics_are_all_measured():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = set(tracer.metric_names()) | {
        "cluster.gen_cache.hits", "cluster.gen_cache.misses", "trace.overhead",
        "wall_s", "ref_s", "req.p50_ms", "req.p90_ms",
        "cell.3_7.formula_s", "cell.3_8.oracle_s",
    }
    assert {m["name"] for m in config["per_layer"]} <= produced


@pytest.mark.parametrize("workload", ["session-mix", "verify-sweep"])
def test_traced_self_times_sum_to_at_most_wall(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "4",
         "--mode", "trace", "--trace-out", str(tmp_path / "spans.jsonl"),
         "--t0", repr(time.monotonic())],
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, report["failures"]
    layers = report["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0 < total <= report["wall_s"]
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == sum(v for k, v in layers.items() if k.endswith(".calls"))


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "session-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
