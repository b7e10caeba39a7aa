"""Benchmark of rank2cluster: the formula engine, the recursion oracle, the
verify sweep and the CLI.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads in turn.  Each pass of a workload
runs in a fresh interpreter (``worker.py``), so the package's ``lru_cache``
starts cold, as it does for a CLI user; one client sends each request after
the previous one returns.  Passes repeat until the next one would end after
``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians over
passes, and prints the ungated raw wall time and request-latency percentiles.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics: medians over traced passes, the tracing overhead (traced wall time
over untraced), and, from the untraced passes, the raw wall time, the
request-latency percentiles and the latency of the frontier cells.  The spans
of the last traced pass go to ``benchmarks/traces/<workload>.jsonl``.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "traces"
# Extra fresh interpreters per run that only set up, so setup_s is a median
# over several samples even when a pass is long.
SETUP_PROBES = 7
# A run must end within 180 s; stop waiting for a pass well before that.
RUN_DEADLINE_S = 170.0
# Untraced latency of the hardest in-reach cell of each engine.
FRONTIER_CELLS = {
    "cell.3_7.formula_s": ("cluster_variable", [3, 7]),
    "cell.3_8.oracle_s": ("oracle", [3, 8]),
}
# Printed with the end-to-end metrics, recorded as per-layer metrics, not gated.
UNGATED = (("wall_s", "s"), ("ref_s", "s"), ("req.p50_ms", "ms"), ("req.p90_ms", "ms"))


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if mode == "trace":
        TRACE_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{workload}.jsonl")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} passed the run deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker printed no report: {lines[-1][:200]!r}") from exc


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for ``seconds``; return its metrics and pass details."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [_spawn(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.monotonic()
    pass_s = 0.0
    # Start no pass that, as long as the last one, would end after ``seconds``.
    while not plain or (trace and not traced) or time.monotonic() - start + pass_s <= seconds:
        mode = "trace" if trace and len(traced) < len(plain) else "plain"
        began = time.monotonic()
        report = _spawn(workload, seed, mode, deadline)
        pass_s = time.monotonic() - began
        (traced if mode == "trace" else plain).append(report)
    passes = plain + traced
    setups += [p["setup_s"] for p in passes]
    latencies = [x for p in plain for x in p["latencies"]]
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "wall_rel": statistics.median(p["wall_s"] / p["ref_s"] for p in plain),
        "ref_s": statistics.median(p["ref_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "req.p50_ms": 1000 * percentiles[49],
        "req.p90_ms": 1000 * percentiles[89],
    }
    if trace:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        metrics["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                                     / metrics["wall_s"])
        requests = workloads.requests(workload, seed)
        for name, (call, args) in FRONTIER_CELLS.items():
            at = [i for i, (c, a, _) in enumerate(requests) if (c, a) == (call, args)]
            metrics[name] = (statistics.median(p["latencies"][at[0]] for p in plain)
                             if at else 0.0)
    return {
        "metrics": metrics,
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "latency_samples": len(latencies),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:5],
    }


def _print_table(workload: str, seed: int, result: dict, metric_specs: list[dict]) -> None:
    fail_frac = result["failed"] / result["attempted"]
    print(f"{workload}  seed {seed}  passes {result['passes']} untraced, "
          f"{result['traced_passes']} traced  requests {result['attempted']}  "
          f"failed {result['failed']}  fail_frac {fail_frac:.4g}")
    samples = {"setup_s": result["setup_samples"], "req.p50_ms": result["latency_samples"],
               "req.p90_ms": result["latency_samples"],
               **dict.fromkeys(FRONTIER_CELLS, result["passes"])}
    shown = list(metric_specs)
    names = {spec["name"] for spec in shown}
    shown += [{"name": name, "unit": unit} for name, unit in UNGATED if name not in names]
    for spec in shown:
        value = result["metrics"][spec["name"]]
        count = samples.get(spec["name"], result["traced_passes"] or result["passes"])
        print(f"  {spec['name']:<40} {value:>14.6g} {spec['unit']:<6} (n={count})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    metric_specs = config["per_layer"] if args.trace else config["end_to_end"]
    if not (ROOT / "src" / "rank2cluster" / "__init__.py").is_file():
        print("error: src/rank2cluster not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        try:
            result = run_workload(workload, args.seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        missing = [s["name"] for s in metric_specs if s["name"] not in result["metrics"]]
        if missing:
            print(f"error: metrics not measured: {missing}", file=sys.stderr)
            return 1
        _print_table(workload, args.seed, result, metric_specs)
        prefix = f"{workload}." if args.workload == "all" else ""
        for spec in metric_specs:
            metrics[prefix + spec["name"]] = {"value": float(result["metrics"][spec["name"]]),
                                              "unit": spec["unit"]}
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
