"""One pass of one workload in a fresh interpreter.

    python3 benchmarks/worker.py --workload W --seed N --t0 STAMP --mode M [--trace-out FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, the package import and
input generation.  Modes:

* ``setup``: stop after set-up;
* ``plain``: run the request list once, closed loop, untraced;
* ``trace``: the same with spans recorded (written to ``--trace-out``).

The reference computation is timed before and after the loop.  Outputs are
checked after it, and peak memory is read before the check.  The last stdout
line is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checker
import workloads
from tracer import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
FAILURES_SHOWN = 5
# The reference computation uses nothing from the package.  It mixes the
# kinds of work the workloads do, one function each.
REFERENCE_TERMS = [((i, j), (i * 7919 + j * 104729 + 1) << 150)
                   for i in range(25) for j in range(4)]
REFERENCE_BITS = 17
REFERENCE_REPEATS = 7


def _convolution() -> None:
    """Big-integer dict convolution and rendering, like ``laurent``."""
    product: dict[tuple[int, int], int] = {}
    for (a1, a2), ca in REFERENCE_TERMS:
        for (b1, b2), cb in REFERENCE_TERMS:
            key = (a1 + b1, a2 + b2)
            product[key] = product.get(key, 0) + ca * cb
    " + ".join(f"{c}*x1^{e1}*x2^{e2}" for (e1, e2), c in product.items()).split(" + ")


def _bitmask() -> None:
    """Recursive enumeration of sets of compatible elements, like ``combinat``."""
    # After choosing bit j, only bits above j + 1 remain allowed.
    allow = [((1 << REFERENCE_BITS) - 1) & ~((4 << j) - 1) for j in range(REFERENCE_BITS)]
    tally: dict[int, int] = {}

    def visit(candidates: int, weight: int) -> None:
        tally[weight] = tally.get(weight, 0) + 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            visit(candidates & allow[j], weight + j)

    visit((1 << REFERENCE_BITS) - 1, 0)


def _argparse() -> None:
    """Build an argparse parser with subcommands and parse one argv, like ``cli``."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("one", "two", "three"):
        p = sub.add_parser(name)
        for flag in ("--a", "--b", "--c", "--d"):
            p.add_argument(flag, type=int, default=0)
        p.add_argument("--style", choices=("x", "y", "z"), default="x")
    parser.parse_args(["two", "--a", "3", "--c", "-4", "--style", "y"])


def reference_times() -> list[float]:
    """Timings of a few repetitions of the whole reference computation.

    Taken just before and after each pass, their median tracks the speed of
    the machine during the pass, which on a shared host drifts by tens of
    percent over seconds to minutes.
    """
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _convolution()
        _bitmask()
        _argparse()
        times.append(time.perf_counter() - start)
    return times


def _execute(package, call: str, args: list):
    if call == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = package.cli.main(args)
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}
    if call == "oracle":
        return package.cluster.oracle(*args)
    return package.cluster.cluster_variable(*args)


def _normalise(call: str, args: list, result) -> dict:
    if isinstance(result, dict):
        return result
    if call == "oracle":
        return {"r": args[0], "index": args[1], "terms": result.terms}
    return {"r": result.r, "index": result.index, "terms": result.value.terms}


def run_pass(package, requests: list, tracer: Tracer | None) -> dict:
    latencies, results = [], []
    clock = time.perf_counter
    start = clock()
    for request_id, (call, args, _) in enumerate(requests):
        if tracer is not None:
            tracer.request = request_id
        t0 = clock()
        try:
            result = _execute(package, call, args)
        except Exception as exc:  # a failed request is recorded, not fatal
            result = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        results.append(result)
    wall_s = clock() - start
    return {"wall_s": wall_s, "latencies": latencies, "results": results}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "trace"))
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import rank2cluster
    import rank2cluster.cli  # noqa: F401  (not imported by the package itself)

    requests = workloads.requests(args.workload, args.seed)
    points = workloads.fingerprint_points(args.seed)
    report = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install(tracer, rank2cluster)
    ref_before = reference_times()
    measured = run_pass(rank2cluster, requests, tracer)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["ref_s"] = statistics.median(ref_before + reference_times())
    report["wall_s"] = measured["wall_s"]
    report["latencies"] = measured["latencies"]
    if tracer is not None:
        layers = tracer.layers(measured["wall_s"])
        cache = rank2cluster.cluster._generating_poly_cached.cache_info()
        layers["cluster.gen_cache.hits"] = cache.hits
        layers["cluster.gen_cache.misses"] = cache.misses
        report["layers"] = layers
        if args.trace_out:
            tracer.write(args.trace_out)

    failures = []
    for (call, call_args, spec), result in zip(requests, measured["results"]):
        reason = checker.check(spec, _normalise(call, call_args, result), points)
        if reason is not None:
            failures.append(f"{call} {call_args}: {reason}")
    report["attempted"] = len(requests)
    report["failed"] = len(failures)
    report["failures"] = failures[:FAILURES_SHOWN]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
