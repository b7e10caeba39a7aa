"""Spans and counters around the package's public functions.

``install`` rebinds every module attribute and ``LaurentPoly2`` method that
holds one of the traced functions, so calls made through any import path go
through a wrapper.  Each wrapper appends one span ``[name, start, end,
parent, request]`` to an in-memory list; nothing is written until the pass
ends.  Counter hooks run inside their own span, so their (linear) cost lands
in the self time of the traced call, never in its caller's.

A span's self time is its duration minus the durations of its direct
children.  Self times of all spans therefore partition the time spent
inside root spans and sum to no more than the pass's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Public functions traced, by defining module (the layer).
FUNCTIONS = {
    "dyck": ("dim_sequence", "build_path", "first_exceeding_by_vertex", "classify"),
    "combinat": ("build_pool", "generating_poly"),
    "cluster": ("oracle", "cluster_variable", "g_vector", "f_polynomial", "euler_table",
                "verify_range"),
    "render": ("ascii_path", "svg_path", "tikz_path"),
    "cli": ("main", "build_parser"),
}
# LaurentPoly2 methods traced, as span name -> method name.
METHODS = {"mul": "__mul__", "pow": "__pow__", "div_exact": "div_exact", "eq": "__eq__",
           "render": "render"}
LAYERS = ("dyck", "combinat", "laurent", "cluster", "render", "cli")
# Counters kept by the hooks below.
COUNTERS = ("combinat.pool_colored", "combinat.configs", "combinat.out_terms",
            "laurent.mul.term_products", "laurent.div_exact.dividend_terms",
            "laurent.render.bytes", "laurent.max_terms", "laurent.max_coeff_bits",
            "render.bytes", "cli.exit_nonzero")


def metric_names() -> list[str]:
    """Every name ``Tracer.layers`` reports, whether or not a pass touched it."""
    spans = [f"{layer}.{fname}" for layer, names in FUNCTIONS.items() for fname in names]
    spans += [f"laurent.{short}" for short in METHODS]
    return ([f"{span}.{stat}" for span in spans for stat in ("calls", "self_s")]
            + [f"{layer}.{stat}" for layer in LAYERS for stat in ("self_s", "share")]
            + list(COUNTERS))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def note_poly(self, poly) -> None:
        """Track the largest term count and coefficient size seen."""
        counts = self.counts
        counts["laurent.max_terms"] = max(counts["laurent.max_terms"], len(poly))
        if poly:
            bits = max(abs(c).bit_length() for c in poly.terms.values())
            counts["laurent.max_coeff_bits"] = max(counts["laurent.max_coeff_bits"], bits)

    def layers(self, wall_s: float) -> dict[str, float]:
        """Per-span calls and self time, the counters, and per-layer totals."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        out: dict[str, float] = dict.fromkeys(metric_names(), 0)
        for (name, *_), own in zip(self.spans, self_s):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        for layer in LAYERS:
            out[f"{layer}.share"] = out[f"{layer}.self_s"] / wall_s
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start - origin,
                                         "end": end - origin, "parent": parent,
                                         "request": request}) + "\n")


def _len(value) -> int:
    return len(value) if hasattr(value, "__len__") else int(value != 0)


def _hooks() -> dict:
    def add(key, amount):
        def hook(tracer, args, result):
            tracer.counts[key] += amount(args, result)
        return hook

    def note(extract):
        def hook(tracer, args, result):
            tracer.note_poly(extract(args, result))
        return hook

    def gen_poly(tracer, args, result):
        tracer.counts["combinat.configs"] += 1 << args[0].height
        tracer.counts["combinat.out_terms"] += len(result)
        tracer.note_poly(result)

    def div_exact(tracer, args, result):
        tracer.counts["laurent.div_exact.dividend_terms"] += len(args[0])
        tracer.note_poly(result)

    rendered = add("render.bytes", lambda a, text: len(text.encode()))
    return {
        "combinat.build_pool": add("combinat.pool_colored", lambda a, pool: len(pool.colored)),
        "combinat.generating_poly": gen_poly,
        "laurent.mul": add("laurent.mul.term_products", lambda a, _: len(a[0]) * _len(a[1])),
        "laurent.pow": note(lambda a, poly: poly),
        "laurent.div_exact": div_exact,
        "laurent.render": add("laurent.render.bytes", lambda a, text: len(text.encode())),
        "render.ascii_path": rendered,
        "render.svg_path": rendered,
        "render.tikz_path": rendered,
        "cluster.oracle": note(lambda a, poly: poly),
        "cluster.cluster_variable": note(lambda a, var: var.value),
        "cli.main": add("cli.exit_nonzero", lambda a, code: int(code != 0)),
    }


def install(tracer: Tracer, package) -> None:
    """Route every binding of the traced functions through ``tracer``."""
    modules = [package] + [getattr(package, name) for name in LAYERS]
    hooks = _hooks()
    for layer, names in FUNCTIONS.items():
        for fname in names:
            original = getattr(getattr(package, layer), fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original, hooks.get(f"{layer}.{fname}"))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    cls = package.LaurentPoly2
    for short, method in METHODS.items():
        original = cls.__dict__[method]
        wrapper = tracer.wrap(f"laurent.{short}", original, hooks.get(f"laurent.{short}"))
        for attr, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, attr, wrapper)
