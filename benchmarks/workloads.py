"""Request lists for the four benchmark workloads, generated from a seed.

A request is a plain tuple ``(call, args, spec)``:

* ``call`` is ``"cluster_variable"``, ``"oracle"`` or ``"cli"``;
* ``args`` are the positional arguments of that call (for ``"cli"``, the
  argv list handed to ``rank2cluster.cli.main``);
* ``spec`` tells the checker what the output must be.

The seed fixes request order, which requests ``session-mix`` draws, and the
fingerprint points the checker evaluates at.  The program only ever sees the
generated requests.  Nothing here imports the package under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("formula-tall", "oracle-deep", "verify-sweep", "session-mix")

# Tall Dyck paths: aggregation is the whole cost.  (3, 7) is the hardest cell
# the formula engine reaches (2^21 configurations).
FORMULA_CELLS = ((3, 7), (4, 6), (2, 18), (2, 17), (6, 5), (5, 5), (3, 6))

# Deep recursions: (3, 8) mixes __mul__ and div_exact, (2, 30) is bound by
# div_exact, (20, 5) by __pow__, the negative indices walk downward, and
# r = 1 is the five-periodic case.
ORACLE_CELLS = ((3, 8), (2, 30), (20, 5), (3, -4), (2, -26), (1, 1000), (1, -999))

# r = 2 with r + n <= 24, plus every r <= 6 with r + n <= 9.
VERIFY_ARGVS = (
    ("verify", "--sum-cap", "24", "--r-max", "2"),
    ("verify", "--sum-cap", "9", "--r-max", "6"),
)

SESSION_REQUESTS = 160
SESSION_MIRROR_SHARE = 0.3
SESSION_MAX_HEIGHT = 10
SESSION_MAX_R = 6

# Fingerprints are taken modulo the Mersenne prime 2^61 - 1.
PRIME = (1 << 61) - 1
FINGERPRINT_POINTS = 4


def dims(r: int, upto: int) -> list[int]:
    """d(1)..d(upto) with d(1)=0, d(2)=1, d(k)=r*d(k-1)-d(k-2); index k-1."""
    values = [0, 1]
    while len(values) < upto:
        values.append(r * values[-1] - values[-2])
    return values[:upto]


def height(r: int, n: int) -> int:
    """Height d(n-2) of the maximal Dyck path for (r, n), n >= 4."""
    return dims(r, n - 2)[n - 3]


def verify_cells(argv: tuple[str, ...]) -> list[tuple[int, int]]:
    """The (r, n) cells a ``verify --sum-cap S --r-max R`` request must report."""
    sum_cap = int(argv[argv.index("--sum-cap") + 1])
    r_max = int(argv[argv.index("--r-max") + 1])
    return [(r, n) for r in range(2, r_max + 1) for n in range(4, sum_cap - r + 1)]


def session_cells() -> list[tuple[int, int]]:
    """Cells (r, n), n >= 4, with path height at most SESSION_MAX_HEIGHT."""
    cells = []
    for r in range(2, SESSION_MAX_R + 1):
        n = 4
        while height(r, n) <= SESSION_MAX_HEIGHT:
            cells.append((r, n))
            n += 1
    return cells


def _session_request(rng: random.Random, cells: list[tuple[int, int]]) -> tuple:
    r, n = rng.choice(cells)
    index = 3 - n if rng.random() < SESSION_MIRROR_SHARE else n
    base = ["--r", str(r), "--n", str(index)]
    kind = rng.choice(("expand", "expand", "fpoly", "gvector", "euler", "path"))
    if kind == "expand":
        fmt = rng.choice(("plain", "latex", "json", "both"))
        if fmt == "both":
            argv = ["expand", *base, "--engine", "both"]
            fmt = "plain"
        else:
            argv = ["expand", *base, "--format", fmt]
        return ("cli", argv, {"kind": "expansion", "r": r, "index": index, "format": fmt})
    if kind == "fpoly":
        return ("cli", ["fpoly", *base], {"kind": "fpoly", "r": r, "index": index})
    if kind == "gvector":
        return ("cli", ["gvector", *base], {"kind": "gvector", "r": r, "index": index})
    # euler and path take the positive index; euler mirrors through --sign.
    base = ["--r", str(r), "--n", str(n)]
    if kind == "euler":
        sign = "negative" if index != n else "positive"
        return ("cli", ["euler", *base, "--sign", sign],
                {"kind": "euler", "r": r, "n": n, "sign": sign})
    style = rng.choice(("ascii", "svg", "tikz"))
    h = height(r, n)
    i = rng.randrange(0, h)
    k = rng.randrange(i + 1, h + 1)
    argv = ["path", *base, f"--{style}", "--overlay", f"{i},{k}"]
    return ("cli", argv, {"kind": "path", "r": r, "n": n, "style": style, "overlay": [i, k]})


def requests(workload: str, seed: int) -> list[tuple]:
    """The request list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "formula-tall":
        cells = list(FORMULA_CELLS)
        rng.shuffle(cells)
        # The mirrored index follows its cell, so it is a cache hit.
        return [
            ("cluster_variable", [r, index], {"kind": "expansion", "r": r, "index": index})
            for r, n in cells
            for index in (n, 3 - n)
        ]
    if workload == "oracle-deep":
        cells = list(ORACLE_CELLS)
        rng.shuffle(cells)
        return [("oracle", [r, index], {"kind": "expansion", "r": r, "index": index})
                for r, index in cells]
    if workload == "verify-sweep":
        argvs = list(VERIFY_ARGVS)
        rng.shuffle(argvs)
        return [("cli", list(argv), {"kind": "verify", "cells": verify_cells(argv)})
                for argv in argvs]
    if workload == "session-mix":
        cells = session_cells()
        return [_session_request(rng, cells) for _ in range(SESSION_REQUESTS)]
    raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")


def fingerprint_points(seed: int) -> list[tuple[int, int]]:
    """Seeded evaluation points (x1, x2) in GF(PRIME), both nonzero."""
    rng = random.Random(f"points:{seed}")
    return [(rng.randrange(2, PRIME - 1), rng.randrange(2, PRIME - 1))
            for _ in range(FINGERPRINT_POINTS)]
