"""Independent checks of every benchmark output.

Nothing here imports the package under test.  Ground truth comes from the
recursion x_{m+1} = (x_m^r + 1) / x_{m-1} itself, iterated two ways:

* over GF(P), P = 2^61 - 1, at seeded points: a Laurent polynomial that
  differs from x_m in any coefficient evaluates differently at a random
  point with probability about 1 - deg/P (Schwartz-Zippel);
* over the integers at x1 = x2 = 1, which gives the coefficient sum.

F-polynomials are mapped back to expansions by the separation formula
x_m = x1^g1 * x2^g2 * F_m(x2^-r, x1^r), with g from the integer
d-sequence, so the same two checks apply to them and to Euler tables.

``check(spec, output, points)`` returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import re

from workloads import PRIME as P
from workloads import dims

POINTS_PER_CHECK = 2


def recursion_mod_p(r: int, index: int, a: int, b: int) -> int | None:
    """x_index at (x1, x2) = (a, b) over GF(P); None if a division by 0 occurs."""
    if index == 1:
        return a
    if index == 2:
        return b
    if index > 2:
        behind, cur, steps = a, b, index - 2
    else:
        behind, cur, steps = b, a, 1 - index
    for _ in range(steps):
        if behind == 0:
            return None
        behind, cur = cur, (pow(cur, r, P) + 1) * pow(behind, -1, P) % P
    return cur


def recursion_at_one(r: int, index: int) -> int:
    """x_index at x1 = x2 = 1 over the integers (the coefficient sum)."""
    if index in (1, 2):
        return 1
    steps = index - 2 if index > 2 else 1 - index
    behind, cur = 1, 1
    for _ in range(steps):
        behind, cur = cur, (cur**r + 1) // behind
    return cur


def g_vector(r: int, index: int) -> tuple[int, int]:
    """g-vector of x_index from the integer d-sequence."""
    if index == 1:
        return (1, 0)
    if index == 2:
        return (0, 1)
    if index == 3:
        return (-1, r)
    if index == 0:
        return (0, -1)
    n = index if index >= 4 else 3 - index
    d = dims(r, n)  # d(k) is d[k - 1]
    if index >= 4:
        return (-d[n - 2], d[n - 1])
    return (-d[n - 3], d[n - 4])


def eval_mod_p(terms: dict[tuple[int, int], int], a: int, b: int) -> int:
    total = 0
    for (e1, e2), coeff in terms.items():
        total += coeff * pow(a, e1, P) * pow(b, e2, P)
    return total % P


def check_expansion(r: int, index: int, terms: dict, points) -> str | None:
    """Compare a Laurent expansion {(e1, e2): c} with the recursion."""
    if not terms:
        return f"x_{index} (r={r}) is empty"
    if any(coeff <= 0 for coeff in terms.values()):
        return f"x_{index} (r={r}) has a non-positive coefficient"
    if sum(terms.values()) != recursion_at_one(r, index):
        return f"x_{index} (r={r}) coefficient sum differs from the recursion at (1, 1)"
    used = 0
    for a, b in points:
        expected = recursion_mod_p(r, index, a, b)
        if expected is None:
            continue
        if eval_mod_p(terms, a, b) != expected:
            return f"x_{index} (r={r}) differs from the recursion mod P at {(a, b)}"
        used += 1
        if used == POINTS_PER_CHECK:
            return None
    return f"x_{index} (r={r}): no usable fingerprint point"


def check_fpoly(r: int, index: int, fterms: dict, points) -> str | None:
    """Map F(y1, y2) to x1^g1 x2^g2 F(x2^-r, x1^r) and check that expansion."""
    g1, g2 = g_vector(r, index)
    terms = {(g1 + r * f2, g2 - r * f1): c for (f1, f2), c in fterms.items()}
    return check_expansion(r, index, terms, points)


# -- parsers for the CLI text formats -----------------------------------------

_PLAIN_FACTOR = re.compile(r"^([a-z])([12])(?:\^(-?\d+))?$")
_LATEX_FACTOR = re.compile(r"^([a-z])_([12])(?:\^\{(-?\d+)\})?$")


def parse_poly(text: str, fmt: str, var: str) -> dict[tuple[int, int], int]:
    """Parse a rendered polynomial in variables var1, var2 into {(e1, e2): c}."""
    if fmt == "json":
        payload = json.loads(text)
        return {(t["e1"], t["e2"]): int(t["c"]) for t in payload["terms"]}
    factor_re = _PLAIN_FACTOR if fmt == "plain" else _LATEX_FACTOR
    joiner = "*" if fmt == "plain" else " "
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    terms: dict[tuple[int, int], int] = {}
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            sign, body = "-", body[1:]
        coeff, exps = 1, [0, 0]
        for factor in body.split(joiner):
            if factor.isdigit():
                coeff = int(factor)
                continue
            match = factor_re.match(factor)
            if match is None or match.group(1) != var:
                raise ValueError(f"unparseable factor {factor!r}")
            exps[int(match.group(2)) - 1] = int(match.group(3) or 1)
        key = (exps[0], exps[1])
        if key in terms:
            raise ValueError(f"repeated monomial {key}")
        terms[key] = coeff if sign == "+" else -coeff
    return terms


def christoffel_word(p: int, q: int) -> str:
    """Lower Christoffel word of slope p/q: letter i is E iff i*p mod (p+q) grows."""
    total = p + q
    letters, prev = [], 0
    for i in range(1, total + 1):
        cur = (i * p) % total
        letters.append("E" if cur > prev else "N")
        prev = cur
    return "".join(letters)


# -- per-kind checks ------------------------------------------------------------

def _check_cli_text(spec: dict, out: str, points) -> str | None:
    kind = spec["kind"]
    if kind == "expansion":
        terms = parse_poly(out.rstrip("\n"), spec["format"], "x")
        return check_expansion(spec["r"], spec["index"], terms, points)
    if kind == "fpoly":
        return check_fpoly(spec["r"], spec["index"], parse_poly(out.rstrip("\n"), "plain", "y"),
                           points)
    if kind == "gvector":
        expected = "({}, {})\n".format(*g_vector(spec["r"], spec["index"]))
        return None if out == expected else f"g-vector {out!r} != {expected!r}"
    if kind == "euler":
        return _check_euler(spec, out, points)
    if kind == "path":
        return _check_path(spec, out)
    if kind == "verify":
        return _check_verify(spec, out)
    raise ValueError(f"unknown check kind {kind!r}")


def _check_euler(spec: dict, out: str, points) -> str | None:
    r, n = spec["r"], spec["n"]
    d = dims(r, n - 1)
    e_total, h_total = d[n - 2], d[n - 3]
    lines = out.splitlines()
    if lines[0] != "e1,e2,chi":
        return f"euler header {lines[0]!r}"
    entries = {}
    for line in lines[1:]:
        e1, e2, chi = (int(v) for v in line.split(","))
        entries[(e1, e2)] = chi
    positive = spec["sign"] == "positive"
    max_e1, max_e2 = (e_total, h_total) if positive else (h_total, e_total)
    if set(entries) != {(i, j) for i in range(max_e1 + 1) for j in range(max_e2 + 1)}:
        return f"euler table (r={r}, n={n}) does not cover the rectangle"
    if sum(entries.values()) != recursion_at_one(r, n):
        return f"euler total (r={r}, n={n}) differs from the coefficient sum of x_{n}"
    if positive:
        fterms = {(e_total - e1, h_total - e2): c for (e1, e2), c in entries.items() if c}
    else:
        fterms = {(e2, e1): c for (e1, e2), c in entries.items() if c}
    return check_fpoly(r, n, fterms, points)


def _check_path(spec: dict, out: str) -> str | None:
    r, n = spec["r"], spec["n"]
    d = dims(r, n - 1)
    h, w = d[n - 3], d[n - 2] - d[n - 3]
    header = re.search(r"r=(\d+) n=(\d+) word=([EN]+)", out)
    if header is None or (int(header.group(1)), int(header.group(2))) != (r, n):
        return f"path (r={r}, n={n}) header missing or wrong"
    if header.group(3) != christoffel_word(h, w):
        return f"path (r={r}, n={n}) word is not the lower Christoffel word"
    i, k = spec["overlay"]
    if not re.search(rf"overlay alpha\({i},{k}\): (blue|green|red)", out):
        return f"path (r={r}, n={n}) lacks the overlay alpha({i},{k})"
    grid = "\n".join(out.splitlines()[2:])  # below the header and overlay lines
    marks = {"ascii": grid.count("o"), "svg": out.count("<circle"),
             "tikz": out.count("\\filldraw")}[spec["style"]]
    if marks != h + 1:
        return f"path (r={r}, n={n}) shows {marks} vertices, expected {h + 1}"
    return None


def _check_verify(spec: dict, out: str) -> str | None:
    rows = [json.loads(line) for line in out.splitlines()]
    cells = [(row["r"], row["n"]) for row in rows]
    if cells != [tuple(c) for c in spec["cells"]]:
        return f"verify reported cells {cells}, expected {spec['cells']}"
    bad = [row for row in rows if set(row) != {"r", "n", "status", "millis"}
           or row["status"] != "pass"]
    return f"verify rows not all pass: {bad[:3]}" if bad else None


def check(spec: dict, output: dict, points) -> str | None:
    """Check one normalised output against its request spec.

    ``output`` is {"error": str} when the call raised, {"r", "index", "terms"}
    for a library call, or {"code", "out", "err"} for a CLI call.
    """
    if "error" in output:
        return f"raised {output['error']}"
    if "code" in output:
        if output["code"] != 0 or output["err"]:
            return f"exit {output['code']}, stderr {output['err'][:200]!r}"
        try:
            return _check_cli_text(spec, output["out"], points)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            return f"unparseable output: {exc}"
    if (output["r"], output["index"]) != (spec["r"], spec["index"]):
        return f"returned cell {(output['r'], output['index'])}, asked {(spec['r'], spec['index'])}"
    return check_expansion(spec["r"], spec["index"], output["terms"], points)
