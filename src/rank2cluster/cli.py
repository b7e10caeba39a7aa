"""Command-line front end with deterministic, scriptable output.

Subcommands: expand, fpoly, gvector, euler, verify, path.  Every subcommand
takes ``--out`` and ``--max-exponent``; all but ``verify`` also take the
cell ``--r`` and ``--n``.  The four that run the formula engine, ``expand``,
``fpoly``, ``euler`` and ``verify``, also take ``--config-budget``;
``gvector`` and ``path`` refuse it as an unknown argument.  Both caps must
be positive.

Exit codes: 0 success, 1 bad arguments, invalid parameters or an unwritable
``--out`` path, 2 resource-cap breach, 3 engine mismatch or verification
failure.  argparse reports bad arguments with its usage line and exit status
2; ``main`` maps that status to 1 and passes every other status through, so
``--help`` exits 0.  Expected errors print a one-line message to stderr,
never a stack trace.  Every subcommand but ``path`` (whose box needs only
d(n-1)) refuses a cell whose d(n) exceeds ``--max-exponent``.
``--config-budget`` caps the formula engine's edge scan; it comes from the
flag, else the default, and ``main`` checks both caps once.  At r = 1 the
oracle walks at most five steps.  ``path --ascii`` refuses a character grid
over ``caps.MAX_ASCII_CELLS`` with exit 2, and ``--json``, ``--svg`` and
``--tikz`` refuse a path whose d(n-1) edges and d(n-2) distinguished
vertices number over ``caps.MAX_PATH_SIZE`` with exit 2, and ``--overlay``
refuses a pair outside 0 <= i < k <= d(n-2) with exit 1, all before the
path is built.  ``verify`` prints a note to stderr when its sweep has no
cell.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import cluster, render
from .caps import DEFAULT_CONFIG_BUDGET, DEFAULT_MAX_EXPONENT, MAX_PATH_SIZE
from .dyck import build_path, check_pair, classify, dim_sequence
from .errors import ConfigBudgetError, ExponentOverflowError, GridSizeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_MISMATCH = 3


def _overlay_pair(text: str) -> tuple[int, int]:
    try:
        i_text, k_text = text.split(",")
        return int(i_text), int(k_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'i,k' with integers, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rank2cluster",
        description="Exact rank-2 cluster variables via maximal Dyck path combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, cell: bool = True, budget: bool = True) -> None:
        if cell:
            p.add_argument("--r", type=int, required=True, help="recursion exponent r")
            p.add_argument("--n", type=int, required=True, help="cluster variable index n")
        p.add_argument("--out", type=str, default=None, help="write output to this file")
        p.add_argument("--max-exponent", type=int, default=DEFAULT_MAX_EXPONENT)
        if budget:
            p.add_argument("--config-budget", type=int, default=DEFAULT_CONFIG_BUDGET)

    p_expand = sub.add_parser("expand", help="Laurent expansion of x_n")
    add_common(p_expand)
    p_expand.add_argument("--engine", choices=("formula", "oracle", "both"), default="formula")
    p_expand.add_argument("--format", choices=("plain", "latex", "json"), default="plain")

    p_fpoly = sub.add_parser("fpoly", help="F-polynomial of x_n in (y1, y2)")
    add_common(p_fpoly)
    p_fpoly.add_argument("--format", choices=("plain", "latex", "json"), default="plain")

    p_gvec = sub.add_parser("gvector", help="g-vector of x_n")
    add_common(p_gvec, budget=False)

    p_euler = sub.add_parser("euler", help="Euler characteristic table (CSV)")
    add_common(p_euler)
    p_euler.add_argument("--sign", choices=("positive", "negative"), default="positive")

    p_verify = sub.add_parser("verify", help="sweep formula vs. recursion oracle")
    p_verify.add_argument("--sum-cap", type=int, default=10, help="check all r+n <= sum-cap")
    p_verify.add_argument("--r-max", type=int, default=None, help="largest r (default: sum-cap - 4)")
    add_common(p_verify, cell=False)

    p_path = sub.add_parser("path", help="render the maximal Dyck path")
    add_common(p_path, budget=False)
    style = p_path.add_mutually_exclusive_group()
    style.add_argument("--ascii", action="store_true", help="ASCII art (default)")
    style.add_argument("--svg", action="store_true")
    style.add_argument("--tikz", action="store_true")
    style.add_argument("--json", action="store_true", help="path serialization schema")
    p_path.add_argument("--overlay", type=_overlay_pair, default=None, metavar="i,k",
                        help="highlight the classified subpath for vertices i < k")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.engine in ("formula", "both") and args.r < 2:
        raise ValueError("the formula engine requires r >= 2 (use --engine oracle for r = 1)")
    if args.engine == "oracle":
        value = cluster.oracle(args.r, args.n, max_exponent=args.max_exponent)
    else:
        value = cluster.cluster_variable(
            args.r, args.n, config_budget=args.config_budget, max_exponent=args.max_exponent
        ).value
    if args.engine == "both":
        reference = cluster.oracle(args.r, args.n, max_exponent=args.max_exponent)
        if value != reference:
            _emit(
                "DIFF\n"
                f"formula: {value.render(args.format)}\n"
                f"oracle: {reference.render(args.format)}\n",
                args.out,
            )
            return EXIT_MISMATCH
    _emit(value.render(args.format) + "\n", args.out)
    return EXIT_OK


def _cmd_fpoly(args: argparse.Namespace) -> int:
    value = cluster.f_polynomial(
        args.r, args.n, config_budget=args.config_budget, max_exponent=args.max_exponent
    )
    _emit(value.render(args.format, names=("y1", "y2")) + "\n", args.out)
    return EXIT_OK


def _cmd_gvector(args: argparse.Namespace) -> int:
    _emit(str(cluster.g_vector(args.r, args.n, max_exponent=args.max_exponent)) + "\n", args.out)
    return EXIT_OK


def _cmd_euler(args: argparse.Namespace) -> int:
    table = cluster.euler_table(
        args.r, args.n, sign=args.sign,
        config_budget=args.config_budget, max_exponent=args.max_exponent,
    )
    _emit(table.to_csv(), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = cluster.verify_range(
        args.r_max, args.sum_cap,
        config_budget=args.config_budget, max_exponent=args.max_exponent,
    )
    text = "".join(json.dumps(row) + "\n" for row in rows)
    _emit(text, args.out)
    # After the output, so that a failed write leaves one error line alone.
    if not rows:
        print("note: no cell with 2 <= r <= r-max and 4 <= n <= sum-cap - r; nothing to verify",
              file=sys.stderr)
    failures = sum(1 for row in rows if row["status"] == "fail")
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_path(args: argparse.Namespace) -> int:
    if args.json and args.overlay is not None:
        raise ValueError("--overlay does not apply to --json output")
    if args.n >= 3:
        # The box is d(n-1) - d(n-2) wide and d(n-2) high: d(n-1) edges.
        dims = dim_sequence(args.r, args.n - 1, max_exponent=args.max_exponent)
        edges, height = dims.value(args.n - 1), dims.value(args.n - 2)
        if not (args.json or args.svg or args.tikz):
            render.check_ascii_grid(edges - height, height)
        elif edges + height > MAX_PATH_SIZE:
            raise GridSizeError(f"the path has {edges + height} edges and distinguished "
                                f"vertices, over the cap of {MAX_PATH_SIZE}")
        if args.overlay is not None:
            check_pair(height, *args.overlay)
    path = build_path(args.r, args.n, max_exponent=args.max_exponent)
    if args.json:
        _emit(json.dumps(path.to_json_dict()) + "\n", args.out)
        return EXIT_OK
    overlay = None if args.overlay is None else classify(path, *args.overlay)
    if args.svg:
        _emit(render.svg_path(path, overlay), args.out)
    elif args.tikz:
        _emit(render.tikz_path(path, overlay), args.out)
    else:
        _emit(render.ascii_path(path, overlay), args.out)
    return EXIT_OK


_HANDLERS = {
    "expand": _cmd_expand,
    "fpoly": _cmd_fpoly,
    "gvector": _cmd_gvector,
    "euler": _cmd_euler,
    "verify": _cmd_verify,
    "path": _cmd_path,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    try:
        if args.max_exponent < 1:
            raise ValueError("--max-exponent must be positive")
        if "config_budget" in args and args.config_budget < 1:
            raise ValueError("--config-budget must be positive")
        return _HANDLERS[args.command](args)
    except (ConfigBudgetError, ExponentOverflowError, GridSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
