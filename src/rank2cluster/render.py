"""Static renderings of a maximal Dyck path: ASCII, SVG, and TikZ.

Pure string emitters, no display loop.  All three show the rectangle grid,
the diagonal, the path, and the distinguished vertices v_j; an optional
overlay highlights one classified subpath (and, for a green one, its window
of preceding edges).  The path, the span and the window are each a run of
lattice points w_first..w_last, read lazily from ``DyckPath.points`` and
drawn by one loop or helper per format.
"""

from __future__ import annotations

from itertools import pairwise

from .caps import MAX_ASCII_CELLS
from .dyck import Color, ColoredSubpath, DyckPath
from .errors import GridSizeError

_SVG_UNIT = 40
_SVG_PAD = 24
_OVERLAY_COLORS = {Color.BLUE: "#1f4fd8", Color.GREEN: "#1d8a34", Color.RED: "#d11f1f"}


def describe_overlay(overlay: ColoredSubpath) -> str:
    span = f"edges {overlay.edge_span[0]}..{overlay.edge_span[1]}"
    if overlay.color is Color.GREEN:
        window = f" window {overlay.window[0]}..{overlay.window[1]}"
        params = f" (m={overlay.green_m}, w={overlay.green_w})"
    else:
        window = ""
        params = ""
    return f"overlay alpha({overlay.i},{overlay.k}): {overlay.color.value}{params} {span}{window}"


def _overlay_runs(overlay: ColoredSubpath | None) -> list[tuple[int, int]]:
    """The (first, last) lattice points of the overlay's span and of its window, if any."""
    if overlay is None:
        return []
    runs = [overlay.edge_span] + ([] if overlay.window is None else [overlay.window])
    return [(lo - 1, hi) for lo, hi in runs]


def check_ascii_grid(width: int, height: int) -> None:
    """Raise ``GridSizeError`` when the character grid of a ``width`` x
    ``height`` box would exceed ``caps.MAX_ASCII_CELLS``."""
    cells = (2 * width + 1) * (2 * height + 1)
    if cells > MAX_ASCII_CELLS:
        raise GridSizeError(f"the ASCII picture needs {cells} grid cells, over the cap of "
                            f"{MAX_ASCII_CELLS}; use --svg or --tikz")


def ascii_path(path: DyckPath, overlay: ColoredSubpath | None = None) -> str:
    """Character-grid picture.

    Legend: 'o' distinguished vertices, '+' other lattice points, '-'/'|'
    path edges, '='/'!' overlay span edges, '~'/':' green window edges,
    '.' cells the diagonal passes through.  Raises ``GridSizeError``, before
    the grid is built, when it would exceed ``caps.MAX_ASCII_CELLS``.
    """
    width, height = path.width, path.height
    check_ascii_grid(width, height)
    rows = [[" "] * (2 * width + 1) for _ in range(2 * height + 1)]

    def put_point(x: int, y: int, ch: str) -> None:
        rows[2 * (height - y)][2 * x] = ch

    for x in range(width + 1):
        for y in range(height + 1):
            put_point(x, y, "+")

    # Mark every cell whose interior the diagonal crosses (exact integer test
    # against y*width = x*height).
    for cx in range(width):
        for cy in range(height):
            if height * cx < width * (cy + 1) and height * (cx + 1) > width * cy:
                rows[2 * (height - cy) - 1][2 * cx + 1] = "."

    runs = [(0, path.n_edges), *_overlay_runs(overlay)]
    for (first, last), (east, north) in zip(runs, ("-|", "=!", "~:")):
        for (x0, y0), (x1, y1) in pairwise(path.points(first, last)):
            if y1 == y0:
                rows[2 * (height - y0)][2 * x0 + 1] = east
            else:
                rows[2 * (height - y1) + 1][2 * x0] = north
    for j in range(height + 1):
        x, y = path.vertex(j)
        put_point(x, y, "o")

    header = f"r={path.r} n={path.n} word={path.word} width={width} height={height}"
    lines = [header]
    if overlay is not None:
        lines.append(describe_overlay(overlay))
    lines.extend("".join(row).rstrip() for row in rows)
    lines.append("")
    return "\n".join(lines)


def svg_path(path: DyckPath, overlay: ColoredSubpath | None = None) -> str:
    width, height = path.width, path.height

    def px(x: int) -> int:
        return _SVG_PAD + _SVG_UNIT * x

    def py(y: int) -> int:
        return _SVG_PAD + _SVG_UNIT * (height - y)

    def polyline(run: tuple[int, int], stroke: str) -> str:
        coords = " ".join(f"{px(x)},{py(y)}" for x, y in path.points(*run))
        return f'<polyline points="{coords}" fill="none" {stroke}/>'

    total_w = 2 * _SVG_PAD + _SVG_UNIT * width
    total_h = 2 * _SVG_PAD + _SVG_UNIT * height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
        f"<!-- r={path.r} n={path.n} word={path.word} -->",
        '<g stroke="#cccccc" stroke-width="1">',
    ]
    for x in range(width + 1):
        parts.append(f'<line x1="{px(x)}" y1="{py(height)}" x2="{px(x)}" y2="{py(0)}"/>')
    for y in range(height + 1):
        parts.append(f'<line x1="{px(0)}" y1="{py(y)}" x2="{px(width)}" y2="{py(y)}"/>')
    parts.append("</g>")
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(width)}" y2="{py(height)}" '
        'stroke="#888888" stroke-width="1.5"/>'
    )
    parts.append(polyline((0, path.n_edges), 'stroke="#000000" stroke-width="4"'))
    if overlay is not None:
        parts.append(f"<!-- {describe_overlay(overlay)} -->")
        parts.extend(map(polyline, _overlay_runs(overlay), (
            f'stroke="{_OVERLAY_COLORS[overlay.color]}" stroke-width="6"',
            'stroke="#e6a100" stroke-width="6" stroke-dasharray="6,4"')))
    for j in range(height + 1):
        x, y = path.vertex(j)
        parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="5" fill="#000000"/>')
        parts.append(f'<text x="{px(x) + 6}" y="{py(y) - 6}" font-size="12">v{j}</text>')
    parts.extend(("</svg>", ""))
    return "\n".join(parts)


def tikz_path(path: DyckPath, overlay: ColoredSubpath | None = None) -> str:
    width, height = path.width, path.height

    def draw(run: tuple[int, int], style: str) -> str:
        coords = " -- ".join(f"({x},{y})" for x, y in path.points(*run))
        return f"  \\draw[{style}] {coords};"

    parts = [
        f"% r={path.r} n={path.n} word={path.word}",
        "\\begin{tikzpicture}[scale=0.7]",
        f"  \\draw[gray!40,very thin] (0,0) grid ({width},{height});",
        f"  \\draw[gray] (0,0) -- ({width},{height});",
        draw((0, path.n_edges), "line width=1.6pt"),
    ]
    if overlay is not None:
        parts.append(f"  % {describe_overlay(overlay)}")
        parts.extend(map(draw, _overlay_runs(overlay), (
            f"line width=2.4pt,{overlay.color.value}", "line width=2pt,orange,dashed")))
    for j in range(height + 1):
        x, y = path.vertex(j)
        parts.append(f"  \\filldraw ({x},{y}) circle (2.2pt) node[above left] {{$v_{{{j}}}$}};")
    parts.extend(("\\end{tikzpicture}", ""))
    return "\n".join(parts)
