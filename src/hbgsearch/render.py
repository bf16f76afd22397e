"""Deterministic SVG drawings of witnesses: circular layout, chords colored by orbit.

All 2m vertices sit on a circle in label order starting at the top; cycle
edges are the polygon segments between consecutive labels and chords are
straight segments.  Chords sharing an offset-position pair share a color.
Output is plain SVG 1.1 text with fixed-precision coordinates, so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import CatalogEntry, verify_witness

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)
_MARGIN = 30.0
_CYCLE_WIDTH = 1.2
_CHORD_WIDTH = 1.2


@dataclass(frozen=True)
class RenderStyle:
    radius: float = 180.0
    vertex_radius: float = 3.0
    labels: bool = False


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(entry: CatalogEntry, style: RenderStyle | None = None) -> str:
    """Render a verified witness entry to an SVG document.

    Refuses entries that fail independent verification.  The document holds
    exactly n vertex circles, n cycle segments and n/2 chord segments.
    """
    if style is None:
        style = RenderStyle()
    report = verify_witness(entry)
    if not report.passed:
        failed = next(c for c in report.checks if not c.passed)
        raise ValueError(f"refusing to render unverified entry: {failed.detail}")
    n = entry.order
    b2 = 2 * entry.b
    cx = cy = _MARGIN + style.radius
    size = 2 * (_MARGIN + style.radius)

    # each vertex's coordinates, formatted once
    xs = []
    ys = []
    for i in range(n):
        theta = -math.pi / 2 + 2 * math.pi * i / n
        xs.append(_fmt(cx + style.radius * math.cos(theta)))
        ys.append(_fmt(cy + style.radius * math.sin(theta)))

    # one color class per involution pair of offset positions
    pair_of: dict[int, int] = {}
    for j in range(b2):
        if j in pair_of:
            continue
        t = (j + entry.offsets[j]) % b2
        k = len(set(pair_of.values()))
        pair_of[j] = k
        pair_of[t] = k

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(size)}" height="{_fmt(size)}" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
        f'<!-- g={entry.g} n={n} b={entry.b} girth={report.measured_girth} -->',
        f'<g stroke="#333333" stroke-width="{_fmt(_CYCLE_WIDTH)}" fill="none">',
    ]
    for i in range(n):
        k = i + 1 if i + 1 < n else 0
        lines.append(f'<line x1="{xs[i]}" y1="{ys[i]}" x2="{xs[k]}" y2="{ys[k]}"/>')
    lines.append("</g>")
    lines.append(f'<g stroke-width="{_fmt(_CHORD_WIDTH)}" fill="none">')
    for i in range(n):
        k = (i + entry.offsets[i % b2]) % n
        if k <= i:  # each chord once, from its lower endpoint
            continue
        color = _PALETTE[pair_of[i % b2] % len(_PALETTE)]
        lines.append(
            f'<line x1="{xs[i]}" y1="{ys[i]}" x2="{xs[k]}" y2="{ys[k]}" stroke="{color}"/>'
        )
    lines.append("</g>")
    lines.append('<g fill="#111111">')
    dot = _fmt(style.vertex_radius)
    for i in range(n):
        lines.append(f'<circle cx="{xs[i]}" cy="{ys[i]}" r="{dot}"/>')
    lines.append("</g>")
    if style.labels:
        lines.append('<g font-family="sans-serif" font-size="9" fill="#111111" '
                     'text-anchor="middle">')
        for i in range(n):
            theta = -math.pi / 2 + 2 * math.pi * i / n
            r = style.radius + style.vertex_radius + 9
            x = cx + r * math.cos(theta)
            y = cy + r * math.sin(theta) + 3
            lines.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}">{i + 1}</text>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
