"""Two-panel SVG emission for sweep results, no plotting dependency.

The output is deterministic: identical rows produce byte-identical SVG.
Panel (a) shows ``sqrt(2) xi1 / deltaX`` and panel (b)
``sqrt(2) xi2 / deltaX`` against the defect strength h0.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .textfile import write_text

_CANVAS_W = 960
_CANVAS_H = 400
_PANEL_W = 350
_PANEL_H = 280
_MARGIN_TOP = 50
_PANEL_X = (80, 540)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _axis_range(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _panel(x0: int, xs, ys, title: str, xlabel: str, ylabel: str) -> list[str]:
    y0 = _MARGIN_TOP
    xlo, xhi = _axis_range(xs)
    ylo, yhi = _axis_range(ys)

    def px(v):
        return x0 + (v - xlo) / (xhi - xlo) * _PANEL_W

    def py(v):
        return y0 + _PANEL_H - (v - ylo) / (yhi - ylo) * _PANEL_H

    parts = [
        f'<rect x="{x0}" y="{y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{x0 + _PANEL_W / 2:.1f}" y="{y0 - 14}" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{x0 + _PANEL_W / 2:.1f}" y="{y0 + _PANEL_H + 36}" '
        f'text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="{x0 - 58}" y="{y0 + _PANEL_H / 2:.1f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 {x0 - 58} {y0 + _PANEL_H / 2:.1f})">'
        f"{ylabel}</text>",
    ]
    n_ticks = 5
    for k in range(n_ticks):
        tv = xlo + (xhi - xlo) * k / (n_ticks - 1)
        tx = px(tv)
        parts.append(
            f'<line x1="{_fmt(tx)}" y1="{y0 + _PANEL_H}" x2="{_fmt(tx)}" '
            f'y2="{y0 + _PANEL_H + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(tx)}" y="{y0 + _PANEL_H + 18}" text-anchor="middle" '
            f'font-size="10">{tv:.3g}</text>'
        )
        tv = ylo + (yhi - ylo) * k / (n_ticks - 1)
        ty = py(tv)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(ty)}" x2="{x0}" y2="{_fmt(ty)}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(ty + 3)}" text-anchor="end" '
            f'font-size="10">{tv:.3g}</text>'
        )
    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
    if len(xs) > 1:
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f5fa6" stroke-width="1.2"/>'
        )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" fill="#1f5fa6"/>'
        )
    return parts


def format_plot(rows) -> str:
    """Render sweep rows as a standalone SVG document."""
    rows = list(rows)
    if not rows:
        raise ValidationError("cannot plot an empty sweep")
    h0 = [r.h0 for r in rows]
    r1 = [r.ratio1 for r in rows]
    r2 = [r.ratio2 for r in rows]
    for name, vals in (("h0", h0), ("ratio1", r1), ("ratio2", r2)):
        if not all(map(math.isfinite, vals)):
            raise ValidationError(f"non-finite {name} value in sweep rows")

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" '
        f'height="{_CANVAS_H}" viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect x="0" y="0" width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
    ]
    parts += _panel(
        _PANEL_X[0], h0, r1, "(a) general hopping envelope", "h0",
        "sqrt(2) xi1 / deltaX",
    )
    parts += _panel(
        _PANEL_X[1], h0, r2, "(b) nearest-neighbor envelope", "h0",
        "sqrt(2) xi2 / deltaX",
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(rows, path):
    """Write the two-panel ratio plot to an SVG file."""
    write_text(path, format_plot(rows))
