"""Minimal static SVG renderings: a polyline with axes, nothing interactive."""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 480, 320
MARGIN = 40


def polyline_svg(x, y, path, xlabel: str = "x", ylabel: str = "y"):
    """Write the points (x[i], y[i]) as a single polyline with labeled axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise ValueError("no points to plot")
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    sx = MARGIN + (x - x_lo) / x_span * (WIDTH - 2 * MARGIN)
    sy = HEIGHT - MARGIN - (y - y_lo) / y_span * (HEIGHT - 2 * MARGIN)
    pts = " ".join(map("%.2f,%.2f".__mod__, zip(sx.tolist(), sy.tolist())))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="12" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 12 {HEIGHT // 2})">{ylabel}</text>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 16}" text-anchor="end" '
        f'font-size="10">{x_hi:.4g}</text>',
        f'<text x="{MARGIN - 4}" y="{HEIGHT - MARGIN}" text-anchor="end" '
        f'font-size="10">{y_lo:.4g}</text>',
        f'<text x="{MARGIN - 4}" y="{MARGIN + 4}" text-anchor="end" '
        f'font-size="10">{y_hi:.4g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
