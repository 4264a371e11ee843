"""Pinned bytes of the SVG polyline renderer."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmine import svgplot

HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="320">\n'
    '<line x1="40" y1="280" x2="440" y2="280" stroke="black"/>\n'
    '<line x1="40" y1="40" x2="40" y2="280" stroke="black"/>\n'
)


def test_curve_bytes(tmp_path):
    path = tmp_path / "curve.svg"
    x = [0, 1 / 3, 1, 2.5, 4]
    y = [0.5, 2.0, 1 / 7, 3.0, -0.125]
    svgplot.polyline_svg(x, y, path, xlabel="u", ylabel="dhat")
    assert path.read_text(encoding="utf-8") == HEAD + (
        '<text x="240" y="312" text-anchor="middle" font-size="12">u</text>\n'
        '<text x="12" y="160" text-anchor="middle" font-size="12" '
        'transform="rotate(-90 12 160)">dhat</text>\n'
        '<text x="40" y="296" font-size="10">0</text>\n'
        '<text x="440" y="296" text-anchor="end" font-size="10">4</text>\n'
        '<text x="36" y="280" text-anchor="end" font-size="10">-0.125</text>\n'
        '<text x="36" y="44" text-anchor="end" font-size="10">3</text>\n'
        '<polyline points="40.00,232.00 73.33,116.80 140.00,259.43 290.00,40.00 '
        '440.00,280.00" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def test_flat_curve_uses_unit_span(tmp_path):
    path = tmp_path / "flat.svg"
    svgplot.polyline_svg([0.1, 0.5, 0.9], [2.0, 2.0, 2.0], path)
    assert path.read_text(encoding="utf-8") == HEAD + (
        '<text x="240" y="312" text-anchor="middle" font-size="12">x</text>\n'
        '<text x="12" y="160" text-anchor="middle" font-size="12" '
        'transform="rotate(-90 12 160)">y</text>\n'
        '<text x="40" y="296" font-size="10">0.1</text>\n'
        '<text x="440" y="296" text-anchor="end" font-size="10">0.9</text>\n'
        '<text x="36" y="280" text-anchor="end" font-size="10">2</text>\n'
        '<text x="36" y="44" text-anchor="end" font-size="10">2</text>\n'
        '<polyline points="40.00,280.00 240.00,280.00 440.00,280.00" '
        'fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def test_no_points(tmp_path):
    with pytest.raises(ValueError):
        svgplot.polyline_svg([], [], tmp_path / "empty.svg")


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=40))
def test_points_match_the_per_point_formula(points):
    x = [p[0] for p in points]
    y = [p[1] for p in points]
    x_lo, y_lo = min(x), min(y)
    x_span = (max(x) - x_lo) or 1.0
    y_span = (max(y) - y_lo) or 1.0
    want = " ".join(
        f"{40 + (a - x_lo) / x_span * 400:.2f},{280 - (b - y_lo) / y_span * 240:.2f}"
        for a, b in points
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.svg"
        svgplot.polyline_svg(x, y, path)
        got = re.search(r'points="([^"]*)"', path.read_text(encoding="utf-8"))[1]
    assert got == want
