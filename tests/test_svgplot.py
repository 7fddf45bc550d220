"""SVG charts: byte-for-byte output on edge-case charts, and input errors.

The files under tests/golden/ were written by line_chart before its
elements were routed through one writer per element kind; any change to
them is a change to every chart the experiments write."""

from pathlib import Path

import pytest

from oaasim import ValidationError
from oaasim.svgplot import line_chart

GOLDEN = Path(__file__).parent / "golden"

CHARTS = {
    # a constant series: the flat y range is padded by 5% of its value
    "flat": lambda: line_chart(
        [{"label": "flat", "xs": [0, 1, 2, 3], "ys": [0.25] * 4, "mode": "line"}],
        title="flat", xlabel="x", ylabel="y",
    ),
    # one point on its own marker: flat x range, and a flat y range at zero
    "point": lambda: line_chart(
        [{"label": "one", "xs": [3.0], "ys": [0.0], "mode": "scatter"}],
        title="point", xlabel="x", ylabel="y", vline=3.0, vline_label="k",
    ),
    # more series than palette colors, mixed modes, an unlabelled marker
    "many": lambda: line_chart(
        [{"label": f"s{i}", "xs": [0, 1, 2], "ys": [i, i * 0.5, -i],
          "mode": "line" if i % 2 else "scatter"} for i in range(8)],
        title="eight", xlabel="x", ylabel="y", vline=1.5,
    ),
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_line_chart_matches_golden_bytes(name):
    expected = (GOLDEN / f"line_chart_{name}.svg").read_text()
    assert CHARTS[name]() == expected


def test_line_chart_rejects_empty_input():
    with pytest.raises(ValidationError, match="at least one series"):
        line_chart([], title="t", xlabel="x", ylabel="y")
    with pytest.raises(ValidationError, match="series are empty"):
        line_chart([{"label": "a", "xs": [], "ys": []}], title="t", xlabel="x", ylabel="y")
