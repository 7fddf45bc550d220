"""Minimal deterministic SVG charts.

Produces static SVG 1.1 documents with axes, ticks, an optional dashed
vertical marker, and a legend. Output depends only on the input data, so
repeated runs write byte-identical files.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ValidationError

PALETTE = ("#1f6fb2", "#d1495b", "#3e8e5a", "#8a5fb8", "#c98a1f", "#4a4a4a")

_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 48.0
_TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def _data_range(values: Sequence[float]) -> tuple:
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def line_chart(
    series: Sequence[dict],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    vline: float | None = None,
    vline_label: str = "",
) -> str:
    """Render series (dicts with keys label, xs, ys, and mode which is
    "line" or "scatter") into an SVG document string."""
    series = list(series)
    if not series:
        raise ValidationError("chart needs at least one series")
    all_x = [float(x) for s in series for x in s["xs"]]
    all_y = [float(y) for s in series for y in s["ys"]]
    if not all_x:
        raise ValidationError("chart series are empty")
    if vline is not None:
        all_x.append(float(vline))
    x_lo, x_hi = _data_range(all_x)
    y_lo, y_hi = _data_range(all_y)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="22" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{title}</text>',
    ]
    # axes frame
    x0, x1 = _MARGIN_LEFT, _MARGIN_LEFT + plot_w
    y0, y1 = _MARGIN_TOP, _MARGIN_TOP + plot_h
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333333"/>'
    )
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        tx = x_lo + frac * (x_hi - x_lo)
        ty = y_lo + frac * (y_hi - y_lo)
        gx = px(tx)
        gy = py(ty)
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(y0)}" x2="{_fmt(gx)}" '
            f'y2="{_fmt(y1)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(gy)}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(gy)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_fmt(gx)}" y="{_fmt(y1 + 16)}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{_tick_label(tx)}</text>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(gy + 3)}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{_tick_label(ty)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(x0 + plot_w / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(y0 + plot_h / 2)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(y0 + plot_h / 2)})">{ylabel}</text>'
    )
    if vline is not None:
        gx = px(float(vline))
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(y0)}" x2="{_fmt(gx)}" '
            f'y2="{_fmt(y1)}" stroke="#555555" stroke-dasharray="5,4"/>'
        )
        if vline_label:
            parts.append(
                f'<text x="{_fmt(gx + 4)}" y="{_fmt(y0 + 12)}" '
                f'font-family="sans-serif" font-size="11">{vline_label}</text>'
            )
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        xs = [float(x) for x in s["xs"]]
        ys = [float(y) for y in s["ys"]]
        if s.get("mode", "line") == "scatter":
            for x, y in zip(xs, ys):
                parts.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.2" '
                    f'fill="{color}" fill-opacity="0.7"/>'
                )
        else:
            points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"/>'
            )
    legend_x = x1 - 150.0
    legend_y = y0 + 8.0
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = legend_y + 16.0 * idx
        parts.append(
            f'<rect x="{_fmt(legend_x)}" y="{_fmt(ly)}" width="12" height="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 18)}" y="{_fmt(ly + 5)}" '
            f'font-family="sans-serif" font-size="11">{s["label"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
