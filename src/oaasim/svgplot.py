"""Minimal deterministic SVG charts.

Produces static SVG 1.1 documents with axes, ticks, an optional dashed
vertical marker, and a legend. One writer, _text, emits every <text> (font
included) and one, _line, every <line>, each owning its attribute order and
number formatting. Output depends only on the input data: reruns write
byte-identical files.
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
    else:
        pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _text(x: float, y: float, size: int, body: str, anchor: str = "",
          rotate: bool = False) -> str:
    """A <text> element; anchor sets its text-anchor, and rotate turns it a
    quarter turn counterclockwise about (x, y)."""
    extra = f' text-anchor="{anchor}"' if anchor else ""
    if rotate:
        extra += f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"'
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, dash: str = "") -> str:
    """A <line> element, dashed by the stroke-dasharray `dash` if given."""
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}"{extra}/>')


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
        _text(_WIDTH / 2, 22, 14, title, "middle"),
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
        parts += [
            _line(gx, y0, gx, y1, "#dddddd"),
            _line(x0, gy, x1, gy, "#dddddd"),
            _text(gx, y1 + 16, 10, _tick_label(tx), "middle"),
            _text(x0 - 6, gy + 3, 10, _tick_label(ty), "end"),
        ]
    parts.append(_text(x0 + plot_w / 2, _HEIGHT - 10, 12, xlabel, "middle"))
    parts.append(_text(14, y0 + plot_h / 2, 12, ylabel, "middle", rotate=True))
    if vline is not None:
        gx = px(float(vline))
        parts.append(_line(gx, y0, gx, y1, "#555555", dash="5,4"))
        if vline_label:
            parts.append(_text(gx + 4, y0 + 12, 11, vline_label))
    legend_x = x1 - 150.0
    legend = []
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(_fmt(px(float(x))), _fmt(py(float(y)))) for x, y in zip(s["xs"], s["ys"])]
        if s.get("mode", "line") == "scatter":
            for cx, cy in pts:
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="2.2" '
                    f'fill="{color}" fill-opacity="0.7"/>'
                )
        else:
            points = " ".join(f"{cx},{cy}" for cx, cy in pts)
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"/>'
            )
        ly = y0 + 8.0 + 16.0 * idx
        legend.append(
            f'<rect x="{_fmt(legend_x)}" y="{_fmt(ly)}" width="12" height="4" '
            f'fill="{color}"/>'
        )
        legend.append(_text(legend_x + 18, ly + 5, 11, s["label"]))
    parts += legend
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
