"""Tiny static SVG line/scatter plots, no plotting dependencies.

Convenience renderings of experiment output: axes, tick labels, a few
series with automatic colors, a legend. Not meant to be beautiful, just
self-contained and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Series", "render_svg", "write_svg"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 36, 56
#: ticks per axis, about
_TICK_COUNT = 5
_COLORS = ("#c0392b", "#2c3e50", "#27ae60", "#8e44ad", "#d35400", "#16a085")


@dataclass
class Series:
    label: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    marker: bool = False  # scatter instead of line


def _ticks(lo: float, hi: float) -> list[float]:
    if not (hi > lo):
        return [lo]
    raw = (hi - lo) / _TICK_COUNT
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _widen_flat(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), widened by 1/2 each way when the range spans at most
    ``_TICK_COUNT`` ulps u of its larger end. A wider range has a tick step,
    at least range / _TICK_COUNT, above u, so above half the ulp of every
    tick even past a binade edge (2u there), and ``t += step`` moves."""
    if hi - lo <= _TICK_COUNT * math.ulp(max(abs(lo), abs(hi))):
        return lo - 0.5, hi + 0.5
    return lo, hi


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if 1e-3 <= abs(v) < 1e4:
        return f"{v:.4g}"
    return f"{v:.2e}"


def render_svg(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render series to an SVG document string."""
    pts = [(x, y) for s in series for x, y in zip(s.xs, s.ys)
           if math.isfinite(x) and math.isfinite(y)]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    xlo = min(p[0] for p in pts)
    xhi = max(p[0] for p in pts)
    ylo = min(p[1] for p in pts)
    yhi = max(p[1] for p in pts)
    xlo, xhi = _widen_flat(xlo, xhi)
    ylo, yhi = _widen_flat(ylo, yhi)
    pad_y = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad_y, yhi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - xlo) / (xhi - xlo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (yhi - y) / (yhi - ylo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN_T - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for t in _ticks(xlo, xhi):
        x = px(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(ylo, yhi):
        y = py(t)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{y:.1f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="18" y="{cy}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" transform="rotate(-90 18 {cy})">{ylabel}</text>'
        )

    for k, s in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        coords = [
            (px(x), py(y))
            for x, y in zip(s.xs, s.ys)
            if math.isfinite(x) and math.isfinite(y)
        ]
        if s.marker:
            for cx, cy in coords:
                out.append(
                    f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="{color}"/>'
                )
        elif coords:
            path = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in coords)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"/>'
            )
        ly = _MARGIN_T + 16 + 16 * k
        lx = _MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{s.label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def write_svg(path: str, series: list[Series], **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(series, **kwargs))
