"""Minimal self-contained SVG line charts (no plotting dependency)."""

from __future__ import annotations

import numpy as np

__all__ = ["line_chart"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _ticks(lo: float, hi: float, n: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_chart(path, x, series: dict, title: str = "", xlabel: str = "",
               ylabel: str = ""):
    """Write a line chart of the named series over x."""
    x = np.asarray(x, dtype=float)
    ys = {name: np.asarray(v, dtype=float) for name, v in series.items()}
    xlo, xhi = float(np.min(x)), float(np.max(x))
    all_y = np.concatenate(list(ys.values()))
    ylo, yhi = float(np.min(all_y)), float(np.max(all_y))
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(v):
        return _ML + (v - xlo) / (xhi - xlo or 1.0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tx in _ticks(xlo, xhi):
        parts.append(f'<line x1="{sx(tx):.1f}" y1="{_H - _MB}" x2="{sx(tx):.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(tx):.1f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        parts.append(f'<line x1="{_ML - 5}" y1="{sy(ty):.1f}" x2="{_ML}" '
                     f'y2="{sy(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{sy(ty) + 4:.1f}" '
                     f'text-anchor="end">{_fmt(ty)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_H / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_H / 2})">{ylabel}</text>')

    for idx, (name, y) in enumerate(ys.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = [f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * idx
        parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly}" x2="{_W - _MR - 105}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 100}" y="{ly + 4}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
