"""Minimal SVG emission for impulse-response figures.

One figure = one response path with a shaded coverage band and a dashed
zero line. Hand-built paths keep the artifact free of plotting dependencies
and byte-deterministic for identical inputs. Title and axis label are
escaped, so any variable name yields well-formed XML.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_WIDTH, _HEIGHT = 480, 320
_MARGIN_LEFT, _MARGIN_RIGHT = 56, 12
_MARGIN_TOP, _MARGIN_BOTTOM = 30, 36


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * max(abs(lo), abs(hi), 1.0):
        ticks.append(float(round(v, 12)))
        v += step
    return ticks


def line_band_svg(
    horizons,
    center,
    lower,
    upper,
    title: str = "",
    ylabel: str = "",
) -> str:
    """SVG document with a shaded band (lower..upper), a center line, and a
    dashed zero line over integer horizons. A non-finite input is a
    NumericalError naming the figure's title and the input."""
    h = np.asarray(horizons, dtype=float)
    c = np.asarray(center, dtype=float)
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    if not (h.shape == c.shape == lo.shape == up.shape):
        raise ValueError("horizons, center, lower, upper must share a shape")
    if h.size < 2:
        raise ValueError("need at least two horizons to plot")
    for name, values in (("horizons", h), ("center", c), ("lower", lo), ("upper", up)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericalError(
                f"figure {title!r}: {name}[{bad[0]}] holds {float(values.flat[bad[0]])!r}; "
                f"a figure needs finite values"
            )
    # Imported here: the entity tables of ``html`` add about 0.5 MB to every
    # process that imports newsvar, and most never draw a figure.
    from html import escape

    y_min = min(float(lo.min()), 0.0)
    y_max = max(float(up.max()), 0.0)
    pad = 0.05 * (y_max - y_min or 1.0)
    y_min, y_max = y_min - pad, y_max + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - h[0]) / (h[-1] - h[0]) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    def path(xs, ys, close: bool = False) -> str:
        parts = [f"{'M' if i == 0 else 'L'} {_fmt(sx(x))} {_fmt(sy(y))}"
                 for i, (x, y) in enumerate(zip(xs, ys))]
        return " ".join(parts) + (" Z" if close else "")

    band = path(
        np.concatenate([h, h[::-1]]),
        np.concatenate([up, lo[::-1]]),
        close=True,
    )
    line = path(h, c)
    zero_y = _fmt(sy(0.0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<path d="{band}" fill="#9ecae1" fill-opacity="0.45" stroke="none"/>',
        f'<line x1="{_fmt(sx(h[0]))}" y1="{zero_y}" x2="{_fmt(sx(h[-1]))}" y2="{zero_y}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>',
        f'<path d="{line}" fill="none" stroke="#08519c" stroke-width="2"/>',
    ]
    axis_y = _fmt(_HEIGHT - _MARGIN_BOTTOM)
    out.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{axis_y}" '
        f'x2="{_fmt(_WIDTH - _MARGIN_RIGHT)}" y2="{axis_y}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(_MARGIN_TOP)}" '
        f'x2="{_fmt(_MARGIN_LEFT)}" y2="{axis_y}" stroke="black"/>'
    )
    step = max(1, int(np.ceil((h[-1] - h[0]) / 10.0)))
    for x in np.arange(h[0], h[-1] + 0.5, step):
        out.append(
            f'<text x="{_fmt(sx(x))}" y="{_fmt(_HEIGHT - _MARGIN_BOTTOM + 16)}" '
            f'font-size="11" text-anchor="middle" font-family="sans-serif">{int(x)}</text>'
        )
    for y in _ticks(y_min, y_max):
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 6)}" y="{_fmt(sy(y) + 4)}" '
            f'font-size="11" text-anchor="end" font-family="sans-serif">{y:g}</text>'
        )
    if title:
        out.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="18" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{escape(title, quote=False)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 14 {_fmt(_MARGIN_TOP + plot_h / 2)})">'
            f'{escape(ylabel, quote=False)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
