"""The `formflux sweep` chart, as deterministic SVG text.

`sweep_svg` draws a SweepResult's power estimates against theta with error
bars and, when the sweep extrapolates, the limit as a dashed line; axes
carry 1/2/5 ticks from `nice_ticks`.  Output is plain text assembled with
fixed formatting, so identical sweeps give byte-identical files.
"""

from __future__ import annotations

import math

from .errors import ArgumentError

__all__ = ["sweep_svg", "nice_ticks"]

WIDTH, HEIGHT, MARGIN = 640, 420, 64
COLOR, GREY = "#1f6f8b", "#666666"


def _fmt(v):
    """Fixed short decimal form for coordinates and labels."""
    out = f"{float(v):.6g}"
    return "0" if out == "-0" else out


def _line(x1, y1, x2, y2, stroke="black", extra=""):
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
        f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="1"{extra}/>'
    )


def _text(x, y, body, size=11, anchor="middle", extra=""):
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def _range(values, frac, flat):
    """[min, max] of values opened to +-flat when it is a point, then
    widened by frac of its length on each side."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - flat, hi + flat
    pad = frac * (hi - lo)
    return lo - pad, hi + pad


def nice_ticks(lo, hi):
    """Round tick positions covering [lo, hi] at a 1/2/5 step, about 5 of
    them; the ticks stop where a step no longer moves the float."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArgumentError("tick range must be finite")
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    power = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if span / step <= 5:
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:
            break
        t += step
    return ticks


def sweep_svg(sweep):
    """The SVG text of a SweepResult: power against theta."""
    w, h, m = WIDTH, HEIGHT, MARGIN
    xs = sweep.thetas
    ys = [e.power_value for e in sweep.estimates]
    errs = [e.power_stderr for e in sweep.estimates]
    limit = sweep.extrapolated_power
    ends = [y + e for y, e in zip(ys, errs)] + [y - e for y, e in zip(ys, errs)]
    ends += [] if limit is None else [limit]
    x0, x1 = _range(xs, 0.05, 0.5)
    y0, y1 = _range(ends, 0.08, abs(min(ends)) or 0.5)

    def px(x):
        return m + (x - x0) / (x1 - x0) * (w - 2 * m)

    def py(y):
        return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
        f'height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        _text(w // 2, 24, "seminorm power vs theta", size=15),
        _line(m, h - m, w - m, h - m),
        _line(m, m, m, h - m),
    ]
    for t in nice_ticks(x0, x1):
        parts += [_line(px(t), h - m, px(t), h - m + 5),
                  _text(px(t), h - m + 18, _fmt(t))]
    for t in nice_ticks(y0, y1):
        parts += [_line(m - 5, py(t), m, py(t)),
                  _text(m - 8, py(t) + 4, _fmt(t), anchor="end")]
    parts += [
        _text(w // 2, h - 14, "theta", size=12),
        _text(16, h // 2, f"value^{sweep.p:g}", size=12,
              extra=f' transform="rotate(-90 16 {h // 2})"'),
    ]
    if limit is not None:
        parts += [
            _line(m, py(limit), w - m, py(limit), GREY,
                  ' stroke-dasharray="6 4"'),
            _text(w - m - 4, py(limit) - 5, "extrapolated limit",
                  anchor="end", extra=f' fill="{GREY}"'),
        ]
    for x, y, e in zip(xs, ys, errs):
        bottom, top = py(y - e), py(y + e)
        parts.append(_line(px(x), bottom, px(x), top, COLOR))
        parts += [_line(px(x) - 3, yy, px(x) + 3, yy, COLOR)
                  for yy in (bottom, top)]
    points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="{COLOR}" '
                 'stroke-width="1.5"/>')
    parts += [f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" '
              f'fill="{COLOR}"/>' for x, y in zip(xs, ys)]
    parts += [
        f'<rect x="{w - m - 130}" y="31" width="12" height="12" fill="{COLOR}"/>',
        _text(w - m - 112, 42, "estimates", anchor=None),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
