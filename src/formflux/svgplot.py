"""A small deterministic SVG line-chart writer.

Covers exactly what the CLI needs: point series with optional error bars,
horizontal reference lines, axes with tick labels, a title, and a legend.
Output is plain text assembled with fixed formatting, so identical inputs
give byte-identical files.
"""

from __future__ import annotations

import math

from .errors import ArgumentError

__all__ = ["SvgPlot"]

PALETTE = ("#1f6f8b", "#c1403d", "#3a7d44", "#8a5a83", "#b07d2b")


def _fmt(v):
    """Fixed short decimal form for coordinates and labels."""
    out = f"{float(v):.6g}"
    return "0" if out == "-0" else out


def nice_ticks(lo, hi, target=5):
    """Round tick positions covering [lo, hi] at a 1/2/5 step."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArgumentError("tick range must be finite")
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw = span / max(target, 1)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class SvgPlot:
    def __init__(self, title="", x_label="", y_label=""):
        self.width = 640
        self.height = 420
        self.margin = 64
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series = []
        self.hlines = []

    def add_series(self, xs, ys, errors=None, label=""):
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ArgumentError("series needs matching x and y lengths")
        if errors is not None:
            errors = [float(e) for e in errors]
            if len(errors) != len(xs):
                raise ArgumentError("error bars need one entry per point")
        self.series.append((xs, ys, errors, label))

    def add_hline(self, y, label=""):
        self.hlines.append((float(y), label))

    def _bounds(self):
        xs, ys = [], []
        for sx, sy, se, _ in self.series:
            xs.extend(sx)
            if se is None:
                ys.extend(sy)
            else:
                ys.extend(v + e for v, e in zip(sy, se))
                ys.extend(v - e for v, e in zip(sy, se))
        ys.extend(y for y, _ in self.hlines)
        if not xs or not ys:
            raise ArgumentError("nothing to plot")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            pad = abs(y0) if y0 else 0.5
            y0, y1 = y0 - pad, y1 + pad
        xpad = 0.05 * (x1 - x0)
        ypad = 0.08 * (y1 - y0)
        return x0 - xpad, x1 + xpad, y0 - ypad, y1 + ypad

    def render(self):
        x0, x1, y0, y1 = self._bounds()
        m = self.margin
        w, h = self.width, self.height

        def px(x):
            return m + (x - x0) / (x1 - x0) * (w - 2 * m)

        def py(y):
            return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
        ]
        if self.title:
            parts.append(
                f'<text x="{w // 2}" y="24" text-anchor="middle" '
                f'font-family="sans-serif" font-size="15">{self.title}</text>'
            )
        # axes
        parts.append(
            f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" '
            'stroke="black" stroke-width="1"/>'
        )
        for t in nice_ticks(x0, x1):
            x = px(t)
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{h - m}" x2="{_fmt(x)}" '
                f'y2="{h - m + 5}" stroke="black" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{h - m + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
            )
        for t in nice_ticks(y0, y1):
            y = py(t)
            parts.append(
                f'<line x1="{m - 5}" y1="{_fmt(y)}" x2="{m}" y2="{_fmt(y)}" '
                'stroke="black" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{m - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
            )
        if self.x_label:
            parts.append(
                f'<text x="{w // 2}" y="{h - 14}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12">{self.x_label}</text>'
            )
        if self.y_label:
            parts.append(
                f'<text x="16" y="{h // 2}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12" '
                f'transform="rotate(-90 16 {h // 2})">{self.y_label}</text>'
            )
        for y, label in self.hlines:
            yy = py(y)
            parts.append(
                f'<line x1="{m}" y1="{_fmt(yy)}" x2="{w - m}" y2="{_fmt(yy)}" '
                'stroke="#666666" stroke-width="1" stroke-dasharray="6 4"/>'
            )
            if label:
                parts.append(
                    f'<text x="{w - m - 4}" y="{_fmt(yy - 5)}" '
                    'text-anchor="end" font-family="sans-serif" '
                    f'font-size="11" fill="#666666">{label}</text>'
                )
        legend_y = 40
        for idx, (sx, sy, se, label) in enumerate(self.series):
            color = PALETTE[idx % len(PALETTE)]
            if se is not None:
                for x, y, e in zip(sx, sy, se):
                    xx = px(x)
                    parts.append(
                        f'<line x1="{_fmt(xx)}" y1="{_fmt(py(y - e))}" '
                        f'x2="{_fmt(xx)}" y2="{_fmt(py(y + e))}" '
                        f'stroke="{color}" stroke-width="1"/>'
                    )
                    for yy in (py(y - e), py(y + e)):
                        parts.append(
                            f'<line x1="{_fmt(xx - 3)}" y1="{_fmt(yy)}" '
                            f'x2="{_fmt(xx + 3)}" y2="{_fmt(yy)}" '
                            f'stroke="{color}" stroke-width="1"/>'
                        )
            path = " ".join(
                f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(sx, sy)
            )
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            for x, y in zip(sx, sy):
                parts.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" '
                    f'fill="{color}"/>'
                )
            if label:
                parts.append(
                    f'<rect x="{w - m - 130}" y="{legend_y - 9}" width="12" '
                    f'height="12" fill="{color}"/>'
                )
                parts.append(
                    f'<text x="{w - m - 112}" y="{legend_y + 2}" '
                    f'font-family="sans-serif" font-size="11">{label}</text>'
                )
                legend_y += 18
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
