"""Report serialization helpers: fixed-precision JSON, CSV, and SVG.

The SVG renderer is a pure function of the JSON-able report dict so that
re-rendering a saved report reproduces the image byte for byte.
"""

from __future__ import annotations

import json
from typing import Iterable, List

import numpy as np

SVG_SIZE = 640                  # px, width and height of a curve image


def round_floats(obj, precision: int = 12):
    """Recursively round floats to `precision` significant digits."""
    if isinstance(obj, float):
        if obj == 0 or not np.isfinite(obj):
            return 0.0 if obj == 0 else obj
        return float(f"{obj:.{precision}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, precision) for v in obj]
    if isinstance(obj, (np.floating,)):
        return round_floats(float(obj), precision)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def dumps_report(report: dict, precision: int = 12) -> str:
    return json.dumps(round_floats(report, precision), sort_keys=True, indent=1)


def csv_lines(header: Iterable[str], rows: Iterable[Iterable], precision: int = 12) -> List[str]:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.{precision}g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return lines


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return (np.asarray(vals) - lo) / (hi - lo) * (out_hi - out_lo) + out_lo


def render_curve_svg(report: dict) -> str:
    """Draw the boundary curve from a convexity report.

    Highlights the back-turn witness window when present and overlays the
    reference parabola u = -v^2 - 1/4 when the report asks for it.  Axes are
    auto-scaled with a 5% margin.
    """
    size = SVG_SIZE
    curve = report["curve"]
    th = np.asarray(curve["theta"], dtype=float)
    x = np.asarray(curve["re"], dtype=float)
    y = np.asarray(curve["im"], dtype=float)
    xmin, xmax = float(x.min()), float(x.max())
    ymin, ymax = float(y.min()), float(y.max())
    mx = 0.05 * (xmax - xmin or 1.0)
    my = 0.05 * (ymax - ymin or 1.0)
    xmin, xmax, ymin, ymax = xmin - mx, xmax + mx, ymin - my, ymax + my
    px = _scale(x, xmin, xmax, 20, size - 20)
    py = _scale(y, ymax, ymin, 20, size - 20)   # SVG y grows downward

    def poly(xs, ys):
        return " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(xs, ys))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<polygon points="{poly(px, py)}" fill="none" stroke="#1f77b4" stroke-width="1"/>',
    ]
    win = report.get("witness_window")
    if win:
        a, b = float(win[0]), float(win[1])
        width = (b - a) % (2.0 * np.pi)
        rel = (th - a) % (2.0 * np.pi)
        mask = rel <= width
        if mask.any():
            parts.append(f'<polyline points="{poly(px[mask], py[mask])}" fill="none" '
                         'stroke="#d62728" stroke-width="2"/>')
    if report.get("parabola_overlay"):
        vmax = max(abs(ymin), abs(ymax))
        v = np.linspace(-vmax, vmax, 257)
        u = -v ** 2 - 0.25
        keep = (u >= xmin) & (u <= xmax)
        if keep.any():
            qx = _scale(u[keep], xmin, xmax, 20, size - 20)
            qy = _scale(v[keep], ymax, ymin, 20, size - 20)
            parts.append(f'<polyline points="{poly(qx, qy)}" fill="none" '
                         'stroke="#2ca02c" stroke-width="1" stroke-dasharray="4,3"/>')
    verdict = report.get("verdict", "")
    parts.append(f'<text x="24" y="36" font-family="monospace" font-size="14">'
                 f'{report.get("label", "")} r={report.get("r", "")} {verdict}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
