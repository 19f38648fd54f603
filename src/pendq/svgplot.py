"""Minimal deterministic SVG log-log plotting.

Hand-rolled on purpose: the outputs are static figures (spectra and a
survey scatter), and a polyline renderer with decade ticks covers that
without pulling in a plotting stack.  Identical inputs produce
byte-identical SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

import numpy as np

from .core import _DIGIT_QUADS, DomainError, _cell_rows, _put_exact

PALETTE = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#555555",
)

WIDTH, HEIGHT = 880, 560  # [px]
Y_PEAK_PERCENTILE = 99.5

_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _pow10_label(exponent: int) -> str:
    return "10" + str(exponent).translate(_SUPERSCRIPTS)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _whole_quads() -> np.ndarray:
    """The cells "0".."9999", right-aligned in 4 bytes and NUL padded."""
    quads = _DIGIT_QUADS.view(np.uint8).reshape(-1, 4).copy()
    k = np.arange(10_000)
    n_digits = 1 + (k >= 10) + (k >= 100) + (k >= 1000)
    quads[np.arange(4) < 4 - n_digits[:, None]] = 0  # the leading zeros
    return quads.view("V4")[:, 0]


_WHOLE_QUADS = _whole_quads()
# "00".."99"
_CENT_PAIRS = _DIGIT_QUADS[:100].view(np.uint8).reshape(-1, 4)[:, 2:].copy().view("V2")[:, 0]


def _fmt_cells(data: np.ndarray, to_pixel) -> np.ndarray:
    """Cells of _fmt(to_pixel(v)) for v in data as NUL-padded ASCII rows.

    The pixels are computed with np.log10, which may differ from
    math.log10 in the last bit, so cells within 1e-6 of a rounding tie
    of the second decimal, and those of 10^4 and beyond, take the
    scalar path.
    """
    pixels = to_pixel(data, np.log10)
    cents = np.abs(pixels) * 100.0
    ok = (cents < 999_999.5) & (np.abs(cents - np.floor(cents) - 0.5) > 1e-6)
    cents = np.where(ok, np.rint(cents), 0.0).astype(np.int64)
    whole = cents // 100  # floor division by a scalar is faster than np.divmod
    cells = np.empty((pixels.size, 8), dtype=np.uint8)
    cells[:, 0] = np.where(np.signbit(pixels), ord("-"), 0)
    cells[:, 1:5].view("V4")[:, 0] = _WHOLE_QUADS[whole]
    cells[:, 5] = ord(".")
    cells[:, 6:8].view("V2")[:, 0] = _CENT_PAIRS[cents - whole * 100]
    bad = np.flatnonzero(~ok)
    if bad.size:
        cells = _put_exact(cells, bad, [_fmt(to_pixel(v)) for v in data[bad].tolist()])
    return cells


@dataclass(frozen=True)
class Curve:
    label: str
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Point:
    label: str
    x: float
    y: float


def _finite_positive(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    return x[keep], y[keep]


def _decade_range(lo: float, hi: float) -> tuple[int, int]:
    d_lo = math.floor(math.log10(lo))
    d_hi = math.ceil(math.log10(hi))
    if d_hi <= d_lo:
        d_hi = d_lo + 1
    return d_lo, d_hi


def render_loglog(
    curves: list[Curve],
    title: str,
    xlabel: str,
    ylabel: str,
    points: list[Point] | None = None,
    star: Point | None = None,
) -> str:
    """Render labeled curves (and optional scatter) on log-log axes.

    The y range tops out at each curve's Y_PEAK_PERCENTILE percentile so
    that narrow resonance needles do not stretch the axis; the x range
    spans the data exactly, both padded to whole decades.
    """
    if not curves and not points and star is None:
        raise DomainError("nothing to plot")
    xs, ys, y_caps = [], [], []
    cleaned: list[Curve] = []
    for c in curves:
        x, y = _finite_positive(c.x, c.y)
        if x.size < 2:
            raise DomainError(f"curve {c.label!r} has fewer than 2 positive points")
        cleaned.append(Curve(c.label, x, y))
        xs.extend((x.min(), x.max()))
        ys.append(y.min())
        y_caps.append(float(np.percentile(y, Y_PEAK_PERCENTILE)))
    scatter = list(points or [])
    if star is not None:
        scatter_all = scatter + [star]
    else:
        scatter_all = scatter
    for p in scatter_all:
        if not (p.x > 0 and p.y > 0):
            raise DomainError(f"point {p.label!r} must be positive for log axes")
        xs.extend((p.x, p.x))
        ys.append(p.y)
        y_caps.append(p.y)
    dx_lo, dx_hi = _decade_range(min(xs), max(xs))
    dy_lo, dy_hi = _decade_range(min(ys), max(y_caps))

    ml, mr, mt, mb = 80, 30, 50, 60
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    # with log10=np.log10 these map whole arrays
    def px(x: float, log10=math.log10) -> float:
        return ml + (log10(x) - dx_lo) / (dx_hi - dx_lo) * pw

    def py(y: float, log10=math.log10) -> float:
        return mt + (dy_hi - log10(y)) / (dy_hi - dy_lo) * ph

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="13">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<clipPath id="plot"><rect x="{ml}" y="{mt}" width="{pw}" height="{ph}"/></clipPath>'
    )
    # grid and ticks
    x_step = 1 if dx_hi - dx_lo <= 12 else 2
    for d in range(dx_lo, dx_hi + 1, x_step):
        x = px(10.0**d)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{mt}" x2="{_fmt(x)}" y2="{mt + ph}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{mt + ph + 18}" text-anchor="middle">{_pow10_label(d)}</text>'
        )
    y_step = 1 if dy_hi - dy_lo <= 12 else 2
    for d in range(dy_lo, dy_hi + 1, y_step):
        y = py(10.0**d)
        out.append(
            f'<line x1="{ml}" y1="{_fmt(y)}" x2="{ml + pw}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_pow10_label(d)}</text>'
        )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    # curves; consecutive curves with equal x share its cells
    shared_x = x_cells = None
    for i, c in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        if shared_x is None or not np.array_equal(c.x, shared_x):
            shared_x, x_cells = c.x, _fmt_cells(c.x, px)
        coords = _cell_rows([x_cells, ",", _fmt_cells(c.y, py), " "])[:-1]
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6" clip-path="url(#plot)"/>'
        )
    # scatter
    for p in scatter:
        out.append(
            f'<circle cx="{_fmt(px(p.x))}" cy="{_fmt(py(p.y))}" r="4" fill="#666666" '
            f'fill-opacity="0.7" clip-path="url(#plot)"/>'
        )
    if star is not None:
        out.append(_star_path(px(star.x), py(star.y), 9.0, "#d55e00"))
        out.append(
            f'<text x="{_fmt(px(star.x) + 12)}" y="{_fmt(py(star.y) + 4)}" '
            f'fill="#d55e00">{escape(star.label, quote=False)}</text>'
        )
    # legend
    if cleaned:
        lx, ly = ml + pw - 230, mt + 12
        out.append(
            f'<rect x="{lx - 10}" y="{ly - 12}" width="240" height="{18 * len(cleaned) + 12}" '
            f'fill="#ffffff" fill-opacity="0.85" stroke="#cccccc"/>'
        )
        for i, c in enumerate(cleaned):
            color = PALETTE[i % len(PALETTE)]
            yy = ly + 18 * i
            out.append(
                f'<line x1="{lx}" y1="{yy}" x2="{lx + 26}" y2="{yy}" '
                f'stroke="{color}" stroke-width="2.5"/>'
            )
            out.append(f'<text x="{lx + 32}" y="{yy + 4}">{escape(c.label, quote=False)}</text>')
    # labels
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="24" text-anchor="middle" font-size="16">'
        f"{escape(title, quote=False)}</text>"
    )
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 16}" text-anchor="middle">'
        f"{escape(xlabel, quote=False)}</text>"
    )
    out.append(
        f'<text x="20" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {mt + ph / 2:.1f})">{escape(ylabel, quote=False)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _star_path(cx: float, cy: float, r: float, color: str) -> str:
    pts = []
    for k in range(10):
        radius = r if k % 2 == 0 else 0.42 * r
        angle = -math.pi / 2 + k * math.pi / 5
        pts.append(f"{_fmt(cx + radius * math.cos(angle))},{_fmt(cy + radius * math.sin(angle))}")
    return f'<polygon points="{" ".join(pts)}" fill="{color}" stroke="#7a3300" stroke-width="1"/>'
