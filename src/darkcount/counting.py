"""Closed-form dark-state counts, the bright-dark order parameter, and oracles.

All counting is exact integer / rational arithmetic; floats appear only when
rendering.  The angular-momentum oracle recounts dark states from scratch by
diagonalizing total spin in the uniform limit, independent of the formula.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .operators import total_s_squared
from .sector import enumerate_sector


def ndark_formula(n_qubits: int, n_excited: int) -> int:
    """Number of dark states with s of N qubits excited.

    C(N, s) - C(N, s-1) for s <= N/2 (with C(N, -1) := 0), zero above
    half filling.  Exact big-integer arithmetic.
    """
    if n_qubits < 0 or n_excited < 0:
        raise ValueError("n_qubits and n_excited must be nonnegative")
    if n_excited > n_qubits:
        raise ValueError(f"n_excited={n_excited} exceeds n_qubits={n_qubits}")
    if 2 * n_excited > n_qubits:
        return 0
    lower = comb(n_qubits, n_excited - 1) if n_excited >= 1 else 0
    return comb(n_qubits, n_excited) - lower


def order_parameter(n_qubits: int, n_excited: int) -> Fraction:
    """Fraction of dark states in the s-sector, exact.

    Equals (N - 2s + 1) / (N - s + 1) below half filling and 0 above; always
    agrees with ndark_formula / C(N, s).
    """
    n_dark = ndark_formula(n_qubits, n_excited)
    return Fraction(n_dark, comb(n_qubits, n_excited))


def thermodynamic_order(alpha: float) -> float:
    """Order parameter at fixed filling alpha = s/N as N grows without bound.

    (1 - 2 alpha) / (1 - alpha) up to the transition at alpha = 1/2, zero
    beyond; continuous at the critical point.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha > 0.5:
        return 0.0
    return (1.0 - 2.0 * alpha) / (1.0 - alpha)


def count_dark_uniform_oracle(n_qubits: int, n_excited: int) -> int:
    """Count dark states by total-spin diagonalization in the uniform limit.

    Restricts S_tot.S_tot to the s-sector and counts eigenvalues S(S+1) with
    S = N/2 - s, i.e. states whose magnetization sits at its minimum -S.
    Above half filling that S would be negative, so the count is zero.
    Independent of the counting formula; used to cross-check it.  Below half
    filling, ``total_s_squared`` caps the register.
    """
    if not 0 <= n_excited <= n_qubits:
        raise ValueError(f"n_excited must lie in [0, {n_qubits}], got {n_excited}")
    if 2 * n_excited > n_qubits:
        return 0
    s2 = total_s_squared(n_qubits)
    idx = enumerate_sector(n_qubits, n_excited).states
    block = s2[np.ix_(idx, idx)]
    eigvals = np.linalg.eigvalsh(block)
    spin = n_qubits / 2.0 - n_excited
    target = spin * (spin + 1.0)
    return int(np.count_nonzero(np.abs(eigvals - target) < 1e-6))


@dataclass(frozen=True)
class SweepRecord:
    """One point of the bright-dark transition curve at finite N."""

    n_qubits: int
    n_excited: int
    alpha: Fraction
    order_param: Fraction
    n_dark: int
    sector_size: int


def sweep(n_list: list[int]) -> list[SweepRecord]:
    """Order parameter across all fillings s = 0..N for each requested N."""
    records = []
    for n in n_list:
        if n < 1:
            raise ValueError(f"each N must be >= 1, got {n}")
        for s in range(n + 1):
            records.append(
                SweepRecord(
                    n_qubits=n,
                    n_excited=s,
                    alpha=Fraction(s, n),
                    order_param=order_parameter(n, s),
                    n_dark=ndark_formula(n, s),
                    sector_size=comb(n, s),
                )
            )
    return records


def _sig12(x: Fraction) -> str:
    return f"{float(x):.12g}"


def sweep_to_csv(records: list[SweepRecord]) -> str:
    """CSV with header N,s,alpha,order_param,n_dark,sector_size."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "s", "alpha", "order_param", "n_dark", "sector_size"])
    for rec in records:
        writer.writerow(
            [
                rec.n_qubits,
                rec.n_excited,
                _sig12(rec.alpha),
                _sig12(rec.order_param),
                rec.n_dark,
                rec.sector_size,
            ]
        )
    return buf.getvalue()


# --------------------------------------------------------------------------
# self-contained SVG rendering of the transition plot
# --------------------------------------------------------------------------

_MARKERS = ("circle", "square", "diamond", "triangle", "cross")
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 55
_CURVE_POINTS = 200  # samples of the thermodynamic-limit line


def _xpix(alpha: float) -> float:
    return _ML + alpha * (_W - _ML - _MR)


def _ypix(o: float) -> float:
    return _H - _MB - o * (_H - _MT - _MB)


def _marker_svg(kind: str, x: float, y: float, color: str) -> str:
    r = 4.0
    if kind == "circle":
        return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="none" stroke="{color}"/>'
    if kind == "square":
        return (
            f'<rect x="{x - r:.1f}" y="{y - r:.1f}" width="{2 * r}" height="{2 * r}" '
            f'fill="none" stroke="{color}"/>'
        )
    if kind == "diamond":
        pts = f"{x},{y - r} {x + r},{y} {x},{y + r} {x - r},{y}"
        return f'<polygon points="{pts}" fill="none" stroke="{color}"/>'
    if kind == "triangle":
        pts = f"{x},{y - r} {x + r},{y + r} {x - r},{y + r}"
        return f'<polygon points="{pts}" fill="none" stroke="{color}"/>'
    return (
        f'<path d="M {x - r} {y - r} L {x + r} {y + r} M {x - r} {y + r} '
        f'L {x + r} {y - r}" stroke="{color}"/>'
    )


def sweep_to_svg(records: list[SweepRecord]) -> str:
    """Standalone SVG: finite-N markers over the infinite-N curve.

    X axis is the filling alpha = s/N, Y axis the dark fraction; the solid
    line samples the thermodynamic limit at ``_CURVE_POINTS`` points.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for i in range(6):
        a = i / 5.0
        x = _xpix(a)
        y = _ypix(a)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 20}" font-size="12" text-anchor="middle">'
            f"{a:.1f}</text>"
        )
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 10}" y="{y + 4:.1f}" font-size="12" text-anchor="end">'
            f"{a:.1f}</text>"
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 15}" font-size="14" '
        f'text-anchor="middle">fraction of excited qubits</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2})">fraction of dark states</text>'
    )

    pts = []
    for k in range(_CURVE_POINTS + 1):
        a = k / _CURVE_POINTS
        pts.append(f"{_xpix(a):.1f},{_ypix(thermodynamic_order(a)):.1f}")
    parts.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" stroke-width="1.5"/>'
    )

    by_n: dict[int, list[SweepRecord]] = {}
    for rec in records:
        by_n.setdefault(rec.n_qubits, []).append(rec)
    for i, (n, recs) in enumerate(sorted(by_n.items())):
        marker = _MARKERS[i % len(_MARKERS)]
        color = _COLORS[i % len(_COLORS)]
        for rec in recs:
            parts.append(
                _marker_svg(marker, _xpix(float(rec.alpha)), _ypix(float(rec.order_param)), color)
            )
        lx, ly = _W - _MR - 90, _MT + 18 + 16 * i
        parts.append(_marker_svg(marker, lx, ly - 4, color))
        parts.append(f'<text x="{lx + 12}" y="{ly}" font-size="12">N = {n}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
