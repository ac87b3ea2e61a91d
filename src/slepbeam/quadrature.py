"""Adaptive Simpson integration tuned for smooth oscillatory integrands."""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["QuadratureError", "adaptive_simpson", "oscillation_simpson"]


class QuadratureError(RuntimeError):
    """Tolerance was not reached before the subdivision depth limit."""


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = 1e-9,
    max_depth: int = 30,
    initial_panels: int = 9,
):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    The interval is first split into ``initial_panels`` equal panels so that
    oscillatory integrands are sampled below their shortest period before the
    dyadic refinement starts (a single symmetric panel can alias a trig
    polynomial into a spuriously converged estimate).  Each panel gets a
    proportional share of the tolerance budget.  Complex integrands are
    supported; the acceptance test is on the magnitude of the Richardson
    residual.
    """
    if not b > a:
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    panels = max(int(initial_panels), 1)
    edges = [a + (b - a) * i / panels for i in range(panels + 1)]
    panel_tol = tol / panels
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo = f(lo)
        fhi = f(hi)
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        total += _refine(f, lo, flo, mid, fmid, hi, fhi, whole, panel_tol, max_depth)
    return total


def _refine(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        # Richardson extrapolation knocks out the leading error term.
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"no convergence on [{a}, {b}]: residual {abs(delta):.3e} "
            f"still above {15.0 * tol:.3e} at the depth limit"
        )
    half = 0.5 * tol
    return _refine(f, a, fa, lm, flm, m, fm, left, half, depth - 1) + _refine(
        f, m, fm, rm, frm, b, fb, right, half, depth - 1
    )


def oscillation_simpson(
    f: Callable[[float], complex], a: float, b: float, harmonic: int, kd: float, tol: float = 1e-9
):
    """:func:`adaptive_simpson` for an integrand that oscillates up to
    ``harmonic * kd`` radians per unit: the initial panels (odd, at least 9)
    resolve the fastest oscillation."""
    cycles = (b - a) * harmonic * kd / math.pi
    return adaptive_simpson(f, a, b, tol=tol, initial_panels=max(9, int(cycles) + 1) | 1)
