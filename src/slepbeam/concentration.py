"""Band-energy (concentration) matrices in the phase and angle domains.

The quadratic form v A v^H of a band matrix gives the gain energy radiated
into that band, so the matrices built here are what the synthesizers optimize
over and what the capacity bounds integrate against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, _band_entries, format_float, gain_function, sinc
from .linalg import eigh_hermitian, eigh_symmetric
from .quadrature import oscillation_simpson

__all__ = [
    "PhaseRegion",
    "ConcentrationMatrix",
    "sinc",
    "concentration_matrix",
    "interval_concentration_matrix",
    "angular_concentration_matrix",
    "commuting_tridiagonal",
    "extreme_concentration_taper",
    "min_eigenvalue",
    "is_toeplitz",
    "is_centrosymmetric",
    "matrix_debug_json",
]

_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class PhaseRegion:
    """Target band in the s = cos(theta) domain.

    ``bounds`` defaults to (center - half_width, center + half_width); pass it
    explicitly (or use :meth:`from_bounds`) when adjacent regions must share a
    boundary float bit-for-bit, as codebook tilings do.
    """

    half_width: float
    center: float = 0.0
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.half_width <= 1.0 + _BOUND_SLACK:
            raise ValueError(f"half_width {self.half_width} outside [0, 1]")
        if self.bounds is None:
            object.__setattr__(
                self,
                "bounds",
                (self.center - self.half_width, self.center + self.half_width),
            )
        lo, hi = self.bounds
        if not lo <= hi:
            raise ValueError(f"bounds out of order: {self.bounds}")
        if abs(lo - (self.center - self.half_width)) > 1e-9 or abs(
            hi - (self.center + self.half_width)
        ) > 1e-9:
            raise ValueError(
                f"bounds {self.bounds} inconsistent with center {self.center} "
                f"and half_width {self.half_width}"
            )
        if lo < -1.0 - _BOUND_SLACK or hi > 1.0 + _BOUND_SLACK:
            raise ValueError(f"region {self.bounds} exceeds the visible space [-1, 1]")

    @classmethod
    def from_bounds(cls, lo: float, hi: float) -> "PhaseRegion":
        return cls(half_width=0.5 * (hi - lo), center=0.5 * (lo + hi), bounds=(lo, hi))


@dataclass(frozen=True)
class ConcentrationMatrix:
    """Hermitian matrix of band integrals, tagged with what produced it."""

    entries: np.ndarray
    bounds: tuple[float, float]
    kd: float
    domain: str = "phase"

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    @property
    def provenance(self) -> str:
        return f"{self.domain}[{self.bounds[0]:.6g}, {self.bounds[1]:.6g}] @ kd={self.kd:.6g}"


def _toeplitz_hermitian(h: np.ndarray) -> np.ndarray:
    n = h.size
    offsets = np.arange(n)[None, :] - np.arange(n)[:, None]
    entries = h[np.abs(offsets)]
    entries[offsets < 0] = np.conj(entries[offsets < 0])
    return entries


def concentration_matrix(cfg: ArrayConfig, half_width: float) -> ConcentrationMatrix:
    """Broadside band matrix: entry (m, n) = 2W sinc((m-n) kd W), diagonal 2W.

    Accepts the degenerate widths 0 (zero matrix) and 1 (2*I at kd = pi)
    exactly as stated; the synthesizer layer decides what to do with them.
    """
    if not 0.0 <= half_width <= 1.0:
        raise ValueError(f"half_width {half_width} outside [0, 1]")
    if half_width == 0.0:
        entries = np.zeros((cfg.elements, cfg.elements))
        return ConcentrationMatrix(entries=entries, bounds=(0.0, 0.0), kd=cfg.kd)
    h = _band_entries(cfg, -half_width, half_width)
    entries = _toeplitz_hermitian(h).real.copy()
    return ConcentrationMatrix(entries=entries, bounds=(-half_width, half_width), kd=cfg.kd)


def interval_concentration_matrix(cfg: ArrayConfig, a: float, b: float) -> ConcentrationMatrix:
    """Band matrix over an arbitrary interval [a, b].

    Entry (m, n) with i = n - m is (b-a) sinc(i kd (b-a)/2) exp(1j i kd (a+b)/2),
    i.e. the symmetric-band matrix Hadamard-multiplied by the steering outer
    product at the interval midpoint.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    h = _band_entries(cfg, a, b)
    return ConcentrationMatrix(entries=_toeplitz_hermitian(h), bounds=(a, b), kd=cfg.kd)


def angular_concentration_matrix(
    cfg: ArrayConfig, theta1: float, theta2: float, tol: float = 1e-10
) -> ConcentrationMatrix:
    """Band matrix integrated in the angle domain: entry (m, n) = integral of
    exp(1j*(n-m)*kd*cos(theta)) over [theta1, theta2].

    The nested trig integrand has no closed form, so this is numeric (adaptive
    Simpson to ``tol``) and computed on demand; callers wanting a lookup table
    build their own on top.
    """
    if not 0.0 <= theta1 < theta2 <= math.pi + _BOUND_SLACK:
        raise ValueError(f"need 0 <= theta1 < theta2 <= pi, got [{theta1}, {theta2}]")
    kd = cfg.kd
    h = np.empty(cfg.elements, dtype=complex)
    h[0] = theta2 - theta1
    for i in range(1, cfg.elements):
        h[i] = oscillation_simpson(
            lambda t, i=i: cmath.exp(1j * i * kd * math.cos(t)), theta1, theta2, i, kd, tol=tol
        )
    return ConcentrationMatrix(
        entries=_toeplitz_hermitian(h), bounds=(theta1, theta2), kd=kd, domain="angle"
    )


def commuting_tridiagonal(elements: int, w_norm: float) -> np.ndarray:
    """Tridiagonal operator sharing its eigenbasis with the prolate band matrix.

    The classic construction for computing prolate sequences: diagonal
    ((M-1-2m)/2)^2 cos(2 pi w), off-diagonal m (M - m) / 2.  Its eigenvalues
    are always simple (nonzero off-diagonals), so its eigenvectors stay well
    defined where the band matrix spectrum clusters to within machine
    epsilon.  Valid for normalized bandwidths w in (0, 1/2); eigenvalue order
    matches concentration order (largest tridiagonal eigenvalue = most
    concentrated taper).
    """
    m = np.arange(elements, dtype=float)
    tri = np.zeros((elements, elements))
    idx = np.arange(elements)
    tri[idx, idx] = ((elements - 1.0 - 2.0 * m) / 2.0) ** 2 * math.cos(
        2.0 * math.pi * w_norm
    )
    off = m[1:] * (elements - m[1:]) / 2.0
    tri[idx[:-1], idx[1:]] = off
    tri[idx[1:], idx[:-1]] = off
    return tri


def extreme_concentration_taper(cfg: ArrayConfig, half_width: float, most: bool) -> np.ndarray | None:
    """Most- or least-concentrated unit taper for the band [-W, W].

    Routed through the commuting tridiagonal, so it stays accurate where the
    band matrix eigenvalues are degenerate to working precision.  Band
    occupancies kd*W/pi in (0, 1) map directly; (1, 2) maps to the
    complementary prolate problem with the concentration order reversed.
    Returns None outside those ranges (including exactly 1, where the band
    matrix is a scaled identity).
    """
    ratio = cfg.kd * half_width / math.pi
    if not 0.0 < ratio < 2.0 or abs(ratio - 1.0) < 1e-15:
        return None
    if ratio < 1.0:
        tri = commuting_tridiagonal(cfg.elements, 0.5 * ratio)
        column = 0 if most else cfg.elements - 1
    else:
        tri = commuting_tridiagonal(cfg.elements, 1.0 - 0.5 * ratio)
        column = cfg.elements - 1 if most else 0
    return eigh_symmetric(tri).eigenvectors[:, column].copy()


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a band matrix (definiteness probe).

    For broadside phase-domain matrices whose smallest eigenvalue falls below
    what a dense eigensolve can resolve (they decay super-exponentially with
    the order), the value is recomputed as the in-band gain integral of the
    least-concentrated taper: a sum of squares, so its sign survives floating
    point where the eigensolver's residual noise does not.
    """
    entries = matrix.entries if isinstance(matrix, ConcentrationMatrix) else np.asarray(matrix)
    if np.iscomplexobj(entries):
        dec = eigh_hermitian(entries)
    else:
        dec = eigh_symmetric(entries)
    smallest = float(dec.eigenvalues[-1])
    if not isinstance(matrix, ConcentrationMatrix) or matrix.domain != "phase":
        return smallest
    lo, hi = matrix.bounds
    if hi <= 0.0 or lo != -hi:
        return smallest
    if abs(smallest) > 1e-12 * np.linalg.norm(entries, "fro"):
        return smallest
    cfg = ArrayConfig(matrix.order, matrix.kd / (2.0 * math.pi))
    taper = extreme_concentration_taper(cfg, hi, most=False)
    if taper is None:
        return smallest
    return oscillation_simpson(gain_function(taper, cfg), lo, hi, cfg.elements, cfg.kd, tol=1e-12)


def is_toeplitz(entries) -> bool:
    a = np.asarray(entries)
    return bool(np.array_equal(a[:-1, :-1], a[1:, 1:]))


def is_centrosymmetric(entries) -> bool:
    a = np.asarray(entries)
    return bool(np.array_equal(a, a[::-1, ::-1]))


def matrix_debug_json(matrix: ConcentrationMatrix, precision: int = 17) -> str:
    """Debug serialization: {"order":M,"entries_re":[...],"entries_im":[...]}."""
    entries = np.asarray(matrix.entries, dtype=complex).ravel()
    re = ",".join(format_float(z.real, precision) for z in entries)
    im = ",".join(format_float(z.imag, precision) for z in entries)
    return f'{{"order":{matrix.order},"entries_re":[{re}],"entries_im":[{im}]}}'
