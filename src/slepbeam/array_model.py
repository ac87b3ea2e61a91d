"""ULA geometry, the gain kernel, pattern sampling, band power.

Convention: the array factor is the plain inner product v . a(s) with the
weights applied unconjugated, a(s)_m = exp(-1j*m*kd*s).  Many antenna texts
conjugate the weights; this package does not, so a steering ramp
exp(+1j*m*kd*s0) moves the beam to s0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayConfig",
    "PatternSample",
    "steering_vector",
    "phasors",
    "array_factor",
    "directivity_gain",
    "gain_function",
    "sample_pattern",
    "sinc",
    "band_power",
    "angle_to_phase",
    "phase_to_angle",
    "pattern_nulls",
    "default_grid",
    "format_float",
    "write_pattern_csv",
    "PATTERN_CSV_HEADER",
]

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count and spacing in wavelengths.

    ``kd`` and ``period`` are derived so they can never drift out of sync
    with ``spacing_ratio``.
    """

    elements: int
    spacing_ratio: float

    def __post_init__(self):
        if isinstance(self.elements, bool) or not isinstance(
            self.elements, (int, np.integer)
        ):
            raise ValueError(f"elements must be an integer, got {self.elements!r}")
        if self.elements < 1:
            raise ValueError(f"need at least one element, got {self.elements}")
        if not self.spacing_ratio > 0:
            raise ValueError(f"spacing ratio must be positive, got {self.spacing_ratio}")

    @property
    def kd(self) -> float:
        """Electrical spacing k*d in radians (pi at half-wavelength spacing)."""
        return 2.0 * math.pi * self.spacing_ratio

    @property
    def period(self) -> float:
        """Period of the array factor in the s = cos(theta) domain: lambda/d."""
        return 1.0 / self.spacing_ratio


@dataclass(frozen=True)
class PatternSample:
    s: float
    theta: float
    af: complex
    gain: float


def steering_vector(cfg: ArrayConfig, s: float) -> np.ndarray:
    """Element phasors exp(-1j*m*kd*s), m = 0..M-1; element 0 is always 1."""
    return np.exp(-1j * cfg.kd * float(s) * np.arange(cfg.elements))


def _check_weights(v, cfg: ArrayConfig) -> np.ndarray:
    w = np.asarray(v)
    if w.shape != (cfg.elements,):
        raise ValueError(f"expected {cfg.elements} weights, got shape {w.shape}")
    return w


def phasors(cfg: ArrayConfig, s) -> np.ndarray:
    """z = exp(-1j*kd*s), the variable in which the array factor is a polynomial."""
    s = np.asarray(s, dtype=float)
    z = np.empty(s.shape, dtype=complex)
    np.multiply(s, -cfg.kd, out=z.real)
    np.sin(z.real, out=z.imag)
    np.cos(z.real, out=z.real)
    return z


def array_factor(v, cfg: ArrayConfig, s):
    """Far-field sum v . a(s) by Horner's rule in z = exp(-1j*kd*s): one
    complex exponential per phase, then M-1 multiply-adds.

    Accepts a scalar phase or an array of phases, or their complex
    :func:`phasors`, which calls on the same phases can then share.
    """
    w = _check_weights(v, cfg)
    z = np.asarray(s) if np.iscomplexobj(s) else phasors(cfg, s)
    af = np.full(z.shape, w[-1], dtype=complex)
    for c in w[-2::-1]:
        af *= z
        af += c
    return complex(af) if af.ndim == 0 else af


def directivity_gain(v, cfg: ArrayConfig, s):
    """|array factor|^2, nonnegative by construction; scalar in, scalar out."""
    af = array_factor(v, cfg, s)
    gain = af.real * af.real
    gain += af.imag * af.imag
    return gain


def gain_function(v, cfg: ArrayConfig):
    """Scalar s -> |array factor|^2 by the same Horner rule on Python complex
    numbers, for quadrature integrands evaluated one phase at a time."""
    coefficients = [complex(c) for c in _check_weights(v, cfg)[::-1]]
    kd = cfg.kd

    def gain(s: float) -> float:
        z = cmath.exp(-1j * kd * s)
        af = 0j
        for c in coefficients:
            af = af * z + c
        return af.real * af.real + af.imag * af.imag

    return gain


def sample_pattern(v, cfg: ArrayConfig, grid) -> list[PatternSample]:
    """One PatternSample per grid point, in grid order.

    Phases outside [-1, 1] are legal for diagnostic sweeps; their theta column
    is NaN since no physical angle maps there.
    """
    grid_arr = np.asarray(list(grid), dtype=float)
    if grid_arr.size == 0:
        return []
    if not np.all(np.isfinite(grid_arr)):
        raise ValueError("grid values must be finite")
    af = array_factor(v, cfg, grid_arr)
    samples = []
    for s_val, af_val in zip(grid_arr, af):
        theta = math.acos(s_val) if -1.0 <= s_val <= 1.0 else math.nan
        af_c = complex(af_val)
        gain = af_c.real * af_c.real + af_c.imag * af_c.imag
        samples.append(PatternSample(s=float(s_val), theta=theta, af=af_c, gain=gain))
    return samples


def sinc(x: float) -> float:
    """sin(x)/x with a series branch near zero; sinc(0) == 1 exactly."""
    if abs(x) < 1e-6:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def _band_entries(cfg: ArrayConfig, a: float, b: float) -> np.ndarray:
    """First Toeplitz column h[i] = integral of exp(1j*i*kd*s) over [a, b]."""
    width = b - a
    mid = 0.5 * (a + b)
    kd = cfg.kd
    h = np.empty(cfg.elements, dtype=complex)
    for i in range(cfg.elements):
        h[i] = width * sinc(i * kd * width / 2.0) * cmath.exp(1j * i * kd * mid)
    return h


def band_power(v, cfg: ArrayConfig, a: float, b: float) -> float:
    """Integral of the directivity gain over [a, b], in closed form at any kd.

    This is the quadratic form v A v^H of the interval band matrix A, summed
    along its Toeplitz diagonals: sum_i h[i]^* r[i] over the weight
    autocorrelation r[i] = sum_m v[m+i] v[m]^*, counting i != 0 twice.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    w = np.asarray(_check_weights(v, cfg), dtype=complex)
    r = np.correlate(w, w, "full")[cfg.elements - 1 :]
    terms = (np.conj(_band_entries(cfg, a, b)) * r).real
    return float(terms[0] + 2.0 * terms[1:].sum())


def angle_to_phase(theta: float) -> float:
    """s = cos(theta) for theta in [0, pi]."""
    if not -_DOMAIN_SLACK <= theta <= math.pi + _DOMAIN_SLACK:
        raise ValueError(f"theta {theta} outside [0, pi]")
    return math.cos(min(max(theta, 0.0), math.pi))


def phase_to_angle(s: float) -> float:
    """theta = arccos(s) for s in [-1, 1]."""
    if not -1.0 - _DOMAIN_SLACK <= s <= 1.0 + _DOMAIN_SLACK:
        raise ValueError(f"phase {s} outside [-1, 1]")
    return math.acos(min(max(s, -1.0), 1.0))


def pattern_nulls(v, cfg: ArrayConfig, a: float, b: float, circle_tol: float = 1e-8) -> list[float]:
    """Phases in [a, b] where the array factor vanishes.

    The array factor is a polynomial in w = exp(-1j*kd*s); its roots on the
    unit circle map back to real phases modulo the period, which locates the
    nulls exactly instead of relying on grid resolution.  A root of
    multiplicity m scatters numerically by about eps^(1/m), so callers
    expecting repeated nulls must widen ``circle_tol`` accordingly.
    """
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    w = np.asarray(_check_weights(v, cfg), dtype=complex)
    if w.size < 2 or not np.any(w != 0):
        return []
    roots = np.roots(w[::-1])
    kd = cfg.kd
    period = cfg.period
    nulls: list[float] = []
    for root in roots:
        if abs(abs(root) - 1.0) > circle_tol:
            continue
        s0 = -float(np.angle(root)) / kd
        k_lo = math.ceil((a - s0) / period - 1e-12)
        k_hi = math.floor((b - s0) / period + 1e-12)
        for k in range(k_lo, k_hi + 1):
            nulls.append(s0 + k * period)
    return sorted(nulls)


def default_grid(points: int = 2001) -> np.ndarray:
    """Uniform phase grid over [-1, 1] with both endpoints included exactly."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    return np.linspace(-1.0, 1.0, points)


PATTERN_CSV_HEADER = "s,theta_rad,af_re,af_im,gain"


def format_float(x: float, precision: int = 17) -> str:
    """The one float format of every writer; 17 significant digits round-trip
    doubles losslessly."""
    return format(float(x), f".{precision}g")


def write_pattern_csv(samples, path, precision: int = 17) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(PATTERN_CSV_HEADER + "\n")
        for smp in samples:
            fields = (smp.s, smp.theta, smp.af.real, smp.af.imag, smp.gain)
            fh.write(",".join(format_float(x, precision) for x in fields) + "\n")
