"""Weight generation: the band-concentration synthesizer and classic baselines.

The concentration synthesizer returns the unit-norm taper that maximizes the
ratio of gain energy inside a phase band to the energy outside it.  At
half-wavelength spacing this is the top eigenvector of the band matrix; other
spacings go through a generalized Rayleigh quotient with the visible-space
energy in the denominator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, band_power, format_float, steering_vector
from .concentration import (
    PhaseRegion,
    concentration_matrix,
    extreme_concentration_taper,
    interval_concentration_matrix,
    sinc,
)
from .linalg import NotPositiveDefiniteError, generalized_eigh, hermitize

__all__ = [
    "DegenerateWidthError",
    "SteeringLimitError",
    "SymmetryClassError",
    "SynthesisResult",
    "slepian_weights",
    "slepian_weights_general",
    "steer",
    "dft_weights",
    "binomial_weights",
    "chebyshev_weights",
    "weight_symmetry_class",
    "write_weights_csv",
    "read_weights_csv",
    "WEIGHTS_CSV_HEADER",
]

_EIGENGAP_WARN = 1e-12
# an out-of-band energy within this fraction of the visible energy is rounding
_ROUNDING_ENERGY = 64 * np.finfo(float).eps
_LIMIT_SLACK = 1e-12
_SYMMETRY_TOL = 1e-9


class DegenerateWidthError(ValueError):
    """Band widths 0 and 1 leave the maximizing eigenvector undetermined."""


class SteeringLimitError(ValueError):
    """Requested band leaves the visible space or admits a grating lobe."""


class SymmetryClassError(ValueError):
    """Weights fit neither the symmetric nor the skew-symmetric class."""


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesizer output: unit-norm weights plus the eigenproblem diagnostics.

    ``lambda_max`` is the top eigenvalue of the problem that produced the
    weights (in-band energy for the broadside case, in/out energy ratio for
    the generalized case); ``quotient`` is always the in/out energy ratio.
    """

    weights: np.ndarray
    lambda_max: float
    eigengap: float
    region: PhaseRegion
    config: ArrayConfig
    quotient: float


def slepian_weights(cfg: ArrayConfig, half_width: float) -> SynthesisResult:
    """Taper concentrating gain in [-half_width, half_width], 0 < half_width < 1.

    Intended for half-wavelength spacing (kd = pi), where the out-of-band
    energy matrix is 2I - A and the achieved in-band energy equals the top
    eigenvalue.  Other spacings still maximize the in-band energy, but the
    visible-space interference treatment then needs
    :func:`slepian_weights_general`.

    One eigensolve, of the commuting tridiagonal, gives every taper (see
    :func:`~slepbeam.concentration.extreme_concentration_taper`); the
    weights are the most concentrated one.  ``lambda_max`` and the gap are
    closed-form energies of those tapers: lambda_max is the in-band energy
    e_in of the weights, and the gap is e_in less that of the second taper,
    clamped at 0 because a gap below rounding can come out negative.  The
    reported quotient is the in/out ratio of the weights over the visible
    space at any spacing, e_in / (e_vis - e_in).  A wide band's true
    out-of-band energy can fall below the rounding of that difference, so a
    difference within 64 eps e_vis carries no significant digit: the
    quotient is then inf and a warning says so.
    """
    if not 0.0 < half_width < 1.0:
        raise DegenerateWidthError(
            f"half_width={half_width!r}: the band matrix degenerates to the zero "
            "matrix at 0 and to a scaled identity at 1, so the maximizing "
            "eigenvector is undetermined at both endpoints; pass e.g. 1e-3 or "
            "1 - 1e-3 to approach the limiting beams"
        )
    tapers = extreme_concentration_taper(cfg, half_width)
    weights = tapers[:, 0].copy()
    in_band = band_power(weights, cfg, -half_width, half_width)
    if cfg.elements > 1:
        gap = max(in_band - band_power(tapers[:, 1], cfg, -half_width, half_width), 0.0)
    else:
        gap = math.inf
    if gap < _EIGENGAP_WARN:
        warnings.warn(
            f"top eigenvalue has near multiplicity (gap {gap:.3e}); "
            "the weights are pinned by the commuting tridiagonal operator",
            stacklevel=2,
        )
    visible = band_power(weights, cfg, -1.0, 1.0)
    if visible - in_band <= _ROUNDING_ENERGY * visible:
        warnings.warn(
            f"out-of-band energy below rounding at half_width={half_width!r}: "
            "the in/out quotient is reported as inf",
            stacklevel=2,
        )
        quotient = math.inf
    else:
        quotient = in_band / (visible - in_band)
    return SynthesisResult(
        weights=weights,
        lambda_max=in_band,
        eigengap=gap,
        region=PhaseRegion(half_width=half_width),
        config=cfg,
        quotient=quotient,
    )


def _check_steering_limits(cfg: ArrayConfig, half_width: float, center: float) -> None:
    if cfg.kd <= math.pi + _LIMIT_SLACK:
        limit = 1.0 - half_width
        if abs(center) > limit + _LIMIT_SLACK:
            raise SteeringLimitError(
                f"band [{center - half_width:.6g}, {center + half_width:.6g}] leaves "
                f"the visible space: |center| <= {limit:.6g} required at kd={cfg.kd:.6g}"
            )
    else:
        half_period = 0.5 * cfg.period
        if half_width > half_period + _LIMIT_SLACK:
            raise SteeringLimitError(
                f"half_width {half_width:.6g} exceeds half the pattern period "
                f"{half_period:.6g} at kd={cfg.kd:.6g}"
            )
        limit = cfg.period - 1.0 - half_width
        if limit < -_LIMIT_SLACK or abs(center) > limit + _LIMIT_SLACK:
            raise SteeringLimitError(
                f"|center| <= {max(limit, 0.0):.6g} required at kd={cfg.kd:.6g}, "
                f"otherwise a grating copy of the band enters the visible space"
            )


def steer(result: SynthesisResult, center: float) -> np.ndarray:
    """Shift a broadside design to a band centered at ``center``.

    Element m is multiplied by exp(+1j*m*kd*center); the amplitude profile and
    the in-band energy are untouched, the pattern translates rigidly in s.
    """
    if abs(result.region.center) > _LIMIT_SLACK:
        raise SteeringLimitError("steer expects a broadside design (region center 0)")
    cfg = result.config
    _check_steering_limits(cfg, result.region.half_width, center)
    return result.weights * steering_vector(cfg, -center)


def slepian_weights_general(cfg: ArrayConfig, region: PhaseRegion) -> SynthesisResult:
    """Concentration taper for any spacing and band center.

    Maximizes in-band energy over out-of-band energy within the visible space.
    The denominator starts from the constant one-period energy (period * I)
    and removes or adds the two stripes by which the period window misses the
    visible space; the amplitude problem is solved in the broadside frame and
    the steering ramp is applied afterwards, so at kd = pi with a centered
    band it reduces to :func:`slepian_weights`.
    """
    half_width = region.half_width
    center = region.center
    if not 0.0 < half_width < 1.0:
        raise DegenerateWidthError(
            f"half_width={half_width!r} is degenerate; see slepian_weights"
        )
    _check_steering_limits(cfg, half_width, center)
    m = cfg.elements
    period = cfg.period
    band = concentration_matrix(cfg, half_width).entries
    denominator = period * np.eye(m, dtype=complex) - band
    if cfg.kd <= math.pi + _LIMIT_SLACK:
        stripes = (
            (-0.5 * period - center, -1.0 - center),
            (1.0 - center, 0.5 * period - center),
        )
        stripe_sign = -1.0
    else:
        stripes = (
            (-1.0 - center, -0.5 * period - center),
            (0.5 * period - center, 1.0 - center),
        )
        stripe_sign = 1.0
    for lo, hi in stripes:
        if hi - lo > _LIMIT_SLACK:  # both stripes vanish at kd = pi
            denominator = denominator + stripe_sign * interval_concentration_matrix(
                cfg, lo, hi
            ).entries
    denominator = hermitize(denominator)
    try:
        values, vectors = generalized_eigh(band.astype(complex), denominator)
    except NotPositiveDefiniteError as exc:
        raise SteeringLimitError(
            f"out-of-band energy matrix is not positive definite for "
            f"bounds {region.bounds}: {exc}"
        ) from exc
    top = float(values[0])
    gap = float(values[0] - values[1]) if m > 1 else math.inf
    if gap < _EIGENGAP_WARN:
        warnings.warn(
            f"top generalized eigenvalue has near multiplicity (gap {gap:.3e})",
            stacklevel=2,
        )
    return SynthesisResult(
        weights=vectors[:, 0] * steering_vector(cfg, -center),
        lambda_max=top,
        eigengap=gap,
        region=region,
        config=cfg,
        quotient=top,
    )


def dft_weights(elements: int) -> np.ndarray:
    """Uniform taper 1/sqrt(M): highest possible broadside peak (= M)."""
    if elements < 1:
        raise ValueError("need at least one element")
    return np.full(elements, 1.0 / math.sqrt(elements))


def binomial_weights(elements: int) -> np.ndarray:
    """Pascal-row taper, unit norm: widest main lobe, no sidelobes at kd = pi."""
    if elements < 1:
        raise ValueError("need at least one element")
    row = np.array([math.comb(elements - 1, k) for k in range(elements)], dtype=float)
    return row / np.linalg.norm(row)


def chebyshev_weights(elements: int, sidelobe_db: float) -> np.ndarray:
    """Dolph-Chebyshev broadside taper with equal-ripple sidelobes.

    Classical construction: sample T_{M-1} at beta*cos(pi*k/M) in the pattern
    domain and inverse-DFT back to element space.  Returned real, symmetric,
    unit norm.
    """
    if elements < 2:
        raise ValueError("need at least 2 elements for a Chebyshev taper")
    if not sidelobe_db > 0:
        raise ValueError("sidelobe attenuation must be positive (dB below the peak)")
    order = elements - 1
    ripple = 10.0 ** (sidelobe_db / 20.0)
    beta = math.cosh(math.acosh(ripple) / order)
    k = np.arange(elements)
    x = beta * np.cos(math.pi * k / elements)
    p = np.empty(elements)
    inside = np.abs(x) <= 1.0
    p[inside] = np.cos(order * np.arccos(x[inside]))
    above = x > 1.0
    p[above] = np.cosh(order * np.arccosh(x[above]))
    below = x < -1.0
    p[below] = (2 * (elements % 2) - 1) * np.cosh(order * np.arccosh(-x[below]))
    if elements % 2:
        w = np.real(np.fft.fft(p))
        n = (elements + 1) // 2
        w = np.concatenate([w[n - 1 : 0 : -1], w[:n]])
    else:
        w = np.real(np.fft.fft(p * np.exp(1j * math.pi * k / elements)))
        n = elements // 2 + 1
        w = np.concatenate([w[n - 1 : 0 : -1], w[1:n]])
    w = 0.5 * (w + w[::-1])  # FFT round-off can break the exact symmetry
    w = w / np.linalg.norm(w)
    if w[int(np.argmax(np.abs(w)))] < 0:
        w = -w
    return w


def _predicted_symmetry(cfg: ArrayConfig, half_width: float) -> str:
    if cfg.elements % 2 == 1:
        return "symmetric"
    return "symmetric" if sinc(cfg.kd * half_width) >= 0.0 else "skew_symmetric"


def weight_symmetry_class(result: SynthesisResult) -> str:
    """Classify broadside weights as ``symmetric`` or ``skew_symmetric``.

    Centrosymmetry of the band matrix forces one of the two classes; the
    alternating rule (odd M, or even M with sinc(kd*W) >= 0, is symmetric)
    is checked against the actual reversal and a contradiction is reported
    as a warning since the rule is a conjecture for this matrix family.  A
    class holds when the reversal matches to 1e-9.
    """
    x = np.asarray(result.weights)
    if np.iscomplexobj(x):
        if float(np.max(np.abs(x.imag))) > 1e-12:
            raise SymmetryClassError(
                "classification applies to broadside (real amplitude) weights"
            )
        x = x.real
    reversed_x = x[::-1]
    d_sym = float(np.max(np.abs(x - reversed_x)))
    d_skew = float(np.max(np.abs(x + reversed_x)))
    if d_sym <= _SYMMETRY_TOL:
        measured = "symmetric"
    elif d_skew <= _SYMMETRY_TOL:
        measured = "skew_symmetric"
    else:
        raise SymmetryClassError(
            f"weights are neither symmetric nor skew-symmetric within {_SYMMETRY_TOL:g}: "
            f"|x - rev| = {d_sym:.3e}, |x + rev| = {d_skew:.3e}"
        )
    predicted = _predicted_symmetry(result.config, result.region.half_width)
    if measured != predicted:
        warnings.warn(
            f"measured class {measured} contradicts the alternating-symmetry rule "
            f"({predicted}) at M={result.config.elements}, "
            f"kd*W={result.config.kd * result.region.half_width:.6g}",
            stacklevel=2,
        )
    return measured


WEIGHTS_CSV_HEADER = "index,amplitude,phase_rad,re,im"


def write_weights_csv(weights, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(WEIGHTS_CSV_HEADER + "\n")
        for idx, z in enumerate(np.asarray(weights, dtype=complex)):
            fields = (abs(z), math.atan2(z.imag, z.real), z.real, z.imag)
            fh.write(",".join([str(idx)] + [format_float(x) for x in fields]) + "\n")


def read_weights_csv(path) -> np.ndarray:
    """Weights back from the CSV written by :func:`write_weights_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != WEIGHTS_CSV_HEADER:
            raise ValueError(f"unexpected weights CSV header: {header!r}")
        rows = [line.strip() for line in fh if line.strip()]
    weights = np.empty(len(rows), dtype=complex)
    for k, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 5:
            raise ValueError(f"weights CSV row {k} has {len(fields)} fields")
        weights[k] = complex(float(fields[3]), float(fields[4]))
    return weights
