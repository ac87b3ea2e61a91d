"""Executable invariant suites behind the ``verify`` command.

Each check returns measured values so a failing run says what was observed,
not just that something broke.  The perturbation hook corrupts one matrix
entry pair on purpose; it exists to prove the harness can fail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .array_model import ArrayConfig, array_factor, band_power
from .capacity import CapacityScenario, CheckResult, verify_ordering
from .concentration import PhaseRegion, concentration_matrix, min_eigenvalue
from .linalg import eigh_symmetric
from .synthesizers import binomial_weights, dft_weights, slepian_weights

__all__ = ["ValidationReport", "run_validation"]


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        lines.append(verdict)
        return "\n".join(lines)


def _check_band_matrix_definiteness(max_elements: int, perturb: bool) -> CheckResult:
    """Band matrices must be positive definite for every width in (0, 1]."""
    worst = math.inf
    worst_case = ""
    widths = [0.05 * k for k in range(1, 20)] + [1.0]
    for elements in range(2, max_elements + 1):
        cfg = ArrayConfig(elements, 0.5)
        for width in widths:
            matrix = concentration_matrix(cfg, width)
            entries = matrix.entries
            if perturb:
                entries = entries.copy()
                entries[0, 1] = entries[1, 0] = 1.5 * entries[0, 0]
                matrix = type(matrix)(
                    entries=entries, bounds=matrix.bounds, kd=matrix.kd
                )
            smallest = min_eigenvalue(matrix)
            if smallest < worst:
                worst = smallest
                worst_case = f"M={elements}, W={width:g}"
    zero_ok = not np.any(concentration_matrix(ArrayConfig(4, 0.5), 0.0).entries)
    passed = worst > 0.0 and zero_ok
    return CheckResult(
        "band_matrix_positive_definite",
        passed,
        f"smallest eigenvalue {worst:.3e} at {worst_case}; zero-width matrix is zero: {zero_ok}",
    )


def _check_radiated_power(n_vectors: int, seed: int) -> CheckResult:
    """Total visible power is 2||v||^2 at half-wavelength spacing and
    period * ||v||^2 over one period at any spacing."""
    rng = np.random.default_rng(seed)
    worst_half = 0.0
    worst_period = 0.0
    for _ in range(n_vectors):
        elements = int(rng.integers(2, 13))
        z = rng.standard_normal(elements) + 1j * rng.standard_normal(elements)
        v = z / np.linalg.norm(z)
        worst_half = max(
            worst_half, abs(band_power(v, ArrayConfig(elements, 0.5), -1.0, 1.0) - 2.0)
        )
        cfg = ArrayConfig(elements, 0.35)
        worst_period = max(
            worst_period,
            abs(band_power(v, cfg, -0.5 * cfg.period, 0.5 * cfg.period) - cfg.period),
        )
    passed = worst_half <= 1e-8 and worst_period <= 1e-8
    return CheckResult(
        "radiated_power_conservation",
        passed,
        f"max |power - 2| = {worst_half:.2e} (half-wave), "
        f"max |power - period| = {worst_period:.2e} (0.7 pi spacing), tolerance 1e-8",
    )


def _check_trace_identity(max_elements: int) -> CheckResult:
    """trace A(W) must be exactly 2 W M; eigenvalue sums match to 1e-9."""
    worst_rel = 0.0
    exact = True
    detail_case = ""
    for elements in range(2, max_elements + 1):
        cfg = ArrayConfig(elements, 0.5)
        for width in (0.1, 0.25, 0.5, 0.75, 0.9):
            matrix = concentration_matrix(cfg, width)
            trace = math.fsum(matrix.entries[i, i] for i in range(elements))
            expected = 2.0 * width * elements
            if trace != expected:
                exact = False
                detail_case = f"M={elements}, W={width}: {trace!r} != {expected!r}"
            eig_sum = math.fsum(eigh_symmetric(matrix.entries).eigenvalues)
            worst_rel = max(worst_rel, abs(eig_sum - expected) / expected)
    passed = exact and worst_rel <= 1e-9
    detail = f"trace exact: {exact}"
    if detail_case:
        detail += f" ({detail_case})"
    detail += f"; worst eigenvalue-sum deviation {worst_rel:.2e} vs expected 2WM (tol 1e-9)"
    return CheckResult("trace_identity", passed, detail)


def _check_capacity_ordering(n_samples: int, seed: int) -> CheckResult:
    """Upper bound >= approximation >= lower bound, MC mean inside the 3-sigma belt."""
    cfg = ArrayConfig(5, 0.5)
    failures = []
    for width in (0.1, 0.2, 0.4):
        scenario = CapacityScenario.equal_interferers(
            1.0, 0.6, 0.1, PhaseRegion(half_width=width)
        )
        report = verify_ordering(
            scenario, slepian_weights(cfg, width).weights, cfg, n_samples, seed
        )
        failures.extend(f"W={width}: {c.name}" for c in report.failures)
    return CheckResult(
        "capacity_bound_ordering",
        not failures,
        "; ".join(failures) if failures else f"3 scenarios clean at n={n_samples}",
    )


def _check_limit_convergence() -> CheckResult:
    """Weights approach the uniform taper as W -> 0 and the Pascal taper as W -> 1."""
    cfg = ArrayConfig(5, 0.5)
    with warnings.catch_warnings():
        # near the W = 1 limit the spectrum is degenerate by construction and
        # the multiplicity warning is expected
        warnings.simplefilter("ignore")
        to_dft = [
            float(np.max(np.abs(slepian_weights(cfg, w).weights - dft_weights(5))))
            for w in (0.2, 0.1, 0.05, 0.01, 0.001)
        ]
        to_binomial = [
            float(np.max(np.abs(slepian_weights(cfg, w).weights - binomial_weights(5))))
            for w in (0.8, 0.9, 0.95, 0.99, 0.999)
        ]
    ok_dft = all(a > b for a, b in zip(to_dft, to_dft[1:]))
    ok_bin = all(a > b for a, b in zip(to_binomial, to_binomial[1:]))
    return CheckResult(
        "limit_convergence",
        ok_dft and ok_bin,
        f"distance to uniform {to_dft[-1]:.2e}, to Pascal {to_binomial[-1]:.2e}, "
        f"monotone: {ok_dft}/{ok_bin}",
    )


def count_pattern_zeros(v, cfg: ArrayConfig, points: int = 4001) -> int:
    """Zeros of the array factor over one period [-1, 1) at kd = pi.

    Counts sign changes of the phase-aligned (real) array factor; a zero
    pinned at the period edge counts once.
    """
    s = np.linspace(-1.0, 1.0, points)
    af = array_factor(v, cfg, s)
    aligned = af * np.exp(1j * (cfg.elements - 1) * cfg.kd * s / 2.0)
    lead = aligned[int(np.argmax(np.abs(aligned)))]
    aligned = aligned * np.exp(-1j * np.angle(lead))
    scale = float(np.max(np.abs(aligned)))
    if float(np.max(np.abs(aligned.imag))) > 1e-9 * scale:
        raise ValueError("array factor is not phase-alignable to a real function")
    real = aligned.real
    edge_zero = abs(real[0]) < 1e-9 * scale or abs(real[-1]) < 1e-9 * scale
    signs = np.sign(real[np.abs(real) > 1e-9 * scale])
    changes = int(np.sum(signs[:-1] != signs[1:]))
    return changes + (1 if edge_zero else 0)


def _check_zero_placement() -> CheckResult:
    """M-1 pattern zeros per period, none inside the design band."""
    bad = []
    for elements in range(3, 9):
        cfg = ArrayConfig(elements, 0.5)
        for width in (0.1, 0.2, 0.3, 0.4, 0.5):
            weights = slepian_weights(cfg, width).weights
            zeros = count_pattern_zeros(weights, cfg)
            grid = np.linspace(-width, width, 2001)
            min_af = float(np.min(np.abs(array_factor(weights, cfg, grid))))
            if zeros != elements - 1 or min_af <= 1e-6 * math.sqrt(elements):
                bad.append(f"M={elements}, W={width}: zeros={zeros}, min|AF|={min_af:.2e}")
    return CheckResult(
        "zero_placement",
        not bad,
        "; ".join(bad) if bad else "30 cases: M-1 zeros per period, band interior clear",
    )


def run_validation(
    max_elements: int = 10,
    n_vectors: int = 40,
    n_samples: int = 20_000,
    seed: int = 0,
    perturb: bool = False,
) -> ValidationReport:
    checks = (
        _check_band_matrix_definiteness(max_elements, perturb),
        _check_radiated_power(n_vectors, seed),
        _check_trace_identity(max_elements),
        _check_capacity_ordering(n_samples, seed),
        _check_limit_convergence(),
        _check_zero_placement(),
    )
    return ValidationReport(checks=checks)
