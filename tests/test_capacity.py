import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slepbeam import capacity as capacity_module
from slepbeam.array_model import ArrayConfig, directivity_gain
from slepbeam.capacity import (
    COMPARISON_CSV_HEADER,
    CapacityScenario,
    capacity_approximation,
    capacity_lower_bound,
    capacity_sample,
    capacity_upper_bound,
    compare_synthesizers,
    estimate_capacity,
    mean_capacity_mc,
    outage_capacity_mc,
    verify_ordering,
    write_comparison_csv,
    _BLOCK,
    _Expectations,
    _interferer_phases,
    _mc_pass,
    _rng,
    _signal_phases,
)
from slepbeam.concentration import PhaseRegion
from slepbeam.quadrature import adaptive_simpson
from slepbeam.synthesizers import (
    binomial_weights,
    chebyshev_weights,
    dft_weights,
    slepian_weights,
    steer,
)

CFG5 = ArrayConfig(5, 0.5)
FIG9 = CapacityScenario.equal_interferers(1.0, 0.6, 0.1, PhaseRegion(half_width=0.2))


def _no_pass(*args):
    raise AssertionError("a Monte Carlo pass ran")


def _patch_record(monkeypatch, name, fn):
    """Swap one lazily evaluated field of the expectation record for ``fn``."""
    field = functools.cached_property(fn)
    field.__set_name__(_Expectations, name)
    monkeypatch.setattr(_Expectations, name, field)


class TestScenario:
    def test_equal_split(self):
        assert FIG9.interferer_powers == (0.6 / 6,) * 6
        assert FIG9.total_interference == pytest.approx(0.6)

    def test_rejects_bad_powers(self):
        with pytest.raises(ValueError):
            CapacityScenario(0.0, (), 0.1, PhaseRegion(half_width=0.2))
        with pytest.raises(ValueError):
            CapacityScenario(1.0, (-0.1,), 0.1, PhaseRegion(half_width=0.2))
        with pytest.raises(ValueError):
            CapacityScenario(1.0, (), 0.0, PhaseRegion(half_width=0.2))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("power", ["signal", "interferer", "noise"])
    def test_rejects_non_finite_powers(self, power, value):
        powers = {"signal": 1.0, "interferer": 0.3, "noise": 0.1, power: value}
        with pytest.raises(ValueError, match="finite"):
            CapacityScenario(
                powers["signal"], (0.3, powers["interferer"]), powers["noise"],
                PhaseRegion(half_width=0.2),
            )

    @pytest.mark.parametrize("total", [math.inf, math.nan])
    def test_rejects_non_finite_total_interference(self, total):
        with pytest.raises(ValueError, match="finite"):
            CapacityScenario.equal_interferers(1.0, total, 0.1, PhaseRegion(half_width=0.2))

    def test_rejects_interference_without_interferers(self):
        with pytest.raises(ValueError, match="at least one interferer"):
            CapacityScenario.equal_interferers(
                1.0, 0.6, 0.1, PhaseRegion(half_width=0.2), n_interferers=0
            )

    @pytest.mark.parametrize("n_interferers", [0, 1, 6])
    def test_zero_total_interference_has_no_interferers(self, n_interferers):
        scenario = CapacityScenario.equal_interferers(
            1.0, 0.0, 0.1, PhaseRegion(half_width=0.2), n_interferers=n_interferers
        )
        assert scenario.interferer_powers == ()
        assert scenario.total_interference == 0.0

    def test_rejects_empty_signal_region(self):
        with pytest.raises(ValueError, match="nonempty"):
            CapacityScenario(1.0, (), 0.1, PhaseRegion(half_width=0.0))

    def test_rejects_interferers_without_room(self):
        with pytest.raises(ValueError, match="empty"):
            CapacityScenario(1.0, (0.5,), 0.1, PhaseRegion(half_width=1.0))

    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError, match="domain"):
            CapacityScenario(1.0, (), 0.1, PhaseRegion(half_width=0.2), domain="frequency")


class TestCapacitySample:
    def test_uniform_broadside_no_interference(self):
        scenario = CapacityScenario(1.0, (), 1.0, PhaseRegion(half_width=0.2))
        value = capacity_sample(scenario, dft_weights(5), CFG5, 0.0)
        assert value == pytest.approx(math.log2(6.0), rel=1e-12)

    def test_power_scaling_cancels_in_interference_limit(self):
        scenario = CapacityScenario(1.0, (0.3, 0.3), 1e-12, PhaseRegion(half_width=0.2))
        doubled = CapacityScenario(2.0, (0.6, 0.6), 1e-12, PhaseRegion(half_width=0.2))
        v = slepian_weights(CFG5, 0.2).weights
        a = capacity_sample(scenario, v, CFG5, 0.05, [0.5, -0.7])
        b = capacity_sample(doubled, v, CFG5, 0.05, [0.5, -0.7])
        assert a == pytest.approx(b, rel=1e-9)

    def test_matches_independent_formula(self):
        v = slepian_weights(CFG5, 0.2).weights
        rng = np.random.default_rng(5)
        s0 = float(rng.uniform(-0.2, 0.2))
        s_n = [float(rng.uniform(0.2, 1.0)) for _ in range(6)]
        ours = capacity_sample(FIG9, v, CFG5, s0, s_n)
        # independent path: explicit steering sums
        m = np.arange(5)
        gain = lambda s: abs(np.sum(v * np.exp(-1j * math.pi * m * s))) ** 2
        sinr = 1.0 * gain(s0) / (0.1 + sum(0.6 / 6 * gain(s) for s in s_n))
        assert ours == pytest.approx(math.log2(1.0 + sinr), rel=1e-12)

    def test_interferer_count_mismatch(self):
        with pytest.raises(ValueError):
            capacity_sample(FIG9, dft_weights(5), CFG5, 0.0, [0.5])


def _signal_draws(scenario, n, seed):
    return _signal_phases(scenario, _rng(seed, 1).random(n))


def _interferer_draws(scenario, index, n, seed):
    return _interferer_phases(scenario, _rng(seed, 2, index).random(n))


class TestSampling:
    def test_signal_draws_inside_region(self):
        draws = _signal_draws(FIG9, 5000, 9)
        assert np.all(draws >= -0.2) and np.all(draws <= 0.2)

    def test_interferer_draws_outside_region(self):
        draws = _interferer_draws(FIG9, 0, 5000, 9)
        assert np.all((draws <= -0.2) | (draws >= 0.2))
        assert np.all(np.abs(draws) <= 1.0)

    def test_angular_domain_draws_are_cosines(self):
        scenario = replace(FIG9, domain="angular")
        draws = _signal_draws(scenario, 5000, 9)
        assert np.all(np.abs(draws) <= 0.2)

    def test_deterministic_per_stream(self):
        a = _signal_draws(FIG9, 1000, 3)
        b = _signal_draws(FIG9, 1000, 3)
        np.testing.assert_array_equal(a, b)
        c = _interferer_draws(FIG9, 0, 1000, 3)
        d = _interferer_draws(FIG9, 1, 1000, 3)
        assert not np.array_equal(c, d)

    @pytest.mark.parametrize("domain, center", [("phase", 0.0), ("angular", 0.0), ("phase", 0.5)])
    def test_union_map_matches_search_over_interval_offsets(self, domain, center):
        """The comparison that picks an interference interval reproduces the
        search over cumulative interval lengths bit for bit."""
        scenario = replace(FIG9, signal_region=PhaseRegion(0.2, center=center), domain=domain)
        lo, hi = scenario.signal_region.bounds
        if domain == "phase":
            intervals = [(-1.0, lo), (hi, 1.0)]
        else:
            intervals = [(0.0, math.acos(hi)), (math.acos(lo), math.pi)]
        u = np.random.default_rng(4).random(20_000)
        offsets = np.concatenate([[0.0], np.cumsum([b - a for a, b in intervals])])
        scaled = u * offsets[-1]
        idx = np.clip(np.searchsorted(offsets, scaled, side="right") - 1, 0, 1)
        expected = np.array([a for a, _ in intervals])[idx] + (scaled - offsets[idx])
        if domain == "angular":
            expected = np.cos(expected)
        np.testing.assert_array_equal(_interferer_phases(scenario, u), expected)


class TestMeanCapacity:
    def test_no_interference_matches_quadrature(self):
        scenario = CapacityScenario(1.0, (), 0.5, PhaseRegion(half_width=0.9))
        v = dft_weights(5)
        mean, stderr = mean_capacity_mc(scenario, v, CFG5, 40_000, 11)
        integrand = lambda s: math.log2(1.0 + directivity_gain(v, CFG5, s) / 0.5)
        oracle = adaptive_simpson(integrand, -0.9, 0.9, tol=1e-9, initial_panels=31) / 1.8
        assert abs(mean - oracle) <= 3.0 * stderr

    def test_bit_identical_reruns(self):
        v = slepian_weights(CFG5, 0.2).weights
        first = mean_capacity_mc(FIG9, v, CFG5, 20_000, 42)
        second = mean_capacity_mc(FIG9, v, CFG5, 20_000, 42)
        assert first == second

    def test_seed_changes_draws(self):
        v = dft_weights(5)
        a, _ = mean_capacity_mc(FIG9, v, CFG5, 5_000, 1)
        b, _ = mean_capacity_mc(FIG9, v, CFG5, 5_000, 2)
        assert a != b

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError, match="samples"):
            mean_capacity_mc(FIG9, dft_weights(5), CFG5, 10, 0)

    def test_angular_domain_mean_close_to_phase_domain(self):
        # same regions, different sampling measure: values differ but modestly
        v = slepian_weights(CFG5, 0.2).weights
        phase_mean, _ = mean_capacity_mc(FIG9, v, CFG5, 30_000, 4)
        angular_mean, _ = mean_capacity_mc(replace(FIG9, domain="angular"), v, CFG5, 30_000, 4)
        assert abs(phase_mean - angular_mean) < 0.5


class TestApproximation:
    def test_concentration_weights_closed_form(self):
        result = slepian_weights(CFG5, 0.2)
        mean_in, mean_out = _Expectations(FIG9, result.weights, CFG5).mean_gains
        assert mean_in == pytest.approx(result.lambda_max / 0.4, rel=1e-12)
        assert mean_out == pytest.approx((2.0 - result.lambda_max) / 1.6, rel=1e-10)
        approx = capacity_approximation(FIG9, result.weights, CFG5)
        expected = math.log2(1.0 + mean_in / (0.1 + 0.6 * mean_out))
        assert approx == pytest.approx(expected, rel=1e-12)

    def test_single_element_flat_gain(self):
        cfg1 = ArrayConfig(1, 0.5)
        v = dft_weights(1)
        values = [
            capacity_approximation(
                CapacityScenario.equal_interferers(1.0, 0.6, 0.1, PhaseRegion(half_width=w)),
                v,
                cfg1,
            )
            for w in (0.1, 0.3, 0.7)
        ]
        expected = math.log2(1.0 + 1.0 / (0.1 + 0.6))
        assert all(val == pytest.approx(expected, rel=1e-10) for val in values)

    def test_between_bounds(self):
        v = slepian_weights(CFG5, 0.2).weights
        est = estimate_capacity(FIG9, v, CFG5, 20_000, 8)
        assert est.upper_bound >= est.approximation >= est.lower_bound

    def test_degenerate_region_rejected(self):
        scenario = CapacityScenario(1.0, (), 0.1, PhaseRegion(half_width=1.0))
        with pytest.raises(ValueError, match="degenerate"):
            capacity_approximation(scenario, dft_weights(5), CFG5)


class TestUpperBound:
    def test_no_interference_exact(self):
        scenario = CapacityScenario(2.0, (), 0.5, PhaseRegion(half_width=0.3))
        v = slepian_weights(CFG5, 0.3)
        ub = capacity_upper_bound(scenario, v.weights, CFG5, 5_000, 0)
        mean_in = v.lambda_max / 0.6
        assert ub == pytest.approx(math.log2(1.0 + 2.0 * mean_in / 0.5), rel=1e-10)

    def test_dominates_mc_mean(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v = z / np.linalg.norm(z)
            est = estimate_capacity(FIG9, v, CFG5, 20_000, trial)
            assert est.upper_bound >= est.mean - 3.0 * est.stderr

    def test_single_interferer_quadrature_matches_mc(self):
        scenario = CapacityScenario(1.0, (0.6,), 0.1, PhaseRegion(half_width=0.2))
        v = slepian_weights(CFG5, 0.2).weights
        quad = _Expectations(scenario, v, CFG5).inverse_noise
        draws, mc_inverse = next(_mc_pass(scenario, [v], CFG5, 100_000, 13))
        gain0 = directivity_gain(v, CFG5, _signal_draws(scenario, 100_000, 13))
        noise_plus_interference = 0.1 + 0.6 * directivity_gain(
            v, CFG5, _interferer_draws(scenario, 0, 100_000, 13)
        )
        np.testing.assert_array_equal(draws, np.log2(1.0 + 1.0 * gain0 / noise_plus_interference))
        inverse = 1.0 / noise_plus_interference
        assert abs(mc_inverse - inverse.mean()) <= 4 * math.ulp(inverse.mean())
        stderr = inverse.std(ddof=1) / math.sqrt(inverse.size)
        assert abs(quad - mc_inverse) <= 3.0 * stderr


class TestLowerBound:
    def test_below_mc_mean(self):
        rng = np.random.default_rng(37)
        for trial in range(10):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v = z / np.linalg.norm(z)
            est = estimate_capacity(FIG9, v, CFG5, 20_000, trial)
            assert est.mean >= est.lower_bound - 3.0 * est.stderr

    def test_concentration_weights_never_diverge(self):
        for width in (0.1, 0.2, 0.4):
            scenario = CapacityScenario.equal_interferers(
                1.0, 0.6, 0.1, PhaseRegion(half_width=width)
            )
            v = slepian_weights(CFG5, width).weights
            result = capacity_lower_bound(scenario, v, CFG5)
            assert not result.diverged
            assert result.value > 0.0

    def test_uniform_taper_with_in_band_null_diverges(self):
        # the first pattern null of the 5-element uniform taper sits at 0.4
        scenario = CapacityScenario.equal_interferers(
            1.0, 0.6, 0.1, PhaseRegion(half_width=0.5)
        )
        result = capacity_lower_bound(scenario, dft_weights(5), CFG5)
        assert result.diverged
        assert result.value == 0.0


class TestVerifyOrdering:
    def test_reference_scenario_passes(self):
        v = slepian_weights(CFG5, 0.2).weights
        report = verify_ordering(FIG9, v, CFG5, 20_000, 0)
        assert report.passed, [c.name for c in report.failures]

    def test_single_element_everything_equal(self):
        cfg1 = ArrayConfig(1, 0.5)
        scenario = CapacityScenario(1.0, (), 1.0, PhaseRegion(half_width=0.5))
        report = verify_ordering(scenario, dft_weights(1), cfg1, 2_000, 0)
        est = report.estimates
        assert report.passed
        assert est.stderr == 0.0
        assert est.mean == est.upper_bound == est.lower_bound == est.approximation == 1.0

    def test_random_scenarios_clean(self):
        rng = np.random.default_rng(53)
        for trial in range(20):
            width = float(rng.uniform(0.1, 0.6))
            powers = [float(rng.uniform(a, b)) for a, b in ((0.5, 2.0), (0.0, 1.0), (0.05, 0.5))]
            n_interferers = int(rng.integers(0, 5))
            if n_interferers == 0:
                powers[1] = 0.0  # no interferers carry no interference
            scenario = CapacityScenario.equal_interferers(
                *powers, PhaseRegion(half_width=width), n_interferers=n_interferers
            )
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            report = verify_ordering(scenario, z / np.linalg.norm(z), CFG5, 5_000, trial)
            assert report.passed, (trial, [c.name for c in report.failures])


class TestOutage:
    def test_constant_capacity_all_quantiles(self):
        cfg1 = ArrayConfig(1, 0.5)
        scenario = CapacityScenario(1.0, (), 1.0, PhaseRegion(half_width=0.5))
        values = [
            outage_capacity_mc(scenario, dft_weights(1), cfg1, q, 2_000, 0)
            for q in (5.0, 50.0, 95.0)
        ]
        assert values == [1.0, 1.0, 1.0]

    def test_quantiles_monotone(self):
        v = slepian_weights(CFG5, 0.2).weights
        q25 = outage_capacity_mc(FIG9, v, CFG5, 25.0, 20_000, 2)
        q50 = outage_capacity_mc(FIG9, v, CFG5, 50.0, 20_000, 2)
        q75 = outage_capacity_mc(FIG9, v, CFG5, 75.0, 20_000, 2)
        assert q25 <= q50 <= q75

    def test_median_ordering_concentration_vs_uniform(self):
        v = slepian_weights(CFG5, 0.2).weights
        med_conc = outage_capacity_mc(FIG9, v, CFG5, 50.0, 50_000, 6)
        med_unif = outage_capacity_mc(FIG9, dft_weights(5), CFG5, 50.0, 50_000, 6)
        assert med_conc > med_unif

    @pytest.mark.parametrize("q", [0.0, 100.0, 150.0, -1.0, math.nan])
    @pytest.mark.parametrize("entry", ["outage_capacity_mc", "estimate_capacity"])
    def test_bad_percentage_rejected_before_the_pass(self, monkeypatch, entry, q):
        monkeypatch.setattr(capacity_module, "_mc_pass", _no_pass)
        with pytest.raises(ValueError, match=r"outage percentage must be in \(0, 100\)"):
            if entry == "outage_capacity_mc":
                outage_capacity_mc(FIG9, dft_weights(5), CFG5, q, 2_000, 0)
            else:
                estimate_capacity(FIG9, dft_weights(5), CFG5, 2_000, 0, outage_quantiles=(50.0, q))

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            outage_capacity_mc(FIG9, dft_weights(5), CFG5, 0.0, 2_000, 0)
        with pytest.raises(ValueError):
            outage_capacity_mc(FIG9, dft_weights(5), CFG5, 100.0, 2_000, 0)


class TestScaleInvariance:
    def test_approximation_argmax_unchanged_by_common_scaling(self):
        rng = np.random.default_rng(61)
        candidates = [slepian_weights(CFG5, 0.2).weights]
        for _ in range(50):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            candidates.append(z / np.linalg.norm(z))
        scaled = CapacityScenario.equal_interferers(
            7.0, 4.2, 0.7, PhaseRegion(half_width=0.2)
        )
        base_vals = [capacity_approximation(FIG9, v, CFG5) for v in candidates]
        scaled_vals = [capacity_approximation(scaled, v, CFG5) for v in candidates]
        assert int(np.argmax(base_vals)) == int(np.argmax(scaled_vals))

    def test_concentration_taper_maximizes_approximation(self):
        rng = np.random.default_rng(67)
        best = capacity_approximation(FIG9, slepian_weights(CFG5, 0.2).weights, CFG5)
        for _ in range(500):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            z /= np.linalg.norm(z)
            assert best >= capacity_approximation(FIG9, z, CFG5) - 1e-12


class TestCompare:
    def test_row_count_and_csv(self, tmp_path):
        rows = compare_synthesizers(CFG5, FIG9, [0.1, 0.2], [20.0, 30.0, 40.0], 2_000, 0)
        assert len(rows) == 2 + 3 + 2
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == COMPARISON_CSV_HEADER
        assert len(lines) == len(rows) + 1
        assert lines[3].startswith("dft,,")

    def test_approx_column_matches_closed_form(self):
        rows = compare_synthesizers(CFG5, FIG9, [0.15, 0.3], [], 2_000, 0)
        for row in rows:
            if row.synthesizer != "slepian":
                continue
            result = slepian_weights(CFG5, row.param)
            mean_in = result.lambda_max / (2.0 * row.param)
            mean_out = (2.0 - result.lambda_max) / (2.0 - 2.0 * row.param)
            expected = math.log2(1.0 + mean_in / (0.1 + 0.6 * mean_out))
            assert row.approx == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("domain, center", [("phase", 0.0), ("phase", 0.3), ("angular", 0.0)])
    def test_rows_match_standalone_estimates_bitwise(self, domain, center):
        """Uniforms drawn once per table and phasors shared by the baseline
        batch give every row exactly what estimate_capacity gives alone."""
        scenario = replace(FIG9, signal_region=PhaseRegion(0.2, center=center), domain=domain)
        cfg = ArrayConfig(3, 0.5)  # M=3 puts the 2 + 5 baselines in blocks of 3
        rows = compare_synthesizers(cfg, scenario, [0.1, 0.25], [20, 25, 30, 35, 40], 3_000, 5)
        for row in rows:
            if row.synthesizer == "slepian":
                scen = replace(scenario, signal_region=PhaseRegion(row.param, center=center))
                design = slepian_weights(cfg, row.param)
                v = steer(design, center) if center else design.weights
            else:
                scen = scenario
                v = {"dft": dft_weights(3), "binomial": binomial_weights(3)}.get(
                    row.synthesizer, chebyshev_weights(3, row.param or 30.0)
                )
            est = estimate_capacity(scen, v, cfg, 3_000, 5)
            assert (row.mean, row.stderr, row.ub, row.lb, row.approx, row.outage50) == (
                est.mean, est.stderr, est.upper_bound, est.lower_bound, est.approximation,
                est.outage[50.0],
            )

    def test_precomputed_gains_must_match_sample_count(self):
        v = dft_weights(5)
        gains = next(_mc_pass(FIG9, [v], CFG5, 3_000, 5))
        est = estimate_capacity(FIG9, v, CFG5, 3_000, 5, _gains=gains)
        assert est == estimate_capacity(FIG9, v, CFG5, 3_000, 5)
        with pytest.raises(ValueError, match="3000 draws, expected 5000"):
            estimate_capacity(FIG9, v, CFG5, 5_000, 5, _gains=gains)

    def test_estimate_and_standalone_ops_agree_bitwise(self):
        v = dft_weights(5)
        est = estimate_capacity(FIG9, v, CFG5, 5_000, 19)
        assert mean_capacity_mc(FIG9, v, CFG5, 5_000, 19) == (est.mean, est.stderr)
        assert outage_capacity_mc(FIG9, v, CFG5, 50.0, 5_000, 19) == est.outage[50.0]
        assert capacity_upper_bound(FIG9, v, CFG5, 5_000, 19) == est.upper_bound
        lb = capacity_lower_bound(FIG9, v, CFG5)
        assert lb.value == est.lower_bound

    @pytest.mark.parametrize("domain, spacing", [("phase", 0.4), ("phase", 0.5), ("angular", 0.5)])
    def test_estimate_evaluates_region_mean_gains_once(self, monkeypatch, domain, spacing):
        """The lower bound reuses the estimate's out-of-band mean gain, and
        gives what the standalone bound gives, bit for bit."""
        cfg = ArrayConfig(6, spacing)
        scenario = replace(FIG9, domain=domain)
        v = slepian_weights(cfg, 0.2).weights
        lb = capacity_lower_bound(scenario, v, cfg)
        calls = []
        original = _Expectations.mean_gains.func

        def counted(record):
            calls.append(record)
            return original(record)

        _patch_record(monkeypatch, "mean_gains", counted)
        est = estimate_capacity(scenario, v, cfg, 3_000, 2)
        assert len(calls) == 1
        assert (est.lower_bound, est.lower_bound_diverged) == (lb.value, lb.diverged)
        assert not lb.diverged


class TestExpectationRecord:
    """Each entry point evaluates only the expectations its formula reads."""

    @pytest.mark.parametrize("domain, spacing", [("phase", 0.4), ("phase", 0.5), ("angular", 0.5)])
    def test_approximation_scans_no_nulls_and_draws_nothing(self, monkeypatch, domain, spacing):
        cfg = ArrayConfig(6, spacing)
        scenario = replace(FIG9, domain=domain)
        v = slepian_weights(cfg, 0.2).weights
        want = capacity_approximation(scenario, v, cfg)

        def no_nulls(*args, **kwargs):
            raise AssertionError("pattern_nulls ran")

        monkeypatch.setattr(capacity_module, "pattern_nulls", no_nulls)
        monkeypatch.setattr(capacity_module, "_mc_pass", _no_pass)
        assert capacity_approximation(scenario, v, cfg) == want

    def test_diverging_lower_bound_skips_mean_gains(self, monkeypatch):
        def no_mean_gains(record):
            raise AssertionError("mean gains evaluated")

        _patch_record(monkeypatch, "mean_gains", no_mean_gains)
        scenario = replace(FIG9, signal_region=PhaseRegion(half_width=0.5))
        assert capacity_lower_bound(scenario, dft_weights(5), CFG5) == (0.0, True)

    @pytest.mark.parametrize("powers", [(), (0.6,), (0.0, 0.6, 0.0)])
    @pytest.mark.parametrize("domain", ["phase", "angular"])
    def test_upper_bound_runs_no_pass_below_two_interferers(self, monkeypatch, powers, domain):
        scenario = CapacityScenario(1.0, powers, 0.1, PhaseRegion(half_width=0.2), domain=domain)
        v = slepian_weights(CFG5, 0.2).weights
        want = capacity_upper_bound(scenario, v, CFG5)
        monkeypatch.setattr(capacity_module, "_mc_pass", _no_pass)
        assert capacity_upper_bound(scenario, v, CFG5) == want
        assert math.isfinite(want)

    def test_upper_bound_takes_two_interferers_from_one_pass(self, monkeypatch):
        v = slepian_weights(CFG5, 0.2).weights
        passes = []
        original = capacity_module._mc_pass

        def counted(*args):
            passes.append(args)
            return original(*args)

        monkeypatch.setattr(capacity_module, "_mc_pass", counted)
        ub = capacity_upper_bound(FIG9, v, CFG5, 3_000, 8)
        est = estimate_capacity(FIG9, v, CFG5, 3_000, 8)
        assert len(passes) == 2
        assert ub == est.upper_bound

    def test_precomputed_pass_is_not_rerun(self, monkeypatch):
        v = dft_weights(5)
        gains = next(_mc_pass(FIG9, [v], CFG5, 3_000, 5))
        want = estimate_capacity(FIG9, v, CFG5, 3_000, 5)
        monkeypatch.setattr(capacity_module, "_mc_pass", _no_pass)
        assert estimate_capacity(FIG9, v, CFG5, 3_000, 5, _gains=gains) == want

    @pytest.mark.parametrize("half_width", [1.0, 1.0 + 1e-13])
    def test_degenerate_region_rejected_by_every_entry_point(self, half_width):
        scenario = CapacityScenario(1.0, (), 0.1, PhaseRegion(half_width=half_width))
        v = dft_weights(5)
        for call in (
            lambda: capacity_approximation(scenario, v, CFG5),
            lambda: capacity_upper_bound(scenario, v, CFG5, 2_000),
            lambda: capacity_lower_bound(scenario, v, CFG5),
            lambda: estimate_capacity(scenario, v, CFG5, 2_000),
        ):
            with pytest.raises(ValueError, match="degenerate"):
                call()


def _unblocked(scenario, v, cfg, n, seed):
    """Capacity draws and E{1/(N0+I)} in one shot over the whole substreams:
    (seed, 1) for the signal and (seed, 2, i) for interferer i."""
    gain0 = directivity_gain(v, cfg, _signal_draws(scenario, n, seed))
    interference = np.zeros(n)
    for i, power in enumerate(scenario.interferer_powers):
        if power > 0:
            phases = _interferer_draws(scenario, i, n, seed)
            interference += power * directivity_gain(v, cfg, phases)
    denominator = scenario.noise_power + interference
    draws = np.log2(1.0 + scenario.signal_power * gain0 / denominator)
    return draws, float(np.mean(1.0 / denominator))


class TestBlockedPass:
    @pytest.mark.parametrize("domain", ["phase", "angular"])
    @pytest.mark.parametrize("n", [1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
    def test_matches_unblocked_reference(self, domain, n):
        """Blocks change nothing but the summation order of E{1/(N0+I)}.

        That sum is of positive terms, pairwise within a block and running
        over blocks, so it moves the upper bound at rounding level: at most
        1 ulp over 20 seeds of these cases and of n = 100k; 4 ulps allowed.
        """
        scenario = replace(FIG9, domain=domain)
        tapers = [slepian_weights(CFG5, 0.2).weights, dft_weights(5), binomial_weights(5)]
        for v, (draws, inverse) in zip(tapers, _mc_pass(scenario, tapers, CFG5, n, 21)):
            want, want_inverse = _unblocked(scenario, v, CFG5, n, 21)
            np.testing.assert_array_equal(draws, want)
            assert abs(inverse - want_inverse) <= 4 * math.ulp(want_inverse)
            est = estimate_capacity(scenario, v, CFG5, n, 21)
            assert est.mean == float(want.mean())
            assert est.stderr == float(want.std(ddof=1) / math.sqrt(n))
            assert est.outage[50.0] == float(np.quantile(want, 0.5))
            mean_in, _ = _Expectations(scenario, v, CFG5).mean_gains
            ub = math.log2(1.0 + scenario.signal_power * mean_in * want_inverse)
            assert abs(est.upper_bound - ub) <= 4 * math.ulp(ub)

    def test_substream_index_skips_silent_interferers(self):
        scenario = CapacityScenario(1.0, (0.2, 0.0, 0.4), 0.1, PhaseRegion(half_width=0.2))
        v = slepian_weights(CFG5, 0.2).weights
        draws, _ = next(_mc_pass(scenario, [v], CFG5, _BLOCK + 1, 6))
        np.testing.assert_array_equal(draws, _unblocked(scenario, v, CFG5, _BLOCK + 1, 6)[0])

    def test_tapers_beyond_m_start_a_new_group(self):
        tapers = [chebyshev_weights(3, att) for att in (20.0, 25.0, 30.0, 35.0)]
        cfg = ArrayConfig(3, 0.5)
        for v, (draws, _) in zip(tapers, _mc_pass(FIG9, tapers, cfg, 2 * _BLOCK, 4)):
            np.testing.assert_array_equal(draws, _unblocked(FIG9, v, cfg, 2 * _BLOCK, 4)[0])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloMemory:
    """Only the (n,) capacity draws of the tapers in flight grow with n: 16
    bytes a sample for one estimate (the draws and the variance's temporary)
    and about 8 (M + 2) for a table, whose baselines go in groups of M."""

    N = 200_000

    def test_estimate_capacity(self):
        v = slepian_weights(CFG5, 0.2).weights
        estimate_capacity(FIG9, v, CFG5, 2_000, 3)
        assert _traced_peak(lambda: estimate_capacity(FIG9, v, CFG5, self.N, 3)) <= 24 * self.N

    def test_compare_synthesizers(self):
        grids = ([0.1, 0.2], [20.0, 30.0, 40.0, 50.0])
        compare_synthesizers(CFG5, FIG9, *grids, 2_000, 3)
        peak = _traced_peak(lambda: compare_synthesizers(CFG5, FIG9, *grids, self.N, 3))
        assert peak <= 8 * (CFG5.elements + 4) * self.N

    def test_table_peak_does_not_grow_with_the_width_grid(self):
        """Every width is designed before the first pass, but each width's
        draws are released before the next width's pass runs."""
        widths = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
        compare_synthesizers(CFG5, FIG9, widths, [], 2_000, 3)
        one = _traced_peak(lambda: compare_synthesizers(CFG5, FIG9, widths[:1], [], self.N, 3))
        many = _traced_peak(lambda: compare_synthesizers(CFG5, FIG9, widths, [], self.N, 3))
        assert many <= one + 4 * self.N
