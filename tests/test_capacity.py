import math
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
    _interferer_phases,
    _mean_inverse_noise_plus_interference,
    _region_mean_gains,
    _row_gains,
    _signal_phases,
    _uniforms,
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
    return _signal_phases(scenario, _uniforms(scenario, n, seed)[0])


def _interferer_draws(scenario, index, n, seed):
    return _interferer_phases(scenario, _uniforms(scenario, n, seed)[1][index])


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
        mean_in, mean_out = _region_mean_gains(FIG9, result.weights, CFG5)
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
        quad = _mean_inverse_noise_plus_interference(scenario, v, CFG5, None)
        draws = 1.0 / (0.1 + _row_gains(scenario, v, CFG5, 100_000, 13)[1])
        independent = 1.0 / (0.1 + 0.6 * directivity_gain(v, CFG5, _interferer_draws(scenario, 0, 100_000, 13)))
        np.testing.assert_array_equal(draws, independent)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(quad - draws.mean()) <= 3.0 * stderr


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
            scenario = CapacityScenario.equal_interferers(
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.05, 0.5)),
                PhaseRegion(half_width=width),
                n_interferers=int(rng.integers(0, 5)),
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
        gains = _row_gains(FIG9, v, CFG5, 3_000, 5)
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
        original = capacity_module._region_mean_gains

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(capacity_module, "_region_mean_gains", counted)
        est = estimate_capacity(scenario, v, cfg, 3_000, 2)
        assert len(calls) == 1
        assert (est.lower_bound, est.lower_bound_diverged) == (lb.value, lb.diverged)
        assert not lb.diverged
