import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepbeam.array_model import (
    PATTERN_CSV_HEADER,
    ArrayConfig,
    angle_to_phase,
    array_factor,
    band_power,
    default_grid,
    directivity_gain,
    gain_function,
    pattern_nulls,
    phase_to_angle,
    phasors,
    sample_pattern,
    steering_vector,
    write_pattern_csv,
)
from slepbeam.synthesizers import binomial_weights, dft_weights

CFG5 = ArrayConfig(5, 0.5)


class TestArrayConfig:
    def test_derived_quantities(self):
        cfg = ArrayConfig(8, 0.25)
        assert cfg.kd == pytest.approx(math.pi / 2.0, abs=0)
        assert cfg.period == 4.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 0.5)
        with pytest.raises(ValueError):
            ArrayConfig(4, 0.0)
        with pytest.raises(ValueError):
            ArrayConfig(4.5, 0.5)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        np.testing.assert_array_equal(steering_vector(CFG5, 0.0), np.ones(5))

    def test_endfire_alternates(self):
        np.testing.assert_allclose(
            steering_vector(CFG5, 1.0), [1, -1, 1, -1, 1], atol=1e-12
        )

    def test_quarter_period_phases(self):
        cfg = ArrayConfig(4, 0.5)
        np.testing.assert_allclose(
            steering_vector(cfg, 0.5), [1, -1j, -1, 1j], atol=1e-12
        )

    def test_first_element_always_one(self):
        for s in (-1.7, -0.3, 0.2, 2.5):
            assert steering_vector(CFG5, s)[0] == 1.0


class TestArrayFactor:
    def test_dft_coherent_sum(self):
        af = array_factor(dft_weights(5), CFG5, 0.0)
        assert af == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_gain_is_squared_magnitude(self):
        v = dft_weights(5)
        for s in (0.1, 0.33, -0.8):
            af = array_factor(v, CFG5, s)
            assert directivity_gain(v, CFG5, s) == pytest.approx(abs(af) ** 2, rel=1e-12)

    def test_uniform_first_null(self):
        af = array_factor(dft_weights(5), CFG5, 2.0 / 5.0)
        assert abs(af) < 1e-12

    def test_dft_peak_gain_is_element_count(self):
        assert directivity_gain(dft_weights(5), CFG5, 0.0) == pytest.approx(5.0, abs=1e-12)

    def test_binomial_endfire_double_zero(self):
        v = binomial_weights(5)
        assert directivity_gain(v, CFG5, 1.0) < 1e-24
        # derivative also vanishes: gain stays tiny just inside
        assert directivity_gain(v, CFG5, 1.0 - 1e-5) < 1e-15

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        grid = np.linspace(-1, 1, 17)
        batch = array_factor(v, CFG5, grid)
        for s, af in zip(grid, batch):
            assert array_factor(v, CFG5, float(s)) == pytest.approx(af, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            array_factor(np.ones(4), CFG5, 0.0)


class TestSamplePattern:
    def test_empty_grid(self):
        assert sample_pattern(dft_weights(5), CFG5, []) == []

    def test_single_broadside_sample(self):
        samples = sample_pattern(dft_weights(5), CFG5, [0.0])
        assert len(samples) == 1
        assert samples[0].gain == pytest.approx(5.0, abs=1e-12)
        assert samples[0].theta == pytest.approx(math.pi / 2.0)

    def test_trapezoid_total_power(self):
        # uniform 4001-point grid integrates the gain to 2||v||^2 at kd = pi
        rng = np.random.default_rng(1)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = z / np.linalg.norm(z)
        grid = np.linspace(-1.0, 1.0, 4001)
        samples = sample_pattern(v, CFG5, grid)
        total = np.trapezoid([smp.gain for smp in samples], grid)
        assert total == pytest.approx(2.0, abs=1e-6)

    def test_out_of_visible_theta_is_nan(self):
        samples = sample_pattern(dft_weights(5), CFG5, [1.5])
        assert math.isnan(samples[0].theta)

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(ValueError, match="finite"):
            sample_pattern(dft_weights(5), CFG5, [0.0, math.inf])


class TestBandPower:
    def test_full_visible_space_at_half_wavelength(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = z / np.linalg.norm(z)
        assert band_power(v, ArrayConfig(6, 0.5), -1.0, 1.0) == pytest.approx(2.0, abs=1e-8)

    def test_one_period_power_equals_period(self):
        cfg = ArrayConfig(4, 0.35)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = z / np.linalg.norm(z)
        power = band_power(v, cfg, -0.5 * cfg.period, 0.5 * cfg.period)
        assert power == pytest.approx(cfg.period, abs=1e-8)

    def test_matches_band_matrix_quadratic_form(self):
        from slepbeam.concentration import concentration_matrix
        from slepbeam.linalg import quadratic_form

        rng = np.random.default_rng(4)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = z / np.linalg.norm(z)
        matrix = concentration_matrix(CFG5, 0.3)
        assert band_power(v, CFG5, -0.3, 0.3) == pytest.approx(
            quadratic_form(v, matrix.entries), abs=1e-8
        )

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            band_power(dft_weights(5), CFG5, 0.5, 0.5)

    @pytest.mark.parametrize("spacing", [0.3786239830493477, 0.3913354217870252, 0.45, 0.6])
    def test_matches_gauss_legendre_off_half_wave(self, spacing):
        """Steered general designs at spacings where adaptive Simpson missed
        its tolerance by up to 60x; the closed form stays at rounding level."""
        from slepbeam.concentration import PhaseRegion, interval_concentration_matrix
        from slepbeam.linalg import quadratic_form
        from slepbeam.synthesizers import slepian_weights_general

        cfg = ArrayConfig(16, spacing)
        v = slepian_weights_general(cfg, PhaseRegion(half_width=0.15, center=0.3)).weights
        nodes, weights = np.polynomial.legendre.leggauss(20)
        for a, b in ((-1.0, 1.0), (0.15, 0.45)):
            edges = np.linspace(a, b, 513)
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            s = (mid[:, None] + half[:, None] * nodes).ravel()
            af = np.exp(-1j * cfg.kd * np.outer(s, np.arange(16))) @ v
            reference = float(np.sum(np.repeat(half, 20) * np.tile(weights, 512) * np.abs(af) ** 2))
            assert band_power(v, cfg, a, b) == pytest.approx(reference, abs=1e-13)
            matrix = interval_concentration_matrix(cfg, a, b).entries
            assert band_power(v, cfg, a, b) == pytest.approx(quadratic_form(v, matrix), abs=1e-14)


class TestAnglePhase:
    def test_broadside(self):
        assert angle_to_phase(math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_width_mapping(self):
        # an angular half-width alpha around broadside maps to W = sin(alpha)
        for alpha in (0.1, 0.3, 1.0):
            w = angle_to_phase(math.pi / 2.0 - alpha)
            assert w == pytest.approx(math.sin(alpha), rel=1e-12)
            assert angle_to_phase(math.pi / 2.0 + alpha) == pytest.approx(-w, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(0.0, math.pi, 100):
            assert phase_to_angle(angle_to_phase(theta)) == pytest.approx(theta, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            angle_to_phase(-0.1)
        with pytest.raises(ValueError):
            phase_to_angle(1.5)


class TestPatternNulls:
    def test_uniform_array_null_locations(self):
        nulls = pattern_nulls(dft_weights(5), CFG5, -1.0, 0.99)
        np.testing.assert_allclose(nulls, [-0.8, -0.4, 0.4, 0.8], atol=1e-9)

    def test_no_nulls_for_single_element(self):
        assert pattern_nulls(np.array([1.0]), ArrayConfig(1, 0.5), -1.0, 1.0) == []

    def test_binomial_null_at_endfire(self):
        # the endfire null has multiplicity M-1, so the polynomial roots
        # scatter by roughly eps^(1/(M-1)) and need a widened tolerance
        nulls = pattern_nulls(
            binomial_weights(4), ArrayConfig(4, 0.5), 0.5, 1.0, circle_tol=1e-4
        )
        assert nulls
        assert nulls[-1] == pytest.approx(1.0, abs=1e-4)


class TestHornerKernel:
    """The Horner kernel against the direct exponential sum it replaced."""

    @pytest.mark.parametrize("elements", [1, 2, 5, 16, 64, 128])
    @pytest.mark.parametrize("spacing", [0.1, 0.35, 0.5, 1.0])
    def test_matches_direct_sum(self, elements, spacing):
        cfg = ArrayConfig(elements, spacing)
        rng = np.random.default_rng(elements * 100 + int(spacing * 100))
        z = rng.standard_normal(elements) + 1j * rng.standard_normal(elements)
        v = z / np.linalg.norm(z) * np.exp(1j * cfg.kd * 0.3 * np.arange(elements))
        s = np.concatenate([rng.uniform(-1.0, 1.0, 500), [-1.0, 0.0, 0.3, 1.0]])
        direct = np.exp(-1j * cfg.kd * np.outer(s, np.arange(elements))) @ v
        scale = np.sum(np.abs(v)) ** 2
        af = array_factor(v, cfg, s)
        assert np.max(np.abs(af - direct)) <= 1e-13 * np.sqrt(scale)
        gain = directivity_gain(v, cfg, s)
        assert np.max(np.abs(gain - np.abs(direct) ** 2)) <= 1e-13 * scale
        np.testing.assert_array_equal(directivity_gain(v, cfg, phasors(cfg, s)), gain)
        scalar = gain_function(v, cfg)
        assert max(abs(scalar(x) - g) for x, g in zip(s, gain)) <= 1e-13 * scale


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_conjugate_symmetry_for_real_weights(elements, s, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(elements)
    v /= np.linalg.norm(v)
    cfg = ArrayConfig(elements, 0.5)
    assert array_factor(v, cfg, -s) == pytest.approx(
        np.conj(array_factor(v, cfg, s)), abs=1e-12
    )


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_gain_nonnegative(elements, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(elements) + 1j * rng.standard_normal(elements)
    v = z / np.linalg.norm(z)
    cfg = ArrayConfig(elements, 0.5)
    gains = directivity_gain(v, cfg, np.linspace(-1, 1, 201))
    assert np.all(gains >= 0.0)


class TestCsvExport:
    def test_header_and_round_trip_values(self, tmp_path):
        path = tmp_path / "pattern.csv"
        samples = sample_pattern(dft_weights(5), CFG5, default_grid(101))
        write_pattern_csv(samples, path)
        lines = path.read_text().splitlines()
        assert lines[0] == PATTERN_CSV_HEADER
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        assert float(first[4]) == pytest.approx(samples[0].gain, rel=1e-15)

    def test_endpoints_exact(self):
        grid = default_grid(2001)
        assert grid[0] == -1.0 and grid[-1] == 1.0
