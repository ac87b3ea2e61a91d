import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepbeam import concentration
from slepbeam.array_model import ArrayConfig
from slepbeam.capacity import (
    CapacityScenario,
    capacity_approximation,
    capacity_lower_bound,
    capacity_upper_bound,
    estimate_capacity,
)
from slepbeam.concentration import (
    PhaseRegion,
    _angular_entries,
    angular_concentration_matrix,
    concentration_matrix,
    extreme_concentration_taper,
    interval_concentration_matrix,
    matrix_debug_json,
    min_eigenvalue,
    sinc,
)
from slepbeam.linalg import eigh_hermitian, eigh_symmetric
from slepbeam.synthesizers import slepian_weights

CFG5 = ArrayConfig(5, 0.5)


class TestPhaseRegion:
    def test_default_bounds(self):
        region = PhaseRegion(half_width=0.3, center=0.2)
        assert region.bounds == (0.2 - 0.3, 0.2 + 0.3)

    def test_from_bounds_round_trip(self):
        region = PhaseRegion.from_bounds(-0.6, -0.2)
        assert region.bounds == (-0.6, -0.2)
        assert region.center == pytest.approx(-0.4, abs=1e-15)

    def test_rejects_invisible_region(self):
        with pytest.raises(ValueError, match="visible"):
            PhaseRegion(half_width=0.5, center=0.8)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            PhaseRegion(half_width=-0.1)
        with pytest.raises(ValueError):
            PhaseRegion(half_width=1.2)


class TestSinc:
    def test_zero_is_one_exactly(self):
        assert sinc(0.0) == 1.0

    def test_matches_ratio(self):
        for x in (0.5, 1.0, 2.0, -3.3):
            assert sinc(x) == math.sin(x) / x

    def test_series_branch_agrees_with_ratio(self):
        x = 9.999e-7  # just below the series switch
        assert sinc(x) == pytest.approx(math.sin(x) / x, abs=1e-16)


class TestConcentrationMatrix:
    def test_zero_width_is_zero_matrix(self):
        matrix = concentration_matrix(CFG5, 0.0)
        assert not np.any(matrix.entries)

    def test_full_width_half_wavelength_is_two_identity(self):
        matrix = concentration_matrix(CFG5, 1.0)
        np.testing.assert_allclose(matrix.entries, 2.0 * np.eye(5), atol=1e-15)

    def test_hand_values_m3(self):
        matrix = concentration_matrix(ArrayConfig(3, 0.5), 0.5)
        np.testing.assert_allclose(np.diag(matrix.entries), [1.0, 1.0, 1.0], atol=0)
        assert matrix.entries[0, 1] == pytest.approx(math.sin(math.pi / 2) / (math.pi / 2), rel=1e-12)
        assert matrix.entries[0, 1] == pytest.approx(0.63662, abs=1e-5)
        assert matrix.entries[0, 2] == pytest.approx(0.0, abs=1e-16)

    def test_quadrature_oracle_entries(self):
        # entry (m, n) is the integral of exp(1j (n-m) kd s) over the band
        matrix = concentration_matrix(ArrayConfig(3, 0.5), 0.5)
        s = np.linspace(-0.5, 0.5, 200_001)
        for i in (1, 2):
            oracle = np.trapezoid(np.exp(1j * i * math.pi * s), s)
            assert matrix.entries[0, i] == pytest.approx(oracle.real, abs=1e-9)

    def test_structure(self):
        a = concentration_matrix(ArrayConfig(6, 0.5), 0.37).entries
        assert np.array_equal(a[:-1, :-1], a[1:, 1:])  # Toeplitz
        assert np.array_equal(a, a[::-1, ::-1])  # centrosymmetric
        assert np.array_equal(a, a.T)

    def test_trace_exact(self):
        for elements in (2, 5, 9):
            for width in (0.1, 0.35, 0.5, 0.8):
                matrix = concentration_matrix(ArrayConfig(elements, 0.5), width)
                trace = math.fsum(matrix.entries[i, i] for i in range(elements))
                assert trace == 2.0 * width * elements

    def test_rejects_out_of_range_width(self):
        with pytest.raises(ValueError):
            concentration_matrix(CFG5, 1.5)


class TestIntervalMatrix:
    def test_symmetric_interval_matches_broadside_bitwise(self):
        broadside = concentration_matrix(CFG5, 0.3)
        interval = interval_concentration_matrix(CFG5, -0.3, 0.3)
        assert np.array_equal(interval.entries.real, broadside.entries)
        assert np.all(interval.entries.imag == 0.0)

    def test_diagonal_is_interval_length(self):
        matrix = interval_concentration_matrix(CFG5, 0.1, 0.7)
        width = 0.7 - 0.1
        assert np.all(matrix.entries.diagonal() == width)
        trace = math.fsum(matrix.entries.diagonal().real)
        assert trace == pytest.approx(5 * width, abs=0)

    def test_quadrature_oracle(self):
        cfg = ArrayConfig(4, 0.5)
        matrix = interval_concentration_matrix(cfg, 0.1, 0.7)
        s = np.linspace(0.1, 0.7, 300_001)
        for i in range(1, 4):
            oracle = np.trapezoid(np.exp(1j * i * math.pi * s), s)
            assert matrix.entries[0, i] == pytest.approx(oracle, abs=1e-10)

    def test_hermitian_and_toeplitz(self):
        a = interval_concentration_matrix(CFG5, -0.25, 0.55).entries
        assert np.array_equal(a, a.conj().T)
        assert np.array_equal(a[:-1, :-1], a[1:, 1:])

    def test_hadamard_relation_to_steering_outer_product(self):
        # interval matrix = broadside matrix of the same width, phase-ramped
        cfg = ArrayConfig(4, 0.5)
        a, b = 0.1, 0.7
        center = 0.5 * (a + b)
        broadside = concentration_matrix(cfg, 0.5 * (b - a)).entries
        steer = np.exp(-1j * cfg.kd * center * np.arange(4))
        outer = np.outer(steer, steer.conj())
        np.testing.assert_allclose(
            interval_concentration_matrix(cfg, a, b).entries, broadside * outer, atol=1e-14
        )

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            interval_concentration_matrix(CFG5, 0.5, 0.5)


class TestAngularMatrix:
    def test_diagonal_is_angular_length(self):
        matrix = angular_concentration_matrix(ArrayConfig(3, 0.5), 0.0, math.pi)
        assert matrix.entries[0, 0] == pytest.approx(math.pi, abs=0)

    def test_hermitian_by_construction(self):
        matrix = angular_concentration_matrix(CFG5, 0.4, 1.9)
        assert np.array_equal(matrix.entries, matrix.entries.conj().T)

    def test_high_resolution_trapezoid_oracle(self):
        cfg = ArrayConfig(3, 0.5)
        t1, t2 = math.pi / 2 - 0.2, math.pi / 2 + 0.2
        matrix = angular_concentration_matrix(cfg, t1, t2)
        theta = np.linspace(t1, t2, 1_000_001)
        oracle = np.trapezoid(np.exp(1j * 1 * cfg.kd * np.cos(theta)), theta)
        assert matrix.entries[0, 1] == pytest.approx(oracle, abs=1e-10)

    def test_narrow_region_approaches_phase_matrix(self):
        # angular half-width 0.01 rad around broadside vs W = sin(0.01)
        alpha = 0.01
        angular = angular_concentration_matrix(
            CFG5, math.pi / 2 - alpha, math.pi / 2 + alpha
        )
        phase = concentration_matrix(CFG5, math.sin(alpha))
        lam_ang = eigh_hermitian(angular.entries).eigenvalues[0]
        lam_phase = eigh_symmetric(phase.entries).eigenvalues[0]
        assert abs(lam_ang / lam_phase - 1.0) < 0.01

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            angular_concentration_matrix(CFG5, 1.0, 0.5)


class TestAngularEntryCache:
    def test_cached_entries_equal_a_cold_build_bitwise(self):
        angular_concentration_matrix(CFG5, 0.4, 1.9)
        cached = angular_concentration_matrix(CFG5, 0.4, 1.9)
        _angular_entries.cache_clear()
        cold = angular_concentration_matrix(CFG5, 0.4, 1.9)
        assert np.array_equal(cached.entries, cold.entries)
        assert cached.bounds == cold.bounds and cached.domain == cold.domain == "angle"

    def test_returned_matrix_does_not_alias_the_cache(self):
        first = angular_concentration_matrix(CFG5, 0.4, 1.9)
        want = first.entries.copy()
        first.entries[:] = 7.0
        assert np.array_equal(angular_concentration_matrix(CFG5, 0.4, 1.9).entries, want)
        assert not _angular_entries(CFG5, 0.4, 1.9).flags.writeable

    @pytest.mark.parametrize(
        "theta1, theta2", [(1.0, 0.5), (0.7, 0.7), (-0.1, 1.0), (0.0, 3.5), (math.nan, 1.0)]
    )
    def test_bad_bounds_raise_on_every_call(self, theta1, theta2):
        for _ in range(3):
            with pytest.raises(ValueError, match="theta1"):
                angular_concentration_matrix(CFG5, theta1, theta2)

    def test_one_width_integrates_its_band_once(self, monkeypatch):
        """approx, both bounds and the full estimate on one angular band run
        M-1 entry integrals for that band and none for a warm [0, pi]."""
        cfg = ArrayConfig(8, 0.5)
        half_width = 0.37
        _angular_entries.cache_clear()
        angular_concentration_matrix(cfg, 0.0, math.pi)
        calls = []
        original = concentration.oscillation_simpson

        def counted(f, a, b, *args, **kwargs):
            calls.append((a, b))
            return original(f, a, b, *args, **kwargs)

        monkeypatch.setattr(concentration, "oscillation_simpson", counted)
        scenario = CapacityScenario.equal_interferers(
            1.0, 0.6, 0.1, PhaseRegion(half_width), n_interferers=1, domain="angular"
        )
        v = slepian_weights(cfg, half_width).weights
        capacity_approximation(scenario, v, cfg)
        capacity_upper_bound(scenario, v, cfg)
        capacity_lower_bound(scenario, v, cfg)
        estimate_capacity(scenario, v, cfg, n_samples=2000)
        band = (math.acos(half_width), math.acos(-half_width))
        assert calls == [band] * (cfg.elements - 1)


class TestMinEigenvalue:
    def test_zero_width(self):
        assert min_eigenvalue(concentration_matrix(CFG5, 0.0)) == 0.0

    def test_positive_definite_sample_grid(self):
        for elements in (2, 5, 10):
            cfg = ArrayConfig(elements, 0.5)
            for width in (0.1, 0.3, 0.5, 0.9):
                assert min_eigenvalue(concentration_matrix(cfg, width)) > 0.0

    def test_characteristic_polynomial_bracketing_oracle(self):
        matrix = concentration_matrix(CFG5, 0.2)
        smallest = min_eigenvalue(matrix)

        def shifted_det(x):
            return np.linalg.det(matrix.entries - x * np.eye(5))

        hi = 1e-9
        while shifted_det(hi) > 0.0:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if shifted_det(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert smallest == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_unresolvable_regime_still_positive(self):
        # the true smallest eigenvalue here is far below machine epsilon
        assert min_eigenvalue(concentration_matrix(ArrayConfig(12, 0.5), 0.1)) > 0.0

    def test_plain_array_input(self):
        assert min_eigenvalue(np.diag([2.0, -1.0])) == pytest.approx(-1.0, abs=1e-14)


class TestSpectralCap:
    @given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=2, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_largest_eigenvalue_bounded_by_two(self, width, elements):
        matrix = concentration_matrix(ArrayConfig(elements, 0.5), width)
        top = eigh_symmetric(matrix.entries).eigenvalues[0]
        assert 0.0 < top <= 2.0 + 1e-12


class TestExtremeTaper:
    def test_matches_direct_eigenvector_when_separated(self):
        cfg = ArrayConfig(6, 0.5)
        matrix = concentration_matrix(cfg, 0.3)
        dec = eigh_symmetric(matrix.entries)
        tapers = extreme_concentration_taper(cfg, 0.3)
        np.testing.assert_allclose(tapers[:, 0], dec.eigenvectors[:, 0], atol=1e-10)
        np.testing.assert_allclose(tapers[:, -1], dec.eigenvectors[:, -1], atol=1e-10)


def test_matrix_debug_json_schema():
    matrix = interval_concentration_matrix(ArrayConfig(2, 0.5), -0.2, 0.2)
    text = matrix_debug_json(matrix)
    import json

    data = json.loads(text)
    assert list(data.keys()) == ["order", "entries_re", "entries_im"]
    assert data["order"] == 2
    assert len(data["entries_re"]) == 4
    assert data["entries_re"][0] == pytest.approx(0.4, abs=1e-15)
