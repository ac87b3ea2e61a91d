import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from slepbeam import concentration, linalg, synthesizers
from slepbeam.array_model import ArrayConfig, _band_entries, array_factor, band_power
from slepbeam.concentration import PhaseRegion, concentration_matrix, interval_concentration_matrix
from slepbeam.linalg import _fix_signs, quadratic_form
from slepbeam.synthesizers import (
    DegenerateWidthError,
    SteeringLimitError,
    SymmetryClassError,
    SynthesisResult,
    binomial_weights,
    chebyshev_weights,
    dft_weights,
    read_weights_csv,
    slepian_weights,
    slepian_weights_general,
    steer,
    weight_symmetry_class,
    write_weights_csv,
)

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from generate import SLEPIAN_DESIGNS  # noqa: E402

CFG5 = ArrayConfig(5, 0.5)
EPS = np.finfo(float).eps
# (M, d, W) where the dense Jacobi eigenvalue was 418-1514 eps off eigvalsh
JACOBI_LAMBDA_CASES = [(20, 0.5, 0.5209), (8, 0.5, 0.9452), (4, 0.5, 0.998)]

BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / math.sqrt(70.0)


def align_sign(v, reference):
    return v if np.vdot(reference, v).real >= 0 else -v


class TestSlepianWeights:
    def test_unit_norm_and_real(self):
        result = slepian_weights(CFG5, 0.2)
        assert np.isrealobj(result.weights)
        assert np.linalg.norm(result.weights) == pytest.approx(1.0, abs=1e-12)

    def test_small_width_approaches_uniform(self):
        result = slepian_weights(CFG5, 1e-3)
        assert np.max(np.abs(result.weights - dft_weights(5))) < 1e-2
        np.testing.assert_allclose(result.weights, [0.4472] * 5, atol=1e-2)

    def test_wide_limit_approaches_pascal(self):
        with pytest.warns(UserWarning, match="multiplicity"):
            result = slepian_weights(CFG5, 0.999)
        assert np.max(np.abs(result.weights - BINOMIAL5)) < 1e-2
        np.testing.assert_allclose(
            result.weights, [0.1195, 0.4781, 0.7171, 0.4781, 0.1195], atol=1e-2
        )

    def test_small_width_eigenvalue_law(self):
        # lambda_max approaches 2 W M as the band collapses
        for elements in range(2, 11):
            result = slepian_weights(ArrayConfig(elements, 0.5), 1e-3)
            assert result.lambda_max == pytest.approx(2e-3 * elements, rel=1e-2)

    def test_quotient_closed_form(self):
        result = slepian_weights(CFG5, 0.3)
        assert result.quotient == pytest.approx(
            result.lambda_max / (2.0 - result.lambda_max), rel=1e-14
        )

    def test_quotient_off_half_wave_is_in_out_ratio(self):
        """At kd != pi the quotient divides by the visible energy, not by 2;
        the ratio is checked against Gauss-Legendre integrals of the gain."""
        cfg = ArrayConfig(6, 0.35)
        result = slepian_weights(cfg, 0.2)
        nodes, weights = np.polynomial.legendre.leggauss(40)

        def energy(a, b, panels=64):
            edges = np.linspace(a, b, panels + 1)
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            s = (mid[:, None] + half[:, None] * nodes).ravel()
            af = np.exp(-1j * cfg.kd * np.outer(s, np.arange(6))) @ result.weights
            return float(np.sum(np.repeat(half, nodes.size) * np.tile(weights, panels) * np.abs(af) ** 2))

        in_band = energy(-0.2, 0.2)
        assert in_band == pytest.approx(result.lambda_max, rel=1e-12)
        assert result.quotient == pytest.approx(in_band / (energy(-1.0, 1.0) - in_band), rel=1e-12)
        assert result.quotient == pytest.approx(2.5695326597, rel=1e-9)

    @pytest.mark.parametrize("elements, half_width", [(16, 0.9), (12, 0.9), (8, 0.98)])
    def test_quotient_below_rounding_is_inf(self, elements, half_width):
        """The out-of-band energy e_vis - lambda is below rounding here; the
        difference of the rounded energies is noise of either sign."""
        with pytest.warns(UserWarning, match="below rounding"):
            result = slepian_weights(ArrayConfig(elements, 0.5), half_width)
        assert result.quotient == math.inf

    @pytest.mark.filterwarnings("ignore:out-of-band energy below rounding")
    @pytest.mark.filterwarnings("ignore:top eigenvalue has near multiplicity")
    @pytest.mark.parametrize("elements", [5, 8, 16])
    def test_quotient_grows_with_width_until_inf(self, elements):
        cfg = ArrayConfig(elements, 0.5)
        quotients = [slepian_weights(cfg, float(w)).quotient for w in np.linspace(0.05, 0.99, 60)]
        finite = [q for q in quotients if math.isfinite(q)]
        assert finite[0] > 0 and np.all(np.diff(finite) > 0)
        assert quotients[len(finite):] == [math.inf] * (len(quotients) - len(finite))

    def test_in_band_power_equals_lambda_max(self):
        for width in (0.1, 0.3, 0.5):
            result = slepian_weights(CFG5, width)
            power = band_power(result.weights, CFG5, -width, width)
            assert power == pytest.approx(result.lambda_max, abs=1e-8)

    def test_degenerate_widths_rejected(self):
        for width in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DegenerateWidthError, match="undetermined"):
                slepian_weights(CFG5, width)

    def test_lambda_in_unit_interval_scaled(self):
        for width in (0.05, 0.5, 0.95):
            result = slepian_weights(CFG5, width)
            assert 0.0 < result.lambda_max <= 2.0
            assert result.eigengap >= 0.0

    def test_multiplicity_warning_on_degenerate_gap(self):
        with pytest.warns(UserWarning, match="multiplicity"):
            slepian_weights(CFG5, 0.999)

    def test_optimality_against_random_vectors(self):
        rng = np.random.default_rng(21)
        for width in (0.2, 0.4):
            result = slepian_weights(CFG5, width)
            band = concentration_matrix(CFG5, width).entries
            complement = 2.0 * np.eye(5) - band
            best = quadratic_form(result.weights, band) / quadratic_form(
                result.weights, complement
            )
            for _ in range(500):
                z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                z /= np.linalg.norm(z)
                ratio = quadratic_form(z, band) / quadratic_form(z, complement)
                assert best >= ratio - 1e-12

    def test_monotone_limit_approach(self):
        to_uniform = [
            np.max(np.abs(slepian_weights(CFG5, w).weights - dft_weights(5)))
            for w in (0.2, 0.1, 0.05, 0.01, 0.001)
        ]
        assert all(a > b for a, b in zip(to_uniform, to_uniform[1:]))
        with pytest.warns(UserWarning):
            to_pascal = [
                np.max(np.abs(slepian_weights(CFG5, w).weights - BINOMIAL5))
                for w in (0.8, 0.9, 0.95, 0.99, 0.999)
            ]
        assert all(a > b for a, b in zip(to_pascal, to_pascal[1:]))


class TestOneTridiagonalRoute:
    """The design is one eigensolve of the commuting tridiagonal; numpy's
    dense eigensolvers serve as the reference here only."""

    @staticmethod
    def reference(cfg, half_width):
        values, vectors = np.linalg.eigh(concentration_matrix(cfg, half_width).entries)
        return values[::-1], _fix_signs(vectors[:, ::-1].copy())

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("elements, spacing, half_width", SLEPIAN_DESIGNS + JACOBI_LAMBDA_CASES)
    def test_lambda_and_gap_match_eigvalsh(self, elements, spacing, half_width):
        cfg = ArrayConfig(elements, spacing)
        result = slepian_weights(cfg, half_width)
        values, _ = self.reference(cfg, half_width)
        bound = 4 * elements * EPS * values[0]
        assert abs(result.lambda_max - values[0]) <= bound
        assert result.eigengap >= 0.0
        if values[0] - values[1] > 1e-10:
            assert abs(result.eigengap - (values[0] - values[1])) <= bound

    @pytest.mark.parametrize("elements, spacing, half_width", [(4, 1.2, 0.9), (5, 1.1, 0.95), (8, 1.5, 0.9)])
    def test_occupancy_above_two_matches_top_vector(self, elements, spacing, half_width):
        cfg = ArrayConfig(elements, spacing)
        assert cfg.kd * half_width / math.pi > 2.0
        result = slepian_weights(cfg, half_width)
        values, vectors = self.reference(cfg, half_width)
        np.testing.assert_allclose(result.weights, vectors[:, 0], rtol=0, atol=1e-9)
        assert abs(result.lambda_max - values[0]) <= 4 * elements * EPS * values[0]

    @pytest.mark.parametrize("elements, spacing, half_width", [(5, 1.0, 0.5), (8, 0.625, 0.8), (4, 2.5, 0.4)])
    def test_integer_occupancy_is_a_flagged_scaled_identity(self, elements, spacing, half_width):
        cfg = ArrayConfig(elements, spacing)
        assert cfg.kd * half_width / math.pi == pytest.approx(round(cfg.kd * half_width / math.pi), abs=1e-14)
        with pytest.warns(UserWarning, match="multiplicity"):
            result = slepian_weights(cfg, half_width)
        assert np.linalg.norm(result.weights) == pytest.approx(1.0, abs=1e-14)
        assert result.lambda_max == pytest.approx(2.0 * half_width, abs=1e-14)
        assert result.eigengap < 1e-12

    def test_one_eigensolve_per_design(self, monkeypatch):
        calls = []

        def counting(matrix, solve=linalg.eigh_symmetric):
            calls.append(np.shape(matrix))
            return solve(matrix)

        for module in (concentration, linalg, synthesizers):
            if hasattr(module, "eigh_symmetric"):
                monkeypatch.setattr(module, "eigh_symmetric", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for cfg, half_width in ((CFG5, 0.3), (ArrayConfig(8, 1.5), 0.9), (ArrayConfig(5, 1.0), 0.5)):
                calls.clear()
                slepian_weights(cfg, half_width)
                assert calls == [(cfg.elements, cfg.elements)]


class TestSteer:
    def test_zero_center_unchanged(self):
        result = slepian_weights(CFG5, 0.3)
        steered = steer(result, 0.0)
        np.testing.assert_array_equal(steered.real, result.weights)
        assert np.all(steered.imag == 0.0)

    def test_steered_band_power(self):
        cfg = ArrayConfig(4, 0.5)
        result = slepian_weights(cfg, 0.3)
        steered = steer(result, 0.4)
        assert np.linalg.norm(steered) == pytest.approx(1.0, abs=1e-12)
        assert band_power(steered, cfg, 0.1, 0.7) == pytest.approx(
            result.lambda_max, abs=1e-8
        )

    def test_interval_matrix_reproduces_power(self):
        cfg = ArrayConfig(4, 0.5)
        result = slepian_weights(cfg, 0.3)
        steered = steer(result, 0.4)
        matrix = interval_concentration_matrix(cfg, 0.1, 0.7)
        assert quadratic_form(steered, matrix.entries) == pytest.approx(
            result.lambda_max, abs=1e-12
        )

    def test_shift_invariance(self):
        result = slepian_weights(CFG5, 0.25)
        steered = steer(result, 0.5)
        overlap = np.linspace(-0.5, 0.5, 801)
        af_base = array_factor(result.weights, CFG5, overlap)
        af_steered = array_factor(steered, CFG5, overlap + 0.5)
        assert np.max(np.abs(np.abs(af_steered) - np.abs(af_base))) < 1e-9

    def test_visible_space_limit(self):
        result = slepian_weights(CFG5, 0.3)
        steer(result, 0.7)  # exactly on the limit: allowed
        with pytest.raises(SteeringLimitError, match="visible"):
            steer(result, 0.71)

    def test_grating_lobe_limit(self):
        cfg = ArrayConfig(4, 0.75)  # kd = 1.5 pi, period = 4/3
        result = slepian_weights(cfg, 0.2)
        steer(result, 0.1)
        with pytest.raises(SteeringLimitError, match="grating"):
            steer(result, 0.2)

    def test_requires_broadside_input(self):
        result = slepian_weights_general(CFG5, PhaseRegion(half_width=0.2, center=0.3))
        with pytest.raises(SteeringLimitError, match="broadside"):
            steer(result, 0.1)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("elements, spacing, half_width", SLEPIAN_DESIGNS)
def test_band_power_bitwise_through_shared_autocorrelation(elements, spacing, half_width):
    """band_power gives, bit for bit, its inline correlation sum on the
    golden designs, broadside and steered, since the Monte Carlo pass
    shares its autocorrelation helper."""
    cfg = ArrayConfig(elements, spacing)
    result = slepian_weights(cfg, half_width)
    for v in (result.weights, steer(result, 0.3)):
        w = np.asarray(v, dtype=complex)
        r = np.correlate(w, w, "full")[elements - 1 :]
        for a, b in ((-half_width, half_width), (-1.0, 1.0), (0.1, 0.7)):
            terms = (np.conj(_band_entries(cfg, a, b)) * r).real
            assert band_power(v, cfg, a, b) == float(terms[0] + 2.0 * terms[1:].sum())


class TestSlepianGeneral:
    def test_half_wavelength_broadside_matches_plain(self):
        plain = slepian_weights(CFG5, 0.3)
        general = slepian_weights_general(CFG5, PhaseRegion(half_width=0.3))
        assert np.max(np.abs(general.weights.imag)) < 1e-12
        aligned = align_sign(general.weights.real, plain.weights)
        np.testing.assert_allclose(aligned, plain.weights, atol=1e-10)
        assert general.quotient == pytest.approx(plain.quotient, rel=1e-10)

    def test_wider_spacing_quotient_definition(self):
        cfg = ArrayConfig(5, 0.4)  # kd = 0.8 pi
        general = slepian_weights_general(cfg, PhaseRegion(half_width=0.3))
        in_band = band_power(general.weights, cfg, -0.3, 0.3)
        visible = band_power(general.weights, cfg, -1.0, 1.0)
        assert in_band / (visible - in_band) == pytest.approx(general.quotient, abs=1e-7)

    def test_dominates_fixed_vector(self):
        cfg = ArrayConfig(5, 0.4)
        general = slepian_weights_general(cfg, PhaseRegion(half_width=0.3))
        fixed = slepian_weights(CFG5, 0.3).weights
        in_band = band_power(fixed, cfg, -0.3, 0.3)
        visible = band_power(fixed, cfg, -1.0, 1.0)
        assert general.quotient >= in_band / (visible - in_band)

    def test_steered_region(self):
        cfg = ArrayConfig(5, 0.4)
        general = slepian_weights_general(cfg, PhaseRegion(half_width=0.3, center=0.5))
        in_band = band_power(general.weights, cfg, 0.2, 0.8)
        visible = band_power(general.weights, cfg, -1.0, 1.0)
        assert in_band / (visible - in_band) == pytest.approx(general.quotient, abs=1e-7)

    def test_subwavelength_above_pi(self):
        cfg = ArrayConfig(5, 0.6)  # kd = 1.2 pi
        general = slepian_weights_general(cfg, PhaseRegion(half_width=0.3))
        in_band = band_power(general.weights, cfg, -0.3, 0.3)
        visible = band_power(general.weights, cfg, -1.0, 1.0)
        assert in_band / (visible - in_band) == pytest.approx(general.quotient, abs=1e-7)

    def test_steering_limits_enforced(self):
        # at kd <= pi the visible-space limit is the PhaseRegion invariant itself
        with pytest.raises(ValueError, match="visible"):
            PhaseRegion(half_width=0.3, center=0.8)
        cfg_wide = ArrayConfig(5, 0.6)  # kd = 1.2 pi, period = 5/3
        with pytest.raises(SteeringLimitError, match="grating"):
            # |center| <= period - 1 - W ~= 0.367 here
            slepian_weights_general(cfg_wide, PhaseRegion(half_width=0.3, center=0.5))
        with pytest.raises(SteeringLimitError, match="period"):
            slepian_weights_general(cfg_wide, PhaseRegion(half_width=0.9))


class TestBaselines:
    def test_dft_values(self):
        np.testing.assert_allclose(dft_weights(5), [1 / math.sqrt(5)] * 5, atol=0)
        np.testing.assert_allclose(dft_weights(5), [0.44721] * 5, atol=1e-5)
        np.testing.assert_array_equal(dft_weights(1), [1.0])

    def test_binomial_values(self):
        np.testing.assert_allclose(
            binomial_weights(5), [0.1195, 0.4781, 0.7171, 0.4781, 0.1195], atol=1e-4
        )
        np.testing.assert_allclose(binomial_weights(2), dft_weights(2), atol=0)

    def test_binomial_no_sidelobes(self):
        v = binomial_weights(5)
        grid = np.linspace(0.0, 1.0, 2001)
        gains = np.abs(array_factor(v, CFG5, grid)) ** 2
        assert np.all(np.diff(gains) <= 1e-12)  # monotone from broadside to endfire

    def test_chebyshev_two_elements(self):
        for att in (15.0, 30.0, 60.0):
            np.testing.assert_allclose(
                chebyshev_weights(2, att), [1, 1] / np.sqrt(2), atol=1e-12
            )

    @pytest.mark.parametrize("elements,att", [(5, 20.0), (5, 35.0), (8, 30.0), (9, 45.0)])
    def test_chebyshev_sidelobe_level(self, elements, att):
        cfg = ArrayConfig(elements, 0.5)
        v = chebyshev_weights(elements, att)
        grid = np.linspace(-1.0, 1.0, 20001)
        gains = np.abs(array_factor(v, cfg, grid)) ** 2
        peak_idx = int(np.argmax(gains))
        hi = peak_idx
        while hi + 1 < gains.size and gains[hi + 1] < gains[hi]:
            hi += 1
        lo = peak_idx
        while lo > 0 and gains[lo - 1] < gains[lo]:
            lo -= 1
        sidelobes = np.concatenate([gains[:lo], gains[hi:]])
        measured_db = 10.0 * math.log10(gains[peak_idx] / sidelobes.max())
        assert measured_db == pytest.approx(att, abs=0.1)

    def test_chebyshev_taper_flattens_with_attenuation(self):
        ratios = [chebyshev_weights(5, att)[0] / chebyshev_weights(5, att)[2] for att in (15, 25, 40, 60, 90)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_chebyshev_symmetric_real_unit(self):
        v = chebyshev_weights(7, 28.0)
        np.testing.assert_array_equal(v, v[::-1])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_chebyshev_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chebyshev_weights(1, 30.0)
        with pytest.raises(ValueError):
            chebyshev_weights(5, 0.0)

    def test_baselines_reject_zero_elements(self):
        with pytest.raises(ValueError):
            dft_weights(0)
        with pytest.raises(ValueError):
            binomial_weights(0)


class TestSymmetryClass:
    def test_odd_elements_symmetric(self):
        assert weight_symmetry_class(slepian_weights(CFG5, 0.3)) == "symmetric"

    def test_even_elements_positive_sinc(self):
        result = slepian_weights(ArrayConfig(4, 0.5), 0.5)
        assert weight_symmetry_class(result) == "symmetric"

    def test_even_elements_negative_sinc_skew(self):
        # kd W = 1.2 pi puts sinc(kd W) below zero
        result = slepian_weights(ArrayConfig(4, 0.75), 0.8)
        assert weight_symmetry_class(result) == "skew_symmetric"
        np.testing.assert_allclose(result.weights, -result.weights[::-1], atol=1e-9)

    def test_rejects_unclassifiable(self):
        garbage = SynthesisResult(
            weights=np.array([0.9, 0.1, 0.3, 0.2, 0.2]),
            lambda_max=1.0,
            eigengap=1.0,
            region=PhaseRegion(half_width=0.2),
            config=CFG5,
            quotient=1.0,
        )
        with pytest.raises(SymmetryClassError, match="neither"):
            weight_symmetry_class(garbage)


class TestZeroPlacement:
    @pytest.mark.parametrize("elements", range(3, 9))
    def test_band_interior_clear_and_count(self, elements):
        from slepbeam.validation import count_pattern_zeros

        cfg = ArrayConfig(elements, 0.5)
        for width in (0.1, 0.3, 0.5):
            weights = slepian_weights(cfg, width).weights
            grid = np.linspace(-width, width, 2001)
            min_af = np.min(np.abs(array_factor(weights, cfg, grid)))
            assert min_af > 1e-6 * math.sqrt(elements)
            assert count_pattern_zeros(weights, cfg) == elements - 1


class TestWeightsCsv:
    def test_round_trip(self, tmp_path):
        result = slepian_weights(CFG5, 0.3)
        steered = steer(result, 0.2)
        path = tmp_path / "weights.csv"
        write_weights_csv(steered, path)
        header = path.read_text().splitlines()[0]
        assert header == "index,amplitude,phase_rad,re,im"
        back = read_weights_csv(path)
        np.testing.assert_array_equal(back, steered)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_weights_csv(path)
