import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepbeam.array_model import ArrayConfig, array_factor, band_power
from slepbeam.codebook import (
    CodebookFormatError,
    best_codeword,
    build_codebook,
    load_codebook,
    save_codebook,
)
from slepbeam.synthesizers import DegenerateWidthError, slepian_weights

CFG5 = ArrayConfig(5, 0.5)


@pytest.fixture(scope="module")
def book5():
    return build_codebook(CFG5, 5)


class TestBuild:
    def test_five_regions_reference_layout(self, book5):
        assert book5.n_regions == 5
        centers = [r.center for r in book5.regions]
        np.testing.assert_allclose(centers, [-0.8, -0.4, 0.0, 0.4, 0.8], atol=1e-15)
        for region in book5.regions:
            assert region.half_width == pytest.approx(0.2, abs=1e-15)

    def test_tiling_exact(self, book5):
        assert book5.regions[0].bounds[0] == -1.0
        assert book5.regions[-1].bounds[1] == 1.0
        for left, right in zip(book5.regions, book5.regions[1:]):
            assert left.bounds[1] == right.bounds[0]  # shared float, bit for bit
        total = math.fsum(r.bounds[1] - r.bounds[0] for r in book5.regions)
        assert total == pytest.approx(2.0, abs=1e-15)

    def test_center_codeword_real(self, book5):
        assert np.all(book5.codewords[2].imag == 0.0)

    def test_codewords_unit_norm(self, book5):
        for codeword in book5.codewords:
            assert np.linalg.norm(codeword) == pytest.approx(1.0, abs=1e-12)

    def test_in_band_power_matches_design_eigenvalue(self, book5):
        lam = slepian_weights(CFG5, 0.2).lambda_max
        for region, codeword in zip(book5.regions, book5.codewords):
            power = band_power(codeword, CFG5, region.bounds[0], region.bounds[1])
            assert power == pytest.approx(lam, abs=1e-8)

    def test_shared_amplitude_profile(self, book5):
        reference = np.abs(book5.codewords[2])
        for codeword in book5.codewords:
            np.testing.assert_allclose(np.abs(codeword), reference, atol=1e-12)

    def test_steered_copy_patterns(self, book5):
        base = book5.codewords[2]
        overlap = np.linspace(-0.2, 0.2, 401)
        af_base = np.abs(array_factor(base, CFG5, overlap))
        for region, codeword in zip(book5.regions, book5.codewords):
            af_shift = np.abs(array_factor(codeword, CFG5, overlap + region.center))
            assert np.max(np.abs(af_shift - af_base)) < 1e-9

    def test_single_region_degenerate(self):
        with pytest.raises(DegenerateWidthError):
            build_codebook(CFG5, 1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            build_codebook(CFG5, 0)
        with pytest.raises(ValueError):
            build_codebook(CFG5, 2.5)

    def test_metadata_recorded(self, book5):
        assert book5.metadata["synthesizer"] == "slepian"
        assert book5.metadata["half_width"] == pytest.approx(0.2)
        assert "tool_version" in book5.metadata


class TestBestCodeword:
    def test_edges_and_interior(self, book5):
        assert best_codeword(book5, -1.0) == 0
        assert best_codeword(book5, 0.4) == 3
        assert best_codeword(book5, 1.0) == 4

    def test_boundary_tie_goes_low(self, book5):
        boundary = book5.regions[3].bounds[1]  # between regions 3 and 4
        assert best_codeword(book5, boundary) == 3

    def test_out_of_range(self, book5):
        with pytest.raises(ValueError):
            best_codeword(book5, 1.2)
        with pytest.raises(ValueError):
            best_codeword(book5, -1.0001)

    def test_containing_region_dominates_gain(self, book5):
        rng = np.random.default_rng(7)
        phases = rng.uniform(-1.0, 1.0, 10_000)
        gains = np.stack(
            [np.abs(array_factor(cw, CFG5, phases)) ** 2 for cw in book5.codewords]
        )
        chosen = np.array([best_codeword(book5, float(s)) for s in phases])
        dominant = gains[chosen, np.arange(phases.size)] >= gains.max(axis=0) - 1e-9
        assert dominant.mean() >= 0.95

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_selected_region_contains_phase(self, s):
        book = build_codebook(ArrayConfig(4, 0.5), 4)
        region = book.regions[best_codeword(book, s)]
        assert region.bounds[0] - 1e-12 <= s <= region.bounds[1] + 1e-12


class TestSaveLoad:
    def test_round_trip_bit_identical(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        loaded = load_codebook(path)
        assert loaded.config == book5.config
        assert loaded.n_regions == book5.n_regions
        for ours, theirs in zip(book5.codewords, loaded.codewords):
            np.testing.assert_array_equal(ours, theirs)
        assert loaded.metadata == book5.metadata

    def test_schema_field_order(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        text = path.read_text()
        keys = list(json.loads(text).keys())
        assert keys[:5] == ["version", "M", "d_over_lambda", "regions", "codewords"]
        assert text.startswith('{"version":1,"M":5,')

    def test_truncated_file_reports_offset(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(CodebookFormatError, match="byte"):
            load_codebook(path)

    def test_corrupted_norm_rejected(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        data = json.loads(path.read_text())
        data["codewords"][1][0]["re"] = 5.0
        path.write_text(json.dumps(data))
        with pytest.raises(CodebookFormatError, match="norm"):
            load_codebook(path)

    def test_broken_tiling_rejected(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        data = json.loads(path.read_text())
        data["regions"][1]["center"] += 0.05
        path.write_text(json.dumps(data))
        with pytest.raises(CodebookFormatError, match="boundary"):
            load_codebook(path)

    def test_count_mismatch_rejected(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        data = json.loads(path.read_text())
        data["codewords"].pop()
        path.write_text(json.dumps(data))
        with pytest.raises(CodebookFormatError, match="codewords"):
            load_codebook(path)

    def test_wrong_version_rejected(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        data = json.loads(path.read_text())
        data["version"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(CodebookFormatError, match="version"):
            load_codebook(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.update(regions=5),
            lambda d: d.update(codewords=5),
            lambda d: d["codewords"].__setitem__(0, 3),
            lambda d: d.update(M=None),
            lambda d: d.update(M=[5]),
            lambda d: d.update(d_over_lambda=None),
        ],
        ids=["regions-int", "codewords-int", "codeword-int", "M-null", "M-list", "spacing-null"],
    )
    def test_malformed_field_rejected(self, book5, tmp_path, corrupt):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        data = json.loads(path.read_text())
        corrupt(data)
        path.write_text(json.dumps(data))
        with pytest.raises(CodebookFormatError):
            load_codebook(path)

    def test_metadata_optional_on_load(self, book5, tmp_path):
        path = tmp_path / "book.json"
        save_codebook(book5, path)
        data = json.loads(path.read_text())
        del data["metadata"]
        path.write_text(json.dumps(data))
        assert load_codebook(path).metadata == {}


class TestOtherSizes:
    @pytest.mark.parametrize("n_regions", [2, 3, 4, 8])
    def test_various_tilings(self, n_regions):
        book = build_codebook(CFG5, n_regions)
        assert book.n_regions == n_regions
        assert book.regions[0].bounds[0] == -1.0
        assert book.regions[-1].bounds[1] == 1.0
        for left, right in zip(book.regions, book.regions[1:]):
            assert left.bounds[1] == right.bounds[0]
