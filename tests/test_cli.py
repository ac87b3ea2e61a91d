import json

import numpy as np
import pytest

from slepbeam import capacity
from slepbeam.cli import DEFAULT_W_GRID, main
from slepbeam.synthesizers import read_weights_csv


def run(args):
    return main([str(a) for a in args])


class TestSynthesize:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code = run(["synthesize", "--elements", 5, "--spacing", 0.5,
                    "--half-width", 0.2, "--output", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,amplitude,phase_rad,re,im"
        assert len(lines) == 6
        summary = json.loads((tmp_path / "w.csv.summary.json").read_text())
        assert summary["symmetry_class"] == "symmetric"
        assert summary["lambda_max"] > 0

    def test_off_half_wave_summary_quotient(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["synthesize", "--elements", 6, "--spacing", 0.35,
                    "--half-width", 0.2, "--output", out]) == 0
        summary = json.loads((tmp_path / "w.csv.summary.json").read_text())
        assert summary["quotient"] == pytest.approx(2.5695326597, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:out-of-band energy below rounding")
    @pytest.mark.filterwarnings("ignore:top eigenvalue has near multiplicity")
    @pytest.mark.parametrize("elements, half_width, field", [(16, 0.9, "quotient"), (1, 0.3, "eigengap")])
    def test_summary_writes_non_finite_as_null(self, tmp_path, elements, half_width, field):
        out = tmp_path / "w.csv"
        assert run(["synthesize", "--elements", elements, "--half-width", half_width,
                    "--output", out]) == 0
        text = (tmp_path / "w.csv.summary.json").read_text()

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        summary = json.loads(text, parse_constant=reject)
        assert summary[field] is None

    def test_degenerate_width_exits_2(self, tmp_path, capsys):
        code = run(["synthesize", "--elements", 5, "--half-width", 0,
                    "--output", tmp_path / "w.csv"])
        assert code == 2
        assert "undetermined" in capsys.readouterr().err

    def test_binomial_values(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["synthesize", "--elements", 5, "--type", "binomial",
                    "--output", out]) == 0
        weights = read_weights_csv(out)
        np.testing.assert_allclose(
            weights.real, [0.1195, 0.4781, 0.7171, 0.4781, 0.1195], atol=1e-4
        )

    def test_band_matrix_dump(self, tmp_path):
        out = tmp_path / "w.csv"
        dump = tmp_path / "band.json"
        assert run(["synthesize", "--elements", 3, "--half-width", 0.5,
                    "--output", out, "--dump-band-matrix", dump]) == 0
        data = json.loads(dump.read_text())
        assert data["order"] == 3
        assert data["entries_re"][0] == pytest.approx(1.0)

    def test_missing_half_width_exits_2(self, tmp_path, capsys):
        assert run(["synthesize", "--elements", 5, "--output", tmp_path / "w.csv"]) == 2


class TestPattern:
    def test_steered_band_fraction(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["pattern", "--elements", 4, "--type", "slepian",
                    "--half-width", 0.3, "--center", 0.4,
                    "--points", 4001, "--output", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        s, gain = rows[:, 0], rows[:, 4]
        assert s[0] == -1.0 and s[-1] == 1.0
        in_band = (s >= 0.1) & (s <= 0.7)
        ratio = np.trapezoid(gain[in_band], s[in_band]) / np.trapezoid(gain, s)
        from slepbeam.array_model import ArrayConfig
        from slepbeam.synthesizers import slepian_weights

        lam = slepian_weights(ArrayConfig(4, 0.5), 0.3).lambda_max
        assert ratio == pytest.approx(lam / 2.0, abs=1e-4)

    def test_default_grid_endpoints_exact(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["pattern", "--elements", 5, "--type", "dft", "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2002
        assert float(lines[1].split(",")[0]) == -1.0
        assert float(lines[-1].split(",")[0]) == 1.0

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["pattern", "--elements", 5, "--type", "dft", "--points", 201]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_weights_file_round_trip(self, tmp_path):
        wpath = tmp_path / "w.csv"
        run(["synthesize", "--elements", 5, "--half-width", 0.2, "--output", wpath])
        out = tmp_path / "p.csv"
        assert run(["pattern", "--elements", 5, "--weights", wpath,
                    "--points", 101, "--output", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (101, 5)

    def test_unreadable_weights_exits_2(self, tmp_path, capsys):
        assert run(["pattern", "--elements", 5, "--weights", tmp_path / "nope.csv",
                    "--output", tmp_path / "p.csv"]) == 2


class TestCapacity:
    def test_reference_flags_table(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run(["capacity", "--elements", 5, "--ps", 1, "--pi-total", 0.6,
                    "--n0", 0.1, "--samples", 2000, "--seed", 7,
                    "--w-grid", "0.1,0.2", "--att-grid", "20,30,40",
                    "--output", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "synthesizer,param,mean,stderr,ub,lb,approx,outage50"
        assert len(lines) == 1 + 2 + 2 + 3  # header + W grid + baselines + attenuations
        meta = json.loads((out.parent / "cmp.csv.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["samples"] == 2000

    @pytest.mark.parametrize("flag", ["--ps", "--pi-total", "--n0"])
    def test_non_finite_power_exits_2(self, tmp_path, capsys, flag):
        assert run(["capacity", "--elements", 5, flag, "inf",
                    "--output", tmp_path / "c.csv"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_interference_without_interferers_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 5, "--interferers", 0, "--pi-total", 0.6,
                    "--output", out]) == 2
        assert "at least one interferer" in capsys.readouterr().err
        assert not out.exists()

    def test_no_interferers_without_interference(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 4, "--interferers", 0, "--pi-total", 0,
                    "--samples", 2000, "--w-grid", "0.2", "--att-grid", "25",
                    "--output", out]) == 0
        assert json.loads((tmp_path / "c.csv.meta.json").read_text())["pi_total"] == 0.0

    def test_zero_samples_exits_2(self, tmp_path, capsys):
        assert run(["capacity", "--elements", 5, "--samples", 0,
                    "--output", tmp_path / "c.csv"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", 0, "need at least 1000 samples, got 0"),
        ("--samples", 999, "need at least 1000 samples, got 999"),
        ("--interferers", -1, "n_interferers must be nonnegative"),
        ("--seed", -1, "seed must be nonnegative"),
    ])
    def test_library_input_checks_exit_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 4, "--w-grid", "0.2", "--att-grid", "25",
                    flag, value, "--output", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_steered_default_grid_keeps_the_widths_that_fit(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 5, "--region-center", 0.3, "--samples", 1000,
                    "--att-grid", "25", "--output", out]) == 0
        meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
        assert meta["w_grid"] == DEFAULT_W_GRID[:35]
        assert meta["w_grid"][-1] == 0.7
        assert len(out.read_text().splitlines()) == 1 + 35 + 2 + 1

    def test_steered_default_grid_stops_at_the_grating_limit(self, tmp_path):
        # kd = 1.4 pi: the grating copy of a band centred at 0.3 stays out of
        # the visible space only for widths up to 1/0.7 - 1.3 = 0.1286
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 5, "--spacing", 0.7, "--region-center", 0.3,
                    "--samples", 1000, "--att-grid", "25", "--output", out]) == 0
        meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
        assert meta["w_grid"] == DEFAULT_W_GRID[:6] == [0.02, 0.04, 0.06, 0.08, 0.1, 0.12]
        assert len(out.read_text().splitlines()) == 1 + 6 + 2 + 1

    @pytest.mark.parametrize("spacing, w_grid, message", [
        (0.5, "0.2,0.72", "exceeds the visible space"),
        (0.7, "0.1,0.5", "grating"),
    ])
    def test_unfit_width_grid_exits_2_before_any_pass(
        self, tmp_path, capsys, monkeypatch, spacing, w_grid, message
    ):
        passes = []
        monkeypatch.setattr(capacity, "_mc_pass", lambda *args: passes.append(args))
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 5, "--spacing", spacing, "--region-center", 0.3,
                    "--w-grid", w_grid, "--output", out]) == 2
        assert message in capsys.readouterr().err
        assert passes == []
        assert not out.exists()

    def test_meta_summary(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 5, "--samples", 2000, "--w-grid", "0.1,0.18,0.3",
                    "--att-grid", "20,40", "--output", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        means = {(name, float(param) if param else None): float(mean)
                 for name, param, mean, *_ in rows}
        summary = json.loads((tmp_path / "c.csv.meta.json").read_text())["summary"]
        at_region = summary["slepian_at_region"]
        assert at_region == {"param": 0.18, "mean": means[("slepian", 0.18)]}
        slepian_best = max((m, p) for (n, p), m in means.items() if n == "slepian")
        assert summary["slepian_best"] == {"param": slepian_best[1], "mean": slepian_best[0]}
        chebyshev_best = max((m, p) for (n, p), m in means.items() if n == "chebyshev")
        assert summary["chebyshev_best"] == {"param": chebyshev_best[1], "mean": chebyshev_best[0]}

    def test_meta_summary_is_null_for_an_empty_family(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["capacity", "--elements", 4, "--samples", 1000, "--w-grid", "",
                    "--att-grid", "", "--output", out]) == 0
        summary = json.loads((tmp_path / "c.csv.meta.json").read_text())["summary"]
        assert summary == {"slepian_at_region": None, "slepian_best": None, "chebyshev_best": None}

    def test_fixed_seed_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["capacity", "--elements", 4, "--samples", 2000, "--seed", 3,
                "--w-grid", "0.2", "--att-grid", "25"]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCodebook:
    def test_build_and_validate(self, tmp_path):
        out = tmp_path / "book.json"
        assert run(["codebook", "--regions", 5, "--elements", 5, "--output", out]) == 0
        assert run(["codebook", "--validate", out]) == 0

    def test_single_region_exits_2(self, tmp_path, capsys):
        assert run(["codebook", "--regions", 1, "--elements", 5,
                    "--output", tmp_path / "book.json"]) == 2
        assert "undetermined" in capsys.readouterr().err

    def test_validate_rejects_corruption(self, tmp_path, capsys):
        out = tmp_path / "book.json"
        run(["codebook", "--regions", 4, "--elements", 4, "--output", out])
        data = json.loads(out.read_text())
        data["codewords"][0][0]["re"] = 9.0
        out.write_text(json.dumps(data))
        assert run(["codebook", "--validate", out]) == 2
        assert "norm" in capsys.readouterr().err

    def test_validate_malformed_field_exits_2(self, tmp_path, capsys):
        out = tmp_path / "book.json"
        run(["codebook", "--regions", 4, "--elements", 4, "--output", out])
        data = json.loads(out.read_text())
        data["regions"] = 5
        out.write_text(json.dumps(data))
        assert run(["codebook", "--validate", out]) == 2
        assert "regions" in capsys.readouterr().err

    def test_validate_fractional_element_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "book.json"
        run(["codebook", "--regions", 4, "--elements", 4, "--output", out])
        data = json.loads(out.read_text())
        data["M"] = 4.5
        out.write_text(json.dumps(data))
        assert run(["codebook", "--validate", out]) == 2
        assert "M must be an integer" in capsys.readouterr().err


class TestVerify:
    def test_default_suites_pass(self, capsys):
        code = run(["verify", "--max-elements", 6, "--n-vectors", 8, "--samples", 2000])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "trace_identity" in out and "expected 2WM" in out

    def test_perturbation_hook_fails(self, capsys):
        code = run(["verify", "--max-elements", 4, "--n-vectors", 4,
                    "--samples", 2000, "--inject-perturbation"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL] band_matrix_positive_definite" in out

    def test_report_lists_measured_values(self, capsys):
        run(["verify", "--max-elements", 4, "--n-vectors", 4, "--samples", 2000])
        out = capsys.readouterr().out
        assert "smallest eigenvalue" in out
        assert "eigenvalue-sum deviation" in out


class TestOutputDirEnv:
    def test_relative_paths_resolve_in_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLEPBEAM_OUTDIR", str(tmp_path))
        assert run(["synthesize", "--elements", 5, "--half-width", 0.2,
                    "--output", "w.csv"]) == 0
        assert (tmp_path / "w.csv").exists()

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "slepbeam" in capsys.readouterr().out
