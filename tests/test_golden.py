"""Behaviour equivalence: comparison tables, the width search, weight
designs, a saved codebook and the README command outputs against frozen
outputs.

The fixtures in tests/golden/ were written by tests/golden/generate.py: the
comparison tables from the source tree before the Horner gain kernel and the
shared Monte Carlo path, the width search from the tree before the angular
band entries were cached, and the weights, codebook and README outputs from
the tree before the unused options and helpers were removed.  The Monte
Carlo columns come from the same seeded uniforms, so they must agree to
rounding; the lower bound goes through adaptive Simpson, whose panel
decisions may flip on a last-bit change of the integrand, so it gets the
quadrature tolerance.  Everywhere else numbers must agree to 1e-12 absolute
and every other field exactly.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

from slepbeam.capacity import write_comparison_csv
from slepbeam.codebook import load_codebook, save_codebook

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import generate  # noqa: E402

# absolute tolerance per numeric column
TOLERANCES = {
    "mean": 1e-12,
    "stderr": 1e-12,
    "outage50": 1e-12,
    "ub": 1e-12,
    "approx": 1e-12,
    "lb": 1e-9,
}


ABS_TOL = 1e-12


def _read(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_matches(want, got, where="") -> None:
    """Numbers to ABS_TOL, every other value exactly, recursing into lists
    and dicts."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (w, g) in enumerate(zip(want, got)):
            _assert_matches(w, g, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert not isinstance(got, bool), where
        assert got == pytest.approx(want, rel=0, abs=ABS_TOL), where
    else:
        assert got == want, where


def _csv_fields(path: Path) -> list[list]:
    """CSV rows with every field that parses as a number turned into one."""

    def field(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, encoding="utf-8", newline="") as fh:
        return [[field(x) for x in row] for row in csv.reader(fh)]


@pytest.mark.parametrize("name", sorted(generate.TABLES))
def test_table_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    write_comparison_csv(generate.table(name), out)
    golden = _read(generate.path(name))
    fresh = _read(out)
    assert [(r["synthesizer"], r["param"]) for r in fresh] == [
        (r["synthesizer"], r["param"]) for r in golden
    ]
    for want, got in zip(golden, fresh):
        for column, tol in TOLERANCES.items():
            assert float(got[column]) == pytest.approx(float(want[column]), rel=0, abs=tol), (
                f"{want['synthesizer']} {want['param']} {column}"
            )


@pytest.mark.filterwarnings("ignore:top eigenvalue has near multiplicity")
@pytest.mark.filterwarnings("ignore:out-of-band energy below rounding")
def test_width_search_matches_golden():
    golden = _read(generate.path("width_search"))
    fresh = generate.width_search()
    assert [float(r["half_width"]) for r in golden] == [r["half_width"] for r in fresh]
    for want, got in zip(golden, fresh):
        assert str(got["lb_diverged"]) == want["lb_diverged"]
        for column in ("approx", "ub", "lb"):
            assert got[column] == pytest.approx(
                float(want[column]), rel=0, abs=TOLERANCES[column]
            ), f"{want['half_width']} {column}"


@pytest.mark.filterwarnings("ignore:top eigenvalue has near multiplicity")
@pytest.mark.filterwarnings("ignore:out-of-band energy below rounding")
def test_weights_match_golden():
    golden = json.loads(generate.path("weights").read_text(encoding="utf-8"))
    _assert_matches(golden, generate.weights(), "weights")


def test_codebook_matches_golden(tmp_path):
    golden = generate.path("codebook")
    assert load_codebook(golden).n_regions == generate.CODEBOOK_REGIONS
    fresh = tmp_path / "codebook.json"
    save_codebook(generate.codebook(), fresh)
    _assert_matches(
        json.loads(golden.read_text(encoding="utf-8")),
        json.loads(fresh.read_text(encoding="utf-8")),
        "codebook",
    )


@pytest.fixture(scope="module")
def readme_outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("readme")
    generate.run_readme_commands(directory)
    return directory


@pytest.mark.parametrize("name", generate.README_FILES)
def test_readme_output_matches_golden(name, readme_outputs):
    golden, fresh = generate.HERE / name, readme_outputs / name
    if name.endswith(".json"):
        _assert_matches(
            json.loads(golden.read_text(encoding="utf-8")),
            json.loads(fresh.read_text(encoding="utf-8")),
            name,
        )
    else:
        _assert_matches(_csv_fields(golden), _csv_fields(fresh), name)
