"""The benchmark's checks accept the program's output and reject corrupted output.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from slepbeam.array_model import ArrayConfig  # noqa: E402
from slepbeam.codebook import build_codebook, load_codebook, save_codebook  # noqa: E402
from slepbeam.concentration import PhaseRegion  # noqa: E402
from slepbeam.synthesizers import chebyshev_weights, slepian_weights_general  # noqa: E402

PS, PI_TOTAL, N0 = workloads.PS, workloads.PI_TOTAL, workloads.N0


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


# ------------------------------------------------------------------ codebook


def _book_parts(book):
    return [r.bounds for r in book.regions], list(book.codewords)


@pytest.fixture(scope="module")
def saved_book(tmp_path_factory):
    path = tmp_path_factory.mktemp("book") / "book.json"
    book = build_codebook(ArrayConfig(8, 0.5), 5)
    save_codebook(book, path)
    return book, path


def test_codebook_check_accepts_round_trip(saved_book):
    book, path = saved_book
    loaded = load_codebook(path)
    assert checks.check_codebook(_book_parts(book), _book_parts(loaded), 5, 8) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda cws: [cws[1], cws[0]] + cws[2:],  # two codewords swapped
        lambda cws: cws[::-1],  # the whole list reversed
    ],
    ids=["swap-two", "reversed"],
)
def test_codebook_check_rejects_permuted_codewords(saved_book, tmp_path, corrupt):
    book, path = saved_book
    data = json.loads(path.read_text(encoding="utf-8"))
    data["codewords"] = corrupt(data["codewords"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    loaded = load_codebook(bad)  # the program's loader accepts the file
    fails = checks.check_codebook(_book_parts(book), _book_parts(loaded), 5, 8)
    assert any("differ from the built" in f for f in fails)
    assert any("energy in its region" in f for f in fails)


def test_codebook_check_rejects_scaled_codeword(saved_book):
    book, _ = saved_book
    regions, cws = _book_parts(book)
    cws[2] = cws[2] * (1.0 + 1e-9)
    assert any("norm" in f for f in checks.check_codebook((regions, cws), (regions, cws), 5, 8))


def test_region_approximation_check_rejects_offset():
    book = build_codebook(ArrayConfig(8, 0.5), 4)
    regions, cws = _book_parts(book)
    good = [checks.phase_approximation(c, math.pi, lo, hi, PS, PI_TOTAL, N0)[0] for c, (lo, hi) in zip(cws, regions)]
    scenario = (PS, PI_TOTAL, N0)
    assert checks.check_region_approximations(cws, regions, good, scenario, math.pi) == []
    good[1] += 1e-6
    assert len(checks.check_region_approximations(cws, regions, good, scenario, math.pi)) == 1


def _steered(tmp_path, spacing):
    out = workloads.CodebookDesign().run((4, spacing), tmp_path, 0)
    weights, _, approx = out["general"]
    return weights, approx, 2.0 * math.pi * spacing


def _check_steered(weights, approx, kd):
    return checks.check_region_approximations(
        [weights], [(0.15, 0.45)], [approx], (PS, PI_TOTAL, N0), kd, integral_error=checks.BAND_POWER_TOL
    )


def test_steered_approximation_check(tmp_path):
    """The steered design's approximation runs through band_power; the check
    accepts it at d = 0.4 and rejects it moved by 1e-7 bits, less than the
    2.8e-7 by which band_power's miss at d = 0.3786 moves it."""
    weights, approx, kd = _steered(tmp_path, 0.4)
    assert _check_steered(weights, approx, kd) == []
    assert _check_steered(weights, approx + 1e-7, kd)


@pytest.mark.parametrize("spacing", [0.3, 0.4, 0.45])
def test_general_design_check(spacing):
    design = slepian_weights_general(ArrayConfig(16, spacing), PhaseRegion(0.15, 0.3))
    kd = 2.0 * math.pi * spacing
    assert checks.check_general_design(design.weights, design.quotient, 16, kd, 0.15, 0.45) == []
    wrong = design.quotient * (1.0 + 1e-6)
    assert len(checks.check_general_design(design.weights, wrong, 16, kd, 0.15, 0.45)) == 2


# ------------------------------------------------------------ capacity table

SMALL_TABLE = dict(
    workloads.CapacityTable.SPEC, samples=20_000, w_grid=[0.2, 0.5], att_grid=[30.0]
)


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("table") / "table.csv"
    table = workloads.CapacityTable()
    extra = ("--w-grid", "0.2,0.5", "--att-grid", "30")
    from slepbeam import cli

    assert cli.main(table.argv(7, out, SMALL_TABLE["samples"], extra)) == 0
    return checks.read_table(out)


def _check(rows):
    return checks.check_table(rows, SMALL_TABLE, np.random.default_rng(1))


@pytest.mark.parametrize("elements", [5, 6, 16])
def test_chebyshev_reference_matches_program(elements):
    for att in (20.0, 30.0, 60.0):
        ref = checks.chebyshev_taper(elements, att)
        assert np.max(np.abs(ref - chebyshev_weights(elements, att))) < 1e-12


def test_table_check_accepts_program_output(small_table):
    assert _check(small_table) == []


def _moved(rows, name, key, delta):
    out = [dict(r) for r in rows]
    row = next(r for r in out if r["synthesizer"] == name)
    row[key] += delta(row)
    return out


@pytest.mark.parametrize("name", ["slepian", "dft", "binomial"])
def test_table_check_rejects_mean_moved_ten_sigma(small_table, name):
    rows = _moved(small_table, name, "mean", lambda r: 10.0 * r["stderr"])
    assert _check(rows)


def test_table_check_rejects_approx_offset(small_table):
    assert _check(_moved(small_table, "chebyshev", "approx", lambda r: 1e-6))


def test_table_check_rejects_upper_bound_below_approx(small_table):
    assert _check(_moved(small_table, "dft", "ub", lambda r: r["approx"] - r["ub"] - 1e-3))


def test_table_check_rejects_reordered_rows(small_table):
    rows = list(small_table)
    rows[2], rows[3] = rows[3], rows[2]
    assert _check(rows)


# -------------------------------------------------------------- width search


@pytest.fixture(scope="module")
def width_point(tmp_path_factory):
    return workloads.WidthSearch().run(0.3, tmp_path_factory.mktemp("w"), 0)


def test_width_check_accepts_program_output(width_point):
    assert checks.check_width_point(width_point["weights"], 0.3, width_point, (PS, PI_TOTAL, N0)) == []


@pytest.mark.parametrize("key", ["approx", "ub", "lb"])
def test_width_check_rejects_bound_moved(width_point, key):
    moved = dict(width_point, **{key: width_point[key] + 1e-4})
    assert checks.check_width_point(moved["weights"], 0.3, moved, (PS, PI_TOTAL, N0))


# ------------------------------------------------------------ harness pieces


def test_round_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS.values():
        a = workload.round_inputs(np.random.default_rng(3))
        b = workload.round_inputs(np.random.default_rng(3))
        assert a == b


def test_tail_lands_in_the_same_place_of_every_round():
    sizes = [0.001, 0.002, 0.003, 0.004, 0.010]  # one round: the slowest is 10 ms
    for rounds in (7, 8, 9, 10):
        assert run.tail_ms(sizes * rounds) == pytest.approx(10.0)
    assert run.tail_ms([0.001, 0.002]) == pytest.approx(1.9)


def test_check_that_raises_is_a_failure(tmp_path):
    runner = run.Runner(tmp_path)
    missing = tmp_path / "missing.csv"
    runner.items["capacity_table"] = [(0, missing)]
    fails = runner.check(workloads.WORKLOADS, 0)
    assert len(fails) == 1 and "raised" in fails[0]


def test_known_band_power_fault_counts_as_failed(tmp_path):
    """At FAULT_SPACING the steered approximation misses band_power's
    tolerance: the operation counts as failed, and the run stays correct.
    The same miss at any other spacing is a check failure."""
    design = workloads.CodebookDesign()
    runner = run.Runner(tmp_path)
    out = design.run((4, design.FAULT_SPACING), tmp_path, 0)
    runner.items["codebook_design"] = [((4, design.FAULT_SPACING), out)]
    assert runner.check(workloads.WORKLOADS, 0) == []
    assert runner.failed == 1
    runner = run.Runner(tmp_path)
    runner.items["codebook_design"] = [((4, design.FAULT_SPACING), out), ((4, 0.4), out)]
    fails = runner.check(workloads.WORKLOADS, 0)
    assert runner.failed == 1 and any("steered design" in f for f in fails)


def test_codebook_rounds_fail_the_same_share():
    design = workloads.CodebookDesign()
    for seed in (0, 1, 2):
        inputs = design.round_inputs(np.random.default_rng(seed))
        assert sorted(r for r, _ in inputs) == sorted(design.REGION_COUNTS)
        assert sorted(d for _, d in inputs) == sorted(design.SPACINGS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "width_search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
