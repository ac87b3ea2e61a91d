"""The benchmark's three workloads: inputs from a seed, one operation, checks.

A workload runs in rounds.  A round is a fixed set of operations whose sizes do
not depend on the seed; the seed only picks the order and the continuous
inputs inside that set, so two runs with different seeds do the same amount of
work.  Every operation within a workload is the same kind of request.  A
workload's ``check`` returns its failure messages and the number of operations
that failed through a known fault of the program (see ``CodebookDesign``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from slepbeam import cli
from slepbeam.array_model import ArrayConfig
from slepbeam.capacity import (
    CapacityScenario,
    capacity_approximation,
    capacity_lower_bound,
    capacity_upper_bound,
)
from slepbeam.codebook import build_codebook, load_codebook, save_codebook
from slepbeam.concentration import PhaseRegion
from slepbeam.synthesizers import slepian_weights, slepian_weights_general

import checks

# The paper's power budget: signal 1, total interference 0.6, noise 0.1.
PS, PI_TOTAL, N0 = 1.0, 0.6, 0.1


class OperationError(RuntimeError):
    """The program returned an error for one operation."""


class CapacityTable:
    """The README reference command, `slepbeam capacity` with 100k samples,
    run in-process through the CLI entry point.  One operation is the whole
    71-row table: 497 gain passes of 100k samples dominate it.  A round is two
    tables, so that a round's slowest operation is not its only one."""

    name = "capacity_table"
    SPEC = {
        "elements": 5,
        "ps": PS,
        "pi_total": PI_TOTAL,
        "n0": N0,
        "interferers": 6,
        "samples": 100_000,
        "region_width": 0.2,
        # the README defaults, written out here rather than read from the CLI
        "w_grid": [0.02 * k for k in range(1, 50)],
        "att_grid": [20.0 + 40.0 * k / 19.0 for k in range(20)],
    }

    TABLES_PER_ROUND = 2

    def round_inputs(self, rng):
        return [int(x) for x in rng.integers(0, 2**31 - 1, size=self.TABLES_PER_ROUND)]

    def argv(self, seed: int, out: Path, samples: int, extra=()) -> list[str]:
        s = self.SPEC
        return [
            "capacity", "--elements", str(s["elements"]), "--ps", f"{s['ps']:g}",
            "--pi-total", f"{s['pi_total']:g}", "--n0", f"{s['n0']:g}",
            "--samples", str(samples), "--seed", str(seed), "--output", str(out), *extra,
        ]

    def run(self, seed, outdir: Path, index: int):
        out = outdir / f"table-{index}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(seed, out, self.SPEC["samples"]))
        if code != 0:
            raise OperationError(f"slepbeam capacity exited with {code}")
        return out

    def warm(self, outdir: Path):
        out = outdir / "warm-table.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.argv(0, out, 1000, ("--w-grid", "0.2", "--att-grid", "30")))

    def check(self, items, rng) -> tuple[list[str], int]:
        fails = []
        for seed, out in items:
            meta = json.loads(Path(str(out) + ".meta.json").read_text(encoding="utf-8"))
            if meta.get("seed") != seed or meta.get("samples") != self.SPEC["samples"]:
                fails.append(f"{out.name}: meta sidecar does not echo seed {seed}")
            rows = checks.read_table(out)
            fails += [f"{out.name}: {f}" for f in checks.check_table(rows, self.SPEC, rng)]
        return fails, 0


class CodebookDesign:
    """Codebook for a 64-element half-wave array, saved and loaded back, every
    codeword scored by the approximation, plus one steered design at an
    off-half-wave spacing and its approximation, which goes through
    ``band_power``.  The M=64 eigensolve dominates.

    The spacings are a fixed set, one of which is ``FAULT_SPACING``, where
    ``band_power`` misses its own tolerance and the steered approximation is
    2.8e-7 bits off.  That operation is counted as failed in every round; all
    other outputs of it are still checked.  Spacings are not drawn from the
    seed because ``band_power`` misses its tolerance at a few other isolated
    spacings too (4 of 3000 in [0.3, 0.45]), which would fail some seeds and
    not others."""

    name = "codebook_design"
    ELEMENTS = 64
    REGION_COUNTS = (4, 7, 10, 13, 16)
    GENERAL_ELEMENTS = 16
    GENERAL_REGION = (0.15, 0.3)  # half-width, centre
    FAULT_SPACING = 0.3786239830493477
    SPACINGS = (0.3, 0.35, FAULT_SPACING, 0.4, 0.45)

    def round_inputs(self, rng):
        counts = rng.permutation(self.REGION_COUNTS)
        spacings = rng.permutation(self.SPACINGS)
        return [(int(r), float(d)) for r, d in zip(counts, spacings)]

    @staticmethod
    def _scenario(region: PhaseRegion) -> CapacityScenario:
        return CapacityScenario.equal_interferers(PS, PI_TOTAL, N0, region)

    def run(self, inp, outdir: Path, index: int):
        n_regions, spacing = inp
        cfg = ArrayConfig(self.ELEMENTS, 0.5)
        book = build_codebook(cfg, n_regions)
        path = outdir / f"book-{index}.json"
        save_codebook(book, path)
        loaded = load_codebook(path)
        approx = [
            capacity_approximation(self._scenario(r), cw, cfg)
            for r, cw in zip(loaded.regions, loaded.codewords)
        ]
        half_width, center = self.GENERAL_REGION
        gcfg = ArrayConfig(self.GENERAL_ELEMENTS, spacing)
        region = PhaseRegion(half_width=half_width, center=center)
        general = slepian_weights_general(gcfg, region)
        general_approx = capacity_approximation(self._scenario(region), general.weights, gcfg)
        return {
            "built": ([r.bounds for r in book.regions], list(book.codewords)),
            "loaded": ([r.bounds for r in loaded.regions], list(loaded.codewords)),
            "approx": approx,
            "general": (general.weights, general.quotient, general_approx),
            "file_bytes": path.stat().st_size,
        }

    def warm(self, outdir: Path):
        cfg = ArrayConfig(8, 0.5)
        book = build_codebook(cfg, 4)
        save_codebook(book, outdir / "warm-book.json")
        load_codebook(outdir / "warm-book.json")
        slepian_weights_general(ArrayConfig(8, 0.4), PhaseRegion(0.15, 0.3))

    def check(self, items, rng) -> tuple[list[str], int]:
        fails, failed_ops = [], 0
        scenario = (PS, PI_TOTAL, N0)
        half_width, center = self.GENERAL_REGION
        lo, hi = center - half_width, center + half_width
        for (n_regions, spacing), out in items:
            label = f"R={n_regions} d={spacing!r}"
            found = checks.check_codebook(out["built"], out["loaded"], n_regions, self.ELEMENTS)
            regions, codewords = out["loaded"]
            found += checks.check_region_approximations(
                codewords, regions, out["approx"], scenario, checks.HALF_WAVE_KD
            )
            weights, quotient, general_approx = out["general"]
            kd = 2.0 * math.pi * spacing
            found += checks.check_general_design(weights, quotient, self.GENERAL_ELEMENTS, kd, lo, hi)
            steered = checks.check_region_approximations(
                [weights], [(lo, hi)], [general_approx], scenario, kd,
                integral_error=checks.BAND_POWER_TOL, label="steered design",
            )
            if steered and spacing == self.FAULT_SPACING:
                failed_ops += 1  # the known band_power fault, on every run
            else:
                found += steered
            fails += [f"{label}: {f}" for f in found]
        return fails, failed_ops


class WidthSearch:
    """Choosing the band width by the approximation: an 8-element half-wave
    array, angular arrivals, one interferer, so every expectation is a
    quadrature.  Adaptive Simpson and the angular band matrices dominate."""

    name = "width_search"
    ELEMENTS = 8
    WIDTHS_PER_ROUND = 16
    WIDTH_RANGE = (0.02, 0.98)

    def round_inputs(self, rng):
        # one width in each of 16 equal strata, so every round covers the range
        lo, hi = self.WIDTH_RANGE
        k = np.arange(self.WIDTHS_PER_ROUND)
        w = lo + (hi - lo) * (k + rng.random(self.WIDTHS_PER_ROUND)) / self.WIDTHS_PER_ROUND
        return [float(x) for x in rng.permutation(w)]

    def run(self, half_width, outdir: Path, index: int):
        cfg = ArrayConfig(self.ELEMENTS, 0.5)
        design = slepian_weights(cfg, half_width)
        scenario = CapacityScenario.equal_interferers(
            PS, PI_TOTAL, N0, PhaseRegion(half_width), n_interferers=1, domain="angular"
        )
        lb = capacity_lower_bound(scenario, design.weights, cfg)
        return {
            "weights": design.weights,
            "approx": capacity_approximation(scenario, design.weights, cfg),
            "ub": capacity_upper_bound(scenario, design.weights, cfg),
            "lb": lb.value,
            "lb_diverged": lb.diverged,
        }

    def warm(self, outdir: Path):
        self.run(0.3, outdir, -1)

    def check(self, items, rng) -> tuple[list[str], int]:
        fails = []
        for half_width, out in items:
            fails += checks.check_width_point(out["weights"], half_width, out, (PS, PI_TOTAL, N0))
        return fails, 0


WORKLOADS = {w.name: w for w in (CapacityTable(), CodebookDesign(), WidthSearch())}
