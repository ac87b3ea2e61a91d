"""Write the frozen outputs that tests/test_golden.py diffs against.

Each comparison table is a reduced ``compare_synthesizers`` run on the
5-element half-wave array with the reference power budget (signal 1, total
interference 0.6 over 6 interferers, noise 0.1) and 20k samples.  The width
search is the approximation and both bounds of the concentration design on
the 8-element half-wave array in the angular domain, with one interferer
carrying 0.6, so every figure in it is a quadrature over the angular band
matrices.

The weights are concentration designs over a grid of array sizes, spacings,
widths and band centres, from ``slepian_weights`` (broadside and steered by
``steer``) and from ``slepian_weights_general`` with its quotient.  The
general designs stop at M=8: at M >= 16 off half-wave spacing the
out-of-band matrix is numerically singular, so their weights would freeze
rounding noise.  The codebook is the M=16, 8-region book as saved, and the
README files are the outputs of two README commands.

Run from the repository root against the source tree whose behaviour is to
be frozen (name fixtures to write only those):

    PYTHONPATH=src python tests/golden/generate.py [angular weights readme ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from slepbeam.array_model import ArrayConfig, format_float
from slepbeam.capacity import (
    CapacityScenario,
    capacity_approximation,
    capacity_lower_bound,
    capacity_upper_bound,
    compare_synthesizers,
    write_comparison_csv,
)
from slepbeam.cli import main as cli_main
from slepbeam.codebook import build_codebook, save_codebook
from slepbeam.concentration import PhaseRegion
from slepbeam.synthesizers import slepian_weights, slepian_weights_general, steer

HERE = Path(__file__).resolve().parent
ELEMENTS = 5
SAMPLES = 20_000
SEED = 7

# name -> (domain, centre of the scenario band, W grid, Chebyshev attenuations)
TABLES = {
    "phase_broadside": ("phase", 0.0, (0.05, 0.2, 0.45, 0.8), (20.0, 32.5, 50.0)),
    "phase_steered": ("phase", 0.3, (0.1, 0.2, 0.5, 0.7), (25.0, 40.0)),
    "angular": ("angular", 0.0, (0.1, 0.2, 0.6), (20.0, 45.0)),
}


def table(name: str):
    domain, center, w_grid, att_grid = TABLES[name]
    scenario = CapacityScenario.equal_interferers(
        1.0, 0.6, 0.1, PhaseRegion(half_width=0.2, center=center), domain=domain
    )
    return compare_synthesizers(
        ArrayConfig(ELEMENTS, 0.5), scenario, w_grid, att_grid, SAMPLES, SEED
    )


WIDTH_ELEMENTS = 8
WIDTHS = (0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95)
WIDTH_COLUMNS = ("half_width", "approx", "ub", "lb", "lb_diverged")


def width_search() -> list[dict]:
    cfg = ArrayConfig(WIDTH_ELEMENTS, 0.5)
    rows = []
    for w in WIDTHS:
        scenario = CapacityScenario.equal_interferers(
            1.0, 0.6, 0.1, PhaseRegion(half_width=w), n_interferers=1, domain="angular"
        )
        weights = slepian_weights(cfg, w).weights
        lb = capacity_lower_bound(scenario, weights, cfg)
        rows.append({
            "half_width": w,
            "approx": capacity_approximation(scenario, weights, cfg),
            "ub": capacity_upper_bound(scenario, weights, cfg),
            "lb": lb.value,
            "lb_diverged": lb.diverged,
        })
    return rows


def write_width_search(rows, out: Path) -> None:
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(WIDTH_COLUMNS) + "\n")
        for row in rows:
            fields = [format_float(row[c]) for c in WIDTH_COLUMNS[:-1]]
            fh.write(",".join(fields + [str(row["lb_diverged"])]) + "\n")


STEER_CENTER = 0.3
# (M, d, W) of the broadside designs, each also frozen steered to STEER_CENTER
SLEPIAN_DESIGNS = [
    (m, d, w) for m in (4, 16) for d in (0.35, 0.5) for w in (0.1, 0.3, 0.7)
] + [(64, 0.35, 0.3), (64, 0.5, 0.3), (128, 0.5, 0.2)]
# (M, d, W, centre) of the general designs
GENERAL_DESIGNS = [
    (m, d, w, c)
    for m in (5, 8)
    for d in (0.35, 0.45, 0.6)
    for w, c in ((0.15, 0.3), (0.2, -0.2))
]


def _design(synthesizer, m, d, w, center, weights, **extra) -> dict:
    return {
        "synthesizer": synthesizer,
        "elements": m,
        "spacing": d,
        "half_width": w,
        "center": center,
        **extra,
        "re": [float(z.real) for z in weights],
        "im": [float(z.imag) for z in weights],
    }


def weights() -> list[dict]:
    designs = []
    for m, d, w in SLEPIAN_DESIGNS:
        result = slepian_weights(ArrayConfig(m, d), w)
        designs.append(_design("slepian", m, d, w, 0.0, result.weights.astype(complex)))
        designs.append(_design("slepian", m, d, w, STEER_CENTER, steer(result, STEER_CENTER)))
    for m, d, w, c in GENERAL_DESIGNS:
        result = slepian_weights_general(ArrayConfig(m, d), PhaseRegion(half_width=w, center=c))
        designs.append(
            _design("slepian_general", m, d, w, c, result.weights, quotient=result.quotient)
        )
    return designs


def write_json_lines(items, out: Path) -> None:
    """A JSON list with one item per line; floats are written by repr, which
    round-trips them exactly."""
    out.write_text("[\n" + ",\n".join(json.dumps(x) for x in items) + "\n]\n", encoding="utf-8")


CODEBOOK_ELEMENTS = 16
CODEBOOK_REGIONS = 8


def codebook():
    return build_codebook(ArrayConfig(CODEBOOK_ELEMENTS, 0.5), CODEBOOK_REGIONS)


# output file -> README command writing it; synthesize also writes
# <output>.summary.json next to it
README_COMMANDS = {
    "readme_synthesize.csv": [
        "synthesize", "--elements", "5", "--spacing", "0.5", "--half-width", "0.2",
    ],
    "readme_pattern.csv": [
        "pattern", "--elements", "4", "--type", "slepian", "--half-width", "0.3",
        "--center", "0.4",
    ],
}
README_FILES = ("readme_synthesize.csv", "readme_synthesize.csv.summary.json", "readme_pattern.csv")


def run_readme_commands(directory: Path) -> None:
    for output, command in README_COMMANDS.items():
        if cli_main(command + ["--output", str(directory / output)]) != 0:
            raise RuntimeError(f"README command failed: {command}")


def path(name: str) -> Path:
    suffix = {"weights": ".json", "codebook": ".json"}.get(name, ".csv")
    return HERE / f"{name}{suffix}"


if __name__ == "__main__":
    for name in sys.argv[1:] or [*TABLES, "width_search", "weights", "codebook", "readme"]:
        if name == "width_search":
            write_width_search(width_search(), path(name))
        elif name == "weights":
            write_json_lines(weights(), path(name))
        elif name == "codebook":
            save_codebook(codebook(), path(name))
        elif name == "readme":
            run_readme_commands(HERE)
            print(f"wrote {', '.join(README_FILES)} in {HERE}")
            continue
        else:
            write_comparison_csv(table(name), path(name))
        print(f"wrote {path(name)}")
