"""Write the frozen outputs that tests/test_golden.py diffs against.

Each comparison table is a reduced ``compare_synthesizers`` run on the
5-element half-wave array with the reference power budget (signal 1, total
interference 0.6 over 6 interferers, noise 0.1) and 20k samples.  The width
search is the approximation and both bounds of the concentration design on
the 8-element half-wave array in the angular domain, with one interferer
carrying 0.6, so every figure in it is a quadrature over the angular band
matrices.  Run from the repository root against the source tree whose
behaviour is to be frozen (name fixtures to write only those):

    PYTHONPATH=src python tests/golden/generate.py [angular width_search ...]
"""

from __future__ import annotations

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
from slepbeam.concentration import PhaseRegion
from slepbeam.synthesizers import slepian_weights

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
            fields = [format_float(row[c], 17) for c in WIDTH_COLUMNS[:-1]]
            fh.write(",".join(fields + [str(row["lb_diverged"])]) + "\n")


def path(name: str) -> Path:
    return HERE / f"{name}.csv"


if __name__ == "__main__":
    for name in sys.argv[1:] or [*TABLES, "width_search"]:
        if name == "width_search":
            write_width_search(width_search(), path(name))
        else:
            write_comparison_csv(table(name), path(name))
        print(f"wrote {path(name)}")
