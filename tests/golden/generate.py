"""Write the frozen comparison tables that tests/test_golden.py diffs against.

Each table is a reduced ``compare_synthesizers`` run on the 5-element
half-wave array with the reference power budget (signal 1, total
interference 0.6 over 6 interferers, noise 0.1) and 20k samples.  Run from
the repository root against the source tree whose behaviour is to be frozen:

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

from pathlib import Path

from slepbeam.array_model import ArrayConfig
from slepbeam.capacity import CapacityScenario, compare_synthesizers, write_comparison_csv
from slepbeam.concentration import PhaseRegion

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


def path(name: str) -> Path:
    return HERE / f"{name}.csv"


if __name__ == "__main__":
    for name in TABLES:
        write_comparison_csv(table(name), path(name))
        print(f"wrote {path(name)}")
