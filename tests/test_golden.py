"""Behaviour equivalence: comparison tables against frozen outputs.

The fixtures in tests/golden/ were written by tests/golden/generate.py from
the source tree before the Horner gain kernel and the shared Monte Carlo
path.  The Monte Carlo columns come from the same seeded uniforms, so they
must agree to rounding; the lower bound goes through adaptive Simpson, whose
panel decisions may flip on a last-bit change of the integrand, so it gets
the quadrature tolerance.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import pytest

from slepbeam.capacity import write_comparison_csv

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


def _read(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


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
