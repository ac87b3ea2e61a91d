#!/usr/bin/env python3
"""Sweep the band half-width and record how every weight moves.

Writes one CSV row per width with the weight amplitudes plus the uniform and
Pascal reference tapers, which the weights approach at the two width limits.
Plot columns w0..w{M-1} against half_width to see the migration.
"""

import argparse
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from slepbeam.array_model import ArrayConfig, format_float
from slepbeam.synthesizers import binomial_weights, dft_weights, slepian_weights


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--elements", type=int, default=5)
    parser.add_argument("--spacing", type=float, default=0.5)
    parser.add_argument("--points", type=int, default=199)
    parser.add_argument("--output", default="weight_scan.csv")
    args = parser.parse_args()

    cfg = ArrayConfig(args.elements, args.spacing)
    widths = np.linspace(0.005, 0.995, args.points)
    header = ["half_width"] + [f"w{m}" for m in range(args.elements)]
    lines = [",".join(header)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the W -> 1 edge is degenerate by design
        for width in widths:
            weights = slepian_weights(cfg, float(width)).weights
            lines.append(",".join(format_float(x) for x in [width, *weights]))
    uniform = dft_weights(args.elements)
    pascal = binomial_weights(args.elements)
    lines.append("# uniform taper: " + ",".join(format_float(x) for x in uniform))
    lines.append("# pascal taper:  " + ",".join(format_float(x) for x in pascal))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.output} ({args.points} widths, M={args.elements})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
