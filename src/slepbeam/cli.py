"""Command-line front end: synthesize, pattern, capacity, codebook, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
All outputs are deterministic for identical flags; Monte Carlo commands echo
their seed into the run metadata.  The environment variable SLEPBEAM_OUTDIR
sets the directory for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .array_model import ArrayConfig, sample_pattern, write_pattern_csv
from .capacity import (
    CapacityScenario,
    compare_synthesizers,
    write_comparison_csv,
)
from .codebook import CodebookFormatError, build_codebook, load_codebook, save_codebook
from .concentration import PhaseRegion, concentration_matrix, matrix_debug_json
from .quadrature import QuadratureError
from .synthesizers import (
    DegenerateWidthError,
    SteeringLimitError,
    _check_steering_limits,
    binomial_weights,
    chebyshev_weights,
    dft_weights,
    read_weights_csv,
    slepian_weights,
    steer,
    weight_symmetry_class,
    write_weights_csv,
)
from .validation import run_validation

_USAGE_ERROR = 2
_CHECK_FAILURE = 1

DEFAULT_W_GRID = [round(0.02 * k, 10) for k in range(1, 50)]
DEFAULT_ATT_GRID = [20.0 + 40.0 * k / 19.0 for k in range(20)]


def _out_path(raw: str) -> Path:
    path = Path(raw)
    if not path.is_absolute():
        base = os.environ.get("SLEPBEAM_OUTDIR")
        if base:
            path = Path(base) / path
    return path


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _add_array_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--elements", type=int, required=True, help="number of elements")
    parser.add_argument(
        "--spacing", type=float, default=0.5, help="element spacing over wavelength"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slepbeam",
        description="Band-concentration beam synthesis and capacity analysis for ULAs",
    )
    parser.add_argument("--version", action="version", version=f"slepbeam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="generate a weight vector")
    _add_array_flags(p_syn)
    p_syn.add_argument(
        "--type",
        choices=("slepian", "dft", "binomial", "chebyshev"),
        default="slepian",
        help="synthesizer family",
    )
    p_syn.add_argument("--half-width", type=float, help="band half-width (slepian)")
    p_syn.add_argument("--center", type=float, default=0.0, help="band center (steering)")
    p_syn.add_argument(
        "--attenuation-db", type=float, default=30.0, help="sidelobe level (chebyshev)"
    )
    p_syn.add_argument("--output", default="weights.csv", help="weights CSV path")
    p_syn.add_argument("--summary", help="summary JSON path (default: <output>.summary.json)")
    p_syn.add_argument(
        "--dump-band-matrix", help="also write the band matrix as debug JSON"
    )

    p_pat = sub.add_parser("pattern", help="sample a radiation pattern to CSV")
    _add_array_flags(p_pat)
    group = p_pat.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", help="weights CSV produced by synthesize")
    group.add_argument(
        "--type",
        dest="synth_type",
        choices=("slepian", "dft", "binomial", "chebyshev"),
        help="named synthesizer instead of a weights file",
    )
    p_pat.add_argument("--half-width", type=float)
    p_pat.add_argument("--center", type=float, default=0.0)
    p_pat.add_argument("--attenuation-db", type=float, default=30.0)
    p_pat.add_argument("--points", type=int, default=2001)
    p_pat.add_argument("--start", type=float, default=-1.0)
    p_pat.add_argument("--stop", type=float, default=1.0)
    p_pat.add_argument("--output", default="pattern.csv")

    p_cap = sub.add_parser("capacity", help="synthesizer capacity comparison table")
    _add_array_flags(p_cap)
    p_cap.add_argument("--ps", type=float, default=1.0, help="desired signal power")
    p_cap.add_argument("--pi-total", type=float, default=0.6, help="total interference power")
    p_cap.add_argument("--n0", type=float, default=0.1, help="noise power")
    p_cap.add_argument("--interferers", type=int, default=6, help="number of interferers")
    p_cap.add_argument("--samples", type=int, default=100_000)
    p_cap.add_argument("--seed", type=int, default=0)
    p_cap.add_argument("--region-width", type=float, default=0.2)
    p_cap.add_argument("--region-center", type=float, default=0.0)
    p_cap.add_argument("--domain", choices=("phase", "angular"), default="phase")
    p_cap.add_argument("--w-grid", type=_parse_float_list, default=None)
    p_cap.add_argument("--att-grid", type=_parse_float_list, default=None)
    p_cap.add_argument("--output", default="comparison.csv")

    p_book = sub.add_parser("codebook", help="build or validate a codebook")
    mode = p_book.add_mutually_exclusive_group(required=True)
    mode.add_argument("--regions", type=int, help="number of equal regions to build")
    mode.add_argument("--validate", help="existing codebook JSON to revalidate")
    p_book.add_argument("--elements", type=int)
    p_book.add_argument("--spacing", type=float, default=0.5)
    p_book.add_argument("--output", default="codebook.json")

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("--max-elements", type=int, default=10)
    p_ver.add_argument("--n-vectors", type=int, default=40)
    p_ver.add_argument("--samples", type=int, default=20_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--inject-perturbation",
        action="store_true",
        help="corrupt one band-matrix entry pair to prove the harness can fail",
    )
    return parser


def _json_number(x: float) -> float | None:
    """Strict JSON has no inf or nan: a non-finite figure is written as null."""
    return x if math.isfinite(x) else None


def _synthesize_weights(args) -> tuple[np.ndarray, dict]:
    cfg = ArrayConfig(args.elements, args.spacing)
    summary: dict = {
        "synthesizer": args.type,
        "elements": args.elements,
        "spacing": args.spacing,
        "tool_version": __version__,
    }
    if args.type == "slepian":
        if args.half_width is None:
            raise ValueError("--half-width is required for the slepian synthesizer")
        result = slepian_weights(cfg, args.half_width)
        weights = steer(result, args.center) if args.center != 0.0 else result.weights
        summary.update(
            half_width=args.half_width,
            center=args.center,
            lambda_max=result.lambda_max,
            eigengap=_json_number(result.eigengap),
            quotient=_json_number(result.quotient),
        )
        if args.center == 0.0:
            summary["symmetry_class"] = weight_symmetry_class(result)
    elif args.type == "dft":
        weights = dft_weights(args.elements)
    elif args.type == "binomial":
        weights = binomial_weights(args.elements)
    else:
        weights = chebyshev_weights(args.elements, args.attenuation_db)
        summary["attenuation_db"] = args.attenuation_db
    summary["norm"] = float(np.linalg.norm(weights))
    return np.asarray(weights, dtype=complex), summary


def _cmd_synthesize(args) -> int:
    weights, summary = _synthesize_weights(args)
    out = _out_path(args.output)
    write_weights_csv(weights, out)
    summary_path = (
        _out_path(args.summary) if args.summary else out.with_suffix(out.suffix + ".summary.json")
    )
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    if args.dump_band_matrix:
        if args.type != "slepian":
            raise ValueError("--dump-band-matrix applies to the slepian synthesizer")
        matrix = concentration_matrix(ArrayConfig(args.elements, args.spacing), args.half_width)
        _out_path(args.dump_band_matrix).write_text(matrix_debug_json(matrix), encoding="utf-8")
    print(f"wrote {out} and {summary_path}")
    return 0


def _cmd_pattern(args) -> int:
    cfg = ArrayConfig(args.elements, args.spacing)
    if args.weights:
        weights = read_weights_csv(_out_path(args.weights))
        if weights.size != cfg.elements:
            raise ValueError(
                f"weights file carries {weights.size} elements, flags say {cfg.elements}"
            )
    else:
        args.type = args.synth_type
        weights, _ = _synthesize_weights(args)
    if args.points < 2:
        raise ValueError("need at least 2 grid points")
    if not args.start < args.stop:
        raise ValueError("--start must be below --stop")
    samples = sample_pattern(weights, cfg, np.linspace(args.start, args.stop, args.points))
    out = _out_path(args.output)
    write_pattern_csv(samples, out)
    print(f"wrote {out} ({len(samples)} samples)")
    return 0


def _steerable_widths(cfg: ArrayConfig, center: float) -> list[float]:
    """The default widths whose designs the table can steer to ``center``
    (all of them at broadside, where it does not steer)."""
    if center == 0.0:
        return DEFAULT_W_GRID
    fits = []
    for w in DEFAULT_W_GRID:
        try:
            _check_steering_limits(cfg, w, center)
        except SteeringLimitError:
            continue
        fits.append(w)
    return fits


def _cmd_capacity(args) -> int:
    cfg = ArrayConfig(args.elements, args.spacing)
    region = PhaseRegion(half_width=args.region_width, center=args.region_center)
    scenario = CapacityScenario.equal_interferers(
        args.ps, args.pi_total, args.n0, region, n_interferers=args.interferers, domain=args.domain
    )
    w_grid = args.w_grid if args.w_grid is not None else _steerable_widths(cfg, args.region_center)
    att_grid = args.att_grid if args.att_grid is not None else DEFAULT_ATT_GRID
    rows = compare_synthesizers(cfg, scenario, w_grid, att_grid, args.samples, args.seed)
    out = _out_path(args.output)
    write_comparison_csv(rows, out)
    slepian = [r for r in rows if r.synthesizer == "slepian"]
    chebyshev = [r for r in rows if r.synthesizer == "chebyshev"]
    summary = {  # null where the family has no rows
        "slepian_at_region": min(
            slepian, key=lambda r: abs(r.param - args.region_width), default=None
        ),
        "slepian_best": max(slepian, key=lambda r: r.mean, default=None),
        "chebyshev_best": max(chebyshev, key=lambda r: r.mean, default=None),
    }
    meta = {
        "elements": args.elements,
        "spacing": args.spacing,
        "ps": args.ps,
        "pi_total": args.pi_total,
        "n0": args.n0,
        "interferers": args.interferers,
        "samples": args.samples,
        "seed": args.seed,
        "region_width": args.region_width,
        "region_center": args.region_center,
        "domain": args.domain,
        "w_grid": w_grid,
        "att_grid": att_grid,
        "tool_version": __version__,
        "summary": {k: r and {"param": r.param, "mean": r.mean} for k, r in summary.items()},
    }
    meta_path = out.with_suffix(out.suffix + ".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    print(f"wrote {out} ({len(rows)} rows) and {meta_path}")
    return 0


def _cmd_codebook(args) -> int:
    if args.validate:
        book = load_codebook(_out_path(args.validate))
        print(
            f"codebook ok: {book.n_regions} regions, M={book.config.elements}, "
            f"d/lambda={book.config.spacing_ratio}"
        )
        return 0
    if args.elements is None:
        raise ValueError("--elements is required when building a codebook")
    cfg = ArrayConfig(args.elements, args.spacing)
    book = build_codebook(cfg, args.regions)
    out = _out_path(args.output)
    save_codebook(book, out)
    print(f"wrote {out} ({book.n_regions} codewords)")
    return 0


def _cmd_verify(args) -> int:
    report = run_validation(
        max_elements=args.max_elements,
        n_vectors=args.n_vectors,
        n_samples=args.samples,
        seed=args.seed,
        perturb=args.inject_perturbation,
    )
    print(report.format())
    return 0 if report.passed else _CHECK_FAILURE


_HANDLERS = {
    "synthesize": _cmd_synthesize,
    "pattern": _cmd_pattern,
    "capacity": _cmd_capacity,
    "codebook": _cmd_codebook,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (
        ValueError,
        DegenerateWidthError,
        SteeringLimitError,
        CodebookFormatError,
        QuadratureError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
