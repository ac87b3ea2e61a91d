"""Region-partitioned codebooks: one steered concentration beam per phase tile.

The visible space [-1, 1] is tiled by equal-width regions sharing boundary
floats bit-for-bit; every codeword is the same broadside amplitude profile
under a different steering ramp.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .array_model import ArrayConfig, format_float
from .concentration import PhaseRegion
from .synthesizers import SteeringLimitError, slepian_weights, steer

__all__ = [
    "Codebook",
    "CodebookFormatError",
    "build_codebook",
    "best_codeword",
    "save_codebook",
    "load_codebook",
]

_EDGE_TOL = 1e-12


class CodebookFormatError(ValueError):
    """Codebook file is malformed or violates a codebook invariant."""


@dataclass(frozen=True)
class Codebook:
    config: ArrayConfig
    regions: tuple[PhaseRegion, ...]
    codewords: tuple[np.ndarray, ...]
    metadata: dict

    @property
    def n_regions(self) -> int:
        return len(self.regions)


def build_codebook(cfg: ArrayConfig, n_regions: int) -> Codebook:
    """Equal-width tiling of [-1, 1] with a steered codeword per region.

    Region k spans [2k/n - 1, 2(k+1)/n - 1]; its codeword is the broadside
    design of half-width 1/n steered to the region center.  Edge regions at
    half-wavelength spacing sit exactly on the steering limit, which is
    inclusive.
    """
    if isinstance(n_regions, bool) or not isinstance(n_regions, (int, np.integer)):
        raise ValueError(f"n_regions must be an integer, got {n_regions!r}")
    if n_regions < 1:
        raise ValueError(f"need at least one region, got {n_regions}")
    half_width = 1.0 / n_regions
    base = slepian_weights(cfg, half_width)  # n_regions == 1 fails here: W == 1
    edges = [2.0 * k / n_regions - 1.0 for k in range(n_regions + 1)]
    regions = []
    codewords = []
    for k in range(n_regions):
        region = PhaseRegion.from_bounds(edges[k], edges[k + 1])
        try:
            codeword = steer(base, region.center)
        except SteeringLimitError as exc:
            raise SteeringLimitError(
                f"region {k} of {n_regions} (center {region.center:.6g}): {exc}"
            ) from exc
        regions.append(region)
        codewords.append(codeword)
    metadata = {
        "synthesizer": "slepian",
        "half_width": half_width,
        "lambda_max": base.lambda_max,
        "tool_version": __version__,
    }
    return Codebook(
        config=cfg, regions=tuple(regions), codewords=tuple(codewords), metadata=metadata
    )


def best_codeword(book: Codebook, s: float) -> int:
    """Index of the region containing phase ``s``; boundary ties go low."""
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"phase {s} outside the visible space [-1, 1]")
    uppers = [region.bounds[1] for region in book.regions]
    return min(bisect_left(uppers, s), len(uppers) - 1)


def save_codebook(book: Codebook, path) -> None:
    """Write the fixed-order JSON schema."""
    regions = ",".join(
        f'{{"center":{format_float(r.center)},"half_width":{format_float(r.half_width)}}}'
        for r in book.regions
    )
    codewords = ",".join(
        "["
        + ",".join(
            f'{{"re":{format_float(z.real)},"im":{format_float(z.imag)}}}'
            for z in np.asarray(cw, dtype=complex)
        )
        + "]"
        for cw in book.codewords
    )
    metadata = json.dumps(book.metadata, sort_keys=True)
    text = (
        f'{{"version":1,"M":{book.config.elements},'
        f'"d_over_lambda":{format_float(book.config.spacing_ratio)},'
        f'"regions":[{regions}],"codewords":[{codewords}],'
        f'"metadata":{metadata}}}'
    )
    Path(path).write_text(text, encoding="utf-8")


def _validate_tiling(regions) -> None:
    lo0 = regions[0].bounds[0]
    hi_last = regions[-1].bounds[1]
    if abs(lo0 - (-1.0)) > _EDGE_TOL or abs(hi_last - 1.0) > _EDGE_TOL:
        raise CodebookFormatError(
            f"regions do not cover [-1, 1]: span [{lo0}, {hi_last}]"
        )
    for k in range(len(regions) - 1):
        hi = regions[k].bounds[1]
        lo = regions[k + 1].bounds[0]
        if abs(hi - lo) > _EDGE_TOL:
            raise CodebookFormatError(
                f"regions {k} and {k + 1} do not share a boundary: {hi} vs {lo}"
            )
    if any(r.bounds[1] - r.bounds[0] <= 0 for r in regions):
        raise CodebookFormatError("every region must have positive width")


def _number(value, name: str) -> float:
    """A finite JSON number as a float; bools and numeric strings are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CodebookFormatError(f"{name} must be a number, got {value!r}")
    # false for nan, and exact for an int beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise CodebookFormatError(f"{name} must be finite, got {value!r}")
    return float(value)


def load_codebook(path) -> Codebook:
    """Parse and revalidate a saved codebook; any invariant violation rejects."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodebookFormatError(
            f"malformed codebook JSON at byte {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise CodebookFormatError("codebook JSON must be an object")
    if data.get("version") != 1:
        raise CodebookFormatError(f"unsupported codebook version {data.get('version')!r}")
    for key in ("M", "d_over_lambda", "regions", "codewords"):
        if key not in data:
            raise CodebookFormatError(f"missing field {key!r}")
    if isinstance(data["M"], bool) or not isinstance(data["M"], int):
        raise CodebookFormatError(f"M must be an integer, got {data['M']!r}")
    try:
        cfg = ArrayConfig(data["M"], _number(data["d_over_lambda"], "d_over_lambda"))
    except (TypeError, ValueError) as exc:
        raise CodebookFormatError(f"bad array configuration: {exc}") from exc
    raw_regions = data["regions"]
    raw_codewords = data["codewords"]
    if not isinstance(raw_regions, list) or not isinstance(raw_codewords, list):
        raise CodebookFormatError("regions and codewords must be lists")
    if not raw_regions or len(raw_regions) != len(raw_codewords):
        raise CodebookFormatError(
            f"{len(raw_regions)} regions but {len(raw_codewords)} codewords"
        )
    try:
        regions = tuple(
            PhaseRegion(
                half_width=_number(r["half_width"], "half_width"),
                center=_number(r["center"], "center"),
            )
            for r in raw_regions
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodebookFormatError(f"bad region entry: {exc}") from exc
    _validate_tiling(regions)
    codewords = []
    for k, raw in enumerate(raw_codewords):
        if not isinstance(raw, list):
            raise CodebookFormatError(f"codeword {k} is not a list")
        if len(raw) != cfg.elements:
            raise CodebookFormatError(
                f"codeword {k} has {len(raw)} entries, expected {cfg.elements}"
            )
        try:
            cw = np.array([complex(_number(c["re"], "re"), _number(c["im"], "im")) for c in raw])
        except (KeyError, TypeError, ValueError) as exc:
            raise CodebookFormatError(f"bad codeword {k}: {exc}") from exc
        norm = float(np.linalg.norm(cw))
        if abs(norm - 1.0) > 1e-9:
            raise CodebookFormatError(
                f"codeword {k} norm is {norm!r}, expected 1 within 1e-9"
            )
        codewords.append(cw)
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CodebookFormatError("metadata must be an object")
    return Codebook(
        config=cfg, regions=regions, codewords=tuple(codewords), metadata=metadata
    )
