"""Reference computations in plain numpy, and the output checks built on them.

Nothing in this module imports slepbeam: every number the program reports is
compared against a value computed here from first principles (the sinc band
matrix, Gauss-Legendre integrals, independent Monte Carlo draws), or against a
property the method must have.  Each ``check_*`` function returns a list of
failure messages; an empty list means the output passed.

Conventions follow the program's: the array factor is
``AF(s) = sum_m v[m] exp(-1j m kd s)`` with unconjugated weights, and the
gain energy of ``v`` over ``[a, b]`` is ``v @ B @ conj(v)`` with
``B[p, q] = integral of exp(-1j (p - q) kd s) ds over [a, b]``.
"""

from __future__ import annotations

import math

import numpy as np

HALF_WAVE_KD = math.pi
EPS = float(np.finfo(float).eps)

# The program integrates the inverse-gain and 1/(N0 + I) terms and the angular
# band matrices by adaptive Simpson to about 1e-10 absolute; the bound
# orderings are judged within this many bits of that.
QUADRATURE_SLACK_BITS = 1e-9
# band_power's absolute tolerance on each gain integral, its default
BAND_POWER_TOL = 1e-9


# ----------------------------------------------------------------- references


def band_matrix(m: int, kd: float, a: float, b: float) -> np.ndarray:
    """Gain-energy matrix of an m-element array over the phase interval [a, b]."""
    i = np.subtract.outer(np.arange(m), np.arange(m))
    width = b - a
    mid = 0.5 * (a + b)
    return width * np.sinc(i * kd * width / (2.0 * math.pi)) * np.exp(-1j * i * kd * mid)


def energy(v, matrix) -> float:
    v = np.asarray(v, dtype=complex)
    return float(np.real(v @ matrix @ np.conj(v)))


def gain(v, kd: float, s) -> np.ndarray:
    """Directivity gain |AF(s)|^2 at the phases ``s``."""
    v = np.asarray(v, dtype=complex)
    af = np.exp(-1j * kd * np.multiply.outer(np.asarray(s, dtype=float), np.arange(v.size))) @ v
    return af.real * af.real + af.imag * af.imag


def top_band_eigenvalue(m: int, half_width: float) -> float:
    """Largest eigenvalue of the half-wave broadside band matrix over [-W, W]."""
    return float(np.linalg.eigvalsh(band_matrix(m, HALF_WAVE_KD, -half_width, half_width).real)[-1])


def top_band_eigenvector(m: int, half_width: float) -> np.ndarray:
    _, vectors = np.linalg.eigh(band_matrix(m, HALF_WAVE_KD, -half_width, half_width).real)
    return vectors[:, -1]


def approximation_bits(mean_in, mean_out, ps, pi_total, n0) -> float:
    return math.log2(1.0 + ps * mean_in / (n0 + pi_total * mean_out))


def _phase_bits(e_in, e_vis, lo, hi, ps, pi_total, n0) -> float:
    mean_in = e_in / (hi - lo)
    mean_out = max(e_vis - e_in, 0.0) / (2.0 - (hi - lo))
    return approximation_bits(mean_in, mean_out, ps, pi_total, n0)


def phase_approximation(v, kd, lo, hi, ps, pi_total, n0, integral_error=0.0) -> tuple[float, float]:
    """Closed-form capacity approximation, phase-uniform arrivals in [-1, 1],
    and how far it can move when each of its two gain integrals (over the
    band and over [-1, 1]) is off by ``integral_error``."""
    m = len(v)
    e_in = energy(v, band_matrix(m, kd, lo, hi))
    e_vis = energy(v, band_matrix(m, kd, -1.0, 1.0))
    bits = _phase_bits(e_in, e_vis, lo, hi, ps, pi_total, n0)
    d = integral_error
    moved = [_phase_bits(e_in + a, e_vis + b, lo, hi, ps, pi_total, n0) for a in (-d, d) for b in (-d, d)]
    return bits, max(abs(x - bits) for x in moved)


def gauss_legendre(f, a: float, b: float, panels: int = 256, order: int = 20) -> float:
    """Composite Gauss-Legendre integral of a vectorised ``f`` over [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x[None, :]
    return float(np.sum(half[:, None] * w[None, :] * f(nodes)))


def angular_bounds(v, kd, half_width, ps, pi_total, n0) -> dict:
    """Approximation and both Jensen bounds for a single interferer, with
    arrival angles uniform in theta and the band [-W, W] in s = cos(theta)."""
    t1, t2 = math.acos(half_width), math.acos(-half_width)
    band_len = t2 - t1

    def g(theta):
        return gain(v, kd, np.cos(theta))

    e_in = gauss_legendre(g, t1, t2)
    e_vis = gauss_legendre(g, 0.0, math.pi)
    mean_in = e_in / band_len
    mean_out = max(e_vis - e_in, 0.0) / (math.pi - band_len)

    def inv_noise_interference(theta):
        return 1.0 / (n0 + pi_total * g(theta))

    inv_ni = (
        gauss_legendre(inv_noise_interference, 0.0, t1)
        + gauss_legendre(inv_noise_interference, t2, math.pi)
    ) / (math.pi - band_len)
    inv_gain = gauss_legendre(lambda t: 1.0 / g(t), t1, t2) / band_len
    return {
        "approx": approximation_bits(mean_in, mean_out, ps, pi_total, n0),
        "ub": math.log2(1.0 + ps * mean_in * inv_ni),
        "lb": math.log2(1.0 + (ps / inv_gain) / (pi_total * mean_out + n0)),
    }


def dft_taper(m: int) -> np.ndarray:
    return np.full(m, 1.0 / math.sqrt(m))


def binomial_taper(m: int) -> np.ndarray:
    row = np.array([math.comb(m - 1, k) for k in range(m)], dtype=float)
    return row / np.linalg.norm(row)


def chebyshev_taper(m: int, sidelobe_db: float) -> np.ndarray:
    """Dolph-Chebyshev taper, unit norm, from the zeros of its pattern.

    The pattern is ``T_{m-1}(x0 cos(psi / 2))`` with ``T_{m-1}(x0)`` equal to
    the main-lobe to sidelobe amplitude ratio, so its m - 1 zeros lie at
    ``psi = 2 acos(x_p / x0)`` for the zeros ``x_p`` of ``T_{m-1}``, and the
    weights are the coefficients of the polynomial with those roots.
    """
    order = m - 1
    x0 = math.cosh(math.acosh(10.0 ** (sidelobe_db / 20.0)) / order)
    x_p = np.cos((2.0 * np.arange(1, order + 1) - 1.0) * math.pi / (2.0 * order))
    w = np.real(np.poly(np.exp(2j * np.arccos(x_p / x0))))
    return w / np.linalg.norm(w)


def _uniform_union(rng, intervals, n: int) -> np.ndarray:
    """Draws uniform over the union of disjoint intervals."""
    starts = np.array([a for a, _ in intervals])
    offsets = np.concatenate([[0.0], np.cumsum([b - a for a, b in intervals])])
    u = rng.random(n) * offsets[-1]
    k = np.minimum(np.searchsorted(offsets, u, side="right") - 1, len(intervals) - 1)
    return starts[k] + (u - offsets[k])


def interference_intervals(lo: float, hi: float) -> list[tuple[float, float]]:
    return [(a, b) for a, b in ((-1.0, lo), (hi, 1.0)) if b - a > 0.0]


def _interference(v, kd, lo, hi, powers, n: int, rng) -> np.ndarray:
    """Total interference power over n draws, each interferer uniform outside [lo, hi]."""
    intervals = interference_intervals(lo, hi)
    total = np.zeros(n)
    for p in powers:
        total += p * gain(v, kd, _uniform_union(rng, intervals, n))
    return total


def mc_capacity(v, kd, lo, hi, ps, powers, n0, n: int, rng) -> tuple[float, float]:
    """Own Monte Carlo of log2(1 + SINR): (mean, standard error)."""
    s0 = lo + (hi - lo) * rng.random(n)
    interference = _interference(v, kd, lo, hi, powers, n, rng)
    c = np.log2(1.0 + ps * gain(v, kd, s0) / (n0 + interference))
    return float(c.mean()), float(c.std(ddof=1) / math.sqrt(n))


def inverse_ni_spread(v, kd, lo, hi, powers, n0, n: int, rng) -> tuple[float, float]:
    """Mean and standard deviation of 1/(N0 + I) from own draws."""
    x = 1.0 / (n0 + _interference(v, kd, lo, hi, powers, n, rng))
    return float(x.mean()), float(x.std(ddof=1))


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------ capacity table

TABLE_COLUMNS = ("synthesizer", "param", "mean", "stderr", "ub", "lb", "approx", "outage50")


def read_table(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TABLE_COLUMNS:
            raise ValueError(f"unexpected comparison CSV header {header}")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(",")
            row = {"synthesizer": fields[0], "param": float(fields[1]) if fields[1] else None}
            row.update({k: float(x) for k, x in zip(TABLE_COLUMNS[2:], fields[2:])})
            rows.append(row)
    return rows


def expected_table_order(w_grid, att_grid) -> list[tuple[str, float | None]]:
    return (
        [("slepian", w) for w in w_grid]
        + [("dft", None), ("binomial", None)]
        + [("chebyshev", a) for a in att_grid]
    )


def check_table(rows, spec, rng) -> list[str]:
    """Check one comparison table against references made here.

    ``spec`` holds the scenario (elements, ps, pi_total, n0, interferers,
    samples, region_width, w_grid, att_grid).
    """
    m, ps, pi_total, n0 = spec["elements"], spec["ps"], spec["pi_total"], spec["n0"]
    powers = [pi_total / spec["interferers"]] * spec["interferers"]
    kd, region_w, w_grid = HALF_WAVE_KD, spec["region_width"], spec["w_grid"]
    order = expected_table_order(w_grid, spec["att_grid"])
    got = [(r["synthesizer"], r["param"]) for r in rows]
    if len(rows) != len(order) or any(
        g[0] != e[0] or (g[1] is None) != (e[1] is None) or (e[1] is not None and abs(g[1] - e[1]) > 1e-12)
        for g, e in zip(got, order)
    ):
        return [f"table rows {got[:3]}... do not follow the expected {len(order)}-row order"]

    fails: list[str] = []
    # each concentration row serves its own band [-W, W]; the baselines serve
    # the scenario's band
    tapers = [top_band_eigenvector(m, w) for w in w_grid] + [dft_taper(m), binomial_taper(m)]
    tapers += [chebyshev_taper(m, att) for att in spec["att_grid"]]
    bands = list(w_grid) + [region_w] * (len(rows) - len(w_grid))
    for row, v, w in zip(rows, tapers, bands):
        label = f"{row['synthesizer']} {'' if row['param'] is None else format(row['param'], '.6g')}"
        if row["synthesizer"] == "slepian":
            lam = top_band_eigenvalue(m, w)
            expected = approximation_bits(lam / (2.0 * w), (2.0 - lam) / (2.0 - 2.0 * w), ps, pi_total, n0)
        else:
            expected, _ = phase_approximation(v, kd, -w, w, ps, pi_total, n0)
        if abs(row["approx"] - expected) > 1e-9:
            fails.append(f"{label}: approx {row['approx']!r} vs closed form {expected!r}")
        sig = row["stderr"]
        if not row["lb"] - 3.0 * sig <= row["mean"] <= row["ub"] + 3.0 * sig:
            fails.append(
                f"{label}: mean {row['mean']:.9g} outside [lb - 3s, ub + 3s] = "
                f"[{row['lb'] - 3 * sig:.9g}, {row['ub'] + 3 * sig:.9g}]"
            )
        if row["approx"] < row["lb"] - QUADRATURE_SLACK_BITS:
            fails.append(f"{label}: approx {row['approx']!r} below lb {row['lb']!r}")
        # ub carries the Monte Carlo error of its E{1/(N0 + I)} term; turn that
        # error into bits with the derivative of log2(1 + S x) in x
        x, sd = inverse_ni_spread(v, kd, -w, w, powers, n0, 20_000, rng)
        s_mean = energy(v, band_matrix(m, kd, -w, w)) / (2.0 * w)
        sigma_ub = ps * s_mean / ((1.0 + ps * s_mean * x) * math.log(2.0)) * sd / math.sqrt(spec["samples"])
        if row["ub"] < row["approx"] - 4.0 * sigma_ub - QUADRATURE_SLACK_BITS:
            fails.append(
                f"{label}: ub {row['ub']!r} below approx {row['approx']!r} by more "
                f"than 4 x its Monte Carlo error {sigma_ub:.3g}"
            )

    k = int(np.argmin(np.abs(np.asarray(w_grid) - region_w)))
    n_w = len(w_grid)
    concentration, dft_row, binomial_row = rows[k], rows[n_w], rows[n_w + 1]
    for row, v in ((concentration, tapers[k]), (dft_row, tapers[n_w]), (binomial_row, tapers[n_w + 1])):
        mean, sig = mc_capacity(v, kd, -region_w, region_w, ps, powers, n0, spec["samples"], rng)
        combined = math.hypot(sig, row["stderr"])
        if abs(mean - row["mean"]) > 4.0 * combined:
            fails.append(
                f"{row['synthesizer']}: mean {row['mean']:.9g} vs own Monte Carlo {mean:.9g} "
                f"(> 4 combined sigma {combined:.3g})"
            )
    for other in (dft_row, binomial_row):
        combined = math.hypot(concentration["stderr"], other["stderr"])
        if not concentration["mean"] - other["mean"] > 3.0 * combined:
            fails.append(
                f"concentration beam at W={region_w} does not beat {other['synthesizer']} "
                f"by 3 sigma: {concentration['mean']:.9g} vs {other['mean']:.9g}"
            )
    return fails


# ------------------------------------------------------------------ codebook


def check_codebook(built, loaded, n_regions: int, elements: int) -> list[str]:
    """``built`` and ``loaded`` are (regions, codewords): regions as (lo, hi)
    pairs, codewords as complex arrays, in file order."""
    fails: list[str] = []
    regions, codewords = built
    l_regions, l_codewords = loaded
    if len(codewords) != n_regions or len(regions) != n_regions:
        return [f"{len(codewords)} codewords for {n_regions} regions"]
    if len(l_codewords) != n_regions or not all(
        np.array_equal(np.asarray(a), np.asarray(b)) for a, b in zip(codewords, l_codewords)
    ):
        fails.append("loaded codewords differ from the built ones")
    # the file stores centre and half-width, so loaded bounds may move by an ulp
    for which, tiles in (("built", regions), ("loaded", l_regions)):
        for k, (lo, hi) in enumerate(tiles):
            if max(abs(lo - (2.0 * k / n_regions - 1.0)), abs(hi - (2.0 * (k + 1) / n_regions - 1.0))) > 1e-12:
                fails.append(f"{which} region {k} is [{lo}, {hi}], not the equal tile")
    lam = top_band_eigenvalue(elements, 1.0 / n_regions)
    mats = [band_matrix(elements, HALF_WAVE_KD, lo, hi) for lo, hi in regions]
    for k, cw in enumerate(l_codewords):
        cw = np.asarray(cw, dtype=complex)
        if abs(np.linalg.norm(cw) - 1.0) > 1e-12:
            fails.append(f"codeword {k} norm {np.linalg.norm(cw)!r}")
        energies = [energy(cw, mat) for mat in mats]
        if relative_error(energies[k], lam) > 1e-9:
            fails.append(f"codeword {k}: energy in its region {energies[k]!r} vs top eigenvalue {lam!r}")
        if any(e >= energies[k] for j, e in enumerate(energies) if j != k):
            fails.append(f"codeword {k} puts more energy in another region than in its own")
    return fails


def check_region_approximations(
    codewords, regions, approximations, scenario, kd, integral_error=0.0, label="region"
) -> list[str]:
    """Weights scored over their regions at phase factor ``kd``, against the
    closed form, to 1e-9 bits plus what an error of ``integral_error`` in
    each gain integral moves it by (the program integrates by quadrature
    off half-wave)."""
    ps, pi_total, n0 = scenario
    fails = []
    for k, (cw, (lo, hi), got) in enumerate(zip(codewords, regions, approximations)):
        expected, slack = phase_approximation(cw, kd, lo, hi, ps, pi_total, n0, integral_error)
        if abs(got - expected) > 1e-9 + slack:
            fails.append(
                f"{label} {k}: approx {got!r} vs closed form {expected!r} (allowed {1e-9 + slack:.3g})"
            )
    return fails


def quotient_tolerance(b_out: np.ndarray) -> float:
    """1e-8 relative, or the float64 limit set by the out-of-band matrix's
    condition number where that is coarser."""
    ev = np.linalg.eigvalsh(b_out)
    cond = ev[-1] / ev[0] if ev[0] > 0 else math.inf
    return max(1e-8, 8.0 * EPS * cond)


def check_general_design(weights, quotient, elements, kd, lo, hi) -> list[str]:
    """The steered design's quotient must be the in/out energy ratio of its
    own weights and the top generalized eigenvalue of (in-band, out-of-band)."""
    fails = []
    v = np.asarray(weights, dtype=complex)
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        fails.append(f"general design norm {np.linalg.norm(v)!r}")
    a = band_matrix(elements, kd, lo, hi)
    b = band_matrix(elements, kd, -1.0, lo) + band_matrix(elements, kd, hi, 1.0)
    ratio = energy(v, a) / energy(v, b)
    lower_inv = np.linalg.inv(np.linalg.cholesky(b))
    reduced = lower_inv @ a @ lower_inv.conj().T
    top = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))[-1])
    tol = quotient_tolerance(b)
    if relative_error(quotient, ratio) > tol:
        fails.append(f"general quotient {quotient!r} vs in/out ratio of its weights {ratio!r}")
    if relative_error(quotient, top) > tol:
        fails.append(f"general quotient {quotient!r} vs top generalized eigenvalue {top!r}")
    return fails


# -------------------------------------------------------------- width search


def check_width_point(weights, half_width, got: dict, scenario) -> list[str]:
    """``got`` holds approx, ub, lb (bits) and lb_diverged for one width."""
    ps, pi_total, n0 = scenario
    fails = []
    v = np.asarray(weights, dtype=complex)
    m = v.size
    lam = top_band_eigenvalue(m, half_width)
    e_in = energy(v, band_matrix(m, HALF_WAVE_KD, -half_width, half_width))
    if relative_error(e_in, lam) > 1e-9:
        fails.append(f"W={half_width:.6g}: in-band energy {e_in!r} vs top eigenvalue {lam!r}")
    if got["lb_diverged"]:
        fails.append(f"W={half_width:.6g}: lower bound flagged divergent")
        return fails
    ref = angular_bounds(v, HALF_WAVE_KD, half_width, ps, pi_total, n0)
    for key in ("approx", "ub", "lb"):
        if abs(got[key] - ref[key]) > 1e-6:
            fails.append(f"W={half_width:.6g}: {key} {got[key]!r} vs Gauss-Legendre {ref[key]!r}")
    if not got["ub"] >= got["approx"] - QUADRATURE_SLACK_BITS:
        fails.append(f"W={half_width:.6g}: ub {got['ub']!r} < approx {got['approx']!r}")
    if not got["approx"] >= got["lb"] - QUADRATURE_SLACK_BITS:
        fails.append(f"W={half_width:.6g}: approx {got['approx']!r} < lb {got['lb']!r}")
    return fails
