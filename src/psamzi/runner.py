"""Scan orchestration and reproducible table/record emission.

Each figure runner resolves its parameters (config plus documented defaults),
hashes the resolved set, evaluates the scan grid in order, and returns a Table
ready for CSV or JSON rendering.  Rows at exact dark points carry the literal
sentinel "NA" instead of numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

from .amplification import (aav_phase, chi_tilde_aav, chi_tilde_exact, exact_phase,
                            postselection_overlap, weak_value)
from .config import RunConfig, config_hash, linspace, strictly_monotone
from .errors import (
    ConfigError,
    DarkPointSingularity,
    ZeroAmplitude,
    ZeroSignal,
)
from .homodyne import LoConfig, phase_slope, quadrature_mean, quadrature_stats_exact
from .optics import (coherent_amplitude, intensity_difference, port_amplitudes,
                     propagate_mzi)
from .saturation import DetectorParams, error_ratio_fields
from .shots import averaged_stats, draw_shots, uncertainty_vs_m

# Exposes the amplification ramp without touching the dark-point singularity.
DEFAULT_THETA2_GRID_START = 0.05
DEFAULT_THETA2_GRID_STOP = math.pi / 4 - 1e-4
DEFAULT_THETA2_GRID_POINTS = 200

DEFAULT_CHI_VALUES = [1e-4, 1e-2]
DEFAULT_N_VALUES = [100.0, 500.0, 1000.0, 2000.0]
DEFAULT_M_GRID = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]

# Caption-style working point used when fig3 parameters are not configured.
FIG3_DEFAULT_THETA2 = math.pi / 4 - 0.003
FIG3_DEFAULT_CHI = 1e-2
FIG4_DEFAULT_CHI = 1e-4

# A scan point raising one of these is a dark-point sentinel row: the weak
# value diverges, the postselected amplitude vanishes, or the amplified phase
# is zero.
_SENTINEL_ERRORS = (DarkPointSingularity, ZeroAmplitude, ZeroSignal)


@dataclass
class Table:
    """Ordered scan output with provenance metadata."""

    columns: list[str]
    rows: list[list[object]]
    meta: dict[str, object]
    sentinel_rows: int = 0

    @property
    def sentinel_only(self) -> bool:
        return bool(self.rows) and self.sentinel_rows == len(self.rows)


def default_theta2_grid() -> list[float]:
    return linspace(
        DEFAULT_THETA2_GRID_START,
        DEFAULT_THETA2_GRID_STOP,
        DEFAULT_THETA2_GRID_POINTS,
    )


def _config_sha256(config: RunConfig, figure: str, **resolved: object) -> str:
    """Hash of the fully resolved parameters of one run, shared keys included."""
    # The 50:50 first splitter stays in the hash so every hash keeps its bytes.
    shared = {"figure": figure, "theta1": math.pi / 4, "gamma": config.gamma,
              "input_phase": config.input_phase, "precision": config.output.precision}
    return config_hash({**shared, **resolved})


def _theta2_scan(
    config: RunConfig,
    figure: str,
    columns: list[str],
    blocks: list[float],
    point: Callable[[float, float], list[object]],
    **resolved: object,
) -> Table:
    """Evaluate ``point(block, theta2)`` for each block over the theta2 grid.

    Rows come in (block, theta2) order.  The first two columns hold the block
    value and theta2, in either order; ``point`` returns the remaining cells,
    and a point that raises a sentinel error gets NA in them instead.  Each
    grid angle passes MziParams' range rule before any point.
    """
    if config.scan is None:
        grid = default_theta2_grid()
    elif config.scan.variable != "theta2":
        raise ConfigError(
            f"this figure scans theta2, got scan variable {config.scan.variable!r}"
        )
    else:
        grid = list(config.scan.grid)
    for theta2 in grid:
        config.mzi_params(theta2=theta2, chi=0.0)
    theta2_first = columns[0] == "theta2"
    nulls = [None] * (len(columns) - 2)
    rows = []
    sentinels = 0
    for block in blocks:
        for theta2 in grid:
            try:
                cells = point(block, theta2)
            except _SENTINEL_ERRORS:
                cells = nulls
                sentinels += 1
            keys = [theta2, block] if theta2_first else [block, theta2]
            rows.append(keys + cells)
    sha = _config_sha256(config, figure, theta2_grid=grid, **resolved)
    return Table(
        columns=columns,
        rows=rows,
        meta={"config_sha256": sha, "seed": None},
        sentinel_rows=sentinels,
    )


def run_fig2(config: RunConfig, workers: int = 1) -> Table:
    """Amplified-phase ramp versus the postselection angle.

    One row per (chi, theta2) pair with both the small-coupling and the exact
    amplified phase, the weak value, and the postselected intensity.
    ``workers`` is accepted for compatibility and has no effect.
    """
    chi_values = config.chi_values or list(DEFAULT_CHI_VALUES)
    gamma = config.gamma
    alpha_mag = abs(coherent_amplitude(config.n_photons, config.input_phase))

    def point(chi: float, theta2: float) -> list[object]:
        a_w = weak_value(theta2, gamma).a_w.real
        unit = port_amplitudes(theta2, chi, gamma)[0]
        chi_tilde, alpha_f_mag = exact_phase(unit, alpha_mag, theta2, chi, gamma)
        return [aav_phase(a_w, chi), chi_tilde, a_w, alpha_f_mag**2]

    return _theta2_scan(
        config,
        "fig2",
        ["chi", "theta2", "chi_tilde_aav", "chi_tilde_exact", "weak_value",
         "port_intensity"],
        chi_values,
        point,
        n_photons=config.n_photons,
        chi_values=chi_values,
    )


def run_fig3(config: RunConfig, workers: int = 1) -> Table:
    """Sensitivity and uncertainty band versus the number of averaged shots.

    The Monte-Carlo column re-estimates the quadrature fluctuation from the
    spread of ``runs`` batch means per grid point.  Row ``i`` draws its batches
    in turn from one generator, ``numpy.random.default_rng([seed, i])``.  At a
    working point with no amplified phase every row is a sentinel: it keeps its
    ``m``, holds NA elsewhere, and no batch is drawn.
    ``workers`` is accepted for compatibility and has no effect.
    """
    import numpy as np

    if config.scan is None:
        m_grid = list(DEFAULT_M_GRID)
    elif config.scan.variable != "m":
        raise ConfigError(f"fig3 scans m, got scan variable {config.scan.variable!r}")
    else:
        m_grid = [int(round(x)) for x in config.scan.grid]
        if any(m < 1 for m in m_grid):
            raise ConfigError("fig3 m grid entries must be >= 1")
        if not strictly_monotone(m_grid):
            raise ConfigError(
                f"fig3 m grid must stay strictly monotone after rounding to "
                f"integers, got {m_grid}"
            )
    if config.shots.seed is None:
        raise ConfigError("fig3 needs a seed (shots.seed or --seed) for the "
                          "Monte-Carlo column")
    seed = config.shots.seed
    runs = config.shots.runs

    theta2 = config.theta2 if config.theta2 is not None else FIG3_DEFAULT_THETA2
    chi = config.chi if config.chi is not None else FIG3_DEFAULT_CHI
    lo = config.lo
    params = config.mzi_params(theta2=theta2, chi=chi)
    try:
        stats = quadrature_stats_exact(params)
    except _SENTINEL_ERRORS:
        rows: list[list[object]] = [[m, None, None, None, None, None] for m in m_grid]
        sentinels = len(rows)
    else:
        amp = chi_tilde_exact(params)
        mean = quadrature_mean(propagate_mzi(params).alpha_f, lo.effective_phase)
        slope = phase_slope(amp)
        rows = []
        sentinels = 0
        for index, point in enumerate(uncertainty_vs_m(params, m_grid)):
            rng = np.random.default_rng([seed, index])
            means = np.array(
                [draw_shots(rng, mean, point.m).mean() for _ in range(runs)]
            )
            std_mc = float(means.std(ddof=1))
            rows.append([
                point.m,
                averaged_stats(point.m, stats).sensitivity,
                amp.chi_tilde * slope / std_mc if std_mc > 0 else None,
                point.chi_tilde,
                point.lower,
                point.upper,
            ])

    sha = _config_sha256(
        config,
        "fig3",
        theta2=theta2,
        chi=chi,
        n_photons=config.n_photons,
        lo=asdict(lo),
        m_grid=m_grid,
        seed=seed,
        runs=runs,
    )
    return Table(
        columns=["m", "sensitivity", "sensitivity_mc", "chi_tilde", "chi_tilde_lower",
                 "chi_tilde_upper"],
        rows=rows,
        meta={"config_sha256": sha, "seed": seed},
        sentinel_rows=sentinels,
    )


def _saturation(theta2: float, chi: float, gamma: float, alpha: complex,
                lo: LoConfig, det: DetectorParams) -> tuple:
    """``error_ratio_fields``, with exact dark postselection as a sentinel.

    There the linear inversion is degenerate even when the port amplitude
    itself is nonzero, so the overlap's DarkPointSingularity is raised.
    """
    postselection_overlap(theta2, gamma)
    return error_ratio_fields(theta2, chi, gamma, alpha, lo, det)


def run_fig4(config: RunConfig, workers: int = 1) -> Table:
    """Saturation error ratio versus postselection angle, per input intensity.

    ``workers`` is accepted for compatibility and has no effect.
    """
    if config.detector is None:
        raise ConfigError("fig4 needs a detector block (k_max, n_sat)")
    n_values = config.n_values or list(DEFAULT_N_VALUES)
    chi = config.chi if config.chi is not None else FIG4_DEFAULT_CHI
    lo = config.lo
    det = config.detector
    alphas = {n: coherent_amplitude(n, config.input_phase) for n in n_values}

    def point(n_photons: float, theta2: float) -> list[object]:
        fields = _saturation(theta2, chi, config.gamma, alphas[n_photons], lo, det)
        return [fields[0], fields[1], fields[5]]

    return _theta2_scan(
        config,
        "fig4",
        ["theta2", "n_photons", "n1", "n2", "eta_e"],
        n_values,
        point,
        chi=chi,
        lo=asdict(lo),
        detector=asdict(det),
        n_values=n_values,
    )


def run_single(config: RunConfig) -> dict:
    """One JSON record with every derived quantity at a single working point.

    Quantities that are undefined at the configured point (weak value and
    saturation bias at an exact dark point, phase of a vanishing amplitude)
    are emitted as null, by the same rule as fig4's sentinel rows.
    """
    if config.scan is not None:
        raise ConfigError("single takes no scan block")
    params = config.mzi_params()
    lo = config.lo
    fields = propagate_mzi(params)
    sha = _config_sha256(
        config,
        "single",
        theta2=params.theta2,
        chi=params.chi,
        n_photons=config.n_photons,
        lo=asdict(lo),
        detector=None if config.detector is None else asdict(config.detector),
    )

    record: dict[str, object] = {
        "config_sha256": sha,
        "alpha_f": {"re": fields.alpha_f.real, "im": fields.alpha_f.imag},
        "alpha_fbar": {"re": fields.alpha_fbar.real, "im": fields.alpha_fbar.imag},
        "port_intensity": fields.intensity_f,
        "complement_intensity": fields.intensity_fbar,
        "intensity_difference": intensity_difference(params),
        "quadrature_mean": quadrature_mean(fields.alpha_f, lo.effective_phase),
    }

    try:
        wv = weak_value(params.theta2, params.gamma)
        record["chi_tilde_aav"] = chi_tilde_aav(params).chi_tilde
        record["weak_value"] = wv.a_w.real
    except DarkPointSingularity:
        record["chi_tilde_aav"] = None
        record["weak_value"] = None

    try:
        exact = chi_tilde_exact(params)
        stats = quadrature_stats_exact(params)
        record["chi_tilde_exact"] = exact.chi_tilde
        record["snr"] = stats.snr
        record["sensitivity"] = stats.sensitivity
    except ZeroAmplitude:
        record["chi_tilde_exact"] = None
        record["snr"] = None
        record["sensitivity"] = None

    if config.detector is not None:
        try:
            fields = _saturation(params.theta2, params.chi, params.gamma,
                                 params.alpha, lo, config.detector)
            names = ["n1", "n2", "x_linear", "x_saturated", "chi_tilde_biased", "eta_e"]
            record["saturation"] = dict(zip(names, fields))
        except _SENTINEL_ERRORS:
            record["saturation"] = None
    return record


def _format_value(value: object, spec: str) -> str:
    if value is None:
        return "NA"
    if isinstance(value, int):
        return str(value)
    return format(float(value), spec)


def render_csv(table: Table, precision: int) -> str:
    """Fixed-precision CSV with a provenance comment line above the header."""
    seed = table.meta.get("seed")
    lines = [
        f"# config_sha256={table.meta['config_sha256']} "
        f"seed={'none' if seed is None else seed}",
        ",".join(table.columns),
    ]
    spec = f".{precision}e"
    for row in table.rows:
        lines.append(",".join([_format_value(v, spec) for v in row]))
    return "\n".join(lines) + "\n"


# json's C encoder; its item separator is a row cell's break and indent at indent=2.
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def render_table_json(table: Table, precision: int) -> str:
    """The table in ``render_record_json``'s layout, byte for byte, rows in one C call.

    Every cell is a number or None, so "],\n      [" occurs only between rows;
    splitting there leaves the output the only large string built after it.
    """
    text = render_record_json({
        "config_sha256": table.meta["config_sha256"],
        "seed": table.meta.get("seed"),
        "columns": table.columns,
        "rows": [],
    })
    if not table.rows:
        return text
    head, tail = text.split('"rows": []')
    rows = _ROWS_ENCODER.encode(table.rows).split("],\n      [")
    rows[0] = head + '"rows": [\n    [\n      ' + rows[0][2:]
    rows[-1] = rows[-1][:-2] + "\n    ]\n  ]" + tail
    return "\n    ],\n    [\n      ".join(rows)


def render_record_json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _values_match(expected: object, actual: object) -> bool:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return False
        return all(_values_match(expected[k], actual[k]) for k in expected)
    if expected is None or actual is None:
        return expected is None and actual is None
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected == actual
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return math.isclose(expected, actual, rel_tol=1e-12, abs_tol=1e-15)
    return expected == actual


def self_check(record: dict, expected: dict) -> list[str]:
    """Compare a freshly computed record against stored expected values.

    Returns a list of mismatch descriptions; empty means the check passed.
    """
    mismatches = []
    for key in sorted(set(expected) | set(record)):
        if key not in record:
            mismatches.append(f"missing key {key!r}")
        elif key not in expected:
            mismatches.append(f"unexpected key {key!r}")
        elif not _values_match(expected[key], record[key]):
            mismatches.append(
                f"{key}: expected {expected[key]!r}, got {record[key]!r}"
            )
    return mismatches
