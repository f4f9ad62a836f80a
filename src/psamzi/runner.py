"""Scan orchestration and reproducible table/record emission.

Each figure runner resolves its parameters (config plus documented defaults),
hashes the resolved set, evaluates the scan grid in order, and returns a Table
ready for CSV or JSON rendering.  Rows at exact dark points carry the literal
sentinel "NA" instead of numbers.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

from .amplification import aav_phase, chi_tilde_exact, exact_phase, weak_values
from .config import (_SECTIONS, RunConfig, ScanSpec, _build, config_hash, linspace,
                     strictly_monotone)
from .errors import ConfigError, ZeroAmplitude
from .homodyne import phase_sensitivity, quadrature_mean, quadrature_stats_exact
from .optics import (coherent_amplitude, intensity_difference, port_amplitudes,
                     port_fields, propagate_mzi, theta2_in_range)
from .saturation import SaturationReport, check_readout_domain, error_ratio_fields
from .shots import averaged_stats, draw_shots, uncertainty_vs_m

# Exposes the amplification ramp without touching the dark-point singularity.
DEFAULT_THETA2_GRID_START = 0.05
DEFAULT_THETA2_GRID_STOP = math.pi / 4 - 1e-4
DEFAULT_THETA2_GRID_POINTS = 200

DEFAULT_CHI_VALUES = [1e-4, 1e-2]
DEFAULT_N_VALUES = [100.0, 500.0, 1000.0, 2000.0]
DEFAULT_M_GRID = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
# Largest fig3 shot count: one batch of 10**7 float64 shots is 80 MB.
MAX_SHOTS = 10**7
# fig3 draws a row's batches in blocks of at most this many shots (128 KiB of
# float64), or one batch when a batch alone is larger.
BLOCK_SHOTS = 2**14

# Caption-style working point used when fig3 parameters are not configured.
FIG3_DEFAULT_THETA2 = math.pi / 4 - 0.003
FIG3_DEFAULT_CHI = 1e-2
FIG4_DEFAULT_CHI = 1e-4


class Table(namedtuple("Table", "columns rows config_sha256 seed", defaults=(None,))):
    """Ordered scan output with its provenance: the config hash and the seed.

    A row whose last cell is NA is a sentinel row.
    """

    __slots__ = ()

    @property
    def sentinel_rows(self) -> int:
        return sum(row[-1] is None for row in self.rows)

    @property
    def sentinel_only(self) -> bool:
        return bool(self.rows) and self.sentinel_rows == len(self.rows)


def default_theta2_grid() -> list[float]:
    return linspace(
        DEFAULT_THETA2_GRID_START,
        DEFAULT_THETA2_GRID_STOP,
        DEFAULT_THETA2_GRID_POINTS,
    )


# Each subcommand's scan variable and the config keys it reads, a section name
# standing for all of its keys.  The run hashes each key it reads but these,
# which change no data byte.
_UNHASHED = ("output.path", "output.format", "scan.variable")
_READS = {
    "fig2": ("theta2", "mzi.gamma mzi.n_photons chi_values scan output"),
    "fig3": ("m", "mzi lo shots scan output"),
    "fig4": ("theta2", "mzi.chi mzi.gamma mzi.input_phase lo detector n_values scan output"),
    "single": (None, "mzi lo detector output.path"),
}


def _read_keys(figure: str) -> list[str]:
    """The keys ``figure`` reads, each section name spelled out as all of its keys."""
    return [f"{name}.{key}" if name in _SECTIONS else name
            for name in _READS[figure][1].split() for key in _SECTIONS.get(name, [name])]


def _check_reads(config: RunConfig, figure: str) -> None:
    """Reject the first key that ``figure`` does not read, then a scan of another variable."""
    variable, read_keys = _READS[figure][0], _read_keys(figure)
    for key in config.keys:
        if key not in read_keys:
            raise ConfigError(f"{figure} does not read {key}; "
                              f"it reads {', '.join(_READS[figure][1].split())}")
    if config.scan is not None and config.scan.variable != variable:
        raise ConfigError(f"{figure} scans {variable or 'nothing'}, "
                          f"got scan variable {config.scan.variable!r}")


def _config_sha256(config: RunConfig, figure: str) -> str:
    """Hash of ``figure`` and the resolved value of each key it reads and hashes.

    An ``mzi`` key or a list is a field of ``config``; another key is a field
    of its section's record, None where the section is absent.
    """
    resolved: dict[str, object] = {"figure": figure}
    for key in _read_keys(figure):
        if key not in _UNHASHED:
            name, _, field = key.partition(".")
            record = config if name == "mzi" or not field else getattr(config, name)
            resolved[key] = None if record is None else getattr(record, field or name)
    return config_hash(resolved)


def _theta2_grid(config: RunConfig) -> list[float]:
    """The run's theta2 grid, each angle checked by MziParams' range rule.

    The working point is built once, at the first angle; the first angle out
    of range, if any, raises that rule's ConfigError.
    """
    grid = default_theta2_grid() if config.scan is None else list(config.scan.grid)
    if grid:
        config._replace(theta2=grid[0], chi=0.0).mzi_params()
    for theta2 in grid:
        if not theta2_in_range(theta2):
            config._replace(theta2=theta2, chi=0.0).mzi_params()
    return grid


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_fig2(config: RunConfig, workers: int = 1) -> Table:
    """Amplified-phase ramp versus the postselection angle.

    One row per (chi, theta2) pair with both the small-coupling and the exact
    amplified phase, the weak value, and the postselected intensity; NA in
    all four where the postselection is dark or the amplitude vanishes, and
    in ``chi_tilde_aav`` alone where Re(a_w) * chi overflows.
    ``workers`` is accepted for compatibility and has no effect.
    """
    _check_reads(config, "fig2")
    config = config._replace(chi_values=config.chi_values or list(DEFAULT_CHI_VALUES),
                             scan=ScanSpec("theta2", _theta2_grid(config)))
    chi_values, gamma, grid = config.chi_values, config.gamma, config.scan.grid
    alpha = coherent_amplitude(config.n_photons)
    a_ws = [None if point is None else point[3].real
            for point in weak_values(grid, gamma)]
    rows: list[list[object]] = []
    for chi, units in zip(chi_values, port_amplitudes(grid, chi_values, gamma)):
        phases, (mags,) = exact_phase(units, port_fields(units, [alpha]))
        for theta2, a_w, aav, chi_tilde, mag in zip(grid, a_ws, aav_phase(a_ws, chi),
                                                    phases, mags):
            if a_w is None or mag is None:
                rows.append([chi, theta2, None, None, None, None])
            else:
                rows.append([chi, theta2, aav, chi_tilde, a_w, mag**2])
    return Table(["chi", "theta2", "chi_tilde_aav", "chi_tilde_exact", "weak_value",
                  "port_intensity"], rows, _config_sha256(config, "fig2"))


def run_fig3(config: RunConfig, workers: int = 1) -> Table:
    """Sensitivity and uncertainty band versus the number of averaged shots.

    The Monte-Carlo column re-estimates the quadrature fluctuation from the
    spread of ``runs`` batch means per grid point.  Row ``i`` draws its batches
    in turn from one generator, ``numpy.random.default_rng([seed, i])``, as
    ``(k, m)`` blocks of at most ``BLOCK_SHOTS`` shots.  Rows are drawn
    concurrently, largest ``m`` first, on one thread per CPU that the process
    may run on (``taskset`` narrows that set); each row's stream and
    reduction order are fixed, so the bytes depend neither on the CPU count
    nor on the block size.  At a working point with no amplified phase every
    row is a sentinel: it keeps its ``m``, holds NA elsewhere, and no batch is
    drawn.
    ``workers`` is accepted for compatibility and has no effect.
    """
    _check_reads(config, "fig3")
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    grid = DEFAULT_M_GRID if config.scan is None else config.scan.grid
    m_grid = [int(round(x)) for x in grid]
    if not all(1 <= m <= MAX_SHOTS for m in m_grid):
        raise ConfigError(f"fig3 m grid entries must lie in [1, {MAX_SHOTS}]")
    if not strictly_monotone(m_grid):
        raise ConfigError(
            f"fig3 m grid must stay strictly monotone after rounding to "
            f"integers, got {m_grid}"
        )
    if config.shots.seed is None:
        raise ConfigError("fig3 needs a seed (shots.seed or --seed) for the "
                          "Monte-Carlo column")
    config = config._replace(
        theta2=FIG3_DEFAULT_THETA2 if config.theta2 is None else config.theta2,
        chi=FIG3_DEFAULT_CHI if config.chi is None else config.chi,
        scan=ScanSpec("m", m_grid))
    seed, runs, lo = config.shots.seed, config.shots.runs, config.lo
    params = config.mzi_params()
    try:
        stats = quadrature_stats_exact(params)
    except ZeroAmplitude:
        rows: list[list[object]] = [[m, None, None, None, None, None] for m in m_grid]
    else:
        amp = chi_tilde_exact(params)
        mean = quadrature_mean(propagate_mzi(params).alpha_f, lo.effective_phase)
        points = uncertainty_vs_m(params, m_grid)

        def batch_mean_spread(index: int) -> float:
            m = points[index].m
            rng = np.random.default_rng([seed, index])
            k = max(1, BLOCK_SHOTS // m)
            means = np.concatenate([
                draw_shots(rng, mean, (min(k, runs - start), m)).mean(axis=1)
                for start in range(0, runs, k)
            ])
            return float(means.std(ddof=1))

        order = sorted(range(len(points)), key=lambda i: points[i].m, reverse=True)
        with ThreadPoolExecutor(min(_cpu_count(), len(order))) as pool:
            spreads = dict(zip(order, pool.map(batch_mean_spread, order)))
        rows = []
        for index, point in enumerate(points):
            std_mc = spreads[index]
            rows.append([
                point.m,
                averaged_stats(point.m, stats).sensitivity,
                phase_sensitivity(amp, std_mc) if std_mc > 0 else None,
                point.chi_tilde,
                point.lower,
                point.upper,
            ])

    return Table(
        columns=["m", "sensitivity", "sensitivity_mc", "chi_tilde", "chi_tilde_lower",
                 "chi_tilde_upper"],
        rows=rows,
        config_sha256=_config_sha256(config, "fig3"),
        seed=seed,
    )


def run_fig4(config: RunConfig, workers: int = 1) -> Table:
    """Saturation error ratio versus postselection angle, per input intensity.

    ``workers`` is accepted for compatibility and has no effect.
    """
    _check_reads(config, "fig4")
    if config.detector is None:
        raise ConfigError("fig4 needs a detector block (k_max, n_sat)")
    n_values = config.n_values or list(DEFAULT_N_VALUES)
    alphas = [coherent_amplitude(n, config.input_phase) for n in n_values]
    _build(check_readout_domain, beta_mag=config.lo.beta_mag,
           alpha_mag=max(map(abs, alphas)), det=config.detector)
    config = config._replace(chi=FIG4_DEFAULT_CHI if config.chi is None else config.chi,
                             n_values=n_values, scan=ScanSpec("theta2", _theta2_grid(config)))
    grid = config.scan.grid
    points = error_ratio_fields(grid, config.chi, config.gamma, alphas, config.lo,
                                config.detector)
    rows: list[list[object]] = []
    for n_photons in n_values:
        # With grid first, zip takes exactly one block of points.
        for theta2, fields in zip(grid, points):
            if fields is None:
                rows.append([theta2, n_photons, None, None, None])
            else:
                rows.append([theta2, n_photons, fields[0], fields[1], fields[5]])
    return Table(["theta2", "n_photons", "n1", "n2", "eta_e"], rows,
                 _config_sha256(config, "fig4"))


def run_single(config: RunConfig) -> dict:
    """One JSON record with every derived quantity at a single working point.

    Quantities that are undefined at the configured point (weak value and
    saturation bias at an exact dark point, phase of a vanishing amplitude)
    are emitted as null, by the same rule as fig4's sentinel rows.
    """
    _check_reads(config, "single")
    params = config.mzi_params()
    lo = config.lo
    fields = propagate_mzi(params)
    sha = _config_sha256(config, "single")

    point = weak_values([params.theta2], params.gamma)[0]
    a_w = None if point is None else point[3].real
    record: dict[str, object] = {
        "config_sha256": sha,
        "alpha_f": {"re": fields.alpha_f.real, "im": fields.alpha_f.imag},
        "alpha_fbar": {"re": fields.alpha_fbar.real, "im": fields.alpha_fbar.imag},
        "port_intensity": fields.intensity_f,
        "complement_intensity": fields.intensity_fbar,
        "intensity_difference": intensity_difference(params),
        "quadrature_mean": quadrature_mean(fields.alpha_f, lo.effective_phase),
        "weak_value": a_w,
        "chi_tilde_aav": aav_phase([a_w], params.chi)[0],
    }

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
        _build(check_readout_domain, beta_mag=lo.beta_mag, alpha_mag=abs(params.alpha),
               det=config.detector)
        fields = next(error_ratio_fields([params.theta2], params.chi, params.gamma,
                                         [params.alpha], lo, config.detector))
        record["saturation"] = (None if fields is None
                                else SaturationReport(*fields)._asdict())
    return record


def _format_value(value: object, spec: str) -> str:
    if value is None:
        return "NA"
    if isinstance(value, int):
        return str(value)
    return format(float(value), spec)


def render_csv(table: Table, precision: int) -> str:
    """Fixed-precision CSV with a provenance comment line above the header."""
    seed = "none" if table.seed is None else table.seed
    lines = [
        f"# config_sha256={table.config_sha256} seed={seed}",
        ",".join(table.columns),
    ]
    spec = f".{precision}e"
    # One %-template formats a row of floats as format(v, spec) does each cell.
    template = ",".join(["%" + spec] * len(table.columns))
    floats = {float}
    for row in table.rows:
        if set(map(type, row)) == floats:
            lines.append(template % tuple(row))
        else:
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
        "config_sha256": table.config_sha256,
        "seed": table.seed,
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
        return expected is actual  # True == 1.0, but a flag is no number
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
