"""Run-configuration loading, validation, and canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .homodyne import LoConfig
from .optics import MziParams, coherent_amplitude
from .saturation import DetectorParams, check_lo_strength

# theta2 for fig2 and fig4, the shot count m for fig3.
SCAN_VARIABLES = ("theta2", "m")
OUTPUT_FORMATS = ("csv", "json")

DEFAULT_N_PHOTONS = 100.0
DEFAULT_INPUT_PHASE = 0.0
DEFAULT_PRECISION = 12
DEFAULT_RUNS = 200
# Default LO amplitude; ten photons in the reference beam.
DEFAULT_BETA_MAG = math.sqrt(10.0)


@dataclass
class ScanSpec:
    variable: str
    grid: list[float]


@dataclass
class ShotSpec:
    seed: int | None = None
    runs: int = DEFAULT_RUNS


@dataclass
class OutputSpec:
    path: str | None = None
    format: str = "csv"
    precision: int = DEFAULT_PRECISION


@dataclass
class RunConfig:
    """Resolved configuration for one CLI run.

    ``theta2`` and ``chi`` stay None when the config omits them; each runner
    either scans them, fills its own documented default, or rejects the run.
    ``lo`` is the configured LO, or the default one phased for peak sensitivity.
    """

    lo: LoConfig
    theta2: float | None = None
    gamma: float = 0.0
    chi: float | None = None
    n_photons: float = DEFAULT_N_PHOTONS
    input_phase: float = DEFAULT_INPUT_PHASE
    detector: DetectorParams | None = None
    shots: ShotSpec = field(default_factory=ShotSpec)
    scan: ScanSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)
    chi_values: list[float] | None = None
    n_values: list[float] | None = None

    def mzi_params(self, theta2: float | None = None,
                   chi: float | None = None) -> MziParams:
        """Build interferometer parameters, overriding theta2 or chi."""
        use_theta2 = self.theta2 if theta2 is None else theta2
        use_chi = self.chi if chi is None else chi
        if use_theta2 is None:
            raise ConfigError("mzi.theta2 is required for this run")
        if use_chi is None:
            raise ConfigError("mzi.chi is required for this run")
        return _build(MziParams, theta2=use_theta2, chi=use_chi, gamma=self.gamma,
                      alpha=coherent_amplitude(self.n_photons, self.input_phase))


def _build(cls, **values):
    """``cls(**values)``, with the ValueError of its own checks as a ConfigError.

    ``cls`` is a class, or a check that returns nothing.
    """
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _integer(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _string(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _number_list(value: object, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ConfigError(f"{name} must contain only numbers, got {entry!r}")
        if not math.isfinite(entry):
            raise ConfigError(f"{name} must contain only finite numbers")
        out.append(float(entry))
    return out


def _choice(options: tuple[str, ...]):
    def parse(value: object, name: str) -> str:
        if value not in options:
            raise ConfigError(f"{name} must be one of {options}, got {value!r}")
        return value
    return parse


def _bounded(parse, low: int, high: int | None = None):
    """``parse``, then require ``low <= value``, and ``value <= high`` if given."""
    def check(value: object, name: str):
        value = parse(value, name)
        if high is None and value < low:
            raise ConfigError(f"{name} must be >= {low}")
        if high is not None and not low <= value <= high:
            raise ConfigError(f"{name} must lie in [{low}, {high}]")
        return value
    return check


# The only list of each section's keys, with the parser that checks its value.
# The keys equal the fields of the dataclass the section builds.
_SECTIONS = {
    "mzi": {"theta2": _number, "gamma": _number, "chi": _number,
            "n_photons": _bounded(_number, 0), "input_phase": _number},
    "lo": {"beta_mag": _number, "xi": _number, "delta": _number},
    "detector": {"k_max": _number, "n_sat": _number},
    "shots": {"seed": _bounded(_integer, 0), "runs": _bounded(_integer, 2)},
    "scan": {"variable": _choice(SCAN_VARIABLES), "grid": _number_list},
    "output": {"path": _string, "format": _choice(OUTPUT_FORMATS),
               "precision": _bounded(_integer, 1, 17)},
}
_TOP_KEYS = {*_SECTIONS, "chi_values", "n_values"}


def _section(raw: dict, name: str) -> dict:
    """The object ``raw[name]``, {} if absent, checked against ``_SECTIONS``."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    parsers = _SECTIONS[name]
    _require_keys(section, set(parsers), name)
    return {key: parse(section[key], f"{name}.{key}")
            for key, parse in parsers.items() if key in section}


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num >= 1`` evenly spaced points from ``start`` to ``stop``, both included.

    The float arithmetic is numpy.linspace's, step by step, so the grid is the
    same to the bit; non-finite endpoints give non-finite points, not errors.
    """
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        # numpy's branch for a subnormal step: scale by delta after dividing.
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def strictly_monotone(grid: list[float]) -> bool:
    if len(grid) < 2:
        return True
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    return all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


def _scan(values: dict) -> ScanSpec:
    if values.keys() != _SECTIONS["scan"].keys():
        raise ConfigError("scan requires both 'variable' and 'grid'")
    if not strictly_monotone(values["grid"]):
        raise ConfigError("scan.grid must be strictly monotone")
    return ScanSpec(**values)


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file in errors."""
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {file_path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {file_path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {file_path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return raw


def load_config(
    path: str | Path | None = None,
    *,
    scan: ScanSpec | None = None,
    seed: int | None = None,
    out: str | None = None,
    fmt: str | None = None,
) -> RunConfig:
    """Load a JSON config file and apply CLI overrides.

    Every recognized section is validated eagerly so a malformed config fails
    before any computation starts.  An override passes the same value rule as
    its config key.
    """
    raw = {} if path is None else read_json_object(path, "config")
    _require_keys(raw, _TOP_KEYS, "top-level")
    mzi, lo, det, shots, scan_values, output = (_section(raw, n) for n in _SECTIONS)

    if "lo" in raw and "beta_mag" not in lo:
        raise ConfigError("lo.beta_mag is required when lo is present")
    xi = math.pi / 2 + mzi.get("input_phase", DEFAULT_INPUT_PHASE)
    lo = _build(LoConfig, **{"beta_mag": DEFAULT_BETA_MAG, "xi": xi, **lo})
    config = RunConfig(**mzi, lo=lo, shots=ShotSpec(**shots),
                       output=OutputSpec(**output))
    if "detector" in raw:
        if det.keys() != _SECTIONS["detector"].keys():
            raise ConfigError("detector requires both 'k_max' and 'n_sat'")
        config.detector = _build(DetectorParams, **det)
    if "scan" in raw:
        config.scan = _scan(scan_values)
    if "chi_values" in raw:
        config.chi_values = _number_list(raw["chi_values"], "chi_values")
    if "n_values" in raw:
        config.n_values = _number_list(raw["n_values"], "n_values")
        if any(v < 0 for v in config.n_values):
            raise ConfigError("n_values must be >= 0")
    if config.detector is not None:
        n_max = max([config.n_photons, *(config.n_values or [])])
        _build(check_lo_strength, beta_mag=lo.beta_mag,
               alpha_mag=abs(coherent_amplitude(n_max, config.input_phase)))

    # CLI overrides win over the file.
    if scan is not None:
        override = {"variable": scan.variable, "grid": list(scan.grid)}
        config.scan = _scan(_section({"scan": override}, "scan"))
    if seed is not None:
        config.shots.seed = _SECTIONS["shots"]["seed"](seed, "seed")
    if out is not None:
        config.output.path = _SECTIONS["output"]["path"](out, "out")
    if fmt is not None:
        config.output.format = _SECTIONS["output"]["format"](fmt, "format")
    return config


def config_hash(resolved: dict) -> str:
    """SHA-256 over the canonical JSON form of a resolved parameter dict."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
