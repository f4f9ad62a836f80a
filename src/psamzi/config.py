"""Run-configuration loading, validation, and canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .homodyne import LoConfig
from .optics import MziParams, balanced_bs1, coherent_amplitude
from .saturation import DetectorParams

# theta2 for fig2 and fig4, the shot count m for fig3.
SCAN_VARIABLES = ("theta2", "m")
OUTPUT_FORMATS = ("csv", "json")

DEFAULT_N_PHOTONS = 100.0
DEFAULT_PRECISION = 12
DEFAULT_RUNS = 200
# Default LO amplitude; ten photons in the reference beam.
DEFAULT_BETA_MAG = math.sqrt(10.0)

_TOP_KEYS = {"mzi", "lo", "detector", "shots", "scan", "output", "chi_values", "n_values"}
_MZI_KEYS = {"theta1", "theta2", "gamma", "chi", "n_photons", "input_phase"}
_LO_KEYS = {"beta_mag", "xi", "delta"}
_DETECTOR_KEYS = {"k_max", "n_sat"}
_SHOTS_KEYS = {"seed", "runs"}
_SCAN_KEYS = {"variable", "grid"}
_OUTPUT_KEYS = {"path", "format", "precision"}


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

    ``theta1`` is always pi/4: every closed form assumes a balanced first
    splitter, so ``load_config`` rejects any other value.  ``theta2`` and
    ``chi`` stay None when the config omits them; each runner
    either scans them, fills its own documented default, or rejects the run.
    """

    theta1: float = math.pi / 4
    theta2: float | None = None
    gamma: float = 0.0
    chi: float | None = None
    n_photons: float = DEFAULT_N_PHOTONS
    input_phase: float = 0.0
    lo: LoConfig | None = None
    detector: DetectorParams | None = None
    shots: ShotSpec | None = None
    scan: ScanSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)
    chi_values: list[float] | None = None
    n_values: list[float] | None = None

    def mzi_params(
        self,
        theta2: float | None = None,
        chi: float | None = None,
        gamma: float | None = None,
        n_photons: float | None = None,
    ) -> MziParams:
        """Build interferometer parameters, overriding individual knobs."""
        use_theta2 = self.theta2 if theta2 is None else theta2
        use_chi = self.chi if chi is None else chi
        if use_theta2 is None:
            raise ConfigError("mzi.theta2 is required for this run")
        if use_chi is None:
            raise ConfigError("mzi.chi is required for this run")
        n = self.n_photons if n_photons is None else n_photons
        try:
            return MziParams(
                theta2=use_theta2,
                chi=use_chi,
                alpha=coherent_amplitude(n, self.input_phase),
                theta1=self.theta1,
                gamma=self.gamma if gamma is None else gamma,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def lo_config(self) -> LoConfig:
        """The configured LO, or the default one phased for peak sensitivity."""
        if self.lo is not None:
            return self.lo
        return LoConfig(beta_mag=DEFAULT_BETA_MAG, xi=math.pi / 2 + self.input_phase)


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _section(raw: dict, name: str, keys: set[str]) -> dict:
    """The object ``raw[name]``, {} when absent, with unknown keys rejected."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    _require_keys(section, keys, name)
    return section


def _number(section: dict, key: str, where: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def _integer(section: dict, key: str, where: str) -> int:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _number_list(value: object, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of numbers")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ConfigError(f"{where} must contain only numbers, got {entry!r}")
        if not math.isfinite(entry):
            raise ConfigError(f"{where} must contain only finite numbers")
        out.append(float(entry))
    return out


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


def _check_scan(scan: ScanSpec) -> ScanSpec:
    if scan.variable not in SCAN_VARIABLES:
        raise ConfigError(
            f"scan.variable must be one of {SCAN_VARIABLES}, got {scan.variable!r}"
        )
    if not all(math.isfinite(x) for x in scan.grid):
        raise ConfigError("scan.grid must contain only finite numbers")
    if not strictly_monotone(scan.grid):
        raise ConfigError("scan.grid must be strictly monotone")
    return scan


def _parse_scan(section: dict) -> ScanSpec:
    if "variable" not in section or "grid" not in section:
        raise ConfigError("scan requires both 'variable' and 'grid'")
    return _check_scan(
        ScanSpec(section["variable"], _number_list(section["grid"], "scan.grid"))
    )


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
    before any computation starts.
    """
    raw: dict = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.exists():
            raise ConfigError(f"config file not found: {file_path}")
        try:
            raw = json.loads(file_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {file_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")

    _require_keys(raw, _TOP_KEYS, "top-level")
    config = RunConfig()

    mzi = _section(raw, "mzi", _MZI_KEYS)
    if "theta1" in mzi:
        config.theta1 = _number(mzi, "theta1", "mzi")
        if not balanced_bs1(config.theta1):
            raise ConfigError("mzi.theta1 must be pi/4: every closed form "
                              "assumes a balanced first splitter")
    if "theta2" in mzi:
        config.theta2 = _number(mzi, "theta2", "mzi")
    if "gamma" in mzi:
        config.gamma = _number(mzi, "gamma", "mzi")
    if "chi" in mzi:
        config.chi = _number(mzi, "chi", "mzi")
    if "n_photons" in mzi:
        config.n_photons = _number(mzi, "n_photons", "mzi")
        if config.n_photons < 0:
            raise ConfigError("mzi.n_photons must be >= 0")
    if "input_phase" in mzi:
        config.input_phase = _number(mzi, "input_phase", "mzi")

    if "lo" in raw:
        lo = _section(raw, "lo", _LO_KEYS)
        if "beta_mag" not in lo:
            raise ConfigError("lo.beta_mag is required when lo is present")
        try:
            config.lo = LoConfig(
                beta_mag=_number(lo, "beta_mag", "lo"),
                xi=_number(lo, "xi", "lo")
                if "xi" in lo
                else math.pi / 2 + config.input_phase,
                delta=_number(lo, "delta", "lo") if "delta" in lo else 0.0,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if "detector" in raw:
        det = _section(raw, "detector", _DETECTOR_KEYS)
        if "k_max" not in det or "n_sat" not in det:
            raise ConfigError("detector requires both 'k_max' and 'n_sat'")
        try:
            config.detector = DetectorParams(
                k_max=_number(det, "k_max", "detector"),
                n_sat=_number(det, "n_sat", "detector"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if "shots" in raw:
        sh = _section(raw, "shots", _SHOTS_KEYS)
        spec = ShotSpec()
        if "seed" in sh:
            spec.seed = _integer(sh, "seed", "shots")
        if "runs" in sh:
            spec.runs = _integer(sh, "runs", "shots")
            if spec.runs < 2:
                raise ConfigError("shots.runs must be >= 2")
        config.shots = spec

    if "scan" in raw:
        config.scan = _parse_scan(_section(raw, "scan", _SCAN_KEYS))

    if "output" in raw:
        output = _section(raw, "output", _OUTPUT_KEYS)
        spec = OutputSpec()
        if "path" in output:
            spec.path = str(output["path"])
        if "format" in output:
            if output["format"] not in OUTPUT_FORMATS:
                raise ConfigError(
                    f"output.format must be one of {OUTPUT_FORMATS}, "
                    f"got {output['format']!r}"
                )
            spec.format = output["format"]
        if "precision" in output:
            spec.precision = _integer(output, "precision", "output")
            if not 1 <= spec.precision <= 17:
                raise ConfigError("output.precision must lie in [1, 17]")
        config.output = spec

    if "chi_values" in raw:
        config.chi_values = _number_list(raw["chi_values"], "chi_values")
    if "n_values" in raw:
        values = _number_list(raw["n_values"], "n_values")
        if any(v < 0 for v in values):
            raise ConfigError("n_values must be >= 0")
        config.n_values = values

    # CLI overrides win over the file.
    if scan is not None:
        config.scan = _check_scan(scan)
    if seed is not None:
        if config.shots is None:
            config.shots = ShotSpec()
        config.shots.seed = seed
    if out is not None:
        config.output.path = out
    if fmt is not None:
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(f"format must be one of {OUTPUT_FORMATS}, got {fmt!r}")
        config.output.format = fmt
    return config


def config_hash(resolved: dict) -> str:
    """SHA-256 over the canonical JSON form of a resolved parameter dict."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
