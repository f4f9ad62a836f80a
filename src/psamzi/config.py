"""Run-configuration loading, validation, and canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import namedtuple

from .errors import ConfigError
from .homodyne import LoConfig
from .optics import MziParams, coherent_amplitude
from .saturation import DetectorParams

# theta2 for fig2 and fig4, the shot count m for fig3.
SCAN_VARIABLES = ("theta2", "m")
OUTPUT_FORMATS = ("csv", "json")

DEFAULT_N_PHOTONS = 100.0
DEFAULT_INPUT_PHASE = 0.0
DEFAULT_PRECISION = 12
DEFAULT_RUNS = 200
# Default LO amplitude; ten photons in the reference beam.
DEFAULT_BETA_MAG = math.sqrt(10.0)


class ScanSpec(namedtuple("ScanSpec", "variable grid")):
    __slots__ = ()


class ShotSpec(namedtuple("ShotSpec", "seed runs", defaults=(None, DEFAULT_RUNS))):
    __slots__ = ()


class OutputSpec(namedtuple("OutputSpec", "path format precision",
                            defaults=(None, "csv", DEFAULT_PRECISION))):
    __slots__ = ()


class RunConfig(namedtuple("RunConfig", [
        "lo", "theta2", "gamma", "chi", "n_photons", "input_phase", "detector", "shots",
        "scan", "output", "chi_values", "n_values", "keys"],
        defaults=[None, 0.0, None, DEFAULT_N_PHOTONS, DEFAULT_INPUT_PHASE, None, ShotSpec(),
                  None, OutputSpec(), None, None, ()])):
    """Resolved configuration for one CLI run.

    ``theta2`` and ``chi`` stay None when the config omits them; each runner
    either scans them, fills its own documented default, or rejects the run.
    ``lo`` is the configured LO, or the default one phased for peak sensitivity.
    ``keys`` names each key the file and the flags set, such as ``mzi.chi``.
    """

    __slots__ = ()

    def mzi_params(self) -> MziParams:
        """Build the interferometer parameters of the configured working point."""
        if self.theta2 is None:
            raise ConfigError("mzi.theta2 is required for this run")
        if self.chi is None:
            raise ConfigError("mzi.chi is required for this run")
        return _build(MziParams, theta2=self.theta2, chi=self.chi, gamma=self.gamma,
                      alpha=coherent_amplitude(self.n_photons, self.input_phase))


def _build(cls, **values):
    """``cls(**values)``, with the ValueError of its own checks as a ConfigError.

    ``cls`` is a class, or a check that returns nothing.
    """
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got an integer of "
                          f"{len(str(value))} digits") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _integer(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _string(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


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


def _list(parse):
    """A nonempty list whose entry ``i`` passes ``parse`` as ``name[i]``."""
    def check(value: object, name: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty list of numbers")
        return [parse(entry, f"{name}[{i}]") for i, entry in enumerate(value)]
    return check


_number_list = _list(_number)


def _grid(value: object, name: str) -> list[float]:
    grid = _number_list(value, name)
    if not strictly_monotone(grid):
        raise ConfigError(f"{name} must be strictly monotone")
    return grid


# The only list of each section's keys, with the parser that checks its value.
# The keys equal the fields of the record the section builds.
_SECTIONS = {
    "mzi": {"theta2": _number, "gamma": _number, "chi": _number,
            "n_photons": _bounded(_number, 0), "input_phase": _number},
    "lo": {"beta_mag": _number, "xi": _number},
    "detector": {"k_max": _number, "n_sat": _number},
    "shots": {"seed": _bounded(_integer, 0), "runs": _bounded(_integer, 2)},
    "scan": {"variable": _choice(SCAN_VARIABLES), "grid": _grid},
    "output": {"path": _string, "format": _choice(OUTPUT_FORMATS),
               "precision": _bounded(_integer, 1, 17)},
}
# The keys a section must hold when it is present.
_REQUIRED = {"lo": ("beta_mag",), "detector": ("k_max", "n_sat"),
             "scan": ("variable", "grid")}
# The top-level lists, each a RunConfig field of the same name.
_LISTS = {"chi_values": _number_list, "n_values": _list(_bounded(_number, 0))}
_TOP_KEYS = {*_SECTIONS, *_LISTS}


def _section(raw: dict, name: str) -> dict:
    """The object ``raw[name]``, {} if absent, checked against the schema.

    Every value is parsed before a missing required key is reported.
    """
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    parsers = _SECTIONS[name]
    _reject_unknown(section, set(parsers), name)
    values = {key: parse(section[key], f"{name}.{key}")
              for key, parse in parsers.items() if key in section}
    if name in raw:
        for key in _REQUIRED.get(name, ()):
            if key not in values:
                raise ConfigError(f"{name}.{key} is required when {name} is present")
    return values


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
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    return all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


def read_json_object(path: str | os.PathLike[str], what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file in errors."""
    try:
        with open(os.fspath(path), encoding="utf-8") as handle:  # fspath refuses an int fd
            text = handle.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except ValueError as exc:  # an integer too long for int()
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return raw


def load_config(
    path: str | os.PathLike[str] | None = None,
    *,
    scan: ScanSpec | None = None,
    seed: int | None = None,
    out: str | None = None,
    fmt: str | None = None,
) -> RunConfig:
    """Load a JSON config file and apply CLI overrides.

    Every file value and flag passes its schema rule before anything is
    built, so a malformed config fails before any computation starts; then
    each record is built once.
    """
    raw = {} if path is None else read_json_object(path, "config")
    _reject_unknown(raw, _TOP_KEYS, "top-level")
    values = {name: _section(raw, name) for name in _SECTIONS}
    lists = {key: parse(raw[key], key) for key, parse in _LISTS.items() if key in raw}
    # CLI flags win over the file; each passes its key's rule under its own name.
    if scan is not None:
        override = {"variable": scan.variable, "grid": list(scan.grid)}
        values["scan"] = _section({"scan": override}, "scan")
    if seed is not None:
        values["shots"]["seed"] = _SECTIONS["shots"]["seed"](seed, "seed")
    if out is not None:
        values["output"]["path"] = _SECTIONS["output"]["path"](out, "out")
    if fmt is not None:
        values["output"]["format"] = _SECTIONS["output"]["format"](fmt, "format")

    mzi, det = values["mzi"], values["detector"]
    xi = math.pi / 2 + mzi.get("input_phase", DEFAULT_INPUT_PHASE)
    return RunConfig(
        **mzi, **lists,
        lo=_build(LoConfig, **{"beta_mag": DEFAULT_BETA_MAG, "xi": xi, **values["lo"]}),
        detector=_build(DetectorParams, **det) if det else None,
        shots=ShotSpec(**values["shots"]),
        scan=ScanSpec(**values["scan"]) if values["scan"] else None,
        output=OutputSpec(**values["output"]),
        keys=(*(f"{name}.{key}" for name, section in values.items() for key in section),
              *lists),
    )


def config_hash(resolved: dict) -> str:
    """SHA-256 over the canonical JSON form of a resolved parameter dict."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
