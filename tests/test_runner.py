"""Config loading, figure runners, CLI exit codes, and output determinism."""

import cmath
import copy
import json
import math
import os
import pickle
import random
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psamzi
from psamzi import (
    ConfigError,
    DarkPointSingularity,
    DetectorParams,
    LoConfig,
    MziParams,
    ZeroAmplitude,
    ZeroSignal,
    averaged_stats,
    chi_tilde_aav,
    chi_tilde_exact,
    coherent_amplitude,
    error_ratio,
    propagate_mzi,
    quadrature_mean,
    quadrature_stats_exact,
    uncertainty_vs_m,
    weak_value,
)
from psamzi.cli import main
from psamzi.config import (
    _LISTS,
    _REQUIRED,
    _SECTIONS,
    _TOP_KEYS,
    DEFAULT_BETA_MAG,
    OutputSpec,
    RunConfig,
    ScanSpec,
    ShotSpec,
    linspace,
    load_config,
)
from psamzi.homodyne import phase_slope
from psamzi.runner import (
    BLOCK_SHOTS,
    DEFAULT_M_GRID,
    DEFAULT_THETA2_GRID_POINTS,
    DEFAULT_THETA2_GRID_START,
    DEFAULT_THETA2_GRID_STOP,
    FIG3_DEFAULT_CHI,
    FIG3_DEFAULT_THETA2,
    Table,
    _cpu_count,
    default_theta2_grid,
    render_csv,
    render_table_json,
    run_fig2,
    run_fig3,
    run_fig4,
    run_single,
)
from psamzi.shots import draw_shots

import scalar_chain

NEAR_DARK = math.pi / 4 - 0.003
# fig3 m values on both sides of the block cap; runs 2 and 7 leave remainders.
BLOCK_CAP_M = [1, 3, 16383, 16384, 16385, 40000]


def read_csv(path):
    """Parse one of our CSVs into (comment, columns, rows-of-strings)."""
    lines = path.read_text().splitlines()
    comment, header, *rows = lines
    return comment, header.split(","), [line.split(",") for line in rows]


def cell(row, columns, name):
    value = row[columns.index(name)]
    return None if value == "NA" else float(value)


@pytest.fixture
def fig4_config(tmp_path):
    path = tmp_path / "fig4.json"
    path.write_text(
        json.dumps(
            {
                "lo": {"beta_mag": math.sqrt(10.0)},
                "detector": {"k_max": 450.0, "n_sat": 500.0},
                "scan": {"variable": "theta2", "grid": [0.1, 0.3, math.pi / 4 - 0.01]},
                "n_values": [100.0, 2000.0],
            }
        )
    )
    return str(path)


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for raw in ({"mzi": {"theta_two": 0.7}}, {"shots": {"m": 10}}):
            path.write_text(json.dumps(raw))
            with pytest.raises(ConfigError):
                load_config(path)

    def test_non_monotone_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"scan": {"variable": "theta2", "grid": [0.1, 0.3, 0.2]}})
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_scan_variable_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for variable in ("alpha", "chi", "gamma", "n"):
            path.write_text(json.dumps({"scan": {"variable": variable, "grid": [1, 2]}}))
            with pytest.raises(ConfigError):
                load_config(path)
            with pytest.raises(ConfigError):
                load_config(None, scan=ScanSpec(variable, [1.0, 2.0]))
            assert main(["fig2", "--scan", variable, "1", "2", "2"]) == 2

    def test_unbalanced_first_splitter_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for theta1 in (0.3, math.pi / 4):
            path.write_text(json.dumps({"mzi": {"theta1": theta1}}))
            with pytest.raises(ConfigError, match="unknown mzi keys"):
                load_config(path)

    def test_non_integer_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for raw in ({"shots": {"runs": 2.7}}, {"shots": {"seed": 1.0}},
                    {"output": {"precision": 12.5}}):
            path.write_text(json.dumps(raw))
            with pytest.raises(ConfigError):
                load_config(path)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"output": {"format": "xml"}}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("raw, overrides, message", [
        ([1], {}, "config root must be a JSON object"),
        ({"mzii": {}}, {}, "unknown top-level keys: ['mzii']"),
        *(({name: [1]}, {}, f"{name} must be an object")
          for name in ("mzi", "lo", "detector", "shots", "scan", "output")),
        ({"mzi": {"chi": "0.1"}}, {}, "mzi.chi must be a number, got '0.1'"),
        ({"mzi": {"chi": True}}, {}, "mzi.chi must be a number, got True"),
        ({"mzi": {"n_photons": -1}}, {}, "mzi.n_photons must be >= 0"),
        ({"lo": {"xi": 0.1}}, {}, "lo.beta_mag is required when lo is present"),
        ({"lo": {"beta_mag": 0}}, {}, "LO amplitude must be positive, got 0.0"),
        ({"lo": {"beta_mag": 1, "phase": 0}}, {}, "unknown lo keys: ['phase']"),
        ({"detector": {"k_max": 1}}, {},
         "detector.n_sat is required when detector is present"),
        ({"detector": {"k_max": -1, "n_sat": 5}}, {},
         "detector parameters must be positive, got k_max=-1.0, n_sat=5.0"),
        ({"shots": {"runs": 1}}, {}, "shots.runs must be >= 2"),
        ({"scan": {"variable": "m"}}, {}, "scan.grid is required when scan is present"),
        ({"scan": {"variable": "m", "grid": []}}, {},
         "scan.grid must be a nonempty list of numbers"),
        ({"scan": {"variable": "m", "grid": [1, "2"]}}, {},
         "scan.grid[1] must be a number, got '2'"),
        ({"scan": {"variable": "m", "grid": [1], "step": 1}}, {},
         "unknown scan keys: ['step']"),
        ({"output": {"precision": 0}}, {}, "output.precision must lie in [1, 17]"),
        ({"output": {"precision": 18}}, {}, "output.precision must lie in [1, 17]"),
        ({"output": {"indent": 2}}, {}, "unknown output keys: ['indent']"),
        ({"chi_values": 0.1}, {}, "chi_values must be a nonempty list of numbers"),
        ({"chi_values": []}, {}, "chi_values must be a nonempty list of numbers"),
        ({"n_values": [10, -1]}, {}, "n_values[1] must be >= 0"),
        (None, {}, "config file not found: "),
        ({}, {"fmt": "xml"}, "format must be one of ('csv', 'json'), got 'xml'"),
        ({"shots": {"seed": -5}}, {}, "shots.seed must be >= 0"),
        ({}, {"seed": -1}, "seed must be >= 0"),
        ({"output": {"path": None}}, {}, "output.path must be a string, got None"),
        ({"output": {"path": 7}}, {}, "output.path must be a string, got 7"),
        # Python's json reads NaN, which is not a finite number.
        ({"mzi": {"chi": math.nan}}, {}, "mzi.chi must be finite, got nan"),
        ({"lo": {}}, {}, "lo.beta_mag is required when lo is present"),
        ({"detector": {"n_sat": 5}}, {},
         "detector.k_max is required when detector is present"),
        ({"scan": {"grid": [1]}}, {}, "scan.variable is required when scan is present"),
        ({"chi_values": [0.1, math.inf]}, {}, "chi_values[1] must be finite, got inf"),
        ({"scan": {"variable": "m", "grid": [1, 3, 2]}}, {},
         "scan.grid must be strictly monotone"),
        ({}, {"scan": ScanSpec("theta2", [math.nan])},
         "scan.grid[0] must be finite, got nan"),
        ({}, {"scan": ScanSpec("theta2", [0.2, 0.1, 0.3])},
         "scan.grid must be strictly monotone"),
        ({"detector": {"k_max": "x"}}, {}, "detector.k_max must be a number, got 'x'"),
        # An integer past the largest float, and one too long for int() (a str
        # is the file's text).
        ({"mzi": {"chi": 10**400}}, {}, "mzi.chi must be finite, got an integer of 401 digits"),
        ({"n_values": [1, -10**400]}, {},
         "n_values[1] must be finite, got an integer of 402 digits"),
        pytest.param('{"mzi": {"chi": 1' + "0" * 4300 + "}}", {},
                     "cannot read config file {path}: Exceeds the limit (4300 digits)",
                     id="integer past int()"),
    ])
    def test_rejection_messages(self, tmp_path, raw, overrides, message):
        path = tmp_path / "cfg.json"
        if raw is not None:
            path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        with pytest.raises(ConfigError, match=re.escape(message.format(path=path))):
            load_config(path, **overrides)

    def test_readme_example_covers_schema(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
        path = tmp_path / "readme.json"
        path.write_text(block)
        load_config(path)
        raw = json.loads(block)
        assert set(raw) == _TOP_KEYS
        for name, parsers in _SECTIONS.items():
            assert set(raw[name]) == set(parsers), name

    def test_defaults(self):
        config = load_config(None)
        assert config.gamma == 0.0
        assert config.input_phase == 0.0
        assert config.output.precision == 12
        assert config.n_photons == 100.0
        assert config.lo == LoConfig(beta_mag=DEFAULT_BETA_MAG, xi=math.pi / 2)
        assert config.shots == ShotSpec()

    def test_cli_overrides(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"shots": {"seed": 1}}))
        config = load_config(
            path,
            scan=ScanSpec(variable="m", grid=[10.0, 100.0]),
            seed=99,
            fmt="json",
        )
        assert config.shots.seed == 99
        assert config.scan.variable == "m"
        assert config.output.format == "json"


# The config keys each subcommand reads, as the README's table states them.
READ_KEYS = {
    "fig2": {"mzi.gamma", "mzi.n_photons", "chi_values", "scan.variable", "scan.grid",
             "output.path", "output.format", "output.precision"},
    "fig3": {*(f"mzi.{key}" for key in _SECTIONS["mzi"]), "lo.beta_mag", "lo.xi",
             "lo.delta", "shots.seed", "shots.runs", "scan.variable", "scan.grid",
             "output.path", "output.format", "output.precision"},
    "fig4": {"mzi.chi", "mzi.gamma", "mzi.input_phase", "lo.beta_mag", "lo.xi", "lo.delta",
             "detector.k_max", "detector.n_sat", "n_values", "scan.variable", "scan.grid",
             "output.path", "output.format", "output.precision"},
    "single": {*(f"mzi.{key}" for key in _SECTIONS["mzi"]), "lo.beta_mag", "lo.xi",
               "lo.delta", "detector.k_max", "detector.n_sat", "output.path"},
}
# What each subcommand needs to run at all: fig3 a seed, fig4 a detector and
# single a working point.
MINIMAL = {"fig2": {}, "fig3": {"shots": {"seed": 1, "runs": 2}},
           "fig4": {"detector": {"k_max": 450.0, "n_sat": 500.0}},
           "single": {"mzi": {"theta2": 0.7, "chi": 0.01}}}
# A value for every key, and a second one for every key a run hashes.
BASE = {
    "mzi": {"theta2": 0.7, "gamma": 0.0, "chi": 0.01, "n_photons": 100.0,
            "input_phase": 0.0},
    "lo": {"beta_mag": 3.0, "xi": 1.0, "delta": 0.0},
    "detector": {"k_max": 450.0, "n_sat": 500.0},
    "shots": {"seed": 1, "runs": 2},
    "output": {"path": "out.txt", "format": "csv", "precision": 12},
    "chi_values": [0.01], "n_values": [100.0],
}
OTHER = {
    "mzi.theta2": 0.6, "mzi.gamma": 0.1, "mzi.chi": 0.02, "mzi.n_photons": 50.0,
    "mzi.input_phase": 0.3, "lo.beta_mag": 4.0, "lo.xi": 1.2, "lo.delta": 0.01,
    "detector.k_max": 400.0, "detector.n_sat": 600.0, "shots.seed": 2, "shots.runs": 3,
    "output.precision": 6, "chi_values": [0.02], "n_values": [50.0],
}
ALL_KEYS = [*(f"{name}.{key}" for name, keys in _SECTIONS.items() for key in keys),
            *_LISTS]
# Read keys that change no data byte and stay out of the hash.
UNHASHED = {"output.path", "output.format", "scan.variable"}
# A run of each subcommand built by hand with every section present: its
# RunConfig names no keys, so it passes the read check whatever its fields hold.
HAND = RunConfig(LoConfig(3.0, 1.0), detector=DetectorParams(450.0, 500.0),
                 shots=ShotSpec(1, 2))
HAND_BUILT = {
    "fig2": HAND._replace(scan=ScanSpec("theta2", [0.5, 0.6])),
    "fig3": HAND._replace(scan=ScanSpec("m", [1, 10])),
    "fig4": HAND._replace(scan=ScanSpec("theta2", [0.5, 0.6])),
    "single": HAND._replace(theta2=0.7, chi=0.01),
}


def _base(command):
    """BASE with the scan block of ``command``'s variable."""
    grid = [1, 10] if command == "fig3" else [0.5, 0.6]
    return {**BASE, "scan": {"variable": "m" if command == "fig3" else "theta2",
                             "grid": grid}}


def _with(raw, key, value, command):
    """A copy of ``raw`` with ``key`` set to ``value``.

    A section that needs keys gets them from ``_base(command)`` if it lacks them.
    """
    name, _, field = key.partition(".")
    if not field:
        return {**raw, key: value}
    required = {k: _base(command)[name][k] for k in _REQUIRED.get(name, ())}
    return {**raw, name: {**required, **raw.get(name, {}), field: value}}


def _get(raw, key):
    name, _, field = key.partition(".")
    return raw[name][field] if field else raw[name]


def _set_field(config, key, value):
    """``config`` with ``key`` set to ``value``."""
    name, _, field = key.partition(".")
    if name == "mzi" or not field:
        return config._replace(**{field or name: value})
    return config._replace(**{name: getattr(config, name)._replace(**{field: value})})


def _sha(command, raw, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return _run_sha(command, load_config(path))


def _run_sha(command, config):
    if command == "single":
        return run_single(config)["config_sha256"]
    return {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4}[command](config).config_sha256


class TestReads:
    """Each subcommand accepts exactly the config keys it reads, and hashes them."""

    def test_every_subcommand_key_pair(self, tmp_path, capsys):
        assert sum(map(len, READ_KEYS.values())) == 48
        pairs = [(command, key) for command in MINIMAL for key in ALL_KEYS]
        assert len(pairs) == 76
        rejected = []
        for command, key in pairs:
            raw = _with(MINIMAL[command], key, _get(_base(command), key), command)
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(raw))
            code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if key in READ_KEYS[command]:
                assert (code, err) == (0, ""), (command, key)
                continue
            rejected.append(key)
            # A section that needs keys is read whole or not at all; the first
            # key it needs is the first one named.
            name = key.partition(".")[0]
            named = f"{name}.{_REQUIRED[name][0]}" if name in _REQUIRED else key
            assert code == 2, (command, key)
            assert err.startswith(f"config error: {command} does not read {named}; "
                                  "it reads "), (command, key, err)
        assert len(rejected) == 28

    @pytest.mark.parametrize("command", list(MINIMAL))
    def test_every_read_key_changes_the_hash(self, tmp_path, command):
        hashed = READ_KEYS[command] - UNHASHED
        base = MINIMAL[command]
        for key in hashed:
            base = _with(base, key, _get(_base(command), key), command)
        sha = _sha(command, base, tmp_path)
        for key in sorted(hashed):
            other = {"scan.grid": [1, 20] if command == "fig3" else [0.5, 0.7]}
            changed = _with(base, key, {**OTHER, **other}[key], command)
            assert _sha(command, changed, tmp_path) != sha, key

    @pytest.mark.parametrize("command", list(MINIMAL))
    def test_no_other_key_changes_the_hash(self, command):
        # Every key but the hashed ones, less the scan keys, which a run of
        # another variable (or single, any scan) rejects.
        keys = [key for key in ALL_KEYS
                if key not in READ_KEYS[command] - UNHASHED and not key.startswith("scan.")]
        assert len(keys) == {"fig2": 13, "fig3": 6, "fig4": 7, "single": 7}[command]
        values = {**OTHER, "output.path": "other.txt", "output.format": "json"}
        config = HAND_BUILT[command]
        sha = _run_sha(command, config)
        for key in keys:
            assert _run_sha(command, _set_field(config, key, values[key])) == sha, key


# One record of each kind the package defines.
RECORDS = [
    MziParams(0.1, 0.0, 1 + 0j, gamma=0.2), psamzi.PortFields(1j, 1.0),
    psamzi.WeakValue(1.0, 1.0, 2.0, 0.5), psamzi.AmplifiedPhase(0.1, 1.0),
    LoConfig(4.0, 1.2), psamzi.QuadratureStats(0.1, 0.5, 0.2, 0.3),
    DetectorParams(400.0, 600.0), psamzi.SaturationReport(1.0, 2.0, 0.1, 0.1, 0.2, 0.01),
    psamzi.ChiEstimate(0.1, 0.01), psamzi.UncertaintyPoint(1, 0.1, 0.0, 0.2),
    ScanSpec("theta2", [0.1]), ShotSpec(), OutputSpec(), RunConfig(LoConfig(4.0, 1.2)),
    Table(["chi"], [[0.1]], "sha"),
]


class TestRecords:
    """The records are immutable named tuples with their dataclass-era keys and reprs."""

    def test_asdict_keys(self):
        # The config hash reads each LO and detector field by its config key's
        # name, and single's record reads the saturation report through _asdict.
        assert list(LoConfig(4.0, 1.2, 0.01)._asdict().items()) == [
            ("beta_mag", 4.0), ("xi", 1.2), ("delta", 0.01)]
        assert list(DetectorParams(400.0, 600.0)._asdict().items()) == [
            ("k_max", 400.0), ("n_sat", 600.0)]
        assert list(psamzi.SaturationReport(*range(6))._asdict()) == [
            "n1", "n2", "x_linear", "x_saturated", "chi_tilde_biased", "eta_e"]

    def test_gamma_is_keyword_only(self):
        with pytest.raises(TypeError):
            MziParams(0.1, 0.0, 1 + 0j, 0.2)
        assert MziParams(0.1, 0.0, 1 + 0j, gamma=0.2).gamma == 0.2

    def test_repr(self):
        assert repr(LoConfig(4.0, 1.2)) == "LoConfig(beta_mag=4.0, xi=1.2, delta=0.0)"
        assert (repr(MziParams(0.1, 0.0, 1 + 0j, gamma=0.2))
                == "MziParams(theta2=0.1, chi=0.0, alpha=(1+0j), gamma=0.2)")

    @pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
    def test_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0

    @pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
    def test_copy_and_pickle(self, record):
        for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record

    @pytest.mark.parametrize("record, change, message", [
        (MziParams(0.1, 0.0, 1 + 0j), {"theta2": 2.0}, "theta2 must lie in"),
        (LoConfig(4.0, 1.2), {"beta_mag": 0.0}, "LO amplitude must be positive"),
        (DetectorParams(400.0, 600.0), {"n_sat": math.inf}, "must be finite"),
    ])
    def test_replace_checks(self, record, change, message):
        # _replace and _make build through the constructor, so they run the
        # same checks, and an unknown field is the constructor's TypeError.
        with pytest.raises(ValueError, match=message):
            record._replace(**change)
        with pytest.raises(ValueError, match=message):
            type(record)._make({**record._asdict(), **change}.values())
        with pytest.raises(TypeError):
            record._replace(bogus=1)


def _hex_grid(values):
    return [float(x).hex() for x in values]


def _numpy_grid(start, stop, num):
    with np.errstate(all="ignore"):
        return _hex_grid(np.linspace(start, stop, num))


class TestLinspace:
    """``config.linspace`` against ``np.linspace``, bit for bit via ``float.hex``."""

    def test_random_spans(self):
        rng = random.Random(2026)
        for case in range(10_000):
            start, stop = (
                rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308) for _ in range(2)
            )
            if case % 2:
                # A narrow span, where the step's rounding matters most.
                stop = start * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, 0))
            num = rng.randint(61, 2001) if case % 100 == 0 else rng.randint(1, 60)
            assert _hex_grid(linspace(start, stop, num)) == _numpy_grid(start, stop, num)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(st.floats(), st.floats(), st.integers(1, 100))
    def test_any_floats(self, start, stop, num):
        assert _hex_grid(linspace(start, stop, num)) == _numpy_grid(start, stop, num)

    @pytest.mark.parametrize("start, stop, num", [
        (-0.0, 1.0, 1), (-0.0, -1.0, 1), (-0.0, 0.0, 1), (-0.0, -0.0, 1), (0.0, -2.0, 1),
        (0.3, 0.3, 1), (0.3, 0.3, 5), (-0.0, -0.0, 4), (-7.5, -7.5, 3),
        # 5e-324 / 2 rounds to 0: numpy's subnormal branch.
        (0.0, 5e-324, 3), (-1e-323, 1e-323, 11),
        (math.inf, math.inf, 1), (math.inf, math.inf, 3), (-math.inf, math.inf, 4),
        (0.0, math.inf, 3), (math.nan, 1.0, 3), (0.0, math.nan, 1), (-1e308, 1e308, 5),
        (DEFAULT_THETA2_GRID_START, DEFAULT_THETA2_GRID_STOP, DEFAULT_THETA2_GRID_POINTS),
        (0.6, 0.95, 2001),
    ])
    def test_edge_spans(self, start, stop, num):
        assert _hex_grid(linspace(start, stop, num)) == _numpy_grid(start, stop, num)

    def test_default_theta2_grid(self):
        expected = _numpy_grid(
            DEFAULT_THETA2_GRID_START, DEFAULT_THETA2_GRID_STOP, DEFAULT_THETA2_GRID_POINTS
        )
        assert _hex_grid(default_theta2_grid()) == expected


class TestFig2:
    def test_reference_row(self):
        config = load_config(None, scan=ScanSpec("theta2", [NEAR_DARK]))
        table = run_fig2(config)
        assert table.columns[:2] == ["chi", "theta2"]
        by_chi = {row[0]: row for row in table.rows}
        small, large = by_chi[1e-4], by_chi[1e-2]
        aav = table.columns.index("chi_tilde_aav")
        exact = table.columns.index("chi_tilde_exact")
        assert abs(large[aav] - 1.6717) < 1e-3
        assert abs(large[exact] - 1.0354) < 1e-3
        assert abs(large[aav] - large[exact]) / large[exact] > 0.30
        assert abs(small[aav] - small[exact]) / small[exact] < 1e-2

    def test_unrotated_postselection_row(self):
        config = load_config(None, scan=ScanSpec("theta2", [0.0]))
        table = run_fig2(config)
        for row in table.rows:
            chi = row[0]
            assert math.isclose(row[2], chi, rel_tol=1e-12)
            assert math.isclose(row[3], chi, rel_tol=1e-12)
            assert math.isclose(row[4], 1.0, rel_tol=1e-12)

    def test_dark_point_sentinel(self):
        config = load_config(None, scan=ScanSpec("theta2", [math.pi / 4]))
        table = run_fig2(config)
        assert table.sentinel_only
        assert all(row[2] is None for row in table.rows)

    def test_rejects_wrong_scan_variable(self):
        config = load_config(None, scan=ScanSpec("m", [1.0, 2.0]))
        with pytest.raises(ConfigError, match="^fig2 scans theta2, got scan variable 'm'$"):
            run_fig2(config)

    def test_default_grid_avoids_singularity(self):
        table = run_fig2(load_config(None))
        assert len(table.rows) == 400  # 200 angles x 2 couplings
        assert table.sentinel_rows == 0


class TestFig3:
    def test_columns_and_scaling(self):
        config = load_config(None, scan=ScanSpec("m", [1.0, 100.0]), seed=31415)
        table = run_fig3(config)
        sens = table.columns.index("sensitivity")
        mc = table.columns.index("sensitivity_mc")
        first, last = table.rows[0], table.rows[-1]
        assert math.isclose(last[sens] / first[sens], 10.0, rel_tol=1e-12)
        assert abs(first[sens] - 0.0616034) < 1e-6
        for row in table.rows:
            assert abs(row[mc] - row[sens]) / row[sens] < 0.2
        lower = table.columns.index("chi_tilde_lower")
        upper = table.columns.index("chi_tilde_upper")
        assert (last[upper] - last[lower]) < (first[upper] - first[lower])

    def test_mc_tracks_analytic_over_default_grid(self):
        # 0.2 is 4 sigma of a sample std over runs = 200 batch means.
        table = run_fig3(load_config(None, seed=31415))
        assert [row[0] for row in table.rows] == DEFAULT_M_GRID
        sens = table.columns.index("sensitivity")
        mc = table.columns.index("sensitivity_mc")
        for row in table.rows:
            assert abs(row[mc] - row[sens]) / row[sens] < 0.2

    @pytest.mark.parametrize("mzi, seed, runs, grid", [
        ({}, 7, 200, [1, 3, 50, 2000]),
        ({"theta2": math.pi / 4 + 0.01, "chi": -0.02, "gamma": 0.05}, 3, 2, [1, 3, 50, 2000]),
        ({}, 11, 2, BLOCK_CAP_M),
        ({"theta2": math.pi / 4 + 0.01, "chi": -0.02, "gamma": 0.05}, 5, 7, BLOCK_CAP_M),
    ], ids=["mzi0-7-200", "mzi1-3-2", "block-cap-11-2", "block-cap-5-7"])
    def test_mc_seeding_contract(self, tmp_path, mzi, seed, runs, grid):
        # Row i's batches are the rows of one (runs, m) block of standard
        # normals from default_rng([seed, i]).
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mzi": mzi, "shots": {"seed": seed, "runs": runs},
                                    "scan": {"variable": "m", "grid": grid}}))
        config = load_config(path)
        table = run_fig3(config)
        params = config._replace(
            theta2=mzi.get("theta2", FIG3_DEFAULT_THETA2), chi=mzi.get("chi", FIG3_DEFAULT_CHI)
        ).mzi_params()
        amp = chi_tilde_exact(params)
        mean = quadrature_mean(propagate_mzi(params).alpha_f, config.lo.effective_phase)
        mc = table.columns.index("sensitivity_mc")
        for i, row in enumerate(table.rows):
            block = np.random.default_rng([seed, i]).standard_normal((runs, row[0]))
            std_mc = (mean + 0.5 * block).mean(axis=1).std(ddof=1)
            expected = amp.chi_tilde * phase_slope(amp) / std_mc
            assert math.isclose(row[mc], expected, rel_tol=1e-12)

    @pytest.mark.parametrize("grid, runs", [
        (None, 200),
        (BLOCK_CAP_M, 2),
        (BLOCK_CAP_M[::-1], 7),
    ])
    def test_bytes_independent_of_cpus_and_blocks(self, tmp_path, monkeypatch, grid, runs):
        # The reference draws one batch per call on one thread, as a plain loop would.
        shots = {"seed": 17, "runs": runs}
        scan = {} if grid is None else {"scan": {"variable": "m", "grid": grid}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"shots": shots, **scan}))
        config = load_config(path)
        draws = []

        def recording_draw(rng, mean, shape):
            draws.append((threading.get_ident(), shape))
            return draw_shots(rng, mean, shape)

        monkeypatch.setattr("psamzi.runner.draw_shots", recording_draw)
        monkeypatch.setattr("psamzi.runner.BLOCK_SHOTS", 1)
        monkeypatch.setattr("psamzi.runner._cpu_count", lambda: 1)
        expected = render_csv(run_fig3(config), 12)
        m_grid = grid or DEFAULT_M_GRID
        assert len(draws) == runs * len(m_grid)
        # One thread takes the rows in turn, largest m first.
        assert [shape[1] for _, shape in draws[::runs]] == sorted(m_grid, reverse=True)
        for block in (1, 5, BLOCK_SHOTS):
            for cpus in (1, 2, 16):
                monkeypatch.setattr("psamzi.runner.BLOCK_SHOTS", block)
                monkeypatch.setattr("psamzi.runner._cpu_count", lambda: cpus)
                draws.clear()
                assert render_csv(run_fig3(config), 12) == expected
                assert len({thread for thread, _ in draws}) <= min(cpus, len(m_grid))
                for _, (k, m) in draws:
                    assert 1 <= k <= runs and (k * m <= block or k == 1)

    def test_cpu_count_without_affinity(self, monkeypatch):
        # Where os has no sched_getaffinity, every CPU counts, and at least one.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, expected in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert _cpu_count() == expected

    def test_draw_error_propagates(self, monkeypatch):
        config = load_config(None, seed=23)
        expected = render_csv(run_fig3(config), 12)
        threads = threading.active_count()
        error = RuntimeError("draw failed")

        def failing_draw(rng, mean, shape):
            if shape[1] == 50:
                raise error
            return draw_shots(rng, mean, shape)

        monkeypatch.setattr("psamzi.runner._cpu_count", lambda: 2)
        monkeypatch.setattr("psamzi.runner.draw_shots", failing_draw)
        with pytest.raises(RuntimeError) as excinfo:
            run_fig3(config)
        assert excinfo.value is error
        assert threading.active_count() == threads
        monkeypatch.setattr("psamzi.runner.draw_shots", draw_shots)
        assert render_csv(run_fig3(config), 12) == expected

    def test_columns_match_library_past_dark_point(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mzi": {"theta2": math.pi / 4 + 0.01, "chi": -0.02, "gamma": 0.05,
                    "input_phase": -0.7},
            "shots": {"runs": 7, "seed": 5},
        }))
        config = load_config(path)
        table = run_fig3(config)
        params = config.mzi_params()
        stats = quadrature_stats_exact(params)
        m_grid = [row[0] for row in table.rows]
        for row, point in zip(table.rows, uncertainty_vs_m(params, m_grid), strict=True):
            cells = dict(zip(table.columns, row))
            assert cells["chi_tilde"] == point.chi_tilde
            assert cells["chi_tilde_lower"] == point.lower
            assert cells["chi_tilde_upper"] == point.upper
            assert cells["sensitivity"] == averaged_stats(point.m, stats).sensitivity

    def test_requires_seed(self):
        config = load_config(None, scan=ScanSpec("m", [1.0, 10.0]))
        with pytest.raises(ConfigError):
            run_fig3(config)

    def test_rejects_wrong_scan_variable(self):
        config = load_config(None, scan=ScanSpec("theta2", [0.1, 0.2]), seed=1)
        with pytest.raises(ConfigError, match="^fig3 scans m, got scan variable 'theta2'$"):
            run_fig3(config)

    @pytest.mark.parametrize("big", [1e12, 1e300])
    def test_rejects_m_too_large_to_draw(self, tmp_path, monkeypatch, capsys, big):
        # The cap holds before any batch is drawn or allocated.
        def no_draws(*args):
            raise AssertionError("fig3 drew shots for an m grid past MAX_SHOTS")

        monkeypatch.setattr("psamzi.runner.draw_shots", no_draws)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scan": {"variable": "m", "grid": [1, big]}}))
        with pytest.raises(ConfigError, match=r"must lie in \[1, 10000000\]"):
            run_fig3(load_config(path, seed=1))
        assert main(["fig3", "--seed", "1", "--scan", "m", "1", repr(big), "2"]) == 2
        assert capsys.readouterr().err == (
            "config error: fig3 m grid entries must lie in [1, 10000000]\n")

    def test_rejects_m_grid_that_rounds_to_duplicates(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scan": {"variable": "m", "grid": [1.2, 1.4]}}))
        with pytest.raises(ConfigError):
            run_fig3(load_config(path, seed=1))
        # --scan m 1 2 5 rounds to 1,1,2,2,2.
        assert main(["fig3", "--seed", "7", "--scan", "m", "1", "2", "5"]) == 2


class TestFig4:
    def test_suppression_with_postselection(self, fig4_config):
        table = run_fig4(load_config(fig4_config))
        eta = table.columns.index("eta_e")
        rows_2000 = [row for row in table.rows if row[1] == 2000.0]
        by_theta2 = {row[0]: row[eta] for row in rows_2000}
        assert by_theta2[math.pi / 4 - 0.01] < by_theta2[0.1]
        rows_100 = [row for row in table.rows if row[1] == 100.0]
        assert all(
            small[eta] < big[eta]
            for small, big in zip(rows_100, rows_2000)
            if big[eta] > 0.1
        )

    def test_missing_detector(self):
        config = load_config(None, scan=ScanSpec("theta2", [0.1, 0.2]))
        with pytest.raises(ConfigError):
            run_fig4(config)

    def test_rejects_wrong_scan_variable(self, fig4_config):
        config = load_config(fig4_config, scan=ScanSpec("m", [1.0, 2.0]))
        with pytest.raises(ConfigError, match="^fig4 scans theta2, got scan variable 'm'$"):
            run_fig4(config)

    def test_dark_point_sentinel(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "detector": {"k_max": 450.0, "n_sat": 500.0},
                    "scan": {"variable": "theta2", "grid": [math.pi / 4]},
                }
            )
        )
        table = run_fig4(load_config(path))
        assert table.sentinel_only


class TestSingle:
    def test_reference_record(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "mzi": {"theta2": NEAR_DARK, "chi": 1e-2, "n_photons": 100.0},
                    "detector": {"k_max": 450.0, "n_sat": 500.0},
                }
            )
        )
        record = run_single(load_config(path))
        assert abs(record["chi_tilde_exact"] - 1.035379179481) < 1e-9
        assert abs(record["weak_value"] - 167.166166666364) < 1e-9
        assert abs(record["sensitivity"] - 0.061603421585) < 1e-9
        assert abs(record["quadrature_mean"] - 0.050148938950) < 1e-9
        assert "saturation" in record and record["saturation"]["eta_e"] >= 0.0

    def test_dark_record_uses_nulls(self):
        config = load_config(None)._replace(theta2=math.pi / 4, chi=0.0)
        record = run_single(config)
        assert abs(record["alpha_f"]["re"]) < 1e-12
        assert record["chi_tilde_exact"] is None
        assert record["weak_value"] is None
        assert abs(record["quadrature_mean"]) < 1e-14

    def test_rejects_scan_block(self):
        config = load_config(None, scan=ScanSpec("theta2", [0.1]))
        config = config._replace(theta2=0.3, chi=1e-3)
        with pytest.raises(ConfigError):
            run_single(config)

    def test_requires_working_point(self):
        with pytest.raises(ConfigError):
            run_single(load_config(None))


class TestCli:
    def test_fig2_csv_output(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["fig2", "--scan", "theta2", "0.6", "0.78", "4", "--out", str(out)])
        assert code == 0
        comment, columns, rows = read_csv(out)
        assert comment.startswith("# config_sha256=")
        assert "seed=none" in comment
        assert columns[0] == "chi"
        assert len(rows) == 8

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (first, second):
            code = main(
                ["fig3", "--seed", "7", "--scan", "m", "10", "1000", "3",
                 "--out", str(out)]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
        main(["fig2", "--out", str(serial)])
        main(["fig2", "--workers", "4", "--out", str(threaded)])
        assert serial.read_bytes() == threaded.read_bytes()

    @pytest.mark.parametrize("argv, raw, message", [
        (["fig2", "--scan", "theta2", "a", "1", "3"], None,
         "bad --scan values: could not convert string to float: 'a'"),
        (["fig2", "--scan", "theta2", "0", "1", "0"], None, "--scan POINTS must be >= 1"),
        (["single"], {"mzi": {"theta2": 0.7}}, "mzi.chi is required for this run"),
    ], ids=["scan not a number", "scan no points", "single without chi"])
    def test_error_message_exit_2(self, tmp_path, capsys, argv, raw, message):
        if raw is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            argv = argv + ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    def test_aav_overflow_fig2_exits_0(self, tmp_path):
        # Re(a_w) * 1e308 overflows once a_w > 1.8: NA in chi_tilde_aav only.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chi_values": [1e308]}))
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        aav = columns.index("chi_tilde_aav")
        overflowed = [row for row in rows if row[aav] == "NA"]
        assert 0 < len(overflowed) < len(rows) == DEFAULT_THETA2_GRID_POINTS
        assert all(cell(row, columns, "weak_value") * 1e308 == math.inf
                   for row in overflowed)
        assert all(row.count("NA") == (row[aav] == "NA") for row in rows)
        config = load_config(cfg)
        assert run_fig2(config).sentinel_rows == 0

    def test_aav_overflow_single_exits_0(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mzi": {"theta2": 0.5, "chi": 1e308}}))
        assert main(["single", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["chi_tilde_aav"] is None
        assert record["weak_value"] * 1e308 == math.inf
        assert record["chi_tilde_exact"] is not None

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fig2", "--config", str(bad)]) == 2
        assert main(["fig3", "--scan", "m", "1", "100", "2"]) == 2  # no seed
        assert main(["fig4"]) == 2  # no detector
        assert main(["fig3", "--seed", "-1"]) == 2
        # One-point grids pass the monotone check but are not finite.
        assert main(["fig3", "--seed", "1", "--scan", "m", "nan", "nan", "1"]) == 2
        assert main(["fig2", "--scan", "theta2", "inf", "inf", "1"]) == 2
        # A finite span too wide for a float gives a non-finite grid.
        assert main(["fig2", "--scan", "theta2", "-1" + "0" * 308, "1e308", "3"]) == 2

    @pytest.mark.parametrize("flag, content, message", [
        ("--config", None, "cannot read config file"),
        ("--config", b"{\"mzi\": {\"chi\": \"\xff\"}}", "cannot read config file"),
        ("--self-check", b"{not json", "invalid JSON in"),
        ("--self-check", b"[1, 2]", "expected-values root must be a JSON object"),
    ])
    def test_unreadable_file_exit_code(self, tmp_path, capsys, flag, content, message):
        # A directory, a non-UTF-8 file, malformed JSON and a non-object root
        # are configuration errors, not tracebacks or self-check mismatches.
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"mzi": {"theta2": 0.7, "chi": 1e-3}}))
        if flag == "--config":
            argv = ["single", "--config", str(path)]
        else:
            argv = ["single", "--config", str(point), "--self-check", str(path)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, message", [
        ("--config", '{"mzi": {"chi": 1' + "0" * 400 + "}}",
         "mzi.chi must be finite, got an integer of 401 digits\n"),
        ("--config", '{"mzi": {"chi": 1' + "0" * 4300 + "}}",
         "cannot read config file {path}: Exceeds the limit (4300 digits)"),
        ("--self-check", '{"snr": 1' + "0" * 4300 + "}",
         "cannot read expected-values file {path}: Exceeds the limit (4300 digits)"),
    ], ids=["past the largest float", "config past int()", "self-check past int()"])
    def test_huge_integer_exits_2(self, tmp_path, capsys, flag, text, message):
        # Neither is a traceback with the exit code of a self-check mismatch.
        path = tmp_path / "input.json"
        path.write_text(text)
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"mzi": {"theta2": 0.7, "chi": 1e-3}}))
        config = str(path) if flag == "--config" else str(point)
        argv = ["single", "--config", config] + ([] if flag == "--config" else
                                                 [flag, str(path)])
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "config error: " + message.format(path=path))

    @pytest.mark.parametrize("command", [["fig2"], ["single"]], ids=["fig2", "single"])
    @pytest.mark.parametrize("target", ["directory", "missing/out.csv"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, command, target):
        # An output path that cannot be written is a configuration error,
        # not a traceback with the exit code of a self-check mismatch.
        (tmp_path / "directory").mkdir()
        point = tmp_path / "point.json"
        raw = ({"mzi": {"theta2": 0.7, "chi": 1e-3}} if command == ["single"]
               else {"chi_values": [1e-3]})
        point.write_text(json.dumps(raw))
        argv = command + ["--config", str(point), "--out", str(tmp_path / target)]
        assert main(argv) == 2
        assert "cannot write output file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig2", "--seed", "5"],
        ["fig4", "--seed", "5"],
        ["single", "--seed", "5"],
        ["single", "--format", "csv"],
        ["single", "--scan", "theta2", "0.1", "0.2", "2"],
    ])
    def test_flags_a_subcommand_does_not_read_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("mzi, lo", [
        # |beta| = |alpha_f| with the LO in antiphase drives one detector
        # count to zero; rounding must not make it negative.
        ({"theta2": 0.2958013512305811, "chi": 0.13486065828518845,
          "n_photons": 1737.4101612151605},
         {"beta_mag": 19.71380496708275, "xi": 3.3350847892594393}),
        # a strong LO with x_bar < 0: 2|beta| |x_bar| / N_sat is about 719,
        # past the overflow point of exp; the readout is tiny but finite.
        ({"theta2": 0.3, "chi": -1.0, "n_photons": 1e5}, {"beta_mag": 1000.0}),
    ], ids=["balanced", "strong"])
    def test_extreme_lo_exits_0(self, tmp_path, capsys, mzi, lo):
        extreme = {"mzi": mzi, "lo": lo, "detector": {"k_max": 450.0, "n_sat": 500.0}}
        single_cfg = tmp_path / "single.json"
        single_cfg.write_text(json.dumps(extreme))
        fig4_cfg = tmp_path / "fig4.json"
        fig4_cfg.write_text(json.dumps({
            **extreme, "mzi": {"chi": mzi["chi"]}, "n_values": [mzi["n_photons"]],
            "scan": {"variable": "theta2", "grid": [mzi["theta2"]]},
        }))
        assert main(["single", "--config", str(single_cfg)]) == 0
        saturation = json.loads(capsys.readouterr().out)["saturation"]
        assert min(saturation["n1"], saturation["n2"]) >= 0.0
        assert all(math.isfinite(value) for value in saturation.values())
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--config", str(fig4_cfg), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert min(cell(rows[0], columns, "n1"), cell(rows[0], columns, "n2")) >= 0.0
        assert math.isfinite(cell(rows[0], columns, "eta_e"))

    def test_single_and_fig4_agree_at_dark_point(self, tmp_path, capsys):
        # Exact dark postselection makes the linear inversion degenerate, so
        # both report no saturation bias there.
        detector = {"k_max": 450.0, "n_sat": 500.0}
        fig4_cfg = tmp_path / "fig4.json"
        fig4_cfg.write_text(json.dumps({
            "mzi": {"chi": 0.01}, "detector": detector, "n_values": [100.0],
            "scan": {"variable": "theta2", "grid": [math.pi / 4]},
        }))
        single_cfg = tmp_path / "single.json"
        single_cfg.write_text(json.dumps({
            "mzi": {"theta2": math.pi / 4, "chi": 0.01, "n_photons": 100.0},
            "detector": detector,
        }))
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--config", str(fig4_cfg), "--out", str(out)]) == 3
        _, columns, rows = read_csv(out)
        assert [cell(rows[0], columns, "eta_e")] == [None]
        assert main(["single", "--config", str(single_cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["saturation"] is None
        assert record["chi_tilde_exact"] is not None

    def test_sentinel_only_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"scan": {"variable": "theta2", "grid": [math.pi / 4]}})
        )
        out = tmp_path / "dark.csv"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 3
        assert "NA" in out.read_text()

    @pytest.mark.parametrize("mzi, sha", [
        ({"n_photons": 0},
         "2946a2a13ca5fc8bfccbf0c80aad2ebb40f8512d5f9ec45ad53fd2c6a9d1e6b1"),
        ({"theta2": math.pi / 4, "chi": 0.0},
         "fff8f8458c30349ffe205d0f5077c5c6457f5eab14c00bb0de3fb910ffae1842"),
    ], ids=["no_photons", "dark_zero_phase"])
    def test_fig3_without_amplified_phase(self, tmp_path, monkeypatch, mzi, sha):
        # No port field means no amplified phase: every row keeps its m, holds
        # NA elsewhere and counts as a sentinel, and no shot is drawn.
        def no_draws(*args):
            raise AssertionError("fig3 drew shots at a point with no amplified phase")

        monkeypatch.setattr("psamzi.runner.draw_shots", no_draws)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mzi": mzi}))
        table = run_fig3(load_config(cfg, seed=1))
        assert table.rows == [[m] + [None] * 5 for m in DEFAULT_M_GRID]
        assert table.sentinel_rows == len(DEFAULT_M_GRID)
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--seed", "1", "--config", str(cfg), "--out", str(out)]) == 3
        comment, columns, rows = read_csv(out)
        assert comment == f"# config_sha256={sha} seed=1"
        assert rows == [[str(m)] + ["NA"] * 5 for m in DEFAULT_M_GRID]

    def test_json_table_format(self, tmp_path):
        out = tmp_path / "fig2.json"
        code = main(
            ["fig2", "--scan", "theta2", "0.6", "0.7", "3", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "chi"
        assert len(payload["rows"]) == 6
        assert payload["seed"] is None

    def test_single_self_check_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"mzi": {"theta2": 0.7, "chi": 1e-3, "n_photons": 50.0}})
        )
        record_path = tmp_path / "record.json"
        assert main(["single", "--config", str(cfg), "--out", str(record_path)]) == 0
        assert (
            main(["single", "--config", str(cfg), "--self-check", str(record_path)])
            == 0
        )
        tampered = json.loads(record_path.read_text())
        tampered["chi_tilde_exact"] *= 1.001
        record_path.write_text(json.dumps(tampered))
        assert (
            main(["single", "--config", str(cfg), "--self-check", str(record_path)])
            == 1
        )

    @pytest.mark.parametrize("theta2, edit, mismatch", [
        (0.7, lambda e: e.update(extra=1.0), "missing key 'extra'"),
        (0.7, lambda e: e.pop("snr"), "unexpected key 'snr'"),
        (0.7, lambda e: e.update(chi_tilde_exact=None),
         "chi_tilde_exact: expected None, got "),
        (0.7, lambda e: e["saturation"].update(eta_e=e["saturation"]["eta_e"] * 1.001),
         "saturation: expected {"),
        (0.7, lambda e: e["saturation"].pop("eta_e"), "saturation: expected {"),
        # The weak value at theta2 0 is exactly 1.0, which == and isclose take for True.
        (0.0, lambda e: e.update(weak_value=True), "weak_value: expected True, got 1.0"),
    ], ids=["missing key", "unexpected key", "null against number", "saturation field",
            "saturation key", "bool against number"])
    def test_self_check_mismatch_names_key(self, tmp_path, capsys, theta2, edit, mismatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mzi": {"theta2": theta2, "chi": 1e-3},
                                   "detector": {"k_max": 450.0, "n_sat": 500.0}}))
        record_path = tmp_path / "record.json"
        assert main(["single", "--config", str(cfg), "--out", str(record_path)]) == 0
        expected = json.loads(record_path.read_text())
        edit(expected)
        record_path.write_text(json.dumps(expected))
        argv = ["single", "--config", str(cfg), "--self-check", str(record_path)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"self-check mismatch: {mismatch}")

    @pytest.mark.parametrize("where", ["--out", "output.path"])
    def test_self_check_reads_no_output_path(self, tmp_path, capsys, where):
        # The self-check writes no record; writing it would overwrite the
        # expected file of a config that names that file as its output.
        record_path = tmp_path / "record.json"
        raw = {"mzi": {"theta2": 0.7, "chi": 1e-3}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["single", "--config", str(cfg), "--out", str(record_path)]) == 0
        expected = record_path.read_text()
        out = tmp_path / "record2.json"
        argv = ["single", "--config", str(cfg), "--self-check", str(record_path)]
        if where == "--out":
            argv += ["--out", str(out)]
        else:
            cfg.write_text(json.dumps({**raw, "output": {"path": str(record_path)}}))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "config error: single --self-check does not "
                                       "read output.path, from --out or the config "
                                       "file: the self-check writes no record\n")
        assert not out.exists() and record_path.read_text() == expected

    @pytest.mark.parametrize("command", ["fig2", "fig4"])
    def test_grid_past_half_pi_exit_code(self, tmp_path, capsys, command):
        cfg = tmp_path / "det.json"
        raw = {"detector": {"k_max": 450.0, "n_sat": 500.0}} if command == "fig4" else {}
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(cfg), "--scan", "theta2", "1.5", "1.7", "5",
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "config error: theta2 must lie in [0, pi/2], got 1.6\n"
        assert not out.exists()

    def test_csv_precision_is_explicit(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"precision": 6}}))
        out = tmp_path / "fig2.csv"
        main(["fig2", "--config", str(cfg), "--scan", "theta2", "0.6", "0.7", "2",
              "--out", str(out)])
        _, columns, rows = read_csv(out)
        value = rows[0][columns.index("chi_tilde_exact")]
        mantissa = value.split("e")[0]
        assert len(mantissa.split(".")[1]) == 6


def test_render_csv_sentinel_token():
    table = Table(
        columns=["a", "b"],
        rows=[[1.0, None]],
        config_sha256="deadbeef",
    )
    text = render_csv(table, 3)
    assert "NA" in text.splitlines()[2]
    assert table.sentinel_rows == 1


def test_sentinel_rows_read_the_last_cell():
    # fig2 leaves chi_tilde_aav NA on a row that is not a sentinel.
    rows = [[1.0, None, 2.0], [1.0, 2.0, None], [None, None, None], [1.0, 2.0, 3.0]]
    table = Table(columns=["a", "b", "c"], rows=rows, config_sha256="deadbeef")
    assert table.sentinel_rows == 2
    assert not table.sentinel_only
    assert Table(["a"], [[None]], "deadbeef").sentinel_only


DETECTOR = {"k_max": 450.0, "n_sat": 500.0}
# Both halves end on pi/4, so the grid holds the dark point.
THROUGH_DARK = linspace(0.6, math.pi / 4, 6) + linspace(math.pi / 4, 0.95, 6)[1:]


def _config(tmp_path, raw, grid=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return load_config(path, scan=None if grid is None else ScanSpec("theta2", grid))


def _reference_json(table):
    doc = {"config_sha256": table.config_sha256, "seed": table.seed,
           "columns": table.columns, "rows": table.rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _reference_csv(table, precision):
    seed = table.seed
    lines = [f"# config_sha256={table.config_sha256} "
             f"seed={'none' if seed is None else seed}", ",".join(table.columns)]
    for row in table.rows:
        cells = []
        for value in row:
            if value is None:
                cells.append("NA")
            elif isinstance(value, int):
                cells.append(str(value))
            else:
                cells.append(f"{value:.{precision}e}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _tables(tmp_path):
    tables = {}
    for name, grid in (("default", None), ("through pi/4", THROUGH_DARK),
                       ("[pi/4]", [math.pi / 4])):
        tables[f"fig2 {name}"] = run_fig2(_config(tmp_path, {}, grid))
        tables[f"fig4 {name}"] = run_fig4(_config(tmp_path, {"detector": DETECTOR}, grid))
    fig3 = _config(tmp_path, {"shots": {"seed": 5, "runs": 3},
                              "scan": {"variable": "m", "grid": [1, 10, 100]}})
    tables["fig3"] = run_fig3(fig3)
    tables["no rows"] = Table(columns=["a", "b"], rows=[], config_sha256="0" * 64)
    return tables


class TestRenderBytes:
    @pytest.mark.parametrize("precision", [1, 12, 17])
    def test_renderers_match_references(self, tmp_path, precision):
        tables = _tables(tmp_path)
        assert tables["fig4 [pi/4]"].sentinel_only
        assert 0 < tables["fig2 through pi/4"].sentinel_rows < 22
        assert isinstance(tables["fig3"].rows[0][0], int)
        for name, table in tables.items():
            assert render_table_json(table, precision) == _reference_json(table), name
            assert render_csv(table, precision) == _reference_csv(table, precision), name


# Seeded angles on both sides of the dark point, plus the dark point and 0.
_rng = random.Random(15)
RECORD_GRID = sorted(
    [0.0, math.pi / 4]
    + [_rng.uniform(0.05, math.pi / 4 - 1e-3) for _ in range(6)]
    + [_rng.uniform(math.pi / 4 + 1e-3, math.pi / 2) for _ in range(6)]
)
_SENTINELS = (DarkPointSingularity, ZeroAmplitude, ZeroSignal)


def _fig4_record(config, theta2, n_photons):
    try:
        params = MziParams(theta2=theta2, chi=config.chi, gamma=config.gamma,
                           alpha=coherent_amplitude(n_photons, config.input_phase))
        report = error_ratio(params, config.lo, config.detector)
    except _SENTINELS:
        return None
    return report


def _figure_raw(figure, mzi, lo, chi_values, n_values):
    """``mzi``, ``lo``, a detector and the lists, cut to the keys ``figure`` reads."""
    def pick(*keys):
        return {key: mzi[key] for key in keys}

    lo = {} if lo is None else {"lo": lo}
    if figure == "fig2":
        return {"mzi": pick("gamma", "n_photons"), "chi_values": chi_values}
    if figure == "fig4":
        return {"mzi": pick("chi", "gamma", "input_phase"), **lo, "detector": DETECTOR,
                "n_values": n_values}
    return {"mzi": mzi, **lo, "detector": DETECTOR}


@pytest.mark.parametrize("mzi, lo", [
    # abs(coherent_amplitude(150, 0.7)) is not sqrt(150) in floats.  chi = gamma
    # makes pi/4 a ZeroAmplitude point, and chi = 0 makes theta2 = 0 fig4's
    # ZeroSignal point.
    ({"gamma": 0.05, "input_phase": 0.7, "n_photons": 150.0, "chi": 0.05}, None),
    ({"gamma": 0.0, "input_phase": -1.1, "n_photons": 80.0, "chi": 0.0},
     {"beta_mag": 5.0, "xi": 1.2, "delta": 0.01}),
])
class TestScanRowsMatchRecords:
    """Every scan cell equals the record API's value, and NA its sentinel error."""

    def _scan_config(self, tmp_path, mzi, lo, figure):
        raw = _figure_raw(figure, mzi, lo, [1e-3, mzi["chi"], -0.02], [100.0, 2000.0])
        return _config(tmp_path, raw, None if figure == "single" else RECORD_GRID)

    def test_fig2(self, tmp_path, mzi, lo):
        config = self._scan_config(tmp_path, mzi, lo, "fig2")
        single = self._scan_config(tmp_path, mzi, lo, "single")
        table = run_fig2(config)
        gamma = config.gamma
        for chi, theta2, *cells in table.rows:
            params = config._replace(theta2=theta2, chi=chi).mzi_params()
            try:
                aav = chi_tilde_aav(params)
                exact = chi_tilde_exact(params)
                expected = [aav.chi_tilde, exact.chi_tilde,
                            weak_value(theta2, gamma).a_w.real, exact.alpha_f_mag**2]
            except _SENTINELS:
                expected = [None] * 4
            assert cells == expected, (chi, theta2)
            # One port field: fig2's intensity is single's, to the bit, at
            # fig2's input phase.
            single = single._replace(theta2=theta2, chi=chi, input_phase=config.input_phase)
            if cells[3] is not None:
                assert cells[3] == run_single(single)["port_intensity"], (chi, theta2)
        assert table.sentinel_rows == sum(row[2] is None for row in table.rows) > 0

    def test_fig4(self, tmp_path, mzi, lo):
        config = self._scan_config(tmp_path, mzi, lo, "fig4")
        table = run_fig4(config)
        for theta2, n_photons, *cells in table.rows:
            report = _fig4_record(config, theta2, n_photons)
            expected = ([None] * 3 if report is None
                        else [report.n1, report.n2, report.eta_e])
            assert cells == expected, (theta2, n_photons)
        assert table.sentinel_rows == sum(row[2] is None for row in table.rows) > 0

    def test_one_row_fig4_matches_single(self, tmp_path, mzi, lo):
        config = self._scan_config(tmp_path, mzi, lo, "fig4")
        single = self._scan_config(tmp_path, mzi, lo, "single")
        for theta2 in RECORD_GRID:
            config = config._replace(scan=ScanSpec("theta2", [theta2]),
                                     n_values=[single.n_photons])
            row = run_fig4(config).rows[0]
            single = single._replace(theta2=theta2)
            saturation = run_single(single)["saturation"]
            report = _fig4_record(single, theta2, single.n_photons)
            if report is None:
                assert saturation is None and row[2:] == [None] * 3
                continue
            assert saturation == report._asdict()
            assert row[2:] == [saturation["n1"], saturation["n2"], saturation["eta_e"]]


@pytest.mark.parametrize("mzi, lo", [
    # gamma != 0 leaves no dark angle, and fig2's chi = 0.05 = gamma makes
    # pi/4 a vanishing amplitude.
    ({"gamma": 0.05, "input_phase": 0.7, "n_photons": 150.0, "chi": -0.03},
     {"beta_mag": 5.0, "xi": 1.2, "delta": 1e-3}),
    # gamma = 0 makes pi/4 dark, and chi = 0 makes theta2 = 0 fig4's zero phase.
    ({"gamma": 0.0, "input_phase": -1.1, "n_photons": 80.0, "chi": 0.0},
     {"beta_mag": 2.0, "xi": 0.4, "delta": -0.02}),
], ids=["gamma", "dark"])
class TestScanMatchesScalarChain:
    """Every fig2 and fig4 cell equals the point-by-point chain of ``scalar_chain``."""

    def _scan_config(self, tmp_path, mzi, lo, figure):
        raw = _figure_raw(figure, mzi, lo, [1e-3, 0.05, -0.02], [0.0, 100.0, 2000.0])
        return _config(tmp_path, raw, RECORD_GRID)

    def test_fig2(self, tmp_path, mzi, lo):
        config = self._scan_config(tmp_path, mzi, lo, "fig2")
        table = run_fig2(config)
        alpha = cmath.rect(math.sqrt(config.n_photons), config.input_phase)
        expected = [[chi, theta2, *scalar_chain.fig2_cells(theta2, chi, config.gamma,
                                                           alpha)]
                    for chi in config.chi_values for theta2 in RECORD_GRID]
        assert table.rows == expected
        assert table.sentinel_rows == sum(row[2] is None for row in expected) > 0

    def test_fig4(self, tmp_path, mzi, lo):
        config = self._scan_config(tmp_path, mzi, lo, "fig4")
        table = run_fig4(config)
        beam, det = config.lo, config.detector
        expected = []
        for n_photons in config.n_values:
            alpha = cmath.rect(math.sqrt(n_photons), config.input_phase)
            expected += [
                [theta2, n_photons, *scalar_chain.fig4_cells(
                    theta2, config.chi, config.gamma, alpha, beam.beta_mag,
                    beam.xi + beam.delta, det.k_max, det.n_sat)]
                for theta2 in RECORD_GRID
            ]
        assert table.rows == expected
        assert table.sentinel_rows == sum(row[2] is None for row in expected)
        # The n = 0 block, first in the table, is NA throughout.
        assert all(row[2:] == [None] * 3 for row in table.rows[:len(RECORD_GRID)])


class TestThetaGridEdges:
    @pytest.mark.parametrize("command", ["fig2", "fig4"])
    @pytest.mark.parametrize("grid, bad", [([1.7, 1.2, 0.5], "1.7"),
                                           ([-0.1, 0.2, 0.5], "-0.1")])
    def test_first_angle_out_of_range(self, tmp_path, command, grid, bad):
        config = _config(tmp_path, {"detector": DETECTOR} if command == "fig4" else {}, grid)
        runner = {"fig2": run_fig2, "fig4": run_fig4}[command]
        with pytest.raises(ConfigError,
                           match=re.escape(f"theta2 must lie in [0, pi/2], got {bad}")):
            runner(config)

    @pytest.mark.parametrize("runner", [run_fig2, run_fig4], ids=["fig2", "fig4"])
    @pytest.mark.parametrize("field, value", [("n_photons", math.nan), ("gamma", math.inf),
                                              ("input_phase", math.nan)])
    def test_first_angle_build_rejects_non_finite(self, runner, field, value):
        # A hand-built RunConfig skips the config loader's number checks; the
        # working point built at the first angle is the check that remains.
        # Without it fig2 writes NaN rows.
        config = RunConfig(lo=LoConfig(beta_mag=DEFAULT_BETA_MAG, xi=math.pi / 2),
                           detector=DetectorParams(**DETECTOR),
                           scan=ScanSpec("theta2", [0.5, 0.6]), **{field: value})
        with pytest.raises(ConfigError, match="chi, gamma and alpha must be finite"):
            runner(config)

    @pytest.mark.parametrize("runner, sha", [
        (run_fig2, "905f3055b9dcc6889d3260b69aa60309d789c600fe9e137eff52c705b5567bf8"),
        (run_fig4, "839635c505b81f36aaad73e5fb3750bfd52506393f9003e0abc179840a758cef"),
    ], ids=["fig2", "fig4"])
    def test_empty_grid_gives_no_rows(self, runner, sha):
        config = RunConfig(lo=LoConfig(beta_mag=DEFAULT_BETA_MAG, xi=math.pi / 2),
                           detector=DetectorParams(**DETECTOR),
                           scan=ScanSpec("theta2", []))
        table = runner(config)
        assert table.rows == [] and table.sentinel_rows == 0
        assert table.config_sha256 == sha


class TestStrongLo:
    """(beta_mag + sqrt(2) |alpha|)**2 bounds the detector counts and must be finite.

    The rest of the readout's domain is checked by the same function.
    """

    MESSAGE = ("lo.beta_mag=1.4e+154 overflows the detector counts: "
               "(beta_mag + sqrt(2) * |alpha|)**2 must be finite, got |alpha|=10.0")

    def _configs(self, tmp_path, beta_mag):
        raw = {"mzi": {"theta2": 0.7, "chi": 0.01}, "lo": {"beta_mag": beta_mag},
               "detector": DETECTOR}
        single_cfg = tmp_path / "single.json"
        single_cfg.write_text(json.dumps(raw))
        fig4_cfg = tmp_path / "fig4.json"
        fig4_cfg.write_text(json.dumps({**raw, "mzi": {"chi": 0.01}, "n_values": [100.0],
                                        "scan": {"variable": "theta2", "grid": [0.7]}}))
        return str(single_cfg), str(fig4_cfg)

    def test_overflowing_lo_exits_2(self, tmp_path, capsys):
        single_cfg, fig4_cfg = self._configs(tmp_path, 1.4e154)
        for argv in (["single", "--config", single_cfg], ["fig4", "--config", fig4_cfg]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"config error: {self.MESSAGE}\n"

    def test_largest_finite_lo_exits_0(self, tmp_path, capsys):
        single_cfg, fig4_cfg = self._configs(tmp_path, 1.3e154)
        assert main(["single", "--config", single_cfg]) == 0
        saturation = json.loads(capsys.readouterr().out)["saturation"]
        assert all(math.isfinite(value) for value in saturation.values())
        assert main(["fig4", "--config", fig4_cfg]) == 0

    @pytest.mark.parametrize("command, raw, message", [
        # A key the run does not read is named before any bound on it.
        ("fig4", {"mzi": {"n_photons": 1e308}, "detector": DETECTOR},
         "fig4 does not read mzi.n_photons; it reads mzi.chi, mzi.gamma, "
         "mzi.input_phase, lo, detector, n_values, scan, output"),
        ("single", {"mzi": {"theta2": 0.7, "chi": 0.01}, "detector": DETECTOR,
                    "n_values": [1e308]},
         "single does not read n_values; it reads mzi, lo, detector, output.path"),
        # The bound names the largest |alpha| the run evaluates.
        ("fig4", {"mzi": {"chi": 0.01}, "lo": {"beta_mag": 1.4e154}, "detector": DETECTOR,
                  "n_values": [1.0]},
         MESSAGE.replace("|alpha|=10.0", "|alpha|=1.0")),
    ], ids=["fig4 n_photons", "single n_values", "fig4 n_values"])
    def test_bound_follows_the_read_check(self, tmp_path, capsys, command, raw, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_library_raises_value_error(self):
        params = MziParams(theta2=0.7, chi=0.01, alpha=10.0 + 0j)
        lo = LoConfig(beta_mag=1.4e154, xi=math.pi / 2)
        with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
            error_ratio(params, lo, DetectorParams(**DETECTOR))

    READOUT = ("the saturated readout {}flows: {} must be {}, got beta_mag={}, "
               "k_max={}, n_sat={}")

    @pytest.mark.parametrize("command, raw, message", [
        # k_max / (2|beta|) overflows: x_saturated was inf and the phase clipped
        # to pi/2, so eta_e read 1.074907434379e+02 and 2.379901629494e+01.
        ("fig4", {"mzi": {"chi": 0.01}, "lo": {"beta_mag": 1e-308}, "n_values": [100],
                  "scan": {"variable": "theta2", "grid": [0.3, 0.7]}},
         READOUT.format("over", "k_max / (2 * beta_mag)", "finite", 1e-308, 450.0, 500.0)
         + ", |alpha|=10.0"),
        # The same at a subnormal LO: x_saturated and eta_e were NaN.
        ("single", {"mzi": {"theta2": 0.7, "chi": 0.01}, "lo": {"beta_mag": 1e-320}},
         READOUT.format("over", "k_max / (2 * beta_mag)", "finite", 1e-320, 450.0, 500.0)
         + ", |alpha|=10.0"),
        # k_max |alpha_f| overflows: the ratio read 0, so eta_e was 1.0.
        ("single", {"mzi": {"theta2": 0.3, "chi": 0.01},
                    "detector": {"k_max": 1.7e308, "n_sat": 1.0}},
         READOUT.format("over", "k_max * sqrt(2) * |alpha|", "finite", DEFAULT_BETA_MAG,
                        1.7e308, 1.0) + ", |alpha|=10.0"),
        # Both overflow here, and x_linear was Infinity.
        ("single", {"mzi": {"theta2": 0.7, "chi": 0.01},
                    "detector": {"k_max": 1e308, "n_sat": 1e-300}},
         READOUT.format("over", "k_max * sqrt(2) * |alpha|", "finite", DEFAULT_BETA_MAG,
                        1e308, 1e-300) + ", |alpha|=10.0"),
        # (k_max / N_sat) x_bar alone overflows: x_linear was Infinity.
        ("single", {"mzi": {"theta2": 0.7, "chi": 0.01},
                    "detector": {"k_max": 1e300, "n_sat": 1e-300}},
         READOUT.format("over", "k_max / n_sat * sqrt(2) * |alpha|", "finite",
                        DEFAULT_BETA_MAG, 1e300, 1e-300) + ", |alpha|=10.0"),
        # k_max |alpha_f| underflows to 0: the inversion divided by zero.
        ("single", {"mzi": {"theta2": 0.3, "chi": 0.01, "n_photons": 1e-20},
                    "detector": {"k_max": 1e-320, "n_sat": 500.0}},
         READOUT.format("under", "k_max * |alpha_f|", "a normal float at |alpha_f|=1e-15",
                        DEFAULT_BETA_MAG, 1e-320, 500.0)),
    ], ids=["fig4 lo 1e-308", "single lo 1e-320", "single k_max 1.7e308",
            "single k_max 1e308", "single k_max 1e300", "single k_max 1e-320"])
    def test_readout_off_the_floats_exits_2(self, tmp_path, capsys, command, raw, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"detector": DETECTOR, **raw}))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def _float_steps(x, n):
    """x moved n float steps, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _raises(error, function, *args):
    try:
        function(*args)
    except error:
        return True
    return False


# Float steps from pi/4; the dark band's edges and the first angles past them.
DARK_STEPS = range(-12, 13)


@pytest.mark.parametrize("gamma, dark_steps", [
    # |c1 + c2| < 1e-15 from 9 steps below pi/4 to 10 steps above it.
    (0.0, range(-9, 11)),
    # e^{i gamma} != 1 keeps the overlap away from zero at every angle.
    (0.05, ()),
], ids=["gamma 0", "gamma 0.05"])
def test_dark_band_readers_agree(tmp_path, gamma, dark_steps):
    """weak_value, error_ratio, fig2, fig4 and single agree angle for angle."""
    grid = [_float_steps(math.pi / 4, step) for step in DARK_STEPS]
    point = {"mzi": {"chi": 0.01, "gamma": gamma}, "detector": DETECTOR}
    fig2 = run_fig2(_config(tmp_path, {"mzi": {"gamma": gamma}, "chi_values": [0.01]},
                            grid)).rows
    fig4 = run_fig4(_config(tmp_path, {**point, "n_values": [100.0]}, grid)).rows
    config = _config(tmp_path, point)
    for step, theta2, fig2_row, fig4_row in zip(DARK_STEPS, grid, fig2, fig4):
        config = config._replace(theta2=theta2)
        params = config.mzi_params()
        readers = {
            "weak_value": _raises(DarkPointSingularity, weak_value, theta2, gamma),
            "error_ratio": _raises(DarkPointSingularity, error_ratio, params,
                                   config.lo, config.detector),
            "fig2 NA": fig2_row[2:] == [None] * 4,
            "fig4 NA": fig4_row[2:] == [None] * 3,
            "single null": run_single(config)["saturation"] is None,
        }
        assert readers == dict.fromkeys(readers, step in dark_steps), step


@pytest.mark.parametrize("n_photons, vanishes", [
    # |alpha_f| is exactly 1e-15 here: at most ZERO_AMPLITUDE_TOL, so zero.
    (3.2301542976940366e-30, True),
    (3.2301542976940366e-30 * 1.001, False),
], ids=["at 1e-15", "above 1e-15"])
def test_zero_amplitude_readers_agree(tmp_path, n_photons, vanishes):
    """chi_tilde_exact, error_ratio, fig2, fig4 and single share one zero rule."""
    theta2, chi = 0.20467700760972934, 0.29490315138317835
    point = {"mzi": {"theta2": theta2, "chi": chi, "n_photons": n_photons},
             "detector": DETECTOR}
    fig2 = run_fig2(_config(tmp_path, {"mzi": {"n_photons": n_photons},
                                       "chi_values": [chi]}, [theta2])).rows[0]
    fig4 = run_fig4(_config(tmp_path, {"mzi": {"chi": chi}, "detector": DETECTOR,
                                       "n_values": [n_photons]}, [theta2])).rows[0]
    config = _config(tmp_path, point)
    params = config.mzi_params()
    assert (abs(propagate_mzi(params).alpha_f) == 1e-15) == vanishes
    record = run_single(config)
    readers = {
        "chi_tilde_exact": _raises(ZeroAmplitude, chi_tilde_exact, params),
        "error_ratio": _raises(ZeroAmplitude, error_ratio, params, config.lo,
                               config.detector),
        "fig2 NA": fig2[2:] == [None] * 4,
        "fig4 NA": fig4[2:] == [None] * 3,
        "single nulls": [record[key] for key in ("chi_tilde_exact", "snr", "sensitivity",
                                                 "saturation")] == [None] * 4,
    }
    assert readers == dict.fromkeys(readers, vanishes)
    # So does the scalar reference that TestScanMatchesScalarChain compares with.
    beam, det = config.lo, config.detector
    alpha = cmath.rect(math.sqrt(n_photons), 0.0)
    assert fig2[2:] == scalar_chain.fig2_cells(theta2, chi, 0.0, alpha)
    assert fig4[2:] == scalar_chain.fig4_cells(theta2, chi, 0.0, alpha, beam.beta_mag,
                                               beam.xi + beam.delta, det.k_max, det.n_sat)
