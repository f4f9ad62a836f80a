"""Config loading, figure runners, CLI exit codes, and output determinism."""

import json
import math
import re

import pytest

from psamzi import ConfigError, averaged_stats, quadrature_stats_exact, uncertainty_vs_m
from psamzi.cli import main
from psamzi.config import ScanSpec, load_config
from psamzi.runner import render_csv, run_fig2, run_fig3, run_fig4, run_single

NEAR_DARK = math.pi / 4 - 0.003


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
        path.write_text(json.dumps({"mzi": {"theta1": 0.3}}))
        with pytest.raises(ConfigError):
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
        ({"detector": {"k_max": 1}}, {}, "detector requires both 'k_max' and 'n_sat'"),
        ({"detector": {"k_max": -1, "n_sat": 5}}, {},
         "detector parameters must be positive, got k_max=-1.0, n_sat=5.0"),
        ({"shots": {"runs": 1}}, {}, "shots.runs must be >= 2"),
        ({"scan": {"variable": "m"}}, {}, "scan requires both 'variable' and 'grid'"),
        ({"scan": {"variable": "m", "grid": []}}, {},
         "scan.grid must be a nonempty list of numbers"),
        ({"scan": {"variable": "m", "grid": [1, "2"]}}, {},
         "scan.grid must contain only numbers, got '2'"),
        ({"scan": {"variable": "m", "grid": [1], "step": 1}}, {},
         "unknown scan keys: ['step']"),
        ({"output": {"precision": 0}}, {}, "output.precision must lie in [1, 17]"),
        ({"output": {"precision": 18}}, {}, "output.precision must lie in [1, 17]"),
        ({"output": {"indent": 2}}, {}, "unknown output keys: ['indent']"),
        ({"chi_values": 0.1}, {}, "chi_values must be a nonempty list of numbers"),
        ({"chi_values": []}, {}, "chi_values must be a nonempty list of numbers"),
        ({"n_values": [10, -1]}, {}, "n_values must be >= 0"),
        (None, {}, "config file not found: "),
        ({}, {"fmt": "xml"}, "format must be one of ('csv', 'json'), got 'xml'"),
    ])
    def test_rejection_messages(self, tmp_path, raw, overrides, message):
        path = tmp_path / "cfg.json"
        if raw is not None:
            path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path, **overrides)

    def test_defaults(self):
        config = load_config(None)
        assert math.isclose(config.theta1, math.pi / 4)
        assert config.gamma == 0.0
        assert config.input_phase == 0.0
        assert config.output.precision == 12
        assert config.n_photons == 100.0

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
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
            run_fig3(config)

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
        config = load_config(None)
        config.theta2 = math.pi / 4
        config.chi = 0.0
        record = run_single(config)
        assert abs(record["alpha_f"]["re"]) < 1e-12
        assert record["chi_tilde_exact"] is None
        assert record["weak_value"] is None
        assert abs(record["quadrature_mean"]) < 1e-14

    def test_rejects_scan_block(self):
        config = load_config(None, scan=ScanSpec("theta2", [0.1]))
        config.theta2 = 0.3
        config.chi = 1e-3
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

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fig2", "--config", str(bad)]) == 2
        assert main(["fig3", "--scan", "m", "1", "100", "2"]) == 2  # no seed
        assert main(["fig4"]) == 2  # no detector
        # One-point grids pass the monotone check but are not finite.
        assert main(["fig3", "--seed", "1", "--scan", "m", "nan", "nan", "1"]) == 2
        assert main(["fig2", "--scan", "theta2", "inf", "inf", "1"]) == 2
        # A finite span too wide for a float gives a non-finite grid.
        assert main(["fig2", "--scan", "theta2", "-1" + "0" * 308, "1e308", "3"]) == 2

    def test_sentinel_only_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"scan": {"variable": "theta2", "grid": [math.pi / 4]}})
        )
        out = tmp_path / "dark.csv"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 3
        assert "NA" in out.read_text()

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
    from psamzi.runner import Table

    table = Table(
        columns=["a", "b"],
        rows=[[1.0, None]],
        meta={"config_sha256": "deadbeef", "seed": None},
        sentinel_rows=1,
    )
    text = render_csv(table, 3)
    assert "NA" in text.splitlines()[2]
