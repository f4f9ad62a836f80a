"""Compare the psamzi CLI of this tree with the CLI of another tree, byte for byte.

Usage: python tools/cli_diff.py OTHER_ROOT

OTHER_ROOT is another checkout of the repository, for example an export of
the parent commit.  Each case of a fixed list runs as ``python -m psamzi.cli``
once with this tree's ``src/`` and once with OTHER_ROOT's ``src/`` on
PYTHONPATH, each time in a fresh empty working directory.  The script compares
stdout, stderr, the exit code and every file the run left in that directory
(the ``--out`` file, or a stray file such as one named after a bad
``output.path``).  It prints ``k of n identical`` and each case that differs,
with, for each stream or file that differs, how many lines differ and the
first differing line of each side; it exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A differing line is printed cut to this many characters.
LINE_CUT = 160
DARK = math.pi / 4
DETECTOR = {"k_max": 450.0, "n_sat": 500.0}
POINTS = {
    "below": {"theta2": DARK - 0.003, "chi": 0.01},
    "at": {"theta2": DARK, "chi": 0.01},
    "past": {"theta2": DARK + 0.01, "chi": -0.02, "gamma": 0.05},
}
# |beta| = |alpha_f| with the LO in antiphase: one detector count is zero.
BALANCED = {
    "mzi": {"theta2": 0.2958013512305811, "chi": 0.13486065828518845,
            "n_photons": 1737.4101612151605},
    "lo": {"beta_mag": 19.71380496708275, "xi": 3.3350847892594393},
    "detector": DETECTOR,
}
# A strong LO with x_bar < 0: 2|beta| |x_bar| / N_sat passes exp's overflow point.
STRONG_LO = {
    "mzi": {"theta2": 0.3, "chi": -1.0, "n_photons": 1e5},
    "lo": {"beta_mag": 1000.0},
    "detector": DETECTOR,
}
# Working point of the strong-LO cases: beta_mag 1.4e154 overflows the detector
# counts there, 1.3e154 does not.  fig4 scans theta2.
STRONG = {"mzi": {"theta2": 0.7, "chi": 0.01}, "detector": DETECTOR}
STRONG_FIG4 = {"mzi": {"chi": 0.01}, "detector": DETECTOR}
# Every run-, angle- and block-level term of fig2 and fig4 away from its
# default, on 2001 angles whose two halves end exactly on pi/4.
HALF = [0.1 + i * (DARK - 0.1) / 1000 for i in range(1000)]
HOISTED_SCAN = {"variable": "theta2",
                "grid": HALF + [DARK] + [2 * DARK - t for t in reversed(HALF)]}
HOISTED = {
    "fig2": {"mzi": {"gamma": 0.05}, "chi_values": [1e-3, -0.02],
             "scan": HOISTED_SCAN},
    "fig4": {"mzi": {"gamma": 0.05, "input_phase": 0.3},
             "lo": {"beta_mag": 5.0, "xi": 1.2, "delta": 1e-3}, "detector": DETECTOR,
             "n_values": [0, 100, 2000], "scan": HOISTED_SCAN},
}
# A working point where |alpha| / sqrt(2) * |unit| and |alpha / sqrt(2) * unit|
# differ in the last bit.  fig2's alpha is real; at 108 photons they differ too.
PORT_FIELD = {"theta2": 0.3, "chi": 0.01, "gamma": 0.05, "input_phase": 0.3,
              "n_photons": 100.0}
PORT_FIELD_FIG2_PHOTONS = 108.0
# |alpha_f| is exactly 1e-15 here, the zero-amplitude tolerance.
ZERO_EDGE = {"theta2": 0.20467700760972934, "chi": 0.29490315138317835,
             "n_photons": 3.2301542976940366e-30}
ZERO_EDGE_SCAN = {"variable": "theta2", "grid": [ZERO_EDGE["theta2"]]}
# A corner where the complement's unit amplitude has zero parts.
CORNER = {"theta2": math.pi / 2, "chi": -math.pi / 2, "gamma": math.pi}
# A valid run of each subcommand plus a key it does not read.
UNREAD = {"fig2": {"mzi": {"chi": 0.5}}, "fig3": {"detector": DETECTOR},
          "fig4": {"detector": DETECTOR, "chi_values": [1e-3]},
          "single": {"mzi": POINTS["below"], "shots": {"runs": 5}}}


def float_steps(x: float, n: int) -> float:
    """x moved n float steps, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# pi/4 and its 12 float neighbours on each side.  At gamma 0 the overlap is
# dark from 9 steps below pi/4 to 10 steps above it; single runs on both
# edges of that band.
DARK_EDGE_SCAN = {"variable": "theta2",
                  "grid": [float_steps(DARK, n) for n in range(-12, 13)]}
DARK_EDGE = {"fig2": {"scan": DARK_EDGE_SCAN},
             "fig4": {"mzi": {"chi": 0.01}, "detector": DETECTOR, "scan": DARK_EDGE_SCAN}}
DARK_EDGE_SINGLE_STEPS = (-10, -9, 0, 10, 11)
# fig3 m values on both sides of its 2**14-shot block cap, with runs that leave
# a remainder block.
BLOCK_CAP_M = [1, 3, 16383, 16384, 16385, 40000]
GRIDS = {
    "default grid": [],
    "2001-point grid": ["--scan", "theta2", "0.6", "0.95", "2001"],
    "[pi/4] grid": ["--scan", "theta2", repr(DARK), repr(DARK), "1"],
    "inf grid": ["--scan", "theta2", "inf", "inf", "1"],
}
FORMATS = {"csv": ["--format", "csv", "--out", "out.csv"], "json": ["--format", "json"]}
# single always writes its JSON record, to --out or to stdout.
SINGLE_OUTPUTS = {"--out": ["--out", "out.json"], "stdout": []}


def write_inputs(folder: Path) -> dict[str, str]:
    """Write the files the cases read; return their paths by name."""
    objects: dict[str, object] = {
        "det": {"detector": DETECTOR},
        "neg_seed": {"shots": {"seed": -5}},
        "null_path": {"output": {"path": None}},
        "int_path": {"mzi": POINTS["below"], "output": {"path": 7}},
        "bad_detector": {"detector": {"k_max": "x"}},
        "list_root": [1, 2],
        "empty": {},
        "chi_1e-5": {"chi_values": [1e-5]},
        "runs_2": {"shots": {"seed": 3, "runs": 2}},
        "theta1_pi_4": {"mzi": {"theta1": math.pi / 4}},
        "theta1_0.3": {"mzi": {"theta1": 0.3}},
        "input_phase_0.3": {"mzi": {"input_phase": 0.3}},
        "balanced": BALANCED,
        "balanced_fig4": {**BALANCED, "mzi": {"chi": BALANCED["mzi"]["chi"]},
                          "n_values": [BALANCED["mzi"]["n_photons"]]},
        "strong_lo": STRONG_LO,
        "no_photons": {"mzi": {"n_photons": 0}},
        "lo_1.3e154": {**STRONG, "lo": {"beta_mag": 1.3e154}},
        "lo_1.4e154": {**STRONG, "lo": {"beta_mag": 1.4e154}},
        "fig4_lo_1.3e154": {**STRONG_FIG4, "lo": {"beta_mag": 1.3e154}},
        "fig4_lo_1.4e154": {**STRONG_FIG4, "lo": {"beta_mag": 1.4e154}},
        # Each takes one term of the saturated readout off the floats.
        "fig4_lo_1e-308": {**STRONG_FIG4, "lo": {"beta_mag": 1e-308}, "n_values": [100]},
        "lo_1e-320": {**STRONG, "lo": {"beta_mag": 1e-320}},
        "k_max_1.7e308": {"mzi": {"theta2": 0.3, "chi": 0.01},
                          "detector": {"k_max": 1.7e308, "n_sat": 1.0}},
        "n_sat_1e-300": {**STRONG, "detector": {"k_max": 1e308, "n_sat": 1e-300}},
        "k_max_1e300": {**STRONG, "detector": {"k_max": 1e300, "n_sat": 1e-300}},
        "k_max_1e-320": {"mzi": {"theta2": 0.3, "chi": 0.01, "n_photons": 1e-20},
                         "detector": {"k_max": 1e-320, "n_sat": 500.0}},
        "below_output_path": {"mzi": POINTS["below"], "output": {"path": "out.json"}},
        "dark_zero_phase": {"mzi": {"theta2": DARK, "chi": 0.0}},
        # Re(a_w) * 1e308 overflows where a_w > 1.8.
        "chi_1e308": {"chi_values": [1e308]},
        "aav_overflow": {"mzi": {"theta2": 0.5, "chi": 1e308}},
        "lo_no_beta": {"lo": {"xi": 0.1}},
        "detector_k_max": {"detector": {"k_max": 450.0}},
        "scan_variable": {"scan": {"variable": "theta2"}},
        # json writes and reads NaN, which is not a finite number.
        "nan_chi": {"mzi": {"theta2": 0.7, "chi": math.nan}},
        # The detector-count bound of keys the run does not read, and of the
        # largest |alpha| it does.
        "fig4_n_photons_1e308": {"mzi": {"n_photons": 1e308}, "detector": DETECTOR},
        "single_n_values_1e308": {"mzi": POINTS["below"], "detector": DETECTOR,
                                  "n_values": [1e308]},
        "fig4_n_values_1_lo_1.4e154": {**STRONG_FIG4, "lo": {"beta_mag": 1.4e154},
                                       "n_values": [1.0]},
        "single_precision_3": {"mzi": POINTS["below"], "output": {"precision": 3}},
        "port_field_fig2": {"mzi": {"gamma": PORT_FIELD["gamma"],
                                    "n_photons": PORT_FIELD_FIG2_PHOTONS},
                            "chi_values": [PORT_FIELD["chi"]],
                            "scan": {"variable": "theta2", "grid": [PORT_FIELD["theta2"]]}},
        "port_field_single": {"mzi": PORT_FIELD},
        "zero_edge_fig2": {"mzi": {"n_photons": ZERO_EDGE["n_photons"]},
                           "chi_values": [ZERO_EDGE["chi"]], "scan": ZERO_EDGE_SCAN},
        "zero_edge_fig4": {"mzi": {"chi": ZERO_EDGE["chi"]}, "detector": DETECTOR,
                           "n_values": [ZERO_EDGE["n_photons"]], "scan": ZERO_EDGE_SCAN},
        "zero_edge_single": {"mzi": ZERO_EDGE, "detector": DETECTOR},
        "corner": {"mzi": CORNER},
        "corner_det": {"mzi": CORNER, "detector": DETECTOR},
        "corner_no_photons": {"mzi": {**CORNER, "n_photons": 0}},
    }
    for n in DARK_EDGE_SINGLE_STEPS:
        objects[f"dark_edge_{n}"] = {"mzi": {"theta2": float_steps(DARK, n), "chi": 0.01},
                                     "detector": DETECTOR}
    for name in ("fig2", "fig4"):
        objects[f"hoisted_{name}"] = HOISTED[name]
        objects[f"dark_edge_{name}"] = DARK_EDGE[name]
    for name, raw in UNREAD.items():
        objects[f"unread_{name}"] = raw
    for runs in (2, 7):
        objects[f"block_cap_runs_{runs}"] = {
            "shots": {"seed": 5, "runs": runs},
            "scan": {"variable": "m", "grid": BLOCK_CAP_M},
        }
    for name, mzi in POINTS.items():
        objects[name] = {"mzi": mzi}
        objects[f"{name}_det"] = {"mzi": mzi, "detector": DETECTOR}
    paths = {name: folder / f"{name}.json" for name in objects}
    for name, value in objects.items():
        paths[name].write_text(json.dumps(value), encoding="utf-8")
    paths["malformed"] = folder / "malformed.json"
    paths["malformed"].write_text("{not json", encoding="utf-8")
    paths["latin1"] = folder / "latin1.json"
    paths["latin1"].write_bytes(b'{"mzi": {"chi": "\xff"}}')
    # An integer past the largest float, and one too long for int().
    paths["chi_1e400"] = folder / "chi_1e400.json"
    paths["chi_1e400"].write_text('{"mzi": {"chi": 1' + "0" * 400 + "}}", encoding="utf-8")
    paths["chi_4301_digits"] = folder / "chi_4301_digits.json"
    paths["chi_4301_digits"].write_text('{"mzi": {"chi": 1' + "0" * 4300 + "}}",
                                        encoding="utf-8")
    paths["directory"] = folder / "directory"
    paths["directory"].mkdir()
    paths["missing"] = folder / "missing.json"
    return {name: str(path) for name, path in paths.items()}


def cases(f: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(label, argv) for every case, valid ones first."""
    scans = {
        "fig2": ["fig2"],
        "fig3 seed 1": ["fig3", "--seed", "1"],
        "fig3 seed 7": ["fig3", "--seed", "7"],
        "fig4 detector": ["fig4", "--config", f["det"]],
    }
    out = [
        (f"{name}, {grid}, {fmt}", argv + scan + fmt_args)
        for name, argv in scans.items()
        for grid, scan in GRIDS.items()
        for fmt, fmt_args in FORMATS.items()
    ]
    for point in POINTS:
        for suffix, detector in (("", "no detector"), ("_det", "detector")):
            for where, out_args in SINGLE_OUTPUTS.items():
                out.append((f"single {point} dark point, {detector}, {where}",
                            ["single", "--config", f[point + suffix]] + out_args))
    below = ["single", "--config", f["below"]]
    out += [
        ("fig2 grid within 1e-7 of pi/4, chi 1e-5",
         ["fig2", "--config", f["chi_1e-5"], "--scan", "theta2", "0.78539806",
          "0.78539826", "5"]),
        ("fig3 shots.runs 2", ["fig3", "--config", f["runs_2"]]),
        ("fig3 descending m grid", ["fig3", "--seed", "7", "--scan", "m", "10000", "1", "3"]),
        ("fig3 past dark point, gamma 0.05", ["fig3", "--config", f["past"], "--seed", "7"]),
        ("fig3 no photons", ["fig3", "--config", f["no_photons"], "--seed", "1"]),
        ("fig3 dark point, chi 0", ["fig3", "--config", f["dark_zero_phase"], "--seed", "1"]),
        ("fig2 --out directory", ["fig2", "--out", f["directory"]]),
        ("fig2 --out missing directory", ["fig2", "--out", f["directory"] + "/missing/x.csv"]),
        ("single --out directory", below + ["--out", f["directory"]]),
        ("fig2 --seed 5", ["fig2", "--seed", "5"]),
        ("single --format csv", below + ["--format", "csv"]),
        ("single --scan", below + ["--scan", "theta2", "0.1", "0.2", "2"]),
        ("single self-check mismatch", below + ["--self-check", f["empty"]]),
        ("fig3 --seed -1", ["fig3", "--seed", "-1"]),
        ("fig2 --seed -1", ["fig2", "--seed", "-1"]),
        ("fig4 --seed -1", ["fig4", "--config", f["det"], "--seed", "-1"]),
        ("single --seed -1", below + ["--seed", "-1"]),
        ("fig3 shots.seed -5", ["fig3", "--config", f["neg_seed"]]),
        ("fig2 output.path null", ["fig2", "--config", f["null_path"]]),
        ("single output.path 7", ["single", "--config", f["int_path"]]),
        ("fig2 --config directory", ["fig2", "--config", f["directory"]]),
        ("fig2 --config non-UTF-8", ["fig2", "--config", f["latin1"]]),
        ("fig2 --config missing", ["fig2", "--config", f["missing"]]),
        ("single --self-check malformed", below + ["--self-check", f["malformed"]]),
        ("single --self-check list", below + ["--self-check", f["list_root"]]),
        ("single --self-check missing", below + ["--self-check", f["missing"]]),
        # Paths the messages name exactly as given, unnormalised.
        ("fig2 --config ''", ["fig2", "--config", ""]),
        ("fig2 --config ./missing//cfg.json", ["fig2", "--config", "./missing//cfg.json"]),
        ("fig2 --out ''", ["fig2", "--out", ""]),
        ("single --self-check ./x//y.json", below + ["--self-check", "./x//y.json"]),
        ("fig4 multi-fault detector", ["fig4", "--config", f["bad_detector"]]),
        ("fig2 mzi.theta1 pi/4", ["fig2", "--config", f["theta1_pi_4"]]),
        ("single mzi.theta1 0.3", ["single", "--config", f["theta1_0.3"]]),
        ("fig2 mzi.input_phase 0.3", ["fig2", "--config", f["input_phase_0.3"]]),
        ("single balanced LO", ["single", "--config", f["balanced"]]),
        ("fig4 one row, balanced LO",
         ["fig4", "--config", f["balanced_fig4"], "--scan", "theta2",
          repr(BALANCED["mzi"]["theta2"]), repr(BALANCED["mzi"]["theta2"]), "1"]),
        ("single strong LO", ["single", "--config", f["strong_lo"]]),
        ("fig2 grid past pi/2", ["fig2", "--scan", "theta2", "1.5", "1.7", "5"]),
        ("fig4 grid past pi/2",
         ["fig4", "--config", f["det"], "--scan", "theta2", "1.5", "1.7", "5"]),
        ("fig2 scan over m", ["fig2", "--scan", "m", "1", "2", "2"]),
        ("fig3 m grid to 1e300", ["fig3", "--seed", "1", "--scan", "m", "1", "1e300", "2"]),
        ("fig2 chi_values 1e308, default grid, csv",
         ["fig2", "--config", f["chi_1e308"]] + FORMATS["csv"]),
        ("single theta2 0.5, chi 1e308", ["single", "--config", f["aav_overflow"]]),
        ("fig2 lo without beta_mag", ["fig2", "--config", f["lo_no_beta"]]),
        ("fig4 detector with only k_max", ["fig4", "--config", f["detector_k_max"]]),
        ("fig2 scan with only variable", ["fig2", "--config", f["scan_variable"]]),
        ("single mzi.chi NaN", ["single", "--config", f["nan_chi"]]),
        ("fig2 --scan not a number", ["fig2", "--scan", "theta2", "a", "1", "3"]),
        ("single mzi.chi 1e400 as an integer", ["single", "--config", f["chi_1e400"]]),
        ("single mzi.chi of 4301 digits", ["single", "--config", f["chi_4301_digits"]]),
        ("fig4 mzi.n_photons 1e308", ["fig4", "--config", f["fig4_n_photons_1e308"]]),
        ("single n_values [1e308]", ["single", "--config", f["single_n_values_1e308"]]),
        ("fig4 n_values [1.0], LO 1.4e154",
         ["fig4", "--config", f["fig4_n_values_1_lo_1.4e154"]]),
        ("single output.precision 3", ["single", "--config", f["single_precision_3"]]),
        ("fig2 one angle where the port intensities differed, json",
         ["fig2", "--config", f["port_field_fig2"]] + FORMATS["json"]),
        ("single where the port intensities differed",
         ["single", "--config", f["port_field_single"]]),
        ("fig2 |alpha_f| exactly 1e-15, json",
         ["fig2", "--config", f["zero_edge_fig2"]] + FORMATS["json"]),
        ("fig4 |alpha_f| exactly 1e-15, json",
         ["fig4", "--config", f["zero_edge_fig4"]] + FORMATS["json"]),
        ("single |alpha_f| exactly 1e-15, detector",
         ["single", "--config", f["zero_edge_single"]]),
        ("single theta2 pi/2, chi -pi/2, gamma pi", ["single", "--config", f["corner"]]),
        ("single theta2 pi/2, chi -pi/2, gamma pi, detector",
         ["single", "--config", f["corner_det"]]),
        ("single theta2 pi/2, chi -pi/2, gamma pi, no photons",
         ["single", "--config", f["corner_no_photons"]]),
        ("fig4 LO 1e-308", ["fig4", "--config", f["fig4_lo_1e-308"], "--scan", "theta2",
                            "0.3", "0.7", "2"]),
        ("single LO 1e-320", ["single", "--config", f["lo_1e-320"]]),
        ("single k_max 1.7e308, n_sat 1", ["single", "--config", f["k_max_1.7e308"]]),
        ("single k_max 1e308, n_sat 1e-300", ["single", "--config", f["n_sat_1e-300"]]),
        ("single k_max 1e300, n_sat 1e-300", ["single", "--config", f["k_max_1e300"]]),
        ("single k_max 1e-320, 1e-20 photons", ["single", "--config", f["k_max_1e-320"]]),
        ("single --self-check --out", below + ["--self-check", f["empty"], "--out", "out.json"]),
        ("single --self-check, output.path",
         ["single", "--config", f["below_output_path"], "--self-check", f["empty"]]),
    ]
    for name in UNREAD:
        seed = ["--seed", "1"] if name == "fig3" else []
        out.append((f"{name} unread key", [name, "--config", f[f"unread_{name}"]] + seed))
    for fmt, fmt_args in FORMATS.items():
        out += [(f"{name} hoisted terms, 2001 angles through pi/4, {fmt}",
                 [name, "--config", f[f"hoisted_{name}"]] + fmt_args)
                for name in ("fig2", "fig4")]
        out += [(f"fig3 m across the block cap, shots.runs {runs}, {fmt}",
                 ["fig3", "--config", f[f"block_cap_runs_{runs}"]] + fmt_args)
                for runs in (2, 7)]
    out += [(f"{name} 25 float neighbours of pi/4, csv",
             [name, "--config", f[f"dark_edge_{name}"]] + FORMATS["csv"])
            for name in ("fig2", "fig4")]
    out += [(f"single {n} float steps from pi/4, detector",
             ["single", "--config", f[f"dark_edge_{n}"]]) for n in DARK_EDGE_SINGLE_STEPS]
    for beta in ("1.3e154", "1.4e154"):
        out += [
            (f"single LO {beta}", ["single", "--config", f[f"lo_{beta}"]]),
            (f"fig4 LO {beta}",
             ["fig4", "--config", f[f"fig4_lo_{beta}"], "--scan", "theta2", "0.3", "0.4", "2"]),
        ]
    return out


def run(root: Path, argv: list[str]) -> dict[str, object]:
    """Run one case with ``root``'s psamzi in a fresh working directory."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "psamzi.cli", *argv],
            cwd=cwd, env=env, capture_output=True, timeout=300,
        )
        files = {p.name: p.read_bytes() for p in Path(cwd).iterdir() if p.is_file()}
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode,
            "files": files}


def last_line(stderr: bytes) -> str:
    lines = stderr.decode("utf-8", "replace").strip().splitlines()
    return lines[-1] if lines else ""


def cut(line: str | None) -> str:
    if line is None:
        return "(no line)"
    return line if len(line) <= LINE_CUT else line[:LINE_CUT] + "..."


def line_diffs(mine: dict[str, object], theirs: dict[str, object]) -> list[str]:
    """For each stream or file that differs, its differing line count and first pair."""
    streams = [(name, mine[name], theirs[name]) for name in ("stdout", "stderr")]
    files = sorted({*mine["files"], *theirs["files"]})
    streams += [(f"file {name}", mine["files"].get(name, b""),
                 theirs["files"].get(name, b"")) for name in files]
    out = []
    for name, ours, other in streams:
        if ours == other:
            continue
        pairs = list(itertools.zip_longest(
            *(text.decode("utf-8", "replace").splitlines() for text in (ours, other))))
        differing = [pair for pair in pairs if pair[0] != pair[1]]
        if not differing:
            out.append(f"  {name}: the bytes differ, not the lines")
            continue
        out += [f"  {name}: {len(differing)} of {len(pairs)} lines differ, first:",
                f"    this tree:  {cut(differing[0][0])}",
                f"    other tree: {cut(differing[0][1])}"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=Path, help="the tree to compare with")
    other = parser.parse_args(argv).other_root.resolve()
    if not (other / "src" / "psamzi").is_dir():
        parser.error(f"{other} has no src/psamzi")
    with tempfile.TemporaryDirectory() as folder:
        all_cases = cases(write_inputs(Path(folder)))
        differing = []
        for label, case_argv in all_cases:
            mine, theirs = run(ROOT, case_argv), run(other, case_argv)
            parts = [key for key in mine if mine[key] != theirs[key]]
            if parts:
                differing.append((label, parts, mine, theirs))
    print(f"{len(all_cases) - len(differing)} of {len(all_cases)} identical")
    for label, parts, mine, theirs in differing:
        print(f"differs: {label}: {', '.join(parts)}")
        for side, result in (("this tree", mine), ("other tree", theirs)):
            print(f"  {side}: exit {result['exit code']}, files "
                  f"{sorted(result['files'])}, stderr: {last_line(result['stderr'])}")
        for line in line_diffs(mine, theirs):
            print(line)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
