"""Compare the psamzi CLI of this tree with the CLI of another tree, byte for byte.

Usage: python tools/cli_diff.py OTHER_ROOT

OTHER_ROOT is another checkout of the repository, for example an export of
the parent commit.  Each case of a fixed list runs as ``python -m psamzi.cli``
once with this tree's ``src/`` and once with OTHER_ROOT's ``src/`` on
PYTHONPATH, each time in a fresh empty working directory.  The script compares
stdout, stderr, the exit code and every file the run left in that directory
(the ``--out`` file, or a stray file such as one named after a bad
``output.path``).  It prints ``k of n identical`` and each case that differs,
and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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
# counts there, 1.3e154 does not.
STRONG = {"mzi": {"theta2": 0.7, "chi": 0.01}, "detector": DETECTOR}
# Every run-, angle- and block-level term of fig2 and fig4 away from its
# default, on 2001 angles whose two halves end exactly on pi/4.
HALF = [0.1 + i * (DARK - 0.1) / 1000 for i in range(1000)]
HOISTED = {
    "mzi": {"gamma": 0.05, "input_phase": 0.3},
    "lo": {"beta_mag": 5.0, "xi": 1.2, "delta": 1e-3},
    "detector": DETECTOR,
    "chi_values": [1e-3, -0.02],
    "n_values": [0, 100, 2000],
    "scan": {"variable": "theta2",
             "grid": HALF + [DARK] + [2 * DARK - t for t in reversed(HALF)]},
}


def float_steps(x: float, n: int) -> float:
    """x moved n float steps, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# pi/4 and its 12 float neighbours on each side.  At gamma 0 the overlap is
# dark from 9 steps below pi/4 to 10 steps above it; single runs on both
# edges of that band.
DARK_EDGE = {"mzi": {"chi": 0.01}, "detector": DETECTOR,
             "scan": {"variable": "theta2",
                      "grid": [float_steps(DARK, n) for n in range(-12, 13)]}}
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
        "balanced": BALANCED,
        "balanced_fig4": {**BALANCED, "n_values": [BALANCED["mzi"]["n_photons"]]},
        "strong_lo": STRONG_LO,
        "no_photons": {"mzi": {"n_photons": 0}},
        "hoisted": HOISTED,
        "lo_1.3e154": {**STRONG, "lo": {"beta_mag": 1.3e154}},
        "lo_1.4e154": {**STRONG, "lo": {"beta_mag": 1.4e154}},
        "dark_zero_phase": {"mzi": {"theta2": DARK, "chi": 0.0}},
    }
    for n in DARK_EDGE_SINGLE_STEPS:
        objects[f"dark_edge_{n}"] = {"mzi": {"theta2": float_steps(DARK, n), "chi": 0.01},
                                     "detector": DETECTOR}
    objects["dark_edge"] = DARK_EDGE
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
        ("fig4 multi-fault detector", ["fig4", "--config", f["bad_detector"]]),
        ("fig2 mzi.theta1 pi/4", ["fig2", "--config", f["theta1_pi_4"]]),
        ("single mzi.theta1 0.3", ["single", "--config", f["theta1_0.3"]]),
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
    ]
    for fmt, fmt_args in FORMATS.items():
        out += [(f"{name} hoisted terms, 2001 angles through pi/4, {fmt}",
                 [name, "--config", f["hoisted"]] + fmt_args) for name in ("fig2", "fig4")]
        out += [(f"fig3 m across the block cap, shots.runs {runs}, {fmt}",
                 ["fig3", "--config", f[f"block_cap_runs_{runs}"]] + fmt_args)
                for runs in (2, 7)]
    out += [(f"{name} 25 float neighbours of pi/4, csv",
             [name, "--config", f["dark_edge"]] + FORMATS["csv"]) for name in ("fig2", "fig4")]
    out += [(f"single {n} float steps from pi/4, detector",
             ["single", "--config", f[f"dark_edge_{n}"]]) for n in DARK_EDGE_SINGLE_STEPS]
    for beta in ("1.3e154", "1.4e154"):
        out += [
            (f"single LO {beta}", ["single", "--config", f[f"lo_{beta}"]]),
            (f"fig4 LO {beta}",
             ["fig4", "--config", f[f"lo_{beta}"], "--scan", "theta2", "0.3", "0.4", "2"]),
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
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
