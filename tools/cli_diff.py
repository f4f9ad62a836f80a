"""Compare the psamzi CLI of this tree with the CLI of another tree, byte for byte.

Usage: python tools/cli_diff.py OTHER_ROOT

OTHER_ROOT is another checkout of the repository, for example an export of
the parent commit.  Each case of one table is a label, an argv and the input
files that case reads.  It runs as ``python -m psamzi.cli`` once with this
tree's ``src/`` and once with OTHER_ROOT's ``src/`` on PYTHONPATH, each time in
a fresh working directory that holds only the case's inputs, which the argv
names by relative path.  The script compares stdout, stderr, the exit code and
every file in that directory after the run (the inputs, the ``--out`` file, or
a stray file such as one named after a bad ``output.path``).  It prints ``k of
n identical`` and each case that differs, with, for each stream or file that
differs, how many lines differ and the first differing line of each side; it
exits 1 on any difference.

Importing this module has no side effects: ``cases()`` builds the table and
``write_inputs`` writes one case's inputs.
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
# An amplified phase of 1.4e-313, a subnormal, at a finite readout.
SUBNORMAL_PHASE = {"mzi": {"chi": 1e-313}, "lo": {"beta_mag": 3.0, "xi": 2.6},
                   "detector": DETECTOR}
# The largest photon number, and a point where a port intensity overflows at it.
LARGEST_N = {"n_photons": sys.float_info.max}
LARGEST_N_POINT = {"theta2": 0.7853981633974482, "chi": 2.5775710095969133,
                   "gamma": 2.5775710095969133, "input_phase": -0.9172543786173515}
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
# The file that an input given in place of a flag's value is written to.
INPUT_NAMES = {"--config": "config.json", "--self-check": "expected.json"}
# An existing directory, for the cases that read or write one where a file belongs.
DIRECTORY = {"directory": None}

# A case: its label, its argv, and its inputs by relative name, each the bytes
# of a file or None for an empty directory.
Case = tuple[str, list[str], dict[str, bytes | None]]


def case(label: str, argv: list[object], inputs: dict[str, bytes | None] | None = None) -> Case:
    """The case ``label`` with ``argv``, whose non-string items are inputs.

    An input in place of a flag's value is bytes, or a value that is written
    as JSON; it goes to that flag's INPUT_NAMES file, which the argv then names.
    ``inputs`` adds inputs that the argv names itself.
    """
    files, names = dict(inputs or {}), []
    for flag, arg in zip([None, *argv], argv):
        if not isinstance(arg, str):
            files[INPUT_NAMES[flag]] = (arg if isinstance(arg, bytes)
                                        else json.dumps(arg).encode("utf-8"))
            arg = INPUT_NAMES[flag]
        names.append(arg)
    return label, names, files


def cases() -> list[Case]:
    """Every case, valid ones first."""
    det = {"detector": DETECTOR}
    scans = {
        "fig2": ["fig2"],
        "fig3 seed 1": ["fig3", "--seed", "1"],
        "fig3 seed 7": ["fig3", "--seed", "7"],
        "fig4 detector": ["fig4", "--config", det],
    }
    out = [
        case(f"{name}, {grid}, {fmt}", argv + scan + fmt_args)
        for name, argv in scans.items()
        for grid, scan in GRIDS.items()
        for fmt, fmt_args in FORMATS.items()
    ]
    out += [
        case(f"single {point} dark point, {detector}, {where}",
             ["single", "--config", {"mzi": mzi, **extra}] + out_args)
        for point, mzi in POINTS.items()
        for detector, extra in (("no detector", {}), ("detector", det))
        for where, out_args in SINGLE_OUTPUTS.items()
    ]
    below = ["single", "--config", {"mzi": POINTS["below"]}]
    out += [
        case("fig2 grid within 1e-7 of pi/4, chi 1e-5",
             ["fig2", "--config", {"chi_values": [1e-5]}, "--scan", "theta2", "0.78539806",
              "0.78539826", "5"]),
        case("fig3 shots.runs 2", ["fig3", "--config", {"shots": {"seed": 3, "runs": 2}}]),
        case("fig3 descending m grid", ["fig3", "--seed", "7", "--scan", "m", "10000", "1", "3"]),
        case("fig3 past dark point, gamma 0.05",
             ["fig3", "--config", {"mzi": POINTS["past"]}, "--seed", "7"]),
        case("fig3 no photons", ["fig3", "--config", {"mzi": {"n_photons": 0}}, "--seed", "1"]),
        case("fig3 dark point, chi 0",
             ["fig3", "--config", {"mzi": {"theta2": DARK, "chi": 0.0}}, "--seed", "1"]),
        case("fig2 --out directory", ["fig2", "--out", "directory"], DIRECTORY),
        case("fig2 --out missing directory", ["fig2", "--out", "directory/missing/x.csv"],
             DIRECTORY),
        case("single --out directory", below + ["--out", "directory"], DIRECTORY),
        case("fig2 --seed 5", ["fig2", "--seed", "5"]),
        case("single --format csv", below + ["--format", "csv"]),
        case("single --scan", below + ["--scan", "theta2", "0.1", "0.2", "2"]),
        case("single self-check mismatch", below + ["--self-check", {}]),
        case("fig3 --seed -1", ["fig3", "--seed", "-1"]),
        case("fig2 --seed -1", ["fig2", "--seed", "-1"]),
        case("fig4 --seed -1", ["fig4", "--config", det, "--seed", "-1"]),
        case("single --seed -1", below + ["--seed", "-1"]),
        case("fig3 shots.seed -5", ["fig3", "--config", {"shots": {"seed": -5}}]),
        case("fig2 output.path null", ["fig2", "--config", {"output": {"path": None}}]),
        case("single output.path 7",
             ["single", "--config", {"mzi": POINTS["below"], "output": {"path": 7}}]),
        case("fig2 --config directory", ["fig2", "--config", "directory"], DIRECTORY),
        case("fig2 --config non-UTF-8", ["fig2", "--config", b'{"mzi": {"chi": "\xff"}}']),
        case("fig2 --config missing", ["fig2", "--config", "missing.json"]),
        case("single --self-check malformed", below + ["--self-check", b"{not json"]),
        case("single --self-check list", below + ["--self-check", [1, 2]]),
        case("single --self-check missing", below + ["--self-check", "missing.json"]),
        # Paths the messages name exactly as given, unnormalised.
        case("fig2 --config ''", ["fig2", "--config", ""]),
        case("fig2 --config ./missing//cfg.json", ["fig2", "--config", "./missing//cfg.json"]),
        case("fig2 --out ''", ["fig2", "--out", ""]),
        case("single --self-check ./x//y.json", below + ["--self-check", "./x//y.json"]),
        case("fig4 multi-fault detector", ["fig4", "--config", {"detector": {"k_max": "x"}}]),
        case("fig2 mzi.theta1 pi/4", ["fig2", "--config", {"mzi": {"theta1": math.pi / 4}}]),
        case("single mzi.theta1 0.3", ["single", "--config", {"mzi": {"theta1": 0.3}}]),
        case("fig2 mzi.input_phase 0.3", ["fig2", "--config", {"mzi": {"input_phase": 0.3}}]),
        case("single balanced LO", ["single", "--config", BALANCED]),
        case("fig4 one row, balanced LO",
             ["fig4", "--config", {**BALANCED, "mzi": {"chi": BALANCED["mzi"]["chi"]},
                                   "n_values": [BALANCED["mzi"]["n_photons"]]},
              "--scan", "theta2", repr(BALANCED["mzi"]["theta2"]),
              repr(BALANCED["mzi"]["theta2"]), "1"]),
        case("single strong LO", ["single", "--config", STRONG_LO]),
        case("fig2 grid past pi/2", ["fig2", "--scan", "theta2", "1.5", "1.7", "5"]),
        case("fig4 grid past pi/2", ["fig4", "--config", det, "--scan", "theta2", "1.5", "1.7",
                                     "5"]),
        case("fig2 scan over m", ["fig2", "--scan", "m", "1", "2", "2"]),
        case("fig3 m grid to 1e300", ["fig3", "--seed", "1", "--scan", "m", "1", "1e300", "2"]),
        # Re(a_w) * 1e308 overflows where a_w > 1.8.
        case("fig2 chi_values 1e308, default grid, csv",
             ["fig2", "--config", {"chi_values": [1e308]}] + FORMATS["csv"]),
        case("single theta2 0.5, chi 1e308",
             ["single", "--config", {"mzi": {"theta2": 0.5, "chi": 1e308}}]),
        case("fig2 lo without beta_mag", ["fig2", "--config", {"lo": {"xi": 0.1}}]),
        case("fig4 detector with only k_max",
             ["fig4", "--config", {"detector": {"k_max": 450.0}}]),
        case("fig2 scan with only variable",
             ["fig2", "--config", {"scan": {"variable": "theta2"}}]),
        # json writes and reads NaN, which is not a finite number.
        case("single mzi.chi NaN",
             ["single", "--config", {"mzi": {"theta2": 0.7, "chi": math.nan}}]),
        case("fig2 --scan not a number", ["fig2", "--scan", "theta2", "a", "1", "3"]),
        # An integer past the largest float, and one too long for int().
        case("single mzi.chi 1e400 as an integer",
             ["single", "--config", b'{"mzi": {"chi": 1' + b"0" * 400 + b"}}"]),
        case("single mzi.chi of 4301 digits",
             ["single", "--config", b'{"mzi": {"chi": 1' + b"0" * 4300 + b"}}"]),
        # The detector-count bound of keys the run does not read, and of the
        # largest |alpha| it does.
        case("fig4 mzi.n_photons 1e308",
             ["fig4", "--config", {"mzi": {"n_photons": 1e308}, "detector": DETECTOR}]),
        case("single n_values [1e308]",
             ["single", "--config", {"mzi": POINTS["below"], "detector": DETECTOR,
                                     "n_values": [1e308]}]),
        case("fig4 n_values [1.0], LO 1.4e154",
             ["fig4", "--config", {**STRONG_FIG4, "lo": {"beta_mag": 1.4e154},
                                   "n_values": [1.0]}]),
        case("single output.precision 3",
             ["single", "--config", {"mzi": POINTS["below"], "output": {"precision": 3}}]),
        case("fig2 one angle where the port intensities differed, json",
             ["fig2", "--config", {"mzi": {"gamma": PORT_FIELD["gamma"],
                                           "n_photons": PORT_FIELD_FIG2_PHOTONS},
                                   "chi_values": [PORT_FIELD["chi"]],
                                   "scan": {"variable": "theta2",
                                            "grid": [PORT_FIELD["theta2"]]}}]
             + FORMATS["json"]),
        case("single where the port intensities differed",
             ["single", "--config", {"mzi": PORT_FIELD}]),
        case("fig2 |alpha_f| exactly 1e-15, json",
             ["fig2", "--config", {"mzi": {"n_photons": ZERO_EDGE["n_photons"]},
                                   "chi_values": [ZERO_EDGE["chi"]], "scan": ZERO_EDGE_SCAN}]
             + FORMATS["json"]),
        case("fig4 |alpha_f| exactly 1e-15, json",
             ["fig4", "--config", {"mzi": {"chi": ZERO_EDGE["chi"]}, "detector": DETECTOR,
                                   "n_values": [ZERO_EDGE["n_photons"]],
                                   "scan": ZERO_EDGE_SCAN}] + FORMATS["json"]),
        case("single |alpha_f| exactly 1e-15, detector",
             ["single", "--config", {"mzi": ZERO_EDGE, "detector": DETECTOR}]),
        case("single theta2 pi/2, chi -pi/2, gamma pi", ["single", "--config", {"mzi": CORNER}]),
        case("single theta2 pi/2, chi -pi/2, gamma pi, detector",
             ["single", "--config", {"mzi": CORNER, "detector": DETECTOR}]),
        case("single theta2 pi/2, chi -pi/2, gamma pi, no photons",
             ["single", "--config", {"mzi": {**CORNER, "n_photons": 0}}]),
        # Each takes one term of the saturated readout off the floats.
        case("fig4 LO 1e-308",
             ["fig4", "--config", {**STRONG_FIG4, "lo": {"beta_mag": 1e-308}, "n_values": [100]},
              "--scan", "theta2", "0.3", "0.7", "2"]),
        case("single LO 1e-320", ["single", "--config", {**STRONG, "lo": {"beta_mag": 1e-320}}]),
        case("single k_max 1.7e308, n_sat 1",
             ["single", "--config", {"mzi": {"theta2": 0.3, "chi": 0.01},
                                     "detector": {"k_max": 1.7e308, "n_sat": 1.0}}]),
        case("single k_max 1e308, n_sat 1e-300",
             ["single", "--config", {**STRONG, "detector": {"k_max": 1e308, "n_sat": 1e-300}}]),
        case("single k_max 1e300, n_sat 1e-300",
             ["single", "--config", {**STRONG, "detector": {"k_max": 1e300, "n_sat": 1e-300}}]),
        case("single k_max 1e-320, 1e-20 photons",
             ["single", "--config", {"mzi": {"theta2": 0.3, "chi": 0.01, "n_photons": 1e-20},
                                     "detector": {"k_max": 1e-320, "n_sat": 500.0}}]),
        case("single --self-check --out", below + ["--self-check", {}, "--out", "out.json"]),
        case("single --self-check, output.path",
             ["single", "--config", {"mzi": POINTS["below"], "output": {"path": "out.json"}},
              "--self-check", {}]),
    ]
    out += [case(f"{name} unread key",
                 [name, "--config", raw] + (["--seed", "1"] if name == "fig3" else []))
            for name, raw in UNREAD.items()]
    for fmt, fmt_args in FORMATS.items():
        out += [case(f"{name} hoisted terms, 2001 angles through pi/4, {fmt}",
                     [name, "--config", HOISTED[name]] + fmt_args) for name in HOISTED]
        out += [case(f"fig3 m across the block cap, shots.runs {runs}, {fmt}",
                     ["fig3", "--config", {"shots": {"seed": 5, "runs": runs},
                                           "scan": {"variable": "m", "grid": BLOCK_CAP_M}}]
                     + fmt_args) for runs in (2, 7)]
    out += [case(f"{name} 25 float neighbours of pi/4, csv",
                 [name, "--config", raw] + FORMATS["csv"]) for name, raw in DARK_EDGE.items()]
    out += [case(f"single {n} float steps from pi/4, detector",
                 ["single", "--config", {"mzi": {"theta2": float_steps(DARK, n), "chi": 0.01},
                                         "detector": DETECTOR}])
            for n in DARK_EDGE_SINGLE_STEPS]
    for beta in ("1.3e154", "1.4e154"):
        lo = {"lo": {"beta_mag": float(beta)}}
        out += [case(f"single LO {beta}", ["single", "--config", {**STRONG, **lo}]),
                case(f"fig4 LO {beta}", ["fig4", "--config", {**STRONG_FIG4, **lo},
                                         "--scan", "theta2", "0.3", "0.4", "2"])]
    out += [case("single amplified phase subnormal",
                 ["single", "--config", {**SUBNORMAL_PHASE,
                                         "mzi": {"theta2": 0.3, "chi": 1e-313}}]),
            case("fig4 amplified phase subnormal",
                 ["fig4", "--config", SUBNORMAL_PHASE, "--scan", "theta2", "0.3", "0.3", "1"]),
            case("fig2 n_photons the largest float", ["fig2", "--config", {"mzi": LARGEST_N}]),
            case("single n_photons the largest float, near pi/4",
                 ["single", "--config", {"mzi": {**LARGEST_N, **LARGEST_N_POINT}}])]
    return out


def write_inputs(folder: Path, inputs: dict[str, bytes | None]) -> None:
    """Write one case's inputs into ``folder``: bytes as a file, None as a directory."""
    for name, content in inputs.items():
        if content is None:
            (folder / name).mkdir()
        else:
            (folder / name).write_bytes(content)


def run(root: Path, argv: list[str], inputs: dict[str, bytes | None]) -> dict[str, object]:
    """Run one case with ``root``'s psamzi in a fresh working directory of its inputs."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as cwd:
        write_inputs(Path(cwd), inputs)
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
    all_cases = cases()
    differing = []
    for label, case_argv, inputs in all_cases:
        mine, theirs = run(ROOT, case_argv, inputs), run(other, case_argv, inputs)
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
