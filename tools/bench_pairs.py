"""Pair perfbench runs of this tree and another tree, one workload at a time.

Usage: python tools/bench_pairs.py OTHER_ROOT --workload NAME [--pairs 10] [--seed S]

OTHER_ROOT is another checkout of the repository, for example an export of
the parent commit.  Pair i runs ``perfbench/run.py --workload NAME --seed S+i
--seconds R --trace 0``, R being BENCHMARK.json's ``run_seconds``, once in
this tree and once in OTHER_ROOT, one run at a time; this tree goes first in
even pairs and second in odd ones.  The last line of each run's standard
output is its JSON result.  After each pair the script prints
both sides' values of each end-to-end metric of this tree's BENCHMARK.json,
this tree's first.  Then, for each such metric, it prints the median and
quartiles of each side, this tree's wins out of the pairs (a tie counts for
neither side), and the relative change of the medians, signed so that a
positive change is worse, against the metric's bound.  Last come each side's
failed and attempted ops.  It exits 1 if a run exits nonzero or prints no
result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("this tree", "other tree")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result of one ``seconds``-long perfbench run in ``root``, None if it failed.

    The result also holds the run's ``provenance`` line as a dict, if printed.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode == 0 and isinstance(result, dict):
        for line in lines:
            if line.startswith("provenance "):
                result["provenance"] = json.loads(line.partition(" ")[2])
        return result
    sys.stderr.write(proc.stderr)
    print(f"{root}: seed {seed} exited {proc.returncode}"
          f"{'' if isinstance(result, dict) else ' with no result line'}", file=sys.stderr)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=Path, help="the tree to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    other = args.other_root.resolve()
    if not (other / "perfbench" / "run.py").is_file():
        parser.error(f"{other} has no perfbench/run.py")
    if args.pairs < 2:
        parser.error("--pairs must be >= 2, for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            root = ROOT if side == SIDES[0] else other
            result = run_once(root, args.workload, seed, bench["run_seconds"])
            if result is None:
                return 1
            results[side].append(result)
        mine, theirs = (results[side][-1]["metrics"] for side in SIDES)
        print(f"pair {i + 1} seed {seed}, {order[0]} first: "
              + ", ".join(f"{m['name']} {mine[m['name']]['value']:.4g}/"
                          f"{theirs[m['name']]['value']:.4g}" for m in metrics), flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"this tree {ROOT} vs other tree {other}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        mine, theirs = values[SIDES[0]], values[SIDES[1]]
        wins = sum(a < b if lower else a > b for a, b in zip(mine, theirs))
        q = {side: statistics.quantiles(values[side], n=4, method="inclusive")
             for side in SIDES}
        change = (q[SIDES[0]][1] - q[SIDES[1]][1]) / q[SIDES[1]][1]
        worse = change if lower else -change
        verdict = "past the bound" if worse > metric["bound"] else "within the bound"
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              + "; ".join(f"{side} median {q[side][1]:.4g} [q {q[side][0]:.4g}-{q[side][2]:.4g}]"
                          for side in SIDES)
              + f"; this tree wins {wins} of {args.pairs}; change {worse:+.1%} "
              f"(positive is worse), bound {metric['bound']:.0%}, {verdict}")
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: {failed} of {attempted} ops failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
