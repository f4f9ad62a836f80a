"""Record the benchmark's end-to-end metrics of a tree in the next BENCH_<n>.json.

Usage: python tools/bench_record.py [--root TREE] [--seeds K]

For each workload of BENCHMARK.json, the script runs ``perfbench/run.py
--workload W --seed S --seconds R --trace 0``, R being BENCHMARK.json's
``run_seconds``, in TREE (this tree by default) for seeds 1 to K (5 by
default), one run at a time, through ``bench_pairs.run_once``.  It
then writes ``BENCH_<n>.json`` at this tree's root, where n is the first
unused index.  The file holds TREE's commit as git reports it, whether
tracked files differ from that commit, and the date; whether
PYTHONDONTWRITEBYTECODE was set and whether TREE's ``src/`` held
``__pycache__`` before the runs; and, for each workload, every run's seed,
provenance line, ops and metric values, the failed and attempted ops over
all runs, and each end-to-end metric's median and quartiles over the runs.
It exits 1 and writes nothing if a run exits nonzero or prints no result line.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import statistics
import subprocess
from pathlib import Path

from bench_pairs import ROOT, run_once


def git(tree: Path, *args: str) -> str | None:
    """The output of ``git args`` in ``tree``, None outside a checkout of its own."""
    proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "GIT_CEILING_DIRECTORIES": str(tree.parent)})
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="the tree to measure")
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args(argv)
    tree = args.root.resolve()
    if not (tree / "perfbench" / "run.py").is_file():
        parser.error(f"{tree} has no perfbench/run.py")
    if args.seeds < 2:
        parser.error("--seeds must be >= 2, for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = git(tree, "status", "--porcelain", "--untracked-files=no")
    record = {
        "commit": git(tree, "rev-parse", "HEAD"),
        "modified": None if status is None else bool(status),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "src_pycache": any((tree / "src").rglob("__pycache__")),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            result = run_once(tree, workload, seed, bench["run_seconds"])
            if result is None:
                return 1
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "provenance": result.get("provenance"),
                         "failed": result["failed"], "attempted": result["attempted"],
                         "metrics": values})
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{name} {value:.4g}" for name, value in values.items()),
                  flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            q1, median, q3 = statistics.quantiles(
                [run["metrics"][name] for run in runs], n=4, method="inclusive")
            summary[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3}
        record["workloads"][workload] = {
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "metrics": summary, "runs": runs}
    n = next(i for i in itertools.count() if not (ROOT / f"BENCH_{i}.json").exists())
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
