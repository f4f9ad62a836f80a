"""psamzi benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The harness
reads psamzi from ``src/`` of the checkout and keeps its temporary files under
``.perfbench_tmp/``, which it removes on exit.  See perfbench/README.md for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# The percentile reported as op_tail_ms: the highest with at least ten ops
# beyond it at the op counts one 30 s run reaches on a 2-CPU machine
# (about 30, 36 and 100 ops when the machine is busy).
TAIL_PERCENTILE = {"cli_cold": 65, "scan_dense": 72, "mc_inference": 90}
SETUP_REPEATS = 5
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 100

TRACED_FUNCTIONS = [
    "config.load_config", "config.config_hash", "optics.propagate_mzi",
    "amplification.weak_value", "amplification.chi_tilde_aav",
    "amplification.chi_tilde_exact", "amplification.invert_chi",
    "homodyne.quadrature_stats_exact", "saturation.error_ratio",
    "shots.sample_shots", "shots.estimate_chi_from_run",
]
RUNNER_FUNCTIONS = [
    "runner.run_fig2", "runner.run_fig3", "runner.run_fig4", "runner.run_single",
    "runner.render_csv", "runner.render_table_json", "runner.render_record_json",
]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def measure_setup(wl, args, traced: bool) -> list[float]:
    """Set up SETUP_REPEATS times; in-process set-up repeats in fresh children."""
    if not wl.in_process:
        return [timed_setup(wl) for _ in range(1 if traced else SETUP_REPEATS)]
    samples = []
    for _ in range(0 if traced else SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    samples.append(timed_setup(wl))
    return samples


def phase(wl, seconds: float, traced: bool, state: dict) -> tuple[list[float], float]:
    """Closed loop, one client: ops back to back until ``seconds`` have passed
    and the op pattern has completed a whole round."""
    latencies = []
    start = time.perf_counter()
    i = state["next_op"]
    while True:
        t0 = time.perf_counter()
        try:
            out = wl.op(i, traced)
            errors = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors = [f"op {i} raised {exc!r}"]
        latencies.append(time.perf_counter() - t0)
        state["by_kind"].setdefault(wl.kind(i), []).append(latencies[-1])
        if errors is None:
            errors = wl.check(i, out)
        state["attempted"] += 1
        if errors:
            state["failed"] += 1
            state["errors"].extend(errors)
        i += 1
        if time.perf_counter() - start >= seconds and len(latencies) % wl.period == 0:
            break
    state["next_op"] = i
    return latencies, time.perf_counter() - start


def import_times() -> dict:
    """``-X importtime`` of ``import psamzi`` in a fresh interpreter, in ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import psamzi"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import psamzi failed: {proc.stderr[-500:]}")
    out = {"import_ms": None, "import_scipy_ms": 0.0, "import_numpy_ms": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = (f.strip() for f in line[12:].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        top = name.split(".")[0]
        if name == "psamzi":
            out["import_ms"] = int(cumulative_us) / 1e3
        elif top in ("scipy", "numpy"):
            out[f"import_{top}_ms"] += int(self_us) / 1e3
    return out


def cli_probes(seed: int, tmp: Path) -> dict:
    """Interpreter start, import split, and in-process ``cli.main`` per round."""
    from workloads import cli_argvs, cli_inputs, import_psamzi

    interpreter = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
        interpreter.append(time.perf_counter() - t0)
    imports = [import_times() for _ in range(PROBE_REPEATS)]
    import_psamzi(SRC)
    import psamzi.cli

    probe_dir = tmp / "cli-probe"
    probe_dir.mkdir(exist_ok=True)
    argvs = cli_argvs(probe_dir, cli_inputs(seed))
    rounds = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for _, argv in argvs:
            if psamzi.cli.main(argv) != 0:
                raise RuntimeError(f"in-process cli.main({argv}) failed")
        rounds.append(time.perf_counter() - t0)
    metrics = {"cli.interpreter_ms": statistics.median(interpreter) * 1e3}
    for key in ("import_ms", "import_scipy_ms", "import_numpy_ms"):
        metrics[f"cli.{key}"] = statistics.median(m[key] for m in imports)
    metrics["cli.main_ms"] = statistics.median(rounds) * 1e3
    return metrics


def layer_metrics(wl, tracer, traced_ops: int, attempted: int) -> dict:
    """Per-op calls and self time of every traced function, plus counters."""
    m = {}
    per_op = 1.0 / traced_ops
    for name in TRACED_FUNCTIONS:
        calls, self_s = tracer.summary(name)
        m[f"{name}.calls"] = calls * per_op
        m[f"{name}.self_ms"] = self_s * 1e3 * per_op
    for name in RUNNER_FUNCTIONS:
        m[f"{name}.self_ms"] = tracer.summary(name)[1] * 1e3 * per_op
    for side in ("below", "past"):
        calls, self_s = tracer.bucket("amplification.invert_chi", side)
        m[f"amplification.invert_chi.{side}_dark_us"] = self_s / calls * 1e6 if calls else 0.0
    c = wl.counts
    m["amplification.invert_chi.noroot"] = sum(
        n for (name, exc), n in tracer.raised.items()
        if name == "amplification.invert_chi" and exc == "NoRoot"
    ) * per_op
    m["amplification.invert_chi.wrong_branch"] = c["wrong_branch"] / attempted
    m["shots.samples_drawn"] = sum(
        calls * bucket for (name, bucket), (calls, _, _) in tracer.totals.items()
        if name == "shots.sample_shots"
    ) * per_op
    m["shots.estimates"] = c["estimates"] / attempted
    m["shots.clamped_share"] = c["clamped"] / c["estimates"] if c["estimates"] else 0.0
    m["shots.estimate_noroot_share"] = (
        c["estimate_noroot"] / c["estimates"] if c["estimates"] else 0.0
    )
    m["runner.imprecise_share"] = wl.verdicts.imprecise / max(wl.verdicts.checked, 1)
    m["runner.rows"] = c["rows"] / attempted
    m["runner.sentinel_share"] = c["sentinel_rows"] / c["rows"] if c["rows"] else 0.0
    return m


def workers_slowdown(wl) -> float:
    """Run time of the workload's own tables on nproc threads over one thread."""
    from workloads import nproc

    ratios = []
    for _ in range(2):
        t = {}
        for w in (1, nproc()):
            t0 = time.perf_counter()
            wl.tables(w)
            t[w] = time.perf_counter() - t0
        ratios.append(t[nproc()] / t[1])
        print(f"tables workers=1 ms={t[1] * 1e3:.3f} workers={nproc()} "
              f"ms={t[nproc()] * 1e3:.3f}")
    return statistics.median(ratios)


def provenance(args) -> dict:
    import numpy
    import scipy
    from workloads import nproc

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "nproc": nproc(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit,
    }


def run(args, tmp: Path) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, tmp, args.seed)
    if args.setup_probe:
        print(f"setup_probe {timed_setup(wl)!r}")
        return 0
    traced = bool(args.trace)
    state = {"next_op": 0, "attempted": 0, "failed": 0, "errors": [], "by_kind": {}}
    setup = measure_setup(wl, args, traced)
    metrics = {}
    if not traced:
        latencies, wall = phase(wl, args.seconds, False, state)
        # The harness for in-process workloads, the largest CLI child otherwise.
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        rss = resource.getrusage(who).ru_maxrss / 1024.0
        verify_errors = wl.verify()
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (percentile(latencies, TAIL_PERCENTILE[wl.name]) * 1e3, "ms"),
            "ops_per_s": (len(latencies) / wall, "1/s"),
            "peak_rss_mib": (rss, "MiB"),
        }
        print(f"ops={len(latencies)} wall_s={wall:.3f} "
              f"tail=p{TAIL_PERCENTILE[wl.name]} setup_samples_s={setup}")
        for kind, values in state["by_kind"].items():
            print(f"kind {kind} ops={len(values)} "
                  f"p50_ms={statistics.median(values) * 1e3:.3f}")
    else:
        from tracer import Tracer
        from workloads import trace_targets

        plain, _ = phase(wl, args.seconds / 2, False, state)
        tracer = Tracer({} if not wl.in_process else trace_targets())
        wl.tracer = tracer
        tracer.install()
        try:
            traced_lat, _ = phase(wl, args.seconds / 2, True, state)
        finally:
            tracer.uninstall()
        verify_errors = wl.verify()
        layers = layer_metrics(wl, tracer, len(traced_lat), state["attempted"])
        layers.update(cli_probes(args.seed, tmp))
        layers["runner.workers_slowdown"] = workers_slowdown(wl)
        p50 = statistics.median(plain)
        layers["trace.overhead_share"] = (statistics.median(traced_lat) - p50) / p50
        metrics = {k: (v, UNITS[k]) for k, v in layers.items()}
        for (name, bucket), (calls, total, self_s) in sorted(
            tracer.totals.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            print(f"span {name}[{bucket}] calls={calls} total_ms={total * 1e3:.3f} "
                  f"self_ms={self_s * 1e3:.3f} self_us_per_call={self_s / calls * 1e6:.2f}")
        print(f"ops untraced={len(plain)} traced={len(traced_lat)}")
    if verify_errors:
        # Every op's output was compared against the reference that failed.
        state["errors"].extend(verify_errors)
        state["failed"] = state["attempted"]
    c = wl.counts
    print(f"library calls attempted={c['calls']} failed={c['calls_failed']} "
          f"failed_share={c['calls_failed'] / max(c['calls'], 1):.6f} "
          f"(estimator NoRoot past the dark point: {c['estimate_noroot']}, "
          f"invert_chi round-trip NoRoot: {c['invert_noroot']}, "
          f"wrong branch: {c['wrong_branch']})")
    v = wl.verdicts
    print(f"oracle values checked={v.checked} imprecise={v.imprecise} "
          f"worst_relative_deviation={v.worst:.3g}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    for error in state["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not state["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _units() -> dict:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in RUNNER_FUNCTIONS:
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "amplification.invert_chi.below_dark_us": "us",
        "amplification.invert_chi.past_dark_us": "us",
        "amplification.invert_chi.noroot": "count",
        "amplification.invert_chi.wrong_branch": "count",
        "shots.samples_drawn": "count",
        "shots.estimates": "count",
        "shots.clamped_share": "ratio",
        "shots.estimate_noroot_share": "ratio",
        "runner.imprecise_share": "ratio",
        "runner.rows": "count",
        "runner.sentinel_share": "ratio",
        "runner.workers_slowdown": "ratio",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.import_scipy_ms": "ms",
        "cli.import_numpy_ms": "ms",
        "cli.main_ms": "ms",
        "trace.overhead_share": "ratio",
    })
    return units


UNITS = _units()


def cli_child(spans_path: str, argv: list[str]) -> int:
    """A traced ``psamzi`` CLI process: main(argv) with spans written out."""
    sys.path.insert(0, str(SRC))
    import psamzi.cli
    from tracer import Tracer
    from workloads import trace_targets

    tracer = Tracer(trace_targets())
    tracer.install()
    try:
        code = psamzi.cli.main(argv)
    finally:
        tracer.uninstall()
    Path(spans_path).write_text(json.dumps(tracer.export()), encoding="utf-8")
    return code


def smoke() -> int:
    """Run every workload briefly, traced and untraced, and check that each
    metric named in BENCHMARK.json is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if proc.returncode != 0 or not result["correct"]:
                problems.append(f"exit {proc.returncode}, correct={result['correct']}")
            if got != expected:
                problems.append(
                    f"missing {sorted(set(expected) - set(got))}, "
                    f"unexpected {sorted(set(got) - set(expected))}, "
                    f"unit mismatches {sorted(k for k in got if k in expected and got[k] != expected[k])}"
                )
            print(f"smoke {workload['name']} trace={trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    return 0 if ok else 1


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--cli-child":
        return cli_child(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cli_cold", "scan_dense", "mc_inference"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="check that every metric of BENCHMARK.json is printed")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "psamzi" / "__init__.py").is_file():
        print(f"no psamzi package under {SRC}", file=sys.stderr)
        return 2
    tmp = TMP / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
