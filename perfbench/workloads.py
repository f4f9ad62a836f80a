"""The three benchmark workloads.

Every input (configs, grids, seeds, working points) is drawn from the
workload seed with ``random.Random``; psamzi only ever sees the generated
inputs.  Nothing here imports numpy or psamzi at module level: both are part
of the measured set-up.

A workload object offers
  ``setup()``                  import, build inputs, one warm-up op;
  ``op(i, traced)``            one timed operation, returning its outputs;
  ``kind(i)``                  which kind of op ``i`` is, for per-kind medians;
  ``check(i, out)``            cheap per-op checks, a list of error strings;
  ``verify()``                 oracle checks of the reference outputs and
                               the rerun / thread-count byte comparisons;
  ``tables(workers)``          its own tables, for the thread-pool probe;
  ``period``                   ops per round of the fixed op pattern;
  ``in_process``               whether psamzi runs in the harness process;
and keeps per-op layer counters in ``self.counts`` and the oracle's tally in
``self.verdicts``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from oracle import Verdicts

CHILD_TIMEOUT_S = 60
PI4 = math.pi / 4
FIG3_M_GRID = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
DEFAULT_GRID = (0.05, PI4 - 1e-4, 200)  # the README's fig2/fig4 default


def _rng(seed: int, purpose: str, index: int = 0) -> random.Random:
    return random.Random(f"{seed}/{purpose}/{index}")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


def import_psamzi(src: Path):
    """Import psamzi from the checkout's ``src`` and nowhere else."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import psamzi

    if Path(psamzi.__file__).resolve().parent != (src / "psamzi").resolve():
        raise RuntimeError(f"psamzi imported from {psamzi.__file__}, not {src}")
    return psamzi


def linspace(lo: float, hi: float, n: int) -> list[float]:
    import numpy as np

    return [float(x) for x in np.linspace(lo, hi, n)]


def cli_inputs(seed: int) -> dict:
    """Seeded configs for the four CLI subcommands at their default sizes."""
    r = _rng(seed, "cli")
    detector = {"k_max": r.uniform(300.0, 600.0), "n_sat": r.uniform(300.0, 700.0)}
    return {
        "fig2": {
            "mzi": {"n_photons": r.uniform(50.0, 200.0)},
            "chi_values": [r.uniform(5e-5, 5e-4), r.uniform(5e-3, 2e-2)],
        },
        "fig3_seed": r.randrange(1, 2**31),
        "fig4": {"mzi": {"chi": r.uniform(5e-5, 5e-4)}, "detector": detector},
        "single": {
            "mzi": {
                "theta2": r.uniform(0.3, PI4 - 0.005),
                "chi": r.uniform(1e-3, 5e-2),
                "gamma": r.uniform(-0.2, 0.2),
                "n_photons": r.uniform(50.0, 500.0),
            },
            "detector": detector,
        },
    }


def cli_argvs(tmp: Path, inputs: dict) -> list[tuple[str, list[str]]]:
    """Write the configs and return the round robin of (kind, argv)."""
    argvs = []
    for kind in ("fig2", "fig3", "fig4", "single"):
        argv = [kind]
        if kind == "fig3":
            argv += ["--seed", str(inputs["fig3_seed"])]
        else:
            path = tmp / f"{kind}.json"
            path.write_text(json.dumps(inputs[kind]), encoding="utf-8")
            argv += ["--config", str(path)]
        argv += ["--out", str(tmp / f"{kind}.out")]
        argvs.append((kind, argv))
    return argvs


class CliCold:
    """One op is one fresh ``python -m psamzi.cli`` process, round robin."""

    name = "cli_cold"
    period = 4
    in_process = False

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root, self.tmp, self.seed = root, tmp, seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reference: dict[str, bytes] = {}
        self.counts: Counter = Counter()
        self.verdicts = Verdicts()
        self.tracer = None  # set by the harness in the traced phase

    def _run(self, argv: list[str], traced: bool = False, spans: Path | None = None):
        if traced:
            runner = Path(__file__).with_name("run.py")
            cmd = [sys.executable, str(runner), "--cli-child", str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "psamzi.cli", *argv]
        return subprocess.run(
            cmd, env=self.env, cwd=self.root, capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def setup(self) -> None:
        self.inputs = cli_inputs(self.seed)
        self.argvs = cli_argvs(self.tmp, self.inputs)
        # Warm-up: the first kind of the round robin; pages in the interpreter,
        # numpy and scipy the way a user's second invocation finds them.
        proc = self._run(self.argvs[0][1])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up invocation failed: {proc.stderr.decode()}")

    def kind(self, i: int) -> str:
        return self.argvs[i % self.period][0]

    def op(self, i: int, traced: bool):
        kind, argv = self.argvs[i % self.period]
        out_path = self.tmp / f"{kind}.out"
        out_path.unlink(missing_ok=True)
        spans = self.tmp / "spans.json"
        proc = self._run(argv, traced, spans)
        self.counts["calls"] += 1
        if proc.returncode != 0:
            self.counts["calls_failed"] += 1
            return kind, proc.returncode, proc.stderr.decode(errors="replace")
        if traced:
            self.tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        return kind, 0, out_path.read_bytes()

    def check(self, i: int, out) -> list[str]:
        kind, code, payload = out
        if code != 0:
            return [f"{kind} exited {code}: {payload[-300:]}"]
        reference = self.reference.setdefault(kind, payload)
        if kind != "single":
            rows = payload.count(b"\n") - 2
            self.counts["rows"] += rows
            self.counts["sentinel_rows"] += sum(
                1 for line in payload.splitlines()[2:] if b"NA" in line
            )
        if payload != reference:
            return [f"{kind} output differs from its first run with the same inputs"]
        return []

    def verify(self) -> list[str]:
        """Oracle checks of each subcommand's reference output, plus a
        ``--workers nproc`` rerun of fig4 that must give the same bytes."""
        psamzi = import_psamzi(self.root / "src")
        from oracle import Interferometer, check_fig2, check_fig3, check_fig4, check_single, parse_csv

        ifo = Interferometer(psamzi.bs_matrix)
        v = self.verdicts
        if set(self.reference) != {"fig2", "fig3", "fig4", "single"}:
            return [f"only {sorted(self.reference)} produced output"]
        grid = linspace(*DEFAULT_GRID)
        r = _rng(self.seed, "cli-sample")
        fig2 = self.inputs["fig2"]
        _, _, rows = parse_csv(self.reference["fig2"].decode())
        check_fig2(v, rows, {
            "grid": grid, "chi_values": fig2["chi_values"], "gamma": 0.0,
            "n_photons": fig2["mzi"]["n_photons"], "input_phase": 0.0,
        }, ifo, r.sample(range(len(rows)), 16))
        fig4 = self.inputs["fig4"]
        _, _, rows = parse_csv(self.reference["fig4"].decode())
        check_fig4(v, rows, {
            "grid": grid, "n_values": [100.0, 500.0, 1000.0, 2000.0], "gamma": 0.0,
            "chi": fig4["mzi"]["chi"], "input_phase": 0.0,
            "beta_mag": math.sqrt(10.0), "xi": math.pi / 2,
            **fig4["detector"],
        }, ifo, r.sample(range(len(rows)), 16))
        head, _, rows = parse_csv(self.reference["fig3"].decode())
        if not head.endswith(f"seed={self.inputs['fig3_seed']}"):
            v.errors.append(f"fig3 provenance line {head!r} lacks the seed")
        check_fig3(v, rows, {
            "theta2": PI4 - 0.003, "chi": 1e-2, "gamma": 0.0, "n_photons": 100.0,
            "input_phase": 0.0, "m_grid": FIG3_M_GRID, "runs": 200,
        }, ifo)
        single = self.inputs["single"]["mzi"]
        check_single(
            v, json.loads(self.reference["single"]),
            {**single, "input_phase": 0.0, "xi": math.pi / 2}, ifo,
        )
        kind, argv = self.argvs[2]
        threaded = self.tmp / "fig4-threaded.out"
        argv = argv[:-1] + [str(threaded), "--workers", str(nproc())]
        proc = self._run(argv)
        if proc.returncode != 0 or threaded.read_bytes() != self.reference["fig4"]:
            v.errors.append(f"fig4 --workers {nproc()} differs from --workers 1")
        return v.errors

    def tables(self, workers: int) -> None:
        import_psamzi(self.root / "src")
        from psamzi.config import load_config
        from psamzi.runner import run_fig4

        run_fig4(load_config(self.tmp / "fig4.json"), workers=workers)


class ScanDense:
    """run_fig2 + run_fig4 on a dense theta2 grid, each rendered as CSV and JSON.

    Every third op runs the scans on ``nproc`` threads, the others on one, so
    the median falls inside the single-thread ops and the tail inside the
    threaded ones.
    """

    name = "scan_dense"
    period = 3
    in_process = True
    HALF_POINTS = 1001  # per side of the dark point; pi/4 is shared

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root, self.tmp, self.seed = root, tmp, seed
        self.counts: Counter = Counter()
        self.verdicts = Verdicts()

    def setup(self) -> None:
        self.psamzi = import_psamzi(self.root / "src")
        from psamzi import runner
        from psamzi.config import load_config

        self.runner = runner
        r = _rng(self.seed, "scan")
        lo, hi = r.uniform(0.05, 0.15), r.uniform(PI4 + 0.3, PI4 + 0.45)
        # Both halves end exactly on pi/4, so the grid holds the dark point.
        self.grid = (
            linspace(lo, PI4, self.HALF_POINTS)
            + linspace(PI4, hi, self.HALF_POINTS)[1:]
        )
        scan = {"variable": "theta2", "grid": self.grid}
        self.fig2_in = {
            "mzi": {"n_photons": r.uniform(50.0, 200.0)},
            "chi_values": [r.uniform(5e-5, 5e-4), r.uniform(5e-3, 2e-2)],
            "scan": scan,
        }
        self.fig4_in = {
            "mzi": {"chi": r.uniform(5e-5, 5e-4)},
            "detector": {"k_max": r.uniform(300.0, 600.0), "n_sat": r.uniform(300.0, 700.0)},
            "n_values": [r.uniform(50, 150), r.uniform(300, 700),
                         r.uniform(800, 1200), r.uniform(1500, 2500)],
            "scan": scan,
        }
        configs = []
        for name, raw in (("fig2", self.fig2_in), ("fig4", self.fig4_in)):
            path = self.tmp / f"scan-{name}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            configs.append(load_config(path))
        self.cfg2, self.cfg4 = configs
        self.threads = nproc()
        self.reference = self._op(1)

    def _op(self, workers: int):
        run = self.runner
        t2 = run.run_fig2(self.cfg2, workers=workers)
        t4 = run.run_fig4(self.cfg4, workers=workers)
        p2, p4 = self.cfg2.output.precision, self.cfg4.output.precision
        return (
            t2, t4,
            run.render_csv(t2, p2), run.render_table_json(t2, p2),
            run.render_csv(t4, p4), run.render_table_json(t4, p4),
        )

    def tables(self, workers: int) -> None:
        self.runner.run_fig2(self.cfg2, workers=workers)
        self.runner.run_fig4(self.cfg4, workers=workers)

    def workers(self, i: int) -> int:
        return self.threads if i % self.period == self.period - 1 else 1

    def kind(self, i: int) -> str:
        return f"workers={self.workers(i)}"

    def op(self, i: int, traced: bool):
        return self._op(self.workers(i))

    def check(self, i: int, out) -> list[str]:
        t2, t4, *texts = out
        self.counts["calls"] += 6
        self.counts["rows"] += len(t2.rows) + len(t4.rows)
        self.counts["sentinel_rows"] += t2.sentinel_rows + t4.sentinel_rows
        if texts != list(self.reference[2:]):
            return [f"op {i} (workers={self.workers(i)}) output differs from "
                    "the single-thread reference"]
        return []

    def verify(self) -> list[str]:
        from oracle import Interferometer, check_fig2, check_fig4, parse_csv

        ifo = Interferometer(self.psamzi.bs_matrix)
        csv2, json2, csv4, json4 = self.reference[2:]
        n = len(self.grid)
        half = self.HALF_POINTS
        r = _rng(self.seed, "scan-sample")
        v = self.verdicts
        spec2 = {
            "grid": self.grid, "chi_values": self.fig2_in["chi_values"], "gamma": 0.0,
            "n_photons": self.fig2_in["mzi"]["n_photons"], "input_phase": 0.0,
        }
        spec4 = {
            "grid": self.grid, "n_values": self.fig4_in["n_values"], "gamma": 0.0,
            "chi": self.fig4_in["mzi"]["chi"], "input_phase": 0.0,
            "beta_mag": math.sqrt(10.0), "xi": math.pi / 2, **self.fig4_in["detector"],
        }
        for check, spec, count, csv_text, json_text in (
            (check_fig2, spec2, 2, csv2, json2),
            (check_fig4, spec4, 4, csv4, json4),
        ):
            # Eight rows each side of the dark point, the dark rows themselves
            # and their neighbours, in every block of the table.
            sample = sorted(
                {b * n + j for b in range(count)
                 for j in r.sample(range(half - 1), 8)
                 + r.sample(range(half, n), 8) + [half - 2, half - 1, half]}
            )
            _, _, rows = parse_csv(csv_text)
            check(v, rows, spec, ifo, sample)
            payload = json.loads(json_text)
            check(v, payload["rows"], spec, ifo, sample)
            if not csv_text.startswith(f"# config_sha256={payload['config_sha256']} "):
                v.errors.append("CSV and JSON carry different config hashes")
        return v.errors


class McInference:
    """One op: a seeded fig3 table, the README estimation pipeline on each
    side of the dark point, and invert_chi round trips, all with a fresh seed.
    """

    name = "mc_inference"
    period = 1
    in_process = True
    ROUND_TRIPS = 12  # per side of the dark point
    README_M = 10_000

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root, self.tmp, self.seed = root, tmp, seed
        self.counts: Counter = Counter()
        self.verdicts = Verdicts()

    def setup(self) -> None:
        self.psamzi = import_psamzi(self.root / "src")
        from psamzi import config, runner

        # Modules, not functions, so that the tracer's wrappers are seen.
        self.runner, self.config = runner, config
        r = _rng(self.seed, "mc")
        self.fig3_in = {
            "mzi": {"theta2": PI4 - r.uniform(0.002, 0.006), "chi": r.uniform(5e-3, 2e-2)},
        }
        self.fig3_path = self.tmp / "mc-fig3.json"
        self.fig3_path.write_text(json.dumps(self.fig3_in), encoding="utf-8")
        chi = r.uniform(5e-3, 2e-2)
        offset = r.uniform(0.002, 0.01)
        self.points = {
            side: self.psamzi.MziParams(theta2=theta2, chi=chi, alpha=10.0 + 0j)
            for side, theta2 in (("below", PI4 - offset), ("past", PI4 + offset))
        }
        self.op(-1, False)

    def kind(self, i: int) -> str:
        return "composite"

    def op_seed(self, i: int) -> int:
        return _rng(self.seed, "mc-op", i).randrange(1, 2**31)

    def op(self, i: int, traced: bool):
        p = self.psamzi
        seed = self.op_seed(i)
        config = self.config.load_config(self.fig3_path, seed=seed)
        table = self.runner.run_fig3(config)
        text = self.runner.render_csv(table, config.output.precision)
        estimates = {}
        for k, (side, params) in enumerate(self.points.items()):
            amp = p.chi_tilde_exact(params)
            run = p.sample_shots(
                p.propagate_mzi(params).alpha_f, math.pi / 2, self.README_M, seed + k
            )
            try:
                estimates[side] = p.estimate_chi_from_run(run, amp.alpha_f_mag, params.theta2)
            except p.NoRoot as exc:
                estimates[side] = exc
        r = _rng(self.seed, "mc-roundtrip", i)
        trips = []
        for side in ("below", "past"):
            for _ in range(self.ROUND_TRIPS):
                theta2 = (
                    r.uniform(0.05, PI4 - 0.01) if side == "below"
                    else r.uniform(PI4 + 0.01, math.pi / 2 - 0.02)
                )
                gamma = r.choice((-1.0, 1.0)) * r.uniform(0.02, 0.2)
                chi = r.uniform(-0.3, 0.3)
                measured = p.chi_tilde_exact(
                    p.MziParams(theta2=theta2, chi=chi, alpha=1.0 + 0j, gamma=gamma)
                ).chi_tilde
                try:
                    recovered = p.invert_chi(measured, theta2, gamma)
                except p.NoRoot as exc:
                    recovered = exc
                trips.append((side, theta2, gamma, chi, measured, recovered))
        return seed, text, estimates, trips

    def check(self, i: int, out) -> list[str]:
        from oracle import (MC_SIGMAS, ROOT_TOL, ROUND_TRIP_TOL, Interferometer,
                            check_fig3, parse_csv, wrap)

        ifo = Interferometer(self.psamzi.bs_matrix)
        seed, text, estimates, trips = out
        self.last_op, self.last_text = i, text
        c = self.counts
        v = self.verdicts
        known = len(v.errors)
        head, _, rows = parse_csv(text)
        c["calls"] += 2
        c["rows"] += len(rows)
        if not head.endswith(f"seed={seed}"):
            v.errors.append(f"fig3 provenance line {head!r} lacks seed {seed}")
        check_fig3(v, rows, {
            **self.fig3_in["mzi"], "gamma": 0.0, "n_photons": 100.0, "input_phase": 0.0,
            "m_grid": FIG3_M_GRID, "runs": 200,
        }, ifo)
        errors = v.errors[known:]

        def is_root(chi_hat, measured, theta2, gamma):
            image, _ = ifo.chi_tilde(theta2, chi_hat, gamma, 1.0)
            return abs(wrap(image - measured)) < ROOT_TOL

        for side, est in estimates.items():
            params = self.points[side]
            c["calls"] += 2
            c["estimates"] += 1
            if isinstance(est, Exception):
                # The README estimator cannot invert past the dark point: a
                # known library failure, counted and reported, not hidden.
                c["calls_failed"] += 1
                c["estimate_noroot"] += 1
                if side == "below":
                    errors.append(f"estimator raised {est!r} below the dark point")
                continue
            c["clamped"] += est.clamped
            if not is_root(est.chi_hat, est.chi_tilde_hat, params.theta2, 0.0):
                errors.append(f"{side} estimate {est.chi_hat!r} does not reproduce "
                              f"chi_tilde_hat {est.chi_tilde_hat!r}")
            chi_t, mag = ifo.chi_tilde(params.theta2, params.chi, 0.0, params.alpha)
            sigma = 0.5 / (math.sqrt(self.README_M) * mag * abs(math.cos(chi_t)))
            if side == "below" and not est.clamped and (
                abs(est.chi_tilde_hat - chi_t) > MC_SIGMAS * sigma
            ):
                errors.append(f"below-dark estimate chi_tilde_hat={est.chi_tilde_hat!r} "
                              f"is more than {MC_SIGMAS} sigma from {chi_t!r}")
        for side, theta2, gamma, chi, measured, recovered in trips:
            c["calls"] += 2
            if isinstance(recovered, Exception):
                # The true chi is a root, so this breaks invert_chi's contract.
                # Past the dark point it happens (about 1 in 30 000 round
                # trips, e.g. theta2=0.8138007990985905,
                # gamma=0.14106704922706328, chi=-0.19291433989118023): a
                # known library failure, counted and reported like the
                # estimator's.  Below the dark point it fails the op.
                c["calls_failed"] += 1
                c["invert_noroot"] += 1
                if side == "below":
                    errors.append(f"invert_chi found no root for a forward image "
                                  f"(theta2={theta2!r}, gamma={gamma!r}, chi={chi!r})")
            elif abs(recovered - chi) <= ROUND_TRIP_TOL:
                pass
            elif side == "past" and is_root(recovered, measured, theta2, gamma):
                # A second valid root past the dark point: invert_chi picked
                # the branch that is not the true chi.
                c["wrong_branch"] += 1
            else:
                errors.append(f"round trip theta2={theta2!r} gamma={gamma!r}: "
                              f"chi={chi!r}, recovered {recovered!r}")
        return errors

    def tables(self, workers: int) -> None:
        self.runner.run_fig3(self.config.load_config(self.fig3_path, seed=self.op_seed(0)),
                             workers=workers)

    def verify(self) -> list[str]:
        """The last op's fig3 rerun with the same seed, on one thread and on
        ``nproc`` threads, must reproduce its bytes."""
        config = self.config.load_config(self.fig3_path, seed=self.op_seed(self.last_op))
        texts = {
            w: self.runner.render_csv(self.runner.run_fig3(config, workers=w),
                                      config.output.precision)
            for w in (1, nproc())
        }
        errors = []
        if texts[1] != self.last_text:
            errors.append("fig3 rerun with the same seed gave different bytes")
        if texts[nproc()] != texts[1]:
            errors.append(f"fig3 with workers={nproc()} differs from workers=1")
        return errors


WORKLOADS = {w.name: w for w in (CliCold, ScanDense, McInference)}


def trace_targets() -> dict:
    """Metric prefix -> (module, public function, bucket) for the tracer."""
    from psamzi import amplification, config, homodyne, optics, runner, saturation, shots

    def dark_side(args, kwargs):
        theta2 = args[1] if len(args) > 1 else kwargs["theta2"]
        return "past" if theta2 > PI4 else "below"

    def shot_count(args, kwargs):
        return args[2] if len(args) > 2 else kwargs["m"]

    def table_rows(args, kwargs):
        return len((args[0] if args else kwargs["table"]).rows)

    targets = {
        "config.load_config": (config, "load_config", None),
        "config.config_hash": (config, "config_hash", None),
        "optics.propagate_mzi": (optics, "propagate_mzi", None),
        "amplification.weak_value": (amplification, "weak_value", None),
        "amplification.chi_tilde_aav": (amplification, "chi_tilde_aav", None),
        "amplification.chi_tilde_exact": (amplification, "chi_tilde_exact", None),
        "amplification.invert_chi": (amplification, "invert_chi", dark_side),
        "homodyne.quadrature_stats_exact": (homodyne, "quadrature_stats_exact", None),
        "saturation.error_ratio": (saturation, "error_ratio", None),
        "shots.sample_shots": (shots, "sample_shots", shot_count),
        "shots.estimate_chi_from_run": (shots, "estimate_chi_from_run", None),
    }
    for fn in ("run_fig2", "run_fig3", "run_fig4", "run_single", "render_record_json"):
        targets[f"runner.{fn}"] = (runner, fn, None)
    for fn in ("render_csv", "render_table_json"):
        targets[f"runner.{fn}"] = (runner, fn, table_rows)
    return targets
