"""Command-line interface: figure scans and single-point queries.

Exit codes: 0 on success, 1 on a self-check mismatch, 2 on configuration
errors (unreadable config or expected-values files and an unwritable output
file included) and on flags the subcommand does not take, 3 when every
emitted scan row is a dark-point sentinel.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import OUTPUT_FORMATS, ScanSpec, linspace, load_config, read_json_object
from .errors import ConfigError
from .runner import (
    render_csv,
    render_record_json,
    render_table_json,
    run_fig2,
    run_fig3,
    run_fig4,
    run_single,
    self_check,
)

_FIG_RUNNERS = {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psamzi",
        description="Postselected-amplification interferometer scans "
        "(deterministic CSV/JSON output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fig2", "amplified phase vs postselection angle"),
        ("fig3", "sensitivity and uncertainty band vs shot count"),
        ("fig4", "saturation error ratio vs postselection angle"),
        ("single", "one record with every derived quantity"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--out", help="output file (default: stdout)")
        cmd.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect",
        )
        if name == "single":
            cmd.add_argument(
                "--self-check",
                metavar="EXPECTED_JSON",
                help="compare the record against stored expected values",
            )
            continue
        cmd.add_argument(
            "--scan",
            nargs=4,
            metavar=("VAR", "START", "STOP", "POINTS"),
            help="override the scan grid, e.g. --scan theta2 0.05 0.78 200",
        )
        cmd.add_argument("--format", choices=OUTPUT_FORMATS, dest="fmt")
        if name == "fig3":
            cmd.add_argument("--seed", type=int, help="seed for Monte-Carlo columns")
    return parser


def _parse_scan_flag(values: list[str]) -> ScanSpec:
    variable, start, stop, points = values
    try:
        start_f, stop_f, n = float(start), float(stop), int(points)
    except ValueError as exc:
        raise ConfigError(f"bad --scan values: {exc}") from exc
    if n < 1:
        raise ConfigError("--scan POINTS must be >= 1")
    return ScanSpec(variable=variable, grid=linspace(start_f, stop_f, n))


def _write_output(text: str, path: str | os.PathLike[str] | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot write output file {path}: {reason}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = vars(args)
    try:
        scan = _parse_scan_flag(args.scan) if flags.get("scan") else None
        config = load_config(args.config, scan=scan, seed=flags.get("seed"),
                             out=args.out, fmt=flags.get("fmt"))

        if args.command == "single":
            record = run_single(config)
            if args.self_check:
                expected = read_json_object(args.self_check, "expected-values")
                mismatches = self_check(record, expected)
                if mismatches:
                    for line in mismatches:
                        print(f"self-check mismatch: {line}", file=sys.stderr)
                    return 1
                print("self-check passed")
                return 0
            _write_output(render_record_json(record), config.output.path)
            return 0

        table = _FIG_RUNNERS[args.command](config, workers=args.workers)
        if config.output.format == "json":
            text = render_table_json(table, config.output.precision)
        else:
            text = render_csv(table, config.output.precision)
        _write_output(text, config.output.path)
        return 3 if table.sentinel_only else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
