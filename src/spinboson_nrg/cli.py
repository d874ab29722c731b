"""Command-line front end: point and sweep execution, presets, verification.

Exit codes: 0 success, 1 domain or configuration error, 2 verification
failure, 3 I/O error, 4 a point, sweep or preset wrote rows that failed or
did not converge, or an alpha-max evaluation did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .engine import NRGConfig
from .params import DomainError
from .sweep import (
    CONFIG_FIELDS,
    OUTPUT_FORMATS,
    PRESETS,
    SweepSpec,
    _metadata,
    find_alpha_max,
    preset,
    run_sweep,
    verify,
    write_output,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_ROWS = 4

# the most values one axis, and one grid, may have
MAX_VALUES = 10**6


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise CLIError(message)


def parse_axis(text: str) -> tuple[float, ...]:
    """Axis syntax: a single value, a comma list, or start:stop:step."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise CLIError(f"range must be start:stop:step, got {text!r}")
            start, stop, step = (float(p) for p in parts)
            if step <= 0:
                raise CLIError("range step must be positive")
            count = int(round((stop - start) / step))
            if count + 1 > MAX_VALUES:
                raise CLIError(f"range {text!r} has {count + 1} values,"
                               f" more than {MAX_VALUES}")
            values = [round(start + i * step, 12) for i in range(count + 1)]
            return tuple(v for v in values if v <= stop + 1e-12)
        return tuple(float(p) for p in text.split(",") if p.strip())
    except (ValueError, OverflowError) as exc:
        raise CLIError(f"bad axis {text!r}: {exc}") from None


def _add_solver_flags(p: argparse.ArgumentParser, lambda_only: bool = False):
    p.add_argument("--lambda", type=float, default=None,
                   help=f"discretization parameter (> 1; default {NRGConfig.lam})")
    if not lambda_only:
        p.add_argument("--n-keep", type=int, default=None,
                       help=f"states kept per iteration (default {NRGConfig.n_keep})")
        p.add_argument("--n-max", type=int, default=None,
                       help=f"maximum number of iterations (default {NRGConfig.n_max})")
        bundle = NRGConfig.paper_fidelity()
        p.add_argument("--paper-fidelity", action="store_true",
                       help=f"production settings: lambda {bundle.lam},"
                       f" {bundle.n_keep} kept states")


def _add_grid_flags(p: argparse.ArgumentParser):
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the points, at most one per"
                   " usable CPU and per point (default 1: serial)")
    _add_solver_flags(p)
    p.add_argument("--verbose", action="store_true",
                   help="print each solved point to stderr")
    p.add_argument("--format", choices=OUTPUT_FORMATS, default="csv")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="output file (default: stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="spinboson-nrg",
                     description="dissipative two-level system ground-state "
                                 "observables and entanglement entropy")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", aliases=["point"],
                             help="evaluate a parameter point or grid")
    p_sweep.add_argument("--alpha", required=True,
                         help="value, comma list, or start:stop:step")
    p_sweep.add_argument("--eps-over-delta", default="0.0")
    p_sweep.add_argument("--delta-ratio", default="0.04")
    _add_grid_flags(p_sweep)

    p_preset = sub.add_parser("preset", help="run a predefined figure grid")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    _add_grid_flags(p_preset)

    p_amax = sub.add_parser("alpha-max",
                            help="locate the entropy maximum over alpha")
    p_amax.add_argument("--eps-over-delta", type=float, required=True)
    p_amax.add_argument("--delta-ratio", type=float, default=0.04)
    _add_solver_flags(p_amax)
    p_amax.add_argument("--output", default=None, metavar="PATH",
                        help="also write the result as JSON ('-': stdout, in"
                        " place of the summary)")

    p_verify = sub.add_parser("verify", help="run the validation suites")
    _add_solver_flags(p_verify, lambda_only=True)

    return parser


def _config(args) -> NRGConfig:
    """The solver settings: defaults < --paper-fidelity < explicit flags."""
    base = NRGConfig.paper_fidelity() if getattr(args, "paper_fidelity", False) else NRGConfig()
    flags = {f.name: getattr(args, key) for key, f in CONFIG_FIELDS.items()
             if getattr(args, key, None) is not None}
    return dataclasses.replace(base, **flags)


def _print_record(rec):
    print(
        f"  alpha={rec.alpha:g} eps/Delta={rec.eps_over_delta:g}"
        f" Delta/wc={rec.delta_ratio:g}: sx={rec.sx:.6f}"
        f" sz={rec.sz:.6f} E={rec.entropy:.6f} N_m={rec.n_m}"
        f" converged={rec.converged}",
        file=sys.stderr,
    )


def _exit_status(bad: int, warning: str) -> int:
    """EXIT_ROWS after warning on stderr if any result is bad, else EXIT_OK."""
    if bad:
        print(f"warning: {warning}", file=sys.stderr)
        return EXIT_ROWS
    return EXIT_OK


def _destination(path: str | None):
    """What opens the results' destination: stdout for None or '-', else the
    file at path, opened in append mode at once so that an unwritable path
    fails before any solving.  An existing file keeps its contents until
    results exist, and a file this makes is removed again meanwhile."""
    if path in (None, "-"):
        return lambda: contextlib.nullcontext(sys.stdout)
    made = not os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if made:
        os.remove(path)
    return lambda: open(path, "w", encoding="utf-8")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config(args)

        if args.command in ("point", "sweep", "preset"):
            if args.command == "preset":
                spec = preset(args.name)
                note = (
                    f"preset {args.name}: grid values are representative"
                    " choices made by this package"
                )
            else:  # a point is a sweep over single values
                axes = (args.alpha, args.eps_over_delta, args.delta_ratio)
                spec, note = SweepSpec(*map(parse_axis, axes)), None
            size = len(spec.alpha) * len(spec.eps_over_delta) * len(spec.delta_ratio)
            if size > MAX_VALUES:
                raise CLIError(f"the grid has {size} points, more than {MAX_VALUES}")
            open_output = _destination(args.output)
            progress = _print_record if args.verbose else None
            records = run_sweep(spec, cfg, args.jobs, progress)
            with open_output() as stream:
                write_output(records, args.format, stream, cfg, note)
            failed = sum(r.error is not None for r in records)
            unconverged = sum(r.error is None and not r.converged for r in records)
            return _exit_status(
                failed + unconverged,
                f"of {len(records)} rows, {failed} failed and {unconverged} did not"
                " converge",
            )

        if args.command == "alpha-max":
            open_output = _destination(args.output)
            result = find_alpha_max(args.eps_over_delta, args.delta_ratio, cfg)
            if args.output != "-":  # '-': the JSON replaces the summary lines
                print(f"alpha_M = {result.alpha_m:.4f}")
                print(f"E(alpha_M) = {result.entropy_max:.6f} bits")
                print(f"evaluations: {result.n_evaluations}")
            if args.output is not None:
                entropies = {a: r.entropy for a, r in result.evaluations.items()}
                payload = {"metadata": _metadata(cfg), **dataclasses.asdict(result),
                           "evaluations": entropies}
                with open_output() as stream:
                    print(json.dumps(payload, indent=2), file=stream)
            unconverged = len(result.unconverged)
            return _exit_status(
                unconverged,
                f"of {result.n_evaluations} evaluations, {unconverged} did not converge",
            )

        if args.command == "verify":
            report = verify(cfg.lam)
            for check in report.checks:
                status = "pass" if check.passed else "FAIL"
                print(f"[{status}] {check.name}: {check.detail}")
            return EXIT_OK if report.passed else EXIT_VERIFY

    except (CLIError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def app():
    raise SystemExit(main())
