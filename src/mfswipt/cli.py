"""Command-line interface.

Subcommands:

* ``solve``      - run one scheme on a scenario file, emit a result row and
                   the allocation vector.
* ``sweep``      - run schemes across a parameter grid, emit a CSV table.
* ``correlate``  - dump the coupling matrices and a closed-form-vs-exact
                   correlation error grid.
* ``check``      - parse and validate a scenario file.

Every subcommand reads its scenario and checks its ``solver:`` block once,
before any work; ``_emit`` writes every output, to a file or to stdout.
The result table's columns are ``ResultRow``'s fields, in order; the sweep
variables and the seed and scheme defaults are the ones ``benchmarks`` declares.

Exit codes: 0 solved (or any sweep row solved), 2 infeasible, 3 iteration
limit, 4 usage, scenario/parse error or unwritable output path, 1 unexpected
failure or any sweep error row.
Set MFSWIPT_LOG to a level name (debug, info, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import logging
import math
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import ResultRow, SchemeId, SweepSpec, run_scheme, run_sweep
from .correlation import build_matrices, correlation_grid
from .geometry import PolarLocation, fresnel_min_distance, rayleigh_distance
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_hash, watts_to_dbm
from .solvers import SolveStatus, SolverOptions

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INFEASIBLE = 2
EXIT_ITER_LIMIT = 3
EXIT_BAD_INPUT = 4

CSV_COLUMNS = [f.name for f in dataclasses.fields(ResultRow)]
_row_cells = operator.attrgetter(*CSV_COLUMNS)  # a row's cells in column order

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    """Log at the level MFSWIPT_LOG names (any case), on stderr when no handler
    is set; at WARNING, after a one-line warning, when it names no level."""
    name = os.environ.get("MFSWIPT_LOG") or "WARNING"
    level = logging.getLevelName(name.upper())  # the number of a level name, else a string
    if not isinstance(level, int):
        print(f"warning: MFSWIPT_LOG={name} is not a logging level; using WARNING", file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr)
    logging.getLogger().setLevel(level)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    return str(value)


def _solver_options(scenario: Scenario) -> SolverOptions:
    try:
        return SolverOptions(**scenario.solver_overrides)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"solver overrides: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """Refuse, before any work runs, an output file that cannot be created."""
    if path and (Path(path).is_dir() or not os.access(Path(path).parent, os.W_OK | os.X_OK)):
        raise ValueError(f"cannot write {path}: not a file in a writable directory")


def _discard_stdout() -> None:
    """The reader of stdout has gone (``mfswipt sweep ... | head -3``): send what
    is left, the interpreter's final flush included, to the null device."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(text: str, path: str | None = None) -> None:
    """Write text to the file at path, else to stdout, whose early close is
    not a failure of the command."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _discard_stdout()


def _table(rows: list[ResultRow], header_meta: dict, trailer: list[str] = ()) -> str:
    """The result CSV: a header comment, the column names, one line per row
    (``csv.writer`` quotes any cell that needs it) and a comment per trailer line."""
    out = io.StringIO()
    meta = " ".join(f"{k}={v}" for k, v in header_meta.items())
    out.write(f"# mfswipt v{__version__} {meta}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_fmt(v) for v in _row_cells(row)] for row in rows)
    out.writelines(f"# {line}\n" for line in trailer)
    return out.getvalue()


def _cmd_check(args, cfg, scn, opts) -> int:
    z = rayleigh_distance(cfg)
    _emit(
        f"ok: N={cfg.n_antennas} f={cfg.carrier_freq/1e9:g} GHz Z={z:.3f} m "
        f"r_min={fresnel_min_distance(cfg):.3f} m K={scn.n_eh} M={scn.n_id} "
        f"P0={watts_to_dbm(scn.p0):g} dBm R={scn.rate_floor:g} bps/Hz "
        f"hash={scenario_hash(cfg, scn)}\n"
    )
    return EXIT_OK


def _cmd_solve(args, cfg, scn, opts) -> int:
    _check_writable(args.output)
    mats = build_matrices(cfg, scn)
    scheme = SchemeId(args.scheme)
    start = time.perf_counter()
    report = run_scheme(scheme, mats, scn, opts)
    wall = (time.perf_counter() - start) * 1e3
    row = ResultRow.from_report(
        "none", math.nan, scheme.value, report, scn, wall if args.timing else None
    )
    alloc_str = " ".join(f"{p:.9e}" for p in report.allocation.powers)
    meta = {"scenario_sha256": scenario_hash(cfg, scn)}
    _emit(_table([row], meta, trailer=[f"allocation_W: {alloc_str}"]), args.output)
    log.info("solve %s -> %s (%s)", scheme.value, report.status.value, args.output or "stdout")
    if report.status is SolveStatus.OPTIMAL:
        return EXIT_OK
    if report.status is SolveStatus.INFEASIBLE:
        if "r_star" in report.residuals:
            print(
                f"infeasible: maximum sum-rate r* = {_fmt(report.residuals['r_star'])} bps/Hz "
                f"below R = {_fmt(scn.rate_floor)} bps/Hz",
                file=sys.stderr,
            )
        return EXIT_INFEASIBLE
    return EXIT_ITER_LIMIT


def _cmd_sweep(args, cfg, scn, opts) -> int:
    _check_writable(args.output)
    grid = tuple(float(v) for v in args.grid.split(","))
    schemes = [SchemeId(s) for s in args.schemes.split(",")]
    spec = SweepSpec(args.variable, grid, seed=args.seed, record_timing=args.timing)
    rows = run_sweep(spec, cfg, scn, schemes, opts)
    meta = {
        "seed": args.seed,
        "scenario_sha256": scenario_hash(cfg, scn),
        "variable": args.variable,
    }
    _emit(_table(rows, meta), args.output)
    errors = [r.status for r in rows if r.status.startswith("Error:")]
    if errors:
        print(
            f"sweep: {len(errors)} of {len(rows)} rows failed; first: {errors[0]}",
            file=sys.stderr,
        )
        return EXIT_UNEXPECTED
    return EXIT_OK if any(r.status == SolveStatus.OPTIMAL.value for r in rows) else EXIT_INFEASIBLE


def _error_grid_text(thetas, radii, exact, approx) -> str:
    """The error-grid CSV: the bytes `csv.writer` writes for the rows [_fmt(theta),
    _fmt(r), _fmt(e), _fmt(a), _fmt(|e - a|)], one per point in row-major order.

    No field needs quoting, so the rows are joined directly; each coordinate
    is formatted once, and `_fmt` (which leaves NaN cells empty) runs only on
    rows that hold a NaN."""
    points = itertools.product(
        [_fmt(t) for t in thetas.tolist()], [_fmt(r) for r in radii.tolist()]
    )
    lines = ["theta,r_m,exact,approx,abs_err\n"]
    for (t, r), e, a in zip(points, exact.ravel().tolist(), approx.ravel().tolist()):
        if math.isnan(e) or math.isnan(a):
            lines.append(f"{t},{r},{_fmt(e)},{_fmt(a)},{_fmt(abs(e - a))}\n")
        else:
            lines.append(f"{t},{r},{e:.12g},{a:.12g},{abs(e - a):.12g}\n")
    return "".join(lines)


def _cmd_correlate(args, cfg, scn, opts) -> int:
    prefix = Path(args.output_prefix)
    for name in ("matrices", "error_grid"):
        _check_writable(f"{prefix}_{name}.csv")
    mats = build_matrices(cfg, scn)
    z = rayleigh_distance(cfg)

    if scn.eh_receivers:
        default = scn.eh_receivers[0].location
    else:
        default = PolarLocation(spatial_angle=0.0, distance=0.05 * z)
    # each flag replaces its own coordinate of the default reference
    ref = PolarLocation(
        spatial_angle=default.spatial_angle if args.ref_theta is None else args.ref_theta,
        distance=default.distance if args.ref_r_over_z is None else args.ref_r_over_z * z,
    )
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be >= 1, got {args.grid_points}")
    thetas = np.linspace(-0.9, 0.9, args.grid_points)
    radii = np.geomspace(fresnel_min_distance(cfg), 3.0 * z, args.grid_points)
    exact, approx = correlation_grid(cfg, ref, thetas, radii)

    lines = ["matrix,row,col,value\n"]
    for name, mat in (("lambda_full", mats.lambda_full), ("lambda_masked", mats.lambda_masked)):
        for i, values in enumerate(mat.tolist()):
            lines += (f"{name},{i},{j},{_fmt(v)}\n" for j, v in enumerate(values))
    _emit("".join(lines), f"{prefix}_matrices.csv")
    _emit(_error_grid_text(thetas, radii, exact, approx), f"{prefix}_error_grid.csv")
    _emit(f"wrote {prefix}_matrices.csv and {prefix}_error_grid.csv\n")
    return EXIT_OK


@functools.cache  # built on first use, once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfswipt", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"mfswipt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scheme_names = [s.value for s in SchemeId]

    p_solve = sub.add_parser("solve", help="run one scheme on a scenario")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--scheme", choices=scheme_names, default=SchemeId.PROPOSED.value)
    p_solve.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_solve.add_argument("--timing", action="store_true", help="record wall time")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run schemes across a parameter grid")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--variable", choices=SweepSpec.VARIABLES, required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated grid values")
    p_sweep.add_argument(
        "--schemes", default=",".join(scheme_names), help="comma-separated scheme names"
    )
    p_sweep.add_argument("--seed", type=int, default=SweepSpec.seed)
    p_sweep.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_sweep.add_argument("--timing", action="store_true", help="record wall times")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_corr = sub.add_parser("correlate", help="dump coupling matrices and error grid")
    p_corr.add_argument("scenario")
    p_corr.add_argument("--output-prefix", default="correlation")
    p_corr.add_argument("--grid-points", type=int, default=50)
    p_corr.add_argument("--ref-theta", type=float, default=None)
    p_corr.add_argument("--ref-r-over-z", type=float, default=None)
    p_corr.set_defaults(func=_cmd_correlate)

    p_check = sub.add_parser("check", help="validate a scenario file")
    p_check.add_argument("scenario")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    code = _run(argv)
    try:
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's final flush
    except BrokenPipeError:
        _discard_stdout()
    return code


def _run(argv) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on misuse
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        cfg, scn = parse_scenario(args.scenario)
        return args.func(args, cfg, scn, _solver_options(scn))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - final guard
        log.exception("unexpected failure")
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
