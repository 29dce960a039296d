#!/usr/bin/env python3
"""mfswipt benchmark: run one workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the run measures the end-to-end metrics for `--seconds`
seconds.  With `--trace 1` it runs the set-up and every operation once
untraced and once traced, back to back, proves their outputs equal, and
reports the per-layer metrics; spans and per-function statistics go to
`.perfbench_out/`.

Every metric is printed as `metric <workload> <name> <value> <unit>`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 1 when any operation
failed its check and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBES = 9
TRACED_MODULES = ["scenario", "geometry", "correlation", "metrics", "solvers", "benchmarks", "cli"]

# Interpreter start-up is the same for every commit; the import is not.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mfswipt; print(time.perf_counter() - t)"
)


def prepare() -> None:
    """Pin BLAS to one thread, quiet the package, make `src/` importable."""
    if not (SRC / "mfswipt" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package sources at {SRC}; run from a source checkout\n")
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MFSWIPT_LOG"] = "WARNING"
    sys.path.insert(0, str(SRC))
    from mfswipt.geometry import FresnelRegionWarning

    # the bundled harvesters sit inside the Fresnel edge; keep warning writes out of the timings
    warnings.simplefilter("ignore", FresnelRegionWarning)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )  # fmt: skip
    return float(proc.stdout.split()[-1])


def environment(name: str, seed: int, seconds: int, trace: int, entries: list) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": name,
        "seed": seed,
        "inputs": [e["id"] for e in entries],
        "seconds": seconds,
        "trace": trace,
    }


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate: a Beta-weighted mean of all order statistics.
    On a shared 2-core VM one solve's time can swing by 10-20% from one
    second to the next; the plain order statistic at rank 51 of 102 carries
    that swing whole, the weighted mean spreads it over neighbouring ranks."""
    from scipy.stats.mstats import hdquantiles

    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(values, prob=[q / 100.0])[0])


def timed_run(wl, seconds: float) -> tuple[dict, list, dict]:
    """End-to-end metrics: set-up several times, then operations for `seconds`.

    The host's speed drifts over tens of seconds, so the import probes are
    spread evenly over the same period as the operations rather than made
    back to back before them."""
    imports: list[float] = []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    keys = wl.keys()
    samples: dict = {k: [] for k in keys}
    results = []
    wl.begin()
    try:
        # one full pass, then more operations while the next one is expected to
        # end within `seconds` (its own last time is the estimate)
        probe_every = seconds / IMPORT_PROBES
        start = time.perf_counter()
        for n, k in enumerate(itertools.chain(keys, itertools.cycle(keys))):
            while len(imports) < IMPORT_PROBES and time.perf_counter() - start >= len(imports) * probe_every:
                imports.append(import_seconds())
            if n >= len(keys) and time.perf_counter() - start + samples[k][-1] > seconds:
                break
            t0 = time.perf_counter()
            raw = wl.attempt(k)
            samples[k].append(time.perf_counter() - t0)
            results.append(wl.check(k, raw))
    finally:
        wl.end()
    while len(imports) < IMPORT_PROBES:
        imports.append(import_seconds())
    # each distinct operation's latency is the median of its repeats
    latency = [statistics.median(v) for v in samples.values()]
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setup_times),
        "op_p50_ms": percentile(latency, 50) * 1e3,
        "op_p90_ms": percentile(latency, 90) * 1e3,
        "ops_per_s": len(latency) / sum(latency),
    }
    print(f"samples {len(latency)} distinct operations, {sum(map(len, samples.values()))} timed")
    return metrics, results, {"import": imports, "operations": {str(k): v for k, v in samples.items()}}


def paired_passes(wl, tracer) -> tuple[dict, dict]:
    """Set-up and every operation, each once untraced and once traced.

    The two runs of a step are back to back, so that both meet the same host
    speed, and which of them goes first alternates from step to step.
    Returns, keyed by `traced`, the wall time of set-up plus operations
    (checks excluded) and the raw outputs."""

    def step(key):
        if key is None:
            return wl.setup()
        wl.begin()
        try:
            return wl.attempt(key)
        finally:
            wl.end()

    wall = {False: 0.0, True: 0.0}
    raws: dict = {False: [], True: []}
    for n, key in enumerate([None, *wl.keys()]):
        for traced in (False, True) if n % 2 == 0 else (True, False):
            if traced:
                tracer.install("mfswipt", TRACED_MODULES)
            try:
                t0 = time.perf_counter()
                raw = step(key)
                wall[traced] += time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            if key is not None:
                raws[traced].append((key, raw))
    return wall, raws


def register_observers(tracer, mfswipt) -> None:
    """Work counters read from the values the solvers return."""
    fp_signature = inspect.signature(mfswipt.solvers.fp_rate_max)
    subsets: set = set()
    c = tracer.counters

    def fp_rate_max(tr, result, args, kwargs):
        bound = fp_signature.bind(*args, **kwargs).arguments
        mats, scn, mask = bound["mats"], bound["scenario"], bound.get("mask")
        k = mats.n_eh
        decoders = tuple(i for i in range(mats.n_id) if mask is None or mask[k + i])
        digest = hashlib.sha1(mats.lambda_masked.tobytes() + mats.g_id.tobytes()).hexdigest()
        subsets.add((digest, scn.p0, scn.sigma2, decoders))
        c["fp_iterations"] += result.iterations
        c["fp_decoder_subsets"] = len(subsets)

    def sca_solve(tr, result, args, kwargs):
        c["sca_rounds"] += result.iterations
        c["sca_iter_limit"] += result.status is mfswipt.solvers.SolveStatus.ITER_LIMIT
        if tr.active["solvers.exhaustive_search"]:
            c["schedules_solved"] += 1
            c["schedules_optimal"] += result.status is mfswipt.solvers.SolveStatus.OPTIMAL

    tracer.observers["solvers.fp_rate_max"] = fp_rate_max
    tracer.observers["solvers.sca_solve"] = sca_solve


def layer_metrics(tr, wall_traced: float, wall_untraced: float, results: list) -> dict:
    c = tr.counters
    wall_ms = wall_traced * 1e3
    steering = ("geometry.near_steering", "geometry.far_steering")
    fp, inner, sca = "solvers.fp_rate_max", "solvers.inner_convex", "solvers.sca_solve"
    exh = "solvers.exhaustive_search"
    gaps = [g for r in results for g in r.oracle_gaps]
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.problems) for r in results)
    out = {
        "scenario.parse_calls": tr.calls("scenario.parse_scenario"),
        "scenario.parse_self_ms": tr.self_ms("scenario.parse_scenario"),
        "geometry.steering_calls": tr.calls(*steering),
        "geometry.steering_self_ms": tr.self_ms(*steering),
        "correlation.exact_calls": tr.calls("correlation.correlation_exact"),
        "correlation.exact_self_ms": tr.self_ms("correlation.correlation_exact"),
        "correlation.approx_calls": tr.calls("correlation.correlation_approx"),
        "correlation.approx_self_ms": tr.self_ms("correlation.correlation_approx"),
        "correlation.degenerate": tr.errors[("correlation.correlation_approx", "DegenerateGeometryError")],
        "correlation.build_matrices_calls": tr.calls("correlation.build_matrices"),
        "correlation.build_matrices_self_ms": tr.self_ms("correlation.build_matrices"),
        "metrics.sum_rate_calls": tr.calls("metrics.sum_rate"),
        "metrics.sum_rate_self_ms": tr.self_ms("metrics.sum_rate"),
        "solvers.fp_rate_max_calls": tr.calls(fp),
        "solvers.fp_rate_max_self_ms": tr.self_ms(fp),
        "solvers.fp_iterations": c["fp_iterations"],
        "solvers.fp_decoder_subsets": c["fp_decoder_subsets"],
        "solvers.fp_calls_per_decoder_subset": (
            tr.calls(fp) / c["fp_decoder_subsets"] if c["fp_decoder_subsets"] else 0.0
        ),
        "solvers.inner_convex_calls": tr.calls(inner),
        "solvers.inner_convex_self_ms": tr.self_ms(inner),
        "solvers.inner_convex_tight": tr.errors[(inner, "NoFeasibleInterior")],
        "solvers.inner_convex_share": tr.total_ms(inner) / wall_ms,
        "solvers.sca_solve_calls": tr.calls(sca),
        "solvers.sca_solve_self_ms": tr.self_ms(sca),
        "solvers.sca_rounds": c["sca_rounds"],
        "solvers.sca_iter_limit": c["sca_iter_limit"],
        "solvers.exhaustive_calls": tr.calls(exh),
        "solvers.exhaustive_self_ms": tr.self_ms(exh),
        "solvers.exhaustive_share": tr.total_ms(exh) / wall_ms,
        "solvers.schedules_solved": c["schedules_solved"],
        "solvers.schedules_optimal_ratio": (
            c["schedules_optimal"] / c["schedules_solved"] if c["schedules_solved"] else 0.0
        ),
        "benchmarks.run_scheme_calls": tr.calls("benchmarks.run_scheme"),
        "benchmarks.run_sweep_self_ms": tr.self_ms("benchmarks.run_sweep"),
        "cli.main_calls": tr.calls("cli.main"),
        "cli.self_ms": tr.module_self_ms("cli"),
    }
    for module in TRACED_MODULES:
        if module != "cli":
            out[f"{module}.self_ms"] = tr.module_self_ms(module)
    self_total = sum(v[2] for v in tr.stats.values()) / 1e6
    out.update(
        {
            "quality.oracle_gap_max": max(gaps, default=0.0),
            "quality.mask_mismatch": sum(r.mask_mismatch for r in results),
            "quality.fail_rate": failed / attempted if attempted else 0.0,
            "trace.overhead_ratio": wall_traced / wall_untraced,
            "trace.wall_ms": wall_ms,
            "trace.unattributed_ms": wall_ms - self_total,
            "trace.spans": tr.span_count(),
        }
    )
    return out


def traced_run(wl, name: str, seed: int, env: dict) -> tuple[dict, list]:
    """Every step untraced and traced; per-layer metrics from the traced runs."""
    import mfswipt
    from tracer import Tracer

    tracer = Tracer()
    register_observers(tracer, mfswipt)
    wall, raws = paired_passes(wl, tracer)
    wall_untraced, wall_traced = wall[False], wall[True]
    untraced = [wl.check(k, raw) for k, raw in raws[False]]
    traced = [wl.check(k, raw) for k, raw in raws[True]]
    same = [u.fingerprint.digest() for u in untraced] == [t.fingerprint.digest() for t in traced]
    if not same:
        traced[0].problems.append("traced outputs differ from the untraced outputs")
    results = untraced + traced
    metrics = layer_metrics(tracer, wall_traced, wall_untraced, results)
    stem = OUT / f"trace-{name}-seed{seed}"
    tracer.write_spans(f"{stem}.spans.csv")
    stats = {n: {"calls": v[0], "total_ms": v[1] / 1e6, "self_ms": v[2] / 1e6} for n, v in tracer.stats.items() if v[0]}
    Path(f"{stem}.json").write_text(
        json.dumps(
            {
                "environment": env,
                "functions": stats,
                "exceptions": {f"{n}:{e}": k for (n, e), k in tracer.errors.items()},
                "counters": dict(tracer.counters),
                "outputs_equal": same,
                "metrics": metrics,
            },
            indent=1,
        )
    )
    return metrics, results


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    import workloads

    reference = json.loads(REFERENCE.read_text())
    entries = workloads.select(reference[name], seed)
    env = environment(name, seed, seconds, trace, entries)
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[name](entries, workdir, seed)
        if trace:
            return traced_run(wl, name, seed, env)
        metrics, results, samples = timed_run(wl, seconds)
        (OUT / f"samples-{name}-seed{seed}.json").write_text(json.dumps({"environment": env, "seconds": samples}))
        return metrics, results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["solve", "sweep", "correlate", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    prepare()
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = ["solve", "sweep", "correlate"] if args.workload == "all" else [args.workload]
    merged: dict = {}
    attempted = failed = 0
    for name in names:
        metrics, results = run_workload(name, args.seed, seconds, args.trace)
        if set(metrics) != set(declared):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with {SPEC.name}")
        for r in results:
            attempted += r.attempted
            failed += len(r.problems)
            for problem in r.problems:
                sys.stderr.write(f"FAILED {name} {problem}\n")
        for key, value in metrics.items():
            print(f"metric {name} {key} {value!r} {declared[key]}")
            merged[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": declared[key]}
    print(f"fail_rate {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
