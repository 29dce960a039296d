#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record.py

Draws every workload's inputs from `workloads.MASTER_SEED`, runs each
input once through the same operation the benchmark times, and writes the
inputs with their status, objective and scheduled mask (solve, sweep) or
output digests (correlate) to `perfbench/reference.json`.  Run it from the
root of the commit whose outputs are the reference.  Outputs that already
fail the independent feasibility check are listed and counted; they are
recorded as they are.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def record_solve(workloads, inputs: list, workdir: Path, infeasible: list) -> None:
    wl = workloads.SolveWorkload(inputs, workdir, 0)
    wl.setup()
    for key in wl.keys():
        report = wl.run(key)
        out = wl.output(key, report)
        inputs[key[0]].setdefault("ref", {})[key[1]] = out
        scn, mats = wl.instances[key[0]]
        if out["status"] == "Optimal":
            problem = workloads.check_allocation(report, mats, scn)
            if problem:
                infeasible.append(f"solve {inputs[key[0]]['id']}/{key[1]}: {problem}")


def record_sweep(workloads, inputs: list, workdir: Path, infeasible: list) -> None:
    for entry in inputs:
        wl = workloads.SweepWorkload([entry], workdir, 0)
        wl.setup()
        wl.begin()
        try:
            raw = wl.run("sweep")
        finally:
            wl.end()
        ((_, rc, _, rows),) = wl.rows("sweep", raw)
        if rc != 0:
            raise RuntimeError(f"sweep {entry['id']} exited with {rc}")
        entry["ref"] = {f"{value}/{scheme}": out for value, scheme, out, _ in rows}
        for value, scheme, _, problem in rows:
            if problem:
                infeasible.append(f"sweep {entry['id']}/P0={value}/{scheme}: {problem}")


def record_correlate(workloads, inputs: list, workdir: Path) -> None:
    wl = workloads.CorrelateWorkload(inputs, workdir, 0)
    wl.setup()
    for key in wl.keys():
        raw = wl.run(key)
        rc, mat_text, grid_text = wl.output(key, raw)
        if rc != 0:
            raise RuntimeError(f"correlate {inputs[key]['id']} exited with {rc}")
        inputs[key]["ref"] = {
            "grid": workloads.grid_digest(grid_text),
            "matrices": workloads.matrices_digest(mat_text),
        }


def main() -> int:
    run.prepare()
    import workloads

    inputs = workloads.make_inputs()
    infeasible: list = []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        record_solve(workloads, inputs["solve"], workdir, infeasible)
        record_sweep(workloads, inputs["sweep"], workdir, infeasible)
        record_correlate(workloads, inputs["correlate"], workdir)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=run.ROOT
    ).stdout.strip()
    doc = {
        "master_seed": workloads.MASTER_SEED,
        "commit": commit or None,
        "environment": run.environment("record", workloads.MASTER_SEED, 0, 0, []),
        "infeasible_at_record": infeasible,
        **inputs,
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    for line in infeasible:
        print(f"infeasible at record: {line}")
    print(f"recorded {sum(len(v) for v in inputs.values())} inputs, {len(infeasible)} outputs fail the feasibility check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
