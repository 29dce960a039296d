"""The three benchmark workloads: inputs, one operation each, and output checks.

The inputs are drawn once from `MASTER_SEED` by `record.py` and stored in
`reference.json`, next to the outputs the seed commit gave for them, so every
operation of every run is compared with a recorded reference.  A run's
`--seed` sets the order of the operations (and the CLI's `--seed`).

The seed does not draw new instances, because at this commit a solve's cost
is chaotic in the input details: permuting the receivers of one instance
moved a `proposed` solve between 70 and 480 ms with the same objective, and
correlate cost depends on the reference point by up to 1.7x.  Seeded
instances made the ten-seed spread of the solve p50 about 26%; fixed inputs
keep it to machine noise.

The workloads call the package through module attributes
(`benchmarks.run_scheme`, `cli.main`, ...) at call time, so the trace
wrappers see them.  The checks use the functions saved below, before any
wrapper is installed, so they never enter the trace.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from mfswipt import benchmarks, cli, correlation, geometry, metrics, scenario, solvers

_sum_rate = metrics.sum_rate
_rayleigh_distance = geometry.rayleigh_distance

MASTER_SEED = 20231030

# solve: one mixed-field instance per (K, M, P0 band) cell on the bundled
# array, plus the bundled scenario at three rate floors
SOLVE_SCHEMES = ("proposed", "far_field_swipt")
SOLVE_K = (1, 2, 3, 4)
SOLVE_M = (1, 2, 3)
SOLVE_P0_BANDS = ((20.0, 26.0), (26.0, 32.0), (32.0, 38.0), (38.0, 44.0))
SOLVE_R_RANGE = (1.0, 10.0)
SOLVE_BUNDLED_RATES = (5.0, 10.0, 15.0)  # R = 15 exceeds the 11.54 bps/Hz maximum
EH_ANNULUS = (0.015, 0.3)  # Rayleigh-distance multiples
ID_ANNULUS = (1.05, 1.3)

# sweep: the bundled scenario on a budget grid plus a drawn K = 4 file
SWEEP_BUNDLED_GRID = (20.0, 24.0)
SWEEP_K = 4
SWEEP_K_GRID = (20.0,)

# correlate: error grids around drawn reference locations
CORRELATE_GRID_POINTS = 100
CORRELATE_REFS = 8
CORRELATE_REF_THETA = (-0.9, 0.9)
CORRELATE_REF_R_OVER_Z = (0.01, 0.3)

# check tolerances
OBJECTIVE_RTOL = 1e-4  # below the 1e-3 SCA stopping threshold, above roundoff drift
FLOOR_TOL = 1e-7  # bps/Hz, the solvers' feasibility tolerance
BUDGET_RTOL = 1e-9
CORRELATE_RTOL = 1e-9
CSV_ATOL = 1e-11  # the CLI writes 12 significant digits
SPOT_ATOL = 1e-8  # own recomputation from the rounded grid coordinates


def _draw_receivers(rng: np.random.Generator, count: int, annulus) -> list:
    """[theta, r_over_Z] pairs: departure angle uniform within 60 degrees of
    broadside (theta = cos(phi) at half-wavelength spacing), radius uniform
    in the annulus."""
    out = []
    for _ in range(count):
        phi = math.pi / 2.0 + rng.uniform(-math.pi / 3.0, math.pi / 3.0)
        out.append([math.cos(phi), float(rng.uniform(*annulus))])
    return out


def make_inputs() -> dict:
    """Inputs of every workload, without references."""
    rng = np.random.default_rng(MASTER_SEED)
    solve = []
    for k in SOLVE_K:
        for m in SOLVE_M:
            for band, (lo, hi) in enumerate(SOLVE_P0_BANDS):
                solve.append(
                    {
                        "id": f"k{k}m{m}b{band}",
                        "eh": _draw_receivers(rng, k, EH_ANNULUS),
                        "idr": _draw_receivers(rng, m, ID_ANNULUS),
                        "P0_dBm": float(rng.uniform(lo, hi)),
                        "R": float(rng.uniform(*SOLVE_R_RANGE)),
                    }
                )
    solve += [{"id": f"bundled-R{r:g}", "R": r} for r in SOLVE_BUNDLED_RATES]
    sweep = [
        {"id": "bundled", "grid": list(SWEEP_BUNDLED_GRID)},
        {"id": f"k{SWEEP_K}", "eh": _draw_receivers(rng, SWEEP_K, EH_ANNULUS), "grid": list(SWEEP_K_GRID)},
    ]
    corr = [
        {
            "id": f"ref-{i}",
            "theta": float(rng.uniform(*CORRELATE_REF_THETA)),
            "r_over_Z": float(rng.uniform(*CORRELATE_REF_R_OVER_Z)),
        }
        for i in range(CORRELATE_REFS)
    ]
    return {"solve": solve, "sweep": sweep, "correlate": corr}


def select(inputs: list, seed: int) -> list:
    """The inputs in the order a run with this seed uses them."""
    order = list(inputs)
    random.Random(seed).shuffle(order)
    return order


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def check_allocation(report, mats, scn) -> str | None:
    """Independent feasibility check of an Optimal report."""
    y = report.allocation.powers
    if (y < 0).any() or not np.isfinite(y).all():
        return "negative or non-finite allocation"
    if y.sum() > scn.p0 * (1.0 + BUDGET_RTOL):
        return f"over budget: {y.sum()!r} W > {scn.p0!r} W"
    rate = _sum_rate(mats, scn.sigma2, y)
    if rate < scn.rate_floor - FLOOR_TOL:
        return f"under the rate floor: {rate!r} < {scn.rate_floor!r} bps/Hz"
    return None


def compare(out: dict, ref: dict) -> str | None:
    """Status and objective against the recorded reference."""
    if out["status"] != ref["status"]:
        return f"status {out['status']} != reference {ref['status']}"
    if ref["objective"] is not None and not _close(out["objective"], ref["objective"], OBJECTIVE_RTOL):
        return f"objective {out['objective']!r} != reference {ref['objective']!r}"
    return None


class Result:
    """Outcome of one operation: checked items, problems, a fingerprint of the
    raw output (to prove traced and untraced runs agree) and quality figures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.fingerprint = hashlib.sha256()
        self.mask_mismatch = 0
        self.oracle_gaps: list[float] = []

    def item(self, problem: str | None, where: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(f"{where}: {problem}")


@contextlib.contextmanager
def _quiet():
    """The CLI prints progress lines; keep them off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


class Workload:
    """Base: `setup` prepares inputs, `run` executes one operation (timed),
    `collect` reads and checks its output (untimed)."""

    def __init__(self, entries: list, workdir: Path, seed: int):
        self.entries = entries
        self.workdir = workdir
        self.seed = seed
        self.cfg = None
        self.base = None
        self._serial = 0

    def setup(self) -> None:
        self.cfg, self.base = scenario.parse_scenario(scenario.bundled_scenario_path())

    def keys(self) -> list:
        return list(range(len(self.entries)))

    def begin(self) -> None:
        """Called before a series of operations."""

    def end(self) -> None:
        """Called after a series of operations."""

    def attempt(self, key):
        """Run one operation; an exception is its output."""
        try:
            return self.run(key)
        except Exception as exc:  # an operation that raises counts as failed
            return exc

    def check(self, key, raw) -> Result:
        if isinstance(raw, Exception):
            res = Result()
            res.fingerprint.update(repr(raw).encode())
            res.item(f"raised {raw!r}", str(key))
            return res
        return self.collect(key, raw)

    def _out_path(self, stem: str) -> Path:
        self._serial += 1
        return self.workdir / f"{stem}-{self._serial}"


class SolveWorkload(Workload):
    """One operation is one `run_scheme` call on a prepared instance."""

    def setup(self) -> None:
        super().setup()
        z = _rayleigh_distance(self.cfg)
        self.opts = solvers.SolverOptions(**self.base.solver_overrides)
        self.instances = []

        def rx(pair):
            loc = geometry.PolarLocation(spatial_angle=pair[0], distance=pair[1] * z)
            return scenario.Receiver(location=loc)

        for entry in self.entries:
            if "eh" not in entry:
                scn = replace(self.base, rate_floor=entry["R"])
            else:
                scn = replace(
                    self.base,
                    eh_receivers=tuple(rx(p) for p in entry["eh"]),
                    id_receivers=tuple(rx(p) for p in entry["idr"]),
                    sigma2=(self.base.sigma2[0],) * len(entry["idr"]),
                    p0=scenario.dbm_to_watts(entry["P0_dBm"]),
                    rate_floor=entry["R"],
                )
            self.instances.append((scn, correlation.build_matrices(self.cfg, scn)))

    def keys(self) -> list:
        return [(i, s) for i in range(len(self.entries)) for s in SOLVE_SCHEMES]

    def run(self, key):
        i, scheme = key
        scn, mats = self.instances[i]
        return benchmarks.run_scheme(benchmarks.SchemeId(scheme), mats, scn, self.opts)

    def output(self, key, report) -> dict:
        """Status, objective and scheduled mask, as the CLI would print them."""
        if report.status is not solvers.SolveStatus.OPTIMAL:
            return {"status": report.status.value, "objective": None, "mask": ""}
        mask = report.allocation.scheduled_mask(self.instances[key[0]][0].p0)
        return {
            "status": report.status.value,
            "objective": report.objective,
            "mask": "".join("1" if b else "0" for b in mask),
        }

    def collect(self, key, report) -> Result:
        i, scheme = key
        scn, mats = self.instances[i]
        res = Result()
        out = self.output(key, report)
        res.fingerprint.update(repr((out, report.allocation.powers.tolist())).encode())
        ref = self.entries[i].get("ref", {}).get(scheme)
        where = f"{self.entries[i]['id']}/{scheme}"
        problem = compare(out, ref) if ref is not None else "no reference recorded"
        if problem is None and out["status"] == "Optimal":
            problem = check_allocation(report, mats, scn)
            res.mask_mismatch += out["mask"] != ref["mask"]
        res.item(problem, where)
        return res


def scenario_text(entry: dict, bundled_text: str) -> str:
    """A scenario file: the bundled deployment with the entry's harvesters."""
    doc = yaml.safe_load(bundled_text)
    if "eh" in entry:
        doc["eh_receivers"] = [{"theta": t, "r_over_Z": rz, "alpha": 1.0} for t, rz in entry["eh"]]
    return yaml.safe_dump(doc, sort_keys=False)


def read_rows(text: str) -> list[dict]:
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(body))


class SweepWorkload(Workload):
    """One operation is the whole sweep: `mfswipt sweep` over P0_dBm with all
    six schemes on the bundled scenario and on a K = 4 scenario file that
    the benchmark writes, in the run's order.

    The reports that `run_sweep` receives are captured through a pass-through
    wrapper on `benchmarks.run_scheme` (installed in traced and untraced runs
    alike), because the CSV carries no allocation for the floor check.
    """

    def setup(self) -> None:
        super().setup()
        bundled = scenario.bundled_scenario_path()
        self.paths = []
        for entry in self.entries:
            if "eh" in entry:
                path = self.workdir / f"{entry['id']}.scenario"
                path.write_text(scenario_text(entry, bundled.read_text()))
                scenario.parse_scenario(path)  # reject a malformed file before timing
            else:
                path = bundled
            self.paths.append(path)

    def keys(self) -> list:
        return ["sweep"]

    def begin(self) -> None:
        inner = benchmarks.run_scheme
        self.captured = []

        def capture(scheme, mats, scn, opts=solvers.SolverOptions()):
            report = inner(scheme, mats, scn, opts)
            self.captured.append((scheme.value, mats, scn, report))
            return report

        self._inner = inner
        benchmarks.run_scheme = capture

    def end(self) -> None:
        benchmarks.run_scheme = self._inner

    def run(self, key):
        self.captured = []
        outs = []
        for entry, path in zip(self.entries, self.paths):
            out = self._out_path(entry["id"])
            grid = ",".join(f"{v:g}" for v in entry["grid"])
            argv = ["sweep", str(path), "--variable", "P0_dBm", "--grid", grid]
            with _quiet():
                rc = cli.main(argv + ["--seed", str(self.seed), "--output", str(out)])
            outs.append((rc, out))
        return outs, self.captured

    def output(self, key, raw) -> list:
        outs, _ = raw
        texts = []
        for rc, path in outs:
            texts.append((rc, path.read_text() if path.exists() else ""))
            path.unlink(missing_ok=True)
        return texts

    def rows(self, key, raw) -> list:
        """Per scenario file: its entry, the CLI's exit code, the CSV text and,
        per row, the row's point, scheme and output with the feasibility
        problem of the report it came from (None when there is none)."""
        captured = list(raw[1])
        files = []
        for entry, (rc, text) in zip(self.entries, self.output(key, raw)):
            rows = []
            for row in read_rows(text):
                solved = row["status"] == "Optimal"
                out = {
                    "status": row["status"],
                    "objective": float(row["objective_W"]) if solved else None,
                    "mask": row["scheduled_mask"],
                }
                scheme, mats, scn, report = captured.pop(0) if captured else (None,) * 4
                if scheme != row["scheme"]:
                    problem = "captured report does not match the row"
                else:
                    problem = check_allocation(report, mats, scn) if solved else None
                rows.append((row["sweep_value"], row["scheme"], out, problem))
            files.append((entry, rc, text, rows))
        return files

    def collect(self, key, raw) -> Result:
        res = Result()
        for entry, rc, text, rows in self.rows(key, raw):
            res.fingerprint.update(text.encode())
            ref_rows = entry.get("ref", {})
            if rc != cli.EXIT_OK or not rows:
                res.item(f"exit code {rc}, {len(rows)} rows", entry["id"])
                continue
            by_point: dict = {}
            for value, scheme, out, feasibility in rows:
                ref = ref_rows.get(f"{value}/{scheme}")
                if out["status"].startswith("Error"):
                    problem = out["status"]
                elif ref is None:
                    problem = "no reference recorded"
                else:
                    problem = compare(out, ref) or feasibility
                    if problem is None and out["status"] == "Optimal":
                        res.mask_mismatch += out["mask"] != ref["mask"]
                res.item(problem, f"{entry['id']}/P0={value}/{scheme}")
                by_point.setdefault(value, {})[scheme] = out["objective"]
            for value, objs in by_point.items():
                exh, prop = objs.get("exhaustive"), objs.get("proposed")
                if exh is None or prop is None:
                    continue
                gap = (exh - prop) / exh
                res.oracle_gaps.append(gap)
                if prop > exh * (1.0 + 1e-9):
                    res.item(f"proposed {prop!r} above the oracle {exh!r}", f"{entry['id']}/P0={value}")
        return res


def _near_steering(n: int, d: float, wavelength: float, theta: float, r: float) -> np.ndarray:
    delta = (2.0 * np.arange(n) - n + 1.0) / 2.0
    rn = np.sqrt(r * r + (delta * d) ** 2 - 2.0 * r * theta * delta * d)
    return np.exp(-2j * np.pi * (rn - r) / wavelength) / math.sqrt(n)


def grid_digest(text: str) -> dict:
    """Order-independent summary of a correlate error grid."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    exact = [float(r[2]) for r in rows]
    approx = [float(r[3]) for r in rows if r[3] != ""]
    errs = [float(r[4]) for r in rows if r[4] != ""]
    return {
        "rows": len(rows),
        "degenerate": len(rows) - len(approx),
        "sum_exact": math.fsum(exact),
        "sum_approx": math.fsum(approx),
        "max_abs_err": max(errs, default=0.0),
    }


def matrices_digest(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return {"rows": len(rows), "sum": math.fsum(float(r[3]) for r in rows)}


class CorrelateWorkload(Workload):
    """One operation is one `mfswipt correlate` call on the bundled scenario,
    around one drawn reference location."""

    def setup(self) -> None:
        super().setup()
        self.z = _rayleigh_distance(self.cfg)

    def run(self, key):
        entry = self.entries[key]
        prefix = self._out_path(entry["id"])
        argv = [
            "correlate", str(scenario.bundled_scenario_path()),
            "--output-prefix", str(prefix),
            "--grid-points", str(CORRELATE_GRID_POINTS),
            "--ref-theta", repr(entry["theta"]),
            "--ref-r-over-z", repr(entry["r_over_Z"]),
        ]  # fmt: skip
        with _quiet():
            rc = cli.main(argv)
        return rc, prefix

    def output(self, key, raw) -> tuple:
        rc, prefix = raw
        texts = []
        for suffix in ("_matrices.csv", "_error_grid.csv"):
            path = Path(f"{prefix}{suffix}")
            texts.append(path.read_text() if path.exists() else "")
            path.unlink(missing_ok=True)
        return rc, texts[0], texts[1]

    def collect(self, key, raw) -> Result:
        entry = self.entries[key]
        rc, mat_text, grid_text = self.output(key, raw)
        res = Result()
        res.fingerprint.update(mat_text.encode() + grid_text.encode())
        res.item(self._problem(entry, rc, mat_text, grid_text), entry["id"])
        return res

    def _problem(self, entry, rc, mat_text, grid_text) -> str | None:
        if rc != cli.EXIT_OK or not grid_text:
            return f"exit code {rc}"
        ref = entry.get("ref")
        if ref is None:
            return "no reference recorded"
        got = {"grid": grid_digest(grid_text), "matrices": matrices_digest(mat_text)}
        for part in ("grid", "matrices"):
            for name, want in ref[part].items():
                if not _close(got[part][name], want, CORRELATE_RTOL):
                    return f"{part} {name} {got[part][name]!r} != reference {want!r}"
        rows = list(csv.reader(io.StringIO(grid_text)))[1:]
        cfg = self.cfg
        ref_theta, ref_r = entry["theta"], entry["r_over_Z"] * self.z
        v_ref = _near_steering(cfg.n_antennas, cfg.d, cfg.wavelength, ref_theta, ref_r)
        for row in rows[:: max(1, len(rows) // 7)]:
            theta, r, exact = float(row[0]), float(row[1]), float(row[2])
            if not 0.0 <= exact <= 1.0:
                return f"correlation {exact!r} outside [0, 1]"
            v = _near_steering(cfg.n_antennas, cfg.d, cfg.wavelength, theta, r)
            own = min(abs(np.vdot(v_ref, v)), 1.0)
            if abs(own - exact) > SPOT_ATOL:
                return f"exact correlation at theta={theta}, r={r}: {exact!r} != {own!r}"
            if row[3] != "" and abs(abs(exact - float(row[3])) - float(row[4])) > CSV_ATOL:
                return f"abs_err column inconsistent at theta={theta}, r={r}"
        return None


WORKLOADS = {"solve": SolveWorkload, "sweep": SweepWorkload, "correlate": CorrelateWorkload}
