"""CLI output pinned byte for byte.

The sweep files were recorded with all six schemes on the bundled scenario;
they change only when a solver's numbers, a row's formatting or the header
change.  The `K` and `M` sweeps also pin the receivers drawn from the seed.  The `IterLimit` solve pins the row rule shared by `solve` and
`sweep`: the objective, rate and schedule cells stay empty unless the status
is `Optimal`.  The `correlate` files were recorded before the error grid was
batched by theta-row, which must not move a byte: the bundled default
reference, one explicit reference pair and a planar (far-field) reference.

`fp_rate_max` is pinned in its last bit (`float.hex`) on the bundled
scenario and on three drawn instances whose optimum switches decoder 3 off
(`k2m3b3`, `k4m3b3`: exactly 0 W); rounding there decides whether a decoder
ends at 0 W, which the convexification loop depends on.

The SCA schemes (`proposed`, `far_field_swipt`) and the `exhaustive` oracle
are pinned the same way, status, objective, allocation, trace and
iterations, on the bundled scenario at R = 5 and 10 and on those three
instances at their benchmark floors: the CSV goldens round to 12 digits and
would miss a last-bit move inside an SCA round.

The Fresnel integrals are pinned in their last bit against values recorded
from `scipy.special.fresnel` (scipy 1.17.1), before the package's own port
of Cephes `fresnl` replaced it: zero, signed zero, infinities and
subnormals, both sides of the small-argument edge (x^2 < 2.5625) and of the
asymptote edge (x > 36974), arguments whose square overflows (NaN, as in
scipy), negative arguments, 200 log-spaced points over 1e-8..1e6 and 200
uniform points on +-40.  The check imports no scipy.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfswipt import (
    PolarLocation,
    Receiver,
    SchemeId,
    build_matrices,
    bundled_scenario_path,
    dbm_to_watts,
    fp_rate_max,
    fresnel,
    parse_scenario,
    rayleigh_distance,
    run_scheme,
)
from mfswipt.cli import EXIT_ITER_LIMIT, EXIT_OK, main
from mfswipt.correlation import _fresnl

DATA = Path(__file__).parent / "data"
BUNDLED = str(bundled_scenario_path())


@pytest.mark.parametrize(
    "variable, grid",
    [("P0_dBm", "20,30"), ("R", "2,5"), ("K", "3,4"), ("M", "2,3")],
    ids=["P0_dBm", "R", "K", "M"],
)
def test_sweep_bytes(tmp_path, variable, grid):
    out = tmp_path / "sweep.csv"
    args = ["sweep", BUNDLED, "--variable", variable, "--grid", grid, "--output", str(out)]
    assert main(args) == EXIT_OK
    assert out.read_bytes() == (DATA / f"golden_sweep_{variable}.csv").read_bytes()


def test_iteration_limit_row_bytes(tmp_path):
    starved = tmp_path / "starved.scenario"
    starved.write_text(
        bundled_scenario_path()
        .read_text()
        .replace(
            "convergence_threshold: 0.001",
            "convergence_threshold: 1.0e-12\n  max_outer_iters: 2",
        )
    )
    out = tmp_path / "row.csv"
    assert main(["solve", str(starved), "--output", str(out)]) == EXIT_ITER_LIMIT
    assert out.read_bytes() == (DATA / "golden_solve_iterlimit.csv").read_bytes()


@pytest.mark.parametrize(
    "name, flags",
    [
        ("default", ["--grid-points", "6"]),
        ("ref", ["--grid-points", "7", "--ref-theta", "0.3", "--ref-r-over-z", "0.1"]),
        ("far", ["--grid-points", "6", "--ref-theta", "-0.2", "--ref-r-over-z", "inf"]),
    ],
    ids=["default", "ref", "far"],
)
def test_correlate_bytes(tmp_path, name, flags):
    prefix = tmp_path / "corr"
    assert main(["correlate", BUNDLED, "--output-prefix", str(prefix)] + flags) == EXIT_OK
    grid = (tmp_path / "corr_error_grid.csv").read_bytes()
    assert grid == (DATA / f"golden_correlate_{name}_error_grid.csv").read_bytes()
    matrices = (tmp_path / "corr_matrices.csv").read_bytes()
    assert matrices == (DATA / "golden_correlate_matrices.csv").read_bytes()


FP_CASES = json.loads((DATA / "golden_fp_rate_max.json").read_text())


def fp_instance(case):
    """The bundled scenario, or it with the case's receivers ([theta, r / Z]
    pairs), budget and the first decoder's noise for every decoder."""
    cfg, scn = parse_scenario(bundled_scenario_path())
    if "eh" in case:
        z = rayleigh_distance(cfg)

        def rx(pair):
            return Receiver(location=PolarLocation(spatial_angle=pair[0], distance=pair[1] * z))

        scn = replace(
            scn,
            eh_receivers=tuple(rx(p) for p in case["eh"]),
            id_receivers=tuple(rx(p) for p in case["idr"]),
            sigma2=(scn.sigma2[0],) * len(case["idr"]),
            p0=dbm_to_watts(case["P0_dBm"]),
        )
    return build_matrices(cfg, scn), scn


@pytest.mark.parametrize("case", FP_CASES, ids=[c["id"] for c in FP_CASES])
def test_fp_rate_max_bits(case):
    res = fp_rate_max(*fp_instance(case))
    got = {
        "r_star": res.r_star.hex(),
        "allocation": [float(p).hex() for p in res.allocation.powers],
        "gamma": [float(g).hex() for g in res.gamma],
        "iterations": res.iterations,
    }
    assert got == case["expected"]


SCA_CASES = json.loads((DATA / "golden_sca_bits.json").read_text())
SCA_SCHEMES = (SchemeId.PROPOSED, SchemeId.FAR_FIELD_SWIPT, SchemeId.EXHAUSTIVE)


def sca_bits(case):
    """Each scheme's report on the case's instance at floor R, every float as
    `float.hex` (NaN objectives included)."""
    fp_case = next(c for c in FP_CASES if c["id"] == case["instance"])
    mats, scn = fp_instance(fp_case)
    scn = replace(scn, rate_floor=case["R"])
    got = {}
    for scheme in SCA_SCHEMES:
        rep = run_scheme(scheme, mats, scn)
        got[scheme.value] = {
            "status": rep.status.value,
            "objective": float(rep.objective).hex(),
            "allocation": [float(p).hex() for p in rep.allocation.powers],
            "trace": [float(v).hex() for v in rep.trace],
            "iterations": rep.iterations,
        }
    return got


@pytest.mark.parametrize("case", SCA_CASES, ids=[c["id"] for c in SCA_CASES])
def test_sca_bits(case):
    assert sca_bits(case) == case["expected"]


FRESNEL_CASES = json.loads((DATA / "golden_fresnel.json").read_text())["cases"]


@pytest.mark.parametrize("case", FRESNEL_CASES, ids=[c["id"] for c in FRESNEL_CASES])
def test_fresnel_bits(case):
    x = [float.fromhex(v) for v in case["x"]]
    s, c = _fresnl(np.array(x))
    assert [float(v).hex() for v in s] == case["S"]
    assert [float(v).hex() for v in c] == case["C"]
    # the scalar entry point takes the same path one argument at a time
    for v, want_s, want_c in zip(x, case["S"], case["C"]):
        if math.isfinite(v):
            pair = fresnel(v)
            assert (pair.s_val.hex(), pair.c_val.hex()) == (want_s, want_c)
