"""CLI output pinned byte for byte.

The sweep files were recorded with all six schemes on the bundled scenario;
they change only when a solver's numbers, a row's formatting or the header
change.  The `IterLimit` solve pins the row rule shared by `solve` and
`sweep`: the objective, rate and schedule cells stay empty unless the status
is `Optimal`.  The `correlate` files were recorded before the error grid was
batched by theta-row, which must not move a byte: the bundled default
reference, one explicit reference pair and a planar (far-field) reference.
"""

from pathlib import Path

import pytest

from mfswipt import bundled_scenario_path
from mfswipt.cli import EXIT_ITER_LIMIT, EXIT_OK, main

DATA = Path(__file__).parent / "data"
BUNDLED = str(bundled_scenario_path())


@pytest.mark.parametrize(
    "variable, grid", [("P0_dBm", "20,30"), ("R", "2,5")], ids=["P0_dBm", "R"]
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
