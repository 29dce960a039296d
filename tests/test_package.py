"""The package's public names are declared once, in each module's `__all__`,
and importing or running it needs no scipy."""

import subprocess
import sys
from pathlib import Path

import mfswipt
from mfswipt import benchmarks, correlation, geometry, metrics, scenario, solvers

MODULES = (geometry, scenario, correlation, metrics, solvers, benchmarks)


def test_package_reexports_every_module_all():
    assert mfswipt.__all__ == ["__version__"] + [n for mod in MODULES for n in mod.__all__]


def test_public_names_are_unique():
    assert len(set(mfswipt.__all__)) == len(mfswipt.__all__)


def test_reexports_are_the_module_objects():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(mfswipt, name) is getattr(mod, name), f"{mod.__name__}.{name}"


# scipy is a test dependency only: the package and its CLI must run without it
NO_SCIPY = """
import sys
sys.path.insert(0, sys.argv[1])
sys.modules["scipy"] = None  # any scipy import, even a lazy one, now raises
from mfswipt import bundled_scenario_path
from mfswipt.cli import EXIT_OK, main
scenario, out = str(bundled_scenario_path()), sys.argv[2]
codes = [
    main(["check", scenario]),
    main(["solve", scenario, "--output", out + "/row.csv"]),
    main(["correlate", scenario, "--grid-points", "6", "--output-prefix", out + "/corr"]),
]
assert codes == [EXIT_OK] * 3, codes
"""

PLAIN_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import mfswipt
assert "scipy" not in sys.modules
"""


def run_probe(code, *args):
    src = str(Path(mfswipt.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, src, *args], capture_output=True, text=True, timeout=120
    )


def test_cli_runs_with_scipy_blocked(tmp_path):
    proc = run_probe(NO_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "row.csv").is_file() and (tmp_path / "corr_error_grid.csv").is_file()


def test_import_loads_no_scipy():
    proc = run_probe(PLAIN_IMPORT)
    assert proc.returncode == 0, proc.stderr
