"""The package's public names are declared once, in each module's `__all__`."""

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
