"""Every name the benchmark tracer looks up must exist in the package.

``perfbench/tracing.py`` fetches each traced function with a bare
``getattr``, so deleting one of them from ``src/`` makes every traced
benchmark pass fail.  The tracer is loaded here by file path, without
``install()``, and each of its lookups is made directly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

# read by install() beside the SPANS table
INSTALL_NAMES = [
    ("gturan.search", "add_vertex"),
    ("gturan.search", "_levels"),
    ("gturan.localization", "count_subgraph_copies"),
]


@pytest.mark.parametrize("module, attr", sorted(set(tracing.SPANS.values())) + INSTALL_NAMES)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_traced_modules_import():
    for module in tracing.MODULES:
        importlib.import_module(module)
