"""Every site the benchmark's tracer patches must exist on the package.

``perfbench/tracing.py`` wraps named functions and methods of ``poishom``
at their definitions and at every by-name import, and a traced benchmark
run exits 1 when one of them is gone.  This test reads the same site lists
(without changing them) and checks each against a fresh import, so moving
or renaming one of those names shows here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()
SITES = sorted({
    site
    for table in (_tracing.SPANS, _tracing.COUNTED)
    for sites in table.values()
    for site in sites
})


def _poishom_modules():
    return [name for name in sys.modules
            if name == "poishom" or name.startswith("poishom.")]


@pytest.fixture(scope="module")
def fresh_package():
    saved = {name: sys.modules.pop(name) for name in _poishom_modules()}
    try:
        importlib.import_module("poishom.cli")
        yield sys.modules["poishom"]
    finally:
        for name in _poishom_modules():
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.mark.parametrize("module, path", SITES,
                         ids=[f"{module}.{path}" for module, path in SITES])
def test_trace_site_resolves(fresh_package, module, path):
    owner = getattr(fresh_package, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert owner.__dict__.get(attr) is not None
