"""The benchmark tracer's wrapped names still exist, and unwrap cleanly.

``perfbench/spans.py`` times each phase by wrapping a program function by
name (``GraphEngine.compile``, ``IncrementalEngine.update``, ...).  A
refactor that drops or renames one of them breaks ``perfbench/run.py
--trace 1``; this test makes that a tier-1 failure: installing the tracer
must find every name, and uninstalling it must put back the very objects it
replaced.
"""

import sys
from pathlib import Path

# The modules the tracer patches, imported before the originals are taken.
from repro.api import report  # noqa: F401
from repro.characterization import tables  # noqa: F401
from repro.core import driver_model, far_end, stage_solver  # noqa: F401
from repro.serve import client, registry, server  # noqa: F401
from repro.sta import batch, compiled, incremental_compiled  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def program_namespaces():
    """id -> (owner, copy of its namespace) for every repro module and class."""
    namespaces = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespaces[id(module)] = (module, dict(vars(module)))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                namespaces[id(value)] = (value, dict(vars(value)))
    return namespaces


def test_install_then_uninstall_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = program_namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if a wrapped name no longer exists
        patched = [(owner, attr) for owner, attr, _ in tracer._patched]
        assert len(patched) >= 20
        for owner, attr in patched:
            assert id(owner) in originals, f"{owner!r} is not a program namespace"
            assert vars(owner)[attr] is not originals[id(owner)][1][attr], attr
    finally:
        tracer.uninstall()
    for owner, attr in patched:
        assert vars(owner)[attr] is originals[id(owner)][1][attr], (owner, attr)
