"""Golden report payloads of the object sweep, and the designs they come from.

``tests/data/object_sweep_goldens.json`` pins the ``TimingReport.to_dict()``
payload (minus the run metadata, which carries wall clocks and cache counters)
of every design below, timed by the object sweep: ``GraphEngine.analyze`` and
``TimingReport.from_graph_report``.  Each entry stores the SHA-256 of the
canonical payload JSON (floats are written by ``repr``, so the digest is bit
exact) next to a readable summary.  ``test_goldens.py`` asserts that the
production path, ``TimingSession.time`` on the compiled engine, reproduces each
digest, and that the object sweep still does too.

The designs: every built-in case except ``soc`` (the perfbench goldens pin
that one), unconstrained and clocked, the canonical route as a
:class:`~repro.sta.TimingPath`, and seeded random DAGs with random setup and
hold constraints.  Every analysis computes each polarity the design
constrains; the entry keys keep the ``/both`` suffix they were captured under.
Each design gets a fresh stage solver, so no memo state leaks between entries.

Regenerate (only when a numeric change is intended) with::

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Tuple

from repro.api import TimingReport
from repro.core import StageSolver
from repro.experiments import BUILTIN_CASES, case_graph, global_route_path
from repro.interconnect import RLCLine
from repro.sta import GraphEngine, TimingGraph, TimingPath, chain_graph
from repro.units import mm, nH, pF, ps

GOLDENS = Path(__file__).resolve().parent / "data" / "object_sweep_goldens.json"

RANDOM_SEEDS = (5, 29, 41, 53)
CLOCK = ps(900)
HOLD_MARGIN = ps(20)

#: Builds a fresh copy of one golden design.
Design = Callable[[], "TimingGraph | TimingPath"]


def random_lines():
    """The two short line flavors of the random-DAG property tests."""
    return [RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                    length=mm(1)),
            RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                    length=mm(2))]


def _clocked(case: str) -> TimingGraph:
    graph = case_graph(case)
    graph.set_clock_period(CLOCK, hold_margin=HOLD_MARGIN)
    return graph


def _random(seed: int) -> TimingGraph:
    from test_sta_dual_mode import random_dag

    rng = random.Random(seed)
    graph = random_dag(rng, random_lines(), n_nets=rng.choice([9, 12, 15]))
    graph.set_clock_period(ps(rng.choice([500, 700, 900])),
                           hold_margin=rng.choice([0.0, ps(40)]))
    for name in rng.sample(sorted(graph.nets), k=2):
        graph.set_required(name, rng.choice([ps(200), ps(400)]),
                           transition=rng.choice([None, "rise", "fall"]))
        graph.set_required(name, rng.choice([ps(30), ps(90)]),
                           transition=rng.choice([None, "rise", "fall"]),
                           mode="hold")
    return graph


def golden_designs() -> Iterator[Tuple[str, Design]]:
    """Every golden design as ``(name, design factory)``."""
    for case in BUILTIN_CASES:
        if case == "soc":
            continue
        yield case, (lambda case=case: case_graph(case))
        yield f"{case}@clock", (lambda case=case: _clocked(case))
    yield "global_route_path", global_route_path
    for seed in RANDOM_SEEDS:
        yield f"random{seed}", (lambda seed=seed: _random(seed))


def golden_key(name: str) -> str:
    """The goldens-file key of design ``name``."""
    return f"{name}/both"


def golden_payload(report: TimingReport) -> Dict[str, Any]:
    """The bit-exact part of a report payload: everything but run metadata.

    The entries were captured while reports still recorded an analysis mode;
    the constant ``"both"`` keeps their digests valid.
    """
    payload = report.to_dict()
    payload.pop("meta")
    payload["mode"] = "both"
    return payload


def _hex(value):
    return None if value is None else float(value).hex()


def golden_entry(report: TimingReport) -> Dict[str, Any]:
    """The digest of :func:`golden_payload` plus a readable summary."""
    canonical = json.dumps(golden_payload(report), sort_keys=True)
    return {
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "kind": report.kind,
        "events": report.n_events,
        "total_delay": _hex(report.total_delay),
        "wns": _hex(report.wns),
        "whs": _hex(report.whs),
        "critical_path": [f"{net}/{t}" for net, t in report.critical_path],
    }


def object_sweep(design, library=None) -> TimingReport:
    """Time ``design`` through the object sweep with a fresh solver."""
    engine = GraphEngine(library=library, solver=StageSolver())
    if isinstance(design, TimingPath):
        graph, _ = chain_graph(design, input_transition=engine.options.transition)
        return TimingReport.from_graph_report(
            engine.analyze(graph), design=design.name, kind="path")
    return TimingReport.from_graph_report(engine.analyze(design), design="graph")


def capture() -> Dict[str, Any]:
    return {golden_key(name): golden_entry(object_sweep(factory()))
            for name, factory in golden_designs()}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    GOLDENS.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
