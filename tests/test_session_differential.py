"""Seeded random edit batches through ``TimingSession.update``, bit for bit.

Each batch mixes the parameter, constraint and stimulus verbs of
:class:`~repro.sta.TimingGraph` — a resize, a line swap, an extra load, a
receiver and a primary input (one batch flips a root's transition), and in
every third batch a required-time pin and a clock edit — and one batch also
tries a resize to an
uncharacterized size inside ``graph.transaction()``, which the update
rejects and the transaction rolls back.  After every batch, the session's
updated report must equal a fresh session's ``time()`` of the same graph:
every plane of the analysis bitwise (``sol_idx`` aside, which indexes each
session's own solution table) and every event record with ``==``.  The
fresh session shares the stage-solution memo, since a batched solve moves
~1 ULP with the batch it is solved in.  Driver sizes stay at 75X and up:
smaller drivers can abort these designs' re-time on the far-end window
defect that ``test_api.TestFarEndWindowDefect`` pins.
"""

import random

import numpy as np
import pytest

from repro.api import TimingSession
from repro.errors import CharacterizationError
from repro.experiments import benchmark_graph, soc_graph
from repro.sta import PrimaryInput
from repro.units import fF, ps

#: Every per-event plane of a sweep except ``sol_idx``.
PLANES = ("exists", "in_arr", "early_in", "in_slew", "src", "early_src",
          "out_arr", "early_out", "delay", "prop_slew")

DESIGNS = {"soc1k": lambda: soc_graph(1000),
           "bench1k": lambda: benchmark_graph(1024)}

BATCHES = 8
FLIP_BATCH = 2  #: the batch whose stimulus edit flips a root's transition
REJECT_BATCH = 4  #: the batch that first tries a rejected resize


def edit_batch(rng, graph, lines, flip, constrain):
    """Apply one random batch of edits to ``graph``.

    Every batch resizes, swaps a line, sets an extra load and a receiver and
    re-states a primary input; ``constrain`` adds a required-time pin and a
    clock edit (which re-time every required time, so the batches without
    them are the ones whose report carries records over).
    """
    names = sorted(graph.nets)
    graph.resize_driver(rng.choice(names), rng.choice([75.0, 100.0, 125.0]))
    graph.set_line(rng.choice(names), rng.choice(lines))
    graph.set_extra_load(rng.choice(names), fF(rng.choice([0.0, 2.0, 5.0])))
    graph.set_receiver(rng.choice(names), rng.choice([None, 25.0, 75.0]))
    if constrain:
        graph.set_required(rng.choice(graph.endpoints),
                           rng.choice([None, ps(700), ps(1100)]),
                           transition=rng.choice([None, "rise", "fall"]),
                           mode=rng.choice(["setup", "hold"]))
        graph.set_clock_period(ps(rng.choice([1400, 1500, 1700])),
                               hold_margin=rng.choice([None, 0.0, ps(20)]))
    root, primary = rng.choice(sorted(graph.primary_inputs.items()))
    transition = primary.transition
    if flip:
        transition = "rise" if transition == "fall" else "fall"
    graph.set_input(root, PrimaryInput(
        slew=primary.slew * rng.choice([1.0, 1.25]),
        arrival=primary.arrival + ps(rng.choice([0, 15])),
        transition=transition))


def fresh_time(graph, solver):
    """A new session's ``time()`` of ``graph``, on ``solver``'s memo."""
    session = TimingSession()
    session.solver = session._engine.solver = solver
    return session.time(graph)


def assert_same_report(report, fresh):
    ours, theirs = report.analysis, fresh.analysis
    for name in PLANES:
        assert (getattr(ours.state, name).tobytes()
                == getattr(theirs.state, name).tobytes()), name
    assert ours.required.tobytes() == theirs.required.tobytes()
    assert ours.hold_required.tobytes() == theirs.hold_required.tobytes()
    assert list(report.events) == list(fresh.events)
    for name, per_net in fresh.events.items():
        assert report.events[name] == per_net, name


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_random_batches_match_a_fresh_session(design):
    graph = DESIGNS[design]()
    graph.set_clock_period(ps(1500), hold_margin=0.0)
    lines = sorted({id(net.line): net.line for net in graph.nets.values()}.values(),
                   key=lambda line: line.fingerprint())
    rng = random.Random(f"{design}-session")
    session = TimingSession()
    session.update(graph)
    flipped = False
    for batch in range(BATCHES):
        if batch == REJECT_BATCH:
            net = rng.choice(sorted(graph.nets))
            with pytest.raises(CharacterizationError):
                with graph.transaction():
                    graph.resize_driver(net, 33.0)
                    session.update(graph)
        before = {name: dict(graph.primary_inputs[name].__dict__)
                  for name in graph.primary_inputs}
        edit_batch(rng, graph, lines, flip=batch == FLIP_BATCH,
                   constrain=batch % 3 == 2)
        flipped |= any(graph.primary_inputs[name].transition != state["transition"]
                       for name, state in before.items())
        report = session.update(graph)
        if batch != REJECT_BATCH:  # a rollback drops the compiled snapshot
            assert report.meta.compile_seconds == 0.0
        assert_same_report(report, fresh_time(graph, session.solver))
    assert flipped, "no batch flipped a root's transition"
    assert len(lines) >= 1 and np.isfinite(report.worst_slack)
