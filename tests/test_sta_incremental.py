"""IncrementalEngine: an attached object engine that re-times in full.

``IncrementalEngine.update()`` consumes the graph's dirty set and returns a
from-scratch ``GraphEngine.analyze()`` of the graph's current state.  The
property test drives random edit sequences (resizes, re-routes,
load/receiver changes, stimulus changes, constraint changes and structural
connect/disconnect edits) and checks after every step that the update equals
a separate analysis bit for bit and leaves no dirt behind.  Edit-proportional
re-timing is ``CompiledIncrementalEngine``'s, tested in
``test_sta_incremental_compiled``.

Both engines share one memoized solver — sharing cannot affect results (memo
hits are guaranteed bit-identical to recomputes) and keeps the test fast.
"""

import random

import pytest
from test_sta_dual_mode import random_edit

from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import parallel_chains, reconvergent_graph, soc_graph
from repro.interconnect import RLCLine
from repro.sta import GraphEngine, IncrementalEngine
from repro.units import mm, nH, pF, ps


@pytest.fixture(scope="module")
def lines():
    """Two cheap-to-solve line flavors (short wires keep the test quick)."""
    return [RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                    length=mm(1)),
            RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                    length=mm(2))]


@pytest.fixture(scope="module")
def solver():
    """One memo shared by the incremental engine and every full baseline."""
    return StageSolver()


def assert_reports_identical(incremental, full):
    """Every event equal, whole records bit for bit, and the same critical path."""
    assert incremental.events == full.events
    assert incremental.critical_path == full.critical_path


class TestIncrementalProperty:
    @pytest.mark.parametrize("shape,seed,steps", [
        ("diamond", 2003, 10),
        ("chains", 404, 10),
    ])
    def test_random_edit_sequences_stay_bit_identical(self, library, solver,
                                                      lines, shape, seed,
                                                      steps):
        if shape == "diamond":
            graph = reconvergent_graph(line=lines[0])
        else:
            graph = parallel_chains(2, 3, lines=[lines[0]],
                                    input_slew=ps(100))
        rng = random.Random(seed)
        incremental = IncrementalEngine(graph, library=library, solver=solver)
        baseline = GraphEngine(library=library, solver=solver)
        incremental.update()
        applied = []
        for _ in range(steps):
            kind = random_edit(rng, graph, lines)
            if kind is None:
                continue
            applied.append(kind)
            report = incremental.update()
            assert not graph.dirty_nets and not graph.constraints_dirty
            assert report.meta.retimed_nets == len(graph)
            assert_reports_identical(report, baseline.analyze(graph))
        assert applied, "the edit sequence degenerated to no-ops"

    def test_noop_update_recomputes_nothing(self, library, solver, lines):
        # With nothing edited, the full re-time is served by the memo: no
        # stage is solved again and the report is the same, bit for bit.
        graph = reconvergent_graph(line=lines[0])
        engine = IncrementalEngine(graph, library=library, solver=solver)
        first = engine.update()
        before = solver.stats.snapshot()
        second = engine.update()
        assert solver.stats.computed == before.computed
        assert second.meta.dirty_nets == 0
        assert second.meta.retimed_nets == len(graph)
        assert_reports_identical(second, first)

    def test_structural_edits_retime_new_topology(self, library, solver,
                                                  lines):
        graph = reconvergent_graph(line=lines[0])
        engine = IncrementalEngine(graph, library=library, solver=solver)
        base = engine.update()
        assert set(base.events["sink"]) == {"rise", "fall"}
        # Cutting the long branch removes the sink's second transition...
        graph.remove_fanout("long_b", "sink")
        after_cut = engine.update()
        assert set(after_cut.events["sink"]) == {"rise"}
        assert_reports_identical(after_cut,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        # ...and reconnecting restores it.
        graph.add_fanout("long_b", "sink")
        restored = engine.update()
        assert set(restored.events["sink"]) == {"rise", "fall"}
        assert_reports_identical(restored,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        assert_reports_identical(restored, base)

    def test_failed_update_invalidates_instead_of_corrupting(self, library,
                                                             solver, lines):
        # A failed update clears no dirt, so the next update still sees every
        # edit of the failed one; the report after the repair is complete.
        from repro.errors import CharacterizationError
        graph = parallel_chains(2, 3, lines=[lines[0]], input_slew=ps(100))
        engine = IncrementalEngine(graph, library=library, solver=solver)
        engine.update()
        graph.resize_driver("c1s0", 50.0)       # valid edit, same update...
        graph.resize_driver("c0s0", 33.333)     # ...uncharacterized size
        dirty = graph.dirty_nets
        with pytest.raises(CharacterizationError):
            engine.update()
        assert graph.dirty_nets == dirty
        graph.resize_driver("c0s0", 75.0)       # repair the bad edit
        report = engine.update()
        assert not graph.dirty_nets
        assert report.meta.retimed_nets == len(graph)
        assert report.n_events == len(graph)    # nothing silently missing
        assert_reports_identical(report,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        # The valid edit that rode along with the failure was not lost.
        assert report.events["c1s0"]["rise"].cell_name == "inv_50x"

    def test_update_inside_a_rolled_back_block_retimes_in_full(self, library,
                                                               solver):
        # The rollback undoes the resize and restores the dirty set as the
        # block found it; the engine caches nothing, so the next update times
        # the restored graph, not the undone edit.
        graph = soc_graph(250)
        engine = IncrementalEngine(graph, library=library, solver=solver)
        base = engine.update()
        with pytest.raises(RuntimeError):
            with graph.transaction():
                graph.resize_driver("k0m0", 75.0)
                inside = engine.update()
                assert inside.meta.retimed_nets == len(graph)
                assert {event.cell_name for event
                        in inside.events["k0m0"].values()} == {"inv_75x"}
                assert not graph.dirty_nets
                raise RuntimeError("reject the block")
        assert not graph.dirty_nets
        report = engine.update()
        assert report.meta.retimed_nets == len(graph)
        assert_reports_identical(report,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        assert_reports_identical(report, base)
        assert {event.cell_name for event
                in report.events["k0m0"].values()} == {"inv_100x"}

    def test_rejects_non_graph(self, library, solver):
        with pytest.raises(ModelingError):
            IncrementalEngine("not a graph", library=library, solver=solver)
