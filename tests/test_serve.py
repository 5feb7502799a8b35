"""The serve daemon: codec validation, registry discipline, HTTP, concurrency.

The expensive pieces (a running server with attached designs) are
module-scoped; tests read through fresh :class:`ServeClient` instances (one
connection each, so tests never share HTTP state).
"""

from __future__ import annotations

import threading

import pytest

from repro.api import TimingSession
from repro.api.report import StreamingTimingReport
from repro.characterization import CellLibrary
from repro.errors import ReproError
from repro.experiments.graph_cases import BUILTIN_CASES, benchmark_graph, case_graph
from repro.serve import (
    AttachRequest,
    DesignRegistry,
    EditRequest,
    ServeClient,
    ServeError,
    TimingServer,
    UnknownDesignError,
    ValidationError,
)
from repro.serve import registry as registry_module
from repro.serve.codec import DesignSpec, LineSpec
from repro.serve.registry import AttachedDesign
from repro.sta import GraphEngine, incremental_compiled
from repro.sta.compiled import CompiledAnalysis, CompiledGraph, SweepState
from repro.units import ps, to_ps

#: A tiny two-net design spec exercising every spec section.
SPEC = {
    "nets": [
        {"name": "a", "driver_size": 75.0, "fanout": ["b"],
         "line": {"resistance": 120.0, "inductance": 1e-9, "capacitance": 2e-13}},
        {"name": "b", "driver_size": 50.0, "receiver_size": 75.0,
         "line": {"resistance": 200.0, "inductance": 2e-9, "capacitance": 3e-13}},
    ],
    "inputs": [{"net": "a", "slew_ps": 100.0}],
    "requires": [{"net": "b", "required_ps": 800.0}],
}


# --- codec ----------------------------------------------------------------------------
class TestCodec:
    def test_attach_needs_exactly_one_source(self):
        with pytest.raises(ValidationError, match="exactly one"):
            AttachRequest.from_payload({"name": "d"})
        with pytest.raises(ValidationError, match="exactly one"):
            AttachRequest.from_payload({"name": "d", "case": "chain3", "spec": SPEC})

    def test_attach_rejects_unknown_case_and_fields(self):
        with pytest.raises(ValidationError, match="unknown case"):
            AttachRequest.from_payload({"name": "d", "case": "nope"})
        with pytest.raises(ValidationError, match="unknown attach request field"):
            AttachRequest.from_payload({"name": "d", "case": "chain3", "bogus": 1})

    def test_attach_validates_numbers(self):
        for bad in ({"clock_ps": -1.0}, {"input_slew_ps": 0.0}, {"nets": 0},
                    {"depth": "deep"}, {"hold_margin_ps": 5.0}):
            with pytest.raises(ValidationError):
                AttachRequest.from_payload({"name": "d", "case": "chain3", **bad})

    def test_every_builtin_case_builds(self):
        for case in BUILTIN_CASES:
            request = AttachRequest.from_payload(
                {"name": case, "case": case, "nets": 4, "depth": 2})
            graph = request.build_graph()
            assert len(graph) >= 1
            assert not graph.dirty_nets

    def test_spec_builds_the_described_graph(self):
        request = AttachRequest.from_payload({"name": "d", "spec": SPEC})
        graph = request.build_graph()
        assert sorted(graph.nets) == ["a", "b"]
        assert graph.nets["a"].fanout == ("b",)
        assert graph.nets["b"].receiver_size == 75.0
        assert graph.required_pins("setup")["b"] == {
            "rise": ps(800.0), "fall": ps(800.0)}

    def test_spec_structural_errors_are_engine_errors(self):
        # Well-formed JSON, bad topology: surfaces at build() as ReproError
        # (422), not ValidationError (400).
        spec = {"nets": [dict(SPEC["nets"][0], fanout=["zz"])],
                "inputs": SPEC["inputs"]}
        request = AttachRequest.from_payload({"name": "d", "spec": spec})
        with pytest.raises(ReproError):
            request.build_graph()
        with pytest.raises(ValidationError):  # malformed spec stays a 400
            DesignSpec.from_payload({"nets": [], "inputs": []})

    def test_line_spec_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            LineSpec.from_payload(
                {"resistance": -1.0, "inductance": 1e-9, "capacitance": 1e-13})
        with pytest.raises(ValidationError, match="unknown"):
            LineSpec.from_payload(
                {"resistance": 1.0, "inductance": 1e-9, "capacitance": 1e-13,
                 "impedance": 50.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_numbers_must_be_finite(self, bad):
        # Python's json parses NaN and Infinity; the codec must not pass them on.
        nets = [dict(SPEC["nets"][0]), SPEC["nets"][1]]
        nets[0]["extra_load"] = bad
        with pytest.raises(ValidationError, match="finite"):
            DesignSpec.from_payload(dict(SPEC, nets=nets))
        for edit in ({"op": "resize_driver", "net": "a", "driver_size": bad},
                     {"op": "set_extra_load", "net": "a", "extra_load": bad},
                     {"op": "set_receiver", "net": "b", "receiver_size": bad}):
            with pytest.raises(ValidationError, match="finite"):
                EditRequest.from_payload({"edits": [edit]})
        with pytest.raises(ValidationError, match="finite"):
            AttachRequest.from_payload({"name": "d", "case": "chain3",
                                        "clock_ps": bad})

    def test_edit_request_parses_every_verb(self):
        request = EditRequest.from_payload({"edits": [
            {"op": "resize_driver", "net": "a", "driver_size": 50.0},
            {"op": "set_line", "net": "a",
             "line": {"resistance": 1.0, "inductance": 1e-9, "capacitance": 1e-13}},
            {"op": "set_extra_load", "net": "a", "extra_load": 1e-14},
            {"op": "set_receiver", "net": "b", "receiver_size": None},
            {"op": "add_fanout", "driver": "a", "sink": "b"},
            {"op": "remove_fanout", "driver": "a", "sink": "b"},
            {"op": "set_required", "net": "b", "required_ps": 900.0, "mode": "hold"},
            {"op": "set_clock", "period_ps": 1000.0, "hold_margin_ps": 30.0},
        ]})
        assert len(request.edits) == 8
        assert request.edits[6].required == pytest.approx(ps(900.0))

    def test_edit_request_rejects_bad_payloads(self):
        for bad, match in (
            ({"edits": []}, "non-empty"),
            ({"edits": [{"op": "warp", "net": "a"}]}, "edits\\[0\\]"),
            ({"edits": [{"op": "resize_driver", "net": "a", "driver_size": -1}]},
             "positive"),
            ({"edits": [{"op": "resize_driver", "net": "a", "driver_size": 1,
                         "bogus": 2}]}, "unknown"),
            ({"edits": [{"op": "set_required", "net": "a", "required_ps": 1,
                         "mode": "sideways"}]}, "sideways"),
        ):
            with pytest.raises(ValidationError, match=match):
                EditRequest.from_payload(bad)


# --- registry -------------------------------------------------------------------------
class TestRegistry:
    @pytest.fixture(scope="class")
    def registry(self, library):
        registry = DesignRegistry()
        registry.attach(AttachRequest(name="d1", case="chain3", clock_ps=900.0))
        yield registry
        registry.close()

    def test_attach_duplicate_and_unknown(self, registry):
        with pytest.raises(ReproError, match="already attached"):
            registry.attach(AttachRequest(name="d1", case="chain3"))
        with pytest.raises(UnknownDesignError):
            registry.get("nope")
        with pytest.raises(UnknownDesignError):
            registry.detach("nope")
        assert registry.names() == ["d1"]

    def test_edit_batch_bumps_seq_and_diffs(self, registry, cone_path):
        design = registry.get("d1")
        seq = design.snapshot.seq
        snapshot = design.apply_edits(EditRequest.from_payload({"edits": [
            {"op": "resize_driver", "net": "stage1", "driver_size": 100.0}]}))
        assert snapshot.seq == seq + 1
        assert design.snapshot is snapshot
        assert snapshot.diff is not None
        assert snapshot.report.meta.incremental
        assert snapshot.report.meta.retimed_nets < len(design.graph) + 1

    def test_rejected_batch_rolls_back(self, registry):
        design = registry.get("d1")
        before = design.snapshot
        sizes = {name: net.driver_size for name, net in design.graph.nets.items()}
        with pytest.raises(ReproError):
            design.apply_edits(EditRequest.from_payload({"edits": [
                {"op": "resize_driver", "net": "stage2", "driver_size": 25.0},
                {"op": "add_fanout", "driver": "stage3", "sink": "stage1"},
            ]}))
        # All-or-nothing: the first verb was rolled back, the snapshot kept.
        assert design.snapshot is before
        assert {n: net.driver_size for n, net in design.graph.nets.items()} == sizes
        assert design.stats_payload()["rejected_batches"] >= 1

    def test_uncharacterized_size_is_rejected_before_any_verb(self, library):
        registry = DesignRegistry()
        try:
            design = registry.attach(
                AttachRequest(name="v", case="chain3", clock_ps=900.0))
            graph = design.graph
            before = design.snapshot
            state = (graph.version, graph.topology_version, graph.dirty_nets)
            with pytest.raises(ValidationError,
                               match=r"33X.*available sizes: \[25\.0, .*125\.0\]"):
                design.apply_edits(EditRequest.from_payload({"edits": [
                    {"op": "resize_driver", "net": "stage1", "driver_size": 100.0},
                    {"op": "resize_driver", "net": "stage2", "driver_size": 33.0}]}))
            # The batch never touched the graph: no version bump, no dirty nets.
            assert (graph.version, graph.topology_version, graph.dirty_nets) == state
            assert not graph.dirty_nets
            assert design.snapshot is before and design.snapshot.seq == 0
            assert graph.nets["stage1"].driver_size == 75
            stats = design.stats_payload()
            assert stats["rejected_batches"] == 1
            assert stats["edit_batches"] == 0 and stats["analyses"] == 1
        finally:
            registry.close()


def graph_state(graph):
    """Everything a rejected batch must leave as it was."""
    return (graph.version, graph.topology_version, graph.dirty_nets,
            graph.constraints_dirty, graph.param_edits_since(-1),
            {name: net for name, net in graph.nets.items()},
            graph.required_pins("setup"), graph.required_pins("hold"),
            graph.clock_period, graph.hold_margin)


def report_payload(report):
    payload = report.to_dict()
    payload.pop("meta")
    return payload


class TestFailureInjection:
    """A batch that fails anywhere before its publish leaves no trace.

    Each case makes one layer of the write path run and then raise, so the
    failure comes after that layer has done its work: the compiled patch has
    written its arrays, the engine has swept or published its planes.  The
    rejected batch must leave the graph state and the published snapshot as
    they were, and the next batch must time exactly like an untouched twin.
    """

    BATCHES = {
        "resize": [{"op": "resize_driver", "net": "stage2", "driver_size": 125.0}],
        "constraint": [{"op": "set_clock", "period_ps": 700.0,
                        "hold_margin_ps": 10.0}],
        "add_fanout": [{"op": "resize_driver", "net": "stage1", "driver_size": 100.0},
                       {"op": "add_fanout", "driver": "stage1", "sink": "stage3"}],
    }
    #: The batch after the failure: a different net, so a compiled snapshot
    #: or plane left over from the failed batch would show in its report.
    NEXT = [{"op": "resize_driver", "net": "stage3", "driver_size": 100.0}]
    SITES = {
        "cell_lookup": (CellLibrary, "get"),  # inside the patch, before it writes
        "patch": (CompiledGraph, "patch"),
        "incremental_sweep": (incremental_compiled, "incremental_sweep"),
        "incremental_required": (incremental_compiled, "incremental_required"),
        "analyze_compiled": (GraphEngine, "analyze_compiled"),  # the full path
        "backward_required": (incremental_compiled, "backward_required"),
        "from_compiled": (StreamingTimingReport, "from_compiled"),
        "compare_reports": (registry_module, "compare_reports"),
    }
    CASES = [
        ("cell_lookup", "resize", ReproError),
        ("patch", "resize", ReproError),
        ("incremental_sweep", "resize", ReproError),
        ("incremental_required", "resize", ReproError),
        ("analyze_compiled", "resize", ReproError),
        ("backward_required", "constraint", ReproError),
        ("from_compiled", "resize", ReproError),
        ("from_compiled", "constraint", ReproError),
        ("from_compiled", "add_fanout", ReproError),
        ("compare_reports", "resize", ReproError),
        ("compare_reports", "constraint", ReproError),
        ("compare_reports", "add_fanout", ReproError),
        ("incremental_sweep", "resize", RuntimeError),
        ("compare_reports", "constraint", RuntimeError),
    ]
    #: Sites on the cone path: chain3 is small enough that its edits take
    #: the full sweep (analyze_compiled) unless the cone path is pinned.
    CONE_SITES = ("incremental_sweep", "incremental_required")

    @staticmethod
    def request(edits):
        return EditRequest.from_payload({"edits": edits})

    @pytest.fixture(scope="class")
    def twin_report(self, library):
        """The from-scratch report of a fresh chain3 with batches applied."""
        session = TimingSession()  # one memo for every case's twins

        def twin_report(*batches):
            graph = AttachRequest(name="w", case="chain3",
                                  clock_ps=900.0).build_graph()
            for batch in batches:
                for verb in self.request(batch).edits:
                    verb.apply(graph)
            return report_payload(session.time(graph, name="w"))

        return twin_report

    @pytest.mark.parametrize(
        "site, batch, error", CASES,
        ids=[f"{site}-{batch}-{error.__name__}" for site, batch, error in CASES])
    def test_failed_batch_leaves_no_trace(self, twin_report, monkeypatch, request,
                                          site, batch, error):
        registry = DesignRegistry()
        try:
            design = registry.attach(
                AttachRequest(name="w", case="chain3", clock_ps=900.0))
            before = design.snapshot
            state = graph_state(design.graph)
            owner, attribute = self.SITES[site]
            original = getattr(owner, attribute)
            fired = []

            def run_then_fail(*args, **kwargs):
                original(*args, **kwargs)
                fired.append(site)
                raise error(f"injected failure after {site}")

            monkeypatch.setattr(owner, attribute, run_then_fail)
            if site in self.CONE_SITES:
                request.getfixturevalue("cone_path")
            with pytest.raises(error, match="injected"):
                design.apply_edits(self.request(self.BATCHES[batch]))
            monkeypatch.undo()
            assert fired == [site]
            assert graph_state(design.graph) == state
            assert design.snapshot is before and design.snapshot.seq == 0
            stats = design.stats_payload()
            assert stats["rejected_batches"] == 1 and stats["edit_batches"] == 0

            snapshot = design.apply_edits(self.request(self.NEXT))
            assert snapshot.seq == 1
            assert report_payload(snapshot.report) == twin_report(self.NEXT)
            snapshot = design.apply_edits(self.request(self.BATCHES[batch]))
            assert report_payload(snapshot.report) == twin_report(
                self.NEXT, self.BATCHES[batch])
        finally:
            registry.close()

    def test_rejected_verb_keeps_the_next_batch_incremental(self, library,
                                                            cone_path):
        registry = DesignRegistry()
        try:
            design = registry.attach(
                AttachRequest(name="w", case="chain3", clock_ps=900.0))
            state = graph_state(design.graph)
            with pytest.raises(ReproError, match="cycle"):
                design.apply_edits(self.request([
                    {"op": "resize_driver", "net": "stage2", "driver_size": 125.0},
                    {"op": "add_fanout", "driver": "stage3", "sink": "stage2"}]))
            assert graph_state(design.graph) == state
            meta = design.apply_edits(self.request(self.NEXT)).report.meta
            assert meta.incremental
            assert meta.retimed_nets < len(design.graph)
            assert meta.compile_seconds == 0.0 and meta.patched_nets == 2
        finally:
            registry.close()


class TestWriteCost:
    """An edit batch on an attached design costs its cone, not the graph."""

    SITES = ("k3c6s2", "k5m1", "k1l9", "k6c2s4")

    @pytest.fixture(scope="class")
    def soc(self, library):
        registry = DesignRegistry()
        design = registry.attach(AttachRequest(
            name="soc", case="soc", nets=1000, clock_ps=1500.0, hold_margin_ps=0.0))
        for _ in range(2):  # both toggle states solved; both plane buffers exist
            for site in self.SITES:
                self.resize(design, site)
        yield design
        registry.close()

    @staticmethod
    def resize(design, site):
        size = {100.0: 75.0, 75.0: 100.0}[design.graph.nets[site].driver_size]
        return design.apply_edits(EditRequest.from_payload({"edits": [
            {"op": "resize_driver", "net": site, "driver_size": size}]}))

    def test_batches_never_clone_the_planes(self, soc, monkeypatch):
        clones = []
        clone = SweepState.clone

        def counting_clone(state):
            clones.append(None)
            return clone(state)

        monkeypatch.setattr(SweepState, "clone", counting_clone)
        for batch in range(20):
            self.resize(soc, self.SITES[batch % len(self.SITES)])
        # The published snapshot and its diff hold nothing of the previous
        # analysis, so the engine always finds its spare buffer unshared.
        assert not clones

    def test_resize_builds_keys_only_for_the_path_and_changed_rows(
            self, soc, monkeypatch):
        calls = []
        key_of = CompiledAnalysis.key_of

        def counting_key_of(analysis, event):
            calls.append(event)
            return key_of(analysis, event)

        monkeypatch.setattr(CompiledAnalysis, "key_of", counting_key_of)
        for site in self.SITES:
            calls.clear()
            snapshot = self.resize(soc, site)
            diff = snapshot.diff
            rows = len(diff.changed_endpoints) + len(diff.changed_hold_endpoints)
            assert rows
            assert len(calls) <= len(snapshot.report.critical_path) + rows


# --- HTTP endpoints -------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(library):
    with TimingServer(port=0) as server:
        yield server


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as client:
        yield client


@pytest.fixture(scope="module")
def attached(server):
    """The shared 'web' design (chain3 + clock), attached once."""
    with ServeClient(port=server.port) as client:
        client.attach("web", case="chain3", clock_ps=900.0)
    return "web"


class TestHTTP:
    def test_healthz_and_stats(self, client, attached):
        health = client.healthz()
        assert health["status"] == "ok" and health["designs"] >= 1
        stats = client.stats()
        assert attached in stats["designs"]
        assert stats["designs"][attached]["analyses"] >= 1
        assert any(d["name"] == attached for d in client.designs())

    def test_summary_and_slack(self, client, attached):
        summary = client.wns(attached)
        assert summary["nets"] == 3
        assert summary["wns_ps"] == pytest.approx(to_ps(summary["wns"]))
        slack = client.slack(attached, limit=5)
        assert slack["mode"] == "setup"
        assert slack["endpoints"]
        assert slack["worst"] is not None

    def test_report_and_events(self, client, attached):
        report = client.report(attached)
        assert set(report["events"]) == {"stage1", "stage2", "stage3"}
        events = client.events(attached, "stage2")
        assert set(events["events"]) <= {"rise", "fall"}

    def test_error_mapping(self, client, attached):
        with pytest.raises(ServeError) as excinfo:
            client.wns("ghost")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.events(attached, "ghost_net")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.attach("bad")  # neither case nor spec
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.slack(attached, mode="sideways")
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.edit(attached, [
                {"op": "add_fanout", "driver": "stage3", "sink": "stage1"}])
        assert excinfo.value.status == 422
        with pytest.raises(ServeError) as excinfo:  # no 33X cell: a bad request
            client.edit(attached, [
                {"op": "resize_driver", "net": "stage2", "driver_size": 33.0}])
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.request("GET", "/teapot")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", "/designs/%s/edits" % attached, {"edits": "no"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:  # the body carries NaN
            client.edit(attached, [{"op": "set_extra_load", "net": "stage1",
                                    "extra_load": float("nan")}])
        assert excinfo.value.status == 400

    def test_internal_error_is_a_500_and_runs_once(self, server, client,
                                                     monkeypatch):
        # An unexpected exception must still be answered: a dropped
        # connection would make the client re-send the batch.
        client.attach("boom", case="chain3", clock_ps=900.0)
        try:
            design = server.registry.get("boom")
            state = graph_state(design.graph)
            before = design.snapshot
            calls = []
            apply_edits = AttachedDesign.apply_edits

            def counting_apply(self, request):
                calls.append(request)
                return apply_edits(self, request)

            def failing_compare(old, new):
                raise RuntimeError("injected")

            monkeypatch.setattr(AttachedDesign, "apply_edits", counting_apply)
            monkeypatch.setattr(registry_module, "compare_reports", failing_compare)
            with pytest.raises(ServeError) as excinfo:
                client.resize("boom", "stage2", 125.0)
            monkeypatch.undo()
            assert excinfo.value.status == 500
            assert excinfo.value.error == "internal"
            assert len(calls) == 1
            assert graph_state(design.graph) == state
            assert design.snapshot is before
            stats = client.design_stats("boom")
            assert stats["rejected_batches"] == 1 and stats["seq"] == 0
        finally:
            client.detach("boom")

    def test_edit_round_trip_and_diff(self, client, attached, cone_path):
        before = client.wns(attached)
        response = client.resize(attached, "stage1", 75.0)
        assert response["seq"] == before["seq"] + 1
        diff = response["diff"]
        assert diff["old_seq"] == before["seq"]
        assert diff["new_seq"] == response["seq"]
        assert client.diff(attached)["diff"]["new_wns"] == diff["new_wns"]
        stats = client.design_stats(attached)
        assert stats["edit_batches"] >= 1
        assert stats["last_run"]["retimed_nets"] <= 3
        # Every run is one in-process pass: no worker or shard counters.
        for counter in ("jobs", "shards", "boundary_events_exchanged",
                        "parallel_sweep"):
            assert counter not in stats["last_run"]

    def test_attach_spec_detach(self, client):
        summary = client.attach("custom", spec=SPEC)
        assert summary["nets"] == 2
        assert client.wns("custom")["worst_slack"] is not None
        assert client.detach("custom") == {"detached": "custom"}
        with pytest.raises(ServeError) as excinfo:
            client.wns("custom")
        assert excinfo.value.status == 404

    def test_warm_queries_never_reanalyze(self, client, attached):
        analyses = client.design_stats(attached)["analyses"]
        for _ in range(5):
            client.wns(attached)
            client.slack(attached)
        after = client.design_stats(attached)
        assert after["analyses"] == analyses
        assert after["queries"] >= 10


class TestUnixSocket:
    def test_serves_over_af_unix(self, tmp_path, library):
        path = str(tmp_path / "repro.sock")
        with TimingServer(socket_path=path) as server:
            assert server.describe() == f"unix:{path}"
            with ServeClient(socket_path=path) as client:
                assert client.wait_until_up()["status"] == "ok"
                with pytest.raises(ServeError) as excinfo:
                    client.wns("ghost")
                assert excinfo.value.status == 404


# --- the concurrency satellite --------------------------------------------------------
class TestConcurrentAccess:
    NETS = 64
    CLOCK_PS = 2500.0
    BATCHES = 6

    def test_readers_see_only_published_snapshots(self, library):
        """Readers hammering /wns during edits observe no torn state, and the
        final published report is bit-identical to a from-scratch analysis."""
        with TimingServer(port=0) as server:
            with ServeClient(port=server.port) as writer:
                attach = writer.attach("soc", case="bench", nets=self.NETS,
                                       clock_ps=self.CLOCK_PS)
                # seq -> the summary the writer saw when publishing it
                published = {attach["seq"]: attach}
                stop = threading.Event()
                observed = []
                failures = []

                def read_loop():
                    try:
                        with ServeClient(port=server.port) as reader:
                            while not stop.is_set():
                                observed.append(reader.wns("soc"))
                    except Exception as exc:  # pragma: no cover - diagnostic
                        failures.append(exc)

                readers = [threading.Thread(target=read_loop) for _ in range(4)]
                for thread in readers:
                    thread.start()
                try:
                    for index in range(self.BATCHES):
                        size = 50.0 if index % 2 == 0 else 75.0
                        response = writer.resize("soc", "c0s15", size)
                        response.pop("diff")
                        published[response["seq"]] = response
                finally:
                    stop.set()
                    for thread in readers:
                        thread.join(timeout=30)
                assert not failures
                assert len(published) == self.BATCHES + 1

                # Snapshot isolation: every observation is exactly one of the
                # published summaries — never a mix of two analyses.
                assert observed
                for summary in observed:
                    assert summary == published[summary["seq"]]

                final = writer.report("soc")
        # Bit-identical to a from-scratch analysis of the same edited design.
        graph = case_graph("bench", nets=self.NETS)
        graph.set_clock_period(ps(self.CLOCK_PS))
        final_size = 50.0 if (self.BATCHES - 1) % 2 == 0 else 75.0
        graph.resize_driver("c0s15", final_size)
        with TimingSession() as session:
            scratch = session.time(graph, name="soc").to_dict()
        for key in ("events", "levels", "critical_path"):
            assert final[key] == scratch[key]
