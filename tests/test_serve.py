"""The serve daemon: codec validation, registry discipline, HTTP, concurrency.

The expensive pieces (a running server with attached designs) are
module-scoped; tests read through fresh :class:`ServeClient` instances (one
connection each, so tests never share HTTP state).
"""

from __future__ import annotations

import threading

import pytest

from repro.api import SessionConfig, TimingSession
from repro.errors import CharacterizationError, ReproError
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
from repro.serve.codec import DesignSpec, LineSpec
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

    def test_edit_batch_bumps_seq_and_diffs(self, registry):
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

    @pytest.mark.parametrize("config", [SessionConfig(),
                                        SessionConfig(compile_threshold=1)],
                             ids=["object", "compiled"])
    def test_failed_retime_rolls_back_and_recovers(self, library, config):
        # Every verb applies, then the re-time rejects the batch: 33.3X has
        # no characterized cell.  The batch must roll back like a rejected
        # verb, and must not wedge the design for later batches.
        registry = DesignRegistry(config)
        try:
            design = registry.attach(
                AttachRequest(name="w", case="chain3", clock_ps=900.0))
            before = design.snapshot
            size = design.graph.nets["stage1"].driver_size
            with pytest.raises(CharacterizationError):
                design.apply_edits(EditRequest.from_payload({"edits": [
                    {"op": "resize_driver", "net": "stage1", "driver_size": 33.3}]}))
            assert design.snapshot is before
            assert design.graph.nets["stage1"].driver_size == size
            snapshot = design.apply_edits(EditRequest.from_payload({"edits": [
                {"op": "resize_driver", "net": "stage2", "driver_size": 100.0}]}))
            assert snapshot.seq == before.seq + 1
            fresh = TimingSession(config).time(design.graph, name="w").to_dict()
            published = snapshot.report.to_dict()
            fresh.pop("meta"), published.pop("meta")
            assert published == fresh
        finally:
            registry.close()


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
        with pytest.raises(ServeError) as excinfo:
            client.request("GET", "/teapot")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", "/designs/%s/edits" % attached, {"edits": "no"})
        assert excinfo.value.status == 400

    def test_edit_round_trip_and_diff(self, client, attached):
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
