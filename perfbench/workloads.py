"""The three workloads: set-up, timed ops, and the checks every op must pass.

Each workload drives the timer's public API the way a user does and sorts its
ops into two kinds: a *read* asks for timing results, a *write* changes or
creates the design.  See ``perfbench/WORKLOADS.md`` for why each was chosen and
which phases it stresses.

Checks run between ops, outside the timed region.  ``goldens.json`` (captured
by ``capture_goldens.py``) pins the results bit-for-bit: floats are stored as
``float.hex`` strings.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api import TimingSession
from repro.api.config import SessionConfig
from repro.core.stage_solver import solve_stage
from repro.experiments import soc_graph
from repro.serve import ServeClient, TimingServer
from repro.sta import flip_transition
from repro.sta.compiled import TRANSITIONS
from repro.units import ps

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

CLOCK_PS = 1500.0
COLD_NETS = 100_000
SERVE_NETS = 1000
SERVE_DESIGN = "soc"
#: Unique stage configurations of the soc design: what one cold op must solve.
COLD_SOLVES = 32
#: Scalar-oracle tolerance for the batched stage solutions.
ORACLE_RTOL = 1e-9
#: Every RETIME_EVERY-th edit_soc100k cycle is followed by a full warm re-time:
#: a fixed mix, so ops per second does not move with the seed.
RETIME_EVERY = 2
#: Number of nets whose lazily built events each cold op spot-checks.
SPOT_NETS = 8

#: Local names (inside one 125-net soc cluster) of every 100X and 75X driver:
#: the edit sites of edit_soc100k, one per cluster.
SITE_LOCALS = ([f"m{i}" for i in range(4)] + [f"l{j}" for j in range(16)]
               + [f"c{j}s{s}" for j in range(16) for s in range(6)])
#: The edit sites of serve_soc1k (the 1k design has 8 clusters): tree nodes and
#: chain stages near both ends, so cones from tiny to wide.
SERVE_SITE_LOCALS = ("m0", "m3", "l2", "l13", "c1s0", "c6s2", "c9s4", "c15s5")
TOGGLE = {75.0: 100.0, 100.0: 75.0}


def build_soc(n_nets: int):
    graph = soc_graph(n_nets)
    graph.set_clock_period(ps(CLOCK_PS), hold_margin=0.0)
    return graph


def pick_sites(seed: int, n_clusters: int, local_names) -> List[str]:
    """One edit site per local name, each in its own seeded cluster.

    Clusters never interact, so every mix of toggled sites reuses the stage
    solutions of the all-toggled state.  Every seed edits the same positions,
    so the cost mix of an edit does not depend on the seed; the seed picks the
    clusters and the visiting order.
    """
    rng = random.Random(f"sites-{seed}")
    clusters = rng.sample(range(n_clusters), len(local_names))
    sites = [f"k{k}{local}" for k, local in zip(clusters, local_names)]
    rng.shuffle(sites)
    return sites


# --- result fingerprints ----------------------------------------------------------------
def _hex(value: Optional[float]) -> Optional[str]:
    return None if value is None else float(value).hex()


def _digest(*planes: np.ndarray) -> str:
    sha = hashlib.sha256()
    for plane in planes:
        # One NaN bit pattern, so "unconstrained" hashes the same however produced.
        sha.update(np.where(np.isnan(plane), np.nan, plane).tobytes())
    return sha.hexdigest()


def _summary(report) -> Dict[str, Any]:
    return {
        "wns": _hex(report.wns), "whs": _hex(report.whs),
        "worst_slack": _hex(report.worst_slack),
        "worst_hold_slack": _hex(report.worst_hold_slack),
        "events": report.n_events,
        "total_delay": _hex(report.total_delay),
        "critical_path": [f"{net}/{t}" for net, t in report.critical_path],
    }


def fingerprint_compiled(report) -> Dict[str, Any]:
    """Golden fields of a compiled-path report (the 100k design)."""
    analysis = report.analysis
    out = _summary(report)
    out["endpoints"] = int(analysis.endpoint_event_ids("setup").size)
    out["hold_endpoints"] = int(analysis.endpoint_event_ids("hold").size)
    out["slack_digest"] = _digest(analysis.slack_plane("setup"),
                                  analysis.slack_plane("hold"))
    return out


def fingerprint_object(report) -> Dict[str, Any]:
    """Golden fields of an object-engine report (the 1k serve design)."""
    out = _summary(report)
    out["endpoints"] = len(report.endpoint_slacks(mode="setup"))
    out["hold_endpoints"] = len(report.endpoint_slacks(mode="hold"))
    events = sorted(report.iter_events(), key=lambda e: (e.net, e.input_transition))
    out["slack_digest"] = _digest(np.array(
        [np.nan if e.slack is None else e.slack for e in events]
        + [np.nan if e.hold_slack is None else e.hold_slack for e in events]))
    return out


def load_goldens() -> Dict[str, Any]:
    return json.loads(GOLDENS.read_text())


def differences(got: Dict[str, Any], want: Dict[str, Any], what: str) -> List[str]:
    return [f"{what}: {key} is {got.get(key)!r}, golden {want[key]!r}"
            for key in want if got.get(key) != want[key]]


def same_planes(a, b) -> List[str]:
    """Bitwise equality of two compiled analyses' planes."""
    problems = []
    pairs = [(name, getattr(a.analysis.state, name), getattr(b.analysis.state, name))
             for name in ("exists", "in_arr", "early_in", "in_slew", "src",
                          "early_src", "out_arr", "early_out", "delay", "prop_slew")]
    pairs += [(name, getattr(a.analysis, name), getattr(b.analysis, name))
              for name in ("required", "hold_required")]
    for name, left, right in pairs:
        if left.tobytes() != right.tobytes():
            problems.append(f"re-time differs from update() in plane {name}")
    return problems


# --- workloads ---------------------------------------------------------------------------
class Workload:
    """One workload.  ``setup`` may run several times; each replaces the last."""

    name = ""
    #: Whether the run pins its process to one CPU (WORKLOADS.md, "One CPU").
    one_cpu = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.goldens = load_goldens()
        #: problems found during set-up (count as failed checks)
        self.setup_problems: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, run) -> None:
        """Run one cycle of ops through ``run.timed`` and ``run.judge`` them."""
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Run-level checks after the timed loop; returns the problems found."""
        return []

    def close(self) -> None:
        pass


class ColdSoc100k(Workload):
    """``repro time`` on a new 100k-net design, over and over.

    Write: build the design (``soc_graph`` + clock).  Read: a fresh
    ``TimingSession()``, ``.time(graph)``, close.  The design is fixed; the
    seed only picks the nets whose lazily built events are spot-checked.
    """

    name = "cold_soc100k"

    def setup(self) -> None:
        self.graph = self.report = None
        gc.collect()
        self.graph = build_soc(COLD_NETS)
        self.rng = random.Random(f"ops-{self.seed}")

    def step(self, run) -> None:
        self.report = None  # one design and one report alive at a time
        report = run.timed("read", lambda: self._cold_time(self.graph))
        if report is not None:
            run.judge(self._check(report))
            self.report = report
        self.graph = None
        self.graph = run.timed("write", lambda: build_soc(COLD_NETS))

    @staticmethod
    def _cold_time(graph):
        session = TimingSession()
        try:
            return session.time(graph)
        finally:
            session.close()

    def _check(self, report) -> List[str]:
        problems = differences(fingerprint_compiled(report),
                               self.goldens["soc100k"], self.name)
        if report.meta.computed != COLD_SOLVES:
            problems.append(f"cold op computed {report.meta.computed} stage solves, "
                            f"expected {COLD_SOLVES}")
        setup_plane = report.analysis.slack_plane("setup")
        for net in self.rng.sample(report.analysis.graph.order, SPOT_NETS):
            net_id = report.analysis.graph.index[net]
            for t, event in report.events[net].items():
                slack = setup_plane[net_id * 2 + TRANSITIONS.index(t)]
                if _hex(event.slack) != _hex(None if np.isnan(slack) else slack):
                    problems.append(f"event {net}/{t} slack disagrees with the plane")
        return problems

    def finish(self) -> List[str]:
        if self.report is None:
            return ["no cold op completed, so the scalar oracle did not run"]
        return scalar_oracle(self.report)


def scalar_oracle(report) -> List[str]:
    """Each unique batched stage solution against the scalar ``solve_stage``."""
    analysis = report.analysis
    cg, state = analysis.graph, analysis.state
    config = SessionConfig()
    events = np.flatnonzero(state.exists)
    _, first = np.unique(state.sol_idx[events], return_index=True)
    checked: Dict[str, int] = {}
    for event in events[first].tolist():
        solution = analysis.solutions[state.sol_idx[event]]
        if solution.fingerprint in checked:
            continue
        checked[solution.fingerprint] = event
        net_config = int(cg.config_id[event >> 1])
        options = dataclasses.replace(
            config.options, transition=flip_transition(TRANSITIONS[event & 1]),
            reference_time=0.0)
        oracle = solve_stage(cg.config_cell[net_config], float(state.in_slew[event]),
                             cg.config_line[net_config],
                             float(cg.config_load[net_config]), options=options,
                             slew_low=config.slew_low, slew_high=config.slew_high)
        for field in ("gate_delay", "interconnect_delay", "far_slew",
                      "propagated_slew", "ceff1", "tr1", "ceff2", "tr2_effective"):
            got, want = getattr(solution, field), getattr(oracle, field)
            if (got is None) != (want is None) or (
                    got is not None and abs(got - want) > ORACLE_RTOL * max(
                        abs(got), abs(want))):
                return [f"stage {solution.fingerprint[:12]}: {field} {got!r} vs "
                        f"scalar oracle {want!r}"]
    if len(checked) != COLD_SOLVES:
        return [f"oracle saw {len(checked)} unique stage solutions, "
                f"expected {COLD_SOLVES}"]
    return []


class EditSoc100k(Workload):
    """The ECO loop on a resident 100k design: edit→``update()`` and re-times.

    Each cycle toggles one seeded edit site between 75X and 100X and calls
    ``update()`` (a write); every ``RETIME_EVERY``-th cycle a full
    ``session.time(graph)`` follows (a read), which must equal the update
    bitwise.
    """

    name = "edit_soc100k"

    def setup(self) -> None:
        self.close()
        gc.collect()
        self.graph = build_soc(COLD_NETS)
        self.session = TimingSession()
        attach = self.session.update(self.graph)
        self.setup_problems = differences(
            fingerprint_compiled(attach), self.goldens["soc100k"], "attach")
        self.sites = pick_sites(self.seed, COLD_NETS // 125, SITE_LOCALS)
        # Both toggle states of every site: no stage solve is left for the loop.
        for _ in range(2):
            for site in self.sites:
                self._toggle(site)
            self.session.update(self.graph)
        self.session.time(self.graph)
        self.cycles = 0
        self.next_site = itertools.cycle(self.sites)
        self.toggled: set = set()

    def _toggle(self, site: str) -> None:
        self.graph.resize_driver(site, TOGGLE[self.graph.nets[site].driver_size])

    def step(self, run) -> None:
        site = next(self.next_site)

        def edit():
            self._toggle(site)
            return self.session.update(self.graph)

        update = run.timed("write", edit)
        self.toggled ^= {site}
        self.cycles += 1
        if update is None or self.cycles % RETIME_EVERY:
            return
        full = run.timed("read", lambda: self.session.time(self.graph))
        if full is not None:
            run.judge(same_planes(full, update))

    def finish(self) -> List[str]:
        for site in sorted(self.toggled):
            self._toggle(site)
        self.toggled = set()
        final = self.session.update(self.graph)
        return differences(fingerprint_compiled(final), self.goldens["soc100k"],
                           "after reverting every edit")

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
        self.session = self.graph = None


class ServeSoc1k(Workload):
    """One keep-alive client in a closed loop against the in-process daemon.

    90% reads (``wns`` 40%, ``slack(limit=10)`` 30%, ``events(net)`` 20%) and
    10% writes (one resize-toggle ``edit`` followed by ``wns``).
    """

    name = "serve_soc1k"
    one_cpu = True

    def setup(self) -> None:
        self.close()
        gc.collect()
        self.server = TimingServer(port=0).start_background()
        self.client = ServeClient(port=self.server.port)
        attach = self.client.attach(SERVE_DESIGN, case="soc", nets=SERVE_NETS,
                                    clock_ps=CLOCK_PS, hold_margin_ps=0.0)
        golden = self.goldens["soc1k"]
        got = {"wns": _hex(attach["wns"]), "whs": _hex(attach["whs"]),
               "events": attach["events"]}
        self.setup_problems = differences(
            got, {key: golden[key] for key in got}, "attach")
        graph = self.server.registry.get(SERVE_DESIGN).graph
        self.nets = sorted(graph.nets)
        self.sites = pick_sites(self.seed, SERVE_NETS // 125, SERVE_SITE_LOCALS)
        self.sizes = {site: graph.nets[site].driver_size for site in self.sites}
        self.original = dict(self.sizes)
        self.seq = attach["seq"]
        for _ in range(2):  # both toggle states of every site
            self._edit([(site, TOGGLE[self.sizes[site]]) for site in self.sites])
        for net in self.nets[:8]:
            self.client.events(SERVE_DESIGN, net)
        self.client.slack(SERVE_DESIGN, limit=10)
        self.rng = random.Random(f"ops-{self.seed}")
        self.next_site = itertools.cycle(self.sites)

    def _edit(self, changes) -> None:
        """One untimed edit batch of (site, driver size) changes."""
        self.client.edit(SERVE_DESIGN, [
            {"op": "resize_driver", "net": site, "driver_size": size}
            for site, size in changes])
        self.seq += 1
        for site, size in changes:
            self.sizes[site] = size

    def step(self, run) -> None:
        draw = self.rng.random()
        if draw < 0.4:
            self._read(run, lambda: self.client.wns(SERVE_DESIGN))
        elif draw < 0.7:
            self._read(run, lambda: self.client.slack(SERVE_DESIGN, limit=10),
                       lambda table: 0 < len(table["endpoints"]) <= 10)
        elif draw < 0.9:
            net = self.rng.choice(self.nets)
            self._read(run, lambda: self.client.events(SERVE_DESIGN, net),
                       lambda events: events["net"] == net and bool(events["events"]))
        else:
            self._write(run, next(self.next_site))

    def _read(self, run, query, well_formed=lambda response: True) -> None:
        response = run.timed("read", query)
        if response is None:
            return
        problems = [] if well_formed(response) else [f"malformed {response!r:.200}"]
        if response["seq"] != self.seq:
            problems.append(f"read seq {response['seq']}, expected {self.seq}")
        run.judge(problems)

    def _write(self, run, site: str) -> None:
        size = TOGGLE[self.sizes[site]]
        edits = [{"op": "resize_driver", "net": site, "driver_size": size}]

        def edit():
            edited = self.client.edit(SERVE_DESIGN, edits)
            return edited, self.client.wns(SERVE_DESIGN)

        pair = run.timed("write", edit)
        if pair is None:
            return
        self.seq += 1
        self.sizes[site] = size
        seqs = [response["seq"] for response in pair]
        run.judge([] if seqs == [self.seq, self.seq]
                  else [f"edit and wns seqs {seqs}, expected {self.seq}"])

    def finish(self) -> List[str]:
        changed = [(site, size) for site, size in self.original.items()
                   if size != self.sizes[site]]
        if changed:
            self._edit(changed)
        summary = self.client.wns(SERVE_DESIGN)
        golden = self.goldens["soc1k"]
        problems = differences({"wns": _hex(summary["wns"]), "whs": _hex(summary["whs"])},
                               {"wns": golden["wns"], "whs": golden["whs"]},
                               "after reverting every edit")
        # The clusters tie exactly, and after incremental updates the object
        # engine may elect another cluster's path: compare its delay, not its nets.
        report = self.server.registry.get(SERVE_DESIGN).snapshot.report
        problems += differences(
            fingerprint_object(report),
            {key: value for key, value in golden.items() if key != "critical_path"},
            "after reverting every edit")
        if summary["seq"] != self.seq:
            problems.append(f"final seq {summary['seq']}, expected {self.seq}")
        return problems

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.close()
        self.client = self.server = None


WORKLOADS = {cls.name: cls for cls in (ColdSoc100k, EditSoc100k, ServeSoc1k)}
