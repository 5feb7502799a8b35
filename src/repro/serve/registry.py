"""The HTTP-free core of the serve daemon: resident designs and their snapshots.

:class:`DesignRegistry` owns the set of attached designs; each
:class:`AttachedDesign` owns its graph, its own :class:`~repro.api.TimingSession`
(one session per design — an incremental engine is attached to exactly one
graph) and an immutable :class:`Snapshot` of the last analysis.

The concurrency discipline, enforced here so the HTTP layer stays trivial:

* **Reads** take no lock at all.  ``design.snapshot`` is a single attribute
  read of a frozen dataclass — atomic under the GIL — so a reader always sees
  one complete pre- or post-edit report, never a torn intermediate.
* **Writes** (:meth:`AttachedDesign.apply_edits`) serialize through one
  mutation lock per design: capture each verb's inverse, apply the batch,
  incrementally re-time via :meth:`TimingSession.update` (bit-identical to a
  from-scratch analysis of the edited graph), then swap in the new snapshot.
  If any verb is rejected mid-batch, or the re-time itself fails (e.g. a resize
  to an uncharacterized driver size), the already-applied verbs are rolled
  back in reverse order and the snapshot is left untouched — edit batches are
  atomic: all-or-nothing, and never observable half-applied.  The rollback
  re-dirties the same nets, so the next batch's update re-times them back.
* **Attach/detach** serialize through the registry lock, which is *not* held
  during the (potentially long) initial full analysis.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..api.config import SessionConfig
from ..api.report import ReportDiff, TimingReport, compare_reports
from ..api.session import TimingSession
from ..errors import ReproError
from ..sta.graph import TimingGraph
from .codec import AttachRequest, EditRequest

__all__ = ["Snapshot", "AttachedDesign", "DesignRegistry", "UnknownDesignError"]


class UnknownDesignError(ReproError):
    """No design with that name is attached (mapped to HTTP 404)."""


@dataclass(frozen=True)
class Snapshot:
    """One immutable published state of a design: a report and its provenance.

    Readers hold a reference to the whole snapshot, so a concurrent edit
    (which swaps ``design.snapshot`` to a *new* instance) can never mix fields
    from different analyses into one response.  ``seq`` starts at 0 on attach
    and bumps once per applied edit batch; ``diff`` compares this snapshot's
    report against the previous one (``None`` for the attach snapshot).
    """

    seq: int
    report: TimingReport
    diff: Optional[ReportDiff] = None
    edits_applied: int = 0  #: verbs in the batch that produced this snapshot


class AttachedDesign:
    """One resident design: graph + session + published snapshot + counters."""

    def __init__(self, name: str, graph: TimingGraph,
                 session: TimingSession) -> None:
        self.name = name
        self.graph = graph
        self.session = session
        self._mutation_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._queries = 0
        self._edit_batches = 0
        self._edits_applied = 0
        self._rejected_batches = 0
        self._analyses = 0
        self._retimed_nets_total = 0
        #: the published state; reassigned atomically, never mutated in place
        self.snapshot: Snapshot = self._analyze(seq=0, edits_applied=0)

    # --- analysis ---------------------------------------------------------------------
    def _analyze(self, *, seq: int, edits_applied: int,
                 previous: Optional[TimingReport] = None) -> Snapshot:
        report = self.session.update(self.graph, name=self.name)
        diff = compare_reports(previous, report) if previous is not None else None
        with self._counter_lock:
            self._analyses += 1
            self._retimed_nets_total += report.meta.retimed_nets or 0
        return Snapshot(seq=seq, report=report, diff=diff,
                        edits_applied=edits_applied)

    # --- the write path ---------------------------------------------------------------
    def apply_edits(self, request: EditRequest) -> Snapshot:
        """Apply one atomic edit batch, re-time incrementally, publish.

        Raises :class:`~repro.errors.ReproError` (and leaves the graph and the
        published snapshot exactly as before) if any verb of the batch is
        rejected — e.g. an unknown net, a cycle-creating fanout edit, or an
        orphaning removal — or if re-timing the edited graph fails.
        """
        with self._mutation_lock:
            applied: List[Tuple[Any, ...]] = []  # inverse groups, apply order
            old = self.snapshot
            try:
                for verb in request.edits:
                    inverses = verb.inverse(self.graph)  # before apply: pre-state
                    verb.apply(self.graph)
                    applied.append(inverses)
                snapshot = self._analyze(
                    seq=old.seq + 1,
                    edits_applied=len(request.edits),
                    previous=old.report,
                )
            except ReproError:
                for inverses in reversed(applied):
                    for inverse in inverses:
                        inverse.apply(self.graph)
                with self._counter_lock:
                    self._rejected_batches += 1
                raise
            with self._counter_lock:
                self._edit_batches += 1
                self._edits_applied += len(request.edits)
            self.snapshot = snapshot  # the atomic publish
            return snapshot

    # --- the read path ----------------------------------------------------------------
    def record_query(self) -> Snapshot:
        """Count one read query and return the current snapshot."""
        with self._counter_lock:
            self._queries += 1
        return self.snapshot

    def stats_payload(self) -> Dict[str, Any]:
        snapshot = self.snapshot
        with self._counter_lock:
            counters = {
                "queries": self._queries,
                "edit_batches": self._edit_batches,
                "edits_applied": self._edits_applied,
                "rejected_batches": self._rejected_batches,
                "analyses": self._analyses,
                "retimed_nets_total": self._retimed_nets_total,
            }
        payload: Dict[str, Any] = {
            "design": self.name,
            "seq": snapshot.seq,
            "nets": len(self.graph),
            "graph_version": self.graph.version,
        }
        payload.update(counters)
        payload["last_run"] = snapshot.report.meta.to_dict()
        return payload

    def close(self) -> None:
        self.session.close()


class DesignRegistry:
    """The daemon's set of resident designs, keyed by name."""

    def __init__(self, config: Optional[SessionConfig] = None) -> None:
        self.config = config if config is not None else SessionConfig()
        self._designs: Dict[str, AttachedDesign] = {}
        self._lock = threading.Lock()
        self._attaches = 0
        self._detaches = 0

    # --- lifecycle --------------------------------------------------------------------
    def attach(self, request: AttachRequest) -> AttachedDesign:
        """Build, fully analyze and register the requested design.

        The initial analysis runs outside the registry lock, so attaching a
        large design never blocks queries against the already-attached ones.
        """
        with self._lock:
            if request.name in self._designs:
                raise ReproError(f"design {request.name!r} is already attached")
        graph = request.build_graph()
        session = TimingSession(self.config)
        try:
            design = AttachedDesign(request.name, graph, session)
        except BaseException:
            session.close()
            raise
        with self._lock:
            if request.name in self._designs:  # lost a race to a same-name attach
                session.close()
                raise ReproError(f"design {request.name!r} is already attached")
            self._designs[request.name] = design
            self._attaches += 1
        return design

    def detach(self, name: str) -> None:
        with self._lock:
            design = self._designs.pop(name, None)
            if design is None:
                raise UnknownDesignError(f"no design named {name!r} is attached")
            self._detaches += 1
        design.close()

    def get(self, name: str) -> AttachedDesign:
        with self._lock:
            design = self._designs.get(name)
        if design is None:
            raise UnknownDesignError(f"no design named {name!r} is attached")
        return design

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._designs)

    def close(self) -> None:
        """Detach everything (daemon shutdown)."""
        with self._lock:
            designs = list(self._designs.values())
            self._designs.clear()
        for design in designs:
            design.close()

    # --- payloads ---------------------------------------------------------------------
    def list_payload(self) -> Dict[str, Any]:
        with self._lock:
            designs = list(self._designs.values())
        return {
            "designs": [
                {
                    "name": design.name,
                    "seq": design.snapshot.seq,
                    "nets": len(design.graph),
                }
                for design in sorted(designs, key=lambda d: d.name)
            ]
        }

    def stats_payload(self) -> Dict[str, Any]:
        with self._lock:
            designs = list(self._designs.values())
            lifecycle = {"attaches": self._attaches, "detaches": self._detaches}
        payload: Dict[str, Any] = {
            "attached": len(designs),
            "config": self.config.describe(),
        }
        payload.update(lifecycle)
        payload["designs"] = {
            design.name: design.stats_payload()
            for design in sorted(designs, key=lambda d: d.name)
        }
        return payload
