"""repro.api — the one front door over the whole solver stack.

The paper's reproduction grew three subsystems (characterization, memoized stage
solving, graph-scale STA) that used to be wired together by hand.  This package
is the coherent surface over them:

* :class:`SessionConfig` — one validated, serializable configuration object
  (environment variables are a documented override layer via
  :meth:`SessionConfig.from_env`, not hidden magic),
* :class:`TimingSession` — a context-managed facade owning the cell library,
  the persistent caches, the memoized stage solver and the characterization
  worker pool,
* :class:`DesignBuilder` — fluent chain/DAG construction without touching
  :class:`~repro.sta.graph.GraphNet` internals,
* :class:`TimingReport` / :class:`TimingEvent` / :class:`RunInfo` — the unified
  result model (per-net rise/fall events, setup *and* hold required times and
  slack over the late/early arrival planes, critical path, run metadata) with
  a lossless ``to_dict``/``from_dict``/JSON round-trip, plus
  :func:`compare_reports` for diffing two saved reports (gating on both WNS
  and WHS), and
* the ``python -m repro`` CLI (:mod:`repro.api.cli`) built on top of it all.

Sessions are incremental-aware: :meth:`TimingSession.update` stays attached to
one (mutable) :class:`~repro.sta.graph.TimingGraph` and re-times only the dirty
cone of in-place edits; ``SessionConfig.corners`` names per-corner modeling
options that all share the session's one stage-solution memo.

Quickstart::

    from repro.api import DesignBuilder, TimingSession
    from repro.units import mm, nH, pF, ps

    design = (DesignBuilder("demo")
              .chain("route", sizes=(75, 100, 75), line=line,
                     input_slew=ps(100), receiver_size=50))
    with TimingSession() as session:
        report = session.time(design)
        print(report.format_report())
        report.save("timing.json")
"""

from .builder import DesignBuilder
from .config import SessionConfig
from .report import (
    ReportDiff,
    RunInfo,
    StreamingTimingReport,
    TimingEvent,
    TimingReport,
    compare_reports,
)
from .session import TimingSession

__all__ = [
    "SessionConfig",
    "TimingSession",
    "DesignBuilder",
    "TimingReport",
    "StreamingTimingReport",
    "TimingEvent",
    "RunInfo",
    "ReportDiff",
    "compare_reports",
]
