"""repro.serve — the resident timing daemon (the step from library to service).

The incremental engine, the dual-mode kernel and the memoized stage solver only
pay off when a session outlives a single query — exactly the workload the
paper's fast driver/Ceff timing model targets: many repeated timing queries
against one evolving design.  This package keeps a set of named designs (graph
+ :class:`~repro.api.TimingSession` + last report) resident in memory and
serves JSON queries over a local HTTP socket, with a strict reader/writer
discipline:

* **reads** (``GET /designs/{name}/wns``, ``/slack``, ``/events/{net}``,
  ``/report``, ``/diff``, ``/stats``) are served from an immutable report
  *snapshot* — no lock, no analysis, no torn state; concurrent readers always
  see a consistent pre- or post-edit report,
* **writes** (``POST /designs/{name}/edits`` carrying batched edit verbs)
  are serialized through one mutation lock per design, drive
  :meth:`~repro.api.TimingSession.update` (incremental: only the edits' dirty
  cone re-times) and atomically swap the snapshot; each batch is one graph
  transaction, rolled back whole if any verb or the re-time fails.

Layers, bottom up:

* :mod:`repro.serve.codec` — typed request/response schemas (dataclasses with
  validation; malformed payloads raise :class:`ValidationError` -> HTTP 400,
  engine rejections surface as :class:`~repro.errors.ReproError` -> 422),
* :mod:`repro.serve.registry` — :class:`DesignRegistry`, the HTTP-free core
  (attach / edit / query / detach against resident designs),
* :mod:`repro.serve.server` — :class:`TimingServer`, stdlib
  ``ThreadingHTTPServer`` routing over a TCP port or a unix socket, and
* :mod:`repro.serve.client` — :class:`ServeClient`, the thin stdlib client the
  tests, the benchmark and the CI smoke step drive the daemon with.

Start one with ``python -m repro serve --port 8400 --case chain3`` and point
``curl`` at it — see the README's "Serve" section for a full tour.
"""

from .client import ServeClient, ServeError
from .codec import AttachRequest, DesignSpec, EditRequest, ValidationError
from .registry import AttachedDesign, DesignRegistry, UnknownDesignError
from .server import TimingServer

__all__ = [
    "AttachRequest",
    "AttachedDesign",
    "DesignRegistry",
    "DesignSpec",
    "EditRequest",
    "ServeClient",
    "ServeError",
    "TimingServer",
    "UnknownDesignError",
    "ValidationError",
]
