"""Small, dependency-free process-measurement helpers.

One fact lives here so every consumer agrees on it: how to read this process's
peak resident set.  :func:`peak_rss_bytes` is what the scale benchmark's
bytes-per-net ceiling and :class:`repro.api.report.RunInfo`'s
``peak_rss_bytes`` field share, instead of re-deriving the platform rules.

On Linux it reads ``VmHWM`` from ``/proc/self/status``: the high-water mark of
this address space alone.  ``getrusage(RUSAGE_SELF).ru_maxrss`` is only the
fallback, because Linux carries it across ``fork`` and keeps it across
``exec`` — a small child of a large parent would report the parent's peak.
``ru_maxrss`` is in *kilobytes* on Linux but in *bytes* on macOS, and the
``resource`` module does not exist on Windows.

Peak RSS is a process-lifetime high-water mark: it only ever grows, so a
measurement inside a long-lived process (a test runner, a session) reflects
everything that ran before it.  Callers that need the footprint of one
workload should measure a baseline first and report the delta — or, like the
scale benchmark, run the workload in a fresh subprocess.
"""

from __future__ import annotations

import sys
from typing import Optional

__all__ = ["peak_rss_bytes"]


def peak_rss_bytes() -> Optional[int]:
    """The process's peak resident-set size in bytes, or None when unknown.

    ``VmHWM`` from ``/proc/self/status`` where it exists, else
    ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` with the platform-correct
    unit.  Returns None on platforms with neither (Windows) instead of raising.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return int(peak)
    return int(peak) * 1024
