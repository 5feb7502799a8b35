"""Peak memory of this process, read so that a child never reports its parent's.

``getrusage(RUSAGE_SELF).ru_maxrss`` is inherited across ``fork`` and kept
across ``exec`` on Linux, so a small child of a large parent reports the
parent's peak.  ``VmHWM`` in ``/proc/self/status`` is the peak resident set of
this address space only, so it is read first; ``ru_maxrss`` is the fallback on
systems without ``/proc``.

Run as a script, this prints the process's own peak in bytes (the child side of
:func:`check_child_below_parent`).  ``python3 perfbench/memory.py --selftest``
grows this process to ~256 MB and checks that a fresh child reports less.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from pathlib import Path


def peak_rss_bytes() -> int:
    """Peak resident set size of this process [bytes]: VmHWM, else ru_maxrss."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss if sys.platform == "darwin" else maxrss * 1024


def check_child_below_parent() -> bool:
    """True when a freshly started child reports a smaller peak than this process."""
    child = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                           capture_output=True, text=True, timeout=60, check=True)
    return int(child.stdout.strip()) < peak_rss_bytes()


def _selftest() -> int:
    ballast = bytearray(256 * 1024 * 1024)
    for offset in range(0, len(ballast), 4096):
        ballast[offset] = 1  # touch every page so it is resident
    ok = check_child_below_parent()
    print(f"parent peak {peak_rss_bytes() / 2**20:.0f} MB; child below parent: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(_selftest())
    print(peak_rss_bytes())
