"""Process-measurement helpers: a child never reports its parent's peak RSS."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.perf import peak_rss_bytes

#: Prints the peak RSS the child process measures for itself.
CHILD = "from repro.perf import peak_rss_bytes; print(peak_rss_bytes())"


def test_child_of_a_large_parent_reports_its_own_smaller_peak():
    ballast = bytearray(200 * 1024 * 1024)
    for offset in range(0, len(ballast), 4096):
        ballast[offset] = 1  # touch every page so it is resident
    parent = peak_rss_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    del ballast
    assert parent >= 200 * 1024 * 1024
    assert int(child.stdout) < parent


#: The benchmark harness, whose tracer wraps program functions by name.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_tracer_wraps_and_restores_every_name(monkeypatch):
    # A rename or deletion in src/ that breaks `perfbench/run.py --trace 1`
    # fails here: install() looks every wrapped name up on its owner.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        originals = list(tracer._patched)
        assert len(originals) == 26
        for owner, attr, raw in originals:
            assert vars(owner)[attr] is not raw
    finally:
        tracer.uninstall()
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw
