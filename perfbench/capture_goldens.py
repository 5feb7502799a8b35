"""Re-capture ``goldens.json``: the results every benchmark op is checked against.

    python3 perfbench/capture_goldens.py

Run from the root of a source checkout.  Only re-capture when a change is meant
to alter timing results, and say so in the change: the goldens are what lets
the benchmark tell a faster timer from a different one.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# Characterization-cache reads and writes stay inside the checkout.
os.environ["REPRO_CACHE_DIR"] = str(HERE / "out" / "cache")

from repro.api import TimingSession  # noqa: E402
from repro.serve.codec import AttachRequest  # noqa: E402
from repro.serve.registry import DesignRegistry  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    graph = workloads.build_soc(workloads.COLD_NETS)
    session = TimingSession()
    try:
        soc100k = workloads.fingerprint_compiled(session.time(graph))
    finally:
        session.close()
    registry = DesignRegistry()
    try:
        design = registry.attach(AttachRequest(
            name=workloads.SERVE_DESIGN, case="soc", nets=workloads.SERVE_NETS,
            clock_ps=workloads.CLOCK_PS, hold_margin_ps=0.0))
        soc1k = workloads.fingerprint_object(design.snapshot.report)
    finally:
        registry.close()
    workloads.GOLDENS.write_text(
        json.dumps({"soc100k": soc100k, "soc1k": soc1k}, indent=1) + "\n")
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
