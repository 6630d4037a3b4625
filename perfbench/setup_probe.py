"""One cold set-up in a fresh process: import maskrec and build one pipeline.

Usage: ``python3 perfbench/setup_probe.py '<Scenario fields as JSON>'``; prints
the seconds taken.  The benchmark runs several and reports their median as
``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    fields = json.loads(sys.argv[1])
    fields["r_list"] = tuple(fields["r_list"])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    started = time.perf_counter()
    from maskrec import harness

    harness.build_pipeline(harness.Scenario(**fields))
    print(time.perf_counter() - started)
