"""Record the reference outputs that the benchmark's checks compare against.

Usage: ``python3 perfbench/record_reference.py [workload ...]`` (default: all).
Run it on the commit whose outputs define the reference; it writes
``perfbench/reference/<workload>.json`` at the default workload seed.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import pin_blas_threads

    pin_blas_threads()
    from perfbench.bench import import_program, write_reference
    from perfbench.workloads import WORKLOADS

    import_program()
    for name in sys.argv[1:] or sorted(WORKLOADS):
        print(write_reference(WORKLOADS[name]))
