"""Run one benchmark workload: ``python3 perfbench/run.py --workload figure1 --seed 7
--seconds 30 --trace 0``.

Prints one ``metric`` line per figure, one ``check`` line per output check and,
last, the JSON result line.  Exits 1 when a check or an operation fails and 2
when the checkout holds no ``src/maskrec``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root))
    # pinned before numpy loads BLAS; recorded in every result file
    from perfbench import pin_blas_threads

    pin_blas_threads()
    from perfbench.bench import main

    sys.exit(main())
