"""Time one set-up of a workload in a fresh process and print the seconds.

    python3 perfbench/setup_probe.py obstruct 1,2,3,4,5,6
    python3 perfbench/setup_probe.py verify 7

Set-up is importing circlelab (numpy and scipy with it) and building each
block count's delta sequence, tent placement, u and v; for ``obstruct``
also the exact pairing lower bounds over the n-grid.  The clock starts
before the first import.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from circlelab import pairing_report  # noqa: E402

import reference  # noqa: E402


def main(kind: str, blocks: str) -> None:
    for j in (int(b) for b in blocks.split(",")):
        system, u, v, n_grid = reference.build_system(j)
        if kind == "obstruct":
            for n in n_grid:
                pairing_report(system, n, u=u, v=v)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(*sys.argv[1:3])
