"""Time one workload's set-up in a fresh interpreter.

Set-up runs from importing ``repro`` (through the benchmark's workload
module) to the workload's stack being ready for its first pair.  Prints
the seconds it took.  Usage: ``python3 setup_probe.py WORKLOAD SEED``.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].build(seed)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
