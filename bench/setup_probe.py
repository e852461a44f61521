"""Set-up probe: import ranktopo and build one workload's inputs, then exit.

    python3 bench/setup_probe.py <workload> <seed>

``run.py`` times this process from spawn to exit as ``setup_s``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    modules = workloads.load_ranktopo(HERE.parent)
    workloads.WORKLOADS[name](modules, seed)
