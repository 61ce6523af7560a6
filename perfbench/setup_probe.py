"""Set-up probe: make one workload ready in a fresh interpreter.

``run.py`` starts this script and times it until it prints ``ready``:
that covers interpreter start, imports, input generation from the seed
and, for ``service_sweep``, the pool spawn plus a warm-up job on each
worker. Teardown happens after ``ready`` and is not timed.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    workload.setup()
    try:
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
