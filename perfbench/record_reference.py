"""Re-record ``reference.json``: output digests the benchmark checks against.

For each seed, the SHA-256 of every ``paper_adapt`` scenario summary and
of the ``large_grid`` summary, in the byte form ``workloads.summary_text``
gives. Re-record only in a change that means to alter simulated output,
and say so in that change::

    python3 perfbench/record_reference.py --seeds 10 [paper_adapt] [large_grid]
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="record seeds 0 .. N-1 (default 10)")
    parser.add_argument("workloads", nargs="*",
                        choices=("paper_adapt", "large_grid"),
                        help="workloads to re-record (default both)")
    args = parser.parse_args()

    from workloads import REFERENCE_FILE, WORKLOADS, digest, load_reference

    names = args.workloads or ["paper_adapt", "large_grid"]
    reference = load_reference() if REFERENCE_FILE.exists() else {}
    for name in names:
        reference[name] = {}
    for seed in range(args.seeds):
        for workload in (WORKLOADS[name](seed) for name in names):
            result = workload.run_pass()
            for op in result.ops:
                if not op.ok:
                    raise SystemExit(f"{workload.name} seed {seed}: {op.error}")
            reference[workload.name][str(seed)] = {
                op.label: digest(op.summary) for op in result.ops
            }
        print(f"seed {seed} recorded", flush=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
