"""Check that the traced run's counters repeat exactly.

    python3 perfbench/check_trace.py [--workload NAME] [--seed N]

Runs the traced benchmark twice on the same seed and compares the
per-slot counts (calls, rows, work, cells, curves) of the two runs; they
come from call arguments and results, so any difference is a fault in
the recorder or a nondeterminism in the program. Every traced run also
checks on its own that each op's self times add up to its duration.
Exits 1 on a mismatch or a trace fault.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=ROOT)
    if not json.loads(out.stdout.strip().splitlines()[-1])["correct"]:
        raise SystemExit(f"{workload}: traced run failed:\n{out.stderr}")
    path = os.path.join(ROOT, ".perfbench-work", f"{workload}-t1",
                        "result.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)["counts_by_slot"]


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    status = 0
    for name in args.workload or list(workloads.WORKLOADS):
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        if first != second:
            print(f"{name}: counts differ between two traced runs:\n"
                  f"  {first}\n  {second}")
            status = 1
        else:
            slots = len(first)
            print(f"{name}: counts identical across two runs "
                  f"({slots} slots, {len(first[next(iter(first))])} counters)")
    return status


if __name__ == "__main__":
    sys.exit(main())
