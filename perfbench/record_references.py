"""Record the reference values the correctness gate compares reports to.

    python3 perfbench/record_references.py [--workload NAME]

For every workload, input seed (0 .. INPUT_VARIANTS-1) and config slot it
runs one op and stores the report's fold-level values in
`perfbench/references.json`. A report that is not finite or misses a
sanity floor is refused, so a broken fit cannot become a reference.
Re-record only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402
from run import INPUT_VARIANTS  # noqa: E402
from tempoframe.cli import cli  # noqa: E402


def record(name: str, input_seed: int) -> list:
    work = os.path.join(ROOT, ".perfbench-work", "references",
                        f"{name}-{input_seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workloads.WORKLOADS[name].build(work, input_seed)
    out = []
    for slot in range(len(workloads.CV_SEEDS)):
        for argv in workloads.op_argvs(name, work, input_seed, slot):
            if cli(argv) != 0:
                raise SystemExit(f"{name} seed {input_seed} slot {slot}: "
                                 f"{argv[0]} failed")
        with open(workloads.report_path(work, slot), encoding="utf-8") as f:
            doc = json.load(f)
        problems = gate.sanity_failures(doc)
        if problems:
            raise SystemExit(f"{name} seed {input_seed} slot {slot}: "
                             f"{problems}")
        out.append(gate.report_values(doc))
    shutil.rmtree(work)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        refs = gate.load_references()
    except OSError:
        refs = {}
    for name in names:
        refs[name] = {str(s): record(name, s) for s in range(INPUT_VARIANTS)}
        print(f"{name}: {INPUT_VARIANTS} input seeds recorded")
    # One line per (workload, input seed): the three slots' values.
    lines = []
    for name in sorted(refs):
        seeds = sorted(refs[name], key=int)
        body = ",\n".join(f"  {json.dumps(s)}: {json.dumps(refs[name][s])}"
                          for s in seeds)
        lines.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    with open(gate.REFERENCES, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
