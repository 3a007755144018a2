"""Benchmark of the `tempoframe run` path: one workload, one seed, one run.

    python3 perfbench/run.py --workload survival-cox --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
The run builds its inputs from the seed, measures set-up time in fresh
processes, then starts one worker process (single-threaded) that runs
ops for `--seconds` seconds. Every op's report goes through the
correctness gate. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer split from a traced run. The last line of standard output
is one JSON object; the lines before it are a readable table and the
environment. Scratch files go to `.perfbench-work/` in the checkout.

The host this runs on is shared and its speed swings by up to 1.7x in
phases of seconds to minutes, so every timed span (an op, a set-up
probe) is bracketed by runs of a fixed reference workload and reported
scaled to a fixed reference speed (see calibrate.py), so the time
metrics read as seconds at that speed. The raw wall times are printed
beside them and kept in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# Inputs depend on the seed modulo this, so every seed has recorded
# reference values (see record_references.py).
INPUT_VARIANTS = 32
# Set-up is measured this many times in fresh processes, after one
# unmeasured probe that fills the file cache, each scaled by the
# reference imports that bracket it; the median is reported.
SETUP_PROBES = 9
# The whole run must end within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "op_s_p50": "s", "op_s_tail": "s", "samples_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(seconds: list) -> tuple:
    """(value, percentile, ops beyond it): the highest percentile with at
    least ten ops beyond it, but never below the upper median, which it
    falls to when there are too few ops."""
    ordered = sorted(seconds)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _probe_setup(timeout: float) -> float:
    out = subprocess.run([sys.executable, WORKER, "--probe"], check=True,
                         capture_output=True, text=True, timeout=timeout,
                         cwd=ROOT)
    return float(out.stdout.strip())


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tempoframe", "__init__.py")):
        return _fail(f"no tempoframe source under {SRC}; run from the root "
                     "of a tempoframe checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import calibrate
    import gate
    import layers
    import workloads

    declared_units = END_TO_END_UNITS if not args.trace else layers.units()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        return _fail(f"cannot read the metric list in BENCHMARK.json: {e!r}")
    if {m["name"]: m["unit"] for m in declared} != declared_units:
        return _fail("BENCHMARK.json and perfbench disagree on the metrics")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    input_seed = args.seed % INPUT_VARIANTS
    try:
        references = gate.load_references()[args.workload][str(input_seed)]
    except (OSError, KeyError, ValueError) as e:
        return _fail(f"no reference values for {args.workload} input seed "
                     f"{input_seed}: {e!r}")

    work = os.path.join(ROOT, ".perfbench-work",
                        f"{args.workload}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload.build(work, input_seed)

    try:
        _probe_setup(60.0)
        reference_imports = [calibrate.reference_import(60.0)]
        setups, setups_raw = [], []
        for _ in range(SETUP_PROBES):
            setups_raw.append(_probe_setup(60.0))
            reference_imports.append(calibrate.reference_import(60.0))
            setups.append(calibrate.scale(
                setups_raw[-1], reference_imports[-2], reference_imports[-1],
                calibrate.REFERENCE_IMPORT_S))
        remaining = DEADLINE_S - (time.monotonic() - started)
        subprocess.run(
            [sys.executable, WORKER, "--workload", args.workload,
             "--input-seed", str(input_seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", work],
            check=True, timeout=remaining, cwd=ROOT)
    except (subprocess.SubprocessError, ValueError) as e:
        return _fail(f"worker failed: {e}")
    with open(os.path.join(work, "worker.json"), encoding="utf-8") as f:
        result = json.load(f)
    ops = result["ops"]

    verdicts = gate.check_ops(ops, references)
    failed = sum(1 for v in verdicts if v is not None)
    for i, v in enumerate(verdicts):
        if v is not None:
            print(f"perfbench: op {i} failed: {v}", file=sys.stderr)

    untraced = [op["scaled"] for op in ops if not op["traced"]]
    raw_p50 = statistics.median(op["seconds"] for op in ops
                                if not op["traced"])
    p50 = statistics.median(untraced)
    tail_s, tail_pct, beyond = tail(untraced)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_backend": result["backend"],
        "TEMPOFRAME_KERNELS": os.environ.get("TEMPOFRAME_KERNELS", "unset"),
        "commit": git_commit(ROOT),
        "load": "one worker process, single-threaded, closed loop",
        "host_speed": calibrate.REFERENCE_S / statistics.median(
            result["reference_runs_s"]),
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "input_seed": input_seed, "size": workload.size,
        "samples": workload.samples, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": setups,
        "setup_raw_s": setups_raw, "worker_setup_raw_s": result["setup_s"],
        "setup_reference_imports_s": reference_imports,
        "op_seconds": [op["scaled"] for op in ops],
        "op_raw_seconds": [op["seconds"] for op in ops],
        "op_reference_runs_s": result["reference_runs_s"],
        "op_traced": [op["traced"] for op in ops],
        "op_failures": verdicts,
        "tail": {"percentile": tail_pct, "ops_beyond": beyond,
                 "ops": len(untraced)},
        "missing_wrappers": result["missing_wrappers"],
        "counter_errors": result["counter_errors"],
    }
    correct = failed == 0

    if args.trace:
        traced = [op["scaled"] for op in ops if op["traced"]]
        overhead = statistics.median(traced) / p50
        metrics, faults, counts = layers.per_layer(result["spans"], ops,
                                                   overhead)
        for fault in faults:
            print(f"perfbench: trace fault: {fault}", file=sys.stderr)
        correct = correct and not faults
        detail["counts_by_slot"] = counts
        detail["trace_faults"] = faults
        notes = {}
    else:
        metrics = {
            "op_s_p50": p50,
            "op_s_tail": tail_s,
            "samples_per_s": workload.samples / p50,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
        notes = {
            "op_s_p50": f"median of {len(untraced)} ops; raw "
                        f"{raw_p50:.4g} s",
            "op_s_tail": f"p{tail_pct:.0f}, {beyond} of {len(untraced)} "
                         "ops beyond",
            "samples_per_s": f"{workload.samples} samples / op_s_p50",
            "setup_s": f"median of {len(setups_raw)} imports; raw "
                       f"{statistics.median(setups_raw):.4g} s",
            "peak_rss_mb": "worker process",
            "ok_ratio": "passed / attempted ops",
        }
    if result["missing_wrappers"]:
        print("perfbench: trace targets missing: "
              f"{result['missing_wrappers']}", file=sys.stderr)
    for error in result["counter_errors"]:
        print(f"perfbench: counter failed: {error}", file=sys.stderr)
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in declared_units.items()}
    detail["metrics"] = out
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)

    print(f"workload {args.workload} seed {args.seed} (input seed "
          f"{input_seed}): {workload.size}")
    print("env " + json.dumps(env))
    for name, m in out.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<13} "
              f"{notes.get(name, '')}")
    # error_rate is 0 when all is well, so the gated metric is ok_ratio.
    print(f"  {'error_rate':<34} {failed / len(ops):>16.6g} {'ratio':<13} "
          f"{failed} of {len(ops)} ops failed")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
