"""The process that runs the timed ops of one benchmark run.

It starts after the inputs exist, so its peak memory and its set-up time
belong to the program: set-up is the import of the CLI module (plugin
registration and kernel backend selection). `--probe` measures only that
import and exits.

Each op is an in-process `tempoframe.cli.cli(...)` call that writes its
report to a file; the report text is read back after the op's timer
stops. A run of the reference workload (`calibrate.py`) precedes every
op and follows the last, and each op's time is also given scaled by the
two runs that bracket it. With `--trace 1`, blocks of untraced and
traced ops alternate (one op per config slot in each block), so a
traced run also measures the tracing overhead.

`run.py` starts this process; the result goes to `<work>/worker.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)


def _run_op(cli, argvs: list) -> list:
    """Exit codes of the op's CLI calls; stops at the first failure."""
    codes = []
    for argv in argvs:
        codes.append(cli(argv))
        if codes[-1] != 0:
            break
    return codes


def _read(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--input-seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--work")
    args = p.parse_args(argv)

    start = time.perf_counter()
    from tempoframe.cli import cli
    setup_s = time.perf_counter() - start
    if args.probe:
        print(repr(setup_s))
        return 0

    import calibrate
    import workloads
    from spans import Recorder, has_ancestor
    from tempoframe.kernels import backend_name

    k = len(workloads.CV_SEEDS)
    min_ops = 2 * k if args.trace else k
    rec = Recorder()
    ops = []
    start = time.perf_counter()
    references = [calibrate.reference_run()]
    i = 0
    while i < min_ops or time.perf_counter() - start < args.seconds:
        slot = i % k
        traced = bool(args.trace) and (i // k) % 2 == 1
        argvs = workloads.op_argvs(args.workload, args.work, args.input_seed,
                                   slot)
        report = workloads.report_path(args.work, slot)
        if os.path.exists(report):
            os.remove(report)  # a failed op must not leave an old report
        codes, counts, error = [], None, None
        if traced:
            first = len(rec.spans)
            rec.install()
            try:
                codes, counts = rec.run_op(i, lambda: _run_op(cli, argvs))
            except Exception as e:  # an op that raises counts as failed
                error = f"{type(e).__name__}: {e}"
            finally:
                rec.uninstall()
            seconds = rec.spans[first].end - rec.spans[first].start
            if counts is not None:
                counts["interpret.predict_calls"] = sum(
                    1 for j in range(first, len(rec.spans))
                    if rec.spans[j].name == "plugins.pipeline_predict"
                    and has_ancestor(rec.spans, j,
                                     "interpret.permutation_importance"))
        else:
            t0 = time.perf_counter()
            try:
                codes = _run_op(cli, argvs)
            except Exception as e:  # an op that raises counts as failed
                error = f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
        ops.append({"slot": slot, "seconds": seconds, "traced": traced,
                    "codes": codes, "error": error, "counts": counts,
                    "report": _read(report)})
        references.append(calibrate.reference_run())
        ops[-1]["scaled"] = calibrate.scale(seconds, references[-2],
                                            references[-1],
                                            calibrate.REFERENCE_S)
        i += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {"setup_s": setup_s, "peak_rss_kb": peak_rss_kb,
           "backend": backend_name(), "ops": ops,
           "reference_runs_s": references,
           "missing_wrappers": rec.missing,
           "counter_errors": sorted(rec.counter_errors),
           "spans": [[s.name, s.start, s.end, s.parent, s.op]
                     for s in rec.spans]}
    with open(os.path.join(args.work, "worker.json"), "w",
              encoding="utf-8") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
