"""Per-layer metrics from the spans and counters of a traced run.

Layers are the modules under `src/tempoframe`. A `_s` metric is self
seconds per traced op (span duration minus its children's), except
`interpret.importance_s`, which is the inclusive time; like the op
times, they are scaled to the reference speed by the op's bracketing
reference runs (calibrate.py). Counts are per op:
each config slot's counts come from its first traced op, and the metric
is their mean over slots, so a count repeats exactly from run to run.
"""

from __future__ import annotations

from spans import Span, self_times

# metric -> span names whose self time it sums. Every span name lands in
# exactly one entry, so the self metrics add up to the traced op time.
SELF_SECONDS = {
    "kernels.cox_gd_s": ["kernels.cox_gd"],
    "kernels.logistic_gd_s": ["kernels.logistic_gd"],
    "kernels.ridge_normal_solve_s": ["kernels.ridge_normal_solve"],
    "kernels.concordance_counts_s": ["kernels.concordance_counts"],
    "survival.fit_self_s": ["survival.fit"],
    "survival.predict_self_s": ["survival.predict"],
    "preprocess.fit_s": ["preprocess.fit"],
    "preprocess.transform_s": ["preprocess.transform"],
    "data.covariate_matrix_s": ["data.covariate_matrix"],
    "interpret.importance_self_s": ["interpret.permutation_importance"],
    "plugins.fingerprint_s": ["plugins.fingerprint_of"],
    "plugins.pipeline_self_s": ["plugins.pipeline_fit",
                                "plugins.pipeline_predict"],
    "bundle.read_s": ["bundle.read_bundle"],
    "bundle.write_s": ["bundle.write_bundle"],
    "treatment.synth_s": ["treatment.synth_treatment_data"],
    "treatment.fit_self_s": ["treatment.fit"],
    "treatment.predict_self_s": ["treatment.predict"],
    "forecasting.fit_self_s": ["forecasting.fit"],
    "forecasting.predict_self_s": ["forecasting.predict"],
    "metrics.score_self_s": ["metrics.rmse", "metrics.accuracy",
                             "metrics.concordance_index",
                             "metrics.brier_score", "metrics.pehe"],
    "bench.load_config_s": ["bench.load_config"],
    "bench.kfold_split_s": ["bench.kfold_split"],
    "bench.report_s": ["bench.report_text"],
    "bench.self_s": ["bench.run_benchmark"],
    "cli.self_s": ["op"],
}
TOTAL_SECONDS = {
    "interpret.importance_s": ["interpret.permutation_importance"],
}
# metric -> unit
COUNTS = {
    "kernels.cox_gd_calls": "calls/op",
    "kernels.cox_gd_work": "row-iters/op",
    "kernels.logistic_gd_calls": "calls/op",
    "kernels.logistic_gd_work": "row-iters/op",
    "kernels.ridge_normal_solve_calls": "calls/op",
    "kernels.ridge_normal_solve_work": "row-cols2/op",
    "kernels.concordance_counts_calls": "calls/op",
    "kernels.concordance_counts_work": "pairs/op",
    "survival.curves_built": "curves/op",
    "preprocess.transform_calls": "calls/op",
    "data.covariate_matrix_calls": "calls/op",
    "data.covariate_matrix_cells": "cells/op",
    "interpret.predict_calls": "calls/op",
    "plugins.fingerprint_calls": "calls/op",
    "bundle.read_rows": "rows/op",
    "bundle.write_rows": "rows/op",
}
RATIOS = {"survival.curve_use_ratio": "ratio", "trace.overhead_ratio": "ratio"}


def units() -> dict:
    out = {name: "s/op" for name in SELF_SECONDS}
    out.update({name: "s/op" for name in TOTAL_SECONDS})
    out.update(COUNTS)
    out.update(RATIOS)
    return out


def check_spans(spans: list, selfs: list) -> list:
    """Span-tree faults: a child outside its parent's interval, or an op
    whose self times do not add up to its duration."""
    faults = []
    by_op: dict = {}
    for idx, s in enumerate(spans):
        if s.end < s.start:
            faults.append(f"span {idx} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end or p.op != s.op:
                faults.append(f"span {idx} {s.name} lies outside its parent")
        by_op.setdefault(s.op, []).append(idx)
    for op, members in by_op.items():
        roots = [i for i in members if spans[i].parent < 0]
        if len(roots) != 1:
            faults.append(f"op {op} has {len(roots)} root spans")
            continue
        duration = spans[roots[0]].end - spans[roots[0]].start
        total = sum(selfs[i] for i in members)
        if abs(total - duration) > 1e-9 * duration + 1e-12:
            faults.append(f"op {op}: self times sum to {total!r}, "
                          f"duration is {duration!r}")
    return faults


def per_layer(raw_spans: list, ops: list, overhead_ratio: float) -> tuple:
    """(metrics, faults, counts_by_slot) for a traced run; metrics maps
    name -> value."""
    spans = [Span(*s) for s in raw_spans]
    selfs = self_times(spans)
    faults = check_spans(spans, selfs)
    traced = [op for op in ops if op["traced"]]
    n = len(traced)
    self_by_name: dict = {}
    total_by_name: dict = {}
    for s, self_s in zip(spans, selfs):
        speed = ops[s.op]["scaled"] / ops[s.op]["seconds"]
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + self_s * speed
        total_by_name[s.name] = (total_by_name.get(s.name, 0.0)
                                 + (s.end - s.start) * speed)
    known = {x for names in SELF_SECONDS.values() for x in names}
    faults.extend(f"span {name} maps to no layer metric"
                  for name in sorted(set(self_by_name) - known))
    metrics = {}
    for metric, names in SELF_SECONDS.items():
        metrics[metric] = sum(self_by_name.get(x, 0.0) for x in names) / n
    for metric, names in TOTAL_SECONDS.items():
        metrics[metric] = sum(total_by_name.get(x, 0.0) for x in names) / n

    per_slot: dict = {}
    for op in traced:
        if op["counts"] is not None:
            per_slot.setdefault(op["slot"], op["counts"])
    slots = sorted(per_slot)
    if not slots:
        faults.append("no traced op succeeded")
    for metric in list(COUNTS) + ["survival.curves_read"]:
        metrics[metric] = sum(per_slot[s].get(metric, 0)
                              for s in slots) / max(len(slots), 1)
    curves_read = metrics.pop("survival.curves_read")
    built = metrics["survival.curves_built"]
    metrics["survival.curve_use_ratio"] = curves_read / built if built else 0.0
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics, faults, {str(s): per_slot[s] for s in slots}
