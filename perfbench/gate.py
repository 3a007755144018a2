"""Correctness gate applied to every op's report after timing stops.

An op passes when its CLI calls exit 0 and its report
- holds only finite metric and importance values,
- clears the sanity floor of each metric,
- matches the recorded reference values for its (workload, input seed,
  config slot) within 1e-9 relative, and
- has the same `strip_timing` text as every other op of the run with the
  same config slot.

The floors exist because a diverged fit can still score without raising:
a Cox fit with too large a step gives a c-index of 0.0.
"""

from __future__ import annotations

import json
import math
import os

from tempoframe.bench import strip_timing

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
RELATIVE_TOLERANCE = 1e-9

# metric -> (direction, limit) on the cross-validated mean.
FLOORS = {
    "c_index": ("min", 0.65),
    "accuracy": ("min", 0.80),
    "rmse": ("max", 0.10),
    "pehe": ("max", 0.20),
    "brier@5": ("max", 0.25),
}


def report_values(doc: dict) -> list:
    """The fold-level numbers of a report, in report order: per metric
    its fold values, then the importance baselines and per-fold
    importances."""
    out = []
    for entry in doc["metrics"].values():
        out.extend(entry["folds"])
    imp = doc.get("importance")
    if imp is not None:
        out.extend(imp["baselines"])
        for fold in imp["folds"]:
            out.extend(fold)
    return out


def _numbers(v):
    if isinstance(v, dict):
        for x in v.values():
            yield from _numbers(x)
    elif isinstance(v, list):
        for x in v:
            yield from _numbers(x)
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        yield float(v)


def sanity_failures(doc: dict) -> list:
    """Non-finite metric or importance values, and missed sanity floors."""
    scored = {k: doc.get(k) for k in ("metrics", "importance")}
    if not all(math.isfinite(x) for x in _numbers(scored)):
        return ["non-finite metric or importance value"]
    out = []
    for name, entry in doc["metrics"].items():
        direction, limit = FLOORS[name]
        mean = entry["mean"]
        if (mean < limit) if direction == "min" else (mean > limit):
            out.append(f"{name} mean {mean!r} beyond sanity floor {limit}")
    return out


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def check_report(text, reference):
    """The first failure of one report, or None when it passes;
    `reference` is the list of expected `report_values`."""
    if text is None:
        return "no report was written"
    try:
        doc = json.loads(text)
    except ValueError as e:
        return f"report is not JSON: {e}"
    failures = sanity_failures(doc)
    if failures:
        return failures[0]
    values = report_values(doc)
    if len(values) != len(reference):
        return f"{len(values)} values, reference has {len(reference)}"
    for j, (got, want) in enumerate(zip(values, reference)):
        if not math.isclose(got, want, rel_tol=RELATIVE_TOLERANCE,
                            abs_tol=1e-15):
            return f"value {j}: {got!r} != reference {want!r}"
    return None


def check_ops(ops: list, references: list) -> list:
    """One entry per op: None if it passed, else the first reason."""
    stripped = {}
    verdicts = []
    for op in ops:
        if op["error"] is not None:
            verdict = op["error"]
        elif any(code != 0 for code in op["codes"]):
            verdict = f"exit codes {op['codes']}"
        else:
            verdict = check_report(op["report"], references[op["slot"]])
        if verdict is None:
            text = strip_timing(op["report"])
            if stripped.setdefault(op["slot"], text) != text:
                verdict = ("report differs from an earlier op with the "
                           "same config")
        verdicts.append(verdict)
    return verdicts
