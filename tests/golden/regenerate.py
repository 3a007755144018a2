"""Rewrite the per-task golden reports under tests/golden/<task>/.

    python tests/golden/regenerate.py

For each task this writes the bundle (from a seeded `tests/datagen.py`
generator), `config.json` and `expected_report.txt`: the timing-stripped
report of one `run_benchmark` call. Run it only when a report is meant to
change, and say why with the change. The forecast golden directly under
tests/golden/ is kept by hand and not rewritten here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

from datagen import offset_grid_dataset, patient_dataset  # noqa: E402
from tempoframe.bench import (  # noqa: E402
    load_config,
    report_text,
    run_benchmark,
    strip_timing,
)
from tempoframe.bundle import write_bundle  # noqa: E402

_FRONT = [{"plugin": "impute.locf"}, {"plugin": "impute.mean"},
          {"plugin": "scale.zscore"}]

# task -> (dataset, config without its "bundle" key)
GOLDENS = {
    "survival": (lambda: patient_dataset(3, n=48, outcome="survival"), {
        "task": "survival",
        "pipeline": _FRONT + [{"plugin": "survival.cox", "params": {
            "iters": 100, "step_size": 0.01}}],
        "metrics": ["c_index", "brier@4"],
        "cv": {"folds": 3, "seed": 11},
        "importance": {"metric": "c_index", "repeats": 1, "seed": 5},
    }),
    "classify": (lambda: patient_dataset(4, n=48, outcome="classify"), {
        "task": "classify",
        "pipeline": _FRONT + [{"plugin": "classify.logistic", "params": {
            "lr": 0.5, "iters": 100}}],
        "metrics": ["accuracy"],
        "cv": {"folds": 3, "seed": 23},
        "importance": {"metric": "accuracy", "repeats": 3, "seed": 5},
    }),
    "forecast": (lambda: offset_grid_dataset(6, n=24, drop=0.2,
                                             keep_last=4), {
        "task": "forecast",
        "pipeline": [{"plugin": "resample.regular", "params": {"step": 0.1}},
                     {"plugin": "forecast.ar", "params": {
                         "order": 2, "horizon": 3, "step": 0.1}}],
        "metrics": ["rmse"],
        "cv": {"folds": 3, "seed": 37},
    }),
}


def regenerate(task: str) -> None:
    make, doc = GOLDENS[task]
    out = os.path.join(HERE, task)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    write_bundle(make(), os.path.join(out, "bundle"))
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8",
              newline="\n") as f:
        json.dump({"bundle": "bundle", **doc}, f, indent=2)
        f.write("\n")
    report = report_text(run_benchmark(
        load_config(os.path.join(out, "config.json"))))
    with open(os.path.join(out, "expected_report.txt"), "w",
              encoding="utf-8", newline="\n") as f:
        f.write(strip_timing(report))


if __name__ == "__main__":
    for name in GOLDENS:
        regenerate(name)
        print(f"wrote {os.path.join(HERE, name)}")
