"""Rewrite the per-task golden reports under tests/golden/<task>/.

    python tests/golden/regenerate.py

For each task this writes the bundle (`write_bundle` of a seeded
`tests/datagen.py` generator, or of `synth_treatment_data` with its
`truth.csv`), `config.json` and `expected_report.txt`: the
timing-stripped report of one `run_benchmark` call. For the tasks in
FITTED it also writes `fitted.json`: the `save_fitted` blob of the
pipeline fitted on the whole bundle, which pins fitted weights that a
thresholded metric cannot see. Run it only when a bundle or report is
meant to change, and say why with the change. The forecast golden
directly under tests/golden/ is kept by hand and not rewritten here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

from datagen import (  # noqa: E402
    offset_grid_dataset,
    patient_dataset,
)
from tempoframe.bench import (  # noqa: E402
    load_config,
    report_text,
    run_benchmark,
    strip_timing,
    write_truth,
)
from tempoframe.bundle import read_bundle, write_bundle  # noqa: E402
from tempoframe.plugins import save_fitted  # noqa: E402
from tempoframe.treatment import (  # noqa: E402
    SynthGroundTruth,
    synth_treatment_data,
)

_FRONT = [{"plugin": "impute.locf"}, {"plugin": "impute.mean"},
          {"plugin": "scale.zscore"}]

# task -> (dataset or SynthGroundTruth, config without its "bundle" key)
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
    "treatment": (lambda: synth_treatment_data(60, 8, gamma=(1.0, -0.5),
                                               noise=0.5), {
        "task": "treatment",
        "truth": "truth.csv",
        "pipeline": [{"plugin": "treatment.t_learner"}],
        "metrics": ["pehe"],
        "cv": {"folds": 3, "seed": 11},
    }),
}

# Tasks whose fitted blob is pinned beside the report.
FITTED = ("classify",)


def regenerate(task: str) -> None:
    make, doc = GOLDENS[task]
    out = os.path.join(HERE, task)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    made = make()
    if isinstance(made, SynthGroundTruth):
        write_truth(os.path.join(out, "truth.csv"), made.dataset.sample_ids,
                    made.effects)
        made = made.dataset
    write_bundle(made, os.path.join(out, "bundle"))
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8",
              newline="\n") as f:
        json.dump({"bundle": "bundle", **doc}, f, indent=2)
        f.write("\n")
    config = load_config(os.path.join(out, "config.json"))
    with open(os.path.join(out, "expected_report.txt"), "w",
              encoding="utf-8", newline="\n") as f:
        f.write(strip_timing(report_text(run_benchmark(config))))
    if task in FITTED:
        with open(os.path.join(out, "fitted.json"), "wb") as f:
            f.write(fitted_blob(config))


def fitted_blob(config) -> bytes:
    """The `save_fitted` bytes of the config's pipeline fitted on its
    whole bundle."""
    return save_fitted(config.estimator.fit(read_bundle(config.bundle)))


if __name__ == "__main__":
    for name in GOLDENS:
        regenerate(name)
        print(f"wrote {os.path.join(HERE, name)}")
