"""Seeded workload inputs for the benchmark, built from the public API only.

Each workload writes its bundle and one `tempoframe run` config per
cross-validation seed into a work directory. An op runs one of those
configs through the CLI; ops cycle through the configs in order, so the
bundle is shared across ops (as in a hyper-parameter sweep) while no two
consecutive ops compute the same report.

Sizes are chosen so that one op takes 0.6-1 s with the pure-Python
kernels on a shared 2-CPU machine. That is long enough to average over the
sub-second bursts of host contention seen there (shorter ops made the tail
percentile swing by 40% between runs), and a 24 s run still holds 16-32
ops, each followed by a ~0.2 s reference run (calibrate.py): enough for a
median. The tail percentile has ten ops beyond it from 20 ops up; below
that it falls back to the upper median (run.py's `tail`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from tempoframe import (
    MISSING,
    Continuous,
    Integer,
    RoleMap,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
    write_bundle,
)
from tempoframe.rng import Lcg

# Ops cycle through these cross-validation seeds; one config file each.
CV_SEEDS = (11, 23, 37)
FOLDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    size: str      # input size in words, printed with every result
    build: object  # (work_dir, seed) -> None; writes bundle and configs


def op_argvs(workload: str, work_dir: str, seed: int, slot: int) -> list:
    """CLI argument lists that make up the op for one config slot."""
    config = os.path.join(work_dir, f"config-{slot}.json")
    if workload != "treatment-synth":
        return [["run", config]]
    synth = ["synth-ite", "--n", str(TREATMENT_N), "--dim", str(TREATMENT_DIM),
             "--gamma", ",".join(repr(g) for g in TREATMENT_GAMMA),
             "--noise", "0.5", "--seed", str(seed * 1000 + slot),
             "--out", os.path.join(work_dir, f"synth-{slot}")]
    return [synth, ["run", config]]


def report_path(work_dir: str, slot: int) -> str:
    return os.path.join(work_dir, f"report-{slot}.json")


def _write_configs(work_dir: str, doc: dict, synth: bool = False) -> None:
    """One config per slot; `synth` configs read the bundle and truth
    file that the slot's `synth-ite` call writes."""
    for slot, cv_seed in enumerate(CV_SEEDS):
        d = dict(doc)
        d["bundle"] = f"synth-{slot}" if synth else "bundle"
        d["cv"] = {"folds": FOLDS, "seed": cv_seed}
        d["output"] = os.path.basename(report_path(work_dir, slot))
        if synth:
            d["truth"] = f"synth-{slot}/truth.csv"
        with open(os.path.join(work_dir, f"config-{slot}.json"), "w",
                  encoding="utf-8") as f:
            json.dump(d, f, indent=2)


def _irregular_series(rng: Lcg, sid: str, fid: str, level: float,
                      trend: float, points: list) -> None:
    """3-8 points at irregular, per-feature times; about 10% missing."""
    t = rng.uniform_in(0.0, 2.0)
    for _ in range(3 + rng.below(6)):
        v = level + trend * t + 0.3 * rng.normal()
        points.append((sid, fid, t, MISSING if rng.uniform() < 0.1 else v))
        t += rng.uniform_in(0.3, 3.0)


def _patients(rng: Lcg, n: int) -> tuple:
    """Two static and two irregular temporal covariates per patient, plus
    the latent linear score they carry. Static cells are ~10% missing.

    Returns (sample_ids, static_rows, temporal_points, scores).
    """
    ids, rows, points, scores = [], [], [], []
    for i in range(n):
        sid = f"p{i:05d}"
        age = rng.uniform_in(30.0, 90.0)
        sex = rng.coin()
        hr_level = rng.normal()
        lab_trend = 0.5 * rng.normal()
        if rng.uniform() >= 0.1:
            rows.append((sid, "age", age))
        if rng.uniform() >= 0.1:
            rows.append((sid, "sex", sex))
        _irregular_series(rng, sid, "hr", hr_level, 0.0, points)
        _irregular_series(rng, sid, "lab", 0.0, lab_trend, points)
        ids.append(sid)
        scores.append(0.04 * (age - 60.0) + 0.5 * sex + 0.6 * hr_level
                      + 1.2 * lab_trend)
    return ids, rows, points, scores


_COVARIATE_KINDS = {"age": Continuous(), "sex": Integer()}
_TEMPORAL_KINDS = {"hr": Continuous(), "lab": Continuous()}
_FRONT = [{"plugin": "impute.locf"}, {"plugin": "impute.mean"},
          {"plugin": "scale.zscore"}]


# ---------------------------------------------------------------------------
# survival-cox
# ---------------------------------------------------------------------------

SURVIVAL_N = 400


def build_survival(work_dir: str, seed: int) -> None:
    """Where the Cox kernel, the Breslow baseline and per-sample curve
    glue, and O(n^2) concordance do the work; c-index importance with
    one repeat."""
    rng = Lcg(seed)
    ids, rows, points, scores = _patients(rng, SURVIVAL_N)
    entries = []
    for sid, score in zip(ids, scores):
        event_t = -math.log(1.0 - rng.uniform()) / (0.1 * math.exp(score))
        censor_t = rng.uniform_in(0.0, 25.0)
        if event_t <= censor_t:
            entries.append((sid, "death", event_t, 1))
        else:
            entries.append((sid, "death", censor_t, MISSING))
    ds = assemble_dataset(
        static=build_static_samples(rows, _COVARIATE_KINDS, sample_ids=ids),
        temporal=build_time_series_samples(points, _TEMPORAL_KINDS,
                                           sample_ids=ids),
        events=build_event_samples(entries, {"death": Integer()},
                                   sample_ids=ids),
        roles=RoleMap.of(covariates=("age", "sex", "hr", "lab"),
                         targets=("death",)))
    write_bundle(ds, os.path.join(work_dir, "bundle"))
    _write_configs(work_dir, {
        "task": "survival",
        "pipeline": _FRONT + [{"plugin": "survival.cox", "params": {
            "iters": 200, "step_size": SURVIVAL_STEP}}],
        "metrics": ["c_index", "brier@5"],
        "importance": {"metric": "c_index", "repeats": 1, "seed": 5},
    })


# Gradient ascent on the summed partial likelihood, so the step must
# shrink as training rows grow. At ~267 training rows and 12 columns this
# step raises the objective monotonically over 200 iterations; 0.005
# diverges (objective falls, c-index near 0.5).
SURVIVAL_STEP = 0.001


# ---------------------------------------------------------------------------
# classify-importance
# ---------------------------------------------------------------------------

CLASSIFY_N = 400


def build_classify(work_dir: str, seed: int) -> None:
    """Permutation importance (3 repeats) re-runs the whole transform
    front and the featurization for every feature x repeat; the survival
    workload largely bypasses that path."""
    rng = Lcg(seed)
    ids, rows, points, scores = _patients(rng, CLASSIFY_N)
    labels = [(sid, "outcome", 1 if score + 0.3 * rng.normal() > 0.5 else 0)
              for sid, score in zip(ids, scores)]
    ds = assemble_dataset(
        static=build_static_samples(rows + labels,
                                    dict(_COVARIATE_KINDS,
                                         outcome=Integer()),
                                    sample_ids=ids),
        temporal=build_time_series_samples(points, _TEMPORAL_KINDS,
                                           sample_ids=ids),
        roles=RoleMap.of(covariates=("age", "sex", "hr", "lab"),
                         targets=("outcome",)))
    write_bundle(ds, os.path.join(work_dir, "bundle"))
    _write_configs(work_dir, {
        "task": "classify",
        "pipeline": _FRONT + [{"plugin": "classify.logistic", "params": {
            "lr": 0.5, "iters": 200}}],
        "metrics": ["accuracy"],
        "importance": {"metric": "accuracy", "repeats": 3, "seed": 5},
    })


# ---------------------------------------------------------------------------
# forecast-ar
# ---------------------------------------------------------------------------

FORECAST_N = 1500
FORECAST_HORIZON = 5


def build_forecast(work_dir: str, seed: int) -> None:
    """The only user of the temporal-target, resample and AR paths, read
    from a long temporal CSV; bypasses importance and both GD kernels.

    AR(2) series of 30-60 points on a 1.0 grid. Interior points are
    dropped at random; the last horizon+1 points are always kept so the
    held-out grid continues the history's grid exactly (fully irregular
    series make `rmse` fail with "time grids differ")."""
    rng = Lcg(seed)
    rows, points = [], []
    for i in range(FORECAST_N):
        sid = f"s{i:05d}"
        length = 30 + rng.below(31)
        start = float(rng.below(10))
        level = rng.uniform_in(1.0, 4.0)
        rows.append((sid, "site", level))
        prev2 = prev1 = level
        for k in range(length):
            v = 0.5 + 0.6 * prev1 + 0.2 * prev2 + 0.05 * rng.normal()
            prev2, prev1 = prev1, v
            keep = k == 0 or k >= length - FORECAST_HORIZON - 1 \
                or rng.uniform() >= 0.15
            if keep:
                points.append((sid, "y", start + k, v))
    ds = assemble_dataset(
        static=build_static_samples(rows, {"site": Continuous()}),
        temporal=build_time_series_samples(points, {"y": Continuous()}),
        roles=RoleMap.of(covariates=("site",), targets=("y",)))
    write_bundle(ds, os.path.join(work_dir, "bundle"))
    _write_configs(work_dir, {
        "task": "forecast",
        "pipeline": [{"plugin": "resample.regular", "params": {"step": 1.0}},
                     {"plugin": "forecast.ar", "params": {
                         "order": 3, "horizon": FORECAST_HORIZON,
                         "step": 1.0}}],
        "metrics": ["rmse"],
    })


# ---------------------------------------------------------------------------
# treatment-synth
# ---------------------------------------------------------------------------

TREATMENT_N = 6000
TREATMENT_DIM = 8
TREATMENT_GAMMA = (1.0, -0.5, 0.25, 0.0, 0.75, -1.0, 0.5, -0.25)


def build_treatment(work_dir: str, seed: int) -> None:
    """Each op writes its bundle (`synth-ite`) and reads it back, so a
    gain for reads that costs writes shows here; the only workload that
    runs `treatment`. Only the configs are written here."""
    _write_configs(work_dir, {
        "task": "treatment",
        "pipeline": [{"plugin": "treatment.t_learner"}],
        "metrics": ["pehe"],
    }, synth=True)


WORKLOADS = {w.name: w for w in (
    Workload("survival-cox", SURVIVAL_N,
             f"{SURVIVAL_N} patients, 2 static + 2 irregular temporal "
             "covariates, ~30% censored",
             build_survival),
    Workload("classify-importance", CLASSIFY_N,
             f"{CLASSIFY_N} samples, 2 static + 2 irregular temporal "
             "covariates with missing cells",
             build_classify),
    Workload("forecast-ar", FORECAST_N,
             f"{FORECAST_N} series of 30-60 points, interior points dropped",
             build_forecast),
    Workload("treatment-synth", TREATMENT_N,
             f"synth-ite n={TREATMENT_N} dim={TREATMENT_DIM} linear effect, "
             "noise 0.5, then a T-learner run",
             build_treatment),
)}
