"""The one metric dispatch: for each task, the category its pipeline ends
in, how a fold's (prediction, truth) pair is obtained, and the named
metrics that score that pair.

Classify and survival truth is read off the evaluation dataset itself
(labels or event outcomes), so those tasks are scorable in place and
support permutation importance. Forecast truth is the future held out
past the final step's horizon, and treatment truth is the per-sample
effects of a truth file; the benchmark harness supplies the horizon and
the effects.

Metric functions live next to their estimators and are called here
through their module-global names, never held by reference, so a
replacement of a module attribute (say, a timing wrapper) sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from tempoframe.data import (
    Continuous,
    Dataset,
    Modality,
    Role,
    StaticSamples,
    TimeSeriesSamples,
    map_columns,
)
from tempoframe.errors import BenchError, MetricMismatch
from tempoframe.forecasting import _temporal_targets, accuracy, rmse
from tempoframe.plugins import Category
from tempoframe.survival import brier_score, concordance_index, event_outcomes


def static_target_table(ds: Dataset) -> StaticSamples:
    """The one static Target column of a dataset, the one
    `classify.logistic` fits on."""
    fid, kind, _ = ds.sole_feature(Role.TARGET, Modality.STATIC)
    return StaticSamples(ds.sample_ids, ((fid, kind),),
                         tuple((v,) for v in ds.static.column(fid)))


def _holdout_forecast(ds: Dataset, horizon: int):
    """Split each of the forecasters' target series into (history,
    held-out future): the dataset with its targets cut `horizon` points
    short, and the truth series of those points."""
    targets = _temporal_targets(ds)
    ids = ds.temporal.sample_ids
    futures = dict.fromkeys(targets, ())

    def cut(fid, column):
        for sid, seq in zip(ids, column):
            if len(seq) <= horizon:
                raise BenchError(
                    f"sample {sid!r} target {fid!r} has {len(seq)} points; "
                    f"holding out {horizon} leaves no history")
        futures[fid] = tuple(seq[-horizon:] for seq in column)
        return tuple(seq[:-horizon] for seq in column)

    history = map_columns(ds, {fid: partial(cut, fid) for fid in targets})
    future = TimeSeriesSamples(
        ids, tuple((fid, Continuous()) for fid in targets),
        tuple(zip(*futures.values())))
    return history, future


# A held-out observer maps (fitted, ds, effects) to (pred, truth); effects
# maps sample id to its true treatment effect.

def _observe_forecast(fitted, ds, effects):
    history, future = _holdout_forecast(ds, fitted.params["horizon"])
    return fitted.predict(history), future


def _observe_treatment(fitted, ds, effects):
    """One `effect` column each: the arm-1 minus the arm-0 outcome, and
    the truth file's effect."""
    outcomes = fitted.predict_counterfactuals(ds, (0, 1))
    ids = outcomes.sample_ids
    missing = [sid for sid in ids if sid not in effects]
    if missing:
        raise BenchError(f"truth file lacks samples {missing}")
    effect = (("effect", Continuous()),)
    return (StaticSamples(ids, effect,
                          tuple((y1 - y0,) for y0, y1 in outcomes.values)),
            StaticSamples(ids, effect, tuple((effects[s],) for s in ids)))


@dataclass(frozen=True)
class TaskSpec:
    category: Category     # of the pipeline's final estimator
    truth: object = None   # ds -> truth read off ds itself, if in place
    held_out: object = None  # the observer of a task not scorable in place

    @property
    def in_place(self) -> bool:
        return self.truth is not None

    def observe(self, fitted, ds, effects) -> tuple:
        """(pred, truth) of one evaluation dataset; an in-place task
        predicts ds and reads the truth off it."""
        if self.truth is None:
            return self.held_out(fitted, ds, effects)
        return fitted.predict(ds), self.truth(ds)


TASKS = {
    "forecast": TaskSpec(Category.FORECASTER, held_out=_observe_forecast),
    "classify": TaskSpec(Category.CLASSIFIER,
                         truth=lambda ds: static_target_table(ds)),
    "survival": TaskSpec(Category.SURVIVAL,
                         truth=lambda ds: event_outcomes(ds)),
    "treatment": TaskSpec(Category.TREATMENT, held_out=_observe_treatment),
}


@dataclass(frozen=True)
class MetricSpec:
    name: str
    direction: str   # "loss" or "gain"
    task: str        # key of TASKS whose (pred, truth) pair it scores
    score: object    # (pred, truth) -> float


def resolve_metric(name: str) -> MetricSpec:
    """Metric names: rmse, accuracy, c_index, brier@<t>, pehe."""
    if name == "rmse":
        return MetricSpec(name, "loss", "forecast",
                          lambda pred, truth: rmse(pred, truth))
    if name == "accuracy":
        return MetricSpec(name, "gain", "classify",
                          lambda pred, truth: accuracy(pred, truth))
    if name == "c_index":
        return MetricSpec(
            name, "gain", "survival",
            lambda out, outcomes: concordance_index(out.risks, outcomes))
    if name == "pehe":
        # PEHE is the RMSE of the per-sample effects (Hill 2011).
        return MetricSpec(name, "loss", "treatment",
                          lambda pred, truth: rmse(pred, truth))
    if name.startswith("brier@"):
        raw = name[len("brier@"):]
        try:
            horizon = float(raw)
        except ValueError:
            horizon = math.nan
        if not math.isfinite(horizon):
            raise MetricMismatch(
                f"bad brier horizon {raw!r} in metric {name!r}")
        return MetricSpec(
            name, "loss", "survival",
            lambda out, outcomes: brier_score(out.survival_at(horizon),
                                              outcomes, horizon))
    raise MetricMismatch(f"unknown metric {name!r}")
