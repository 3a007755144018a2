"""The one metric dispatch: for each task, the category its pipeline ends
in, how a fold's (prediction, truth) pair is obtained, and the named
metrics that score that pair.

Classify and survival truth is read off the evaluation dataset itself
(labels or event outcomes), so those tasks are scorable in place and
support permutation importance. Forecast truth is the future held out
past the final step's horizon, and treatment truth is the per-sample
effects of a truth file; the benchmark harness supplies the horizon and
the effects.

The scoring functions live here too, so this one module owns how every
task is scored. The Brier score is unweighted over evaluable samples, a
documented deviation from the censoring-weighted variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from tempoframe.bundle import read_number
from tempoframe.data import (
    Continuous,
    Dataset,
    MISSING,
    Modality,
    Role,
    StaticSamples,
    TimeSeriesSamples,
    binary_codes,
    map_columns,
)
from tempoframe.errors import (
    AlignmentError,
    BenchError,
    EmptyInput,
    MetricMismatch,
    NoComparablePairs,
    NoEvaluableSamples,
    ParseError,
)
from tempoframe.forecasting import _temporal_targets
from tempoframe.kernels import _check_lengths, concordance_counts
from tempoframe.plugins import Category
from tempoframe.survival import event_outcomes


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
        for sid, (times, _) in zip(ids, column):
            if len(times) <= horizon:
                raise BenchError(
                    f"sample {sid!r} target {fid!r} has {len(times)} "
                    f"points; holding out {horizon} leaves no history")
        futures[fid] = tuple((times[-horizon:], values[-horizon:])
                             for times, values in column)
        return tuple((times[:-horizon], values[:-horizon])
                     for times, values in column)

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


TASKS = {
    "forecast": TaskSpec(Category.FORECASTER, held_out=_observe_forecast),
    "classify": TaskSpec(Category.CLASSIFIER,
                         truth=lambda ds: static_target_table(ds)),
    "survival": TaskSpec(Category.SURVIVAL,
                         truth=lambda ds: event_outcomes(ds)),
    "treatment": TaskSpec(Category.TREATMENT, held_out=_observe_treatment),
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _numeric(v, sid, fid, t=None) -> float:
    """v as a float. Missing or a string is an alignment failure; its
    location `(sid, fid)`, or `(sid, fid, t=t)` for a series point, is
    formatted only then."""
    if v is MISSING or isinstance(v, str):
        where = f"({sid}, {fid})" if t is None else f"({sid}, {fid}, t={t})"
        if v is MISSING:
            raise AlignmentError(f"{where}: missing value in comparison")
        raise AlignmentError(f"{where}: non-numeric value {v!r}")
    return float(v)


def _aligned(pred, truth, cls) -> None:
    """The one input check of `rmse` and `accuracy`: both sides must be
    `cls` containers (a `Dataset` or any other type is refused) with equal
    sample and feature ids."""
    for side, x in (("pred", pred), ("truth", truth)):
        if not isinstance(x, cls):
            raise AlignmentError(f"expected {cls.__name__} as {side}, "
                                 f"got {type(x).__name__}")
    if pred.sample_ids != truth.sample_ids:
        raise AlignmentError("sample ids differ between pred and truth")
    if pred.feature_ids != truth.feature_ids:
        raise AlignmentError("features differ between pred and truth")


def rmse(pred, truth) -> float:
    """Root-mean-square error over all aligned points of two containers.

    Two `TimeSeriesSamples` (a forecast and its held-out future) must have
    bitwise-equal time grids; otherwise both sides are `StaticSamples`.
    Any Missing or non-numeric value is an alignment failure, not a skip.
    """
    temporal = isinstance(pred, TimeSeriesSamples)
    _aligned(pred, truth, TimeSeriesSamples if temporal else StaticSamples)
    total = 0.0
    count = 0
    for i, sid in enumerate(pred.sample_ids):
        for j, (fid, _) in enumerate(pred.features):
            if temporal:
                times, predicted = pred.series[i][j]
                grid, observed = truth.series[i][j]
                if times != grid:
                    raise AlignmentError(
                        f"time grids differ for sample {sid!r}, "
                        f"feature {fid!r}")
                points = zip(times, predicted, observed)
            else:
                points = ((None, pred.values[i][j], truth.values[i][j]),)
            for t, va, vb in points:
                d = _numeric(va, sid, fid, t) - _numeric(vb, sid, fid, t)
                total += d * d
                count += 1
    if count == 0:
        raise EmptyInput("no aligned points to compare")
    return math.sqrt(total / count)


def accuracy(pred, truth) -> float:
    """Fraction of cells whose predicted label matches the truth label.

    `pred` and `truth` are `StaticSamples` over the same samples and
    features. Predicted label is 1 when p >= 0.5; a NaN p has no label,
    so it raises `MetricMismatch`. Truth is coded by `binary_codes`, so
    a kind `classify.logistic` cannot fit on is refused here too.
    """
    _aligned(pred, truth, StaticSamples)
    codes = []
    for fid, kind in truth.features:
        codes.append(binary_codes(kind))
        if not codes[-1]:
            raise AlignmentError(f"truth feature {fid!r} is not binary")
    correct = 0
    count = 0
    for i, sid in enumerate(pred.sample_ids):
        for j, (fid, _) in enumerate(truth.features):
            p = _numeric(pred.values[i][j], sid, fid)
            if math.isnan(p):
                raise MetricMismatch(f"accuracy: ({sid}, {fid}): predicted "
                                     "probability is NaN")
            tv = truth.values[i][j]
            if tv is MISSING:
                raise AlignmentError(f"({sid}, {fid}): missing truth label")
            if tv not in codes[j]:
                raise AlignmentError(
                    f"({sid}, {fid}): truth label {tv!r} outside {{0, 1}}")
            correct += 1 if (1 if p >= 0.5 else 0) == codes[j][tv] else 0
            count += 1
    if count == 0:
        raise EmptyInput("no cells to compare")
    return correct / count


def concordance_index(risks, outcomes) -> float:
    """Concordant fraction over pairs (i, j) with t_i < t_j and i occurred;
    risk ties count 0.5. A NaN risk has no place in the order the counts
    need, so it raises `MetricMismatch`; risks and outcomes of unequal
    length raise AlignmentError."""
    outcomes = list(outcomes)
    risks = [float(r) for r in risks]
    for i, r in enumerate(risks):
        if math.isnan(r):
            raise MetricMismatch(f"c_index: risk of sample {i} is NaN")
    times = [o.time for o in outcomes]
    occurred = [1 if o.occurred else 0 for o in outcomes]
    conc, tied, comp = concordance_counts(len(outcomes), times, occurred,
                                          risks)
    if comp == 0:
        raise NoComparablePairs("no comparable pair of outcomes")
    return (conc + 0.5 * tied) / comp


def brier_score(survival, outcomes, horizon: float) -> float:
    """Unweighted mean of (S_i(t*) - 1{t_i > t*})^2 over evaluable samples.

    `survival` holds each sample's S_i(t*) (`SurvivalOutput.survival_at`).
    Evaluable: occurred with t <= t*, or t > t* regardless of status.
    Samples censored at or before t* carry no label and are excluded.
    A `survival` of another length than `outcomes` raises AlignmentError.
    """
    _check_lengths(len(outcomes), "samples", survival=survival)
    total = 0.0
    count = 0
    for s, o in zip(survival, outcomes):
        if o.time > horizon:
            label = 1.0
        elif o.occurred:
            label = 0.0
        else:
            continue
        d = s - label
        total += d * d
        count += 1
    if count == 0:
        raise NoEvaluableSamples(
            f"no sample is evaluable at horizon {horizon}")
    return total / count


@dataclass(frozen=True)
class MetricSpec:
    name: str
    direction: str   # "loss" or "gain"
    task: str        # key of TASKS whose (pred, truth) pair it scores
    score: object    # (pred, truth) -> float
    horizon: float = None  # a Brier score's horizon


def resolve_metric(name: str) -> MetricSpec:
    """Metric names: rmse, accuracy, c_index, brier@<t>, pehe."""
    if name == "rmse":
        return MetricSpec(name, "loss", "forecast", rmse)
    if name == "accuracy":
        return MetricSpec(name, "gain", "classify", accuracy)
    if name == "c_index":
        return MetricSpec(
            name, "gain", "survival",
            lambda out, outcomes: concordance_index(out.risks, outcomes))
    if name == "pehe":
        # PEHE is the RMSE of the per-sample effects (Hill 2011).
        return MetricSpec(name, "loss", "treatment", rmse)
    if name.startswith("brier@"):
        raw = name[len("brier@"):]
        try:
            horizon = read_number(raw)
        except ParseError:
            raise MetricMismatch(
                f"bad brier horizon {raw!r} in metric {name!r}") from None
        return MetricSpec(
            name, "loss", "survival",
            lambda out, outcomes: brier_score(out.survival_at(horizon),
                                              outcomes, horizon), horizon)
    raise MetricMismatch(f"unknown metric {name!r}")
