"""Permutation feature importance of an already-fitted classifier or
survival estimator (a bare model or a pipeline ending in one).

Importance is metric degradation: score(permuted) - score(baseline) for
loss-like metrics and baseline - permuted for gain-like ones, so larger
always means more important. Temporal features are permuted as whole
per-sample sequences, which keeps within-series autocorrelation intact.

A shuffle of one feature's samples commutes with every per-sample step:
the transforms that declare `derived_ids` and the featurization. When
every front step declares it and the final estimator has
`predict_columns`, `FittedEstimator.predictor` runs the front and the
featurization once and each shuffle reindexes only the matrix columns
derived from the feature; a benchmark fold scores its metrics from the
same predictor.
"""

from __future__ import annotations

import math

from tempoframe.data import Dataset, Modality, Record, Role
from tempoframe.errors import MetricMismatch, NonFiniteScore, TooFewSamples
from tempoframe.metrics import TASKS, MetricSpec, resolve_metric
from tempoframe.plugins import FittedEstimator
from tempoframe.rng import Lcg


class ImportanceReport(Record):
    """Per-feature mean metric degradation over `repeats` seeded shuffles."""

    metric: str
    repeats: int
    seed: int
    baseline: float
    features: tuple
    importances: tuple


def check_importance(est, metric: str):
    """The spec of `metric` if importance over it can run on `est`, fitted
    or not: the metric is scorable in place and fits the final category,
    every front step declares derived_ids, the model has predict_columns."""
    m = resolve_metric(metric)
    if not TASKS[m.task].in_place:
        raise MetricMismatch(
            f"metric {metric!r} is not scorable in place; importance "
            "supports accuracy, c_index and brier@<t>")
    if est.spec.category is not TASKS[m.task].category:
        raise MetricMismatch(
            f"metric {metric!r} does not apply to a "
            f"{est.spec.category.value} estimator")
    for step in est.front:
        if step.spec.derived_ids is None:
            raise MetricMismatch(
                f"importance needs per-sample transforms; {step.spec.name!r} "
                "does not declare derived_ids")
    if est.spec.predict_columns is None:
        raise MetricMismatch(
            f"importance needs a model that reads the covariate matrix; "
            f"{est.spec.name!r} has no predict_columns")
    return m


def importance_of(predict, pred, truth, ds: Dataset, m: MetricSpec,
                  repeats: int, seed: int) -> ImportanceReport:
    """Degradation of `m` per covariate feature of ds under seeded value
    shuffles: `predict` is the `predictor(ds)` of an estimator that passed
    `check_importance` for `m`, `pred` its unpermuted prediction and
    `truth` the truth of ds. Event covariates are not model inputs and are
    not permuted. Raises NonFiniteScore, naming the metric and the
    feature, if a score is NaN or infinite."""
    n = len(ds.sample_ids)
    if n < 2:
        raise TooFewSamples(f"importance needs at least 2 samples, got {n}")
    if repeats < 1:
        raise TooFewSamples(f"repeats must be >= 1, got {repeats}")

    def score(out, what: str) -> float:
        value = m.score(out, truth)
        if not math.isfinite(value):
            raise NonFiniteScore(f"{m.name} is {value!r} {what}")
        return value

    baseline = score(pred, "at baseline")
    targets = [fid for fid, _, modality in ds.features_with_role(Role.COVARIATE)
               if modality is not Modality.EVENT]
    rng = Lcg(seed)
    importances = []
    for fid in targets:
        total = 0.0
        for _ in range(repeats):
            value = score(predict(fid, rng.permutation(n)),
                          f"with feature {fid!r} permuted")
            if m.direction == "loss":
                total += value - baseline
            else:
                total += baseline - value
        importances.append(total / repeats)
    return ImportanceReport(m.name, repeats, seed, baseline, tuple(targets),
                            tuple(importances))


def permutation_importance(inner: FittedEstimator, ds: Dataset, metric: str,
                           repeats: int = 1, seed: int = 0) -> ImportanceReport:
    """`importance_of` `inner` on ds over `metric`. The inner estimator is
    never refitted; only the query changes."""
    m = check_importance(inner, metric)
    predict = inner.predictor(ds)
    return importance_of(predict, predict(None, None), TASKS[m.task].truth(ds),
                         ds, m, repeats, seed)
