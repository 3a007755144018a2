"""Permutation feature importance of an already-fitted classifier or
survival estimator (a bare model or a pipeline ending in one).

Importance is metric degradation: score(permuted) - score(baseline) for
loss-like metrics and baseline - permuted for gain-like ones, so larger
always means more important. Temporal features are permuted as whole
per-sample sequences, which keeps within-series autocorrelation intact.

A shuffle of one feature's samples commutes with every per-sample step:
the transforms that declare `derived_ids` and the featurization
(`covariate_matrix`). Importance needs every front step to declare it and
the final estimator to have `predict_columns`; then the front and the
featurization run once and each shuffle reindexes only the matrix columns
derived from the feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from tempoframe.data import (
    Dataset,
    Modality,
    Role,
    covariate_groups,
    covariate_matrix,
)
from tempoframe.errors import MetricMismatch, NonFiniteScore, TooFewSamples
from tempoframe.metrics import TASKS, resolve_metric
from tempoframe.plugins import FittedEstimator, check_fingerprint
from tempoframe.rng import Lcg


@dataclass(frozen=True)
class ImportanceReport:
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


def _column_predictor(inner: FittedEstimator, ds: Dataset):
    """predict(fid, perm): predictions of `inner`, which passed
    `check_importance`, on ds with feature fid permuted by perm (fid None:
    on ds itself), from one featurization of ds."""
    running = inner.run_front(ds)
    check_fingerprint(inner, running)
    names, columns = covariate_matrix(running)
    sources = [fid for fid, _, group in covariate_groups(running)
               for _ in group]

    def predict(fid, perm):
        shuffled = columns
        if fid is not None:
            ids = {fid}
            for step in inner.front:
                ids = {out for i in ids for out in
                       step.spec.derived_ids(step.params, step.state, i)}
            shuffled = [[col[p] for p in perm] if src in ids else col
                        for src, col in zip(sources, columns)]
        return inner.spec.predict_columns(inner.params, inner.state,
                                          running.sample_ids, names,
                                          shuffled)
    return predict


def permutation_importance(inner: FittedEstimator, ds: Dataset, metric: str,
                           repeats: int = 1, seed: int = 0) -> ImportanceReport:
    """Score degradation per covariate feature under seeded value shuffles.

    The inner estimator is never refitted; only the query changes. Event
    covariates are not model inputs and are not permuted. Raises
    NonFiniteScore, naming the metric and the feature, if a score is NaN
    or infinite.
    """
    n = len(ds.sample_ids)
    if n < 2:
        raise TooFewSamples(f"importance needs at least 2 samples, got {n}")
    if repeats < 1:
        raise TooFewSamples(f"repeats must be >= 1, got {repeats}")
    m = check_importance(inner, metric)
    predict = _column_predictor(inner, ds)
    unpermuted = predict(None, None)
    truth = TASKS[m.task].truth(ds)

    def score(pred, what: str) -> float:
        value = m.score(pred, truth)
        if not math.isfinite(value):
            raise NonFiniteScore(f"{metric} is {value!r} {what}")
        return value

    baseline = score(unpermuted, "at baseline")
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
    return ImportanceReport(metric, repeats, seed, baseline, tuple(targets),
                            tuple(importances))
