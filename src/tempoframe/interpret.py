"""Permutation feature importance, packaged as a wrapper plugin around an
already-fitted predictor or survival estimator.

Importance is metric degradation: score(permuted) - score(baseline) for
loss-like metrics and baseline - permuted for gain-like ones, so larger
always means more important. Temporal features are permuted as whole
per-sample sequences, which keeps within-series autocorrelation intact.
"""

from __future__ import annotations

from dataclasses import dataclass

from tempoframe.data import (
    Dataset,
    Modality,
    Role,
    StaticSamples,
    TimeSeriesSamples,
)
from tempoframe.errors import MetricMismatch, TooFewSamples, WrongCategory
from tempoframe.metrics import TASKS, resolve_metric
from tempoframe.plugins import (
    Category,
    EstimatorSpec,
    FittedEstimator,
    Param,
    register_plugin,
    wrap,
)
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

    def importance_of(self, feature_id: str) -> float:
        return self.importances[self.features.index(feature_id)]

    def to_doc(self) -> dict:
        return {"metric": self.metric, "repeats": self.repeats,
                "seed": self.seed, "baseline": self.baseline,
                "features": list(self.features),
                "importances": list(self.importances)}


def _permute_static(ds: Dataset, fid: str, perm: list) -> Dataset:
    c = ds.static
    j = c._feature_pos[fid]
    col = [c.values[perm[i]][j] for i in range(len(perm))]
    grid = tuple(
        row[:j] + (col[i],) + row[j + 1:]
        for i, row in enumerate(c.values))
    return Dataset(static=StaticSamples(c.sample_ids, c.features, grid),
                   temporal=ds.temporal, events=ds.events, roles=ds.roles)


def _permute_temporal(ds: Dataset, fid: str, perm: list) -> Dataset:
    c = ds.temporal
    j = c._feature_pos[fid]
    seqs = [c.series[perm[i]][j] for i in range(len(perm))]
    series = tuple(
        per_sample[:j] + (seqs[i],) + per_sample[j + 1:]
        for i, per_sample in enumerate(c.series))
    return Dataset(static=ds.static,
                   temporal=TimeSeriesSamples(c.sample_ids, c.features,
                                              series),
                   events=ds.events, roles=ds.roles)


def permutation_importance(inner: FittedEstimator, ds: Dataset, metric: str,
                           repeats: int = 1, seed: int = 0) -> ImportanceReport:
    """Score degradation per covariate feature under seeded value shuffles.

    The inner estimator is never refitted; only the query dataset changes.
    Event covariates are not model inputs and are not permuted.
    """
    n = len(ds.sample_ids)
    if n < 2:
        raise TooFewSamples(f"importance needs at least 2 samples, got {n}")
    if repeats < 1:
        raise TooFewSamples(f"repeats must be >= 1, got {repeats}")
    m = resolve_metric(metric)
    task = TASKS[m.task]
    if not task.in_place:
        raise MetricMismatch(
            f"metric {metric!r} is not scorable in place; importance "
            "supports accuracy, c_index and brier@<t>")
    if inner.effective_category() is not task.category:
        raise MetricMismatch(
            f"metric {metric!r} does not apply to a "
            f"{inner.effective_category().value} estimator")
    baseline = m.score(*task.observe(inner, ds, None, None))
    targets = []
    for fid, _, role, modality in ds.all_features():
        if role is Role.COVARIATE and modality in (Modality.STATIC,
                                                   Modality.TEMPORAL):
            targets.append((fid, modality))
    rng = Lcg(seed)
    features = []
    importances = []
    for fid, modality in targets:
        total = 0.0
        for _ in range(repeats):
            perm = rng.permutation(n)
            if modality is Modality.STATIC:
                shuffled = _permute_static(ds, fid, perm)
            else:
                shuffled = _permute_temporal(ds, fid, perm)
            score = m.score(*task.observe(inner, shuffled, None, None))
            if m.direction == "loss":
                total += score - baseline
            else:
                total += baseline - score
        features.append(fid)
        importances.append(total / repeats)
    return ImportanceReport(metric, repeats, seed, baseline, tuple(features),
                            tuple(importances))


# ---------------------------------------------------------------------------
# Wrapper plugin
# ---------------------------------------------------------------------------

_WRAPPER_NAME = "interpret.perm_importance"

register_plugin(EstimatorSpec(
    name=_WRAPPER_NAME, category=Category.WRAPPER,
    schema=(Param("metric", "string", "accuracy"),
            Param("repeats", "integer", 1, lo=1),
            Param("seed", "integer", 0)),
    accepts=(Category.PREDICTOR, Category.SURVIVAL, Category.WRAPPER)))


def as_wrapper(inner: FittedEstimator, *, metric: str, repeats: int = 1,
               seed: int = 0) -> FittedEstimator:
    """Wrap a fitted estimator; predict delegates unchanged and
    `importance_report` becomes available."""
    return wrap(inner, _WRAPPER_NAME,
                {"metric": metric, "repeats": repeats, "seed": seed})


def importance_report(wrapped: FittedEstimator, ds: Dataset) -> ImportanceReport:
    if wrapped.spec.name != _WRAPPER_NAME:
        raise WrongCategory(
            f"{wrapped.spec.name!r} does not expose importance reports")
    return permutation_importance(wrapped._inner(), ds,
                                  wrapped.params["metric"],
                                  wrapped.params["repeats"],
                                  wrapped.params["seed"])
