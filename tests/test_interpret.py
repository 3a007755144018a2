"""Permutation importance."""

from __future__ import annotations

from dataclasses import replace
from operator import add

import pytest

from datagen import classification_dataset, regular_series_dataset, \
    survival_dataset
from tempoframe import interpret, plugins
from tempoframe.data import (
    MISSING,
    Categorical,
    Continuous,
    Integer,
    Modality,
    Role,
    RoleMap,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
    covariate_groups,
    covariate_matrix,
    map_columns,
)
from tempoframe.errors import (
    MetricMismatch,
    NonFiniteScore,
    TooFewSamples,
)
from tempoframe.interpret import permutation_importance
from tempoframe.metrics import TASKS, MetricSpec, resolve_metric
from tempoframe.plugins import (
    Category,
    EstimatorSpec,
    build_pipeline,
    create,
)
from tempoframe.rng import Lcg


def _noise_classifier_ds(seed=0, n=60):
    """x1 decides the label, x2 is pure noise."""
    return classification_dataset(seed, n=n, informative="x1")


def test_informative_feature_dominates_noise():
    ds = _noise_classifier_ds()
    fitted = create("classify.logistic", {"iters": 400}).fit(ds)
    report = permutation_importance(fitted, ds, "accuracy", repeats=10,
                                    seed=3)
    assert report.metric == "accuracy"
    assert set(report.features) == {"x1", "x2"}
    x1 = report.importances[report.features.index("x1")]
    x2 = report.importances[report.features.index("x2")]
    assert x1 > x2
    assert x1 > 0.1
    assert abs(x2) < 0.1
    assert 0.0 <= report.baseline <= 1.0


def test_importance_is_deterministic_and_seed_sensitive():
    ds = _noise_classifier_ds(1)
    fitted = create("classify.logistic", {"iters": 200}).fit(ds)
    a = permutation_importance(fitted, ds, "accuracy", repeats=3, seed=7)
    b = permutation_importance(fitted, ds, "accuracy", repeats=3, seed=7)
    assert a == b
    c = permutation_importance(fitted, ds, "accuracy", repeats=3, seed=8)
    assert c != a


def test_constant_feature_has_zero_importance():
    rows = []
    sample_ids = []
    for i in range(20):
        sid = f"s{i:02d}"
        sample_ids.append(sid)
        rows.extend([(sid, "x1", 1.0 if i % 2 else -1.0),
                     (sid, "const", 5.0),
                     (sid, "y", i % 2)])
    ds = assemble_dataset(
        static=build_static_samples(
            rows, {"x1": Continuous(), "const": Continuous(),
                   "y": Integer()},
            sample_ids=sample_ids),
        roles=RoleMap.of(covariates=("x1", "const"), targets=("y",)))
    fitted = create("classify.logistic", {"iters": 300}).fit(ds)
    report = permutation_importance(fitted, ds, "accuracy", repeats=5)
    # permuting identical values changes nothing, bit for bit
    assert report.importances[report.features.index("const")] == 0.0


def test_input_dataset_is_not_mutated():
    ds = _noise_classifier_ds(2)
    before_static = ds.static
    fitted = create("classify.logistic", {"iters": 100}).fit(ds)
    permutation_importance(fitted, ds, "accuracy", repeats=2)
    assert ds.static is before_static


def test_survival_importance_over_c_index():
    ds = survival_dataset(3, n=40, effect=2.0)
    fitted = create("survival.cox", {"iters": 150}).fit(ds)
    report = permutation_importance(fitted, ds, "c_index", repeats=5,
                                    seed=1)
    assert report.importances[report.features.index("x")] > 0.0
    report_b = permutation_importance(fitted, ds, "brier@3.0", repeats=3)
    assert report_b.metric == "brier@3.0"


def test_metric_and_sample_guards():
    ds = _noise_classifier_ds(4)
    fitted = create("classify.logistic", {"iters": 50}).fit(ds)
    with pytest.raises(MetricMismatch):
        permutation_importance(fitted, ds, "rmse")
    with pytest.raises(MetricMismatch):
        permutation_importance(fitted, ds, "pehe")
    with pytest.raises(MetricMismatch):
        permutation_importance(fitted, ds, "no_such_metric")
    with pytest.raises(MetricMismatch):
        permutation_importance(fitted, ds, "c_index")
    series = regular_series_dataset(4, n=8, length=6)
    forecaster = create("forecast.ar", {"order": 1}).fit(series)
    with pytest.raises(MetricMismatch, match="forecaster estimator"):
        permutation_importance(forecaster, series, "accuracy")
    scaler = create("scale.zscore").fit(ds)
    with pytest.raises(MetricMismatch, match="transform estimator"):
        permutation_importance(scaler, ds, "accuracy")
    with pytest.raises(TooFewSamples):
        permutation_importance(fitted, ds, "accuracy", repeats=0)

    from tempoframe.data import take_samples
    tiny = take_samples(ds, [0])
    with pytest.raises(TooFewSamples):
        permutation_importance(fitted, tiny, "accuracy")


def test_event_covariates_are_neither_featurized_nor_permuted():
    plain = _noise_classifier_ds(2, n=30)
    events = build_event_samples(
        [(sid, "e", float(i), float(i % 3))
         for i, sid in enumerate(plain.sample_ids)],
        {"e": Continuous()}, sample_ids=plain.sample_ids)
    ds = assemble_dataset(static=plain.static, events=events,
                          roles=RoleMap.of(covariates=("x1", "x2", "e"),
                                           targets=("y",)))
    assert [g[0] for g in covariate_groups(ds)] == ["x1", "x2"]
    assert covariate_matrix(ds) == covariate_matrix(plain)
    fitted = create("classify.logistic", {"iters": 50}).fit(ds)
    report = permutation_importance(fitted, ds, "accuracy", repeats=2)
    assert report.features == ("x1", "x2")


def test_importance_needs_a_matrix_model(monkeypatch):
    logistic = plugins.spec_of("classify.logistic")
    monkeypatch.setitem(plugins._REGISTRY, "test.dataset_logistic", replace(
        logistic, name="test.dataset_logistic", predict_columns=None,
        predict=lambda params, state, ds: logistic.predict_columns(
            params, state, ds.sample_ids, *covariate_matrix(ds))))
    ds = _noise_classifier_ds(4)
    fitted = create("test.dataset_logistic", {"iters": 50}).fit(ds)
    assert fitted.predict(ds) == create(
        "classify.logistic", {"iters": 50}).fit(ds).predict(ds)
    with pytest.raises(MetricMismatch, match="'test.dataset_logistic' has "
                                             "no predict_columns"):
        permutation_importance(fitted, ds, "accuracy")
    # its predictor answers the unshuffled query only
    predict = fitted.predictor(ds)
    assert predict(None, None) == fitted.predict(ds)
    with pytest.raises(MetricMismatch, match="^'test.dataset_logistic' has "
                                             "no predict_columns to permute$"):
        predict("x1", Lcg(0).permutation(len(ds.sample_ids)))


def test_non_finite_score_names_the_feature_and_the_metric(monkeypatch):
    ds = _noise_classifier_ds(7)
    fitted = create("classify.logistic", {"iters": 50}).fit(ds)

    def stub_scores(*values):
        scores = iter(values)
        monkeypatch.setattr(interpret, "resolve_metric", lambda name: (
            MetricSpec(name, "gain", "classify",
                       lambda pred, truth: next(scores))))

    stub_scores(0.75, 0.5, float("nan"))
    with pytest.raises(NonFiniteScore,
                       match=r"^accuracy is nan with feature 'x2' permuted$"):
        permutation_importance(fitted, ds, "accuracy")
    stub_scores(float("inf"))
    with pytest.raises(NonFiniteScore, match=r"^accuracy is inf at baseline$"):
        permutation_importance(fitted, ds, "accuracy")


# ---------------------------------------------------------------------------
# The column path against the dataset-permuting loop
# ---------------------------------------------------------------------------

def _permuted(ds, fid, perm):
    """ds with sample i's value (cell or whole sequence) of feature fid
    taken from sample perm[i]: walked sample by sample, through `cell` or
    `sequence`, and turned into columns only at the end."""
    ids = ds.sample_ids
    if ds.static is not None and fid in ds.static.feature_ids:
        modality, c, at = "static", ds.static, ds.static.cell
    else:
        modality, c, at = "temporal", ds.temporal, ds.temporal.sequence
    rows = {sid: {f: at(ids[p] if f == fid else sid, f)
                  for f in c.feature_ids}
            for sid, p in zip(ids, perm)}
    columns = tuple(tuple(rows[sid][f] for sid in ids)
                    for f in c.feature_ids)
    return replace(ds, **{modality: type(c)(ids, c.features, columns)})


def _importance_oracle(fitted, ds, metric, repeats, seed):
    """(baseline, features, importances) from re-running the whole fitted
    estimator on a permuted copy of ds per feature x repeat, with the
    same Lcg draws and arithmetic as permutation_importance."""
    m = resolve_metric(metric)
    task = TASKS[m.task]
    baseline = m.score(fitted.predict(ds), task.truth(ds))
    rng = Lcg(seed)
    features, importances = [], []
    for fid, _, role, modality in ds.all_features():
        if role is not Role.COVARIATE or modality is Modality.EVENT:
            continue
        total = 0.0
        for _ in range(repeats):
            shuffled = _permuted(ds, fid, rng.permutation(len(ds.sample_ids)))
            score = m.score(fitted.predict(shuffled), task.truth(shuffled))
            if m.direction == "loss":
                total += score - baseline
            else:
                total += baseline - score
        features.append(fid)
        importances.append(total / repeats)
    return baseline, tuple(features), tuple(importances)


def _gappy_ds(seed, n=48):
    """Static `age` and `sex` and irregular temporal `hr` and `lab`, each
    with ~10% Missing cells or points, and a binary target `y`."""
    rng = Lcg(seed)
    ids = [f"p{i:03d}" for i in range(n)]
    rows, points = [], []
    for sid in ids:
        age = rng.uniform_in(30.0, 90.0)
        sex = rng.coin()
        level = rng.normal()
        for fid, v in (("age", age), ("sex", sex)):
            if rng.uniform() >= 0.1:
                rows.append((sid, fid, v))
        for fid, trend in (("hr", 0.0), ("lab", level)):
            t = rng.uniform_in(0.0, 2.0)
            for _ in range(2 + rng.below(4)):
                v = level + trend * t + 0.3 * rng.normal()
                points.append((sid, fid, t,
                               MISSING if rng.uniform() < 0.1 else v))
                t += rng.uniform_in(0.3, 3.0)
        score = 0.04 * (age - 60.0) + 0.5 * sex + level
        rows.append((sid, "y", 1 if score + 0.3 * rng.normal() > 0.3 else 0))
    return assemble_dataset(
        static=build_static_samples(
            rows, {"age": Continuous(), "sex": Integer(), "y": Integer()},
            sample_ids=ids),
        temporal=build_time_series_samples(
            points, {"hr": Continuous(), "lab": Continuous()},
            sample_ids=ids),
        roles=RoleMap.of(covariates=("age", "sex", "hr", "lab"),
                         targets=("y",)))


def _categorical_ds(seed, n=48):
    """A continuous `x`, a static categorical `site` and a temporal
    categorical `state` (2-4 points per sample), and a binary `y`."""
    rng = Lcg(seed)
    ids = [f"p{i:03d}" for i in range(n)]
    sites = ("a", "b", "c")
    rows, points = [], []
    for sid in ids:
        x = rng.uniform_in(-1.0, 1.0)
        site = sites[rng.below(3)]
        highs = 0
        t = rng.uniform_in(0.0, 1.0)
        for _ in range(2 + rng.below(3)):
            state = ("lo", "hi")[rng.coin()]
            highs += state == "hi"
            points.append((sid, "state", t, state))
            t += rng.uniform_in(0.5, 2.0)
        score = x + (0.8 if site == "a" else 0.0) + 0.3 * highs
        rows.extend([(sid, "x", x), (sid, "site", site),
                     (sid, "y", 1 if score + 0.3 * rng.normal() > 0.6 else 0)])
    return assemble_dataset(
        static=build_static_samples(
            rows, {"x": Continuous(), "site": Categorical(sites),
                   "y": Integer()},
            sample_ids=ids),
        temporal=build_time_series_samples(
            points, {"state": Categorical(("lo", "hi"))}, sample_ids=ids),
        roles=RoleMap.of(covariates=("x", "site", "state"), targets=("y",)))


def _mix_transform(params, state, ds):
    """x1 += x2 per sample: per-sample, but not per-feature, so shuffling
    x1 or x2 before it differs from shuffling its output columns."""
    x2 = ds.static.column("x2")
    return map_columns(ds, {"x1": lambda x1: tuple(map(add, x1, x2))})


def _imputed_classifier():
    ds = _gappy_ds(1)
    fitted = build_pipeline([
        ("impute.locf", {}), ("impute.mean", {}), ("scale.zscore", {}),
        ("classify.logistic", {"iters": 150})]).fit(ds)
    return fitted, ds, "accuracy"


def _onehot_classifier():
    ds = _categorical_ds(2)
    fitted = build_pipeline([
        ("encode.onehot", {}),
        ("classify.logistic", {"iters": 150})]).fit(ds)
    return fitted, ds, "accuracy"


def _bare_cox(metric):
    def case():
        ds = survival_dataset(3, n=40, effect=2.0)
        return create("survival.cox", {"iters": 150}).fit(ds), ds, metric
    return case


def _undeclared_front():
    ds = classification_dataset(4, n=48)
    fitted = build_pipeline([
        ("test.mix", {}), ("classify.logistic", {"iters": 150})]).fit(ds)
    return fitted, ds, "accuracy"


# (case, whether importance supports it)
_CASES = {
    "impute-scale": (_imputed_classifier, True),
    "onehot": (_onehot_classifier, True),
    "cox-c_index": (_bare_cox("c_index"), True),
    "cox-brier": (_bare_cox("brier@3.0"), True),
    "undeclared-transform": (_undeclared_front, False),
}


@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_column_path_matches_dataset_oracle(monkeypatch, name, repeats):
    monkeypatch.setitem(plugins._REGISTRY, "test.mix", EstimatorSpec(
        name="test.mix", category=Category.TRANSFORM,
        fit=lambda params, ds: {}, transform=_mix_transform))
    case, supported = _CASES[name]
    fitted, ds, metric = case()
    if not supported:
        with pytest.raises(MetricMismatch,
                           match="'test.mix' does not declare derived_ids"):
            permutation_importance(fitted, ds, metric, repeats, seed=9)
        return
    report = permutation_importance(fitted, ds, metric, repeats, seed=9)
    baseline, features, importances = _importance_oracle(
        fitted, ds, metric, repeats, 9)
    assert report.baseline == baseline
    assert report.features == features
    assert report.importances == importances
    assert any(v != 0.0 for v in importances)
