"""Plugin registry, estimator lifecycle, fingerprints, pipelines,
wrappers, persistence."""

from __future__ import annotations

import json

import pytest

from datagen import classification_dataset, random_dataset, survival_dataset
from tempoframe.data import (
    MISSING,
    Continuous,
    Integer,
    RoleMap,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    select_samples,
)
from tempoframe.errors import (
    AlignmentError,
    BadPipelineShape,
    CorruptBlob,
    DuplicatePlugin,
    FingerprintMismatch,
    FitDiverged,
    IncompatibleInner,
    NotATransform,
    NotFitted,
    ParamOutOfBounds,
    RequirementUnmet,
    UnknownParam,
    UnknownPlugin,
    UnknownPluginInBlob,
    WrongCategory,
)
from tempoframe.plugins import (
    Category,
    EstimatorSpec,
    Param,
    _REGISTRY,
    build_pipeline,
    create,
    dataset_signature,
    fingerprint_of,
    list_specs,
    load_fitted,
    register_plugin,
    resolve_params,
    save_fitted,
    spec_of,
    wrap,
)
from tempoframe.rng import Lcg


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------

def test_param_bounds_and_defaults():
    p = Param("lr", "real", 0.1, lo=0.0, hi=1.0)
    assert p.check(0.5) == 0.5
    assert p.check(1) == 1.0 and isinstance(p.check(1), float)
    with pytest.raises(ParamOutOfBounds):
        p.check(-0.1)
    with pytest.raises(ParamOutOfBounds):
        p.check(1.5)
    with pytest.raises(ParamOutOfBounds):
        p.check(True)


def test_param_types():
    assert Param("k", "integer", 3, lo=1).check(4) == 4
    with pytest.raises(ParamOutOfBounds):
        Param("k", "integer", 3).check(3.5)
    assert Param("mode", "categorical", "a", choices=("a", "b")).check("b") \
        == "b"
    with pytest.raises(ParamOutOfBounds):
        Param("mode", "categorical", "a", choices=("a", "b")).check("c")
    assert Param("flag", "boolean", False).check(True) is True
    assert Param("name", "string", "x").check("y") == "y"
    with pytest.raises(ValueError):
        Param("weird", "complex", 1)
    with pytest.raises(ParamOutOfBounds):
        Param("bad_default", "integer", "nope")


def test_resolve_params():
    schema = (Param("a", "integer", 1), Param("b", "real", 0.5))
    assert resolve_params(schema, {}) == {"a": 1, "b": 0.5}
    assert resolve_params(schema, {"a": 9}) == {"a": 9, "b": 0.5}
    with pytest.raises(UnknownParam):
        resolve_params(schema, {"zzz": 1})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_contents():
    names = [s.name for s in list_specs()]
    assert names == sorted(names)
    for expected in ("impute.locf", "impute.mean", "scale.zscore",
                     "encode.onehot", "resample.regular",
                     "forecast.persistence", "forecast.ar",
                     "classify.logistic", "survival.cox",
                     "treatment.t_learner", "interpret.perm_importance"):
        assert expected in names
    transforms = [s.name for s in list_specs(Category.TRANSFORM)]
    assert transforms == ["encode.onehot", "impute.locf", "impute.mean",
                          "resample.regular", "scale.zscore"]


def test_unknown_and_duplicate_plugins():
    with pytest.raises(UnknownPlugin):
        spec_of("no.such.plugin")
    with pytest.raises(UnknownPlugin):
        create("no.such.plugin")
    with pytest.raises(DuplicatePlugin):
        register_plugin(_REGISTRY["impute.mean"])


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_unfitted_estimator_raises_not_fitted():
    est = create("classify.logistic")
    ds = classification_dataset(0)
    with pytest.raises(NotFitted):
        est.predict(ds)
    with pytest.raises(NotFitted):
        est.transform(ds)
    with pytest.raises(NotFitted):
        est.predict_counterfactuals(ds, (0, 1))


def test_category_gates():
    ds = classification_dataset(1)
    fitted = create("classify.logistic", {"iters": 5}).fit(ds)
    with pytest.raises(NotATransform):
        fitted.transform(ds)
    with pytest.raises(WrongCategory):
        fitted.predict_counterfactuals(ds, (0, 1))
    scaler = create("scale.zscore").fit(ds)
    with pytest.raises(WrongCategory):
        scaler.predict(ds)


def test_transform_checks_requirements_on_the_query(monkeypatch):
    def need_four(params, ds):
        if len(ds.sample_ids) < 4:
            raise RequirementUnmet("too_few_samples",
                                   f"{len(ds.sample_ids)} < 4")

    calls = []
    monkeypatch.setitem(_REGISTRY, "test.needs_four", EstimatorSpec(
        name="test.needs_four", category=Category.TRANSFORM,
        fit=lambda params, ds: {},
        transform=lambda params, state, ds: calls.append(ds) or ds,
        requirements=need_four))
    ds = classification_dataset(5, n=10)
    fitted = create("test.needs_four").fit(ds)
    assert fitted.transform(ds) is ds and len(calls) == 1
    with pytest.raises(RequirementUnmet) as exc:
        fitted.transform(select_samples(ds, ds.sample_ids[:2]))
    assert exc.value.reason == "too_few_samples"
    assert len(calls) == 1


def test_fit_does_not_mutate_estimator_inputs():
    ds = classification_dataset(2)
    before = (ds.static, ds.roles.assignment)
    create("classify.logistic", {"iters": 5}).fit(ds)
    assert (ds.static, ds.roles.assignment) == before


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_is_order_and_content_sensitive():
    ds = random_dataset(21)
    assert fingerprint_of(ds) == fingerprint_of(ds)
    sig = dataset_signature(ds)
    assert len(sig) == len(ds.all_features())


def test_predict_requires_exact_fingerprint():
    ds = classification_dataset(3)
    fitted = create("classify.logistic", {"iters": 5}).fit(ds)
    assert fitted.fingerprint == fingerprint_of(ds)
    fitted.predict(ds)

    # an extra feature changes the fingerprint
    rows = ds.static.to_rows() + [(sid, "extra", 0.0)
                                  for sid in ds.sample_ids]
    kinds = dict(ds.static.features)
    kinds["extra"] = Continuous()
    bigger = assemble_dataset(
        static=build_static_samples(rows, kinds,
                                    sample_ids=list(ds.sample_ids)),
        roles=RoleMap.of(covariates=("x1", "x2", "extra"), targets=("y",)))
    with pytest.raises(FingerprintMismatch):
        fitted.predict(bigger)


def test_transform_accepts_supersets_but_not_changes():
    ds = classification_dataset(4)
    scaler = create("scale.zscore").fit(ds)

    rows = ds.static.to_rows() + [(sid, "extra", 1) for sid in ds.sample_ids]
    kinds = dict(ds.static.features)
    kinds["extra"] = Integer()
    bigger = assemble_dataset(
        static=build_static_samples(rows, kinds,
                                    sample_ids=list(ds.sample_ids)),
        roles=RoleMap.of(covariates=("x1", "x2", "extra"), targets=("y",)))
    out = scaler.transform(bigger)
    assert out.static.column("extra") == bigger.static.column("extra")

    # same feature id with a different kind is a mismatch
    rows = [(sid, "x1", 0) for sid in ds.sample_ids] + \
        [(sid, "x2", v) for sid, v in zip(ds.sample_ids,
                                          ds.static.column("x2"))] + \
        [(sid, "y", v) for sid, v in zip(ds.sample_ids,
                                         ds.static.column("y"))]
    changed = assemble_dataset(
        static=build_static_samples(
            rows, {"x1": Integer(), "x2": Continuous(), "y": Integer()},
            sample_ids=list(ds.sample_ids)),
        roles=RoleMap.of(covariates=("x1", "x2"), targets=("y",)))
    with pytest.raises(FingerprintMismatch):
        scaler.transform(changed)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def test_pipeline_equals_manual_composition():
    ds = classification_dataset(5)
    pipeline = build_pipeline([("scale.zscore", {}),
                               ("classify.logistic", {"iters": 50})])
    fitted = pipeline.fit(ds)
    pred = fitted.predict(ds)

    scaler = create("scale.zscore").fit(ds)
    scaled = scaler.transform(ds)
    clf = create("classify.logistic", {"iters": 50}).fit(scaled)
    manual = clf.predict(scaler.transform(ds))
    assert pred == manual


def test_pipeline_shape_checks():
    with pytest.raises(BadPipelineShape):
        build_pipeline([])
    with pytest.raises(BadPipelineShape):
        build_pipeline([("classify.logistic", {}), ("scale.zscore", {})])
    with pytest.raises(BadPipelineShape):
        build_pipeline([("interpret.perm_importance", {})])


def test_pipeline_of_transforms_is_a_transform():
    ds = classification_dataset(6)
    pipeline = build_pipeline([("impute.mean", {}), ("scale.zscore", {})])
    fitted = pipeline.fit(ds)
    out = fitted.transform(ds)
    assert out.sample_ids == ds.sample_ids
    with pytest.raises(WrongCategory):
        fitted.predict(ds)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def test_wrapper_delegates_predict():
    ds = classification_dataset(7)
    inner = create("classify.logistic", {"iters": 20}).fit(ds)
    wrapped = wrap(inner, "interpret.perm_importance",
                   {"metric": "accuracy"})
    assert wrapped.predict(ds) == inner.predict(ds)
    assert wrapped.effective_category() is Category.PREDICTOR

    double = wrap(wrapped, "interpret.perm_importance",
                  {"metric": "accuracy"})
    assert double.predict(ds) == inner.predict(ds)
    assert double.effective_category() is Category.PREDICTOR


def test_wrapper_rejects_transforms():
    ds = classification_dataset(8)
    scaler = create("scale.zscore").fit(ds)
    with pytest.raises(IncompatibleInner):
        wrap(scaler, "interpret.perm_importance", {"metric": "accuracy"})
    inner = create("classify.logistic", {"iters": 5}).fit(ds)
    with pytest.raises(WrongCategory):
        wrap(inner, "classify.logistic", {})


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip_plain():
    ds = classification_dataset(9)
    fitted = create("classify.logistic", {"iters": 30}).fit(ds)
    blob = save_fitted(fitted)
    loaded = load_fitted(blob)
    assert loaded.spec.name == "classify.logistic"
    assert loaded.params == fitted.params
    assert loaded.state == fitted.state
    assert loaded.fingerprint == fitted.fingerprint
    assert loaded.predict(ds) == fitted.predict(ds)


def test_save_load_round_trip_pipeline_and_wrapper():
    ds = classification_dataset(10)
    fitted = build_pipeline([("scale.zscore", {}),
                             ("classify.logistic", {"iters": 30})]).fit(ds)
    loaded = load_fitted(save_fitted(fitted))
    assert loaded.predict(ds) == fitted.predict(ds)

    wrapped = wrap(create("classify.logistic", {"iters": 10}).fit(ds),
                   "interpret.perm_importance", {"metric": "accuracy"})
    loaded = load_fitted(save_fitted(wrapped))
    assert loaded.predict(ds) == wrapped.predict(ds)


def test_save_load_survival_state():
    ds = survival_dataset(11)
    fitted = create("survival.cox", {"iters": 50}).fit(ds)
    loaded = load_fitted(save_fitted(fitted))
    out_a = fitted.predict(ds)
    out_b = loaded.predict(ds)
    assert out_a.risks == out_b.risks
    assert out_a == out_b


@pytest.mark.parametrize("name", ["classify.logistic", "survival.cox"])
def test_blob_with_reordered_columns_is_rejected(name):
    # the features keep the fingerprint; only the stored column order lies
    cls = classification_dataset(13, n=30)
    rng = Lcg(13)
    events = build_event_samples(
        [(sid, "death", rng.uniform_in(1.0, 5.0),
          1 if rng.uniform() < 0.7 else MISSING) for sid in cls.sample_ids],
        {"death": Integer()}, sample_ids=cls.sample_ids)
    ds = assemble_dataset(static=cls.static, events=events,
                          roles=RoleMap.of(covariates=("x1", "x2"),
                                           targets=("y", "death")))
    doc = json.loads(save_fitted(create(name, {"iters": 20}).fit(ds)))
    doc["fitted"]["state"]["columns"].reverse()
    loaded = load_fitted(json.dumps(doc).encode("utf-8"))
    with pytest.raises(AlignmentError,
                       match=r"trained on \['x2', 'x1'\], got \['x1', 'x2'\]"):
        loaded.predict(ds)


def test_save_refuses_non_finite_state_naming_the_plugin():
    # the mean of two 1.7e308 values overflows, so the stats are inf
    static = build_static_samples([("a", "x", 1.7e308), ("b", "x", 1.7e308)],
                                  {"x": Continuous()})
    ds = assemble_dataset(static=static, roles=RoleMap.of(covariates=("x",)))
    fitted = create("scale.zscore").fit(ds)
    with pytest.raises(FitDiverged, match="^scale.zscore: "):
        save_fitted(fitted)


def test_corrupt_blobs():
    with pytest.raises(CorruptBlob):
        load_fitted(b"not json at all {{{")
    with pytest.raises(CorruptBlob):
        load_fitted(b'{"format": "something.else", "version": 1}')
    with pytest.raises(CorruptBlob):
        load_fitted(b'{"format": "tempoframe.fitted", "version": 99, '
                    b'"fitted": {}}')
    ds = classification_dataset(12)
    blob = save_fitted(create("classify.logistic", {"iters": 5}).fit(ds))
    hacked = blob.replace(b"classify.logistic", b"classify.missing12")
    with pytest.raises(UnknownPluginInBlob):
        load_fitted(hacked)
