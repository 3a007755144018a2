"""Plugin registry, estimator lifecycle, fingerprints, pipelines,
persistence, public names."""

from __future__ import annotations

import json
import math
import os
import re

import pytest

import tempoframe
from datagen import classification_dataset, static_rows, survival_dataset
from tempoframe.cli import cli
from tempoframe.data import (
    MISSING,
    Continuous,
    Integer,
    RoleMap,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    take_samples,
)
from tempoframe.errors import (
    AlignmentError,
    BadPipelineShape,
    CorruptBlob,
    DuplicatePlugin,
    FingerprintMismatch,
    FitDiverged,
    InvalidSpec,
    NotATransform,
    NotFitted,
    ParamOutOfBounds,
    UnknownParam,
    UnknownPlugin,
    UnknownPluginInBlob,
    WrongCategory,
)
from tempoframe.interpret import permutation_importance
from tempoframe.plugins import (
    Category,
    Estimator,
    EstimatorSpec,
    FittedEstimator,
    Param,
    _REGISTRY,
    build_pipeline,
    create,
    dataset_signature,
    list_specs,
    load_fitted,
    register_plugin,
    resolve_params,
    save_fitted,
    spec_of,
)
from tempoframe.rng import Lcg
from tempoframe.treatment import synth_treatment_data


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
    for gone in ("complex", "boolean", "string", "categorical"):
        with pytest.raises(ValueError, match=f"bad param type '{gone}'"):
            Param("weird", gone, 1)
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
                     "treatment.t_learner"):
        assert expected in names
    transforms = [s.name for s in list_specs(Category.TRANSFORM)]
    assert transforms == ["encode.onehot", "impute.locf", "impute.mean",
                          "resample.regular", "scale.zscore"]


def _readme() -> str:
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as f:
        return f.read()


def test_readme_plugin_table_matches_the_registry():
    table = _readme().split("## Shipped plugins", 1)[1].split("\n\n", 2)[1]
    rows = [re.match(r"\| `([^`]+)` \| (\w+) \|", line)
            for line in table.splitlines()[2:]]
    assert sorted(m.groups() for m in rows) == \
        [(s.name, s.category.value) for s in list_specs()]


def test_readme_quick_tour_prints_the_line_it_shows(capsys):
    tour = _readme().split("## Quick tour\n", 1)[1]
    code, shown = re.findall(r"```\w*\n(.*?)```", tour, re.S)[:2]
    exec(compile(code, "README quick tour", "exec"), {})
    assert capsys.readouterr().out == shown


def test_importance_is_not_a_plugin(capsys):
    assert cli(["plugins", "--category", "wrapper"]) == 2
    assert "invalid choice: 'wrapper'" in capsys.readouterr().err
    ds = classification_dataset(15, n=12)
    blob = save_fitted(create("classify.logistic", {"iters": 5}).fit(ds))
    with pytest.raises(UnknownPluginInBlob,
                       match="unregistered plugin 'interpret.perm_importance'"):
        load_fitted(blob.replace(b"classify.logistic",
                                 b"interpret.perm_importance"))


def test_unknown_and_duplicate_plugins():
    with pytest.raises(UnknownPlugin):
        spec_of("no.such.plugin")
    with pytest.raises(UnknownPlugin):
        create("no.such.plugin")
    with pytest.raises(DuplicatePlugin):
        register_plugin(_REGISTRY["impute.mean"])


@pytest.mark.parametrize("schema", [
    (),
    (Param("steps", "integer", 1, lo=1),),
    (Param("horizon", "real", 1.0, lo=1.0),),
    (Param("horizon", "integer", 1),),
    (Param("horizon", "integer", 1, lo=0),),
])
def test_forecaster_must_declare_its_horizon(schema):
    # The forecast task holds out `horizon` points per series; without
    # such a param a run used to fail with a raw KeyError at scoring.
    before = dict(_REGISTRY)
    with pytest.raises(InvalidSpec, match="'horizon'"):
        register_plugin(EstimatorSpec(
            name="test.no_horizon", category=Category.FORECASTER,
            schema=schema, fit=lambda params, ds: {},
            predict=lambda params, state, ds: None))
    assert _REGISTRY == before
    for name in ("forecast.ar", "forecast.persistence"):
        assert "horizon" in {p.name for p in spec_of(name).schema}


def _noop(*args):
    return {}


@pytest.mark.parametrize("category,functions,needed", [
    (Category.CLASSIFIER, {"predict_columns": _noop},
     "predict or predict_columns"),
    (Category.TRANSFORM, {"fit": _noop, "predict": _noop}, "transform"),
    (Category.FORECASTER, {"fit": _noop, "transform": _noop},
     "predict or predict_columns"),
    (Category.CLASSIFIER, {"fit": _noop}, "predict or predict_columns"),
    (Category.SURVIVAL, {"fit": _noop, "predict_counterfactuals": _noop},
     "predict or predict_columns"),
    (Category.TREATMENT, {"fit": _noop, "predict": _noop},
     "predict_counterfactuals"),
], ids=["no-fit", "transform", "forecaster", "classifier", "survival",
        "treatment"])
def test_register_refuses_a_spec_that_cannot_run(category, functions,
                                                 needed):
    # such a spec used to fail only when called, with a raw TypeError
    before = dict(_REGISTRY)
    with pytest.raises(InvalidSpec, match=(
            f"^{category.value} 'test.cannot_run' must set fit and "
            f"{needed}$")):
        register_plugin(EstimatorSpec(
            name="test.cannot_run", category=category,
            schema=(Param("horizon", "integer", 1, lo=1),), **functions))
    assert _REGISTRY == before


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


def test_fit_does_not_mutate_estimator_inputs():
    ds = classification_dataset(2)
    before = (ds.static, ds.roles.assignment)
    create("classify.logistic", {"iters": 5}).fit(ds)
    assert (ds.static, ds.roles.assignment) == before


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_is_order_and_content_sensitive():
    ds = classification_dataset(21)
    fitted = create("classify.logistic", {"iters": 5}).fit(ds)
    rows, kinds = static_rows(ds.static), dict(ds.static.features)
    roles = RoleMap.of(covariates=("x1", "x2"), targets=("y",))

    def variant(kinds, roles=roles, rows=rows):
        return assemble_dataset(static=build_static_samples(rows, kinds),
                                roles=roles)

    assert dataset_signature(variant(kinds)) == fitted.features
    # features take the order of their first row, so x2's rows go first
    reordered = variant(kinds, rows=sorted(rows, key=lambda r: r[1] != "x2"))
    assert sorted(dataset_signature(reordered)) == sorted(fitted.features)
    for other in (reordered,
                  variant({**kinds, "y": Continuous()}),
                  variant(kinds, RoleMap.of(covariates=("x1", "x2"),
                                            treatments=("y",)))):
        assert dataset_signature(other) != fitted.features
        with pytest.raises(FingerprintMismatch, match=(
                "^query features differ from training features for "
                "'classify.logistic'")):
            fitted.predict(other)


def test_predict_requires_exact_fingerprint():
    ds = classification_dataset(3)
    fitted = create("classify.logistic", {"iters": 5}).fit(ds)
    assert fitted.features == dataset_signature(ds)
    fitted.predict(ds)

    # an extra feature changes the fingerprint
    rows = static_rows(ds.static) + [(sid, "extra", 0.0)
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

    rows = static_rows(ds.static) + [(sid, "extra", 1)
                                     for sid in ds.sample_ids]
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


def _static_like(ds, order, extra=None):
    """ds with its static features in `order`, plus an `extra` integer
    covariate when given."""
    rows = [(sid, fid, v) for fid in order
            for sid, v in zip(ds.sample_ids, ds.static.column(fid))]
    kinds = {fid: dict(ds.static.features)[fid] for fid in order}
    covariates = [fid for fid in order if fid != "y"]
    if extra is not None:
        rows += [(sid, extra, 1) for sid in ds.sample_ids]
        kinds[extra] = Integer()
        covariates.append(extra)
    return assemble_dataset(
        static=build_static_samples(rows, kinds,
                                    sample_ids=list(ds.sample_ids)),
        roles=RoleMap.of(covariates=tuple(covariates), targets=("y",)))


def test_pipeline_is_its_last_step_with_a_front():
    ds = classification_dataset(7)
    pipeline = build_pipeline([("impute.mean", {}), ("scale.zscore", {}),
                               ("classify.logistic", {"iters": 20})])
    assert type(pipeline) is Estimator
    assert pipeline.spec is spec_of("classify.logistic")
    assert pipeline.params == create("classify.logistic",
                                     {"iters": 20}).params
    assert [e.spec.name for e in pipeline.front] == ["impute.mean",
                                                      "scale.zscore"]
    fitted = pipeline.fit(ds)
    assert fitted.spec is pipeline.spec
    assert [f.spec.name for f in fitted.front] == ["impute.mean",
                                                   "scale.zscore"]
    assert all(f.front == () for f in fitted.front)
    assert fitted.features == dataset_signature(fitted.run_front(ds))


@pytest.mark.parametrize("query", ["extra", "reordered"])
def test_fitted_pipeline_refuses_changed_query_features(query):
    # Each front step accepts a superset of its training features and
    # keeps extra features in order, so the last step's exact check sees
    # the change and names that step.
    ds = classification_dataset(8)
    fitted = build_pipeline([("impute.mean", {}), ("scale.zscore", {}),
                             ("classify.logistic", {"iters": 20})]).fit(ds)
    fitted.predict(_static_like(ds, ("x1", "x2", "y")))
    changed = (_static_like(ds, ("x1", "x2", "y"), extra="extra")
               if query == "extra" else _static_like(ds, ("x2", "x1", "y")))
    for f in (fitted, load_fitted(save_fitted(fitted))):
        with pytest.raises(FingerprintMismatch,
                           match="training features for 'classify.logistic'"):
            f.predict(changed)
        with pytest.raises(FingerprintMismatch,
                           match="training features for 'classify.logistic'"):
            permutation_importance(f, changed, "accuracy")


def test_pipeline_shape_checks():
    with pytest.raises(BadPipelineShape):
        build_pipeline([])
    with pytest.raises(BadPipelineShape):
        build_pipeline([("classify.logistic", {}), ("scale.zscore", {})])


def test_pipeline_of_transforms_is_a_transform():
    ds = classification_dataset(6)
    pipeline = build_pipeline([("impute.mean", {}), ("scale.zscore", {})])
    fitted = pipeline.fit(ds)
    out = fitted.transform(ds)
    assert out.sample_ids == ds.sample_ids
    with pytest.raises(WrongCategory):
        fitted.predict(ds)


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
    assert loaded.features == fitted.features
    assert loaded.predict(ds) == fitted.predict(ds)
    # the features are the blob's one record of the training features; a
    # stale `fingerprint` key, as older blobs hold, is never read
    doc = json.loads(blob)
    assert "fingerprint" not in doc["fitted"]
    doc["fitted"]["fingerprint"] = "0" * 64
    assert load_fitted(json.dumps(doc).encode("utf-8")).predict(ds) == \
        fitted.predict(ds)


def test_save_load_round_trip_pipeline_and_wrapper():
    ds = classification_dataset(10)
    fitted = build_pipeline([("scale.zscore", {}),
                             ("classify.logistic", {"iters": 30})]).fit(ds)
    loaded = load_fitted(save_fitted(fitted))
    assert loaded.predict(ds) == fitted.predict(ds)


def test_blob_is_the_last_step_with_a_front_list():
    ds = classification_dataset(16)
    fitted = build_pipeline([("impute.mean", {}), ("scale.zscore", {}),
                             ("classify.logistic", {"iters": 5})]).fit(ds)
    doc = json.loads(save_fitted(fitted))
    assert doc["version"] == 2
    assert doc["fitted"]["plugin"] == "classify.logistic"
    assert [d["plugin"] for d in doc["fitted"]["front"]] == \
        ["impute.mean", "scale.zscore"]
    assert all("front" not in d for d in doc["fitted"]["front"])
    assert json.loads(save_fitted(create("scale.zscore").fit(ds)))[
        "fitted"]["front"] == []
    # version 1 stored a pipeline as a "__pipeline__" document with steps
    v1 = dict(doc, version=1)
    with pytest.raises(CorruptBlob, match="^unsupported blob version 1$"):
        load_fitted(json.dumps(v1).encode("utf-8"))
    del doc["fitted"]["front"]
    with pytest.raises(CorruptBlob, match="^fitted is missing 'front'$"):
        load_fitted(json.dumps(doc).encode("utf-8"))


def test_save_load_survival_state():
    ds = survival_dataset(11)
    fitted = create("survival.cox", {"iters": 50}).fit(ds)
    loaded = load_fitted(save_fitted(fitted))
    out_a = fitted.predict(ds)
    out_b = loaded.predict(ds)
    assert out_a.risks == out_b.risks
    assert out_a == out_b


@pytest.mark.parametrize("name", ["classify.logistic", "survival.cox",
                                  "treatment.t_learner"])
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
    params, query = {"iters": 20}, lambda f: f.predict(ds)
    if name == "treatment.t_learner":
        ds = synth_treatment_data(30, 13, tau0=1.0).dataset
        params, query = {}, lambda f: f.predict_counterfactuals(ds, (0, 1))
    doc = json.loads(save_fitted(create(name, params).fit(ds)))
    doc["fitted"]["state"]["columns"].reverse()
    loaded = load_fitted(json.dumps(doc).encode("utf-8"))
    with pytest.raises(AlignmentError,
                       match=r"trained on \['x2', 'x1'\], got \['x1', 'x2'\]"):
        query(loaded)


@pytest.mark.parametrize("cut", [1, -3], ids=["one-weight", "three-more"])
@pytest.mark.parametrize("name", ["classify.logistic", "survival.cox",
                                  "treatment.t_learner"])
def test_blob_with_the_wrong_number_of_weights_is_rejected(name, cut):
    # each model here is trained on two covariate columns, x1 and x2
    ds = classification_dataset(13, n=30)
    params, query, key = {"iters": 20}, lambda f: f.predict(ds), "weights"
    if name == "survival.cox":
        events = build_event_samples(
            [(sid, "death", 1.0 + i % 5, 1)
             for i, sid in enumerate(ds.sample_ids)],
            {"death": Integer()}, sample_ids=ds.sample_ids)
        ds = assemble_dataset(static=ds.static, events=events,
                              roles=RoleMap.of(covariates=("x1", "x2"),
                                               targets=("y", "death")))
        key = "beta"
    if name == "treatment.t_learner":
        ds = synth_treatment_data(30, 13, tau0=1.0).dataset
        params, query = {}, lambda f: f.predict_counterfactuals(ds, (0, 1))
    doc = json.loads(save_fitted(create(name, params).fit(ds)))
    state = doc["fitted"]["state"]
    # a t_learner arm holds its intercept, then one weight per column
    vectors = list(state["arms"].values()) if key not in state \
        else [state[key]]
    for w in vectors:
        if cut > 0:
            del w[-cut:]
        else:
            w.extend([0.5] * -cut)
    n = 2 - cut
    loaded = load_fitted(json.dumps(doc).encode("utf-8"))
    with pytest.raises(AlignmentError,
                       match=rf"^model has {n} weights for 2 columns$"):
        query(loaded)


def test_save_refuses_non_finite_state_naming_the_plugin():
    # the mean of two 1.7e308 values overflows: the zscore fit refuses it,
    # and a blob refuses such stats set by hand
    static = build_static_samples([("a", "x", 1.7e308), ("b", "x", 1.7e308)],
                                  {"x": Continuous()})
    ds = assemble_dataset(static=static, roles=RoleMap.of(covariates=("x",)))
    with pytest.raises(FitDiverged, match=re.escape(
            "scale.zscore of 'x': mean is not finite (inf)")):
        create("scale.zscore").fit(ds)
    fitted = create("scale.zscore").fit(take_samples(ds, [0]))
    fitted = FittedEstimator(fitted.spec, fitted.params,
                             {"stats": {"x": [math.inf, math.inf]}},
                             fitted.features)
    with pytest.raises(FitDiverged, match="^scale.zscore: "):
        save_fitted(fitted)


def test_blob_with_edited_features_fails_its_first_query():
    # predict and transform both check the stored features, so a blob
    # whose features were edited loads and refuses its first query
    ds = classification_dataset(14, n=20)
    for name, params, query in (
            ("classify.logistic", {"iters": 5}, lambda f: f.predict(ds)),
            ("scale.zscore", {}, lambda f: f.transform(ds))):
        doc = json.loads(save_fitted(create(name, params).fit(ds)))
        for t in doc["fitted"]["features"]:
            t[0] = f"{t[0]}_renamed"
        loaded = load_fitted(json.dumps(doc).encode("utf-8"))
        with pytest.raises(FingerprintMismatch, match=f" for '{name}'"):
            query(loaded)


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
    # stored features that are not (id, kind, role, modality) strings
    for features in ([["x1"]], [[]], [[["x1"], "k", "r", "m"]]):
        doc = json.loads(blob)
        doc["fitted"]["features"] = features
        with pytest.raises(CorruptBlob, match=(
                "^'classify.logistic': stored features are malformed$")):
            load_fitted(json.dumps(doc).encode("utf-8"))


@pytest.mark.parametrize("edit, held", [
    (lambda doc: doc.pop("fitted"), "blob is missing 'fitted'"),
    (lambda doc: doc["fitted"].pop("plugin"), "fitted is missing 'plugin'"),
    (lambda doc: doc["fitted"]["front"].append([]),
     "front step 1 must be an object"),
    (lambda doc: doc["fitted"].pop("state"), "fitted is missing 'state'"),
    (lambda doc: doc["fitted"]["front"][0].pop("params"),
     "front step 0 is missing 'params'"),
    (lambda doc: doc["fitted"].update(params=5),
     "fitted 'params' must be an object"),
    (lambda doc: doc["fitted"]["front"][0].update(params=5),
     "front step 0 'params' must be an object"),
    (lambda doc: doc["fitted"].update(plugin=[]),
     "fitted 'plugin' must be a string"),
    (lambda doc: doc["fitted"].update(state=5),
     "fitted 'state' must be an object"),
], ids=["no-fitted", "no-plugin", "front-not-a-document", "no-state",
        "front-no-params", "params-not-an-object",
        "front-params-not-an-object", "plugin-not-a-string",
        "state-not-an-object"])
def test_a_blob_with_a_malformed_document_is_corrupt(edit, held):
    ds = classification_dataset(12)
    doc = json.loads(save_fitted(build_pipeline([
        ("scale.zscore", {}), ("classify.logistic", {"iters": 5})]).fit(ds)))
    edit(doc)
    with pytest.raises(CorruptBlob, match=f"^{re.escape(held)}$"):
        load_fitted(json.dumps(doc).encode("utf-8"))


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------

def test_every_public_name_resolves():
    assert len(set(tempoframe.__all__)) == len(tempoframe.__all__)
    assert [n for n in tempoframe.__all__ if not hasattr(tempoframe, n)] == []
    namespace = {}
    exec("from tempoframe import *", namespace)
    assert set(tempoframe.__all__) <= set(namespace)
