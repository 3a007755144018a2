"""Forecasting baselines, the logistic classifier, rmse/accuracy."""

from __future__ import annotations

import math

import pytest

from datagen import (
    classification_dataset,
    offset_grid_dataset,
    regular_series_dataset,
    sequence_of,
)
from tempoframe.data import (
    Categorical,
    Continuous,
    Dataset,
    Integer,
    MISSING,
    Modality,
    Role,
    RoleMap,
    StaticSamples,
    TimeSeriesSamples,
    assemble_dataset,
    build_static_samples,
    build_time_series_samples,
    take_samples,
)
from tempoframe.errors import (
    AlignmentError,
    BenchError,
    EmptyInput,
    EmptyTargetSeries,
    InsufficientHistory,
    InvalidStep,
    IrregularSeries,
    MetricMismatch,
    MissingInTarget,
    MultipleTargets,
    NonBinaryTarget,
    RequirementUnmet,
)
from tempoframe.forecasting import _regular_values
from tempoframe.interpret import permutation_importance
from tempoframe.metrics import (
    _holdout_forecast,
    accuracy,
    rmse,
    static_target_table,
)
from tempoframe.plugins import FittedEstimator, build_pipeline, create
from tempoframe.rng import Lcg


def _series_ds(per_sample_values, step=1.0, fid="y", covariate=None):
    """One temporal target per sample from a list of value lists."""
    points = []
    sample_ids = []
    for i, values in enumerate(per_sample_values):
        sid = f"s{i:02d}"
        sample_ids.append(sid)
        for k, v in enumerate(values):
            points.append((sid, fid, k * step, v))
        if covariate is not None:
            points.append((sid, covariate, 0.0, 1.0))
    kinds = {fid: Continuous()}
    cov = covariate or "pad"
    if covariate is None:
        for sid in sample_ids:
            points.append((sid, cov, 0.0, 0.0))
    kinds[cov] = Continuous()
    temporal = build_time_series_samples(points, kinds,
                                         sample_ids=sample_ids)
    return assemble_dataset(
        temporal=temporal,
        roles=RoleMap.of(covariates=(cov,), targets=(fid,)))


def _ar_series(n, *, coefs, c, start, seed=0):
    rng = Lcg(seed)
    order = len(coefs)
    values = list(start)
    assert len(values) == order
    for _ in range(n - order):
        nxt = c
        for i, phi in enumerate(coefs):
            nxt += phi * values[-1 - i]
        values.append(nxt)
    del rng
    return values


# ---------------------------------------------------------------------------
# forecast.persistence
# ---------------------------------------------------------------------------

def test_persistence_repeats_last_observed():
    ds = _series_ds([[1.0, 2.0, 5.0], [4.0, MISSING, MISSING]])
    fitted = create("forecast.persistence",
                    {"horizon": 3, "step": 1.0}).fit(ds)
    out = fitted.predict(ds)
    assert out.sequence("s00", "y") == ((3.0, 4.0, 5.0), (5.0, 5.0, 5.0))
    # the forecast grid is anchored at the last OBSERVED point's time
    assert out.sequence("s01", "y") == ((1.0, 2.0, 3.0), (4.0, 4.0, 4.0))


def test_persistence_rejects_fully_missing_series():
    ds = _series_ds([[MISSING, MISSING]])
    fitted = create("forecast.persistence",
                    {"horizon": 1, "step": 1.0}).fit(ds)
    with pytest.raises(EmptyTargetSeries):
        fitted.predict(ds)


def test_forecast_requires_temporal_target():
    static = build_static_samples([("a", "x", 1.0)], {"x": Continuous()},
                                  sample_ids=["a"])
    ds = assemble_dataset(static=static,
                          roles=RoleMap.of(covariates=("x",)))
    with pytest.raises(RequirementUnmet) as exc:
        create("forecast.persistence", {}).fit(ds)
    assert exc.value.reason == "missing_temporal_target"


def test_forecast_rejects_categorical_target():
    temporal = build_time_series_samples(
        [("a", "state", 0.0, "lo"), ("a", "x", 0.0, 1.0)],
        {"state": Categorical(("hi", "lo")), "x": Continuous()},
        sample_ids=["a"])
    ds = assemble_dataset(
        temporal=temporal,
        roles=RoleMap.of(covariates=("x",), targets=("state",)))
    with pytest.raises(RequirementUnmet) as exc:
        create("forecast.persistence", {}).fit(ds)
    assert exc.value.reason == "non_numeric_feature"


@pytest.mark.parametrize("name", ["forecast.persistence", "forecast.ar"])
def test_forecast_fit_checks_step_first(name):
    ds = _series_ds([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])
    for step in (0.0, -1.0):
        with pytest.raises(InvalidStep):
            create(name, {"step": step}).fit(ds)
    # before the target: a dataset without one fails on the step too
    static = build_static_samples([("a", "x", 1.0)], {"x": Continuous()})
    no_target = assemble_dataset(static=static,
                                 roles=RoleMap.of(covariates=("x",)))
    with pytest.raises(InvalidStep):
        create(name, {"step": 0.0}).fit(no_target)


# ---------------------------------------------------------------------------
# forecast.ar
# ---------------------------------------------------------------------------

def test_ar1_recovers_noiseless_coefficients():
    series = [_ar_series(30, coefs=[0.8], c=0.5, start=[s])
              for s in (1.0, -2.0, 4.0)]
    ds = _series_ds(series)
    fitted = create("forecast.ar",
                    {"order": 1, "horizon": 5, "step": 1.0}).fit(ds)
    model = fitted.state["models"]["y"]
    assert abs(model["c"] - 0.5) <= 1e-6
    assert abs(model["phi"][0] - 0.8) <= 1e-6
    out = fitted.predict(ds)
    last = series[0][-1]
    for k, (t, v) in enumerate(zip(*out.sequence("s00", "y"))):
        last = 0.5 + 0.8 * last
        assert t == 29.0 + (k + 1) * 1.0
        assert abs(v - last) <= 1e-6


def test_ar2_recovers_noiseless_coefficients():
    series = [_ar_series(40, coefs=[0.5, 0.3], c=0.2, start=s)
              for s in ([1.0, 0.5], [-1.0, 2.0])]
    ds = _series_ds(series)
    fitted = create("forecast.ar",
                    {"order": 2, "horizon": 2, "step": 1.0}).fit(ds)
    model = fitted.state["models"]["y"]
    assert abs(model["c"] - 0.2) <= 1e-6
    assert abs(model["phi"][0] - 0.5) <= 1e-6
    assert abs(model["phi"][1] - 0.3) <= 1e-6


def test_ar_unit_root_state_equals_persistence():
    ds = _series_ds([[2.0, 3.5, -1.0, 7.25], [0.5, 0.5, 0.5, 0.5]])
    params = {"order": 1, "horizon": 4, "step": 1.0}
    ar = create("forecast.ar", params).fit(ds)
    snapped = FittedEstimator(
        ar.spec, ar.params,
        {"models": {"y": {"c": 0.0, "phi": [1.0]}}},
        ar.features)
    persistence = create("forecast.persistence",
                         {"horizon": 4, "step": 1.0}).fit(ds)
    assert snapped.predict(ds) == persistence.predict(ds)


def test_ar_rejects_irregular_and_missing_series():
    temporal = build_time_series_samples(
        [("a", "y", 0.0, 1.0), ("a", "y", 1.0, 2.0), ("a", "y", 2.5, 3.0),
         ("a", "x", 0.0, 0.0)],
        {"y": Continuous(), "x": Continuous()}, sample_ids=["a"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("x",),
                                           targets=("y",)))
    with pytest.raises(IrregularSeries):
        create("forecast.ar", {"order": 1}).fit(ds)

    ds = _series_ds([[1.0, MISSING, 3.0]])
    with pytest.raises(MissingInTarget):
        create("forecast.ar", {"order": 1}).fit(ds)


def test_ar_insufficient_history():
    ds = _series_ds([[1.0, 2.0]])
    with pytest.raises(InsufficientHistory):
        create("forecast.ar", {"order": 2}).fit(ds)

    train = _series_ds([[1.0, 2.0, 3.0, 4.0]])
    fitted = create("forecast.ar", {"order": 3, "horizon": 1}).fit(train)
    short = _series_ds([[1.0, 2.0]])
    with pytest.raises(InsufficientHistory):
        fitted.predict(short)


def test_ar_forecast_continues_the_history_grid():
    step = 0.1
    ds = offset_grid_dataset(5, step=step)
    out = create("forecast.ar", {"order": 2, "horizon": 3,
                                 "step": step}).fit(ds).predict(ds)
    off_grid = 0
    for sid in ds.sample_ids:
        times, values = ds.temporal.sequence(sid, "y")
        grid, forecast = out.sequence(sid, "y")
        t0 = times[0]
        assert list(grid) == \
            [t0 + (len(times) + k) * step for k in range(3)]
        _regular_values(times + grid, values + forecast, step, 1, sid, "y")
        off_grid += any(t != times[-1] + (k + 1) * step
                        for k, t in enumerate(grid))
    # the data does tell the two grid expressions apart
    assert off_grid > 0


def test_persistence_continues_the_history_grid():
    step = 0.1
    ds = offset_grid_dataset(5, step=step)
    fitted = create("forecast.persistence",
                    {"horizon": 2, "step": step}).fit(ds)
    out = fitted.predict(ds)
    off_grid = 0
    for sid in ds.sample_ids:
        times, values = ds.temporal.sequence(sid, "y")
        t0 = times[0]
        assert out.sequence(sid, "y") == (
            tuple(t0 + (len(times) + k) * step for k in range(2)),
            (values[-1],) * 2)
        off_grid += any(t0 + (len(times) + k) * step
                        != times[-1] + (k + 1) * step for k in range(2))
    assert off_grid > 0
    # a sequence off any grid of that step continues from its last point
    irregular = assemble_dataset(
        static=build_static_samples([("a", "age", 50.0)],
                                    {"age": Continuous()}),
        temporal=build_time_series_samples(
            [("a", "y", 0.0, 1.0), ("a", "y", 0.25, 2.0),
             ("a", "y", 0.3, 3.0)], {"y": Continuous()}),
        roles=RoleMap.of(covariates=("age",), targets=("y",)))
    assert fitted.predict(irregular).sequence("a", "y") == \
        ((0.3 + 0.1, 0.3 + 0.2), (3.0, 3.0))


def test_ar_beats_persistence_on_mean_reverting_series():
    ds = regular_series_dataset(3, n=8, length=30, phi=0.6, c=2.0)
    truth_tail = {}
    points = []
    for sid in ds.sample_ids:
        seq = tuple(zip(*ds.temporal.sequence(sid, "hr")))
        truth_tail[sid] = seq[-5:]
        for t, v in seq[:-5]:
            points.append((sid, "hr", t, v))
    head = assemble_dataset(
        static=ds.static,
        temporal=build_time_series_samples(
            points, dict(ds.temporal.features),
            sample_ids=list(ds.sample_ids)),
        roles=ds.roles)
    truth = build_time_series_samples(
        [(sid, "hr", t, v) for sid in ds.sample_ids
         for t, v in truth_tail[sid]],
        {"hr": Continuous()}, sample_ids=list(ds.sample_ids))

    params = {"horizon": 5, "step": 1.0}
    ar = create("forecast.ar", {"order": 1, **params}).fit(head)
    naive = create("forecast.persistence", params).fit(head)
    assert rmse(ar.predict(head), truth) < rmse(naive.predict(head), truth)


# ---------------------------------------------------------------------------
# classify.logistic
# ---------------------------------------------------------------------------

def test_logistic_separates_labels():
    ds = classification_dataset(0, n=40)
    fitted = create("classify.logistic", {"iters": 300}).fit(ds)
    out = fitted.predict(ds)
    assert out.feature_ids == ("y",)
    probs = out.column("y")
    assert all(0.0 < p < 1.0 for p in probs)
    assert accuracy(out, static_target_table(ds)) >= 0.9


def test_logistic_categorical_positive_class_is_second_category():
    static = build_static_samples(
        [("a", "x1", -2.0), ("a", "lab", "neg"),
         ("b", "x1", 2.0), ("b", "lab", "pos"),
         ("c", "x1", -1.5), ("c", "lab", "neg"),
         ("d", "x1", 1.5), ("d", "lab", "pos")],
        {"x1": Continuous(), "lab": Categorical(("neg", "pos"))},
        sample_ids=["a", "b", "c", "d"])
    ds = assemble_dataset(static=static,
                          roles=RoleMap.of(covariates=("x1",),
                                           targets=("lab",)))
    out = create("classify.logistic", {"iters": 400}).fit(ds).predict(ds)
    probs = dict(zip(ds.sample_ids, out.column("lab")))
    assert probs["b"] > 0.5 > probs["a"]
    assert accuracy(out, static_target_table(ds)) == 1.0


def test_logistic_rejects_bad_targets():
    static = build_static_samples(
        [("a", "x", 1.0), ("a", "y", 2)],
        {"x": Continuous(), "y": Integer()}, sample_ids=["a"])
    ds = assemble_dataset(static=static,
                          roles=RoleMap.of(covariates=("x",),
                                           targets=("y",)))
    with pytest.raises(NonBinaryTarget):
        create("classify.logistic", {"iters": 5}).fit(ds)

    static = build_static_samples(
        [("a", "x", 1.0), ("a", "y", "u")],
        {"x": Continuous(), "y": Categorical(("u", "v", "w"))},
        sample_ids=["a"])
    ds = assemble_dataset(static=static,
                          roles=RoleMap.of(covariates=("x",),
                                           targets=("y",)))
    with pytest.raises(NonBinaryTarget):
        create("classify.logistic", {"iters": 5}).fit(ds)

    static = build_static_samples(
        [("a", "x", 1.0), ("a", "y", MISSING), ("b", "x", 0.0),
         ("b", "y", 1)],
        {"x": Continuous(), "y": Integer()}, sample_ids=["a", "b"])
    ds = assemble_dataset(static=static,
                          roles=RoleMap.of(covariates=("x",),
                                           targets=("y",)))
    with pytest.raises(MissingInTarget):
        create("classify.logistic", {"iters": 5}).fit(ds)


def test_logistic_refuses_a_dataset_of_no_samples():
    ds = take_samples(classification_dataset(0, n=40), [])
    with pytest.raises(EmptyInput,
                       match="^logistic_gd needs at least one sample$"):
        build_pipeline([("classify.logistic", {})]).fit(ds)


def test_logistic_requires_single_static_target():
    ds = _series_ds([[1.0, 2.0]])
    with pytest.raises(RequirementUnmet) as exc:
        create("classify.logistic", {"iters": 5}).fit(ds)
    assert exc.value.reason == "missing_static_target"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_rmse_static_hand_value():
    kinds = {"y": Continuous()}
    a = build_static_samples([("a", "y", 1.0), ("b", "y", 2.0)], kinds,
                             sample_ids=["a", "b"])
    b = build_static_samples([("a", "y", 2.0), ("b", "y", 4.0)], kinds,
                             sample_ids=["a", "b"])
    assert rmse(a, b) == math.sqrt((1.0 + 4.0) / 2)


def test_rmse_temporal_alignment_rules():
    kinds = {"y": Continuous()}
    a = build_time_series_samples(
        [("a", "y", 0.0, 1.0), ("a", "y", 1.0, 2.0)], kinds,
        sample_ids=["a"])
    b = build_time_series_samples(
        [("a", "y", 0.0, 1.5), ("a", "y", 1.0, 2.0)], kinds,
        sample_ids=["a"])
    assert rmse(a, b) == math.sqrt(0.25 / 2)

    shifted = build_time_series_samples(
        [("a", "y", 0.0, 1.5), ("a", "y", 1.0 + 1e-9, 2.0)], kinds,
        sample_ids=["a"])
    with pytest.raises(AlignmentError):
        rmse(a, shifted)

    other = build_time_series_samples(
        [("zz", "y", 0.0, 1.0), ("zz", "y", 1.0, 2.0)], kinds,
        sample_ids=["zz"])
    with pytest.raises(AlignmentError):
        rmse(a, other)

    gappy = build_time_series_samples(
        [("a", "y", 0.0, MISSING), ("a", "y", 1.0, 2.0)], kinds,
        sample_ids=["a"])
    with pytest.raises(AlignmentError):
        rmse(a, gappy)


def test_metrics_refuse_anything_but_containers():
    ds = classification_dataset(0, n=10)
    table = static_target_table(ds)
    for metric in (rmse, accuracy):
        with pytest.raises(AlignmentError, match="StaticSamples as pred, "
                                                 "got Dataset"):
            metric(ds, table)
        with pytest.raises(AlignmentError, match="StaticSamples as truth, "
                                                 "got Dataset"):
            metric(table, ds)
    series = regular_series_dataset(0, n=3)
    with pytest.raises(AlignmentError, match="TimeSeriesSamples as truth, "
                                             "got Dataset"):
        rmse(series.temporal, series)


def test_metrics_refuse_unscorable_and_empty_inputs():
    truth = build_static_samples([("s", "y", 1.0)], {"y": Continuous()})
    coded = build_static_samples([("s", "y", "q")],
                                 {"y": Categorical(("q", "r"))})
    with pytest.raises(AlignmentError,
                       match=r"^\(s, y\): non-numeric value 'q'$"):
        rmse(coded, truth)
    renamed = build_static_samples([("s", "z", 1.0)], {"z": Continuous()})
    with pytest.raises(AlignmentError,
                       match="^features differ between pred and truth$"):
        rmse(renamed, truth)
    empty = build_static_samples([], {"y": Integer()}, sample_ids=[])
    for metric, message in ((rmse, "no aligned points to compare"),
                            (accuracy, "no cells to compare")):
        with pytest.raises(EmptyInput, match=f"^{message}$"):
            metric(empty, empty)


def test_accuracy_thresholds_and_truth_kinds():
    pred = build_static_samples(
        [("a", "y", 0.9), ("b", "y", 0.5), ("c", "y", 0.49)],
        {"y": Continuous()}, sample_ids=["a", "b", "c"])
    truth = build_static_samples(
        [("a", "y", 1), ("b", "y", 1), ("c", "y", 1)],
        {"y": Integer()}, sample_ids=["a", "b", "c"])
    # p >= 0.5 predicts the positive class, so 0.5 counts
    assert accuracy(pred, truth) == 2 / 3

    cat_truth = build_static_samples(
        [("a", "y", "pos"), ("b", "y", "neg"), ("c", "y", "neg")],
        {"y": Categorical(("neg", "pos"))}, sample_ids=["a", "b", "c"])
    assert accuracy(pred, cat_truth) == 2 / 3

    bad = build_static_samples(
        [("a", "y", 2), ("b", "y", 1), ("c", "y", 0)],
        {"y": Integer()}, sample_ids=["a", "b", "c"])
    with pytest.raises(AlignmentError):
        accuracy(pred, bad)


def _static_truth(kind, labels):
    return build_static_samples(
        [(f"s{i}", "y", v) for i, v in enumerate(labels)], {"y": kind},
        sample_ids=[f"s{i}" for i in range(len(labels))])


def test_accuracy_codes_truth_as_the_classifier_fits_it():
    # the truth feature kinds classify.logistic refuses, accuracy refuses
    pred = _static_truth(Continuous(), [0.9, 0.2])
    for kind, labels in ((Continuous(), [1.0, 0.0]),
                         (Categorical(("u", "v", "w")), ["v", "u"]),
                         (Categorical(("u",)), ["u", "u"])):
        truth = _static_truth(kind, labels)
        with pytest.raises(AlignmentError,
                           match=r"^truth feature 'y' is not binary$"):
            accuracy(pred, truth)
        ds = assemble_dataset(
            static=build_static_samples(
                [("s0", "x", 1.0), ("s0", "y", labels[0]),
                 ("s1", "x", 0.0), ("s1", "y", labels[1])],
                {"x": Continuous(), "y": kind}),
            roles=RoleMap.of(covariates=("x",), targets=("y",)))
        with pytest.raises(NonBinaryTarget):
            create("classify.logistic", {"iters": 5}).fit(ds)
    # an Integer truth and its two-category twin score alike
    pred = _static_truth(Continuous(), [0.9, 0.5, 0.49, 0.1])
    ints = [1, 0, 0, 0]
    as_ints = accuracy(pred, _static_truth(Integer(), ints))
    assert as_ints == 0.75
    assert accuracy(pred, _static_truth(
        Categorical(("neg", "pos")), [("neg", "pos")[v] for v in ints])) \
        == as_ints
    # a label outside the codes keeps its message
    with pytest.raises(AlignmentError,
                       match=r"^\(s1, y\): truth label 2 outside \{0, 1\}$"):
        accuracy(pred, _static_truth(Integer(), [1, 2, 0, 0]))
    with pytest.raises(AlignmentError,
                       match=r"^\(s2, y\): missing truth label$"):
        accuracy(pred, _static_truth(Integer(), [1, 0, MISSING, 0]))


def test_static_target_table_is_the_classifier_target():
    ds = classification_dataset(0, n=6)
    table = static_target_table(ds)
    assert table.features == (("y", Integer()),)
    assert table.column("y") == ds.static.column("y")
    assert table.sample_ids == ds.sample_ids

    def with_roles(**roles):
        return assemble_dataset(static=ds.static, roles=RoleMap.of(**roles))

    none = with_roles(covariates=("x1", "x2", "y"))
    two = with_roles(covariates=("x1",), targets=("x2", "y"))
    for bad, error, reason in ((none, RequirementUnmet,
                                "missing_static_target"),
                               (two, MultipleTargets, "multiple_targets")):
        with pytest.raises(error) as at_score:
            static_target_table(bad)
        with pytest.raises(error) as at_fit:
            create("classify.logistic", {"iters": 5}).fit(bad)
        assert at_score.value.reason == reason
        assert str(at_score.value) == str(at_fit.value)


def _holdout_rows(ds, horizon):
    """The hold-out built sample by sample: the row-wise oracle of
    `_holdout_forecast`."""
    c = ds.temporal
    targets = [fid for fid, _, _
               in ds.features_with_role(Role.TARGET, Modality.TEMPORAL)]
    rows, futures = {}, {}  # sample -> feature -> (time, value) pairs
    for sid in c.sample_ids:
        row = {fid: tuple(zip(*c.sequence(sid, fid)))
               for fid in c.feature_ids}
        future = {}
        for fid in targets:
            if len(row[fid]) <= horizon:
                raise BenchError(
                    f"sample {sid!r} target {fid!r} has {len(row[fid])} "
                    f"points; holding out {horizon} leaves no history")
            future[fid] = row[fid][-horizon:]
            row[fid] = row[fid][:-horizon]
        rows[sid], futures[sid] = row, future

    def columns(per_sample, fids):
        return tuple(tuple(sequence_of(per_sample[sid][fid])
                           for sid in c.sample_ids) for fid in fids)

    history = Dataset(ds.static, TimeSeriesSamples(
        c.sample_ids, c.features, columns(rows, c.feature_ids)), ds.events,
        ds.roles)
    return history, TimeSeriesSamples(
        c.sample_ids, tuple((fid, Continuous()) for fid in targets),
        columns(futures, targets))


def _two_target_ds(lengths):
    """Temporal targets y1, y2 among two temporal covariates; sample i's
    y1 has lengths[i][0] points and its y2 lengths[i][1]."""
    points, rows = [], []
    for i, (n1, n2) in enumerate(lengths):
        sid = f"s{i}"
        rows.append((sid, "age", float(i)))
        for fid, n in (("a", 3), ("y1", n1), ("b", 2), ("y2", n2)):
            points += [(sid, fid, float(k), MISSING if (i + k) % 4 == 3
                        else float(10 * i + k)) for k in range(n)]
    kinds = {fid: Continuous() for fid in ("a", "y1", "b", "y2")}
    return assemble_dataset(
        static=build_static_samples(rows, {"age": Continuous()}),
        temporal=build_time_series_samples(points, kinds),
        roles=RoleMap.of(covariates=("age", "a", "b"),
                         targets=("y1", "y2")))


def test_two_target_holdout_matches_the_row_wise_oracle():
    ds = _two_target_ds([(6, 4), (5, 7), (4, 4), (8, 5)])
    assert ds.temporal.feature_ids == ("a", "y1", "b", "y2")
    for horizon in (1, 2, 3):
        history, future = _holdout_forecast(ds, horizon)
        assert (history, future) == _holdout_rows(ds, horizon)
        assert future.feature_ids == ("y1", "y2")
        times, values = ds.temporal.sequence("s1", "y2")
        assert history.temporal.sequence("s1", "y2") == \
            (times[:-horizon], values[:-horizon])
    # several series too short: the first sample of the first short target
    # is reported, where the sample-major oracle reports the first sample
    with pytest.raises(BenchError, match=(
            r"^sample 's2' target 'y1' has 4 points; holding out 4 leaves "
            r"no history$")):
        _holdout_forecast(ds, 4)
    with pytest.raises(BenchError, match=r"^sample 's0' target 'y2' has 4 "):
        _holdout_rows(ds, 4)


def test_accuracy_refuses_a_nan_probability():
    # p >= threshold is false for NaN, which would score NaN as label 0
    # built as a model builds its prediction; the builder refuses NaN
    pred = StaticSamples(("a", "b"), (("y", Continuous()),),
                         ((0.9, math.nan),))
    for label in (0, 1):
        truth = build_static_samples([("a", "y", 1), ("b", "y", label)],
                                     {"y": Integer()})
        with pytest.raises(MetricMismatch, match=(
                r"^accuracy: \(b, y\): predicted probability is NaN$")):
            accuracy(pred, truth)


def test_finite_query_with_a_nan_probability_fails_scoring():
    # finite cells x1 = x2 = 1e308 give inf - inf = NaN in the logit
    rng = Lcg(3)
    rows = []
    for i in range(40):
        x1, x2 = rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)
        rows += [(f"s{i:02d}", "x1", x1), (f"s{i:02d}", "x2", x2),
                 (f"s{i:02d}", "y", 1 if x1 > x2 else 0)]
    kinds = {"x1": Continuous(), "x2": Continuous(), "y": Integer()}
    roles = RoleMap.of(covariates=("x1", "x2"), targets=("y",))
    fitted = create("classify.logistic", {"lr": 0.5, "iters": 200}).fit(
        assemble_dataset(static=build_static_samples(rows, kinds),
                         roles=roles))
    w1, w2 = fitted.state["weights"]
    assert w1 > 1.0 and w2 < -1.0
    for label in (0, 1):
        query = assemble_dataset(static=build_static_samples(
            [(sid, fid, v) for sid in ("q0", "q1")
             for fid, v in (("x1", 1e308), ("x2", 1e308), ("y", label))],
            kinds), roles=roles)
        assert all(map(math.isnan, fitted.predict(query).column("y")))
        with pytest.raises(MetricMismatch, match=r"^accuracy: \(q0, y\): "):
            accuracy(fitted.predict(query), static_target_table(query))
        with pytest.raises(MetricMismatch, match=r"^accuracy: \(q0, y\): "):
            permutation_importance(fitted, query, "accuracy")
