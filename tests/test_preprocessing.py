"""Transform semantics: imputers, scaler, encoder, resampler."""

from __future__ import annotations

import json
import math

import pytest

from datagen import random_dataset, sequence_of
from tempoframe.data import (
    Categorical,
    Continuous,
    Integer,
    MISSING,
    Role,
    RoleMap,
    StaticSamples,
    TimeSeriesSamples,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
    select_samples,
)
from tempoframe.errors import (
    AllMissingFeature,
    DuplicateFeature,
    FitDiverged,
    InvalidStep,
    RequirementUnmet,
    RoleGap,
    UnseenCategory,
)
from tempoframe.plugins import create, load_fitted, save_fitted, spec_of
from tempoframe.preprocess import _locf_seq, _resample_seq, _zscore_apply


def _no_missing(container) -> bool:
    if isinstance(container, StaticSamples):
        return all(v is not MISSING for row in container.values for v in row)
    return all(v is not MISSING for per_sample in container.series
               for seq in per_sample for v in seq[1])


def _point(container, sid, fid, k):
    """The (time, value) of point k of one sequence."""
    times, values = container.sequence(sid, fid)
    return times[k], values[k]


def _static_ds(rows, kinds, roles, events=None):
    sample_ids = sorted({sid for sid, _, _ in rows})
    return assemble_dataset(
        static=build_static_samples(rows, kinds, sample_ids=sample_ids),
        events=events, roles=roles)


def _mixed_ds():
    static = build_static_samples(
        [("a", "age", 30.0), ("a", "sex", "f"),
         ("b", "age", MISSING), ("b", "sex", "m"),
         ("c", "age", 50.0), ("c", "sex", MISSING)],
        {"age": Continuous(), "sex": Categorical(("f", "m"))},
        sample_ids=["a", "b", "c"])
    temporal = build_time_series_samples(
        [("a", "hr", 0.0, 60.0), ("a", "hr", 1.0, MISSING),
         ("a", "hr", 2.0, 70.0),
         ("b", "hr", 0.5, MISSING), ("b", "hr", 1.5, 80.0),
         ("c", "hr", 0.0, 90.0)],
        {"hr": Continuous()}, sample_ids=["a", "b", "c"])
    events = build_event_samples(
        [("a", "death", 5.0, 1), ("b", "death", 3.0, MISSING)],
        {"death": Integer()}, sample_ids=["a", "b", "c"])
    roles = RoleMap.of(covariates=("age", "sex", "hr"), targets=("death",))
    return assemble_dataset(static=static, temporal=temporal, events=events,
                            roles=roles)


# ---------------------------------------------------------------------------
# impute.mean
# ---------------------------------------------------------------------------

def test_mean_fills_static_and_temporal():
    ds = _mixed_ds()
    out = create("impute.mean").fit(ds).transform(ds)
    assert out.static.cell("b", "age") == 40.0
    # modal category, lexicographic tie break between one "f" and one "m"
    assert out.static.cell("c", "sex") == "f"
    mean_hr = (60.0 + 70.0 + 80.0 + 90.0) / 4
    assert _point(out.temporal, "a", "hr", 1) == (1.0, mean_hr)
    assert _point(out.temporal, "b", "hr", 0) == (0.5, mean_hr)
    # events pass through untouched
    assert out.events is ds.events
    assert _no_missing(out.static)
    assert _no_missing(out.temporal)


def test_mean_integer_fill_is_rounded():
    ds = _static_ds(
        [("a", "k", 1), ("b", "k", 2), ("c", "k", MISSING)],
        {"k": Integer()}, RoleMap.of(covariates=("k",)))
    out = create("impute.mean").fit(ds).transform(ds)
    # mean 1.5 rounds half-even to 2, and stays an int
    assert out.static.cell("c", "k") == 2
    assert isinstance(out.static.cell("c", "k"), int)


def test_mean_all_missing_feature_rejected_at_fit():
    ds = _static_ds(
        [("a", "x", MISSING), ("b", "x", MISSING), ("a", "y", 1.0),
         ("b", "y", 2.0)],
        {"x": Continuous(), "y": Continuous()},
        RoleMap.of(covariates=("x", "y")))
    with pytest.raises(AllMissingFeature):
        create("impute.mean").fit(ds)


@pytest.mark.parametrize("plugin", ["impute.mean", "impute.locf"])
@pytest.mark.parametrize("kind,big", [(Integer(), 10 ** 308),
                                      (Continuous(), 1.7e308)],
                         ids=["integer", "continuous"])
def test_a_fill_past_the_float_range_is_refused_at_fit(plugin, kind, big):
    # two values sum to inf: an Integer fill would raise OverflowError in
    # round(), a Continuous one would write inf into the Missing cell
    values = {"a": big, "b": big, "c": MISSING}
    if plugin == "impute.mean":
        ds = _static_ds([(sid, "x", v) for sid, v in values.items()],
                        {"x": kind}, RoleMap.of(covariates=("x",)))
    else:
        ds = assemble_dataset(temporal=build_time_series_samples(
            [(sid, "x", 0.0, v) for sid, v in values.items()], {"x": kind}),
            roles=RoleMap.of(covariates=("x",)))
    with pytest.raises(FitDiverged) as err:
        create(plugin).fit(ds)
    assert str(err.value) == f"{plugin} of 'x': mean is not finite (inf)"


def test_mean_uses_training_statistics_not_input():
    train = _static_ds(
        [("a", "x", 10.0), ("b", "x", 20.0)],
        {"x": Continuous()}, RoleMap.of(covariates=("x",)))
    fitted = create("impute.mean").fit(train)
    apply_to = _static_ds(
        [("p", "x", 1000.0), ("q", "x", MISSING)],
        {"x": Continuous()}, RoleMap.of(covariates=("x",)))
    out = fitted.transform(apply_to)
    assert out.static.cell("q", "x") == 15.0


def test_mean_idempotent_on_random_data():
    for seed in range(8):
        ds = random_dataset(seed, ensure_observed=True)
        fitted = create("impute.mean").fit(ds)
        once = fitted.transform(ds)
        twice = fitted.transform(once)
        assert twice == once


# ---------------------------------------------------------------------------
# impute.locf
# ---------------------------------------------------------------------------

def test_locf_carries_forward():
    ds = _mixed_ds()
    out = create("impute.locf").fit(ds).transform(ds)
    assert out.temporal.sequence("a", "hr") == \
        ((0.0, 1.0, 2.0), (60.0, 60.0, 70.0))
    # leading gap falls back to the training mean
    mean_hr = (60.0 + 70.0 + 80.0 + 90.0) / 4
    assert _point(out.temporal, "b", "hr", 0) == (0.5, mean_hr)
    # static and events untouched
    assert out.static is ds.static
    assert out.events is ds.events


def test_locf_without_temporal_is_rejected():
    ds = _static_ds([("a", "x", 1.0)], {"x": Continuous()},
                    RoleMap.of(covariates=("x",)))
    with pytest.raises(RequirementUnmet) as exc:
        create("impute.locf").fit(ds)
    assert exc.value.reason == "missing_temporal"


def test_locf_leading_gap_without_fallback_stays_missing():
    temporal = build_time_series_samples(
        [("a", "x", 0.0, MISSING), ("a", "x", 1.0, MISSING),
         ("a", "y", 0.0, 1.0)],
        {"x": Continuous(), "y": Continuous()}, sample_ids=["a"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("x", "y")))
    out = create("impute.locf").fit(ds).transform(ds)
    assert out.temporal.sequence("a", "x") == ((0.0, 1.0), (MISSING, MISSING))


def test_locf_idempotent():
    for seed in range(8):
        ds = random_dataset(seed, ensure_observed=True)
        fitted = create("impute.locf").fit(ds)
        once = fitted.transform(ds)
        assert fitted.transform(once) == once


# ---------------------------------------------------------------------------
# scale.zscore
# ---------------------------------------------------------------------------

def test_zscore_standardizes_continuous_covariates():
    ds = _mixed_ds()
    out = create("scale.zscore").fit(ds).transform(ds)
    ages = [v for v in out.static.column("age") if v is not MISSING]
    assert math.isclose(sum(ages), 0.0, abs_tol=1e-12)
    mean = (30.0 + 50.0) / 2
    std = math.sqrt(((30.0 - mean) ** 2 + (50.0 - mean) ** 2) / 2)
    assert out.static.cell("a", "age") == (30.0 - mean) / std
    # Missing cells stay Missing; categorical column untouched
    assert out.static.cell("b", "age") is MISSING
    assert out.static.column("sex") == ds.static.column("sex")
    # temporal covariate is scaled with its own training stats
    hr = [v for v in out.temporal.sequence("a", "hr")[1]
          if v is not MISSING]
    assert all(abs(v) < 3 for v in hr)


def test_zscore_leaves_targets_treatments_integers_alone():
    static = build_static_samples(
        [("a", "x", 1.0), ("a", "k", 3), ("a", "y", 10.0),
         ("b", "x", 2.0), ("b", "k", 5), ("b", "y", 20.0)],
        {"x": Continuous(), "k": Integer(), "y": Continuous()},
        sample_ids=["a", "b"])
    ds = assemble_dataset(
        static=static,
        roles=RoleMap.of(covariates=("x", "k"), targets=("y",)))
    out = create("scale.zscore").fit(ds).transform(ds)
    assert out.static.column("k") == (3, 5)
    assert out.static.column("y") == (10.0, 20.0)
    assert out.static.column("x") == (-1.0, 1.0)


def test_zscore_constant_feature_maps_to_zero():
    ds = _static_ds(
        [("a", "x", 7.0), ("b", "x", 7.0)],
        {"x": Continuous()}, RoleMap.of(covariates=("x",)))
    out = create("scale.zscore").fit(ds).transform(ds)
    assert out.static.column("x") == (0.0, 0.0)


def test_zscore_applies_training_stats_to_new_data():
    train = _static_ds(
        [("a", "x", 0.0), ("b", "x", 2.0)],
        {"x": Continuous()}, RoleMap.of(covariates=("x",)))
    fitted = create("scale.zscore").fit(train)
    apply_to = _static_ds(
        [("p", "x", 4.0)], {"x": Continuous()},
        RoleMap.of(covariates=("x",)))
    # training mean 1, population std 1
    assert fitted.transform(apply_to).static.cell("p", "x") == 3.0


# ---------------------------------------------------------------------------
# encode.onehot
# ---------------------------------------------------------------------------

def test_onehot_expands_categorical_covariates():
    ds = _mixed_ds()
    out = create("encode.onehot").fit(ds).transform(ds)
    assert "sex" not in out.static.feature_ids
    assert "sex=f" in out.static.feature_ids
    assert "sex=m" in out.static.feature_ids
    assert out.static.cell("a", "sex=f") == 1
    assert out.static.cell("a", "sex=m") == 0
    assert out.static.cell("b", "sex=f") == 0
    assert out.static.cell("b", "sex=m") == 1
    # a Missing source value expands to Missing indicator cells
    assert out.static.cell("c", "sex=f") is MISSING
    assert out.static.cell("c", "sex=m") is MISSING
    assert isinstance(dict(out.static.features)["sex=f"], Integer)
    assert out.roles.role_of("sex=f") is Role.COVARIATE
    with pytest.raises(RoleGap):
        out.roles.role_of("sex")


def test_onehot_expands_temporal_and_preserves_times():
    temporal = build_time_series_samples(
        [("a", "state", 0.0, "lo"), ("a", "state", 1.0, "hi"),
         ("a", "hr", 0.0, 60.0)],
        {"state": Categorical(("hi", "lo")), "hr": Continuous()},
        sample_ids=["a"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("state", "hr")))
    out = create("encode.onehot").fit(ds).transform(ds)
    assert out.temporal.sequence("a", "state=hi") == ((0.0, 1.0), (0, 1))
    assert out.temporal.sequence("a", "state=lo") == ((0.0, 1.0), (1, 0))
    assert out.temporal.sequence("a", "hr") == ((0.0,), (60.0,))


def test_onehot_skips_categorical_targets():
    static = build_static_samples(
        [("a", "x", 1.0), ("a", "label", "yes"),
         ("b", "x", 2.0), ("b", "label", "no")],
        {"x": Continuous(), "label": Categorical(("no", "yes"))},
        sample_ids=["a", "b"])
    ds = assemble_dataset(
        static=static,
        roles=RoleMap.of(covariates=("x",), targets=("label",)))
    out = create("encode.onehot").fit(ds).transform(ds)
    assert out.static.column("label") == ("yes", "no")
    assert out is ds


def test_onehot_idempotent_after_first_pass():
    ds = _mixed_ds()
    fitted = create("encode.onehot").fit(ds)
    once = fitted.transform(ds)
    refit = create("encode.onehot").fit(once)
    assert refit.transform(once) is once


# ---------------------------------------------------------------------------
# resample.regular
# ---------------------------------------------------------------------------

def test_resample_builds_regular_grid_with_carry():
    temporal = build_time_series_samples(
        [("a", "x", 0.0, 1.0), ("a", "x", 0.7, 2.0), ("a", "x", 2.0, 3.0)],
        {"x": Continuous()}, sample_ids=["a"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("x",)))
    out = create("resample.regular", {"step": 0.5}).fit(ds).transform(ds)
    assert out.temporal.sequence("a", "x") == \
        ((0.0, 0.5, 1.0, 1.5, 2.0), (1.0, 1.0, 2.0, 2.0, 3.0))


def test_resample_single_point_and_leading_gap():
    temporal = build_time_series_samples(
        [("a", "x", 3.0, 9.0),
         ("b", "x", 0.0, MISSING), ("b", "x", 1.0, 5.0)],
        {"x": Continuous()}, sample_ids=["a", "b"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("x",)))
    out = create("resample.regular", {"step": 1.0}).fit(ds).transform(ds)
    assert out.temporal.sequence("a", "x") == ((3.0,), (9.0,))
    assert out.temporal.sequence("b", "x") == ((0.0, 1.0), (MISSING, 5.0))


def test_resample_rejects_bad_steps():
    ds = _mixed_ds()
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises((InvalidStep, Exception)):
            create("resample.regular", {"step": bad}).fit(ds)


def test_resample_step_below_time_resolution():
    temporal = build_time_series_samples(
        [("a", "x", 1e16, 1.0), ("a", "x", 1e16 + 4.0, 2.0)],
        {"x": Continuous()}, sample_ids=["a"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("x",)))
    fitted = create("resample.regular", {"step": 0.5}).fit(ds)
    with pytest.raises(InvalidStep):
        fitted.transform(ds)


@pytest.mark.parametrize("step,count", [
    (1e-9, "20000000001"), (2e-5, "1000001"), (5e-324, "inf")])
def test_resample_refuses_more_than_a_million_grid_points(step, count):
    # refused before any grid point is built, so no step here allocates
    temporal = build_time_series_samples(
        [("a", "x", 0.0, 1.0), ("a", "x", 20.0, 2.0)],
        {"x": Continuous()}, sample_ids=["a"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("x",)))
    fitted = create("resample.regular", {"step": step}).fit(ds)
    with pytest.raises(InvalidStep, match=(
            rf"^step {step} over a span of 20.0 gives {count} grid points, "
            r"more than 1000000$")):
        fitted.transform(ds)


def test_resample_idempotent_on_its_own_grid():
    ds = _mixed_ds()
    fitted = create("resample.regular", {"step": 0.5}).fit(ds)
    once = fitted.transform(ds)
    assert fitted.transform(once) == once


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_locf_then_mean_completes_everything():
    from tempoframe.plugins import build_pipeline
    for seed in range(6):
        ds = random_dataset(seed, ensure_observed=True)
        fitted = build_pipeline([("impute.locf", {}),
                                 ("impute.mean", {})]).fit(ds)
        out = fitted.transform(ds)
        for container in (out.static, out.temporal):
            if container is not None:
                assert _no_missing(container)


def test_locf_and_resample_need_temporal_in_the_query():
    fit_ds = assemble_dataset(
        static=build_static_samples([("a", "x", 1.0), ("b", "x", 2.0)],
                                    {"x": Continuous()}),
        temporal=build_time_series_samples([], {}, sample_ids=["a", "b"]),
        roles=RoleMap.of(covariates=("x",)))
    query = _static_ds([("a", "x", 3.0)], {"x": Continuous()},
                       RoleMap.of(covariates=("x",)))
    for name in ("impute.locf", "resample.regular"):
        fitted = create(name).fit(fit_ds)
        with pytest.raises(RequirementUnmet) as exc:
            fitted.transform(query)
        assert exc.value.reason == "missing_temporal"


# ---------------------------------------------------------------------------
# Row-wise oracles: the transforms as they were before `map_columns`,
# rebuilding the grid and the series row by row
# ---------------------------------------------------------------------------

def _rebuild(ds, static=None, temporal=None, roles=None):
    return assemble_dataset(
        static=static if static is not None else ds.static,
        temporal=temporal if temporal is not None else ds.temporal,
        events=ds.events,
        roles=roles if roles is not None else ds.roles)


def _mean_transform(params, state, ds):
    fills = state["fills"]
    static = ds.static
    if static is not None:
        grid = tuple(
            tuple(fills[fid] if v is MISSING and fid in fills else v
                  for v, (fid, _) in zip(row, static.features))
            for row in static.values)
        static = StaticSamples(static.sample_ids, static.features, grid)
    temporal = ds.temporal
    if temporal is not None:
        series = tuple(
            tuple(
                sequence_of(tuple((t, fills[fid])
                                  if v is MISSING and fid in fills else (t, v)
                                  for t, v in zip(*seq)))
                for seq, (fid, _) in zip(per_sample, temporal.features))
            for per_sample in temporal.series)
        temporal = TimeSeriesSamples(temporal.sample_ids, temporal.features,
                                     series)
    return _rebuild(ds, static=static, temporal=temporal)


def _locf_transform(params, state, ds):
    fills = state["fills"]
    temporal = ds.temporal
    series = tuple(
        tuple(_locf_seq(*seq, fills.get(fid))
              for seq, (fid, _) in zip(per_sample, temporal.features))
        for per_sample in temporal.series)
    temporal = TimeSeriesSamples(temporal.sample_ids, temporal.features,
                                 series)
    return _rebuild(ds, temporal=temporal)


def _zscore_transform(params, state, ds):
    stats = state["stats"]
    static = ds.static
    if static is not None:
        grid = tuple(
            tuple(_zscore_apply(v, stats[fid]) if fid in stats else v
                  for v, (fid, _) in zip(row, static.features))
            for row in static.values)
        static = StaticSamples(static.sample_ids, static.features, grid)
    temporal = ds.temporal
    if temporal is not None:
        series = tuple(
            tuple(
                sequence_of(tuple((t, _zscore_apply(v, stats[fid]))
                                  for t, v in zip(*seq)))
                if fid in stats else seq
                for seq, (fid, _) in zip(per_sample, temporal.features))
            for per_sample in temporal.series)
        temporal = TimeSeriesSamples(temporal.sample_ids, temporal.features,
                                     series)
    return _rebuild(ds, static=static, temporal=temporal)


def _resample_transform(params, state, ds):
    step = params["step"]
    if step <= 0 or not math.isfinite(step):
        raise InvalidStep(f"step must be a positive real, got {step}")
    temporal = ds.temporal
    series = tuple(
        tuple(_resample_seq(*seq, step) for seq in per_sample)
        for per_sample in temporal.series)
    temporal = TimeSeriesSamples(temporal.sample_ids, temporal.features,
                                 series)
    return _rebuild(ds, temporal=temporal)


@pytest.mark.parametrize("name, params, oracle, numeric_only", [
    ("impute.mean", {}, _mean_transform, False),
    ("impute.locf", {}, _locf_transform, False),
    ("scale.zscore", {}, _zscore_transform, True),
    ("resample.regular", {"step": 0.7}, _resample_transform, False),
])
def test_transform_matches_row_wise_oracle(name, params, oracle,
                                           numeric_only):
    for seed in range(24):
        ds = random_dataset(seed, ensure_observed=True,
                            numeric_only=numeric_only)
        fitted = create(name, params).fit(ds)
        query = select_samples(ds, reversed(ds.sample_ids))
        for q in (ds, query):
            assert fitted.transform(q) == \
                oracle(fitted.params, fitted.state, q)


def _onehot_value(v, cats, fid):
    if v is MISSING:
        return [MISSING] * len(cats)
    if v not in cats:
        raise UnseenCategory(f"value {v!r} of feature {fid!r} not in "
                             f"declared categories {cats}")
    return [1 if v == c else 0 for c in cats]


def _onehot_fit(params, ds):
    encoded = []
    for modality, container in (("static", ds.static),
                                ("temporal", ds.temporal)):
        if container is None:
            continue
        for fid, kind in container.features:
            if isinstance(kind, Categorical) and \
                    ds.roles.role_of(fid) is Role.COVARIATE:
                encoded.append([fid, modality, list(kind.categories)])
    return {"encoded": encoded}


def _onehot_transform(params, state, ds):
    by_feature = {fid: cats for fid, modality, cats in state["encoded"]}
    if not by_feature:
        return ds
    new_roles = []
    dropped = set()
    static = ds.static
    if static is not None and any(f in by_feature for f in static.feature_ids):
        features = []
        for fid, kind in static.features:
            if fid in by_feature:
                dropped.add(fid)
                for c in by_feature[fid]:
                    features.append((f"{fid}={c}", Integer()))
                    new_roles.append(f"{fid}={c}")
            else:
                features.append((fid, kind))
        grid = []
        for row in static.values:
            new_row = []
            for v, (fid, _) in zip(row, static.features):
                if fid in by_feature:
                    new_row.extend(_onehot_value(v, by_feature[fid], fid))
                else:
                    new_row.append(v)
            grid.append(tuple(new_row))
        static = StaticSamples(static.sample_ids, tuple(features),
                               tuple(grid))
    temporal = ds.temporal
    if temporal is not None and \
            any(f in by_feature for f in temporal.feature_ids):
        features = []
        for fid, kind in temporal.features:
            if fid in by_feature:
                dropped.add(fid)
                for c in by_feature[fid]:
                    features.append((f"{fid}={c}", Integer()))
                    new_roles.append(f"{fid}={c}")
            else:
                features.append((fid, kind))
        series = []
        for per_sample in temporal.series:
            new_per_sample = []
            for seq, (fid, _) in zip(per_sample, temporal.features):
                if fid in by_feature:
                    cats = by_feature[fid]
                    expanded = [[] for _ in cats]
                    for t, v in zip(*seq):
                        bits = _onehot_value(v, cats, fid)
                        for slot, bit in zip(expanded, bits):
                            slot.append((t, bit))
                    new_per_sample.extend(sequence_of(s) for s in expanded)
                else:
                    new_per_sample.append(seq)
            series.append(tuple(new_per_sample))
        temporal = TimeSeriesSamples(temporal.sample_ids, tuple(features),
                                     tuple(series))
    assignment = [(fid, role) for fid, role in ds.roles.assignment
                  if fid not in dropped]
    assignment.extend((fid, Role.COVARIATE) for fid in new_roles)
    return assemble_dataset(static=static, temporal=temporal,
                            events=ds.events,
                            roles=RoleMap(tuple(assignment)))


def _outcome(transform, state, ds):
    try:
        return transform({}, state, ds)
    except UnseenCategory as e:
        return f"UnseenCategory: {e}"


def test_onehot_matches_row_wise_oracle():
    transform = spec_of("encode.onehot").transform
    both = 0
    unseen = 0
    for seed in range(80):
        ds = random_dataset(seed)
        fitted = create("encode.onehot").fit(ds)
        assert fitted.state == _onehot_fit({}, ds)
        both += {m for _, m, _ in fitted.state["encoded"]} == \
            {"static", "temporal"}
        # Without its last category a feature's values of that category
        # are unseen, so the first one in row order is reported.
        narrowed = {"encoded": [[fid, m, cats[:-1]]
                                for fid, m, cats in fitted.state["encoded"]]}
        for q in (ds, select_samples(ds, reversed(ds.sample_ids))):
            assert fitted.transform(q) == \
                _onehot_transform({}, fitted.state, q)
            got = _outcome(transform, narrowed, q)
            assert got == _outcome(_onehot_transform, narrowed, q)
            unseen += isinstance(got, str)
    assert both >= 5 and unseen >= 20


def test_onehot_rejects_an_indicator_id_that_is_taken():
    static = build_static_samples(
        [("a", "x", "p"), ("b", "x", "q")],
        {"x": Categorical(("p", "q"))}, sample_ids=["a", "b"])
    temporal = build_time_series_samples(
        [("a", "x=p", 0.0, 1.0)], {"x=p": Continuous()},
        sample_ids=["a", "b"])
    ds = assemble_dataset(static=static, temporal=temporal,
                          roles=RoleMap.of(covariates=("x", "x=p")))
    with pytest.raises(DuplicateFeature):
        create("encode.onehot").fit(ds).transform(ds)


# ---------------------------------------------------------------------------
# The step check of resample.regular runs before fit and on every query
# ---------------------------------------------------------------------------

def test_resample_checks_temporal_before_step():
    ds = _static_ds([("a", "x", 3.0)], {"x": Continuous()},
                    RoleMap.of(covariates=("x",)))
    with pytest.raises(RequirementUnmet) as exc:
        create("resample.regular", {"step": 0.0}).fit(ds)
    assert exc.value.reason == "missing_temporal"
    with pytest.raises(InvalidStep):
        create("resample.regular", {"step": 0.0}).fit(_mixed_ds())


def test_blob_loaded_resample_checks_its_step():
    ds = _mixed_ds()
    doc = json.loads(save_fitted(
        create("resample.regular", {"step": 0.5}).fit(ds)))
    doc["fitted"]["params"]["step"] = 0.0
    loaded = load_fitted(json.dumps(doc).encode("utf-8"))
    with pytest.raises(InvalidStep, match="got 0.0"):
        loaded.transform(ds)
