"""Data model: value kinds, containers, builders, roles, operations."""

from __future__ import annotations

import glob
import math
import os
import re

import pytest

from datagen import (
    classification_dataset,
    event_entries,
    random_dataset,
    regular_series_dataset,
    static_rows,
    temporal_points,
)
from tempoframe.bundle import MANIFEST_NAME, read_bundle, write_bundle
from tempoframe.data import (
    MISSING,
    Categorical,
    Continuous,
    Dataset,
    EventSamples,
    Integer,
    Modality,
    Role,
    RoleMap,
    StaticSamples,
    assemble_dataset,
    binary_codes,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
    check_time,
    check_value,
    covariate_matrix,
    kind_from_json,
    kind_to_json,
    map_columns,
    take_samples,
)
from tempoframe.errors import (
    DuplicateCell,
    DuplicateEvent,
    DuplicateFeature,
    DuplicateTimePoint,
    EmptyDataset,
    FitDiverged,
    KindMismatch,
    MissingInFeatures,
    MultipleTargets,
    RequirementUnmet,
    RoleConflict,
    RoleGap,
    SampleIndexMismatch,
    UnknownSample,
)
from tempoframe.metrics import _holdout_forecast, _observe_treatment
from tempoframe.plugins import create
from tempoframe.treatment import synth_treatment_data


# ---------------------------------------------------------------------------
# Missing sentinel and kinds
# ---------------------------------------------------------------------------

def test_missing_is_a_singleton():
    assert MISSING is type(MISSING)()


def test_check_value_canonical_forms():
    assert check_value(Continuous(), 3, "w") == 3.0
    assert isinstance(check_value(Continuous(), 3, "w"), float)
    assert check_value(Integer(), 7, "w") == 7
    assert check_value(Categorical(("a", "b")), "a", "w") == "a"
    assert check_value(Continuous(), MISSING, "w") is MISSING


@pytest.mark.parametrize("kind,value", [
    (Continuous(), "x"),
    (Continuous(), True),
    (Continuous(), float("nan")),
    (Continuous(), float("inf")),
    (Integer(), 1.5),
    (Integer(), True),
    (Categorical(("a", "b")), "c"),
    (Categorical(("a", "b")), 1),
])
def test_check_value_rejections(kind, value):
    with pytest.raises(KindMismatch):
        check_value(kind, value, "w")


def test_a_continuous_int_no_float_holds_is_a_kind_mismatch():
    # 2**53 + 1 would be stored, written and read back as 2**53
    odd = 2 ** 53 + 1
    held = "integer 9007199254740993 has no exact float"
    with pytest.raises(KindMismatch, match=rf"^w: {held}$"):
        check_value(Continuous(), odd, "w")
    with pytest.raises(KindMismatch, match=rf"^\(a, x\): {held}$"):
        build_static_samples([("a", "x", odd)], {"x": Continuous()})
    with pytest.raises(KindMismatch, match=rf"^\(a, f, t=0.0\): {held}$"):
        build_time_series_samples([("a", "f", 0.0, odd)],
                                  {"f": Continuous()})
    with pytest.raises(KindMismatch, match=rf"^\(a, d\): {held}$"):
        build_event_samples([("a", "d", 0.0, odd)], {"d": Continuous()})
    # ints a float holds exactly pass, and an Integer value is any int
    assert check_value(Continuous(), -2 ** 53) == -2.0 ** 53
    assert check_value(Continuous(), 10 ** 22) == 1e22
    assert check_value(Integer(), odd) == odd


def test_an_int_time_no_float_holds_is_a_kind_mismatch():
    # 2**53 + 1 would be written by its digits and read back as 2**53
    odd = 2 ** 53 + 1
    held = "time 9007199254740993 has no exact float"
    with pytest.raises(KindMismatch, match=rf"^w: {held}$"):
        check_time(odd, "w")
    with pytest.raises(KindMismatch, match=rf"^\(a, f\): {held}$"):
        build_time_series_samples([("a", "f", odd, 1.0)],
                                  {"f": Continuous()})
    with pytest.raises(KindMismatch, match=rf"^\(a, d\): {held}$"):
        build_event_samples([("a", "d", odd, 1)], {"d": Integer()})
    # an int time a float holds exactly passes, as its float
    assert check_time(2 ** 53) == 2.0 ** 53
    assert check_time(-7) == -7.0


def test_ints_beyond_float_range_are_kind_mismatches():
    big = 10 ** 400
    for kind in (Continuous(), Integer()):
        with pytest.raises(KindMismatch,
                           match=r"^w: integer beyond float range$"):
            check_value(kind, big, "w")
        with pytest.raises(KindMismatch,
                           match=r"^\(a, x\): integer beyond float range$"):
            build_static_samples([("a", "x", -big)], {"x": kind})
    with pytest.raises(KindMismatch, match="integer beyond float range"):
        check_time(big)
    with pytest.raises(KindMismatch, match="integer beyond float range"):
        build_time_series_samples([("a", "f", big, 1.0)], {"f": Continuous()})
    with pytest.raises(KindMismatch, match="integer beyond float range"):
        build_event_samples([("a", "d", big, 1)], {"d": Integer()})
    # the largest finite double is still an Integer value and a time
    top = int(1.7976931348623157e308)
    assert check_value(Integer(), top) == top
    assert check_time(top) == 1.7976931348623157e308


def test_categorical_requires_unique_nonempty_categories():
    with pytest.raises(KindMismatch):
        Categorical(())
    with pytest.raises(KindMismatch):
        Categorical(("a", "a"))
    with pytest.raises(KindMismatch):
        Categorical(("a", ""))
    # checked before the uniqueness test, whose set() cannot hash a list
    for categories in ((["x"],), ({},), ("a", ["a"]), (5,)):
        with pytest.raises(KindMismatch, match=(
                "^categorical categories must be non-empty strings$")):
            Categorical(categories)


def test_kind_json_round_trip():
    for kind in (Continuous(), Integer(), Categorical(("x", "y", "z"))):
        assert kind_from_json({"id": "f", **kind_to_json(kind)}, "w") == \
            ("f", kind)
    with pytest.raises(KindMismatch):
        kind_from_json({"id": "f", "kind": "tensor"}, "w")


@pytest.mark.parametrize("d, held", [
    (["continuous"], "w must be an object"),
    ("continuous", "w must be an object"),
    ({"id": "f", "name": "integer"}, "w has unknown keys: ['name']"),
    ({"id": "f"}, "w is missing 'kind'"),
    ({"id": "f", "kind": "categorical"}, "w is missing 'categories'"),
    ({"id": "f", "kind": "categorical", "categories": "ab"},
     "w 'categories' must be a list"),
    ({"id": "f", "kind": "continuous", "categories": ["a"]},
     "w has unknown keys: ['categories']"),
    ({"kind": "continuous"}, "w is missing 'id'"),
    ({"id": 5, "kind": "continuous"}, "w 'id' must be a string"),
    ({"id": "f", "kind": "categorical", "categories": []},
     "feature 'f': categorical kind requires at least one category"),
], ids=["list", "str", "no-kind", "no-kind-key", "no-categories",
        "categories-not-a-list", "stray-categories", "no-id",
        "id-not-a-string", "no-category"])
def test_kind_from_json_refuses_a_malformed_descriptor(d, held):
    with pytest.raises(KindMismatch, match=f"^{re.escape(held)}$"):
        kind_from_json(d, "w")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_static_builder_orders_and_grids():
    s = build_static_samples(
        [("b", "f2", 1.0), ("a", "f1", 2.0), ("b", "f1", 3.0)],
        {"f1": Continuous(), "f2": Continuous(), "f3": Integer()})
    assert s.sample_ids == ("b", "a")
    assert s.feature_ids == ("f2", "f1", "f3")
    assert s.cell("a", "f2") is MISSING
    assert s.cell("a", "f3") is MISSING
    assert s.cell("b", "f1") == 3.0


def test_static_builder_duplicate_cell():
    with pytest.raises(DuplicateCell):
        build_static_samples([("a", "f", 1.0), ("a", "f", 2.0)],
                             {"f": Continuous()})


def test_static_builder_undeclared_feature():
    with pytest.raises(KindMismatch):
        build_static_samples([("a", "g", 1.0)], {"f": Continuous()})


@pytest.mark.parametrize("build,record", [
    (build_static_samples, ("a", "x", 1.0)),
    (build_time_series_samples, ("a", "x", 0.0, 1.0)),
    (build_event_samples, ("a", "x", 0.0, 1.0))],
    ids=["static", "temporal", "event"])
@pytest.mark.parametrize("kind", [Continuous, "continuous", None],
                         ids=["class", "name", "none"])
def test_builders_refuse_a_kinds_entry_that_is_no_kind(build, record, kind):
    # check_value would read `.categories` of it: a raw AttributeError
    for records in ([record], []):
        with pytest.raises(KindMismatch, match=re.escape(
                f"feature 'x': {kind!r} is not a value kind instance")):
            build(records, {"x": kind})


def test_explicit_sample_ids_keep_all_missing_samples():
    s = build_static_samples([("a", "f", 1.0)], {"f": Continuous()},
                             sample_ids=["a", "ghost"])
    assert s.sample_ids == ("a", "ghost")
    assert s.cell("ghost", "f") is MISSING
    with pytest.raises(UnknownSample):
        build_static_samples([("a", "f", 1.0)], {"f": Continuous()},
                             sample_ids=["ghost"])
    with pytest.raises(SampleIndexMismatch):
        build_static_samples([], {"f": Continuous()},
                             sample_ids=["a", "a"])


def test_time_series_builder_sorts_and_preserves_irregularity():
    ts = build_time_series_samples(
        [("a", "f", 3.0, 30.0), ("a", "f", 1.0, 10.0), ("a", "g", 0.5, 1.0),
         ("b", "f", 2.0, 20.0)],
        {"f": Continuous(), "g": Continuous()})
    assert ts.sequence("a", "f") == ((1.0, 3.0), (10.0, 30.0))
    assert ts.sequence("a", "g") == ((0.5,), (1.0,))
    assert ts.sequence("b", "g") == ((), ())
    times = list(ts.sequence("a", "f")[0])
    assert times == sorted(times)


def test_time_series_builder_duplicate_time():
    with pytest.raises(DuplicateTimePoint):
        build_time_series_samples(
            [("a", "f", 1.0, 1.0), ("a", "f", 1.0, 2.0)],
            {"f": Continuous()})


def test_time_series_rejects_bad_times():
    with pytest.raises(KindMismatch):
        build_time_series_samples([("a", "f", float("nan"), 1.0)],
                                  {"f": Continuous()})


def test_event_builder_censoring_and_duplicates():
    ev = build_event_samples(
        [("a", "death", 3.0, 1), ("b", "death", 5.0, MISSING)],
        {"death": Integer()})
    assert ev.entry("a", "death") == (3.0, 1)
    t, v = ev.entry("b", "death")
    assert t == 5.0 and v is MISSING
    with pytest.raises(DuplicateEvent):
        build_event_samples(
            [("a", "death", 3.0, 1), ("a", "death", 4.0, 1)],
            {"death": Integer()})


def test_builder_round_trip_on_random_datasets():
    for seed in range(25):
        ds = random_dataset(seed)
        ids = list(ds.sample_ids)
        if ds.static is not None:
            rebuilt = build_static_samples(
                static_rows(ds.static), dict(ds.static.features),
                sample_ids=ids)
            assert rebuilt == ds.static
        rebuilt = build_time_series_samples(
            temporal_points(ds.temporal), dict(ds.temporal.features),
            sample_ids=ids)
        assert rebuilt == ds.temporal
        if ds.events is not None:
            rebuilt = build_event_samples(
                event_entries(ds.events), dict(ds.events.features),
                sample_ids=ids)
            assert rebuilt == ds.events


# ---------------------------------------------------------------------------
# Roles and datasets
# ---------------------------------------------------------------------------

def _toy_dataset():
    static = build_static_samples(
        [("a", "x", 1.0), ("b", "x", 2.0), ("a", "y", 0), ("b", "y", 1)],
        {"x": Continuous(), "y": Integer()})
    return assemble_dataset(
        static=static, roles=RoleMap.of(covariates=("x",), targets=("y",)))


def test_role_map_is_exhaustive_and_disjoint():
    ds = _toy_dataset()
    assert ds.roles.role_of("x") is Role.COVARIATE
    with pytest.raises(RoleConflict):
        RoleMap.of(covariates=("x",), targets=("x",))
    static = build_static_samples([("a", "x", 1.0)], {"x": Continuous()})
    with pytest.raises(RoleGap):
        assemble_dataset(static=static, roles=RoleMap.of())
    with pytest.raises(RoleConflict):
        assemble_dataset(static=static,
                         roles=RoleMap.of(covariates=("x", "phantom")))


def test_role_map_refuses_two_roles_for_one_feature():
    # an assignment built directly, as a bundle manifest's roles are read
    with pytest.raises(RoleConflict, match="^feature 'x' assigned two roles$"):
        RoleMap((("x", Role.COVARIATE), ("y", Role.TARGET),
                 ("x", Role.TARGET)))


def test_dataset_needs_a_covariate():
    static = build_static_samples([("a", "x", 1.0)], {"x": Continuous()})
    with pytest.raises(RoleGap):
        assemble_dataset(static=static, roles=RoleMap.of(targets=("x",)))


def test_dataset_rejects_feature_id_reuse_across_containers():
    static = build_static_samples([("a", "x", 1.0)], {"x": Continuous()})
    temporal = build_time_series_samples([("a", "x", 0.0, 1.0)],
                                         {"x": Continuous()})
    with pytest.raises(DuplicateFeature):
        assemble_dataset(static=static, temporal=temporal,
                         roles=RoleMap.of(covariates=("x",)))


def test_dataset_rejects_sample_index_disagreement():
    static = build_static_samples([("a", "x", 1.0)], {"x": Continuous()})
    temporal = build_time_series_samples([("b", "t", 0.0, 1.0)],
                                         {"t": Continuous()})
    with pytest.raises(SampleIndexMismatch):
        assemble_dataset(static=static, temporal=temporal,
                         roles=RoleMap.of(covariates=("x", "t")))


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        assemble_dataset(roles=RoleMap.of())


def test_a_directly_built_dataset_with_no_container_has_no_sample_ids():
    # `assemble_dataset` refuses this dataset first; built directly, it
    # has no sample index to give
    ds = Dataset(None, None, None, RoleMap(()))
    with pytest.raises(EmptyDataset, match="^dataset has no containers$"):
        ds.sample_ids


def test_all_features_container_order():
    ds = random_dataset(3)
    fids = [fid for fid, _, _, _ in ds.all_features()]
    expected = []
    for container in (ds.static, ds.temporal, ds.events):
        if container is not None:
            expected.extend(container.feature_ids)
    assert fids == expected


def _roles_ds(static=(), temporal=(), events=(), **roles):
    """One sample; a Continuous covariate `x` plus the named static,
    temporal and event features (Integer), under `roles`."""
    static_ids = ("x", *static)
    return assemble_dataset(
        static=build_static_samples(
            [("a", f, 1) for f in static_ids],
            {f: Continuous() if f == "x" else Integer() for f in static_ids}),
        temporal=build_time_series_samples(
            [("a", f, 0.0, 1) for f in temporal],
            {f: Integer() for f in temporal}, sample_ids=["a"]),
        events=build_event_samples(
            [("a", f, 1.0, 1) for f in events],
            {f: Integer() for f in events}, sample_ids=["a"]),
        roles=RoleMap.of(covariates=("x",), **roles))


def test_features_with_role_filters_by_modality():
    ds = _roles_ds(static=("y",), temporal=("z",), events=("d",),
                   targets=("y", "z", "d"))
    assert [f for f, _, _ in ds.features_with_role(Role.TARGET)] == \
        ["y", "z", "d"]
    assert ds.features_with_role(Role.TARGET, Modality.TEMPORAL) == \
        [("z", Integer(), Modality.TEMPORAL)]
    assert ds.features_with_role(Role.TREATMENT, Modality.STATIC) == []
    assert ds.sole_feature(Role.TARGET, Modality.EVENT) == \
        ("d", Integer(), Modality.EVENT)
    assert ds.sole_feature(Role.COVARIATE) == \
        ("x", Continuous(), Modality.STATIC)


@pytest.mark.parametrize("features,roles,role,modality,error,message", [
    ({}, {}, Role.TARGET, None, RequirementUnmet,
     "missing_target: no feature has the Target role"),
    ({"temporal": ("z",)}, {"targets": ("z",)}, Role.TARGET,
     Modality.STATIC, RequirementUnmet,
     "missing_static_target: no static feature has the Target role"),
    ({"static": ("y",)}, {"targets": ("y",)}, Role.TARGET,
     Modality.TEMPORAL, RequirementUnmet,
     "missing_temporal_target: no temporal feature has the Target role"),
    ({"static": ("y",)}, {"targets": ("y",)}, Role.TARGET,
     Modality.EVENT, RequirementUnmet,
     "missing_event_target: no event feature has the Target role"),
    ({"static": ("y",)}, {"targets": ("y",)}, Role.TREATMENT, None,
     RequirementUnmet,
     "missing_treatment: no feature has the Treatment role"),
    ({"static": ("y1", "y2")}, {"targets": ("y1", "y2")}, Role.TARGET,
     Modality.STATIC, MultipleTargets,
     "multiple_targets: expected one static target, got ['y1', 'y2']"),
    ({"events": ("d1", "d2")}, {"targets": ("d1", "d2")}, Role.TARGET,
     Modality.EVENT, MultipleTargets,
     "multiple_targets: expected one event target, got ['d1', 'd2']"),
    ({"static": ("y",), "events": ("d",)}, {"targets": ("y", "d")},
     Role.TARGET, None, MultipleTargets,
     "multiple_targets: expected one target, got ['y', 'd']"),
    ({"static": ("a", "b")}, {"treatments": ("a", "b")}, Role.TREATMENT,
     None, RequirementUnmet,
     "multiple_treatments: expected one treatment, got ['a', 'b']"),
], ids=["missing", "missing-static", "missing-temporal", "missing-event",
        "missing-treatment", "multiple-static", "multiple-event",
        "multiple-any-modality", "multiple-treatments"])
def test_sole_feature_errors(features, roles, role, modality, error,
                             message):
    ds = _roles_ds(**features, **roles)
    with pytest.raises(error) as exc:
        ds.sole_feature(role, modality)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.reason == message.split(":")[0]


def test_binary_codes():
    assert binary_codes(Integer()) == {0: 0, 1: 1}
    assert binary_codes(Categorical(("no", "yes"))) == {"no": 0, "yes": 1}
    assert binary_codes(Categorical(("yes", "no"))) == {"yes": 0, "no": 1}
    assert binary_codes(Categorical(("a", "b", "c"))) == {}
    assert binary_codes(Categorical(("a",))) == {}
    assert binary_codes(Continuous()) == {}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def test_take_samples_reorders_every_container():
    ds = random_dataset(11)
    ids = list(ds.sample_ids)
    picked = [ids[-1], ids[0]]
    sub = take_samples(ds, [len(ids) - 1, 0])
    assert sub.sample_ids == tuple(picked)
    for fid, _, _, modality in sub.all_features():
        if modality is Modality.STATIC:
            for sid in picked:
                assert sub.static.cell(sid, fid) == ds.static.cell(sid, fid) \
                    or (sub.static.cell(sid, fid) is MISSING
                        and ds.static.cell(sid, fid) is MISSING)
        elif modality is Modality.TEMPORAL:
            for sid in picked:
                assert sub.temporal.sequence(sid, fid) == \
                    ds.temporal.sequence(sid, fid)
        else:
            for sid in picked:
                assert sub.events.entry(sid, fid) == ds.events.entry(sid, fid)
    with pytest.raises(UnknownSample):
        take_samples(ds, [len(ids)])
    with pytest.raises(SampleIndexMismatch):
        take_samples(ds, [0, 0])


_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden_datasets() -> list:
    return [read_bundle(os.path.join(path, MANIFEST_NAME))
            for path in sorted(glob.glob(os.path.join(_GOLDEN, "**", "bundle"),
                                         recursive=True))]


def _taken_by_hand(ds, positions) -> dict:
    """The entries of `ds` at `positions`, one sample at a time, through
    the containers' per-sample readers: {modality: [per-sample rows]}."""
    readers = {Modality.STATIC: "cell", Modality.TEMPORAL: "sequence",
               Modality.EVENT: "entry"}
    return {m: [[getattr(c, readers[m])(ds.sample_ids[p], fid)
                 for fid in c.feature_ids] for p in positions]
            for m, c in ds.containers()}


@pytest.mark.parametrize("source", ["golden", "random"])
def test_take_samples_matches_a_per_sample_oracle(source):
    datasets = (_golden_datasets() if source == "golden"
                else [random_dataset(seed) for seed in range(20)])
    assert len(datasets) == (5 if source == "golden" else 20)
    for ds in datasets:
        n = len(ds.sample_ids)
        for positions in (list(range(n)), list(reversed(range(n))), [n - 1],
                          [], list(range(n))[::-2]):
            sub = take_samples(ds, positions)
            assert sub.sample_ids == tuple(ds.sample_ids[p] for p in positions)
            assert sub.roles == ds.roles
            assert [m for m, _ in sub.containers()] == [
                m for m, _ in ds.containers()]
            for (_, c), (_, whole) in zip(sub.containers(), ds.containers()):
                assert c.sample_ids == sub.sample_ids
                assert c.features == whole.features
                assert all(type(col) is tuple and len(col) == len(positions)
                           for col in c.columns)
            assert _taken_by_hand(sub, range(len(positions))) == \
                _taken_by_hand(ds, positions)
        for bad, error in (([0, 0], SampleIndexMismatch),
                           ([-1], UnknownSample), ([n], UnknownSample)):
            with pytest.raises(error):
                take_samples(ds, bad)


def test_map_columns_replaces_only_the_mapped_columns():
    def reverse(col):
        return tuple(reversed(col))

    checked = 0
    for seed in range(12):
        ds = random_dataset(seed)
        if ds.static is None:
            continue
        checked += 1
        sf, tf = ds.static.feature_ids[0], ds.temporal.feature_ids[0]
        out = map_columns(ds, {sf: reverse, tf: reverse})
        assert out.static.column(sf) == reverse(ds.static.column(sf))
        assert [out.temporal.sequence(s, tf) for s in ds.sample_ids] == \
            [ds.temporal.sequence(s, tf) for s in reversed(ds.sample_ids)]
        for fid, _, _, modality in ds.all_features():
            # an unmapped column is passed on as the same object
            if modality is Modality.STATIC and fid != sf:
                assert out.static.column(fid) is ds.static.column(fid)
            elif modality is Modality.TEMPORAL and fid != tf:
                assert out.temporal.column(fid) is ds.temporal.column(fid)
        assert out.static.features == ds.static.features
        assert out.temporal.features == ds.temporal.features
        assert out.sample_ids == ds.sample_ids
        assert out.events is ds.events
        assert out.roles is ds.roles
        assert map_columns(ds, {}) == ds
    assert checked >= 3


# ---------------------------------------------------------------------------
# temporal summary columns and covariate_matrix
# ---------------------------------------------------------------------------

def _summary_matrix(points, sample_ids=None):
    """covariate_matrix of one Continuous temporal covariate "f" with
    these (time, value) points per sample."""
    ts = build_time_series_samples(
        [(sid, "f", t, v) for sid, pts in points.items() for t, v in pts],
        {"f": Continuous()}, sample_ids=sample_ids)
    return covariate_matrix(assemble_dataset(
        temporal=ts, roles=RoleMap.of(covariates=("f",))))


def test_temporal_summary_stats():
    names, columns = _summary_matrix({"a": [(0.0, 1.0), (1.0, 3.0),
                                            (2.0, 2.0)]})
    assert names == ["f.last", "f.mean", "f.min", "f.max", "f.slope"]
    (last,), (mean,), (mn,), (mx,), (slope,) = columns
    assert last == 2.0
    assert mean == 2.0
    assert mn == 1.0
    assert mx == 3.0
    assert abs(slope - 0.5) < 1e-12


def test_temporal_summary_sparse_sequences():
    # one point: the slope is undefined and is the first Missing cell, so
    # the other stats are defined
    with pytest.raises(MissingInFeatures, match="^covariate 'f.slope' is "
                                                "missing for sample 'a'$"):
        _summary_matrix({"a": [(0.0, 5.0)]})
    names, columns = _summary_matrix({"a": [(0.0, 5.0), (1.0, 5.0)]})
    assert columns[names.index("f.mean")] == [5.0]
    # zero points: everything undefined, so the first stat is Missing
    with pytest.raises(MissingInFeatures, match="^covariate 'f.last' is "
                                                "missing for sample 'b'$"):
        _summary_matrix({"a": [(0.0, 1.0), (1.0, 2.0)]},
                        sample_ids=["a", "b"])


def test_temporal_summary_slope_translation_invariance():
    pts = [(0.0, 1.0), (1.5, 4.0), (3.0, 2.0), (4.5, 8.0)]
    _, base = _summary_matrix({"a": pts})
    _, shifted = _summary_matrix({"a": [(t + 100.0, v) for t, v in pts]})
    assert math.isclose(base[4][0], shifted[4][0], rel_tol=1e-9)


@pytest.mark.parametrize("points,stat", [
    # distinct times whose squared spread underflows to 0.0
    ([(1e-200, 1.0), (2e-200, 2.0)], "slope is not finite (nan)"),
    # times whose sum overflows
    ([(1e308, 1.0), (1.7e308, 2.0)], "slope is not finite (nan)"),
    # values whose sum overflows
    ([(0.0, 1e308), (1.0, 1.7e308)], "mean is not finite (inf)"),
], ids=["tiny-times", "huge-times", "huge-values"])
def test_non_finite_summary_stat_diverges(points, stat):
    ts = build_time_series_samples(
        [("a", "f", 0.0, 1.0), ("a", "f", 1.0, 2.0)]
        + [("b", "f", t, v) for t, v in points], {"f": Continuous()})
    ds = assemble_dataset(temporal=ts, roles=RoleMap.of(covariates=("f",)))
    message = f"^temporal summary of 'f' in sample 'b': {re.escape(stat)}$"
    with pytest.raises(FitDiverged, match=message):
        covariate_matrix(ds)


def test_covariate_matrix_layout_and_errors():
    static = build_static_samples(
        [("a", "x", 1.0), ("b", "x", 2.0), ("a", "y", 0), ("b", "y", 1)],
        {"x": Continuous(), "y": Integer()})
    temporal = build_time_series_samples(
        [("a", "hr", 0.0, 60.0), ("a", "hr", 1.0, 62.0),
         ("b", "hr", 0.0, 70.0), ("b", "hr", 2.0, 74.0)],
        {"hr": Continuous()})
    ds = assemble_dataset(
        static=static, temporal=temporal,
        roles=RoleMap.of(covariates=("x", "hr"), targets=("y",)))
    names, columns = covariate_matrix(ds)
    assert names == ["x", "hr.last", "hr.mean", "hr.min", "hr.max",
                     "hr.slope"]
    assert columns[0][0] == 1.0 and columns[0][1] == 2.0
    assert columns[1][0] == 62.0  # hr.last for sample a

    sparse = build_static_samples(
        [("a", "x", 1.0)], {"x": Continuous()}, sample_ids=["a", "b"])
    ds2 = assemble_dataset(static=sparse, roles=RoleMap.of(covariates=("x",)))
    with pytest.raises(MissingInFeatures):
        covariate_matrix(ds2)
    # x is missing for b, y for a: the first sample in order is named
    holes = build_static_samples(
        [("a", "x", 1.0), ("b", "y", 2.0), ("c", "x", 3.0), ("c", "y", 4.0)],
        {"x": Continuous(), "y": Continuous()}, sample_ids=["a", "b", "c"])
    ds4 = assemble_dataset(static=holes,
                           roles=RoleMap.of(covariates=("x", "y")))
    with pytest.raises(MissingInFeatures,
                       match="covariate 'y' is missing for sample 'a'"):
        covariate_matrix(ds4)

    cat = build_static_samples([("a", "c", "alpha")],
                               {"c": Categorical(("alpha", "beta"))})
    ds3 = assemble_dataset(static=cat, roles=RoleMap.of(covariates=("c",)))
    with pytest.raises(RequirementUnmet) as err:
        covariate_matrix(ds3)
    assert err.value.reason == "non_numeric_feature"


def test_covariate_matrix_ignores_categorical_temporal_target():
    temporal = build_time_series_samples(
        [("a", "hr", 0.0, 60.0), ("a", "hr", 1.0, 62.0),
         ("b", "hr", 0.0, 70.0), ("b", "hr", 2.0, 74.0),
         ("a", "st", 0.0, "ok"), ("b", "st", 1.0, "bad")],
        {"hr": Continuous(), "st": Categorical(("ok", "bad"))})
    ds = assemble_dataset(
        temporal=temporal, roles=RoleMap.of(covariates=("hr",),
                                            targets=("st",)))
    names, columns = covariate_matrix(ds)
    assert names == ["hr.last", "hr.mean", "hr.min", "hr.max", "hr.slope"]
    assert [col[0] for col in columns] == [62.0, 61.0, 60.0, 62.0, 2.0]
    assert [col[1] for col in columns] == [74.0, 72.0, 70.0, 74.0, 2.0]


def test_containers_are_immutable():
    ds = _toy_dataset()
    with pytest.raises(AttributeError):
        ds.static.columns = ()
    with pytest.raises(AttributeError):
        ds.roles.assignment = ()
    assert isinstance(ds, Dataset)


# ---------------------------------------------------------------------------
# Container layout: every producer of a container
# ---------------------------------------------------------------------------

def _containers(ds):
    return [c for _, c in ds.containers()]


def _read_back(seed, tmp_path):
    path = tmp_path / f"b{seed}"
    write_bundle(random_dataset(seed), path)
    return _containers(read_bundle(path / MANIFEST_NAME))


def _taken(seed, tmp_path):
    ds = random_dataset(seed)
    return _containers(take_samples(ds, reversed(range(len(ds.sample_ids)))))


def _transformed(name, params=None):
    def produce(seed, tmp_path):
        ds = random_dataset(seed, ensure_observed=True)
        return _containers(create(name, params or {}).fit(ds).transform(ds))
    return produce


def _forecast(name, params):
    def produce(seed, tmp_path):
        ds = regular_series_dataset(seed, n=6, length=12)
        return [create(name, params).fit(ds).predict(ds)]
    return produce


def _held_out(side):
    def produce(seed, tmp_path):
        ds = regular_series_dataset(seed, n=6, length=12)
        history, future = _holdout_forecast(ds, 3)
        return _containers(history) if side == "history" else [future]
    return produce


def _logistic(seed, tmp_path):
    ds = classification_dataset(seed, n=12)
    return [create("classify.logistic", {"iters": 20}).fit(ds).predict(ds)]


def _synth(seed, tmp_path):
    return _containers(synth_treatment_data(8 + seed, seed, tau0=1.0,
                                            dim=2).dataset)


def _t_learner(seed, tmp_path):
    truth = synth_treatment_data(20, seed, gamma=[0.5, -1.0], dim=2)
    fitted = create("treatment.t_learner", {}).fit(truth.dataset)
    return [fitted.predict_counterfactuals(truth.dataset, (0, 1)),
            fitted.predict_counterfactuals(truth.dataset, (1,))]


def _treatment_observer(seed, tmp_path):
    truth = synth_treatment_data(20, seed, gamma=[0.5, -1.0], dim=2)
    fitted = create("treatment.t_learner", {}).fit(truth.dataset)
    ids = truth.dataset.sample_ids
    return list(_observe_treatment(fitted, truth.dataset,
                                   dict(zip(ids, truth.effects))))


_PRODUCERS = {
    "builder": lambda seed, tmp_path: _containers(random_dataset(seed)),
    "read_bundle": _read_back,
    "take_samples": _taken,
    "impute.mean": _transformed("impute.mean"),
    "impute.locf": _transformed("impute.locf"),
    "scale.zscore": _transformed("scale.zscore"),
    "encode.onehot": _transformed("encode.onehot"),
    "resample.regular": _transformed("resample.regular", {"step": 0.7}),
    "forecast.persistence": _forecast("forecast.persistence",
                                      {"horizon": 3, "step": 1.0}),
    "forecast.ar": _forecast("forecast.ar",
                             {"order": 2, "horizon": 3, "step": 1.0}),
    "holdout-history": _held_out("history"),
    "holdout-future": _held_out("future"),
    "synth_treatment_data": _synth,
    "classify.logistic": _logistic,
    "treatment.t_learner": _t_learner,
    "treatment-observer": _treatment_observer,
}


def _check_entry(c, entry) -> int:
    """The points of one entry, after the check of its modality's shape."""
    if isinstance(c, StaticSamples):
        assert type(entry) is not tuple
        return 1
    if isinstance(c, EventSamples):
        assert entry is None or type(entry) is tuple and len(entry) == 2
        return entry is not None
    assert type(entry) is tuple and len(entry) == 2
    times, values = entry
    assert type(times) is tuple and type(values) is tuple
    assert len(times) == len(values)
    assert all(a < b for a, b in zip(times, times[1:]))
    return len(times)


@pytest.mark.parametrize("produce", list(_PRODUCERS.values()),
                         ids=list(_PRODUCERS))
def test_every_sequence_is_a_pair_of_equal_length_tuples(produce, tmp_path):
    """Every container holds one column per feature, one entry per sample
    in each, and each sequence is a pair of equal-length tuples."""
    points = 0
    for seed in range(6):
        containers = produce(seed, tmp_path)
        assert containers
        for c in containers:
            assert type(c.columns) is tuple
            assert len(c.columns) == len(c.features)
            for column in c.columns:
                assert type(column) is tuple
                assert len(column) == len(c.sample_ids)
                points += sum(_check_entry(c, e) for e in column)
    assert points > 0
