"""Bundle serialization: manifest, CSV tables, round-trips, validation."""

from __future__ import annotations

import csv
import json
import math
import os
import re

import pytest

from datagen import random_dataset, survival_dataset
from tempoframe.bundle import (
    MANIFEST_NAME,
    read_bundle,
    scan_sequences,
    validate_bundle,
    write_bundle,
)
from tempoframe.cli import cli
from tempoframe.data import (
    MISSING,
    Categorical,
    Continuous,
    EventSamples,
    Integer,
    Modality,
    Role,
    RoleMap,
    StaticSamples,
    TimeSeriesSamples,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
    check_value,
    select_samples,
)
from tempoframe.errors import (
    DuplicateCell,
    DuplicateEvent,
    DuplicateTimePoint,
    KindMismatch,
    ManifestError,
    ParseError,
    RoleConflict,
    TempoframeError,
    UnknownSample,
)


def _write(tmp_path, seed=5):
    ds = random_dataset(seed)
    path = tmp_path / f"bundle{seed}"
    write_bundle(ds, path)
    return ds, path


def test_round_trip_preserves_everything(tmp_path):
    ds, path = _write(tmp_path)
    loaded = read_bundle(path / MANIFEST_NAME)
    assert loaded.sample_ids == ds.sample_ids
    assert loaded.static == ds.static
    assert loaded.temporal == ds.temporal
    assert loaded.events == ds.events
    assert dict(loaded.roles.assignment) == dict(ds.roles.assignment)


def _bundle_bytes(path) -> dict:
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


def test_round_trip_many_random_datasets(tmp_path):
    # Each dataset also with its samples reversed, so that a long-form
    # table's first row may name a later manifest feature; a second write
    # of what was read gives the same bytes.
    for seed in range(20):
        ds = random_dataset(seed)
        for i, case in enumerate((ds, select_samples(
                ds, ds.sample_ids[::-1]))):
            path = tmp_path / f"b{seed}-{i}"
            write_bundle(case, path)
            loaded = read_bundle(path / MANIFEST_NAME)
            assert (loaded.static, loaded.temporal, loaded.events) == \
                (case.static, case.temporal, case.events)
            assert loaded.roles == case.roles
            again = tmp_path / f"b{seed}-{i}-again"
            write_bundle(loaded, again)
            assert _bundle_bytes(again) == _bundle_bytes(path)


def test_a_repeated_role_pair_round_trips(tmp_path):
    # the manifest keeps one role per feature, so the map must too
    cov, target = Role.COVARIATE, Role.TARGET
    roles = RoleMap((("x", cov), ("x", cov), ("y", target), ("x", cov)))
    assert roles.assignment == (("x", cov), ("y", target))
    assert roles == RoleMap.of(covariates=("x",), targets=("y",))
    ds = assemble_dataset(static=build_static_samples(
        [("a", "x", 1.0), ("a", "y", 0), ("b", "x", 2.0), ("b", "y", 1)],
        {"x": Continuous(), "y": Integer()}), roles=roles)
    write_bundle(ds, tmp_path / "b")
    assert read_bundle(tmp_path / "b" / MANIFEST_NAME) == ds
    with pytest.raises(RoleConflict):
        RoleMap.of(covariates=("x", "x"))


def test_write_is_deterministic(tmp_path):
    ds = random_dataset(9)
    write_bundle(ds, tmp_path / "one")
    write_bundle(ds, tmp_path / "two")
    for name in os.listdir(tmp_path / "one"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b
        assert b"\r" not in a  # LF only


# Categories that hold a space, a comma, a quote and CRLF.
_EDGE_CATEGORIES = ("lo", "a b", "hi,\"q\"", "\r\n")
_LONG = 10_000  # points of one sequence, past the csv field limit packed


def _edge_dataset():
    """Ids that need CSV quoting, every kind, and samples whose static
    cells are all Missing; sequences of extreme values, of one point, of
    Missing values only, none at all, and one too long for one row."""
    ids = ["plain", "a,b", 's"q', "line\nfeed", "cr\r\nlf", "\ufeffbom",
           "sep\u2028", " lead", "", "all-missing"]
    kinds = {"x": Continuous(), "k,1": Integer(),
             "c": Categorical(_EDGE_CATEGORIES)}
    values = [(-0.0, 2 ** 63, "lo"), (5e-324, -7, "hi,\"q\""),
              (1e308, 0, "\r\n"), (-1e308, MISSING, "a b"),
              (0.1, 1, MISSING)]
    rows = [(sid, fid, v) for sid, cells in zip(ids, values)
            for fid, v in zip(kinds, cells) if v is not MISSING]
    static = build_static_samples(rows, kinds, sample_ids=ids)
    reals = (-0.0, 5e-324, 1e308, -1e308, MISSING, 0.1)
    points = [(ids[0], "t\nf", k / 7, reals[k % len(reals)])
              for k in range(_LONG)]
    points += [(sid, "t\nf", 1.5, 2.0) for sid in ids[1:3]]
    points += [(ids[3], "t\nf", t, MISSING) for t in (-1.0, 0.0, 2.5)]
    points += [(ids[k % 3], "k t", float(k), v)
               for k, v in enumerate((2 ** 63, -7, MISSING, 0))]
    points += [(ids[k % 4], "c t", k * 0.5, c)
               for k, c in enumerate(_EDGE_CATEGORIES + (MISSING,))]
    temporal = build_time_series_samples(
        points, {"t\nf": Continuous(), "k t": Integer(),
                 "c t": Categorical(_EDGE_CATEGORIES)}, sample_ids=ids)
    events = build_event_samples(
        [(sid, "e,v", float(i), c) for i, (sid, c) in enumerate(
            zip(ids, _EDGE_CATEGORIES + (MISSING,)))],
        {"e,v": Categorical(_EDGE_CATEGORIES)}, sample_ids=ids)
    return assemble_dataset(static=static, temporal=temporal, events=events,
                            roles=RoleMap.of(covariates=("x", "k,1", "t\nf",
                                                         "k t", "c t"),
                                             targets=("c", "e,v")))


def test_round_trip_of_edge_case_ids_and_values(tmp_path):
    ds = _edge_dataset()
    assert ds.static.values[-1] == (MISSING,) * 3
    assert len(ds.temporal.sequence("plain", "t\nf")[0]) == _LONG
    write_bundle(ds, tmp_path / "one")
    # the long sequence goes on over rows whose fields csv can read
    with open(tmp_path / "one" / "temporal.csv", encoding="utf-8",
              newline="") as f:
        rows = list(csv.reader(f))
    long_rows = [r for r in rows if r[:2] == ["plain", "t\nf"]]
    assert len(long_rows) > 1
    assert sum(len(r[2]) for r in long_rows) > csv.field_size_limit()
    assert all(len(r[2]) + len(r[3]) <= 65536 for r in rows)
    assert read_bundle(tmp_path / "one" / MANIFEST_NAME) == ds
    assert validate_bundle(tmp_path / "one" / MANIFEST_NAME) == []
    write_bundle(read_bundle(tmp_path / "one" / MANIFEST_NAME),
                 tmp_path / "two")
    for name in os.listdir(tmp_path / "one"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def _static_column(kind, column):
    ids = [f"s{i}" for i in range(len(column))]
    return assemble_dataset(
        static=StaticSamples(tuple(ids), (("f", kind),),
                             tuple((v,) for v in column)),
        roles=RoleMap.of(covariates=("f",)))


@pytest.mark.parametrize("kind,column", [
    (Continuous(), [k / 7 + 1e-3 for k in range(4000)]),
    (Continuous(), [MISSING] * 5),
    (Categorical(("a b", "c,d", 'e"f', "g")),
     ["a b", MISSING, "c,d", 'e"f', "a b", "g"]),
    (Integer(), [2 ** 53, -2 ** 53, MISSING, 0]),
], ids=["long", "all-missing", "categories-to-quote", "integer-2**53"])
def test_a_static_column_round_trips(tmp_path, kind, column):
    ds = _static_column(kind, column)
    write_bundle(ds, tmp_path / "one")
    with open(tmp_path / "one" / "static.csv", encoding="utf-8",
              newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert {r[0] for r in rows} == {"f"}
    assert all(len(r[1]) <= 65536 for r in rows)
    # a column past 65,536 characters goes on in a second row
    assert len(rows) == (2 if len(column) == 4000 else 1)
    assert read_bundle(tmp_path / "one" / MANIFEST_NAME) == ds
    assert validate_bundle(tmp_path / "one" / MANIFEST_NAME) == []
    write_bundle(read_bundle(tmp_path / "one" / MANIFEST_NAME),
                 tmp_path / "two")
    assert _bundle_bytes(tmp_path / "two") == _bundle_bytes(tmp_path / "one")


def test_a_static_table_of_no_samples_or_no_features_round_trips(tmp_path):
    for name, ds in (("no-samples", _static_column(Continuous(), [])),
                     ("no-features", assemble_dataset(
                         static=StaticSamples(("a", "b"), (), ((), ())),
                         temporal=build_time_series_samples(
                             [("a", "t", 0.0, 1.0)], {"t": Continuous()},
                             sample_ids=["a", "b"]),
                         roles=RoleMap.of(covariates=("t",))))):
        write_bundle(ds, tmp_path / name)
        assert (tmp_path / name / "static.csv").read_text(
            encoding="utf-8") == "feature_id,values\n"
        assert read_bundle(tmp_path / name / MANIFEST_NAME) == ds


# A static field and a temporal values field of one token read the same
# spellings: the characters `repr` writes for a finite number.
_SPELLINGS = [
    ("2_5.0", None), (" 1.5 ", None), ("\u0661.\u0665", None),
    ("nan", None), ("inf", None), ("1e400", None), ("+2.50", 2.5),
    ("-0.0", -0.0), ("1.5", 1.5),
]


@pytest.mark.parametrize("spelling,value", _SPELLINGS,
                         ids=[s for s, _ in _SPELLINGS])
@pytest.mark.parametrize("table", ["static.csv", "temporal.csv"])
def test_static_and_temporal_fields_share_the_number_grammar(
        tmp_path, table, spelling, value):
    ds = assemble_dataset(
        static=build_static_samples([("s0", "x", 1.0)], {"x": Continuous()}),
        temporal=build_time_series_samples([("s0", "f", 0.0, 1.0)],
                                           {"f": Continuous()}),
        roles=RoleMap.of(covariates=("x", "f")))
    path = tmp_path / "b"
    write_bundle(ds, path)
    line = {"static.csv": "x,{}", "temporal.csv": "s0,f,0.0,{}"}[table]
    (path / table).write_text(
        (path / table).read_text(encoding="utf-8").replace(
            line.format("1.0"), line.format(spelling)), encoding="utf-8")
    found = validate_bundle(path / MANIFEST_NAME)
    if value is None:
        assert [v.code for _, v in found] in (["kind_mismatch"], ["arity"])
        with pytest.raises(TempoframeError):
            read_bundle(path / MANIFEST_NAME)
        return
    assert found == []
    loaded = read_bundle(path / MANIFEST_NAME)
    got = (loaded.static.cell("s0", "x") if table == "static.csv"
           else loaded.temporal.sequence("s0", "f")[1][0])
    assert (got, math.copysign(1, got)) == (value, math.copysign(1, value))


def test_packed_static_table_is_pinned(tmp_path):
    # one row per feature, in manifest order, and one token per sample, in
    # manifest order; a Categorical value is its index, an empty token
    # Missing; only a feature id is ever quoted
    kinds = {"x": Continuous(), "k": Integer(),
             'c,"d"': Categorical(("lo", "hi"))}
    static = build_static_samples(
        [("s0", "x", 1.5), ("s0", "k", -3), ("s0", 'c,"d"', "hi"),
         ('s"q', 'c,"d"', "lo"), ('s"q', "k", 7), ('s"q', "x", 1e-300)],
        kinds, sample_ids=["s0", "a,b", 's"q'])
    ds = assemble_dataset(static=static,
                          roles=RoleMap.of(covariates=("x", "k", 'c,"d"')))
    write_bundle(ds, tmp_path / "b")
    assert (tmp_path / "b" / "static.csv").read_bytes() == (
        b'feature_id,values\n'
        b'x,1.5  1e-300\n'
        b'k,-3  7\n'
        b'"c,""d""",1  0\n')
    assert read_bundle(tmp_path / "b" / MANIFEST_NAME) == ds


def test_packed_temporal_table_is_pinned(tmp_path):
    # one row per non-empty sequence, in sample then feature order; a
    # Categorical value is its index, an empty token Missing
    kinds = {"y": Continuous(), "c": Categorical(("lo", "a b"))}
    temporal = build_time_series_samples(
        [("s0", "y", 2.5, -3), ("s0", "y", 0.5, 1.5), ("s0", "y", 1.0, MISSING),
         ("s0", "c", 0.0, "a b"), ('s"q', "c", 1.0, MISSING),
         ('s"q', "c", 3.0, MISSING), ('s"q', "y", 1e-300, 1e300),
         ("s0", "c", 2.0, "lo")],
        kinds, sample_ids=["s0", "a,b", 's"q'])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("y", "c")))
    write_bundle(ds, tmp_path / "b")
    assert (tmp_path / "b" / "temporal.csv").read_bytes() == (
        b'sample_id,feature_id,times,values\n'
        b's0,y,0.5 1.0 2.5,1.5  -3.0\n'
        b's0,c,0.0 2.0,1 0\n'
        b'"s""q",y,1e-300,1e+300\n'
        b'"s""q",c,1.0 3.0, \n')
    assert read_bundle(tmp_path / "b" / MANIFEST_NAME) == ds


@pytest.mark.parametrize("build,held", [
    (lambda: build_static_samples([("a\rb", "x", 1.0)], {"x": Continuous()}),
     "lone carriage return"),
    (lambda: build_static_samples([("a", "x\ry", 1.0)],
                                  {"x\ry": Continuous()}),
     "lone carriage return"),
    (lambda: build_static_samples([], {"x\r": Continuous()},
                                  sample_ids=["a"]),
     "lone carriage return"),
    (lambda: build_static_samples([("a", "x", 1.0)], {"x": Continuous()},
                                  sample_ids=["a", "b\r"]),
     "lone carriage return"),
    (lambda: build_time_series_samples([("a\r\r\n", "f", 0.0, 1.0)],
                                       {"f": Continuous()}),
     "lone carriage return"),
    (lambda: build_event_samples([("a", "e\r", 1.0, 1)], {"e\r": Integer()}),
     "lone carriage return"),
    (lambda: Categorical(("p", "p\rq")), "lone carriage return"),
    (lambda: build_static_samples([("a\x00b", "x", 1.0)],
                                  {"x": Continuous()}),
     "NUL character"),
    (lambda: build_time_series_samples([("a", "f\x00", 0.0, 1.0)],
                                       {"f\x00": Continuous()}),
     "NUL character"),
    (lambda: Categorical(("p", "\x00")), "NUL character"),
], ids=["sample", "feature", "declared-feature", "pinned-sample",
        "temporal-sample", "event-feature", "category", "nul-sample",
        "nul-temporal-feature", "nul-category"])
def test_a_lone_carriage_return_in_an_id_is_refused(build, held):
    # csv.writer(lineterminator="\n") leaves a lone "\r" unquoted on some
    # interpreters, and the table then does not read back; the writer of
    # Python 3.10 cannot write a NUL at all
    with pytest.raises(KindMismatch, match=f"holds a {held}$"):
        build()


@pytest.mark.parametrize("sid, fid, held", [
    ("a\rb", "x", "sample_id 'a\\rb' holds a lone carriage return"),
    ("a\x00b", "x", "sample_id 'a\\x00b' holds a NUL character"),
    ("a", "x\ry", "feature_id 'x\\ry' holds a lone carriage return"),
], ids=["cr-sample", "nul-sample", "cr-feature"])
def test_write_bundle_checks_ids_before_writing(tmp_path, sid, fid, held):
    # a container built directly skips the builders' id check; the writer
    # refuses the id before it opens any file, so no partial bundle is left
    static = StaticSamples((sid,), ((fid, Continuous()),), ((1.0,),))
    ds = assemble_dataset(static=static, roles=RoleMap.of(covariates=(fid,)))
    with pytest.raises(KindMismatch, match=re.escape(held)):
        write_bundle(ds, tmp_path / "b")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("modality,kind,points,held", [
    ("temporal", Continuous(), ((1.0, 0.0), (1.0, 2.0)),
     ", point 1: time 0.0 is not after 1.0"),
    ("temporal", Continuous(), ((1.0, 1.0), (1.0, 2.0)),
     ", point 1: time 1.0 is not after 1.0"),
    ("temporal", Categorical(("x",)), ((1.0, 2.0), ("x", "y")),
     ", point 1: 'y' not in categories ['x']"),
    ("temporal", Continuous(), ((1.0,), (math.nan,)), ", point 0: "
                                                      "non-finite value nan"),
    ("temporal", Continuous(), ((math.inf,), (1.0,)), ", point 0: time must "
                                                      "be finite, got inf"),
    ("temporal", Continuous(), ((0.0, 1.0), (2.0,)),
     ": 2 times but 1 values"),
    ("temporal", Continuous(), ((0.0,), (2 ** 53 + 1,)),
     ", point 0: integer 9007199254740993 has no exact float"),
    ("events", Categorical(("x",)), (1.0, "y"),
     ", point 0: 'y' not in categories ['x']"),
    ("events", Integer(), (math.nan, 1), ", point 0: time must be finite, "
                                         "got nan"),
    ("temporal", Continuous(), ((0.0, 2 ** 53 + 1), (1.0, 2.0)),
     ", point 1: time 9007199254740993 has no exact float"),
], ids=["decreasing", "repeated", "category", "nan-value", "inf-time",
        "unequal-lengths", "inexact-int", "event-category",
        "event-nan-time", "inexact-int-time"])
def test_write_bundle_checks_timed_points_before_writing(tmp_path, modality,
                                                         kind, points, held):
    # a container built directly skips the builders' checks; a point the
    # reader would refuse is refused before any file is opened
    cls = TimeSeriesSamples if modality == "temporal" else EventSamples
    container = cls(("s0", "a"), (("f", kind),), ((points,), (points,)))
    ds = assemble_dataset(**{modality: container},
                          roles=RoleMap.of(covariates=("f",)))
    with pytest.raises(KindMismatch, match=re.escape(
            f"sample 's0', feature 'f'{held}")):
        write_bundle(ds, tmp_path / "b")
    assert not (tmp_path / "b").exists()


def test_write_bundle_refuses_the_last_timed_point_before_writing(tmp_path):
    # static.csv is clean and written first, and the fault is in the last
    # point of the last timed table: every table's rows are built before
    # any file is opened, so nothing is written
    ids = ("a", "b")
    static = build_static_samples([("a", "x", 1.0), ("b", "x", 2.0)],
                                  {"x": Continuous()})
    temporal = build_time_series_samples(
        [(s, "f", float(t), 1.0) for s in ids for t in range(3)],
        {"f": Continuous()})
    events = EventSamples(ids, (("d", Integer()), ("e", Integer())),
                          (((1.0, 1), (2.0, 0)), ((1.0, 1), (3.0, 1.5))))
    ds = assemble_dataset(static=static, temporal=temporal, events=events,
                          roles=RoleMap.of(covariates=("x", "f", "d"),
                                           targets=("e",)))
    with pytest.raises(KindMismatch, match=re.escape(
            "sample 'b', feature 'e', point 0: expected an integer, "
            "got 1.5")):
        write_bundle(ds, tmp_path / "b")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("kind,column,held", [
    (Continuous(), (1.0, math.nan), "sample 'b', feature 'f': non-finite "
                                    "value nan"),
    (Continuous(), (math.inf, 1.0), "sample 'a', feature 'f': non-finite "
                                    "value inf"),
    (Continuous(), (1.0, "1.5"), "sample 'b', feature 'f': expected a real "
                                 "number, got '1.5'"),
    (Categorical(("x",)), ("x", "zz"), "sample 'b', feature 'f': 'zz' not in "
                                       "categories ['x']"),
    (Integer(), (MISSING, True), "sample 'b', feature 'f': expected an "
                                 "integer, got True"),
    (Integer(), (2.5, 1), "sample 'a', feature 'f': expected an integer, "
                          "got 2.5"),
    (Integer(), (1, 10 ** 400), "sample 'b', feature 'f': integer beyond "
                                "float range"),
    (Continuous(), (1, 2 ** 53 + 1), "sample 'b', feature 'f': integer "
                                     "9007199254740993 has no exact float"),
], ids=["nan", "inf", "continuous-str", "category", "integer-bool",
        "integer-float", "integer-huge", "continuous-inexact-int"])
def test_write_bundle_checks_static_cells_before_writing(tmp_path, kind,
                                                         column, held):
    # a container built directly skips the builders' checks; a cell the
    # reader would refuse is refused before any file is opened
    static = StaticSamples(("a", "b"), (("g", Continuous()), ("f", kind)),
                           tuple((1.0, v) for v in column))
    ds = assemble_dataset(static=static,
                          roles=RoleMap.of(covariates=("g", "f")))
    with pytest.raises(KindMismatch, match=f"^{re.escape(held)}$"):
        write_bundle(ds, tmp_path / "b")
    assert not (tmp_path / "b").exists()


def test_write_bundle_takes_a_static_column_checked_cell_by_cell(tmp_path):
    # Continuous ints fail the column pass but `check_value` takes them;
    # they are written as the floats it stores and read back equal
    static = StaticSamples(("a", "b"), (("f", Continuous()),), ((1,), (-2,)))
    ds = assemble_dataset(static=static, roles=RoleMap.of(covariates=("f",)))
    write_bundle(ds, tmp_path / "b")
    assert (tmp_path / "b" / "static.csv").read_text(encoding="utf-8") == \
        "feature_id,values\nf,1.0 -2.0\n"
    assert read_bundle(tmp_path / "b" / MANIFEST_NAME) == ds


class _Code(int):
    """An int whose text is not its digits, as an IntEnum member's `str`
    is not on Python 3.10."""

    def __repr__(self):
        return f"<code {int.__repr__(self)}>"

    __str__ = __repr__


def test_an_int_subclass_is_written_as_the_int_it_stores(tmp_path):
    # `check_value` stores an Integer value as an int and `check_time` a
    # time as a float, and the writer writes what they return, whether
    # the builders or a direct construction made the container
    one, two = _Code(1), _Code(2)
    assert type(check_value(Integer(), one)) is int
    roles = RoleMap.of(covariates=("x", "f"), targets=("e",))
    built = assemble_dataset(
        static=build_static_samples([("a", "x", one), ("b", "x", two)],
                                    {"x": Integer()}),
        temporal=build_time_series_samples(
            [("a", "f", _Code(0), one), ("b", "f", one, two)],
            {"f": Integer()}),
        events=build_event_samples(
            [("a", "e", one, one), ("b", "e", two, two)], {"e": Integer()}),
        roles=roles)
    direct = assemble_dataset(
        static=StaticSamples(("a", "b"), (("x", Integer()),),
                             ((one,), (two,))),
        temporal=TimeSeriesSamples(("a", "b"), (("f", Integer()),),
                                   ((((_Code(0),), (one,)),),
                                    (((one,), (two,)),))),
        events=EventSamples(("a", "b"), (("e", Integer()),),
                            (((one, one),), ((two, two),))),
        roles=roles)
    for name, ds in (("built", built), ("direct", direct)):
        write_bundle(ds, tmp_path / name)
        tables = {f: (tmp_path / name / f).read_text(encoding="utf-8")
                  for f in ("static.csv", "temporal.csv", "events.csv")}
        assert tables == {
            "static.csv": "feature_id,values\nx,1 2\n",
            "temporal.csv": "sample_id,feature_id,times,values\n"
                            "a,f,0.0,1\nb,f,1.0,2\n",
            "events.csv": "sample_id,feature_id,time,value\n"
                          "a,e,1.0,1\nb,e,2.0,2\n"}, name
        assert read_bundle(tmp_path / name / MANIFEST_NAME) == ds
    assert {type(v) for row in built.static.values for v in row} == {int}
    assert {type(v) for row in built.temporal.series
            for _, values in row for v in values} == {int}
    assert {type(v) for row in built.events.entries
            for _, v in row} == {int}


def test_manifest_shape(tmp_path):
    ds, path = _write(tmp_path, seed=2)
    doc = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert list(doc) == ["schema_version", "samples", "files", "features",
                         "kinds", "roles"]
    assert doc["schema_version"] == "4"
    assert doc["samples"] == list(ds.sample_ids)
    for modality, container in ds.containers():
        assert doc["features"][modality.value] == list(container.feature_ids)
    for fid, _, role, _ in ds.all_features():
        assert doc["roles"][fid] == role.value
        assert "kind" in doc["kinds"][fid]


def test_empty_value_field_means_missing(tmp_path):
    static = build_static_samples(
        [("a", "x", 1.5)], {"x": Continuous()}, sample_ids=["a", "b"])
    ds = assemble_dataset(static=static, roles=RoleMap.of(covariates=("x",)))
    write_bundle(ds, tmp_path / "b")
    text = (tmp_path / "b" / "static.csv").read_text(encoding="utf-8")
    assert text == "feature_id,values\nx,1.5 \n"
    loaded = read_bundle(tmp_path / "b" / MANIFEST_NAME)
    assert loaded.static.cell("b", "x") is MISSING


def test_float_cells_round_trip_exactly(tmp_path):
    values = [0.1, 1 / 3, 1e-300, 9007199254740993.0, -2.5e17]
    rows = [(f"s{i}", "x", v) for i, v in enumerate(values)]
    static = build_static_samples(rows, {"x": Continuous()})
    ds = assemble_dataset(static=static, roles=RoleMap.of(covariates=("x",)))
    write_bundle(ds, tmp_path / "b")
    loaded = read_bundle(tmp_path / "b" / MANIFEST_NAME)
    for i, v in enumerate(values):
        assert loaded.static.cell(f"s{i}", "x") == v


def test_read_rejects_missing_or_bad_manifest(tmp_path):
    with pytest.raises(ManifestError):
        read_bundle(tmp_path / "nope" / MANIFEST_NAME)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestError):
        read_bundle(bad / MANIFEST_NAME)
    (bad / MANIFEST_NAME).write_text(
        json.dumps({"schema_version": "99", "samples": [], "files": {},
                    "features": {}, "kinds": {}, "roles": {}}),
        encoding="utf-8")
    with pytest.raises(ManifestError):
        read_bundle(bad / MANIFEST_NAME)


def test_read_reports_offending_file(tmp_path):
    ds, path = _write(tmp_path, seed=4)
    csv_path = path / "temporal.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    # duplicate the first data row to provoke a duplicate-time failure
    lines.append(lines[1])
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(Exception) as err:
        read_bundle(path / MANIFEST_NAME)
    assert "temporal.csv" in str(err.value)


def test_validate_long_table_timed_rules():
    kinds = {"f": Continuous()}
    rows = [
        ["s0", "f", "1.0", "2.0"],
        ["s0", "f", "1.0", "3.0"],   # duplicate time
        ["s0", "f", "", "3.0"],      # missing time
        ["s0", "f", "zzz", "3.0"],   # bad time
    ]
    violations = scan_sequences(rows, Modality.TEMPORAL, kinds,
                                ["s0"]).violations
    assert [v.code for v in violations] == ["duplicate_time", "missing_time",
                                            "bad_time"]


def test_validate_bundle_clean_and_dirty(tmp_path):
    ds, path = _write(tmp_path, seed=6)
    assert validate_bundle(path / MANIFEST_NAME) == []
    csv_path = path / "temporal.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    lines.append(lines[1])
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    found = validate_bundle(path / MANIFEST_NAME)
    assert len(found) == 1
    fname, violation = found[0]
    assert fname == "temporal.csv"
    assert violation.code == "duplicate_time"


def test_round_trip_empty_sequences_and_absent_entries(tmp_path):
    temporal = build_time_series_samples(
        [("a", "f", 0.0, 1.0)], {"f": Continuous()}, sample_ids=["a", "b"])
    ds = assemble_dataset(temporal=temporal,
                          roles=RoleMap.of(covariates=("f",)))
    write_bundle(ds, tmp_path / "b")
    loaded = read_bundle(tmp_path / "b" / MANIFEST_NAME)
    assert loaded.temporal.sequence("b", "f") == ((), ())
    assert loaded.sample_ids == ("a", "b")


def test_round_trip_validates_clean_on_20_random_datasets(tmp_path):
    for seed in range(20):
        ds, path = _write(tmp_path, seed=seed)
        assert validate_bundle(path / MANIFEST_NAME) == []
        loaded = read_bundle(path / MANIFEST_NAME)
        assert (loaded.static, loaded.temporal, loaded.events) == \
            (ds.static, ds.temporal, ds.events)
        assert loaded.roles == ds.roles
        assert dict(loaded.roles.assignment) == dict(ds.roles.assignment)


def _small_bundle(tmp_path):
    static = build_static_samples(
        [("s0", "x", 1.5), ("s0", "c", "a"), ("s1", "x", 2.5)],
        {"x": Continuous(), "c": Categorical(("a", "b"))})
    temporal = build_time_series_samples(
        [("s0", "f", 0.0, 1.0), ("s0", "f", 1.0, 2.0), ("s1", "f", 0.5, 3.0)],
        {"f": Continuous()})
    events = build_event_samples(
        [("s0", "e", 4.0, 1), ("s1", "e", 2.0, MISSING)], {"e": Integer()})
    ds = assemble_dataset(static=static, temporal=temporal, events=events,
                          roles=RoleMap.of(covariates=("x", "c", "f"),
                                           targets=("e",)))
    path = tmp_path / "small"
    write_bundle(ds, path)
    return path


# code, table, data row to append, or (row number, replacement), error
# type; more faults of the packed static.csv are in _STATIC_COLUMN_FAULTS.
# The packed temporal.csv of `_small_bundle`:
#   sample_id,feature_id,times,values / s0,f,0.0 1.0,1.0 2.0 / s1,f,0.5,3.0
_ONE_ROW_FAULTS = [
    ("arity", "static.csv", "x", ParseError),
    ("missing_time", "temporal.csv", "s1,f,,4.0", ParseError),
    ("bad_time", "events.csv", (2, "s1,e,soon,"), ParseError),
    ("bad_time", "temporal.csv", "s1,f,inf,4.0", ParseError),
    ("unknown_feature", "temporal.csv", "s1,ghost,0.0,1.0", KindMismatch),
    ("kind_mismatch", "static.csv", (2, "c,0 5"), KindMismatch),
    ("kind_mismatch", "events.csv", (1, "s0,e,4.0,1.5"), KindMismatch),
    ("unknown_sample", "temporal.csv", "ghost,f,0.0,1.0", UnknownSample),
    # a repeat of (s0, f) that does not follow its row
    ("duplicate_time", "temporal.csv", "s0,f,1.0,7.0", DuplicateTimePoint),
    ("duplicate_event", "events.csv", "s1,e,3.0,0", DuplicateEvent),
    ("arity", "temporal.csv", (2, "s1,f,0.5 0.7,3.0"), ParseError),
    ("duplicate_time", "temporal.csv", (1, "s0,f,0.0 0.0,1.0 2.0"),
     DuplicateTimePoint),
    ("bad_time", "temporal.csv", (1, "s0,f,1.0 0.0,1.0 2.0"), ParseError),
    # a row that goes on from (s1, f) at a time before its last one
    ("duplicate_time", "temporal.csv", "s1,f,0.25 0.75,4.0 5.0",
     DuplicateTimePoint),
    ("kind_mismatch", "temporal.csv", (1, "s0,f,0.0 1.0,1.0 1.2.3"),
     KindMismatch),
    ("bad_time", "temporal.csv", (2, "s1,f,2_5.0,3.0"), ParseError),
    ("bad_time", "temporal.csv", (1, "s0,f,0.0  1.0,1.0 2.0 3.0"),
     ParseError),
    ("kind_mismatch", "temporal.csv", (2, "s1,f,0.5,3.0\t"), KindMismatch),
    ("kind_mismatch", "temporal.csv", (2, "s1,f,0.5,\u0661.\u0665"),
     KindMismatch),
    ("kind_mismatch", "temporal.csv", (2, "s1,f,0.5,nan"), KindMismatch),
    ("bad_time", "events.csv", (1, "s0,e, 4.0,1"), ParseError),
    ("arity", "temporal.csv", "s1,f,0.5", ParseError),
    ("arity", "events.csv", (1, "s0,e,4.0,1,1"), ParseError),
]


@pytest.mark.parametrize("code,table,edit,error", _ONE_ROW_FAULTS)
def test_read_and_validate_agree_on_a_one_row_fault(tmp_path, code, table,
                                                     edit, error):
    _one_row_fault(_small_bundle(tmp_path), code, table, edit, error)


@pytest.mark.parametrize("code,edit,error,detail", [
    ("duplicate_time", (1, "s0,f,0.0 0.0,1.0 2.0"), DuplicateTimePoint,
     "point 1: duplicate time 0.0"),
    ("bad_time", (1, "s0,f,0.0 2.0 1.5,1.0 2.0 3.0"), ParseError,
     "point 2: time 1.5 is not after 2.0"),
    ("duplicate_time", "s1,f,0.5 0.75,4.0 5.0", DuplicateTimePoint,
     "point 0: time 0.5 is not after 0.5, the last of the row before"),
    ("bad_time", (1, "s0,f,0.0 1.0 inf,1.0 2.0 3.0"), ParseError,
     "times field holds 'i'"),
    ("bad_time", (1, "s0,f,0.0 1.0 1e999,1.0 2.0 3.0"), ParseError,
     "point 2: time '1e999' is not finite"),
    ("kind_mismatch", (1, "s0,f,0.0 1.0,1.0 1e999"), KindMismatch,
     "point 1, t=1.0: non-finite value '1e999'"),
    ("arity", (2, "s1,f,0.5 0.6,3.0"), ParseError, "2 times but 1 values"),
    ("duplicate_time", "s0,f,7.0,7.0", DuplicateTimePoint,
     "duplicate row for sample 's0', feature 'f'"),
    ("arity", "s1,f,0.5", ParseError, "expected 4 fields, got 3"),
])
def test_a_packed_row_fault_names_its_point(tmp_path, code, edit, error,
                                            detail):
    path = _small_bundle(tmp_path)
    assert (path / "temporal.csv").read_text(encoding="utf-8") == \
        "sample_id,feature_id,times,values\ns0,f,0.0 1.0,1.0 2.0\n" \
        "s1,f,0.5,3.0\n"
    assert _one_row_fault(path, code, "temporal.csv", edit, error) == detail


@pytest.mark.parametrize("token,detail", [
    ("2", "point 1, t=1.0: '2' is not a category index below 2"),
    ("hi", "point 1, t=1.0: 'hi' is not a category index below 2"),
])
def test_a_temporal_category_token_is_its_index(tmp_path, token, detail):
    temporal = build_time_series_samples(
        [("s0", "k", 0.0, "lo"), ("s0", "k", 1.0, "hi")],
        {"k": Categorical(("lo", "hi"))})
    path = tmp_path / "b"
    write_bundle(assemble_dataset(temporal=temporal,
                                  roles=RoleMap.of(covariates=("k",))), path)
    assert (path / "temporal.csv").read_text(encoding="utf-8") == \
        "sample_id,feature_id,times,values\ns0,k,0.0 1.0,0 1\n"
    assert _one_row_fault(path, "kind_mismatch", "temporal.csv",
                          (1, f"s0,k,0.0 1.0,0 {token}"),
                          KindMismatch) == detail


# the packed static.csv of `_small_bundle`:
#   feature_id,values / x,1.5 2.5 / c,0 (the category 'a', then Missing)
# A fault of a column's token count, feature or repeat is reported at its
# first row.
_STATIC_COLUMN_FAULTS = [
    ("arity", (1, "x,1.5 2.5,"), ParseError, "expected 2 fields, got 3"),
    ("arity", (1, "x,1.5"), ParseError,
     "feature 'x': expected 2 values, one per sample, got 1"),
    ("arity", (1, "x,1.5 2.5 3.5"), ParseError,
     "feature 'x': expected 2 values, one per sample, got 3"),
    ("arity", (1, "x,1.5\nx,2.5 3.5"), ParseError,
     "feature 'x': expected 2 values, one per sample, got 3"),
    ("unknown_feature", "ghost,1 2", KindMismatch,
     "feature 'ghost' has no declared kind"),
    ("duplicate_cell", "x,1.5 2.5", DuplicateCell,
     "duplicate rows for feature 'x'"),
    ("kind_mismatch", (1, "x,1.5 abc"), KindMismatch,
     "sample 's1', feature 'x': 'abc' is not a real number"),
    ("kind_mismatch", (1, "x,1e999 2.5"), KindMismatch,
     "sample 's0', feature 'x': non-finite value '1e999'"),
    ("kind_mismatch", (2, "c,0 z"), KindMismatch,
     "sample 's1', feature 'c': 'z' is not a category index below 2"),
]


@pytest.mark.parametrize("code,edit,error,detail", _STATIC_COLUMN_FAULTS)
def test_read_and_validate_agree_on_a_static_column_fault(tmp_path, code,
                                                          edit, error,
                                                          detail):
    path = _small_bundle(tmp_path)
    assert (path / "static.csv").read_text(encoding="utf-8") == \
        "feature_id,values\nx,1.5 2.5\nc,0 \n"
    assert _one_row_fault(path, code, "static.csv", edit, error) == detail


def test_a_static_token_fault_names_its_row_in_a_continued_column(
        tmp_path):
    # a column that goes on over two rows: the bad token is in the second
    path = _small_bundle(tmp_path)
    static = path / "static.csv"
    static.write_text("feature_id,values\nx,1.5\nx,2_5\nc,0 \n",
                      encoding="utf-8")
    detail = "sample 's1', feature 'x': '2_5' is not a real number"
    assert [(name, v.row, v.code, v.detail)
            for name, v in validate_bundle(path / MANIFEST_NAME)] == \
        [("static.csv", 2, "kind_mismatch", detail)]
    with pytest.raises(KindMismatch) as err:
        read_bundle(path / MANIFEST_NAME)
    assert str(err.value) == f"{static}:3: {detail}"
    static.write_text("feature_id,values\nx,1.5\nx,2.5\nc,0 \n",
                      encoding="utf-8")
    assert read_bundle(path / MANIFEST_NAME).static.column("x") == (1.5, 2.5)


def test_a_repeated_unknown_sample_row_is_a_duplicate(tmp_path):
    # the row outside the sample list takes a row after the listed ones,
    # so its repeat is a duplicate, not a second unknown sample
    path = _small_bundle(tmp_path)
    with open(path / "events.csv", "a", encoding="utf-8") as f:
        f.write("ghost,e,1.0,1\nghost,e,2.0,0\n")
    found = validate_bundle(path / MANIFEST_NAME)
    assert [(v.row, v.code) for _, v in found] == [
        (3, "unknown_sample"), (4, "duplicate_event")]
    with pytest.raises(UnknownSample, match=r"events.csv:4: sample 'ghost'"):
        read_bundle(path / MANIFEST_NAME)


def _one_row_fault(path, code, table, edit, error) -> str:
    """Apply a one-row edit to a table, check that validate and read report
    it alike, and return its detail."""
    csv_path = path / table
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if isinstance(edit, tuple):
        row, text = edit
        lines[row] = text
    else:
        lines.append(edit)
        row = len(lines) - 1
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    found = validate_bundle(path / MANIFEST_NAME)
    assert [(f, v.row, v.code) for f, v in found] == [(table, row, code)]
    with pytest.raises(error) as err:
        read_bundle(path / MANIFEST_NAME)
    assert str(err.value).startswith(f"{csv_path}:{row + 1}: ")
    assert str(err.value).endswith(found[0][1].detail)
    return found[0][1].detail


@pytest.mark.parametrize("key,sub,value", [
    ("kinds", None, []),
    ("features", "static", 5),
    ("features", "static", ["x", 5]),
    ("files", "static", 5),
    ("samples", None, ["s0", "s0"]),
])
def test_malformed_manifest_is_a_manifest_error(tmp_path, key, sub, value):
    path = _small_bundle(tmp_path)
    doc = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
    if sub is None:
        doc[key] = value
    else:
        doc[key][sub] = value
    (path / MANIFEST_NAME).write_text(json.dumps(doc), encoding="utf-8")
    for load in (read_bundle, validate_bundle):
        with pytest.raises(ManifestError):
            load(path / MANIFEST_NAME)


def _manifest_edit(change):
    def edit(path):
        manifest = path / MANIFEST_NAME
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps(change(doc)), encoding="utf-8")
    return edit


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _static_table(text):
    def edit(path):
        if text is None:
            os.remove(path / "static.csv")
        else:
            (path / "static.csv").write_text(text, encoding="utf-8")
    return edit


@pytest.mark.parametrize("edit,error,message", [
    (_manifest_edit(lambda d: ["manifest"]), ManifestError,
     "{manifest}: manifest must be an object"),
    (_manifest_edit(lambda d: _without(d, "roles")), ManifestError,
     "{manifest}: missing key 'roles'"),
    (_manifest_edit(lambda d: dict(d, samples=["s0", 1])), ManifestError,
     "{manifest}: samples must be a string list"),
    (_manifest_edit(lambda d: dict(d, files=dict(d["files"],
                                                 video="video.csv"))),
     ManifestError, "{manifest}: unknown modality 'video'"),
    (_manifest_edit(lambda d: dict(d, features=_without(d["features"],
                                                        "temporal"))),
     ManifestError, "{manifest}: no feature list for 'temporal'"),
    (_manifest_edit(lambda d: dict(d, roles=dict(d["roles"], x="label"))),
     ManifestError, "{manifest}: unknown role 'label' for 'x'"),
    (_manifest_edit(lambda d: dict(d, kinds=_without(d["kinds"], "x"))),
     ManifestError, "{manifest}: feature 'x' has no kind"),
    (_manifest_edit(lambda d: dict(d, roles=_without(d["roles"], "x"))),
     ManifestError, "{manifest}: feature 'x' has no role"),
    (_manifest_edit(lambda d: dict(d, kinds=dict(d["kinds"],
                                                 x={"kind": "complex"}))),
     ManifestError, "{manifest}: kinds['x']: unknown kind 'complex'"),
    (_static_table(None), ManifestError,
     "listed file does not exist: {static}"),
    (_static_table(""), ParseError, "{static}: missing header row"),
    (_static_table("sid,fid,value\n"), ParseError,
     "{static}: bad header ['sid', 'fid', 'value'], expected "
     "['feature_id', 'values']"),
    (_static_table("values,feature_id\n1.5 2.5,x\n"), ParseError,
     "{static}: bad header ['values', 'feature_id'], expected "
     "['feature_id', 'values']"),
    (_static_table("feature_id\nx\n"), ParseError,
     "{static}: bad header ['feature_id'], expected "
     "['feature_id', 'values']"),
    (_static_table("sample_id,x,c\ns0,1.5,a\n"), ParseError,
     "{static}: bad header ['sample_id', 'x', 'c'], expected "
     "['feature_id', 'values']"),
    (_manifest_edit(lambda d: dict(d, schema_version="2")), ManifestError,
     "{manifest}: unsupported schema_version '2' (expected '4')"),
    (_manifest_edit(lambda d: dict(d, schema_version="1")), ManifestError,
     "{manifest}: unsupported schema_version '1' (expected '4')"),
    # the version is a string
    (_manifest_edit(lambda d: dict(d, schema_version=4)), ManifestError,
     "{manifest}: unsupported schema_version 4 (expected '4')"),
    (_manifest_edit(lambda d: dict(d, schema_version="3")), ManifestError,
     "{manifest}: unsupported schema_version '3' (expected '4')"),
    (_manifest_edit(lambda d: dict(d, samples=["s0", "s\r1"])),
     ManifestError,
     "{manifest}: sample_id 's\\r1' holds a lone carriage return"),
    (_manifest_edit(lambda d: dict(
        d, features=dict(d["features"], static=["x", "c\r"]))),
     ManifestError,
     "{manifest}: feature_id 'c\\r' holds a lone carriage return"),
    (_manifest_edit(lambda d: dict(d, kinds=dict(
        d["kinds"], c={"kind": "categorical", "categories": ["a", "\rb"]}))),
     ManifestError,
     "{manifest}: kinds['c']: category '\\rb' holds a lone carriage "
     "return"),
    (_manifest_edit(lambda d: dict(d, samples=["s0", "s\x001"])),
     ManifestError, "{manifest}: sample_id 's\\x001' holds a NUL character"),
], ids=["not-an-object", "missing-key", "samples-not-strings",
        "unknown-modality", "no-feature-list", "unknown-role", "no-kind",
        "no-role", "bad-kind", "missing-file", "empty-table", "bad-header",
        "reordered-header", "short-header", "long-header", "schema-2",
        "schema-1", "schema-4", "schema-3", "cr-in-sample", "cr-in-feature",
        "cr-in-category", "nul-in-sample"])
def test_manifest_and_table_faults_are_pinned(tmp_path, capsys, edit, error,
                                              message):
    path = _small_bundle(tmp_path)
    edit(path)
    expected = message.format(manifest=path / MANIFEST_NAME,
                              static=path / "static.csv")
    for load in (read_bundle, validate_bundle):
        with pytest.raises(error) as exc:
            load(path / MANIFEST_NAME)
        assert str(exc.value) == expected
    assert cli(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"tempoframe: {expected}\n"


def test_validate_reports_row_faults_before_a_missing_table(tmp_path,
                                                           capsys):
    # read_bundle stops at the first table fault; validate used to scan on
    # and raise for the later missing file, printing no violation line
    path = tmp_path / "bundle"
    write_bundle(survival_dataset(1, n=12), path)
    static = path / "static.csv"
    lines = static.read_text(encoding="utf-8").splitlines(keepends=True)
    static.write_text("".join(lines + ["ghost,1\n"]), encoding="utf-8")
    (path / "events.csv").unlink()
    detail = "feature 'ghost' has no declared kind"
    with pytest.raises(KindMismatch) as exc:
        read_bundle(path / MANIFEST_NAME)
    assert str(exc.value) == f"{static}:3: {detail}"
    found = validate_bundle(path / MANIFEST_NAME)
    assert [(name, v.row, v.code, v.detail) for name, v in found] == \
        [("static.csv", 2, "unknown_feature", detail)]
    assert cli(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"static.csv:3: unknown_feature: " \
        f"{detail}\n"

    # with no earlier fault the missing table still raises
    static.write_text("".join(lines), encoding="utf-8")
    for load in (read_bundle, validate_bundle):
        with pytest.raises(ManifestError, match=(
                "^listed file does not exist: .*events.csv$")):
            load(path / MANIFEST_NAME)


def test_undecodable_or_oversized_input_names_the_file(tmp_path):
    path = _small_bundle(tmp_path)
    manifest = path / MANIFEST_NAME
    good = manifest.read_bytes()
    manifest.write_bytes(good.replace(b'"s0"', b'"s\xff"', 1))
    for load in (read_bundle, validate_bundle):
        with pytest.raises(ManifestError, match="manifest: not UTF-8"):
            load(manifest)
    manifest.write_bytes(good)
    static = path / "static.csv"
    lines = static.read_bytes().splitlines()
    for bad in (b"s0,c,\xff", b"s0,c," + b"a" * 131073):
        static.write_bytes(b"\n".join(lines[:2] + [bad]) + b"\n")
        for load in (read_bundle, validate_bundle):
            with pytest.raises(ParseError, match="static.csv: unreadable CSV"):
                load(manifest)
