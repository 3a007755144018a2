"""The builders against a dict-keyed scan of their records.

The builders check and place each record in one pass and raise at the
first one that breaks a rule. The oracle below lists every fault of a
record stream, keyed by (sample, feature), and a `grid` gathers its cells
one sample at a time. On every stream a builder must raise the oracle's
first fault other than an unknown sample, with the error of its code and
its detail as the message; else UnknownSample when records name samples
outside the pin; else return the oracle's container.
"""

from __future__ import annotations

import math
import re

import pytest

from datagen import random_dataset, sequence_of
from tempoframe.bundle import (
    VIOLATION_ERRORS,
    Violation,
    _parse_value,
    read_bundle,
    validate_bundle,
    write_bundle,
)
from tempoframe.data import (
    MISSING,
    Categorical,
    Continuous,
    EventSamples,
    Integer,
    Modality,
    StaticSamples,
    TimeSeriesSamples,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
    check_time,
    check_value,
)
from tempoframe.errors import KindMismatch, TempoframeError, UnknownSample
from tempoframe.rng import Lcg


# ---------------------------------------------------------------------------
# Oracle: the dict-keyed scan and its gathering grid
# ---------------------------------------------------------------------------

# Modality -> (container class, content of an absent (sample, feature)
# cell, violation code and message stem of a repeated record).
_MODALITIES = {
    Modality.STATIC: (StaticSamples, MISSING, "duplicate_cell",
                      "duplicate cell"),
    Modality.TEMPORAL: (TimeSeriesSamples, ((), ()), "duplicate_time",
                        "duplicate time {t}"),
    Modality.EVENT: (EventSamples, None, "duplicate_event", "duplicate event"),
}


def _oracle_scan(records, modality, kinds, pin=None):
    timed = modality is not Modality.STATIC
    series = modality is Modality.TEMPORAL
    width = 4 if timed else 3
    _, _, dup_code, dup_stem = _MODALITIES[modality]
    pinned = None if pin is None else set(pin)
    cells: dict = {}
    samples: dict = {}
    features: dict = {}
    bad: list = []
    t = None
    for row, rec in enumerate(records, 1):
        if len(rec) != width:
            bad.append(Violation(row, "arity", f"expected {width} fields, "
                                               f"got {len(rec)}"))
            continue
        if timed:
            sid, fid, t, value = rec
        else:
            sid, fid, value = rec
        if not (isinstance(sid, str) and isinstance(fid, str)):
            what, s = (("feature_id", fid) if isinstance(sid, str)
                       else ("sample_id", sid))
            bad.append(Violation(row, "kind_mismatch",
                                 f"{what} must be a string, got {s!r}"))
            continue
        kind = kinds.get(fid)
        if kind is None:
            bad.append(Violation(row, "unknown_feature",
                                 f"feature {fid!r} has no declared kind"))
            continue
        try:
            where = f"({sid}, {fid})"
            value_where = f"({sid}, {fid}, t={t})" if series else where
            if timed:
                t = check_time(t, where)
            value = check_value(kind, value, value_where)
        except KindMismatch as e:
            bad.append(Violation(row, "kind_mismatch", str(e)))
            continue
        key = (sid, fid)
        if series:
            seq = cells.get(key)
            if seq is None:
                seq = cells[key] = {}
            repeated = t in seq
        else:
            repeated = key in cells
        if repeated:
            bad.append(Violation(row, dup_code,
                                 f"{dup_stem.format(t=t)} for sample {sid!r}, "
                                 f"feature {fid!r}"))
            continue
        if series:
            seq[t] = value
        else:
            cells[key] = (t, value) if timed else value
        samples[sid] = None
        features[fid] = None
        if pinned is not None and sid not in pinned:
            bad.append(Violation(row, "unknown_sample",
                                 f"sample {sid!r} is not in the sample list"))
    return cells, samples, features, bad


def _oracle_grid(modality, scan, kinds, pin=None):
    cls, empty, _, _ = _MODALITIES[modality]
    cells, scan_samples, scan_features, _ = scan
    if modality is Modality.TEMPORAL:
        cells = {key: sequence_of(sorted(seq.items()))
                 for key, seq in cells.items()}
    samples = tuple(scan_samples if pin is None else pin)
    features = list(scan_features)
    features += [f for f in kinds if f not in scan_features]
    return cls(samples, tuple((f, kinds[f]) for f in features),
               tuple(tuple(cells.get((sid, fid), empty) for sid in samples)
                     for fid in features))


# ---------------------------------------------------------------------------
# Seeded record streams
# ---------------------------------------------------------------------------

_KINDS = {"f1": Continuous(), "f2": Integer(),
          "f3": Categorical(("lo", "hi"))}
_SAMPLES = ("s0", "s1", "s2", "s3", "s4")
_PY_VALUES = (MISSING, 1.5, -2, 7, "lo", "hi", "x", math.nan, True, None,
              3.0, math.inf)
_PY_TIMES = (0, 1, 2.5, 1.0, 0.0, "x", math.inf, True)
_BUILDERS = {Modality.STATIC: build_static_samples,
             Modality.TEMPORAL: build_time_series_samples,
             Modality.EVENT: build_event_samples}


def _pick(rng, seq):
    return seq[rng.below(len(seq))]


def _dirty_records(rng, modality):
    """Records that break every rule now and then, on a pool small enough
    to repeat cells, times and out-of-pin samples often."""
    timed = modality is not Modality.STATIC
    out = []
    for _ in range(8 + rng.below(40)):
        sid = _pick(rng, _SAMPLES + ("s9",))
        fid = _pick(rng, tuple(_KINDS) + ("zz",))
        if rng.below(12) == 0:
            sid, fid = (7, fid) if rng.coin() else (sid, None)
        value = _pick(rng, _PY_VALUES)
        rec = [sid, fid]
        if timed:
            rec.append(_pick(rng, _PY_TIMES))
        rec.append(value)
        if rng.below(15) == 0:
            rec = rec[:-1] if rng.coin() else rec + [value]
        out.append(tuple(rec))
    return out


def _clean_records(rng, modality):
    """Valid records with no repeated cell or time: a clean scan."""
    timed = modality is not Modality.STATIC
    keys = {}
    for _ in range(4 + rng.below(30)):
        sid, fid = _pick(rng, _SAMPLES), _pick(rng, tuple(_KINDS))
        t = float(rng.below(6)) if timed else None
        key = (sid, fid) if modality is not Modality.TEMPORAL \
            else (sid, fid, t)
        kind = _KINDS[fid]
        if isinstance(kind, Categorical):
            value = _pick(rng, kind.categories)
        elif rng.below(5) == 0:
            value = MISSING
        elif isinstance(kind, Integer):
            value = rng.below(9) - 4
        else:
            value = rng.uniform_in(-3.0, 3.0)
        keys.setdefault(key, (sid, fid, *(() if t is None else (t,)), value))
    return list(keys.values())


def _pin(rng):
    if rng.coin():
        return None
    pool = list(_SAMPLES)
    rng.shuffle(pool)
    return pool[:2 + rng.below(3)] + ["p9"]


def _assert_same(records, modality, pin):
    """Build `records` and check the outcome against the oracle's; returns
    the oracle's violations."""
    scan = _oracle_scan(records, modality, _KINDS, pin)
    cells, samples, _, violations = scan
    build = _BUILDERS[modality]
    faults = [v for v in violations if v.code != "unknown_sample"]
    if faults:
        with pytest.raises(TempoframeError) as info:
            build(records, _KINDS, sample_ids=pin)
        assert type(info.value) is VIOLATION_ERRORS[faults[0].code]
        assert str(info.value) == faults[0].detail
    elif violations:
        extra = [s for s in samples if s not in pin]
        with pytest.raises(UnknownSample) as info:
            build(records, _KINDS, sample_ids=pin)
        assert str(info.value) == \
            f"rows mention samples not in sample_ids: {extra}"
    else:
        assert build(records, _KINDS, sample_ids=pin) == \
            _oracle_grid(modality, scan, _KINDS, pin)
    return violations


@pytest.mark.parametrize("modality", list(Modality))
def test_scan_matches_the_dict_keyed_oracle(modality):
    codes = set()
    clean = 0
    for seed in range(120):
        rng = Lcg(1000 * seed + 7)
        pin = _pin(rng)
        dirty = seed % 3 != 0
        records = (_dirty_records if dirty else _clean_records)(rng, modality)
        violations = _assert_same(records, modality, pin)
        codes.update(v.code for v in violations)
        clean += not violations
    # The streams reach every rule of the modality, and clean scans.
    dup = _MODALITIES[modality][2]
    expected = {"arity", "unknown_feature", "kind_mismatch",
                "unknown_sample", dup}
    assert expected <= codes
    assert clean >= 20


@pytest.mark.parametrize("modality,fields", [
    (Modality.STATIC, (1.5,)),
    (Modality.TEMPORAL, (0.0, 1.5)),
    (Modality.EVENT, (0.0, 1.5)),
])
def test_duplicate_of_an_out_of_pin_record(modality, fields):
    # The record outside the pin takes a row after the pinned ones; its
    # repeat is a duplicate, raised before the unknown sample.
    records = [("s1", "f1", *fields), ("s1", "f1", *fields),
               ("s0", "f2", *fields[:-1], 3)]
    violations = _assert_same(records, modality, ["s0"])
    assert [(v.row, v.code) for v in violations] == [
        (1, "unknown_sample"), (2, _MODALITIES[modality][2])]
    # Without the repeat only the unknown sample is left.
    del records[1]
    assert [v.code for v in _assert_same(records, modality, ["s0"])] == [
        "unknown_sample"]


def test_table_out_of_manifest_feature_order(tmp_path):
    # A temporal table whose rows name a later manifest feature first: the
    # container takes the manifest's order.
    bundle = tmp_path / "b"
    ds = random_dataset(3)
    manifest = write_bundle(ds, str(bundle))
    path = bundle / "temporal.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert len({row.split(",")[1] for row in rows}) > 1
    rows.reverse()
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    got = read_bundle(str(bundle / "manifest")).temporal
    assert got == ds.temporal
    assert got.feature_ids == tuple(manifest.features["temporal"])
    assert validate_bundle(str(bundle / "manifest")) == []


@pytest.mark.parametrize("field,value", [
    ("+" + "0" * 4400 + "7", 7), ("-" + "0" * 4400 + "7", -7),
    ("0" * 5000, 0), ("0" * 4400 + "1" + "0" * 300, 10 ** 300)])
def test_leading_zeros_do_not_count_toward_the_digit_limit(field, value):
    assert _parse_value(Integer(), field) == value
    for refused in ("+" + "1" * 4400, "0" * 4400 + "1" + "0" * 400):
        with pytest.raises(KindMismatch, match="^integer beyond float range$"):
            _parse_value(Integer(), refused)


@pytest.mark.parametrize("field", ["0_1", " 7 ", "\u0663", "7 ", "+", "-",
                                   "+-1", "1.0", "\uff17", "\u00b2"])
def test_integer_fields_are_ascii_decimals(field):
    # int() reads "0_1", " 7 " and the Arabic-Indic digit three as 1, 7, 3
    with pytest.raises(KindMismatch, match=f"^{re.escape(repr(field))} is "
                                           "not an integer$"):
        _parse_value(Integer(), field)
    assert _parse_value(Integer(), "+007") == 7
    assert _parse_value(Integer(), "-0") == 0
