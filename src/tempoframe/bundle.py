"""Bundle file format: a `manifest` JSON file plus one CSV per modality.

Layout (schema "4"):
    manifest       JSON: schema_version, samples, files, features, kinds,
                   roles
    static.csv     feature_id,values: one row per static feature, in
                   manifest order, holding one token per manifest sample
    temporal.csv   sample_id,feature_id,times,values: one row per non-empty
                   (sample, feature) sequence, in manifest sample order,
                   then feature order
    events.csv     sample_id,feature_id,time,value: one row per event

A packed field (`values` of a static column, `times` or `values` of a
sequence) holds one token per sample or point, `repr` numbers separated by
single spaces, with times strictly increasing. A Categorical token is its
0-based index in the manifest's category list, since a category may hold
a space; an event value is the category itself. An empty value (field or
token) is Missing. A static column or a sequence whose packed fields
would pass `_ROW_CHARS` characters goes on in the next row, so no field
reaches the csv module's field limit. Writing is deterministic: fixed
field order, shortest round-trip float formatting, UTF-8, LF line
endings, so identical datasets produce byte-identical bundles. A manifest
of any other schema, such as "3" (whose static table had one row per
sample) or "2", is refused.

This module holds the file grammar, and owns the violation codes of its
table faults and the error each raises (`VIOLATION_ERRORS`). Reading and
validation share one scan (`_scan_bundle`): the manifest check, one pass
over each listed table (`scan_columns` for the static table,
`scan_sequences` for a timed one) that checks each data row and places its
values, and the assembly of clean tables into a Dataset, so both fail on
the same bundles.
`validate_bundle` returns every table fault; `read_bundle` raises the
first in row order as `<path>:<line>: <detail>`, with the error type of
its code.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import groupby, islice
from operator import itemgetter, lt
from typing import NamedTuple

from tempoframe.data import (
    Categorical,
    Continuous,
    Dataset,
    EventSamples,
    Integer,
    MISSING,
    Modality,
    Role,
    RoleMap,
    StaticSamples,
    TimeSeriesSamples,
    ValueKind,
    _check_id,
    _float_of,
    assemble_dataset,
    check_time,
    check_value,
    kind_from_json,
    kind_to_json,
)
from tempoframe.errors import (
    DuplicateCell,
    DuplicateEvent,
    DuplicateTimePoint,
    IoError,
    KindMismatch,
    ManifestError,
    ParseError,
    TempoframeError,
    UnknownSample,
)

SCHEMA_VERSION = "4"
MANIFEST_NAME = "manifest"

# Modality -> (table file name, the container it is read into), in the
# order tables are written, read and validated.
_TABLES = {
    Modality.STATIC: ("static.csv", StaticSamples),
    Modality.TEMPORAL: ("temporal.csv", TimeSeriesSamples),
    Modality.EVENT: ("events.csv", EventSamples),
}
# Modality -> header of its table.
_HEADERS = {
    Modality.STATIC: ["feature_id", "values"],
    Modality.TEMPORAL: ["sample_id", "feature_id", "times", "values"],
    Modality.EVENT: ["sample_id", "feature_id", "time", "value"],
}
# The packed characters of one row, a temporal row's times and values
# together: half of `csv.field_size_limit()`'s default, which the reader
# keeps.
_ROW_CHARS = 65536


@dataclass(frozen=True)
class Violation:
    row: int
    code: str
    detail: str


# Violation code -> the error `read_bundle` raises for it.
VIOLATION_ERRORS = {
    "arity": ParseError,
    "missing_time": ParseError,
    "bad_time": ParseError,
    "unknown_feature": KindMismatch,
    "kind_mismatch": KindMismatch,
    "unknown_sample": UnknownSample,
    "duplicate_cell": DuplicateCell,
    "duplicate_time": DuplicateTimePoint,
    "duplicate_event": DuplicateEvent,
}


class Scan(NamedTuple):
    cells: list       # per manifest sample, one cell per feature (manifest
                      # order); a timed table adds a row per sample
                      # outside the manifest
    violations: list  # Violation per rejected row or column, in row order


@dataclass(frozen=True)
class BundleManifest:
    samples: tuple[str, ...]
    files: dict           # modality name -> relative path
    features: dict        # modality name -> ordered feature id list
    kinds: dict           # feature_id -> ValueKind
    roles: dict           # feature_id -> role name


def locate_manifest(path: str) -> str:
    """The manifest path of a bundle given as its directory or as the
    manifest itself."""
    return os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _manifest_kind(d, where: str) -> ValueKind:
    try:
        return kind_from_json(d, where)
    except KindMismatch as e:
        raise ManifestError(str(e)) from None


def _is_string_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def _manifest_id(s: str, what: str, manifest_path) -> None:
    try:
        _check_id(s, what)
    except KindMismatch as e:
        raise ManifestError(f"{manifest_path}: {e}") from None


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def manifest_for(ds: Dataset) -> BundleManifest:
    files = {}
    features = {}
    for modality, container in ds.containers():
        files[modality.value] = _TABLES[modality][0]
        features[modality.value] = list(container.feature_ids)
    kinds = {fid: kind for fid, kind, _, _ in ds.all_features()}
    # Assignment order, so the RoleMap read back equals this one.
    roles = {fid: role.value for fid, role in ds.roles.assignment}
    return BundleManifest(tuple(ds.sample_ids), files, features, kinds,
                          roles)


def _manifest_json(m: BundleManifest) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "samples": list(m.samples),
        "files": m.files,
        "features": m.features,
        "kinds": {fid: kind_to_json(k) for fid, k in m.kinds.items()},
        "roles": m.roles,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# Kind -> the one type `check_value` stores a cell of that kind as.
_STORED = {Continuous: float, Integer: int, Categorical: str}


def _clean_column(kind: ValueKind, column) -> bool:
    """Whether each cell of a static column is, by C-level passes over
    the column, Missing or stored as `check_value` stores it: a finite
    float, an int in float range, or one of the categories. False when
    in doubt (a Continuous int)."""
    types = set(map(type, column))
    if type(MISSING) in types:
        types.discard(type(MISSING))
        column = [v for v in column if v is not MISSING]
    if not types <= {_STORED[type(kind)]}:
        return False
    if isinstance(kind, Categorical):
        return set(kind.categories).issuperset(column)
    try:
        return all(map(math.isfinite, column))
    except OverflowError:  # an int beyond float range
        return False


def _token_writer(kind: ValueKind):
    """The packed token of a stored value that is not Missing: a
    category's index, or a number's shortest round-trip repr."""
    if isinstance(kind, Categorical):
        return {c: str(i) for i, c in enumerate(kind.categories)}.__getitem__
    return repr


def _static_rows(container):
    """The data rows of a static container, one column each: its cells
    checked column by column (a column `_clean_column` doubts, cell by
    cell, and then written as checked) and packed, `_ROW_CHARS`
    characters at most to a row. No samples, no rows."""
    for (fid, kind), column in zip(container.features,
                                   zip(*container.values)):
        if not _clean_column(kind, column):
            column = [check_value(kind, v, f"sample {sid!r}, feature {fid!r}")
                      for sid, v in zip(container.sample_ids, column)]
        write = _token_writer(kind)
        text = " ".join(["" if v is MISSING else write(v) for v in column])
        start = 0
        while len(text) - start > _ROW_CHARS:
            cut = text.rfind(" ", start, start + _ROW_CHARS + 1)
            yield [fid, text[start:cut]]
            start = cut + 1
        yield [fid, text[start:]]


def _timed_rows(modality: Modality, container):
    """The data rows of a timed container, each sequence walked once (an
    event as a one-point sequence): its times and values equal in number,
    and each point a time `check_time` takes, after the one before it,
    and a value `check_value` takes, written as they return it. The
    location of a point is built only when it raises."""
    packed = modality is Modality.TEMPORAL
    writers = {fid: _token_writer(kind) for fid, kind in container.features}
    for sid, row in zip(container.sample_ids,
                        container.series if packed else container.entries):
        for (fid, kind), seq in zip(container.features, row):
            if seq is None:  # no event
                continue
            times, values = seq if packed else ((seq[0],), (seq[1],))
            if len(times) != len(values):
                raise KindMismatch(f"sample {sid!r}, feature {fid!r}: "
                                   f"{len(times)} times but {len(values)} "
                                   "values")
            write = writers[fid]
            ts, vs, size = [], [], 0
            prev = -math.inf
            for k, (t, v) in enumerate(zip(times, values)):
                try:
                    last, prev = prev, check_time(t)
                    if not last < prev:
                        raise KindMismatch(f"time {prev!r} is not after "
                                           f"{last!r}")
                    v = check_value(kind, v)
                except KindMismatch as e:
                    raise KindMismatch(f"sample {sid!r}, feature {fid!r}, "
                                       f"point {k}: {e}") from None
                if not packed:
                    yield [sid, fid, prev, None if v is MISSING else v]
                    continue
                tt = repr(prev)
                vt = "" if v is MISSING else write(v)
                size += len(tt) + len(vt) + 2
                if size > _ROW_CHARS and ts:
                    yield [sid, fid, " ".join(ts), " ".join(vs)]
                    ts, vs, size = [], [], len(tt) + len(vt) + 2
                ts.append(tt)
                vs.append(vt)
            if ts:
                yield [sid, fid, " ".join(ts), " ".join(vs)]


def write_bundle(ds: Dataset, dir_path) -> BundleManifest:
    """Write manifest plus one CSV per present modality; deterministic.

    Before any file is opened, every sample and feature id is checked
    with `_check_id` (a category is checked by `Categorical` itself) and
    each table's rows are built, with each cell or point checked as
    `read_bundle` reads it back, so a directly built container whose ids,
    cells or points it would refuse raises `KindMismatch` (naming the
    sample, feature and point) and writes nothing. A value goes out in
    the form `check_time` or `check_value` returns it: csv.writer writes
    None (a Missing event value) as an empty field and a float by repr."""
    manifest = manifest_for(ds)
    for sid in manifest.samples:
        _check_id(sid, "sample_id")
    for fid in manifest.kinds:
        _check_id(fid, "feature_id")
    tables = [(modality, [_HEADERS[modality], *(
        _static_rows(container) if modality is Modality.STATIC
        else _timed_rows(modality, container))])
        for modality, container in ds.containers()]
    try:
        os.makedirs(dir_path, exist_ok=True)
        with open(os.path.join(dir_path, MANIFEST_NAME), "w",
                  encoding="utf-8", newline="\n") as f:
            f.write(_manifest_json(manifest))
        for modality, rows in tables:
            with open(os.path.join(dir_path, _TABLES[modality][0]), "w",
                      encoding="utf-8", newline="") as f:
                if modality is not Modality.STATIC:
                    csv.writer(f, lineterminator="\n").writerows(rows)
                    continue
                # csv quotes a feature id as it must; a static values
                # field holds no character csv quotes, so it goes as is
                ids = csv.writer(f, lineterminator="")
                for fid, values in rows:
                    ids.writerow([fid, ""])
                    f.write(values + "\n")
    except OSError as e:
        raise IoError(f"cannot write bundle at {dir_path}: {e}") from e
    return manifest


# ---------------------------------------------------------------------------
# Table grammar
# ---------------------------------------------------------------------------

# The characters `repr` writes for a finite number; a packed number field
# also holds the spaces between its tokens. `str.translate` deletes them.
_NUMBER_CHARS = "0123456789.e+-"
_NOT_NUMBER = {False: str.maketrans("", "", _NUMBER_CHARS),
               True: str.maketrans("", "", _NUMBER_CHARS + " ")}


def _parse_time(s: str) -> float:
    """A time token as a finite float, or ParseError."""
    try:
        t = float(s)
    except ValueError:
        raise ParseError(f"time {s!r} is not decimal") from None
    if not math.isfinite(t):
        raise ParseError(f"time {s!r} is not finite")
    return t


def _parse_value(kind: ValueKind, s: str):
    """A value field or token in the stored form of `check_value`; the
    empty one is Missing."""
    if s == "":
        return MISSING
    if isinstance(kind, Continuous):
        try:
            if s.translate(_NOT_NUMBER[False]):  # float() reads "2_5", "nan"
                raise ValueError
            v = float(s)
        except ValueError:
            raise KindMismatch(f"{s!r} is not a real number") from None
        if not math.isfinite(v):
            raise KindMismatch(f"non-finite value {s!r}")
        return v
    if isinstance(kind, Integer):
        # ASCII [+-]?[0-9]+ only: int() would also read "0_1", " 7 " and
        # non-ASCII digits
        if not (s.isascii() and (s.isdigit()
                                 or s[0] in "+-" and s[1:].isdigit())):
            raise KindMismatch(f"{s!r} is not an integer")
        try:
            i = int(s, 10)
        except ValueError:
            # int() refuses a field of digits only past its length limit
            # (4,300 digits), leading zeros included; without them the
            # value is read, or it is far beyond float range: do not echo it
            sign = s[0] if s[0] in "+-" else ""
            try:
                i = int(sign + (s[len(sign):].lstrip("0") or "0"), 10)
            except ValueError:
                raise KindMismatch("integer beyond float range") from None
        _float_of(i, None)
        return i
    if s in kind.categories:
        return s
    raise KindMismatch(f"{s!r} not in categories {list(kind.categories)}")


def _token_reader(kind: ValueKind, indexed: bool):
    """token -> stored value of `kind`, by `_parse_value`; a Categorical
    token of a packed (`indexed`) field is the category's index."""
    if not (indexed and isinstance(kind, Categorical)):
        return partial(_parse_value, kind)
    by_index = {str(i): c for i, c in enumerate(kind.categories)}
    by_index[""] = MISSING

    def read(s):
        try:
            return by_index[s]
        except KeyError:
            raise KindMismatch(f"{s!r} is not a category index below "
                               f"{len(kind.categories)}") from None
    return read


class _RowFault(Exception):
    """The first rule a table row breaks; args are its violation code and
    detail."""


def _check_number_field(field: str, packed: bool, code: str, name: str):
    """Refuse a number field that holds a character `repr` does not write
    for a finite number, or a space outside a `packed` field; checked once
    per field. `float()` and `int()` alone would read `2_5`, ` 1.5`,
    non-ASCII digits and `nan`."""
    odd = field.translate(_NOT_NUMBER[packed])
    if odd:
        raise _RowFault(code, f"{name} field holds {odd[0]!r}")


def scan_columns(rows, kinds: dict, pin) -> Scan:
    """Check, convert and place the data rows of a static table, one
    column at a time.

    Adjacent rows that name one feature of `kinds` hold its column: their
    values fields, joined by a space, hold one token per sample of `pin`,
    in its order (an empty token is Missing, a category its index). A
    column that breaks a rule is left out and gives one Violation, for the
    first rule it breaks: the field count of a row (`arity`), its feature,
    a feature whose column came before (`duplicate_cell`), its token count
    (`arity`), or a token its kind refuses (`kind_mismatch`, naming the
    sample and the feature). A feature no row names is Missing throughout.
    The cells come back per sample, by one `zip` of the columns.
    """
    columns, bad, row = {}, [], 0
    for key, group in groupby(rows, itemgetter(slice(1))):
        group = list(group)
        got = _column(group, row + 1, key, kinds, columns, pin)
        row += len(group)
        if isinstance(got, Violation):
            bad.append(got)
        else:
            columns[key[0]] = got
    blank = [MISSING] * len(pin)
    columns = [columns.get(fid, blank) for fid in kinds]
    return Scan(list(zip(*columns)) if columns else [()] * len(pin), bad)


def _column(group: list, row: int, key: list, kinds: dict, done: dict, pin):
    """The values of one feature's column from its rows, the first of them
    data row `row`, or the Violation of the first rule they break. Each
    field is checked and converted whole; only one that fails is walked
    token by token."""
    for at, rec in enumerate(group, row):
        if len(rec) != 2:
            return Violation(at, "arity", f"expected 2 fields, got {len(rec)}")
    fid = key[0]
    if fid not in kinds:
        return Violation(row, "unknown_feature",
                         f"feature {fid!r} has no declared kind")
    if fid in done:
        return Violation(row, "duplicate_cell",
                         f"duplicate rows for feature {fid!r}")
    kind = kinds[fid]
    field = " ".join([rec[1] for rec in group])
    tokens = field.split(" ")
    if len(tokens) != len(pin):
        return Violation(row, "arity", f"feature {fid!r}: expected "
                                       f"{len(pin)} values, one per sample, "
                                       f"got {len(tokens)}")
    read = _token_reader(kind, True)
    try:
        if not isinstance(kind, Categorical):
            _check_number_field(field, True, "kind_mismatch", "values")
        if isinstance(kind, Continuous):
            return _reals(tokens)
        return list(map(read, tokens))
    except (_RowFault, ValueError, KindMismatch):
        pass
    samples = iter(pin)
    for at, rec in enumerate(group, row):
        for s, sid in zip(rec[1].split(" "), samples):
            try:
                read(s)
            except KindMismatch as e:
                return Violation(at, "kind_mismatch",
                                 f"sample {sid!r}, feature {fid!r}: {e}")
    raise AssertionError("the fast path refused a column with no fault")


def scan_sequences(rows, modality: Modality, kinds: dict, pin) -> Scan:
    """Check, convert and place the data rows of a timed table in one pass.

    Each row is a sample id, a feature of `kinds`, a times field and a
    values field: packed tokens in `temporal.csv` (a category by its
    index), one token in `events.csv` (a category by itself). A row that
    breaks a rule is left out and gives one Violation, with its 1-based
    row, for the first rule it breaks: its field count, its
    feature, an empty times field (`missing_time`), a number field outside
    `_check_number_field`, unequal token counts (`arity`), a second row of
    a (sample, feature) that is not a temporal row right after the first
    (the modality's duplicate code), a point of `_points`, or a sample
    outside `pin`, which still gets a row after the pinned ones. A row
    right after the first continues its sequence. Slots follow `kinds`
    (manifest) order; one no row fills holds an empty sequence, or None
    for no event.
    """
    packed = modality is Modality.TEMPORAL
    dup_code = "duplicate_time" if packed else "duplicate_event"
    empty = ((), ()) if packed else None  # an empty sequence, no event entry
    features = {f: j for j, f in enumerate(kinds)}
    # feature -> its token reader and kind
    readers = {f: (_token_reader(k, packed), k) for f, k in kinds.items()}
    samples = {s: i for i, s in enumerate(pin)}
    pinned = len(samples)
    cells = [[empty] * len(features) for _ in samples]
    bad = []
    last = None  # (row, slot) of the last accepted table row
    for row, rec in enumerate(rows, 1):
        try:
            if len(rec) != 4:
                raise _RowFault("arity", f"expected 4 fields, got {len(rec)}")
            sid, fid, times, values = rec
            if fid not in readers:
                raise _RowFault("unknown_feature",
                                f"feature {fid!r} has no declared kind")
            read, kind = readers[fid]
            if times == "":
                raise _RowFault("missing_time", "empty time field")
            _check_number_field(times, packed, "bad_time", "times")
            if not isinstance(kind, Categorical):
                _check_number_field(values, packed, "kind_mismatch", "values")
            if packed:
                ts, vs = times.split(" "), values.split(" ")
                if len(ts) != len(vs):
                    raise _RowFault("arity", f"{len(ts)} times but "
                                             f"{len(vs)} values")
            else:
                ts, vs = (times,), (values,)
            j = features[fid]
            i = samples.get(sid)
            held = empty if i is None else cells[i][j]
            if held is empty:
                prev = -math.inf
            elif packed and last == (i, j):
                prev = held[0][-1]
            else:
                raise _RowFault(dup_code, f"duplicate row for sample {sid!r}, "
                                          f"feature {fid!r}")
            times, values = _points(ts, vs, read,
                                    isinstance(kind, Continuous), prev)
        except _RowFault as e:
            bad.append(Violation(row, *e.args))
            continue
        if i is None:
            i = samples[sid] = len(cells)
            cells.append([empty] * len(features))
        if held is not empty:  # the row goes on from the row before
            times, values = held[0] + times, held[1] + values
        cells[i][j] = (times, values) if packed else (times[0], values[0])
        last = (i, j)
        if i >= pinned:
            bad.append(Violation(row, "unknown_sample",
                                 f"sample {sid!r} is not in the sample list"))
    return Scan(cells, bad)


def _reals(tokens) -> list:
    """The Continuous values of number-field tokens, or ValueError; after
    `_check_number_field` no token reads as nan, so a non-finite one is
    ±inf."""
    values = [float(s) if s else MISSING for s in tokens]
    if math.inf in values or -math.inf in values:
        raise ValueError("non-finite value")
    return values


def _points(ts, vs, read, reals: bool, prev: float) -> tuple:
    """The (times, values) tuples of one row's tokens, values read by
    `read` (by `_reals` when `reals`); times must be finite and strictly
    increasing after `prev`. Else the first point that breaks a rule,
    found one point at a time, raises; the detail names its index and
    time."""
    try:
        times = [float(s) for s in ts]
        values = _reals(vs) if reals else list(map(read, vs))
        if (prev < times[0] and times[-1] < math.inf
                and all(map(lt, times, islice(times, 1, None)))):
            return tuple(times), tuple(values)
    except (ValueError, KindMismatch):
        pass
    for k, (tt, vt) in enumerate(zip(ts, vs)):
        try:
            t = _parse_time(tt)
            read(vt)
        except ParseError as e:
            raise _RowFault("bad_time", f"point {k}: {e}") from None
        except KindMismatch as e:
            raise _RowFault("kind_mismatch", f"point {k}, t={t!r}: {e}") \
                from None
        if not prev < t:
            if k == 0:  # the row goes on from the row before
                detail = (f"time {t!r} is not after {prev!r}, the last of "
                          "the row before")
            elif t == prev:
                detail = f"duplicate time {t!r}"
            else:
                detail = f"time {t!r} is not after {prev!r}"
            code = "bad_time" if k and t < prev else "duplicate_time"
            raise _RowFault(code, f"point {k}: {detail}")
        prev = t
    raise AssertionError("the fast path refused a row with no fault")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _load_manifest(manifest_path) -> BundleManifest:
    if not os.path.exists(manifest_path):
        raise ManifestError(f"no manifest at {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        raise IoError(f"cannot read {manifest_path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ManifestError(f"{manifest_path}: not UTF-8 text: {e}") from None
    try:
        doc = json.loads(raw)
    except ValueError as e:
        raise ManifestError(f"{manifest_path}: not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ManifestError(f"{manifest_path}: manifest must be an object")
    for key in ("schema_version", "samples", "files", "features", "kinds",
                "roles"):
        if key not in doc:
            raise ManifestError(f"{manifest_path}: missing key {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ManifestError(
            f"{manifest_path}: unsupported schema_version "
            f"{doc['schema_version']!r} (expected {SCHEMA_VERSION!r})")
    samples = doc["samples"]
    if not _is_string_list(samples):
        raise ManifestError(f"{manifest_path}: samples must be a string list")
    if len(set(samples)) != len(samples):
        raise ManifestError(f"{manifest_path}: samples repeat a sample id")
    for sid in samples:
        _manifest_id(sid, "sample_id", manifest_path)
    for key in ("files", "features", "kinds", "roles"):
        if not isinstance(doc[key], dict):
            raise ManifestError(f"{manifest_path}: {key} must be an object")
    files = doc["files"]
    features = doc["features"]
    roles = doc["roles"]
    for modality, name in files.items():
        if modality not in ("static", "temporal", "event"):
            raise ManifestError(
                f"{manifest_path}: unknown modality {modality!r}")
        if not isinstance(name, str):
            raise ManifestError(
                f"{manifest_path}: file name for {modality!r} must be a "
                "string")
        if modality not in features:
            raise ManifestError(
                f"{manifest_path}: no feature list for {modality!r}")
    kinds = {fid: _manifest_kind(d, f"{manifest_path}: kinds[{fid!r}]")
             for fid, d in doc["kinds"].items()}
    for fid, role in roles.items():
        if role not in ("covariate", "target", "treatment"):
            raise ManifestError(
                f"{manifest_path}: unknown role {role!r} for {fid!r}")
    for modality, fids in features.items():
        if not _is_string_list(fids):
            raise ManifestError(f"{manifest_path}: features of {modality!r} "
                                "must be a string list")
        for fid in fids:
            _manifest_id(fid, "feature_id", manifest_path)
            if fid not in kinds:
                raise ManifestError(f"{manifest_path}: feature {fid!r} has "
                                    "no kind")
            if fid not in roles:
                raise ManifestError(f"{manifest_path}: feature {fid!r} has "
                                    "no role")
    return BundleManifest(tuple(samples), files, features, kinds, roles)


def _read_table(path, header: list):
    """Data rows of one CSV table, after its header row is checked."""
    if not os.path.exists(path):
        raise ManifestError(f"listed file does not exist: {path}")
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            first = next(reader, None)
            if first is None:
                raise ParseError(f"{path}: missing header row")
            if first != header:
                raise ParseError(f"{path}: bad header {first!r}, "
                                 f"expected {header!r}")
            yield from reader
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"{path}: unreadable CSV: {e}") from None


def _scanned_tables(manifest: BundleManifest, manifest_path):
    """(modality, file name, path, kinds, Scan) of each listed table."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    for modality in _TABLES:
        name = manifest.files.get(modality.value)
        if name is None:
            continue
        path = os.path.join(base, name)
        kinds = {fid: manifest.kinds[fid]
                 for fid in manifest.features[modality.value]}
        rows = _read_table(path, _HEADERS[modality])
        if modality is Modality.STATIC:
            scan = scan_columns(rows, kinds, manifest.samples)
        else:
            scan = scan_sequences(rows, modality, kinds, manifest.samples)
        yield modality, name, path, kinds, scan


def _assemble(manifest: BundleManifest, manifest_path, tables) -> Dataset:
    """The Dataset of clean scanned tables, each container straight from
    its scan's rows, in manifest order; a dataset-level fault carries the
    manifest path."""
    containers = {}
    for modality, _, _, kinds, scan in tables:
        containers[modality] = _TABLES[modality][1](
            manifest.samples, tuple(kinds.items()),
            tuple(map(tuple, scan.cells)))
    role_map = RoleMap(tuple(
        (fid, Role(name)) for fid, name in manifest.roles.items()))
    try:
        return assemble_dataset(static=containers.get(Modality.STATIC),
                                temporal=containers.get(Modality.TEMPORAL),
                                events=containers.get(Modality.EVENT),
                                roles=role_map)
    except TempoframeError as e:
        raise type(e)(f"{manifest_path}: {e}") from None


def _scan_bundle(manifest_path) -> tuple:
    """(violations, Dataset or None) of a bundle: the manifest check, the
    scan of each listed table and, when every table is clean, the
    assembly. Violations are (file name, path, Violation) in table and row
    order. A table that cannot be read raises only when no earlier table
    has a violation; `read_bundle` would stop before it."""
    manifest = _load_manifest(manifest_path)
    tables, found = [], []
    try:
        for table in _scanned_tables(manifest, manifest_path):
            _, name, path, _, scan = table
            tables.append(table)
            found.extend((name, path, v) for v in scan.violations)
    except (ManifestError, ParseError, IoError):
        if not found:
            raise
    return found, None if found else _assemble(manifest, manifest_path,
                                               tables)


def read_bundle(manifest_path) -> Dataset:
    """Load a bundle. A table fault raises as `<path>:<line>: <detail>`;
    a dataset-level fault carries the manifest path."""
    found, ds = _scan_bundle(manifest_path)
    if found:
        _, path, v = found[0]
        raise VIOLATION_ERRORS[v.code](f"{path}:{table_line(v)}: {v.detail}")
    return ds


# ---------------------------------------------------------------------------
# Validation (non-fail-fast)
# ---------------------------------------------------------------------------

def table_line(v: Violation) -> int:
    """The file line of a table violation: data rows follow the header."""
    return v.row + 1


def validate_bundle(manifest_path) -> list:
    """Validate all tables of a bundle; returns (file, Violation) pairs.
    Row numbers count data rows; `table_line` gives the file line. Raises
    the error `read_bundle` raises for a manifest fault, for a table that
    cannot be read when no earlier table has a violation (such as a
    missing file) or, when every table is clean, for a dataset-level
    fault."""
    return [(name, v) for name, _, v in _scan_bundle(manifest_path)[0]]
