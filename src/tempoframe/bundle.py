"""Bundle file format: a `manifest` JSON file plus one table per modality.

Layout (schema "6"):
    manifest       JSON: schema_version, samples, features, roles
    static.csv     values: one line per static feature, in manifest order,
                   holding one token per manifest sample
    temporal.csv   sample,feature,times,values: one line per non-empty
                   (sample, feature) sequence, in manifest sample order,
                   then feature order
    events.csv     sample,feature,time,value: one line per event

`features` maps each present modality, whose table is the file above
beside the manifest, to its features in table order: each the id plus
kind descriptor, `{"id": "arm", "kind": "categorical", "categories":
[...]}`. `roles` maps each feature to its role in assignment order.

Ids live in the manifest only, which JSON escapes. A table row names its
sample and its feature by their 0-based index in `samples` and in its
modality's `features` list, so every field of a table is an integer or a
packed number field, a row is one line split at its commas, and a table
cannot be read without its manifest. A packed field (`values` of a static
line, `times` or `values` of a sequence) holds one token per sample or
point, `repr` numbers separated by single spaces, with times strictly
increasing. A Categorical token, in every table, is its 0-based index in
the category list. An empty value (field or token) is Missing; with no
manifest sample a static line is empty and holds no token. Writing is
deterministic: fixed field order, shortest round-trip float formatting,
UTF-8, LF line endings, so identical datasets produce byte-identical
bundles. A manifest of any other schema, such as "5" or "4", is refused.

This module holds the file grammar, and owns the violation codes of its
table faults and the error each raises (`VIOLATION_ERRORS`). Its number
readers, `read_number` and `read_integer`, are the one grammar of a number
written as text: truth files, Brier horizons and `synth-ite` arguments
read through them too. Reading and validation share one scan
(`_scan_bundle`): the manifest check, one pass over each listed table
(`scan_columns` for the static table, `scan_sequences` for a timed one)
that checks each data row and places its values, and the assembly of
clean tables into a Dataset, so both fail on the same bundles.
`validate_bundle` returns every table fault; `read_bundle` raises the
first in row order as `<path>:<line>: <detail>`, with the error type of
its code.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial
from itertools import islice
from operator import lt

from tempoframe.data import (
    Categorical,
    Continuous,
    Dataset,
    EventSamples,
    Integer,
    MISSING,
    Modality,
    Record,
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
    fields,
    kind_from_json,
    kind_to_json,
    load_json,
)
from tempoframe.errors import (
    DuplicateEvent,
    DuplicateTimePoint,
    IoError,
    KindMismatch,
    ManifestError,
    ParseError,
    TempoframeError,
    UnknownSample,
)

SCHEMA_VERSION = "6"
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
    Modality.STATIC: ["values"],
    Modality.TEMPORAL: ["sample", "feature", "times", "values"],
    Modality.EVENT: ["sample", "feature", "time", "value"],
}


class Violation(Record):
    row: int           # 1-based data row
    code: str
    detail: str

    @property
    def line(self) -> int:
        """The file line of the row: one line per row, after the header."""
        return self.row + 1


# Violation code -> the error `read_bundle` raises for it.
VIOLATION_ERRORS = {
    "arity": ParseError,
    "missing_time": ParseError,
    "bad_time": ParseError,
    "unknown_feature": KindMismatch,
    "kind_mismatch": KindMismatch,
    "unknown_sample": UnknownSample,
    "duplicate_time": DuplicateTimePoint,
    "duplicate_event": DuplicateEvent,
}


class Scan(Record):
    columns: list     # of a clean scan: per feature (manifest order), an
                      # entry per manifest sample
    violations: list  # Violation per rejected row, in row order


class BundleManifest(Record):
    samples: tuple[str, ...]
    features: dict        # modality name -> {feature_id: ValueKind}
    roles: dict           # feature_id -> role name


def locate_manifest(path: str) -> str:
    """The manifest path of a bundle given as its directory or as the
    manifest itself."""
    return os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def manifest_for(ds: Dataset) -> BundleManifest:
    features = {modality.value: dict(container.features)
                for modality, container in ds.containers()}
    # Assignment order, so the RoleMap read back equals this one.
    roles = {fid: role.value for fid, role in ds.roles.assignment}
    return BundleManifest(tuple(ds.sample_ids), features, roles)


def _manifest_json(m: BundleManifest) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "samples": list(m.samples),
        "features": {modality: [{"id": fid, **kind_to_json(kind)}
                                for fid, kind in kinds.items()]
                     for modality, kinds in m.features.items()},
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


def _static_lines(container):
    """The data lines of a static container, one per column: its cells
    checked column by column (a column `_clean_column` doubts, cell by
    cell, and then written as checked) and packed."""
    for (fid, kind), column in zip(container.features, container.columns):
        if not _clean_column(kind, column):
            column = [check_value(kind, v, f"sample {sid!r}, feature {fid!r}")
                      for sid, v in zip(container.sample_ids, column)]
        write = _token_writer(kind)
        yield " ".join(["" if v is MISSING else write(v) for v in column])


def _timed_lines(modality: Modality, container):
    """The data lines of a timed container, each sequence walked once (an
    event as a one-point sequence, so its line is that sequence's packed
    line): its times and values equal in number, and each point a time
    `check_time` takes, after the one before it, and a value `check_value`
    takes, written as they return it. The location of a point is built
    only when it raises."""
    packed = modality is Modality.TEMPORAL
    writers = [_token_writer(kind) for _, kind in container.features]
    # lines go in sample order, so the columns are walked across
    for i, (sid, row) in enumerate(zip(container.sample_ids,
                                       zip(*container.columns))):
        for j, ((fid, kind), seq) in enumerate(zip(container.features, row)):
            if seq is None:  # no event
                continue
            times, values = seq if packed else ((seq[0],), (seq[1],))
            if len(times) != len(values):
                raise KindMismatch(f"sample {sid!r}, feature {fid!r}: "
                                   f"{len(times)} times but {len(values)} "
                                   "values")
            write = writers[j]
            ts, vs = [], []
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
                ts.append(repr(prev))
                vs.append("" if v is MISSING else write(v))
            if ts:
                yield f"{i},{j},{' '.join(ts)},{' '.join(vs)}"


def write_bundle(ds: Dataset, dir_path) -> BundleManifest:
    """Write manifest plus one table per present modality; deterministic.

    Before any file is opened, every sample and feature id is checked
    with `_check_id` (a category is checked by `Categorical` itself) and
    each table's lines are built, with each cell or point checked as
    `read_bundle` reads it back, so a directly built container whose ids,
    cells or points it would refuse raises `KindMismatch` (naming the
    sample, feature and point) and writes nothing. A value goes out in
    the form `check_time` or `check_value` returns it."""
    manifest = manifest_for(ds)
    for sid in manifest.samples:
        _check_id(sid, "sample_id")
    for fid, *_ in ds.all_features():
        _check_id(fid, "feature_id")
    tables = [(modality, [",".join(_HEADERS[modality]), *(
        _static_lines(container) if modality is Modality.STATIC
        else _timed_lines(modality, container))])
        for modality, container in ds.containers()]
    try:
        os.makedirs(dir_path, exist_ok=True)
        with open(os.path.join(dir_path, MANIFEST_NAME), "w",
                  encoding="utf-8", newline="\n") as f:
            f.write(_manifest_json(manifest))
        for modality, lines in tables:
            with open(os.path.join(dir_path, _TABLES[modality][0]), "w",
                      encoding="utf-8", newline="\n") as f:
                f.writelines(f"{line}\n" for line in lines)
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


def read_number(text: str) -> float:
    """A number written in the characters `repr` writes for a finite one,
    as that float; else ParseError. `float()` alone would also read `2_5`,
    ` 1.5`, non-ASCII digits, `nan` and `inf`, and `1e400` as inf."""
    try:
        if text.translate(_NOT_NUMBER[False]):
            raise ValueError
        v = float(text)
    except ValueError:
        raise ParseError(f"{text!r} is not a real number") from None
    if not math.isfinite(v):
        raise ParseError(f"{text!r} is not finite")
    return v


def read_integer(text: str) -> int:
    """An integer written as ASCII [+-]?[0-9]+, as that int; else
    ParseError. `int()` alone would also read `0_1`, ` 7 ` and non-ASCII
    digits."""
    if not (text.isascii() and (text.isdigit() or text[:1] in "+-"
                                and text[1:].isdigit())):
        raise ParseError(f"{text!r} is not an integer")
    try:
        return int(text, 10)
    except ValueError:
        # int() refuses a field of digits only past its length limit
        # (4,300 digits), leading zeros included; without them the value
        # is read, or it is far beyond float range: do not echo it
        sign = text[0] if text[0] in "+-" else ""
        try:
            return int(sign + (text[len(sign):].lstrip("0") or "0"), 10)
        except ValueError:
            raise ParseError("integer beyond float range") from None


def _parse_value(kind: ValueKind, s: str):
    """A Continuous or Integer token in the stored form of `check_value`;
    the empty one is Missing."""
    if s == "":
        return MISSING
    try:
        if isinstance(kind, Continuous):
            return read_number(s)
        i = read_integer(s)
        _float_of(i, None)
        return i
    except ParseError as e:
        raise KindMismatch(str(e)) from None


def _token_reader(kind: ValueKind):
    """token -> stored value of `kind`: a number by `_parse_value`, a
    category by its index."""
    if not isinstance(kind, Categorical):
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
    """Refuse a number field that holds a character outside `read_number`'s
    alphabet, or a space outside a `packed` field; checked once per field."""
    odd = field.translate(_NOT_NUMBER[packed])
    if odd:
        raise _RowFault(code, f"{name} field holds {odd[0]!r}")


def _index(field: str, size: int, code: str, what: str) -> int:
    """The index a row field names, `str(i)` of an i at least 0 and below
    `size` (the writer's one form); else the row's fault `code`."""
    try:
        i = read_integer(field)
    except ParseError:
        i = -1
    if not 0 <= i < size or str(i) != field:
        raise _RowFault(code, f"{what} {field!r} is not an index below {size}")
    return i


def scan_columns(rows, kinds: dict, pin) -> Scan:
    """Check, convert and place the data rows of a static table, one
    column per row.

    Row j holds feature j of `kinds` (manifest order) in one field of one
    token per sample of `pin`, in its order (an empty token is Missing, a
    category its index; with no sample the field is empty). A row that
    breaks a rule gives one Violation, for the first rule it breaks: its
    field count, its token count (`arity`), or a token its kind refuses
    (`kind_mismatch`, naming the sample and the feature). A table of fewer
    rows than `kinds` has features, or of more, gives one more `arity`
    Violation, at the first row it lacks or has too many.
    """
    rows = iter(rows)
    columns, bad = [], []
    for row, ((fid, kind), rec) in enumerate(zip(kinds.items(), rows), 1):
        got = _column(rec, row, fid, kind, pin)
        if isinstance(got, Violation):
            bad.append(got)
        else:
            columns.append(got)
    count = len(columns) + len(bad)  # the rows read, one fault a row
    if count < len(kinds):
        bad.append(Violation(count + 1, "arity",
                             f"feature {list(kinds)[count]!r} has no row"))
    elif next(rows, None) is not None:
        bad.append(Violation(count + 1, "arity", "more rows than static "
                                                 f"features ({count})"))
    return Scan(columns, bad)


def _column(rec: list, row: int, fid: str, kind: ValueKind, pin):
    """The values of feature `fid`'s column from data row `row`, or the
    Violation of the first rule it breaks. The field is checked and
    converted whole; only one that fails is walked token by token."""
    if len(rec) != 1:
        return Violation(row, "arity", f"expected 1 field, got {len(rec)}")
    field = rec[0]
    tokens = field.split(" ") if field or pin else []
    if len(tokens) != len(pin):
        return Violation(row, "arity", f"feature {fid!r}: expected "
                                       f"{len(pin)} values, one per sample, "
                                       f"got {len(tokens)}")
    read = _token_reader(kind)
    try:
        if not isinstance(kind, Categorical):
            _check_number_field(field, True, "kind_mismatch", "values")
        return _values(tokens, kind, read)
    except (_RowFault, ValueError, KindMismatch):
        pass
    values = []
    for s, sid in zip(tokens, pin):
        try:
            values.append(read(s))
        except KindMismatch as e:
            return Violation(row, "kind_mismatch",
                             f"sample {sid!r}, feature {fid!r}: {e}")
    return values


def scan_sequences(rows, modality: Modality, kinds: dict, pin) -> Scan:
    """Check, convert and place the data rows of a timed table in one pass.

    Each row is a sample index into `pin`, a feature index into `kinds`, a
    times field and a values field: packed tokens in `temporal.csv`, one
    token in `events.csv`. A row that breaks a rule is left out and gives
    one Violation, with its 1-based row, for the first rule it breaks: its
    field count (`arity`), its sample (`unknown_sample`), its feature
    (`unknown_feature`), an empty times field (`missing_time`), a number
    field outside `_check_number_field`, unequal token counts (`arity`), a
    second row of one (sample, feature) (the modality's duplicate code),
    or a point of `_points`. Slots follow `kinds` (manifest) order; one no
    row fills holds an empty sequence, or None for no event.
    """
    packed = modality is Modality.TEMPORAL
    dup_code = "duplicate_time" if packed else "duplicate_event"
    empty = ((), ()) if packed else None  # an empty sequence, no event entry
    # per feature, its id, kind and token reader
    features = [(f, k, _token_reader(k)) for f, k in kinds.items()]
    columns = [[empty] * len(pin) for _ in features]
    bad = []
    for row, rec in enumerate(rows, 1):
        try:
            if len(rec) != 4:
                raise _RowFault("arity", f"expected 4 fields, got {len(rec)}")
            i, j, times, values = rec
            i = _index(i, len(pin), "unknown_sample", "sample")
            j = _index(j, len(features), "unknown_feature", "feature")
            fid, kind, read = features[j]
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
            if columns[j][i] is not empty:
                raise _RowFault(dup_code, f"duplicate row for sample "
                                          f"{pin[i]!r}, feature {fid!r}")
            times, values = _points(ts, vs, kind, read)
        except _RowFault as e:
            bad.append(Violation(row, *e.args))
            continue
        columns[j][i] = (times, values) if packed else (times[0], values[0])
    return Scan(columns, bad)


def _values(tokens, kind: ValueKind, read) -> list:
    """The values of a value field's tokens, converted whole, or ValueError
    or KindMismatch. After `_check_number_field` no Continuous token reads
    as nan, so a non-finite one is ±inf; an Integer token of 308
    characters at most is an int in float range."""
    if isinstance(kind, Continuous):
        values = [float(s) if s else MISSING for s in tokens]
        if math.inf in values or -math.inf in values:
            raise ValueError("non-finite value")
        return values
    if isinstance(kind, Integer):
        if max(map(len, tokens), default=0) > 308:
            raise ValueError("a token too long to check whole")
        return [int(s) if s else MISSING for s in tokens]
    return list(map(read, tokens))


def _points(ts, vs, kind: ValueKind, read) -> tuple:
    """The (times, values) tuples of one row's tokens, values read by
    `read` (converted whole by `_values` first); times must be finite and
    strictly increasing. Else the first point that breaks a rule, found
    one point at a time, raises; the detail names its index and time."""
    try:
        times = [float(s) for s in ts]
        values = _values(vs, kind, read)
        if (-math.inf < times[0] and times[-1] < math.inf
                and all(map(lt, times, islice(times, 1, None)))):
            return tuple(times), tuple(values)
    except (ValueError, KindMismatch):
        pass
    times, values = [], []
    prev = -math.inf
    for k, (tt, vt) in enumerate(zip(ts, vs)):
        try:
            t = read_number(tt)
            values.append(read(vt))
        except ParseError as e:
            raise _RowFault("bad_time", f"point {k}: time {e}") from None
        except KindMismatch as e:
            raise _RowFault("kind_mismatch", f"point {k}, t={t!r}: {e}") \
                from None
        if t == prev:
            raise _RowFault("duplicate_time", f"point {k}: duplicate time "
                                              f"{t!r}")
        if t < prev:
            raise _RowFault("bad_time", f"point {k}: time {t!r} is not after "
                                        f"{prev!r}")
        times.append(t)
        prev = t
    return tuple(times), tuple(values)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _load_manifest(manifest_path) -> BundleManifest:
    if not os.path.exists(manifest_path):
        raise ManifestError(f"no manifest at {manifest_path}")
    try:
        with open(manifest_path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise IoError(f"cannot read {manifest_path}: {e}") from e
    doc = load_json(raw, ManifestError, manifest_path)
    # the version first: a manifest of another schema has other keys
    if isinstance(doc, dict) and doc.get("schema_version",
                                         SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ManifestError(
            f"{manifest_path}: unsupported schema_version "
            f"{doc['schema_version']!r} (expected {SCHEMA_VERSION!r})")
    _, samples, features, roles = fields(doc, {
        "schema_version": (str, ...), "samples": (list, ...),
        "features": (dict, ...), "roles": (dict, ...)},
        ManifestError, f"{manifest_path}: manifest")
    if not all(isinstance(sid, str) for sid in samples):
        raise ManifestError(f"{manifest_path}: samples must be a string list")
    if len(set(samples)) != len(samples):
        raise ManifestError(f"{manifest_path}: samples repeat a sample id")
    try:
        for sid in samples:
            _check_id(sid, "sample_id")
    except KindMismatch as e:
        raise ManifestError(f"{manifest_path}: {e}") from None
    for fid, role in roles.items():
        if role not in ("covariate", "target", "treatment"):
            raise ManifestError(
                f"{manifest_path}: unknown role {role!r} for {fid!r}")
    fields(features, {m.value: (list, None) for m in Modality},
           ManifestError, f"{manifest_path}: features")
    kinds_of = {}
    for modality, entries in features.items():
        kinds = kinds_of[modality] = {}
        for n, entry in enumerate(entries):
            try:
                fid, kind = kind_from_json(
                    entry, f"features {modality!r} entry {n}")
            except KindMismatch as e:
                raise ManifestError(f"{manifest_path}: {e}") from None
            if fid in kinds:
                raise ManifestError(f"{manifest_path}: feature {fid!r} is "
                                    f"listed twice in {modality!r}")
            kinds[fid] = kind
    return BundleManifest(tuple(samples), kinds_of, roles)


def _read_table(path, header: list):
    """Data rows of one table, each line split at its commas, after its
    header line is checked."""
    if not os.path.exists(path):
        raise ManifestError(f"listed file does not exist: {path}")
    try:
        with open(path, encoding="utf-8", newline="\n") as f:
            first = next(f, None)
            if first is None:
                raise ParseError(f"{path}: missing header row")
            first = first.rstrip("\n").split(",")
            if first != header:
                raise ParseError(f"{path}: bad header {first!r}, "
                                 f"expected {header!r}")
            for line in f:
                yield line.rstrip("\n").split(",")
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None


def _scanned_tables(manifest: BundleManifest, manifest_path):
    """(modality, file name, path, kinds, Scan) of each present table."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    for modality, (name, _) in _TABLES.items():
        kinds = manifest.features.get(modality.value)
        if kinds is None:
            continue
        path = os.path.join(base, name)
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
            tuple(map(tuple, scan.columns)))
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
        raise VIOLATION_ERRORS[v.code](f"{path}:{v.line}: {v.detail}")
    return ds


# ---------------------------------------------------------------------------
# Validation (non-fail-fast)
# ---------------------------------------------------------------------------

def validate_bundle(manifest_path) -> list:
    """Validate all tables of a bundle; returns (file, Violation) pairs.
    Row numbers count data rows; `line` is the file line. Raises
    the error `read_bundle` raises for a manifest fault, for a table that
    cannot be read when no earlier table has a violation (such as a
    missing file) or, when every table is clean, for a dataset-level
    fault."""
    return [(name, v) for name, _, v in _scan_bundle(manifest_path)[0]]
