"""Core data model: three modality containers, value kinds, roles, datasets.

Containers are immutable after construction. The builder functions are the
validating constructors: they take Python values and raise at the first
record that breaks a rule. Internal operations preserve invariants by
construction and may instantiate the dataclasses directly. A bundle's text
tables are read and checked by `tempoframe.bundle`, which owns the
violation codes and their errors. `load_json` and `fields` read every
JSON document (config, manifest, blob): closed objects with unique keys.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

from tempoframe.errors import (
    AlignmentError,
    DuplicateCell,
    DuplicateEvent,
    DuplicateFeature,
    DuplicateTimePoint,
    EmptyDataset,
    FitDiverged,
    KindMismatch,
    MissingInFeatures,
    MultipleTargets,
    ParseError,
    RequirementUnmet,
    RoleConflict,
    RoleGap,
    SampleIndexMismatch,
    UnknownSample,
)


class _MissingType:
    """Sentinel for an absent value; a singleton distinct from every value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Missing"


MISSING = _MissingType()


class Role(enum.Enum):
    COVARIATE = "covariate"
    TARGET = "target"
    TREATMENT = "treatment"


class Modality(enum.Enum):
    STATIC = "static"
    TEMPORAL = "temporal"
    EVENT = "event"


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def load_json(raw, error, where: str):
    """The document of JSON text or its UTF-8 bytes. A name repeated in one
    object (RFC 7493 §2.3), bytes not UTF-8, text not JSON and nesting too
    deep to parse each raise `error` naming `where`."""
    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            names = [k for k, _ in pairs]
            raise error(f"{where}: repeated key "
                        f"{next(k for k in names if names.count(k) > 1)!r}")
        return obj
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        return json.loads(text, object_pairs_hook=unique)
    except UnicodeDecodeError as e:
        raise error(f"{where}: not UTF-8 text: {e}") from None
    except (ValueError, RecursionError) as e:
        raise error(f"{where}: not valid JSON: {e}") from None


_JSON_TYPES = {str: "a string", int: "an integer", list: "a list",
               dict: "an object"}


def fields(obj, keys: dict, error, where: str, nullable=False) -> list:
    """The values of JSON object `obj` under `keys`, in their order: each
    key it may hold -> (a type of `_JSON_TYPES`, which no bool is; the
    value when absent, `...` if required). With `nullable`, null is absent.
    A non-object, an unknown or missing key, or a value of another type
    raises `error` naming `where` and the key."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be an object")
    unknown = sorted(obj.keys() - keys.keys())
    if unknown:
        raise error(f"{where} has unknown keys: {unknown}")
    out = []
    for key, (typ, default) in keys.items():
        v = obj.get(key)
        if v is None and (nullable or key not in obj):
            if default is ...:
                raise error(f"{where} is missing {key!r}")
            v = default
        elif isinstance(v, bool) or not isinstance(v, typ):
            raise error(f"{where} {key!r} must be {_JSON_TYPES[typ]}")
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Value kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Continuous:
    name = "continuous"


@dataclass(frozen=True)
class Integer:
    name = "integer"


@dataclass(frozen=True)
class Categorical:
    categories: tuple[str, ...]
    name = "categorical"

    def __post_init__(self):
        if not self.categories:
            raise KindMismatch("categorical kind requires at least one category")
        for c in self.categories:
            if not isinstance(c, str) or c == "":
                raise KindMismatch(
                    "categorical categories must be non-empty strings")
            _check_id(c, "category")
        if len(set(self.categories)) != len(self.categories):
            raise KindMismatch("categorical categories must be unique")
        object.__setattr__(self, "categories", tuple(self.categories))


ValueKind = Continuous | Integer | Categorical


def _mismatch(where, what: str) -> KindMismatch:
    return KindMismatch(what if where is None else f"{where}: {what}")


def _float_of(x, where) -> float:
    """float(x) of a real number; an int that float() cannot take is a
    KindMismatch named as in `check_value`."""
    try:
        return float(x)
    except OverflowError:
        raise _mismatch(where, "integer beyond float range") from None


def check_value(kind: ValueKind, value, where: str = None):
    """Return the canonical stored form of `value`, or raise KindMismatch,
    whose message starts with `where: ` when a `where` is given.

    Missing passes through unchanged. Continuous stores float, Integer int,
    Categorical str. Booleans are rejected everywhere; non-finite floats,
    and Continuous ints that no float holds exactly, are rejected because
    they cannot round-trip through value equality, and ints beyond float
    range because no model can read them.
    """
    if value is MISSING:
        return MISSING
    if isinstance(kind, Continuous):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _mismatch(where, f"expected a real number, got {value!r}")
        v = _float_of(value, where)
        if not math.isfinite(v):
            raise _mismatch(where, f"non-finite value {value!r}")
        if v != value:  # an int that float() rounds
            raise _mismatch(where, f"integer {value!r} has no exact float")
        return v
    if isinstance(kind, Integer):
        if isinstance(value, bool) or not isinstance(value, int):
            raise _mismatch(where, f"expected an integer, got {value!r}")
        v = int(value)  # an int subclass may write itself as other text
        _float_of(v, where)
        return v
    if isinstance(value, str) and value in kind.categories:
        return value
    raise _mismatch(
        where, f"{value!r} not in categories {list(kind.categories)}")


def binary_codes(kind: ValueKind) -> dict:
    """The one binary coding, {value: 0 or 1}: Integer 0/1 as themselves,
    a two-category Categorical's first category 0 and second 1; {} for
    any other kind, which is not binary."""
    if isinstance(kind, Integer):
        return {0: 0, 1: 1}
    if isinstance(kind, Categorical) and len(kind.categories) == 2:
        return {kind.categories[0]: 0, kind.categories[1]: 1}
    return {}


def kind_to_json(kind: ValueKind) -> dict:
    if isinstance(kind, Categorical):
        return {"kind": kind.name, "categories": list(kind.categories)}
    return {"kind": kind.name}


def kind_from_json(d, where: str) -> tuple:
    """(id, kind) of a feature entry: `id`, `kind` and, for a categorical
    kind only, `categories`; KindMismatch names `where`, or the feature."""
    keys = {"id": (str, ...), "kind": (str, ...)}
    if isinstance(d, dict) and d.get("kind") == Categorical.name:
        keys["categories"] = (list, ...)
    fid, name, *categories = fields(d, keys, KindMismatch, where)
    _check_id(fid, "feature_id")
    for cls in (Continuous, Integer):
        if name == cls.name:
            return fid, cls()
    if not categories:
        raise KindMismatch(f"feature {fid!r}: unknown kind {name!r}")
    try:
        return fid, Categorical(tuple(categories[0]))
    except KindMismatch as e:
        raise KindMismatch(f"feature {fid!r}: {e}") from None


def check_time(t, where: str = None) -> float:
    """t as a finite float, or KindMismatch named as in `check_value`; an
    int that no float holds exactly is refused, as a Continuous value is."""
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise _mismatch(where, f"time must be a real number, got {t!r}")
    tf = _float_of(t, where)
    if not math.isfinite(tf):
        raise _mismatch(where, f"time must be finite, got {t!r}")
    if tf != t:  # an int that float() rounds
        raise _mismatch(where, f"time {t!r} has no exact float")
    return tf


def _check_id(s, what: str) -> str:
    """`s` if it can be an id (a sample or feature id, a category): a
    string with no NUL and no lone carriage return. A bundle keeps ids in
    its JSON manifest, but `truth.csv`, the one file still written by the
    csv module, names samples by id: the CSV writer of Python 3.10 cannot
    write a NUL, and some interpreters' writer (LF line ends) leaves a
    "\\r" outside "\\r\\n" unquoted, so a reader then ends the record
    there."""
    if not isinstance(s, str):
        raise KindMismatch(f"{what} must be a string, got {s!r}")
    if "\0" in s:
        raise KindMismatch(f"{what} {s!r} holds a NUL character")
    if "\r" in s and "\r" in s.replace("\r\n", ""):
        raise KindMismatch(f"{what} {s!r} holds a lone carriage return")
    return s


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Samples:
    """Sample ids, typed features and one column per feature, the layout
    of `static.csv`, `map_columns` and the kernels.

    `columns[j]` holds feature j's entries in sample order; each subclass
    names what an entry is, and every container is built positionally as
    `(ids, features, columns)`.
    """
    sample_ids: tuple[str, ...]
    features: tuple[tuple[str, ValueKind], ...]
    columns: tuple[tuple, ...]

    @property
    def feature_ids(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.features)

    def column(self, feature_id: str) -> tuple:
        """The stored column of one feature, not a copy."""
        return self.columns[self.feature_ids.index(feature_id)]

    def _entry(self, sample_id: str, feature_id: str):
        return self.column(feature_id)[self.sample_ids.index(sample_id)]


@dataclass(frozen=True)
class StaticSamples(_Samples):
    """A column holds one CellValue per sample."""
    cell = _Samples._entry


@dataclass(frozen=True)
class TimeSeriesSamples(_Samples):
    """A column holds one `(times, values)` pair of equal-length tuples per
    sample, times strictly increasing; an empty sequence is `((), ())`."""
    sequence = _Samples._entry


@dataclass(frozen=True)
class EventSamples(_Samples):
    """A column holds None or one `(time, value)` per sample."""
    entry = _Samples._entry


# ---------------------------------------------------------------------------
# Roles and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoleMap:
    assignment: tuple[tuple[str, Role], ...]
    _by_feature: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_feature = {}
        for fid, role in self.assignment:
            if fid in by_feature and by_feature[fid] is not role:
                raise RoleConflict(f"feature {fid!r} assigned two roles")
            by_feature[fid] = role
        # a repeated pair is stored once, as a bundle manifest stores it
        object.__setattr__(self, "assignment", tuple(by_feature.items()))
        object.__setattr__(self, "_by_feature", by_feature)

    @classmethod
    def of(cls, covariates=(), targets=(), treatments=()) -> "RoleMap":
        pairs = []
        seen = set()
        for ids, role in ((covariates, Role.COVARIATE),
                          (targets, Role.TARGET),
                          (treatments, Role.TREATMENT)):
            for fid in ids:
                if fid in seen:
                    raise RoleConflict(f"feature {fid!r} assigned two roles")
                seen.add(fid)
                pairs.append((fid, role))
        return cls(tuple(pairs))

    def role_of(self, feature_id: str) -> Role:
        try:
            return self._by_feature[feature_id]
        except KeyError:
            raise RoleGap(f"feature {feature_id!r} has no role") from None

    def feature_ids(self) -> tuple[str, ...]:
        return tuple(self._by_feature)


def missing_role(role: Role, modality=None) -> RequirementUnmet:
    """RequirementUnmet("missing_[<modality>_]<role>"): no feature has
    `role` (and `modality`, when given)."""
    where = "" if modality is None else f"{modality.value} "
    return RequirementUnmet(
        f"missing_{where.replace(' ', '_')}{role.value}",
        f"no {where}feature has the {role.value.capitalize()} role")


@dataclass(frozen=True)
class Dataset:
    static: StaticSamples | None
    temporal: TimeSeriesSamples | None
    events: EventSamples | None
    roles: RoleMap

    @property
    def sample_ids(self) -> tuple[str, ...]:
        for c in (self.static, self.temporal, self.events):
            if c is not None:
                return c.sample_ids
        raise EmptyDataset("dataset has no containers")

    def containers(self) -> list:
        """(modality, container) of each present container, in order."""
        return [(m, c) for m, c in ((Modality.STATIC, self.static),
                                    (Modality.TEMPORAL, self.temporal),
                                    (Modality.EVENT, self.events))
                if c is not None]

    def all_features(self) -> list:
        """(feature_id, kind, role, modality) in container order:
        static, then temporal, then events."""
        return [(fid, kind, self.roles.role_of(fid), modality)
                for modality, c in self.containers()
                for fid, kind in c.features]

    def features_with_role(self, role: Role, modality=None) -> list:
        """(feature_id, kind, modality) of each feature with `role`, in
        container order; only those of `modality` when one is given."""
        return [(fid, kind, m) for fid, kind, r, m in self.all_features()
                if r is role and modality in (None, m)]

    def sole_feature(self, role: Role, modality=None) -> tuple:
        """(feature_id, kind, modality) of the one feature with `role` (and
        `modality`, when given). None raises `missing_role`; several raise
        RequirementUnmet("multiple_<role>s"), MultipleTargets for targets."""
        feats = self.features_with_role(role, modality)
        if not feats:
            raise missing_role(role, modality)
        if len(feats) > 1:
            where = "" if modality is None else f"{modality.value} "
            detail = (f"expected one {where}{role.value}, "
                      f"got {[f for f, _, _ in feats]}")
            if role is Role.TARGET:
                raise MultipleTargets(detail)
            raise RequirementUnmet(f"multiple_{role.value}s", detail)
        return feats[0]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

# Modality -> (container class, content of an absent (sample, feature)
# cell, error and message stem of a repeated record).
_MODALITIES = {
    Modality.STATIC: (StaticSamples, MISSING, DuplicateCell, "duplicate cell"),
    Modality.TEMPORAL: (TimeSeriesSamples, ((), ()), DuplicateTimePoint,
                        "duplicate time {t}"),
    Modality.EVENT: (EventSamples, None, DuplicateEvent, "duplicate event"),
}


def _build(modality: Modality, records, kinds: dict, sample_ids):
    """The container of the builders' long-form records, checked and
    placed in one pass.

    Records hold Python values: `(sample_id, feature_id, value)` for static
    data and `(sample_id, feature_id, time, value)` for time series and
    events. The first record that breaks a rule raises: its field count
    (ParseError), its ids (`_check_id`), its feature's declared kind, its
    time and value (KindMismatch), or a repeat of an earlier record's cell,
    or of its time in a series. Features take slots in first-appearance
    order, then those declared in `kinds` only. With `sample_ids`, records
    may name other samples only to raise UnknownSample, naming them all,
    once every record passed every other check.
    """
    cls, empty, duplicate, stem = _MODALITIES[modality]
    for fid, kind in kinds.items():
        _check_id(fid, "feature_id")
        if not isinstance(kind, ValueKind):
            raise KindMismatch(f"feature {fid!r}: {kind!r} is not a value "
                               "kind instance")
    pin = [] if sample_ids is None else [_check_id(s, "sample_id")
                                         for s in sample_ids]
    samples = dict.fromkeys(pin)  # the sample ids, in order
    if len(samples) != len(pin):
        raise SampleIndexMismatch("explicit sample_ids contains duplicates")
    timed = modality is not Modality.STATIC
    series = modality is Modality.TEMPORAL
    width = 4 if timed else 3
    features: dict = {}  # feature id -> {sample: value, entry or sequence}
    t = None
    for rec in records:
        if len(rec) != width:
            raise ParseError(f"expected {width} fields, got {len(rec)}")
        if timed:
            sid, fid, t, value = rec
        else:
            sid, fid, value = rec
        _check_id(sid, "sample_id")
        _check_id(fid, "feature_id")
        kind = kinds.get(fid)
        if kind is None:
            raise KindMismatch(f"feature {fid!r} has no declared kind")
        at = None  # the raw time, once it passed its check
        try:
            if timed:
                at, t = t, check_time(t)
            value = check_value(kind, value)
        except KindMismatch as e:
            # Located only on failure; a series value names its time.
            t_at = f", t={at}" if series and at is not None else ""
            raise KindMismatch(f"({sid}, {fid}{t_at}): {e}") from None
        samples.setdefault(sid)
        cells = features.get(fid)
        if cells is None:
            cells = features[fid] = {}
        key = sid
        if series:  # a sequence is a dict keyed by time
            cells, key = cells.setdefault(sid, {}), t
        if key in cells:
            raise duplicate(f"{stem.format(t=t)} for sample {sid!r}, "
                            f"feature {fid!r}")
        cells[key] = (t, value) if modality is Modality.EVENT else value
    if sample_ids is not None and len(samples) > len(pin):
        extra = list(samples)[len(pin):]
        raise UnknownSample(f"rows mention samples not in sample_ids: {extra}")
    if series:
        for col in features.values():
            for sid, held in col.items():
                times = tuple(sorted(held))
                col[sid] = (times, tuple(map(held.__getitem__, times)))
    fids = [*features, *(f for f in kinds if f not in features)]
    return cls(tuple(samples), tuple((f, kinds[f]) for f in fids),
               tuple(tuple(features.get(f, {}).get(s, empty)
                           for s in samples) for f in fids))


def build_static_samples(rows, kinds: dict, *, sample_ids=None) -> StaticSamples:
    """Assemble the F_s columns of N cells from long-form rows.

    Absent (sample, feature) pairs become Missing. Sample and feature order
    is first-appearance order in `rows`; features declared in `kinds` but
    absent from rows are appended in declaration order. `sample_ids` pins
    the sample list explicitly (needed to keep all-Missing samples).
    """
    return _build(Modality.STATIC, rows, kinds, sample_ids)


def build_time_series_samples(points, kinds: dict, *,
                              sample_ids=None) -> TimeSeriesSamples:
    """Assemble per-(sample, feature) `(times, values)` sequences from
    (sample_id, feature_id, time, value) points, sorted ascending by time.

    Unequal lengths and unaligned times across features are preserved.
    """
    return _build(Modality.TEMPORAL, points, kinds, sample_ids)


def build_event_samples(entries, kinds: dict, *,
                        sample_ids=None) -> EventSamples:
    """Assemble at-most-one (time, value) per (sample, feature).

    A Missing value with a present time is a censoring record.
    """
    return _build(Modality.EVENT, entries, kinds, sample_ids)


def assemble_dataset(static=None, temporal=None, events=None, *,
                     roles: RoleMap) -> Dataset:
    """Verify the shared sample index and the role partition, then bundle."""
    containers = [c for c in (static, temporal, events) if c is not None]
    if not containers:
        raise EmptyDataset("a dataset needs at least one modality container")
    index = containers[0].sample_ids
    for c in containers[1:]:
        if c.sample_ids != index:
            raise SampleIndexMismatch(
                f"containers disagree on sample ids: {index} vs {c.sample_ids}")
    all_ids: list = []
    for c in containers:
        all_ids.extend(c.feature_ids)
    if len(set(all_ids)) != len(all_ids):
        dupes = sorted({f for f in all_ids if all_ids.count(f) > 1})
        raise DuplicateFeature(f"feature ids repeat across containers: {dupes}")
    declared = set(roles.feature_ids())
    present = set(all_ids)
    missing_roles = sorted(present - declared)
    if missing_roles:
        raise RoleGap(f"features without a role: {missing_roles}")
    stray = sorted(declared - present)
    if stray:
        raise RoleConflict(f"roles assigned to unknown features: {stray}")
    if not any(roles.role_of(f) is Role.COVARIATE for f in all_ids):
        raise RoleGap("dataset has no covariate feature")
    return Dataset(static=static, temporal=temporal, events=events, roles=roles)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def select_samples(ds: Dataset, ids) -> Dataset:
    """Restrict every container to `ids`, in the given order."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise SampleIndexMismatch("selection contains duplicate sample ids")
    known = {sid: i for i, sid in enumerate(ds.sample_ids)}
    for sid in ids:
        if sid not in known:
            raise UnknownSample(f"sample {sid!r} not in dataset")
    # one sample index is shared by every container (`assemble_dataset`)
    pos = list(map(known.__getitem__, ids))

    def pick(container):
        if container is None:
            return None
        return type(container)(tuple(ids), container.features, tuple(
            tuple(map(col.__getitem__, pos)) for col in container.columns))

    return Dataset(static=pick(ds.static), temporal=pick(ds.temporal),
                   events=pick(ds.events), roles=ds.roles)


def map_columns(ds: Dataset, fns: dict) -> Dataset:
    """Replace the column of each static or temporal feature `fid` in
    `fns` by `fns[fid](column)`.

    A column is the container's tuple of the feature's per-sample entries
    (static cells or temporal sequences) in sample order, and `fns[fid]`
    returns a tuple of the same length. Other columns are passed on as the
    same objects; the events and the roles are kept, and a container with
    no mapped feature is returned as is.
    """
    def remap(container):
        if container is None or not any(
                fid in fns for fid in container.feature_ids):
            return container
        return type(container)(container.sample_ids, container.features, tuple(
            fns[fid](col) if fid in fns else col
            for (fid, _), col in zip(container.features, container.columns)))

    return Dataset(static=remap(ds.static), temporal=remap(ds.temporal),
                   events=ds.events, roles=ds.roles)


_SUMMARY_STATS = ("last", "mean", "min", "max", "slope")


def _ols_slope(points: list) -> float:
    """OLS slope of value against time; NaN where the squared time spread
    underflows to 0.0, as distinct times ~1e-200 apart make it."""
    n = len(points)
    mean_t = 0.0
    mean_v = 0.0
    for t, v in points:
        mean_t += t
        mean_v += v
    mean_t /= n
    mean_v /= n
    num = 0.0
    den = 0.0
    for t, v in points:
        dt = t - mean_t
        num += dt * (v - mean_v)
        den += dt * dt
    return num / den if den != 0.0 else math.nan


def _summary_columns(ts: TimeSeriesSamples, fids) -> list:
    """The five summary columns of each temporal feature of `fids`,
    in that order: the last observed value, their mean, min and max, and
    the OLS slope of value against time, each one value per sample in
    sample order. Missing points are skipped; a sample with fewer than two
    observed points gets a Missing slope, one with none all five Missing.
    Raises FitDiverged, naming the feature and the sample, for a mean or a
    slope that is not finite.
    """
    columns = []
    for fid in fids:
        stats = ([], [], [], [], [])
        last, mean, mn, mx, slope = stats
        for sid, seq in zip(ts.sample_ids, ts.column(fid)):
            observed = [(t, float(v)) for t, v in zip(*seq)
                        if v is not MISSING]
            if not observed:
                for col in stats:
                    col.append(MISSING)
                continue
            total = 0.0
            lo = observed[0][1]
            hi = observed[0][1]
            for _, v in observed:
                total += v
                if v < lo:
                    lo = v
                if v > hi:
                    hi = v
            mean_v = total / len(observed)
            slope_v = (_ols_slope(observed) if len(observed) >= 2
                       else MISSING)
            for stat, v in (("mean", mean_v), ("slope", slope_v)):
                if v is not MISSING and not math.isfinite(v):
                    raise FitDiverged(
                        f"temporal summary of {fid!r} in sample {sid!r}: "
                        f"{stat} is not finite ({v!r})")
            last.append(observed[-1][1])
            mean.append(mean_v)
            mn.append(lo)
            mx.append(hi)
            slope.append(slope_v)
        columns.extend(stats)
    return columns


def covariate_groups(ds: Dataset) -> list:
    """The matrix columns each covariate becomes, in column order: one
    (feature_id, modality, column_names) group per static covariate (one
    column named after the feature), then per temporal covariate (its five
    `<feature>.<stat>` summary columns, stat one of last, mean, min, max
    and slope; see `_summary_columns`). Event features are not featurized.

    Raises RequirementUnmet("non_numeric_feature") for categorical
    covariates (one-hot encode first).
    """
    groups = []
    for fid, kind, modality in ds.features_with_role(Role.COVARIATE):
        if modality is Modality.EVENT:
            continue
        if isinstance(kind, Categorical):
            raise RequirementUnmet(
                "non_numeric_feature",
                f"{modality.value} covariate {fid!r} is categorical")
        if modality is Modality.STATIC:
            names = (fid,)
        else:
            names = tuple(f"{fid}.{stat}" for stat in _SUMMARY_STATS)
        groups.append((fid, modality, names))
    return groups


def covariate_matrix(ds: Dataset) -> tuple:
    """Featurize covariates into a dense numeric matrix of per-feature
    columns: one list of floats per column, in sample order, the layout
    every fitting kernel reads (see `tempoframe.kernels`).

    The columns are those of `covariate_groups`, in its order. Returns
    (column_names, columns).

    Raises RequirementUnmet("non_numeric_feature") for categorical
    covariates and MissingInFeatures if any cell of the resulting matrix
    would be Missing, naming the first such cell in sample order, then
    column order.
    """
    groups = covariate_groups(ds)
    names = [name for _, _, group in groups for name in group]
    columns = [ds.static.column(fid) for fid, modality, _ in groups
               if modality is Modality.STATIC]
    columns.extend(_summary_columns(ds.temporal, [
        fid for fid, modality, _ in groups if modality is Modality.TEMPORAL]))
    missing = [(col.index(MISSING), j) for j, col in enumerate(columns)
               if MISSING in col]
    if missing:
        i, j = min(missing)
        raise MissingInFeatures(f"covariate {names[j]!r} is missing for "
                                f"sample {ds.sample_ids[i]!r}")
    return names, [[float(v) for v in col] for col in columns]


def check_column_names(trained, names) -> None:
    """Raise AlignmentError unless `names`, the featurized columns of a
    query, are the columns a model was trained on, in the same order."""
    if names != list(trained):
        raise AlignmentError(f"featurized columns changed: trained on "
                             f"{trained}, got {names}")
