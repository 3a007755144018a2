"""Core data model: three modality containers, value kinds, roles, datasets.

Containers are immutable after construction. The builder functions are the
validating constructors; internal operations preserve invariants by
construction and may instantiate the dataclasses directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from tempoframe.errors import (
    DuplicateCell,
    DuplicateEvent,
    DuplicateFeature,
    DuplicateTimePoint,
    EmptyDataset,
    InvalidWindow,
    KindMismatch,
    MissingInFeatures,
    NonNumericFeature,
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


def is_missing(v) -> bool:
    return v is MISSING


class Role(enum.Enum):
    COVARIATE = "covariate"
    TARGET = "target"
    TREATMENT = "treatment"


class Modality(enum.Enum):
    STATIC = "static"
    TEMPORAL = "temporal"
    EVENT = "event"


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
        if len(set(self.categories)) != len(self.categories):
            raise KindMismatch("categorical categories must be unique")
        for c in self.categories:
            if not isinstance(c, str) or c == "":
                raise KindMismatch(
                    "categorical categories must be non-empty strings")
        object.__setattr__(self, "categories", tuple(self.categories))


ValueKind = Continuous | Integer | Categorical


def check_value(kind: ValueKind, value, where: str):
    """Return the canonical stored form of `value`, or raise KindMismatch.

    Missing passes through unchanged. Continuous stores float, Integer int,
    Categorical str. Booleans are rejected everywhere; non-finite floats are
    rejected because they cannot round-trip through value equality.
    """
    if value is MISSING:
        return MISSING
    if isinstance(kind, Continuous):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise KindMismatch(f"{where}: expected a real number, got {value!r}")
        v = float(value)
        if not math.isfinite(v):
            raise KindMismatch(f"{where}: non-finite value {value!r}")
        return v
    if isinstance(kind, Integer):
        if isinstance(value, bool) or not isinstance(value, int):
            raise KindMismatch(f"{where}: expected an integer, got {value!r}")
        return value
    if isinstance(value, str) and value in kind.categories:
        return value
    raise KindMismatch(
        f"{where}: {value!r} not in categories {list(kind.categories)}")


def kind_to_json(kind: ValueKind) -> dict:
    if isinstance(kind, Continuous):
        return {"kind": "continuous"}
    if isinstance(kind, Integer):
        return {"kind": "integer"}
    return {"kind": "categorical", "categories": list(kind.categories)}


def kind_from_json(d, where: str) -> ValueKind:
    if not isinstance(d, dict) or "kind" not in d:
        raise KindMismatch(f"{where}: malformed kind descriptor {d!r}")
    name = d["kind"]
    if name == "continuous":
        return Continuous()
    if name == "integer":
        return Integer()
    if name == "categorical":
        cats = d.get("categories")
        if not isinstance(cats, list):
            raise KindMismatch(f"{where}: categorical kind needs categories")
        return Categorical(tuple(cats))
    raise KindMismatch(f"{where}: unknown kind {name!r}")


def check_time(t, where: str) -> float:
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise KindMismatch(f"{where}: time must be a real number, got {t!r}")
    tf = float(t)
    if not math.isfinite(tf):
        raise KindMismatch(f"{where}: time must be finite, got {t!r}")
    return tf


def _check_id(s, what: str) -> str:
    if not isinstance(s, str):
        raise KindMismatch(f"{what} must be a string, got {s!r}")
    return s


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Samples:
    """Sample ids, typed features and the position maps of one container.

    Each subclass adds its per-sample data as the one remaining init field,
    so every container is built positionally as `(ids, features, rows)`.
    """
    sample_ids: tuple[str, ...]
    features: tuple[tuple[str, ValueKind], ...]
    _sample_pos: dict = field(init=False, repr=False, compare=False)
    _feature_pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_sample_pos",
                           {s: i for i, s in enumerate(self.sample_ids)})
        object.__setattr__(self, "_feature_pos",
                           {f: j for j, (f, _) in enumerate(self.features)})

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def feature_ids(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.features)

    def kind_of(self, feature_id: str) -> ValueKind:
        return self.features[self._feature_pos[feature_id]][1]


@dataclass(frozen=True)
class StaticSamples(_Samples):
    values: tuple[tuple, ...]  # N rows x F columns of CellValue

    def cell(self, sample_id: str, feature_id: str):
        return self.values[self._sample_pos[sample_id]][self._feature_pos[feature_id]]

    def column(self, feature_id: str) -> tuple:
        j = self._feature_pos[feature_id]
        return tuple(row[j] for row in self.values)

    def to_rows(self) -> list:
        """Long-form rows for every cell, Missing included, row-major."""
        out = []
        for i, sid in enumerate(self.sample_ids):
            for j, (fid, _) in enumerate(self.features):
                out.append((sid, fid, self.values[i][j]))
        return out


@dataclass(frozen=True)
class TimeSeriesSamples(_Samples):
    series: tuple[tuple[tuple, ...], ...]  # [sample][feature] -> ((t, v), ...)

    def sequence(self, sample_id: str, feature_id: str) -> tuple:
        return self.series[self._sample_pos[sample_id]][self._feature_pos[feature_id]]

    def to_points(self) -> list:
        out = []
        for i, sid in enumerate(self.sample_ids):
            for j, (fid, _) in enumerate(self.features):
                for t, v in self.series[i][j]:
                    out.append((sid, fid, t, v))
        return out


@dataclass(frozen=True)
class EventSamples(_Samples):
    entries: tuple[tuple, ...]  # [sample][feature] -> None or (time, value)

    def entry(self, sample_id: str, feature_id: str):
        return self.entries[self._sample_pos[sample_id]][self._feature_pos[feature_id]]

    def to_entries(self) -> list:
        out = []
        for i, sid in enumerate(self.sample_ids):
            for j, (fid, _) in enumerate(self.features):
                e = self.entries[i][j]
                if e is not None:
                    out.append((sid, fid, e[0], e[1]))
        return out


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
        out = []
        if self.static is not None:
            out.append((Modality.STATIC, self.static))
        if self.temporal is not None:
            out.append((Modality.TEMPORAL, self.temporal))
        if self.events is not None:
            out.append((Modality.EVENT, self.events))
        return out

    def all_features(self) -> list:
        """(feature_id, kind, role, modality) in container order:
        static, then temporal, then events."""
        out = []
        for modality, c in self.containers():
            for fid, kind in c.features:
                out.append((fid, kind, self.roles.role_of(fid), modality))
        return out

    def features_with_role(self, role: Role) -> list:
        return [(fid, kind, modality)
                for fid, kind, r, modality in self.all_features() if r is role]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _feature_order(seen_order: list, kinds: dict) -> list:
    declared_only = [f for f in kinds if f not in set(seen_order)]
    return seen_order + declared_only


def _resolve_sample_ids(seen_order: list, sample_ids):
    if sample_ids is None:
        return list(seen_order)
    ids = [_check_id(s, "sample_id") for s in sample_ids]
    if len(set(ids)) != len(ids):
        raise SampleIndexMismatch("explicit sample_ids contains duplicates")
    allowed = set(ids)
    extra = [s for s in seen_order if s not in allowed]
    if extra:
        raise UnknownSample(f"rows mention samples not in sample_ids: {extra}")
    return ids


def build_static_samples(rows, kinds: dict, *, sample_ids=None) -> StaticSamples:
    """Assemble the N x F_s grid from long-form rows.

    Absent (sample, feature) pairs become Missing. Sample and feature order
    is first-appearance order in `rows`; features declared in `kinds` but
    absent from rows are appended in declaration order. `sample_ids` pins
    the sample list explicitly (needed to keep all-Missing samples).
    """
    sample_order: list = []
    feature_order: list = []
    seen_s: set = set()
    seen_f: set = set()
    cells: dict = {}
    for sid, fid, value in rows:
        sid = _check_id(sid, "sample_id")
        fid = _check_id(fid, "feature_id")
        if fid not in kinds:
            raise KindMismatch(f"feature {fid!r} has no declared kind")
        key = (sid, fid)
        if key in cells:
            raise DuplicateCell(f"duplicate cell for sample {sid!r}, "
                                f"feature {fid!r}")
        cells[key] = check_value(kinds[fid], value, f"({sid}, {fid})")
        if sid not in seen_s:
            seen_s.add(sid)
            sample_order.append(sid)
        if fid not in seen_f:
            seen_f.add(fid)
            feature_order.append(fid)
    samples = _resolve_sample_ids(sample_order, sample_ids)
    features = _feature_order(feature_order, kinds)
    grid = tuple(
        tuple(cells.get((sid, fid), MISSING) for fid in features)
        for sid in samples)
    return StaticSamples(tuple(samples), tuple((f, kinds[f]) for f in features),
                         grid)


def build_time_series_samples(points, kinds: dict, *,
                              sample_ids=None) -> TimeSeriesSamples:
    """Assemble per-(sample, feature) sequences, sorted ascending by time.

    Unequal lengths and unaligned times across features are preserved.
    """
    sample_order: list = []
    feature_order: list = []
    seen_s: set = set()
    seen_f: set = set()
    seqs: dict = {}
    for sid, fid, t, value in points:
        sid = _check_id(sid, "sample_id")
        fid = _check_id(fid, "feature_id")
        if fid not in kinds:
            raise KindMismatch(f"feature {fid!r} has no declared kind")
        tf = check_time(t, f"({sid}, {fid})")
        v = check_value(kinds[fid], value, f"({sid}, {fid}, t={t})")
        bucket = seqs.setdefault((sid, fid), {})
        if tf in bucket:
            raise DuplicateTimePoint(f"duplicate time {tf} for sample {sid!r}, "
                                     f"feature {fid!r}")
        bucket[tf] = v
        if sid not in seen_s:
            seen_s.add(sid)
            sample_order.append(sid)
        if fid not in seen_f:
            seen_f.add(fid)
            feature_order.append(fid)
    samples = _resolve_sample_ids(sample_order, sample_ids)
    features = _feature_order(feature_order, kinds)
    series = tuple(
        tuple(
            tuple(sorted(seqs.get((sid, fid), {}).items()))
            for fid in features)
        for sid in samples)
    return TimeSeriesSamples(tuple(samples),
                             tuple((f, kinds[f]) for f in features), series)


def build_event_samples(entries, kinds: dict, *,
                        sample_ids=None) -> EventSamples:
    """Assemble at-most-one (time, value) per (sample, feature).

    A Missing value with a present time is a censoring record.
    """
    sample_order: list = []
    feature_order: list = []
    seen_s: set = set()
    seen_f: set = set()
    recs: dict = {}
    for sid, fid, t, value in entries:
        sid = _check_id(sid, "sample_id")
        fid = _check_id(fid, "feature_id")
        if fid not in kinds:
            raise KindMismatch(f"feature {fid!r} has no declared kind")
        key = (sid, fid)
        if key in recs:
            raise DuplicateEvent(f"duplicate event for sample {sid!r}, "
                                 f"feature {fid!r}")
        tf = check_time(t, f"({sid}, {fid})")
        recs[key] = (tf, check_value(kinds[fid], value, f"({sid}, {fid})"))
        if sid not in seen_s:
            seen_s.add(sid)
            sample_order.append(sid)
        if fid not in seen_f:
            seen_f.add(fid)
            feature_order.append(fid)
    samples = _resolve_sample_ids(sample_order, sample_ids)
    features = _feature_order(feature_order, kinds)
    grid = tuple(
        tuple(recs.get((sid, fid)) for fid in features)
        for sid in samples)
    return EventSamples(tuple(samples), tuple((f, kinds[f]) for f in features),
                        grid)


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
    known = set(ds.sample_ids)
    for sid in ids:
        if sid not in known:
            raise UnknownSample(f"sample {sid!r} not in dataset")

    def pick(container, rows_attr):
        if container is None:
            return None
        pos = [container._sample_pos[sid] for sid in ids]
        rows = getattr(container, rows_attr)
        return type(container)(tuple(ids), container.features,
                               tuple(rows[i] for i in pos))

    return Dataset(static=pick(ds.static, "values"),
                   temporal=pick(ds.temporal, "series"),
                   events=pick(ds.events, "entries"),
                   roles=ds.roles)


def time_window(ts: TimeSeriesSamples, t_lo, t_hi) -> TimeSeriesSamples:
    """Keep points with t_lo <= t <= t_hi; sequences may become empty."""
    lo = check_time(t_lo, "t_lo")
    hi = check_time(t_hi, "t_hi")
    if lo > hi:
        raise InvalidWindow(f"window lower bound {lo} above upper bound {hi}")
    series = tuple(
        tuple(
            tuple(p for p in seq if lo <= p[0] <= hi)
            for seq in per_sample)
        for per_sample in ts.series)
    return TimeSeriesSamples(ts.sample_ids, ts.features, series)


def missing_mask(container):
    """Boolean structure congruent to the container's values;
    true exactly where the value is Missing."""
    if isinstance(container, StaticSamples):
        return tuple(tuple(v is MISSING for v in row)
                     for row in container.values)
    if isinstance(container, TimeSeriesSamples):
        return tuple(
            tuple(tuple(v is MISSING for _, v in seq) for seq in per_sample)
            for per_sample in container.series)
    if isinstance(container, EventSamples):
        return tuple(
            tuple(None if e is None else e[1] is MISSING for e in per_sample)
            for per_sample in container.entries)
    raise TypeError(f"not a modality container: {container!r}")


_SUMMARY_STATS = ("last", "mean", "min", "max", "slope")


def _ols_slope(points: list) -> float:
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
    return num / den


def temporal_summary(ts: TimeSeriesSamples) -> StaticSamples:
    """Collapse each numeric sequence to five static features:
    last, mean, min, max and the OLS slope of value against time,
    named `<feature>.<stat>`.

    Missing points are skipped; fewer than two observed points give a
    Missing slope, zero observed points give all five Missing.
    """
    for fid, kind in ts.features:
        if isinstance(kind, Categorical):
            raise NonNumericFeature(
                f"temporal_summary needs numeric features, {fid!r} is "
                "categorical")
    features = []
    for fid, _ in ts.features:
        for stat in _SUMMARY_STATS:
            features.append((f"{fid}.{stat}", Continuous()))
    grid = []
    for per_sample in ts.series:
        row = []
        for seq in per_sample:
            observed = [(t, float(v)) for t, v in seq if v is not MISSING]
            if not observed:
                row.extend([MISSING] * 5)
                continue
            total = 0.0
            mn = observed[0][1]
            mx = observed[0][1]
            for _, v in observed:
                total += v
                if v < mn:
                    mn = v
                if v > mx:
                    mx = v
            last = observed[-1][1]
            mean = total / len(observed)
            slope = _ols_slope(observed) if len(observed) >= 2 else MISSING
            row.extend([last, mean, mn, mx, slope])
        grid.append(tuple(row))
    return StaticSamples(ts.sample_ids, tuple(features), tuple(grid))


def covariate_matrix(ds: Dataset) -> tuple:
    """Featurize covariates into a dense per-sample numeric matrix.

    Columns are static numeric covariates in container order, then the five
    temporal_summary statistics per temporal covariate. Event features are
    not featurized. Returns (column_names, rows).

    Raises RequirementUnmet("non_numeric_feature") for categorical
    covariates (one-hot encode first) and MissingInFeatures if any cell of
    the resulting matrix would be Missing.
    """
    names: list = []
    columns: list = []
    n = len(ds.sample_ids)
    if ds.static is not None:
        for fid, kind in ds.static.features:
            if ds.roles.role_of(fid) is not Role.COVARIATE:
                continue
            if isinstance(kind, Categorical):
                raise RequirementUnmet(
                    "non_numeric_feature",
                    f"static covariate {fid!r} is categorical")
            names.append(fid)
            columns.append(ds.static.column(fid))
    if ds.temporal is not None:
        c = ds.temporal
        pos = [j for j, (fid, _) in enumerate(c.features)
               if ds.roles.role_of(fid) is Role.COVARIATE]
        feats = tuple(c.features[j] for j in pos)
        for fid, kind in feats:
            if isinstance(kind, Categorical):
                raise RequirementUnmet(
                    "non_numeric_feature",
                    f"temporal covariate {fid!r} is categorical")
        if feats:
            summary = temporal_summary(TimeSeriesSamples(
                c.sample_ids, feats,
                tuple(tuple(per[j] for j in pos) for per in c.series)))
            for fid, _ in summary.features:
                names.append(fid)
                columns.append(summary.column(fid))
    rows = []
    for i in range(n):
        row = []
        for name, col in zip(names, columns):
            v = col[i]
            if v is MISSING:
                raise MissingInFeatures(
                    f"covariate {name!r} is missing for sample "
                    f"{ds.sample_ids[i]!r}")
            row.append(float(v))
        rows.append(row)
    return names, rows
