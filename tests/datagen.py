"""Seeded random dataset generator shared across the test modules.

Everything is driven by the library's own Lcg so fixtures are reproducible
across machines. Generated datasets exercise the awkward corners on
purpose: irregular unaligned unequal-length series, all-Missing cells,
censoring records, categorical features, and samples that appear only in
the explicit sample-id list.
"""

from __future__ import annotations

from tempoframe.data import (
    MISSING,
    Categorical,
    Continuous,
    Integer,
    Role,
    RoleMap,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
)
from tempoframe.rng import Lcg

_CATEGORY_POOL = ("alpha", "beta", "gamma", "delta")


def _random_kind(rng: Lcg):
    pick = rng.below(3)
    if pick == 0:
        return Continuous()
    if pick == 1:
        return Integer()
    size = 2 + rng.below(3)
    return Categorical(_CATEGORY_POOL[:size])


def _random_value(rng: Lcg, kind):
    if isinstance(kind, Continuous):
        return rng.uniform_in(-100.0, 100.0)
    if isinstance(kind, Integer):
        return rng.below(41) - 20
    return kind.categories[rng.below(len(kind.categories))]


def _random_times(rng: Lcg, length: int) -> list:
    t = rng.uniform_in(-5.0, 5.0)
    out = []
    for _ in range(length):
        out.append(t)
        t += rng.uniform_in(0.1, 2.0)
    return out


def random_dataset(seed: int, *, ensure_observed: bool = False,
                   numeric_only: bool = False):
    """A random three-modality dataset; containers appear probabilistically
    but a temporal container with a covariate is always present."""
    rng = Lcg(seed)
    n = 2 + rng.below(7)
    sample_ids = [f"s{i:03d}" for i in range(n)]

    def kind():
        if numeric_only:
            return Continuous() if rng.coin() else Integer()
        return _random_kind(rng)

    static_kinds = {f"sf{j}": kind() for j in range(rng.below(4))}
    temporal_kinds = {f"tf{j}": kind() for j in range(1 + rng.below(3))}
    event_kinds = {f"ef{j}": kind() for j in range(rng.below(3))}

    static = None
    if static_kinds:
        rows = []
        for sid in sample_ids:
            for fid, k in static_kinds.items():
                if rng.uniform() < 0.8:
                    rows.append((sid, fid, _random_value(rng, k)))
        static = build_static_samples(rows, static_kinds,
                                      sample_ids=sample_ids)

    points = []
    for sid in sample_ids:
        for fid, k in temporal_kinds.items():
            length = rng.below(6)
            for t in _random_times(rng, length):
                v = MISSING if rng.uniform() < 0.15 \
                    else _random_value(rng, k)
                points.append((sid, fid, t, v))
    if ensure_observed:
        points = _with_observed_temporal(points, temporal_kinds, sample_ids,
                                         rng)
    temporal = build_time_series_samples(points, temporal_kinds,
                                         sample_ids=sample_ids)

    events = None
    if event_kinds:
        entries = []
        for sid in sample_ids:
            for fid, k in event_kinds.items():
                if rng.uniform() < 0.7:
                    t = rng.uniform_in(0.0, 10.0)
                    v = MISSING if rng.uniform() < 0.4 \
                        else _random_value(rng, k)
                    entries.append((sid, fid, t, v))
        events = build_event_samples(entries, event_kinds,
                                     sample_ids=sample_ids)

    if ensure_observed and static is not None:
        static = _with_observed_static(static, rng)

    all_kinds = {**static_kinds, **temporal_kinds, **event_kinds}
    assignment = []
    for fid in all_kinds:
        role = (Role.COVARIATE, Role.TARGET, Role.TREATMENT)[rng.below(3)]
        assignment.append((fid, role))
    # The partition must contain at least one covariate; pin the first
    # temporal feature, which is always present.
    first_temporal = next(iter(temporal_kinds))
    assignment = [(fid, Role.COVARIATE if fid == first_temporal else role)
                  for fid, role in assignment]
    return assemble_dataset(static=static, temporal=temporal, events=events,
                            roles=RoleMap(tuple(assignment)))


def static_rows(static) -> list:
    """The long-form (sample_id, feature_id, value) row of every cell of a
    StaticSamples, Missing included, row-major: what its builder reads."""
    return [(sid, fid, v) for sid, row in zip(static.sample_ids, static.values)
            for (fid, _), v in zip(static.features, row)]


def temporal_points(temporal) -> list:
    """The long-form (sample_id, feature_id, time, value) point of every
    sequence of a TimeSeriesSamples, sample-major then feature order: what
    its builder reads."""
    return [(sid, fid, t, v)
            for sid, row in zip(temporal.sample_ids, temporal.series)
            for (fid, _), (times, values) in zip(temporal.features, row)
            for t, v in zip(times, values)]


def event_entries(events) -> list:
    """The long-form (sample_id, feature_id, time, value) entry of every
    event of an EventSamples, sample-major then feature order: what its
    builder reads."""
    return [(sid, fid, *e)
            for sid, row in zip(events.sample_ids, events.entries)
            for (fid, _), e in zip(events.features, row) if e is not None]


def sequence_of(pairs) -> tuple:
    """The (times, values) sequence of (time, value) pairs; the inverse of
    `tuple(zip(*sequence))`."""
    return tuple(t for t, _ in pairs), tuple(v for _, v in pairs)


def _with_observed_temporal(points, kinds, sample_ids, rng: Lcg):
    """Guarantee one observed point per temporal feature so imputers have a
    training statistic."""
    observed = {fid: False for fid in kinds}
    for _, fid, _, v in points:
        if v is not MISSING:
            observed[fid] = True
    extra = []
    for fid, k in kinds.items():
        if not observed[fid]:
            extra.append((sample_ids[0], fid, 1e6, _random_value(rng, k)))
    return points + extra


def _with_observed_static(static, rng: Lcg):
    from tempoframe.data import StaticSamples

    grid = [list(row) for row in static.values]
    for j, (fid, k) in enumerate(static.features):
        if all(row[j] is MISSING for row in grid):
            grid[0][j] = _random_value(rng, k)
    return StaticSamples(static.sample_ids, static.features,
                         tuple(tuple(row) for row in grid))


def survival_dataset(seed: int, n: int = 30, censor_rate: float = 0.3,
                     effect: float = 1.5):
    """A static-covariate survival fixture: larger `x` hastens the event."""
    rng = Lcg(seed)
    rows, entries = [], []
    for i in range(n):
        sid = f"s{i:03d}"
        x = rng.uniform_in(-1.0, 1.0)
        rows.append((sid, "x", x))
        t = 4.0 - effect * x + rng.uniform()
        occurred = rng.uniform() >= censor_rate
        entries.append((sid, "death", t, 1 if occurred else MISSING))
    static = build_static_samples(rows, {"x": Continuous()})
    events = build_event_samples(entries, {"death": Integer()})
    return assemble_dataset(
        static=static, events=events,
        roles=RoleMap.of(covariates=("x",), targets=("death",)))


def classification_dataset(seed: int, n: int = 40, informative: str = "x1"):
    """Binary labels driven by one feature; the other is pure noise."""
    rng = Lcg(seed)
    rows = []
    for i in range(n):
        sid = f"s{i:03d}"
        x1 = rng.uniform_in(-1.0, 1.0)
        x2 = rng.uniform_in(-1.0, 1.0)
        label = 1 if (x1 if informative == "x1" else x2) > 0.0 else 0
        rows.extend([(sid, "x1", x1), (sid, "x2", x2), (sid, "y", label)])
    static = build_static_samples(
        rows, {"x1": Continuous(), "x2": Continuous(), "y": Integer()})
    return assemble_dataset(
        static=static,
        roles=RoleMap.of(covariates=("x1", "x2"), targets=("y",)))


def regular_series_dataset(seed: int, n: int = 10, length: int = 20,
                           phi: float = 0.8, c: float = 0.5,
                           step: float = 1.0):
    """AR(1)-generated regular target series plus a static covariate."""
    rng = Lcg(seed)
    rows, points = [], []
    for i in range(n):
        sid = f"s{i:03d}"
        rows.append((sid, "age", rng.uniform_in(40.0, 80.0)))
        v = rng.uniform_in(-1.0, 1.0)
        for k in range(length):
            points.append((sid, "hr", k * step, v))
            v = phi * v + c
    static = build_static_samples(rows, {"age": Continuous()})
    temporal = build_time_series_samples(points, {"hr": Continuous()})
    return assemble_dataset(
        static=static, temporal=temporal,
        roles=RoleMap.of(covariates=("age",), targets=("hr",)))


def offset_grid_dataset(seed: int, n: int = 12, step: float = 0.1,
                        drop: float = 0.0, keep_last: int = 0):
    """AR(1) target series on t0 + j * step, with t0 cycling through
    0.3, 1.7, 0.0 and 2.25 and lengths 15 to 26: a fractional grid whose
    last time t_last + k * step can differ from t0 + (j + k) * step.

    With `drop` > 0, each interior point but the last `keep_last` is
    dropped with that probability, so the series need resampling."""
    rng = Lcg(seed)
    rows, points = [], []
    for i in range(n):
        sid = f"s{i:02d}"
        rows.append((sid, "age", rng.uniform_in(40.0, 80.0)))
        t0 = (0.3, 1.7, 0.0, 2.25)[i % 4]
        v = rng.uniform_in(-1.0, 1.0)
        length = 15 + i % 12
        for j in range(length):
            if not (drop and 0 < j < length - keep_last
                    and rng.uniform() < drop):
                points.append((sid, "y", t0 + j * step, v))
            v = 0.7 * v + 0.2
    static = build_static_samples(rows, {"age": Continuous()})
    temporal = build_time_series_samples(points, {"y": Continuous()})
    return assemble_dataset(
        static=static, temporal=temporal,
        roles=RoleMap.of(covariates=("age",), targets=("y",)))


def patient_dataset(seed: int, n: int = 48, outcome: str = "survival"):
    """Two static and two irregular temporal covariates per patient, about
    10% of the cells Missing, and an outcome driven by a latent linear
    score of them: a right-censored `death` event (`outcome="survival"`)
    or a binary static `label` (`outcome="classify"`)."""
    rng = Lcg(seed)
    ids, rows, points, entries = [], [], [], []
    for i in range(n):
        sid = f"p{i:03d}"
        age = rng.uniform_in(30.0, 90.0)
        sex = rng.coin()
        hr_level = rng.normal()
        lab_trend = 0.5 * rng.normal()
        for fid, v in (("age", age), ("sex", sex)):
            if rng.uniform() >= 0.1:
                rows.append((sid, fid, v))
        for fid, level, trend in (("hr", hr_level, 0.0),
                                  ("lab", 0.0, lab_trend)):
            t = rng.uniform_in(0.0, 2.0)
            for _ in range(2 + rng.below(4)):
                v = level + trend * t + 0.3 * rng.normal()
                points.append((sid, fid, t,
                               MISSING if rng.uniform() < 0.1 else v))
                t += rng.uniform_in(0.3, 3.0)
        score = (0.04 * (age - 60.0) + 0.5 * sex + 0.6 * hr_level
                 + 1.2 * lab_trend)
        if outcome == "survival":
            t = 4.0 - score + rng.uniform()
            entries.append((sid, "death", t,
                            1 if rng.uniform() >= 0.3 else MISSING))
        else:
            rows.append((sid, "label",
                         1 if score + 0.3 * rng.normal() > 0.3 else 0))
        ids.append(sid)
    static_kinds = {"age": Continuous(), "sex": Integer()}
    events = None
    if outcome == "survival":
        events = build_event_samples(entries, {"death": Integer()},
                                     sample_ids=ids)
        target = "death"
    else:
        static_kinds["label"] = Integer()
        target = "label"
    return assemble_dataset(
        static=build_static_samples(rows, static_kinds, sample_ids=ids),
        temporal=build_time_series_samples(
            points, {"hr": Continuous(), "lab": Continuous()},
            sample_ids=ids),
        events=events,
        roles=RoleMap.of(covariates=("age", "sex", "hr", "lab"),
                         targets=(target,)))

