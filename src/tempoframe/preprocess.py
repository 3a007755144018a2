"""Preprocessing transforms: imputation, scaling, encoding, resampling.

All five are Transform-category plugins. Event containers are never
touched: a censoring sentinel is information, not missingness. Imputers
cover every static/temporal feature; the scaler and the encoder restrict
themselves to covariates so that targets keep their outcome units and
treatment arms stay intact.

The imputers, the scaler and the resampler keep the features, their ids
and the roles, and rewrite values only: each builds per-feature column
functions and applies them with `data.map_columns`. The encoder changes
the feature set and assembles a new validated dataset.
"""

from __future__ import annotations

import math

from tempoframe.data import (
    Categorical,
    Continuous,
    Dataset,
    Integer,
    MISSING,
    Role,
    RoleMap,
    StaticSamples,
    TimeSeriesSamples,
    assemble_dataset,
    map_columns,
)
from tempoframe.errors import (
    AllMissingFeature,
    InvalidStep,
    RequirementUnmet,
    UnseenCategory,
)
from tempoframe.kernels import mean_std
from tempoframe.plugins import Category, EstimatorSpec, Param, register_plugin


def _same_id(params, state, feature_id: str) -> tuple:
    """derived_ids of a transform that maps each value in place."""
    return (feature_id,)


def _require_temporal(params, ds: Dataset) -> None:
    if ds.temporal is None:
        raise RequirementUnmet("missing_temporal",
                               "transform needs a temporal container")


def _observed_training_values(ds: Dataset) -> dict:
    """feature_id -> list of observed values, static cells then temporal
    points, in container order."""
    out = {}
    if ds.static is not None:
        for fid, _ in ds.static.features:
            out[fid] = [v for v in ds.static.column(fid) if v is not MISSING]
    if ds.temporal is not None:
        for j, (fid, _) in enumerate(ds.temporal.features):
            vals = []
            for per_sample in ds.temporal.series:
                for _, v in per_sample[j]:
                    if v is not MISSING:
                        vals.append(v)
            out[fid] = vals
    return out


def _map_values(ds: Dataset, fns: dict) -> Dataset:
    """`map_columns` with each `fns[fid]` applied to every value of the
    feature: each static cell, each temporal point's value."""
    lifted = {}
    for fid in (ds.static.feature_ids if ds.static is not None else ()):
        if fid in fns:
            lifted[fid] = lambda col, f=fns[fid]: tuple(f(v) for v in col)
    for fid in (ds.temporal.feature_ids if ds.temporal is not None else ()):
        if fid in fns:
            lifted[fid] = lambda col, f=fns[fid]: tuple(
                tuple((t, f(v)) for t, v in seq) for seq in col)
    return map_columns(ds, lifted)


def _fill_value(kind, observed: list):
    """Training fill statistic: mean (Integer: rounded half-even),
    or modal category with ties broken lexicographically."""
    if isinstance(kind, Categorical):
        counts: dict = {}
        for v in observed:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        return min(c for c, k in counts.items() if k == best)
    total = 0.0
    for v in observed:
        total += float(v)
    mean = total / len(observed)
    if isinstance(kind, Integer):
        return round(mean)
    return mean


# ---------------------------------------------------------------------------
# impute.mean
# ---------------------------------------------------------------------------

def _mean_fit(params, ds: Dataset) -> dict:
    observed = _observed_training_values(ds)
    kinds = {}
    if ds.static is not None:
        kinds.update(dict(ds.static.features))
    if ds.temporal is not None:
        kinds.update(dict(ds.temporal.features))
    fills = {}
    for fid, values in observed.items():
        if not values:
            raise AllMissingFeature(
                f"feature {fid!r} has no observed training value")
        fills[fid] = _fill_value(kinds[fid], values)
    return {"fills": fills}


def _mean_transform(params, state, ds: Dataset) -> Dataset:
    return _map_values(ds, {
        fid: lambda v, fill=fill: fill if v is MISSING else v
        for fid, fill in state["fills"].items()})


# ---------------------------------------------------------------------------
# impute.locf
# ---------------------------------------------------------------------------

def _locf_fit(params, ds: Dataset) -> dict:
    observed = _observed_training_values(ds)
    # Leading-gap fallback; a feature with zero observed training values
    # has no fallback and its leading gaps stay Missing.
    return {"fills": {
        fid: _fill_value(kind, observed[fid]) if observed[fid] else None
        for fid, kind in ds.temporal.features}}


def _locf_seq(seq, fallback):
    out = []
    carry = None
    for t, v in seq:
        if v is MISSING:
            if carry is not None:
                out.append((t, carry))
            elif fallback is not None:
                out.append((t, fallback))
            else:
                out.append((t, MISSING))
        else:
            carry = v
            out.append((t, v))
    return tuple(out)


def _locf_transform(params, state, ds: Dataset) -> Dataset:
    fills = state["fills"]
    return map_columns(ds, {
        fid: lambda col, fallback=fills.get(fid): tuple(
            _locf_seq(seq, fallback) for seq in col)
        for fid in ds.temporal.feature_ids})


# ---------------------------------------------------------------------------
# scale.zscore
# ---------------------------------------------------------------------------

def _zscore_features(ds: Dataset) -> list:
    """Continuous covariates, the only features this scaler touches."""
    out = []
    for container in (ds.static, ds.temporal):
        if container is None:
            continue
        for fid, kind in container.features:
            if isinstance(kind, Continuous) and \
                    ds.roles.role_of(fid) is Role.COVARIATE:
                out.append(fid)
    return out


def _zscore_fit(params, ds: Dataset) -> dict:
    observed = _observed_training_values(ds)
    stats = {}
    for fid in _zscore_features(ds):
        # Nothing observed: flagged degenerate, transform maps to 0.
        vals = observed[fid]
        stats[fid] = list(mean_std(vals)) if vals else [0.0, 0.0]
    return {"stats": stats}


def _zscore_apply(v, stat):
    if v is MISSING:
        return MISSING
    mean, std = stat
    if std == 0.0:
        return 0.0
    return (v - mean) / std


def _zscore_transform(params, state, ds: Dataset) -> Dataset:
    return _map_values(ds, {
        fid: lambda v, stat=stat: _zscore_apply(v, stat)
        for fid, stat in state["stats"].items()})


# ---------------------------------------------------------------------------
# encode.onehot
# ---------------------------------------------------------------------------

def _onehot_fit(params, ds: Dataset) -> dict:
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


def _onehot_ids(params, state, feature_id: str) -> tuple:
    for fid, _, cats in state["encoded"]:
        if fid == feature_id:
            return tuple(f"{fid}={c}" for c in cats)
    return (feature_id,)


def _onehot_value(v, cats, fid):
    if v is MISSING:
        return [MISSING] * len(cats)
    if v not in cats:
        raise UnseenCategory(f"value {v!r} of feature {fid!r} not in "
                             f"declared categories {cats}")
    return [1 if v == c else 0 for c in cats]


def _onehot_transform(params, state, ds: Dataset) -> Dataset:
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
                    for t, v in seq:
                        bits = _onehot_value(v, cats, fid)
                        for slot, bit in zip(expanded, bits):
                            slot.append((t, bit))
                    new_per_sample.extend(tuple(s) for s in expanded)
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


# ---------------------------------------------------------------------------
# resample.regular
# ---------------------------------------------------------------------------

def _resample_seq(seq, step: float):
    if not seq:
        return ()
    t_min = seq[0][0]
    t_max = seq[-1][0]
    count = int(math.floor((t_max - t_min) / step)) + 1
    # Floor in floating point can land one short of an exactly-representable
    # endpoint; extend if the next grid time still fits.
    while t_min + count * step <= t_max:
        count += 1
    out = []
    src = 0
    carry = MISSING
    prev_t = None
    for k in range(count):
        t = t_min + k * step
        if prev_t is not None and not t > prev_t:
            raise InvalidStep(
                f"step {step} is below time resolution at t={t}")
        prev_t = t
        while src < len(seq) and seq[src][0] <= t:
            carry = seq[src][1]
            src += 1
        out.append((t, carry))
    return tuple(out)


def _resample_fit(params, ds: Dataset) -> dict:
    if params["step"] <= 0 or not math.isfinite(params["step"]):
        raise InvalidStep(f"step must be a positive real, got {params['step']}")
    return {}


def _resample_transform(params, state, ds: Dataset) -> Dataset:
    step = params["step"]
    if step <= 0 or not math.isfinite(step):
        raise InvalidStep(f"step must be a positive real, got {step}")
    return map_columns(ds, {
        fid: lambda col: tuple(_resample_seq(seq, step) for seq in col)
        for fid in ds.temporal.feature_ids})


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

register_plugin(EstimatorSpec(
    name="impute.locf", category=Category.TRANSFORM,
    fit=_locf_fit, transform=_locf_transform, derived_ids=_same_id,
    requirements=_require_temporal))

register_plugin(EstimatorSpec(
    name="impute.mean", category=Category.TRANSFORM,
    fit=_mean_fit, transform=_mean_transform, derived_ids=_same_id))

register_plugin(EstimatorSpec(
    name="scale.zscore", category=Category.TRANSFORM,
    fit=_zscore_fit, transform=_zscore_transform, derived_ids=_same_id))

register_plugin(EstimatorSpec(
    name="encode.onehot", category=Category.TRANSFORM,
    fit=_onehot_fit, transform=_onehot_transform, derived_ids=_onehot_ids))

register_plugin(EstimatorSpec(
    name="resample.regular", category=Category.TRANSFORM,
    schema=(Param("step", "real", 1.0),),
    fit=_resample_fit, transform=_resample_transform, derived_ids=_same_id,
    requirements=_require_temporal))
