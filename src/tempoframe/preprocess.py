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
    Modality,
    Role,
    RoleMap,
    assemble_dataset,
    map_columns,
)
from tempoframe.errors import (
    AllMissingFeature,
    FitDiverged,
    InvalidStep,
    RequirementUnmet,
    UnseenCategory,
)
from tempoframe.kernels import mean_std
from tempoframe.plugins import Category, EstimatorSpec, Param, register_plugin


def _same_id(params, state, feature_id: str) -> tuple:
    """derived_ids of a transform that maps each value in place."""
    return (feature_id,)


def _require_temporal(ds: Dataset) -> None:
    if ds.temporal is None:
        raise RequirementUnmet("missing_temporal",
                               "transform needs a temporal container")


def check_step(step: float) -> None:
    """InvalidStep unless the grid spacing is positive; reals are finite."""
    if step <= 0:
        raise InvalidStep(f"step must be a positive real, got {step}")


def _observed_training_values(ds: Dataset) -> dict:
    """feature_id -> list of observed values, static cells then temporal
    points, in container order."""
    out = {}
    if ds.static is not None:
        for fid, column in zip(ds.static.feature_ids, ds.static.columns):
            out[fid] = [v for v in column if v is not MISSING]
    if ds.temporal is not None:
        for fid, column in zip(ds.temporal.feature_ids, ds.temporal.columns):
            out[fid] = [v for _, values in column for v in values
                        if v is not MISSING]
    return out


def _map_values(ds: Dataset, fns: dict) -> Dataset:
    """`map_columns` with each `fns[fid]` applied to every value of the
    feature: each static cell, each temporal point's value (a sequence
    keeps its times tuple)."""
    temporal = ds.temporal.feature_ids if ds.temporal is not None else ()
    return map_columns(ds, {
        fid: (lambda col, f=f: tuple((times, tuple(map(f, values)))
                                     for times, values in col))
        if fid in temporal else (lambda col, f=f: tuple(map(f, col)))
        for fid, f in fns.items()})


def _fill_value(plugin: str, fid: str, kind, observed: list):
    """Training fill statistic: mean (Integer: rounded half-even),
    or modal category with ties broken lexicographically. A mean past
    the float range is a FitDiverged naming the plugin and feature."""
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
    if not math.isfinite(mean):
        raise FitDiverged(f"{plugin} of {fid!r}: mean is not finite "
                          f"({mean!r})")
    if isinstance(kind, Integer):
        return round(mean)
    return mean


# ---------------------------------------------------------------------------
# impute.mean
# ---------------------------------------------------------------------------

def _mean_fit(params, ds: Dataset) -> dict:
    observed = _observed_training_values(ds)
    kinds = {fid: kind for fid, kind, _, _ in ds.all_features()}
    fills = {}
    for fid, values in observed.items():
        if not values:
            raise AllMissingFeature(
                f"feature {fid!r} has no observed training value")
        fills[fid] = _fill_value("impute.mean", fid, kinds[fid], values)
    return {"fills": fills}


def _mean_transform(params, state, ds: Dataset) -> Dataset:
    return _map_values(ds, {
        fid: lambda v, fill=fill: fill if v is MISSING else v
        for fid, fill in state["fills"].items()})


# ---------------------------------------------------------------------------
# impute.locf
# ---------------------------------------------------------------------------

def _locf_fit(params, ds: Dataset) -> dict:
    _require_temporal(ds)
    observed = _observed_training_values(ds)
    # Leading-gap fallback; a feature with zero observed training values
    # has no fallback and its leading gaps stay Missing.
    return {"fills": {
        fid: _fill_value("impute.locf", fid, kind, observed[fid])
        if observed[fid] else None
        for fid, kind in ds.temporal.features}}


def _locf_seq(times, values, fallback):
    out = []
    carry = MISSING if fallback is None else fallback
    for v in values:
        if v is not MISSING:
            carry = v
        out.append(carry)
    return times, tuple(out)


def _locf_transform(params, state, ds: Dataset) -> Dataset:
    _require_temporal(ds)
    fills = state["fills"]
    return map_columns(ds, {
        fid: lambda col, fallback=fills.get(fid): tuple(
            _locf_seq(*seq, fallback) for seq in col)
        for fid in ds.temporal.feature_ids})


# ---------------------------------------------------------------------------
# scale.zscore
# ---------------------------------------------------------------------------

def _zscore_features(ds: Dataset) -> list:
    """Continuous covariates, the only features this scaler touches."""
    return [fid for fid, kind, modality
            in ds.features_with_role(Role.COVARIATE)
            if modality is not Modality.EVENT and isinstance(kind, Continuous)]


def _zscore_fit(params, ds: Dataset) -> dict:
    observed = _observed_training_values(ds)
    stats = {}
    for fid in _zscore_features(ds):
        # Nothing observed: flagged degenerate, transform maps to 0.
        vals = observed[fid]
        stats[fid] = list(mean_std(vals)) if vals else [0.0, 0.0]
        for stat, v in zip(("mean", "std"), stats[fid]):
            if not math.isfinite(v):
                raise FitDiverged(f"scale.zscore of {fid!r}: {stat} is not "
                                  f"finite ({v!r})")
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
    return {"encoded": [
        [fid, modality.value, list(kind.categories)]
        for fid, kind, modality in ds.features_with_role(Role.COVARIATE)
        if modality is not Modality.EVENT and isinstance(kind, Categorical)]}


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


def _onehot_seq(seq, cats, fid) -> list:
    """One indicator sequence per category, on the times of `seq`."""
    times, values = seq
    bits = [_onehot_value(v, cats, fid) for v in values]
    return [(times, tuple(b[k] for b in bits)) for k in range(len(cats))]


def _onehot_transform(params, state, ds: Dataset) -> Dataset:
    by_feature = {fid: cats for fid, modality, cats in state["encoded"]}
    if not by_feature:
        return ds
    new_ids = []

    def expand(container, indicators):
        if container is None or not any(
                fid in by_feature for fid in container.feature_ids):
            return container
        features, columns, unseen = [], [], []
        for (fid, kind), column in zip(container.features, container.columns):
            cats = by_feature.get(fid)
            if cats is None:
                features.append((fid, kind))
                columns.append(column)
                continue
            ids = [f"{fid}={c}" for c in cats]
            new_ids.extend(ids)
            features.extend((i, Integer()) for i in ids)
            bits = []
            for i, cell in enumerate(column):
                try:
                    bits.append(indicators(cell, cats, fid))
                except UnseenCategory as e:
                    unseen.append((i, e))
                    break
            columns.extend(tuple(b[k] for b in bits) for k in range(len(cats)))
        if unseen:
            # the first in sample order, then feature order, as a walk of
            # the samples meets it; static raises before temporal
            raise min(unseen, key=lambda found: found[0])[1]
        return type(container)(container.sample_ids, tuple(features),
                               tuple(columns))

    static = expand(ds.static, _onehot_value)
    temporal = expand(ds.temporal, _onehot_seq)
    assignment = [(fid, role) for fid, role in ds.roles.assignment
                  if fid not in by_feature]
    assignment.extend((fid, Role.COVARIATE) for fid in new_ids)
    return assemble_dataset(static=static, temporal=temporal,
                            events=ds.events,
                            roles=RoleMap(tuple(assignment)))


# ---------------------------------------------------------------------------
# resample.regular
# ---------------------------------------------------------------------------

# Most grid points one resampled sequence may get; a finer grid is refused
# before it is allocated.
_MAX_GRID = 10 ** 6


def _resample_seq(times, values, step: float):
    if not times:
        return (), ()
    t_min = times[0]
    t_max = times[-1]
    span = t_max - t_min
    count = span / step + 1  # a float, possibly inf, until known to be small
    if count <= _MAX_GRID + 1:
        count = int(math.floor(span / step)) + 1
        # Floor in floating point can land one short of an exactly-
        # representable endpoint; extend if the next grid time still fits.
        while t_min + count * step <= t_max:
            count += 1
    if count > _MAX_GRID:
        raise InvalidStep(f"step {step} over a span of {span} gives "
                          f"{count:.0f} grid points, more than {_MAX_GRID}")
    grid = []
    out = []
    src = 0
    carry = MISSING
    for k in range(count):
        t = t_min + k * step
        if grid and not t > grid[-1]:
            raise InvalidStep(
                f"step {step} is below time resolution at t={t}")
        while src < len(times) and times[src] <= t:
            carry = values[src]
            src += 1
        grid.append(t)
        out.append(carry)
    return tuple(grid), tuple(out)


def _resample_fit(params, ds: Dataset) -> dict:
    _require_temporal(ds)
    check_step(params["step"])
    return {}


def _resample_transform(params, state, ds: Dataset) -> Dataset:
    _require_temporal(ds)
    step = params["step"]
    check_step(step)
    return map_columns(ds, {
        fid: lambda col: tuple(_resample_seq(*seq, step) for seq in col)
        for fid in ds.temporal.feature_ids})


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

register_plugin(EstimatorSpec(
    name="impute.locf", category=Category.TRANSFORM,
    fit=_locf_fit, transform=_locf_transform, derived_ids=_same_id))

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
    fit=_resample_fit, transform=_resample_transform,
    derived_ids=_same_id))
