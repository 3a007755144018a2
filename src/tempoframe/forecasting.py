"""Forecast baselines, and the static-outcome classifier `classify.logistic`.

Plugins: `forecast.persistence`, `forecast.ar`, `classify.logistic`.
The AR fitter requires already-regular target series (resample first; see
`resample.regular`) so the preprocessing step stays explicit and testable.
"""

from __future__ import annotations

from tempoframe.data import (
    Categorical,
    Continuous,
    Dataset,
    MISSING,
    Modality,
    Role,
    StaticSamples,
    TimeSeriesSamples,
    binary_codes,
    check_column_names,
    covariate_matrix,
    missing_role,
)
from tempoframe.errors import (
    EmptyTargetSeries,
    InsufficientHistory,
    IrregularSeries,
    MissingInTarget,
    NonBinaryTarget,
    RequirementUnmet,
)
from tempoframe.kernels import (
    _sigmoid,
    linear_predictor,
    logistic_gd,
    ridge_normal_solve,
)
from tempoframe.plugins import Category, EstimatorSpec, Param, register_plugin
from tempoframe.preprocess import check_step


def _temporal_targets(ds: Dataset) -> list:
    out = ds.features_with_role(Role.TARGET, Modality.TEMPORAL)
    if not out:
        raise missing_role(Role.TARGET, Modality.TEMPORAL)
    for fid, kind, _ in out:
        if isinstance(kind, Categorical):
            raise RequirementUnmet("non_numeric_feature",
                                   f"target {fid!r} is categorical")
    return [fid for fid, _, _ in out]


# ---------------------------------------------------------------------------
# forecast.persistence
# ---------------------------------------------------------------------------

def _persistence_fit(params, ds: Dataset) -> dict:
    check_step(params["step"])
    return {"targets": _temporal_targets(ds)}


def _last_observed(values, sid, fid):
    """(index, value) of the last observed value of a sequence."""
    for j in range(len(values) - 1, -1, -1):
        if values[j] is not MISSING:
            return j, float(values[j])
    raise EmptyTargetSeries(
        f"no observed value in target {fid!r} of sample {sid!r}")


def _persistence_predict(params, state, ds: Dataset) -> TimeSeriesSamples:
    """The last observed value, at the next `horizon` times after it: on
    a sequence on its grid t0 + j * step, the grid's own times, as
    `forecast.ar` continues it; else t_last + k * step."""
    horizon = params["horizon"]
    step = params["step"]
    targets = state["targets"]
    features = tuple((fid, Continuous()) for fid in targets)
    ks = range(1, horizon + 1)
    columns = []
    for fid in targets:
        column = []
        for sid, (times, values) in zip(ds.sample_ids,
                                        ds.temporal.column(fid)):
            j, v_last = _last_observed(values, sid, fid)
            t0 = times[0]
            if all(t == t0 + i * step for i, t in enumerate(times)):
                grid = tuple(t0 + (j + k) * step for k in ks)
            else:
                grid = tuple(times[j] + k * step for k in ks)
            column.append((grid, (v_last,) * horizon))
        columns.append(tuple(column))
    return TimeSeriesSamples(ds.sample_ids, features, tuple(columns))


register_plugin(EstimatorSpec(
    name="forecast.persistence", category=Category.FORECASTER,
    schema=(Param("horizon", "integer", 1, lo=1),
            Param("step", "real", 1.0)),
    fit=_persistence_fit, predict=_persistence_predict))


# ---------------------------------------------------------------------------
# forecast.ar
# ---------------------------------------------------------------------------

def _regular_values(times, values, step: float, order: int, sid,
                    fid) -> list:
    """Validate one target sequence for AR use and return its values.

    The grid must satisfy times[k] == times[0] + k*step exactly, the same
    expression `resample.regular` emits, so resampled data always passes.
    """
    if len(times) < order + 1:
        raise InsufficientHistory(
            f"target {fid!r} of sample {sid!r} has {len(times)} points, "
            f"order {order} needs at least {order + 1}")
    t0 = times[0]
    out = []
    for k, (t, v) in enumerate(zip(times, values)):
        if t != t0 + k * step:
            raise IrregularSeries(
                f"target {fid!r} of sample {sid!r} is not on a regular "
                f"grid with step {step} (point {k} at t={t})")
        if v is MISSING:
            raise MissingInTarget(
                f"target {fid!r} of sample {sid!r} has a missing value "
                f"at t={t}")
        out.append(float(v))
    return out


def _ar_fit(params, ds: Dataset) -> dict:
    order = params["order"]
    step = params["step"]
    check_step(step)
    models = {}
    for fid in _temporal_targets(ds):
        # lags[k - 1][i] is the value k steps before target y[i]
        lags = [[] for _ in range(order)]
        y = []
        for sid, seq in zip(ds.sample_ids, ds.temporal.column(fid)):
            values = _regular_values(*seq, step, order, sid, fid)
            for k, lag in enumerate(lags, 1):
                lag.extend(values[order - k:len(values) - k])
            y.extend(values[order:])
        coefs = ridge_normal_solve([[1.0] * len(y), *lags], y, 1e-9,
                                   [1.0] * (order + 1))
        models[fid] = {"c": coefs[0], "phi": coefs[1:]}
    return {"models": models}


def _ar_predict(params, state, ds: Dataset) -> TimeSeriesSamples:
    order = params["order"]
    horizon = params["horizon"]
    step = params["step"]
    models = state["models"]
    features = tuple((fid, Continuous()) for fid in models)
    columns = []
    for fid, model in models.items():
        column = []
        for sid, (times, values) in zip(ds.sample_ids,
                                        ds.temporal.column(fid)):
            if len(times) < order:
                raise InsufficientHistory(
                    f"target {fid!r} of sample {sid!r} has {len(times)} "
                    f"points, order {order} needs at least {order}")
            history = _regular_values(times, values, step, len(times) - 1,
                                      sid, fid)
            t0 = times[0]
            c = model["c"]
            phi = model["phi"]
            grid = []
            for _ in range(horizon):
                nxt = c
                for i in range(order):
                    nxt += phi[i] * history[-1 - i]
                history.append(nxt)
                # continue the grid `_regular_values` checks
                grid.append(t0 + (len(history) - 1) * step)
            column.append((tuple(grid), tuple(history[-horizon:])))
        columns.append(tuple(column))
    return TimeSeriesSamples(ds.sample_ids, features, tuple(columns))


register_plugin(EstimatorSpec(
    name="forecast.ar", category=Category.FORECASTER,
    schema=(Param("order", "integer", 1, lo=1),
            Param("horizon", "integer", 1, lo=1),
            Param("step", "real", 1.0)),
    fit=_ar_fit, predict=_ar_predict))


# ---------------------------------------------------------------------------
# classify.logistic
# ---------------------------------------------------------------------------

def _logistic_fit(params, ds: Dataset) -> dict:
    fid, kind, _ = ds.sole_feature(Role.TARGET, Modality.STATIC)
    codes = binary_codes(kind)
    if isinstance(kind, Categorical) and not codes:
        raise NonBinaryTarget(
            f"target {fid!r} has {len(kind.categories)} categories")
    if not codes:
        raise NonBinaryTarget(f"target {fid!r} is continuous")
    names, columns = covariate_matrix(ds)
    y = []
    for sid, v in zip(ds.sample_ids, ds.static.column(fid)):
        if v is MISSING:
            raise MissingInTarget(f"target {fid!r} missing for sample {sid!r}")
        if v not in codes:
            raise NonBinaryTarget(f"integer target {fid!r} has value {v!r} "
                                  "outside {0, 1}")
        y.append(float(codes[v]))
    weights, bias = logistic_gd(columns, y, params["lr"], params["iters"])
    return {"target": fid, "columns": names, "weights": weights,
            "bias": bias}


def _logistic_predict_columns(params, state, sample_ids, names,
                              columns) -> StaticSamples:
    check_column_names(state["columns"], names)
    z = linear_predictor(columns, state["weights"],
                         [state["bias"]] * len(sample_ids))
    return StaticSamples(sample_ids, ((state["target"], Continuous()),),
                         (tuple(map(_sigmoid, z)),))


register_plugin(EstimatorSpec(
    name="classify.logistic", category=Category.CLASSIFIER,
    schema=(Param("lr", "real", 0.1, lo=0.0),
            Param("iters", "integer", 500, lo=1)),
    fit=_logistic_fit, predict_columns=_logistic_predict_columns))

