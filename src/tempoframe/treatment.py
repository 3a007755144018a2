"""Individualized treatment effects via a two-model (T-learner) estimator,
plus a ground-truth synthetic generator. PEHE is `rmse` over effect
columns (see `metrics`).

Scope is deliberately narrow: one binary static treatment, one continuous
static outcome, arm-wise ridge regression over featurized covariates.
Sequential treatment regimes are out of scope.
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
    Record,
    Role,
    RoleMap,
    StaticSamples,
    assemble_dataset,
    binary_codes,
    check_column_names,
    check_value,
    covariate_matrix,
)
from tempoframe.errors import (
    ArmTooSmall,
    InvalidAlternative,
    InvalidSpec,
    MissingInTarget,
    NonBinaryTreatment,
    RequirementUnmet,
)
from tempoframe.kernels import linear_predictor, ridge_normal_solve
from tempoframe.plugins import Category, EstimatorSpec, Param, register_plugin
from tempoframe.rng import Lcg


class SynthGroundTruth(Record):
    """Synthetic dataset plus the per-sample true effect, aligned with
    dataset.sample_ids."""

    dataset: Dataset
    effects: tuple


# ---------------------------------------------------------------------------
# Role resolution
# ---------------------------------------------------------------------------

def _binary_treatment(ds: Dataset) -> tuple:
    """Returns (feature_id, per-sample arm in {0, 1})."""
    fid, kind, modality = ds.sole_feature(Role.TREATMENT)
    if modality is not Modality.STATIC:
        raise RequirementUnmet("non_static_treatment",
                               f"treatment {fid!r} is {modality.value}")
    codes = binary_codes(kind)
    if isinstance(kind, Categorical) and not codes:
        raise NonBinaryTreatment(
            f"treatment {fid!r} has {len(kind.categories)} categories")
    if not codes:
        raise NonBinaryTreatment(f"treatment {fid!r} is continuous")
    arms = []
    for sid, v in zip(ds.sample_ids, ds.static.column(fid)):
        if v is MISSING:
            raise RequirementUnmet(
                "missing_treatment_value",
                f"sample {sid!r} has no treatment assignment")
        if v not in codes:
            raise NonBinaryTreatment(f"treatment {fid!r} has value {v!r} "
                                     "outside {0, 1}")
        arms.append(codes[v])
    return fid, arms


def _continuous_target(ds: Dataset) -> tuple:
    """Returns (feature_id, per-sample outcome floats)."""
    fid, kind, modality = ds.sole_feature(Role.TARGET)
    if modality is not Modality.STATIC or not isinstance(kind, Continuous):
        raise RequirementUnmet(
            "non_continuous_target",
            f"outcome {fid!r} must be a continuous static feature")
    ys = []
    for sid, v in zip(ds.sample_ids, ds.static.column(fid)):
        if v is MISSING:
            raise MissingInTarget(f"outcome {fid!r} missing for sample "
                                  f"{sid!r}")
        ys.append(float(v))
    return fid, ys


# ---------------------------------------------------------------------------
# treatment.t_learner
# ---------------------------------------------------------------------------

def _fit_arm(columns: list, ys: list, ridge: float) -> list:
    # Intercept as a constant-1 leading column, excluded from the penalty
    # so outcome shifts move the intercept only.
    return ridge_normal_solve([[1.0] * len(ys), *columns], ys, ridge,
                              [0.0] + [1.0] * len(columns))


def _tl_fit(params, ds: Dataset) -> dict:
    fid, arms = _binary_treatment(ds)
    _, ys = _continuous_target(ds)
    names, columns = covariate_matrix(ds)
    need = len(names) + 1
    weights = {}
    for arm in (0, 1):
        idx = [i for i, a in enumerate(arms) if a == arm]
        if len(idx) < need:
            raise ArmTooSmall(
                f"arm {arm} has {len(idx)} samples, needs at least {need}")
        weights[str(arm)] = _fit_arm([[col[i] for i in idx]
                                      for col in columns],
                                     [ys[i] for i in idx], params["ridge"])
    return {"treatment": fid, "columns": names, "arms": weights}


def _tl_predict_cf(params, state, ds: Dataset,
                   alternatives) -> StaticSamples:
    """One Continuous column `<treatment>=<arm>` per requested arm, in
    ascending arm order: each sample's predicted outcome under that arm."""
    alts = []
    for a in alternatives:
        if isinstance(a, bool) or a not in (0, 1):
            raise InvalidAlternative(f"alternative {a!r} is not an arm "
                                     "in {0, 1}")
        alts.append(a)
    alts.sort()
    names, columns = covariate_matrix(ds)
    check_column_names(state["columns"], names)
    n = len(ds.sample_ids)
    arms = [state["arms"][str(a)] for a in alts]
    outcomes = [linear_predictor(columns, w[1:], [w[0]] * n) for w in arms]
    return StaticSamples(
        ds.sample_ids,
        tuple((f"{state['treatment']}={a}", Continuous()) for a in alts),
        tuple(map(tuple, outcomes)))


register_plugin(EstimatorSpec(
    name="treatment.t_learner", category=Category.TREATMENT,
    schema=(Param("ridge", "real", 1e-6, lo=0.0),),
    fit=_tl_fit, predict_counterfactuals=_tl_predict_cf))


# ---------------------------------------------------------------------------
# Synthetic ground truth
# ---------------------------------------------------------------------------

def _to_float(x) -> float:
    """x as a float; an int beyond float range becomes a signed inf, which
    the finiteness checks then refuse."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


_MAX_CELLS = 10 ** 6  # most n x (dim + 2) cells of one synthetic table


def synth_treatment_data(n: int, seed: int, *, tau0=None, gamma=None,
                         noise: float = 0.0, dim: int = 2) -> SynthGroundTruth:
    """Generate Y = x.w + tau(x) * a + eps with the true effect recorded.

    Exactly one of `tau0` (constant effect) or `gamma` (linear effect
    tau(x) = gamma . x) must be given; `noise`, `tau0` and `gamma` must be
    finite, and a table of more than `_MAX_CELLS` or a seed `Lcg` refuses
    is refused before any draw. Deterministic per seed: the draw order is
    w, then per sample x, coin a, and (only if noise > 0) one normal.
    """
    if n < 4:
        raise InvalidSpec(f"need n >= 4 samples, got {n}")
    noise = _to_float(noise)
    if not 0 <= noise < math.inf:
        raise InvalidSpec(f"noise must be finite and >= 0, got {noise}")
    if dim < 1:
        raise InvalidSpec(f"dim must be >= 1, got {dim}")
    if n * (dim + 2) > _MAX_CELLS:
        raise InvalidSpec(f"n={n} samples of dim={dim} give {n * (dim + 2)} "
                          f"cells, more than {_MAX_CELLS}")
    if (tau0 is None) == (gamma is None):
        raise InvalidSpec("give exactly one of tau0 or gamma")
    if gamma is not None:
        gamma = [_to_float(g) for g in gamma]
        if len(gamma) != dim:
            raise InvalidSpec(f"gamma has {len(gamma)} entries for dim={dim}")
    else:
        tau0 = _to_float(tau0)
    if not all(map(math.isfinite, gamma or [tau0])):
        raise InvalidSpec(f"tau0 and gamma must be finite: {gamma or tau0}")
    rng = Lcg(seed)
    w = [rng.uniform_in(-1.0, 1.0) for _ in range(dim)]
    x_names = [f"x{k + 1}" for k in range(dim)]
    ids = tuple(f"s{i:04d}" for i in range(n))
    columns = [[] for _ in range(dim + 2)]  # x1, ..., a, y
    effects = []
    continuous = Continuous()
    for sid in ids:
        x = [rng.uniform_in(-1.0, 1.0) for _ in range(dim)]
        a = rng.coin()
        eps = noise * rng.normal() if noise > 0 else 0.0
        if tau0 is not None:
            tau = tau0
        else:
            tau = 0.0
            for g, xv in zip(gamma, x):
                tau += g * xv
        f = 0.0
        for wk, xv in zip(w, x):
            f += wk * xv
        # Only y can be non-finite: each x is in [-1, 1) and a is 0 or 1.
        y = check_value(continuous, f + tau * a + eps, f"({sid}, y)")
        for column, v in zip(columns, (*x, a, y)):
            column.append(v)
        effects.append(tau)
    static = StaticSamples(ids, (
        *((name, continuous) for name in x_names),
        ("a", Integer()), ("y", continuous)),
        tuple(map(tuple, columns)))
    roles = RoleMap.of(covariates=x_names, targets=("y",), treatments=("a",))
    ds = assemble_dataset(static=static, roles=roles)
    return SynthGroundTruth(ds, tuple(effects))
