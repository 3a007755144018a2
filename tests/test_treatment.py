"""T-learner effect estimation, PEHE, and the synthetic generator."""

from __future__ import annotations

import math

import pytest

from datagen import static_rows
from tempoframe import treatment
from tempoframe.data import (
    Categorical,
    Continuous,
    Integer,
    MISSING,
    RoleMap,
    StaticSamples,
    assemble_dataset,
    binary_codes,
    build_static_samples,
    build_time_series_samples,
)
from tempoframe.errors import (
    AlignmentError,
    ArmTooSmall,
    InvalidAlternative,
    InvalidSpec,
    KindMismatch,
    MissingInTarget,
    MultipleTargets,
    NonBinaryTreatment,
    RequirementUnmet,
)
from tempoframe.metrics import TASKS, resolve_metric
from tempoframe.plugins import create
from tempoframe.treatment import synth_treatment_data


def _fit(ds, **params):
    return create("treatment.t_learner", params).fit(ds)


def _pehe(fitted, truth):
    """The `pehe` metric of a fit on a synthetic dataset, scored as the
    benchmark scores a treatment fold."""
    effects = dict(zip(truth.dataset.sample_ids, truth.effects))
    return resolve_metric("pehe").score(
        *TASKS["treatment"].held_out(fitted, truth.dataset, effects))


def _effects(cf):
    """Per-sample arm-1 minus arm-0 outcome of a prediction for treatment
    `a`."""
    return tuple(y1 - y0 for y0, y1 in zip(cf.column("a=0"),
                                           cf.column("a=1")))


def _hand_ds(rows, kinds, roles, sample_ids):
    return assemble_dataset(
        static=build_static_samples(rows, kinds, sample_ids=sample_ids),
        roles=roles)


def _balanced_ds(n=12, tau=2.0, seed=0):
    """Deterministic linear outcome, both arms populated."""
    rows = []
    sample_ids = []
    for i in range(n):
        sid = f"p{i:02d}"
        sample_ids.append(sid)
        x = (i - n / 2) / 3.0
        a = i % 2
        rows.extend([(sid, "x", x), (sid, "a", a),
                     (sid, "y", 1.5 * x + tau * a + 0.25)])
    return _hand_ds(
        rows, {"x": Continuous(), "a": Integer(), "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        sample_ids)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def test_noiseless_constant_effect_recovery():
    truth = synth_treatment_data(40, seed=1, tau0=3.0)
    assert _pehe(_fit(truth.dataset), truth) <= 1e-6


def test_noiseless_linear_effect_recovery():
    truth = synth_treatment_data(60, seed=5, gamma=(2.0, -1.0))
    assert _pehe(_fit(truth.dataset), truth) <= 1e-6


def test_noisy_recovery_stays_close():
    truth = synth_treatment_data(400, seed=1, tau0=3.0, noise=0.1)
    assert _pehe(_fit(truth.dataset), truth) <= 0.1


def test_outcome_shift_equivariance():
    base = _balanced_ds()
    shifted_rows = []
    for sid, fid, v in static_rows(base.static):
        shifted_rows.append((sid, fid, v + 100.0 if fid == "y" else v))
    shifted = _hand_ds(
        shifted_rows, dict(base.static.features), base.roles,
        list(base.sample_ids))

    cf_a = _fit(base).predict_counterfactuals(base, (0, 1))
    cf_b = _fit(shifted).predict_counterfactuals(shifted, (0, 1))
    for ea, eb in zip(_effects(cf_a), _effects(cf_b)):
        assert math.isclose(ea, eb, rel_tol=0.0, abs_tol=1e-9)
    for oa, ob in zip(cf_a.column("a=0"), cf_b.column("a=0")):
        assert math.isclose(ob - oa, 100.0, abs_tol=1e-8)


# ---------------------------------------------------------------------------
# Counterfactual output contract
# ---------------------------------------------------------------------------

def test_counterfactual_output_is_sorted_and_consistent():
    ds = _balanced_ds()
    fitted = _fit(ds)
    cf = fitted.predict_counterfactuals(ds, (1, 0))
    assert isinstance(cf, StaticSamples)
    assert cf.features == (("a=0", Continuous()), ("a=1", Continuous()))
    assert cf.sample_ids == ds.sample_ids
    # the scored effects are exactly the arm-1 minus arm-0 predictions
    pred, _ = TASKS["treatment"].held_out(fitted, ds,
                                          dict.fromkeys(ds.sample_ids, 0.0))
    assert pred.feature_ids == ("effect",)
    assert pred.column("effect") == _effects(cf)

    single = fitted.predict_counterfactuals(ds, (1,))
    assert single.feature_ids == ("a=1",)
    assert single.column("a=1") == cf.column("a=1")


def test_invalid_alternatives_rejected():
    ds = _balanced_ds()
    fitted = _fit(ds)
    with pytest.raises(InvalidAlternative):
        fitted.predict_counterfactuals(ds, (0, 2))
    with pytest.raises(InvalidAlternative):
        fitted.predict_counterfactuals(ds, (True,))
    with pytest.raises(InvalidAlternative):
        fitted.predict_counterfactuals(ds, ())
    with pytest.raises(InvalidAlternative):
        fitted.predict_counterfactuals(ds, (0, 0))


def test_categorical_treatment_arms():
    rows = []
    sample_ids = []
    for i in range(10):
        sid = f"c{i}"
        sample_ids.append(sid)
        arm = "drug" if i % 2 else "placebo"
        rows.extend([(sid, "x", float(i)), (sid, "a", arm),
                     (sid, "y", float(i) + (4.0 if i % 2 else 0.0))])
    ds = _hand_ds(
        rows,
        {"x": Continuous(), "a": Categorical(("placebo", "drug")),
         "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        sample_ids)
    cf = _fit(ds).predict_counterfactuals(ds, (0, 1))
    # second category is arm 1
    for tau in _effects(cf):
        assert math.isclose(tau, 4.0, abs_tol=1e-6)


def test_two_category_feature_codes_alike_as_label_and_arm():
    # One feature `g` is the classify.logistic label and the t_learner
    # arm; each must fit as its Integer twin coded by `binary_codes`, and
    # not as the twin with the codes swapped.
    kind = Categorical(("ctl", "trt"))
    codes = binary_codes(kind)
    rows = []
    for i in range(12):
        sid = f"g{i:02d}"
        x = (i - 6) / 3.0
        g = kind.categories[(i * 7) % 3 % 2]
        rows.append((sid, x, g, 1.5 * x + 3.0 * codes[g]))

    def ds(g_kind, code, roles):
        return _hand_ds(
            [cell for sid, x, g, y in rows
             for cell in ((sid, "x", x), (sid, "g", code(g)), (sid, "y", y))],
            {"x": Continuous(), "g": g_kind, "y": Continuous()},
            roles, [r[0] for r in rows])

    for name, roles, part in (
            ("classify.logistic",
             RoleMap.of(covariates=("x", "y"), targets=("g",)), "weights"),
            ("treatment.t_learner",
             RoleMap.of(covariates=("x",), targets=("y",),
                        treatments=("g",)), "arms")):
        def state(g_kind, code):
            fitted = create(name, {}).fit(ds(g_kind, code, roles))
            return fitted.state[part]

        categorical = state(kind, lambda g: g)
        assert categorical == state(Integer(), codes.get)
        assert categorical != state(Integer(), lambda g: 1 - codes[g])


# ---------------------------------------------------------------------------
# Requirement errors
# ---------------------------------------------------------------------------

def test_arm_too_small():
    rows = []
    sample_ids = []
    for i in range(8):
        sid = f"q{i}"
        sample_ids.append(sid)
        rows.extend([(sid, "x", float(i)), (sid, "a", 1 if i else 0),
                     (sid, "y", float(i))])
    ds = _hand_ds(
        rows, {"x": Continuous(), "a": Integer(), "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        sample_ids)
    with pytest.raises(ArmTooSmall):
        _fit(ds)


def test_non_binary_treatment():
    ds = _hand_ds(
        [("a", "x", 1.0), ("a", "a", 2), ("a", "y", 0.0)],
        {"x": Continuous(), "a": Integer(), "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        ["a"])
    with pytest.raises(NonBinaryTreatment):
        _fit(ds)

    ds = _hand_ds(
        [("a", "x", 1.0), ("a", "a", "lo"), ("a", "y", 0.0)],
        {"x": Continuous(), "a": Categorical(("hi", "lo", "mid")),
         "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        ["a"])
    with pytest.raises(NonBinaryTreatment):
        _fit(ds)

    ds = _hand_ds(
        [("a", "x", 1.0), ("a", "a", 0.5), ("a", "y", 0.0)],
        {"x": Continuous(), "a": Continuous(), "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        ["a"])
    with pytest.raises(NonBinaryTreatment):
        _fit(ds)


def test_treatment_role_requirements():
    ds = _hand_ds(
        [("a", "x", 1.0), ("a", "y", 0.0)],
        {"x": Continuous(), "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",)), ["a"])
    with pytest.raises(RequirementUnmet) as exc:
        _fit(ds)
    assert exc.value.reason == "missing_treatment"

    temporal = build_time_series_samples(
        [("a", "a", 0.0, 1)], {"a": Integer()}, sample_ids=["a"])
    ds = assemble_dataset(
        static=build_static_samples(
            [("a", "x", 1.0), ("a", "y", 0.0)],
            {"x": Continuous(), "y": Continuous()}, sample_ids=["a"]),
        temporal=temporal,
        roles=RoleMap.of(covariates=("x",), targets=("y",),
                         treatments=("a",)))
    with pytest.raises(RequirementUnmet) as exc:
        _fit(ds)
    assert exc.value.reason == "non_static_treatment"

    ds = _hand_ds(
        [("a", "x", 1.0), ("a", "a", 0), ("a", "y", 0.0),
         ("b", "x", 2.0), ("b", "a", MISSING), ("b", "y", 1.0)],
        {"x": Continuous(), "a": Integer(), "y": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        ["a", "b"])
    with pytest.raises(RequirementUnmet) as exc:
        _fit(ds)
    assert exc.value.reason == "missing_treatment_value"


def test_target_requirements():
    ds = _hand_ds(
        [("a", "x", 1.0), ("a", "a", 0), ("a", "y", 0.0),
         ("a", "z", 1.0)],
        {"x": Continuous(), "a": Integer(), "y": Continuous(),
         "z": Continuous()},
        RoleMap.of(covariates=("x",), targets=("y", "z"),
                   treatments=("a",)), ["a"])
    with pytest.raises(MultipleTargets):
        _fit(ds)

    ds = _hand_ds(
        [("a", "x", 1.0), ("a", "a", 0), ("a", "y", 3)],
        {"x": Continuous(), "a": Integer(), "y": Integer()},
        RoleMap.of(covariates=("x",), targets=("y",), treatments=("a",)),
        ["a"])
    with pytest.raises(RequirementUnmet) as exc:
        _fit(ds)
    assert exc.value.reason == "non_continuous_target"


def test_missing_outcome_is_refused():
    ds = _balanced_ds()
    rows = [r for r in static_rows(ds.static) if r[:2] != ("p03", "y")]
    ds = _hand_ds(rows, dict(ds.static.features), ds.roles, ds.sample_ids)
    with pytest.raises(MissingInTarget,
                       match="^outcome 'y' missing for sample 'p03'$"):
        _fit(ds)


# ---------------------------------------------------------------------------
# pehe
# ---------------------------------------------------------------------------

def _effect_column(sample_ids, values):
    return StaticSamples(tuple(sample_ids), (("effect", Continuous()),),
                         (tuple(values),))


def test_pehe_hand_values():
    # PEHE is `rmse` over two aligned `effect` columns.
    score = resolve_metric("pehe").score
    est = _effect_column("ab", (0.0, 0.0))
    assert score(est, _effect_column("ab", (3.0, 4.0))) == math.sqrt(12.5)
    assert score(est, _effect_column("ab", (0.0, 0.0))) == 0.0

    with pytest.raises(AlignmentError):
        score(est, _effect_column("a", (1.0,)))
    with pytest.raises(AlignmentError):
        score(est, _effect_column(("a", "zz"), (3.0, 4.0)))


def test_pehe_permutation_invariant():
    score = resolve_metric("pehe").score
    direct = score(_effect_column("abc", (1.0, -2.0, 0.5)),
                   _effect_column("abc", (0.5, -1.0, 2.0)))
    assert score(_effect_column("cab", (0.5, 1.0, -2.0)),
                 _effect_column("cab", (2.0, 0.5, -1.0))) == direct


# ---------------------------------------------------------------------------
# synth_treatment_data
# ---------------------------------------------------------------------------

def test_synth_is_deterministic_per_seed():
    a = synth_treatment_data(20, seed=9, tau0=1.0, noise=0.2)
    b = synth_treatment_data(20, seed=9, tau0=1.0, noise=0.2)
    assert a.dataset == b.dataset
    assert a.effects == b.effects
    c = synth_treatment_data(20, seed=10, tau0=1.0, noise=0.2)
    assert c.dataset != a.dataset


def test_synth_layout():
    truth = synth_treatment_data(6, seed=0, gamma=(1.0, 0.0, -2.0), dim=3)
    ds = truth.dataset
    assert ds.sample_ids == tuple(f"s{i:04d}" for i in range(6))
    assert ds.static.feature_ids == ("x1", "x2", "x3", "a", "y")
    assert isinstance(dict(ds.static.features)["a"], Integer)
    assert all(v in (0, 1) for v in ds.static.column("a"))
    # recorded effect is gamma . x
    for sid, tau in zip(ds.sample_ids, truth.effects):
        x = [ds.static.cell(sid, f"x{k}") for k in (1, 2, 3)]
        assert math.isclose(tau, x[0] - 2.0 * x[2], abs_tol=1e-12)


def test_synth_noiseless_outcome_identity():
    truth = synth_treatment_data(10, seed=3, tau0=2.5)
    ds = truth.dataset
    # with noise=0 the outcome is exactly f(x) + tau * a, so flipping the
    # recorded arm contribution recovers f(x) consistently
    for sid, tau in zip(ds.sample_ids, truth.effects):
        assert tau == 2.5
        y = ds.static.cell(sid, "y")
        a = ds.static.cell(sid, "a")
        assert math.isfinite(y - tau * a)


def test_synth_invalid_specs():
    with pytest.raises(InvalidSpec):
        synth_treatment_data(3, seed=0, tau0=1.0)
    with pytest.raises(InvalidSpec):
        synth_treatment_data(10, seed=0, tau0=1.0, noise=-0.5)
    with pytest.raises(InvalidSpec):
        synth_treatment_data(10, seed=0)
    with pytest.raises(InvalidSpec):
        synth_treatment_data(10, seed=0, tau0=1.0, gamma=(1.0, 1.0))
    with pytest.raises(InvalidSpec):
        synth_treatment_data(10, seed=0, gamma=(1.0,), dim=2)
    with pytest.raises(InvalidSpec):
        synth_treatment_data(10, seed=0, tau0=1.0, dim=0)


def test_synth_bounds_its_cells(monkeypatch):
    # 10 samples of dim 2 fill 10 x (2 + 2) = 40 cells
    monkeypatch.setattr(treatment, "_MAX_CELLS", 40)
    assert len(synth_treatment_data(10, seed=0, tau0=1.0).effects) == 10
    monkeypatch.setattr(treatment, "_MAX_CELLS", 39)
    with pytest.raises(InvalidSpec, match=r"^n=10 samples of dim=2 give 40 "
                                          r"cells, more than 39$"):
        synth_treatment_data(10, seed=0, tau0=1.0)


@pytest.mark.parametrize("kwargs", [
    {"tau0": 1.0, "noise": math.nan},
    {"tau0": 1.0, "noise": math.inf},
    {"tau0": math.nan},
    {"tau0": math.inf},
    {"tau0": -math.inf, "noise": 0.5},
    {"gamma": (1.0, math.nan)},
    {"gamma": (-math.inf, 0.0)},
    {"gamma": (1e400, 1.0)},
    {"tau0": 10 ** 400},
    {"gamma": [10 ** 400, 1]},
    {"tau0": 1.0, "noise": 10 ** 400},
])
def test_synth_rejects_non_finite_parameters(kwargs):
    # A NaN noise compares false both ways and used to run as noise 0; a
    # non-finite effect used to surface only as a non-finite outcome.
    with pytest.raises(InvalidSpec, match="must be finite"):
        synth_treatment_data(10, seed=0, **kwargs)


@pytest.mark.parametrize("seed,dim,kwargs", [
    (0, 1, {"tau0": 3.0}),
    (1, 2, {"tau0": -1.5, "noise": 0.4}),
    (7, 3, {"gamma": (1.0, 0.0, -2.0)}),
    (12, 5, {"gamma": (0.5, -0.25, 2.0, 0.0, 1.0), "noise": 1.0}),
    (31, 8, {"gamma": (1e-3,) * 8, "noise": 0.01}),
])
def test_synth_grid_equals_the_built_grid(seed, dim, kwargs):
    # The generator builds its StaticSamples directly; the validating
    # builder must give the same container from the same cells.
    static = synth_treatment_data(9, seed, dim=dim, **kwargs).dataset.static
    assert static == build_static_samples(static_rows(static),
                                          dict(static.features))
    assert static.feature_ids[-2:] == ("a", "y")


@pytest.mark.parametrize("seed,message", [
    (78, "(s0000, y): non-finite value inf"),
    (0, "(s0038, y): non-finite value -inf"),
    (6, "(s0032, y): non-finite value nan"),
])
def test_synth_overflowing_outcome_keeps_its_message(seed, message):
    # Messages recorded from the long-form generator that built its grid
    # through build_static_samples.
    with pytest.raises(KindMismatch) as err:
        synth_treatment_data(50, seed, gamma=(1e308, 1e308), dim=2)
    assert str(err.value) == message
