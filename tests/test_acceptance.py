"""Release gate: the ten core guarantees, one test per criterion.

Each test is self-contained and uses an independent oracle where one is
called for (exact rational arithmetic for the product-limit curve,
pairwise brute force for concordance, closed-form generators for AR and
treatment effects). Run with -v to get one pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from fractions import Fraction

import pytest

from datagen import (
    classification_dataset,
    event_entries,
    random_dataset,
    regular_series_dataset,
    static_rows,
    survival_dataset,
    temporal_points,
)
from tempoframe.bench import load_config, report_text, run_benchmark, strip_timing
from tempoframe.data import (
    Continuous,
    Integer,
    MISSING,
    RoleMap,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
)
from tempoframe.bundle import MANIFEST_NAME, read_bundle, write_bundle
from tempoframe.errors import NoComparablePairs
from tempoframe.interpret import permutation_importance
from tempoframe.metrics import TASKS, concordance_index, resolve_metric
from tempoframe.plugins import FittedEstimator, build_pipeline, create
from tempoframe.rng import Lcg
from tempoframe.survival import EventOutcome, event_outcomes, kaplan_meier
from tempoframe.treatment import synth_treatment_data

import os


# ---------------------------------------------------------------------------
# 1. data-model round trips
# ---------------------------------------------------------------------------

def test_c01_data_model_round_trips_200_datasets(tmp_path):
    started = time.monotonic()
    for seed in range(200):
        ds = random_dataset(seed)

        # builders <-> long rows
        if ds.static is not None:
            again = build_static_samples(static_rows(ds.static),
                                         dict(ds.static.features),
                                         sample_ids=ds.static.sample_ids)
            assert again == ds.static
        again = build_time_series_samples(temporal_points(ds.temporal),
                                          dict(ds.temporal.features),
                                          sample_ids=ds.temporal.sample_ids)
        assert again == ds.temporal
        if ds.events is not None:
            again = build_event_samples(event_entries(ds.events),
                                        dict(ds.events.features),
                                        sample_ids=ds.events.sample_ids)
            assert again == ds.events

        # bundle files
        path = tmp_path / f"b{seed}"
        write_bundle(ds, path)
        loaded = read_bundle(path / MANIFEST_NAME)
        assert loaded.static == ds.static
        assert loaded.temporal == ds.temporal
        assert loaded.events == ds.events
        assert dict(loaded.roles.assignment) == dict(ds.roles.assignment)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 2. Kaplan-Meier against an exact rational oracle
# ---------------------------------------------------------------------------

def _km_oracle(spec):
    """Risk-set recursion in Fraction arithmetic; spec is [(t, occurred)]."""
    steps = []
    s = Fraction(1)
    for t in sorted({t for t, e in spec if e}):
        n = sum(1 for tj, _ in spec if tj >= t)
        d = sum(1 for tj, e in spec if e and tj == t)
        s *= 1 - Fraction(d, n)
        steps.append((t, s))
    return steps


def _as_outcomes(spec):
    return [EventOutcome(f"s{i}", float(t), bool(e))
            for i, (t, e) in enumerate(spec)]


def test_c02_kaplan_meier_matches_oracle_on_all_small_labelings():
    times = (1.0, 2.2, 3.5, 4.1, 5.9)
    for n in range(1, 6):
        for labeling in itertools.product((0, 1), repeat=n):
            spec = list(zip(times[:n], labeling))
            curve = kaplan_meier(_as_outcomes(spec))
            oracle = _km_oracle(spec)
            assert len(curve.breakpoints) == len(oracle)
            assert curve.value_at(times[0] - 1.0) == 1.0
            for (t, s), bt in zip(oracle, curve.breakpoints):
                assert bt == t
                assert abs(curve.value_at(t) - float(s)) <= 1e-12
                # right continuity: just before a drop the old value holds
                prev = 1.0 if t == oracle[0][0] else \
                    float(oracle[[x[0] for x in oracle].index(t) - 1][1])
                assert abs(curve.value_at(t - 1e-9) - prev) <= 1e-12

    # worked values
    curve = kaplan_meier(_as_outcomes([(1, 1), (2, 1), (3, 1)]))
    assert abs(curve.value_at(1.0) - 2 / 3) <= 1e-12
    assert abs(curve.value_at(2.0) - 1 / 3) <= 1e-12
    assert curve.value_at(3.0) == 0.0
    censored = kaplan_meier(_as_outcomes([(0.5, 0), (1, 1), (2, 0)]))
    assert censored.value_at(1.0) == 0.5


# ---------------------------------------------------------------------------
# 3. concordance against pairwise brute force
# ---------------------------------------------------------------------------

def _c_oracle(risks, outcomes):
    conc = tied = comp = 0
    for i, a in enumerate(outcomes):
        if not a.occurred:
            continue
        for j, b in enumerate(outcomes):
            if i == j or not a.time < b.time:
                continue
            comp += 1
            if risks[i] > risks[j]:
                conc += 1
            elif risks[i] == risks[j]:
                tied += 1
    if comp == 0:
        return None
    return (conc + 0.5 * tied) / comp


def test_c03_concordance_matches_brute_force_on_100_random_sets():
    rng = Lcg(303)
    checked = 0
    for _ in range(100):
        n = 2 + rng.below(19)
        risks = [round(rng.uniform_in(-2.0, 2.0), 1) if rng.coin()
                 else rng.uniform_in(-2.0, 2.0) for _ in range(n)]
        outcomes = [EventOutcome(f"s{i}",
                                 float(1 + rng.below(8)) if rng.coin()
                                 else rng.uniform_in(0.0, 10.0),
                                 rng.uniform() < 0.7)
                    for i in range(n)]
        expected = _c_oracle(risks, outcomes)
        if expected is None:
            with pytest.raises(NoComparablePairs):
                concordance_index(risks, outcomes)
        else:
            assert concordance_index(risks, outcomes) == expected
            checked += 1
    assert checked >= 80

    # workload scale: integer (heavily tied) times and rounded risks
    for _ in range(4):
        n = 290 + rng.below(21)
        risks = [round(rng.uniform_in(-2.0, 2.0), 1) for _ in range(n)]
        outcomes = [EventOutcome(f"s{i}", float(1 + rng.below(20)),
                                 rng.uniform() < 0.7) for i in range(n)]
        assert concordance_index(risks, outcomes) == _c_oracle(risks,
                                                               outcomes)

    outcomes = _as_outcomes([(1, 1), (2, 1), (3, 1)])
    assert concordance_index([3.0, 2.0, 1.0], outcomes) == 1.0
    assert concordance_index([5.0, 5.0, 5.0], outcomes) == 0.5
    risks = [0.3, -1.2, 2.0]
    base = concordance_index(risks, outcomes)
    assert concordance_index([math.exp(r) for r in risks], outcomes) == base
    assert concordance_index([3.0 * r + 7.0 for r in risks], outcomes) == base


# ---------------------------------------------------------------------------
# 4. AR recovery and the persistence reduction
# ---------------------------------------------------------------------------

def _stable_coefs(rng: Lcg, p: int) -> list:
    """Expand a product of real roots inside the unit circle, so the
    companion polynomial is stationary by construction."""
    roots = [(1 if rng.coin() else -1) * rng.uniform_in(0.4, 0.85)
             for _ in range(p)]
    poly = [1.0]
    for r in roots:
        nxt = [0.0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c
            nxt[i + 1] -= c * r
        poly = nxt
    return [-c for c in poly[1:]]


def _ar_fixture(rng: Lcg, phis, c, n_samples=3, length=50):
    points, sids = [], []
    for i in range(n_samples):
        sid = f"s{i}"
        sids.append(sid)
        vals = [rng.uniform_in(-2.0, 2.0) for _ in range(len(phis))]
        while len(vals) < length:
            nxt = c
            for k, ph in enumerate(phis):
                nxt += ph * vals[-1 - k]
            vals.append(nxt)
        for k, v in enumerate(vals):
            points.append((sid, "y", float(k), v))
        points.append((sid, "pad", 0.0, 0.0))
    temporal = build_time_series_samples(
        points, {"y": Continuous(), "pad": Continuous()}, sample_ids=sids)
    return assemble_dataset(
        temporal=temporal,
        roles=RoleMap.of(covariates=("pad",), targets=("y",)))


def test_c04_ar_recovery_and_persistence_reduction():
    for p in (1, 2, 3):
        for s in range(4):
            rng = Lcg(1000 * p + s)
            phis = _stable_coefs(rng, p)
            c = rng.uniform_in(-0.5, 0.5)
            ds = _ar_fixture(rng, phis, c)
            fitted = create("forecast.ar",
                            {"order": p, "horizon": 1, "step": 1.0}).fit(ds)
            model = fitted.state["models"]["y"]
            err = max([abs(model["c"] - c)]
                      + [abs(a - b) for a, b in zip(model["phi"], phis)])
            assert err <= 1e-6

    # phi=1, c=0 collapses to the persistence forecast bitwise
    ds = regular_series_dataset(3, n=4, length=10)
    persistence = create("forecast.persistence",
                         {"horizon": 3, "step": 1.0}).fit(ds)
    ar = create("forecast.ar", {"order": 1, "horizon": 3, "step": 1.0}).fit(ds)
    snapped = FittedEstimator(ar.spec, ar.params,
                              {"models": {"hr": {"c": 0.0, "phi": [1.0]}}},
                              ar.features)
    assert snapped.predict(ds) == persistence.predict(ds)


# ---------------------------------------------------------------------------
# 5. Cox sanity
# ---------------------------------------------------------------------------

def test_c05_cox_positive_effect_and_zero_on_constant_covariate():
    ds = survival_dataset(11, n=40)
    fitted = create("survival.cox", {"iters": 200}).fit(ds)
    assert fitted.state["beta"][fitted.state["columns"].index("x")] > 0
    trace = fitted.state["trace"]
    assert len(trace) == 201
    for a, b in zip(trace, trace[1:]):
        assert b >= a

    sids = [f"s{i}" for i in range(6)]
    ds = assemble_dataset(
        static=build_static_samples([(s, "x", 1.0) for s in sids],
                                    {"x": Continuous()}, sample_ids=sids),
        events=build_event_samples(
            [(s, "death", float(i + 1), 1 if i % 2 == 0 else MISSING)
             for i, s in enumerate(sids)],
            {"death": Integer()}, sample_ids=sids),
        roles=RoleMap.of(covariates=("x",), targets=("death",)))
    fitted = create("survival.cox", {"iters": 100}).fit(ds)
    assert fitted.state["beta"] == [0.0]


# ---------------------------------------------------------------------------
# 6. treatment-effect recovery and counterfactual consistency
# ---------------------------------------------------------------------------

def _pehe(fitted, truth):
    """The `pehe` metric of a fit on its own synthetic dataset."""
    effects = dict(zip(truth.dataset.sample_ids, truth.effects))
    return resolve_metric("pehe").score(
        *TASKS["treatment"].held_out(fitted, truth.dataset, effects))


def test_c06_treatment_effect_recovery_and_consistency():
    truth = synth_treatment_data(40, seed=1, tau0=3.0)
    fitted = create("treatment.t_learner", {}).fit(truth.dataset)
    assert _pehe(fitted, truth) <= 1e-6

    noisy = synth_treatment_data(400, seed=1, tau0=3.0, noise=0.1)
    fitted_noisy = create("treatment.t_learner", {}).fit(noisy.dataset)
    assert _pehe(fitted_noisy, noisy) <= 0.1

    # asking for one alternative returns the same numbers as asking for both
    cf = fitted.predict_counterfactuals(truth.dataset, (0, 1))
    for arm in (0, 1):
        single = fitted.predict_counterfactuals(truth.dataset, (arm,))
        assert single.feature_ids == (f"a={arm}",)
        assert single.column(f"a={arm}") == cf.column(f"a={arm}")


# ---------------------------------------------------------------------------
# 7. imputation completeness and idempotence
# ---------------------------------------------------------------------------

def test_c07_imputation_completes_and_is_idempotent_100_datasets():
    pipeline = build_pipeline([("impute.locf", {}), ("impute.mean", {})])
    for seed in range(300, 400):
        ds = random_dataset(seed, ensure_observed=True)
        fitted = pipeline.fit(ds)
        once = fitted.transform(ds)
        if once.static is not None:
            assert not any(v is MISSING for row in once.static.values
                           for v in row)
        assert not any(v is MISSING for sample in once.temporal.series
                       for seq in sample for v in seq[1])
        twice = fitted.transform(once)
        assert twice == once


# ---------------------------------------------------------------------------
# 8. pipeline composition law
# ---------------------------------------------------------------------------

_TASK_FIXTURES = {
    "forecast": (lambda: regular_series_dataset(21, n=6, length=14),
                 ("impute.mean", "impute.locf", "scale.zscore",
                  "resample.regular"),
                 (("forecast.persistence", {"horizon": 2, "step": 1.0}),
                  ("forecast.ar", {"order": 1, "horizon": 2, "step": 1.0}))),
    "classify": (lambda: classification_dataset(33, n=30),
                 ("impute.mean", "scale.zscore", "encode.onehot"),
                 (("classify.logistic", {"lr": 0.5, "iters": 150}),)),
    "survival": (lambda: survival_dataset(44, n=30),
                 ("impute.mean", "scale.zscore", "encode.onehot"),
                 (("survival.cox", {"iters": 80}),)),
    "treatment": (lambda: synth_treatment_data(40, seed=6, tau0=2.0).dataset,
                  ("impute.mean", "scale.zscore", "encode.onehot"),
                  (("treatment.t_learner", {}),)),
}


def test_c08_twenty_random_pipelines_equal_manual_composition():
    rng = Lcg(808)
    tasks = ("forecast", "classify", "survival", "treatment")
    for i in range(20):
        task = tasks[i % 4]
        make_ds, pool, finals = _TASK_FIXTURES[task]
        ds = make_ds()
        steps = []
        for _ in range(rng.below(3)):
            name = pool[rng.below(len(pool))]
            steps.append((name, {"step": 1.0} if name == "resample.regular"
                          else {}))
        final_name, final_params = finals[rng.below(len(finals))]
        steps.append((final_name, dict(final_params)))

        fitted = build_pipeline(steps).fit(ds)

        cur = ds
        for name, params in steps[:-1]:
            cur = create(name, params).fit(cur).transform(cur)
        manual = create(final_name, final_params).fit(cur)

        if task == "treatment":
            assert fitted.predict_counterfactuals(ds, (0, 1)) == \
                manual.predict_counterfactuals(cur, (0, 1))
        else:
            assert fitted.predict(ds) == manual.predict(cur)


# ---------------------------------------------------------------------------
# 9. permutation importance separation
# ---------------------------------------------------------------------------

def test_c09_importance_separates_informative_from_noise():
    ds = classification_dataset(77, n=40)
    fitted = create("classify.logistic", {"lr": 0.5, "iters": 150}).fit(ds)
    report = permutation_importance(fitted, ds, metric="accuracy",
                                    repeats=10, seed=5)
    informative = report.importances[report.features.index("x1")]
    noise = report.importances[report.features.index("x2")]
    assert informative > noise

    # spread of a single-shuffle run, scaled to the 10-repeat mean
    singles = []
    for s in range(200, 212):
        single = permutation_importance(fitted, ds, metric="accuracy",
                                        repeats=1, seed=s)
        singles.append(single.importances[single.features.index("x2")])
    band = 3 * statistics.pstdev(singles) / math.sqrt(10)
    if band == 0.0:
        assert noise == 0.0
    else:
        assert abs(noise) <= band


# ---------------------------------------------------------------------------
# 10. end-to-end determinism and the golden report
# ---------------------------------------------------------------------------

def test_c10_run_is_deterministic_and_matches_golden_report():
    config = load_config(os.path.join(os.path.dirname(__file__), "golden",
                                      "config.json"))
    first = report_text(run_benchmark(config))
    second = report_text(run_benchmark(config))
    assert strip_timing(first) == strip_timing(second)

    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "expected_report.txt"),
              encoding="utf-8", newline="") as f:
        expected = f.read()
    assert strip_timing(first) == expected
