"""Kaplan-Meier, the Cox-style risk model, concordance and Brier."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from datagen import survival_dataset
from tempoframe.data import (
    Continuous,
    Integer,
    MISSING,
    RoleMap,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    covariate_matrix,
)
from tempoframe.errors import (
    AlignmentError,
    EmptyInput,
    MetricMismatch,
    NoComparablePairs,
    NoEvaluableSamples,
    NoEvents,
    RequirementUnmet,
)
from tempoframe.metrics import brier_score, concordance_index
from tempoframe.plugins import create
from tempoframe.rng import Lcg
from tempoframe.survival import (
    EventOutcome,
    SurvivalCurve,
    SurvivalOutput,
    event_outcomes,
    kaplan_meier,
)


def _outcomes(spec):
    """[(time, occurred), ...] -> list of EventOutcome."""
    return [EventOutcome(f"s{i}", float(t), bool(e))
            for i, (t, e) in enumerate(spec)]


def _km_oracle(spec):
    """Independent product-limit recursion in exact rational arithmetic."""
    times = sorted({t for t, e in spec if e})
    s = Fraction(1)
    out = []
    for t in times:
        n = sum(1 for tj, _ in spec if tj >= t)
        d = sum(1 for tj, e in spec if e and tj == t)
        s *= 1 - Fraction(d, n)
        out.append((t, s))
    return out


def _breslow_oracle(outcomes, xb):
    """Breslow cumulative hazard by rescanning every sample per event time."""
    times = sorted({o.time for o in outcomes if o.occurred})
    cumhaz = []
    h = 0.0
    for t in times:
        d = 0
        s0 = 0.0
        for o, v in zip(outcomes, xb):
            if o.time >= t:
                s0 += math.exp(v)
                if o.occurred and o.time == t:
                    d += 1
        h += d / s0
        cumhaz.append(h)
    return times, cumhaz


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

def test_km_worked_values():
    curve = kaplan_meier(_outcomes([(1, 1), (2, 1), (3, 1)]))
    assert curve.breakpoints == (1.0, 2.0, 3.0)
    assert abs(curve.value_at(1.0) - 2 / 3) <= 1e-12
    assert abs(curve.value_at(2.0) - 1 / 3) <= 1e-12
    assert curve.value_at(3.0) == 0.0

    censored = kaplan_meier(_outcomes([(0.5, 0), (1, 1), (2, 0)]))
    assert censored.breakpoints == (1.0,)
    assert censored.value_at(1.0) == 0.5


def test_km_step_function_is_right_continuous():
    curve = kaplan_meier(_outcomes([(1, 1), (2, 1), (3, 0)]))
    assert curve.value_at(0.0) == 1.0
    assert curve.value_at(0.999) == 1.0
    assert curve.value_at(1.0) == curve.values[0]
    assert curve.value_at(1.5) == curve.values[0]
    assert curve.value_at(99.0) == curve.values[-1]


def test_km_censored_at_event_time_stays_at_risk():
    curve = kaplan_meier(_outcomes([(1, 1), (1, 0)]))
    assert curve.value_at(1.0) == 0.5


def test_km_no_events_is_flat_one():
    curve = kaplan_meier(_outcomes([(1, 0), (2, 0)]))
    assert curve.breakpoints == ()
    assert curve.value_at(5.0) == 1.0


def test_km_empty_input():
    with pytest.raises(EmptyInput):
        kaplan_meier([])


def test_km_matches_rational_oracle_on_all_small_labelings():
    for n in (1, 2, 3, 4):
        times = [float(k + 1) for k in range(n)]
        for labels in itertools.product((0, 1), repeat=n):
            spec = list(zip(times, labels))
            curve = kaplan_meier(_outcomes(spec))
            oracle = _km_oracle(spec)
            assert len(curve.breakpoints) == len(oracle)
            for (bt, bv), (ot, ov) in zip(
                    zip(curve.breakpoints, curve.values), oracle):
                assert bt == ot
                assert abs(bv - float(ov)) <= 1e-12


def test_km_tied_event_times():
    curve = kaplan_meier(_outcomes([(1, 1), (1, 1), (2, 1), (3, 0)]))
    # d=2 of n=4 at t=1, then d=1 of n=2 at t=2
    assert curve.values == (0.5, 0.25)


# ---------------------------------------------------------------------------
# event_outcomes
# ---------------------------------------------------------------------------

def _event_ds(entries, *, roles=None, sample_ids=None, extra_event=None):
    kinds = {"death": Integer()}
    if extra_event:
        kinds[extra_event] = Integer()
    static = build_static_samples(
        [(sid, "x", float(i)) for i, sid in enumerate(sample_ids)],
        {"x": Continuous()}, sample_ids=sample_ids)
    events = build_event_samples(entries, kinds, sample_ids=sample_ids)
    return assemble_dataset(
        static=static, events=events,
        roles=roles or RoleMap.of(covariates=("x",), targets=("death",)))


def test_event_outcomes_reads_censoring_convention():
    ds = _event_ds([("a", "death", 2.0, 1), ("b", "death", 5.0, MISSING)],
                   sample_ids=["a", "b"])
    out = event_outcomes(ds)
    assert out == [EventOutcome("a", 2.0, True),
                   EventOutcome("b", 5.0, False)]


def test_event_outcomes_requirements():
    static = build_static_samples([("a", "x", 1.0)], {"x": Continuous()},
                                  sample_ids=["a"])
    no_events = assemble_dataset(static=static,
                                 roles=RoleMap.of(covariates=("x",)))
    with pytest.raises(RequirementUnmet) as exc:
        event_outcomes(no_events)
    assert exc.value.reason == "missing_event_target"

    ds = _event_ds([("a", "death", 2.0, 1)],
                   roles=RoleMap.of(covariates=("x", "death")),
                   sample_ids=["a"])
    with pytest.raises(RequirementUnmet) as exc:
        event_outcomes(ds)
    assert exc.value.reason == "missing_event_target"

    ds = _event_ds([("a", "death", 2.0, 1), ("a", "relapse", 1.0, 1)],
                   roles=RoleMap.of(covariates=("x",),
                                    targets=("death", "relapse")),
                   sample_ids=["a"], extra_event="relapse")
    with pytest.raises(RequirementUnmet) as exc:
        event_outcomes(ds)
    assert exc.value.reason == "multiple_targets"

    ds = _event_ds([("a", "death", 2.0, 1)], sample_ids=["a", "b"])
    with pytest.raises(RequirementUnmet) as exc:
        event_outcomes(ds)
    assert exc.value.reason == "incomplete_event_target"


# ---------------------------------------------------------------------------
# survival.cox
# ---------------------------------------------------------------------------

def test_cox_positive_effect_and_ascent():
    ds = survival_dataset(0, n=40, censor_rate=0.2, effect=2.0)
    fitted = create("survival.cox", {"iters": 200}).fit(ds)
    beta = fitted.state["beta"]
    trace = fitted.state["trace"]
    assert len(trace) == 201
    assert beta[fitted.state["columns"].index("x")] > 0
    for a, b in zip(trace, trace[1:]):
        assert b >= a


def test_cox_constant_covariate_stays_zero():
    static = build_static_samples(
        [(f"s{i}", "x", 1.0) for i in range(6)], {"x": Continuous()},
        sample_ids=[f"s{i}" for i in range(6)])
    events = build_event_samples(
        [(f"s{i}", "death", float(i + 1), 1 if i % 2 == 0 else MISSING)
         for i in range(6)],
        {"death": Integer()}, sample_ids=[f"s{i}" for i in range(6)])
    ds = assemble_dataset(static=static, events=events,
                          roles=RoleMap.of(covariates=("x",),
                                           targets=("death",)))
    fitted = create("survival.cox", {"iters": 100}).fit(ds)
    assert fitted.state["beta"] == [0.0]


def test_cox_all_censored_rejected():
    ds = _event_ds([("a", "death", 1.0, MISSING),
                    ("b", "death", 2.0, MISSING)], sample_ids=["a", "b"])
    with pytest.raises(NoEvents):
        create("survival.cox", {"iters": 5}).fit(ds)


def test_cox_predictions_are_valid_curves():
    ds = survival_dataset(1, n=30)
    fitted = create("survival.cox", {"iters": 150}).fit(ds)
    out = fitted.predict(ds)
    assert out.sample_ids == ds.sample_ids
    assert out.survival_at(-1e9) == (1.0,) * len(ds.sample_ids)
    prev = out.survival_at(-1e9)
    for t in out.base_times:
        now = out.survival_at(t)
        for v, p in zip(now, prev):
            assert 0.0 <= v <= p
        prev = now
    # with a positive beta, higher covariate sorts with higher risk
    c = concordance_index(out.risks, event_outcomes(ds))
    assert c > 0.6
    # an e^risk that overflows gives S = 0.0 past the first breakpoint
    extreme = SurvivalOutput(out.sample_ids, (0.0, 1e6, -1e6), out.base_times,
                             out.cumhaz)
    first = out.base_times[0]
    assert extreme.survival_at(first - 1.0) == (1.0, 1.0, 1.0)
    assert extreme.survival_at(first) == (math.exp(-out.cumhaz[0]), 0.0,
                                          1.0)


def test_cox_breslow_baseline_matches_rescan_oracle():
    rng = Lcg(5)
    ids = [f"s{i}" for i in range(40)]
    static = build_static_samples(
        [(sid, "x", rng.uniform_in(-1.0, 1.0)) for sid in ids],
        {"x": Continuous()}, sample_ids=ids)
    events = build_event_samples(
        [(sid, "death", float(1 + rng.below(6)),
          1 if rng.uniform() < 0.6 else MISSING) for sid in ids],
        {"death": Integer()}, sample_ids=ids)
    ds = assemble_dataset(static=static, events=events,
                          roles=RoleMap.of(covariates=("x",),
                                           targets=("death",)))
    outcomes = event_outcomes(ds)
    # the fixture ties events with events and with censorings
    event_times = [o.time for o in outcomes if o.occurred]
    censor_times = {o.time for o in outcomes if not o.occurred}
    assert len(set(event_times)) < len(event_times)
    assert censor_times & set(event_times)

    fitted = create("survival.cox", {"iters": 100}).fit(ds)
    _, columns = covariate_matrix(ds)
    xb = [sum(b * x for b, x in zip(fitted.state["beta"], row))
          for row in zip(*columns)]
    times, cumhaz = _breslow_oracle(outcomes, xb)
    baseline = fitted.state["baseline"]
    assert baseline["times"] == times
    assert len(baseline["cumhaz"]) == len(cumhaz)
    for got, want in zip(baseline["cumhaz"], cumhaz):
        assert math.isclose(got, want, rel_tol=1e-12)


def test_cox_risk_is_linear_in_beta():
    ds = survival_dataset(2, n=25)
    fitted = create("survival.cox", {"iters": 100}).fit(ds)
    out = fitted.predict(ds)
    _, columns = covariate_matrix(ds)
    beta = fitted.state["beta"]
    for risk, row in zip(out.risks, zip(*columns)):
        assert abs(risk - sum(b * x for b, x in zip(beta, row))) <= 1e-12


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------

def _c_oracle(risks, outcomes):
    conc = tied = comp = 0
    n = len(outcomes)
    for i in range(n):
        if not outcomes[i].occurred:
            continue
        for j in range(n):
            if j == i or not outcomes[i].time < outcomes[j].time:
                continue
            comp += 1
            if risks[i] > risks[j]:
                conc += 1
            elif risks[i] == risks[j]:
                tied += 1
    if comp == 0:
        return None
    return (conc + 0.5 * tied) / comp


def test_c_index_perfect_and_tied():
    outcomes = _outcomes([(1, 1), (2, 1), (3, 1)])
    assert concordance_index([3.0, 2.0, 1.0], outcomes) == 1.0
    assert concordance_index([1.0, 2.0, 3.0], outcomes) == 0.0
    assert concordance_index([5.0, 5.0, 5.0], outcomes) == 0.5


def test_c_index_monotone_transform_invariance_and_negation():
    rng = Lcg(7)
    outcomes = [EventOutcome(f"s{i}", rng.uniform_in(0.0, 10.0),
                             rng.uniform() < 0.7) for i in range(15)]
    risks = [rng.uniform_in(-2.0, 2.0) for _ in range(15)]
    c = concordance_index(risks, outcomes)
    transformed = [math.exp(r) + 5.0 for r in risks]
    assert concordance_index(transformed, outcomes) == c
    assert math.isclose(concordance_index([-r for r in risks], outcomes),
                        1.0 - c, abs_tol=1e-12)


def test_c_index_matches_brute_force():
    rng = Lcg(11)
    for _ in range(30):
        n = 2 + rng.below(12)
        outcomes = [EventOutcome(f"s{i}", float(rng.below(8)),
                                 rng.uniform() < 0.6) for i in range(n)]
        risks = [float(rng.below(5)) for _ in range(n)]
        expected = _c_oracle(risks, outcomes)
        if expected is None:
            with pytest.raises(NoComparablePairs):
                concordance_index(risks, outcomes)
        else:
            assert concordance_index(risks, outcomes) == expected


def test_c_index_nan_risk_raises_naming_the_sample():
    outcomes = _outcomes([(1, 1), (2, 1), (3, 0)])
    with pytest.raises(MetricMismatch, match="sample 1 is NaN"):
        concordance_index([0.5, float("nan"), 0.1], outcomes)


def test_c_index_censored_anchors_are_not_comparable():
    outcomes = _outcomes([(1, 0), (2, 1)])
    with pytest.raises(NoComparablePairs):
        concordance_index([1.0, 2.0], outcomes)


@pytest.mark.parametrize("risks, message", [
    ([1.0, 2.0], "risks has 2 values for 3 samples"),
    ([1.0, 2.0, 3.0, 4.0], "risks has 4 values for 3 samples"),
], ids=["short", "long"])
def test_c_index_refuses_risks_of_another_length(risks, message):
    outcomes = _outcomes([(1, 1), (2, 1), (3, 0)])
    with pytest.raises(AlignmentError, match=f"^{message}$"):
        concordance_index(risks, outcomes)


# ---------------------------------------------------------------------------
# Brier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("survival, message", [
    ([0.3, 0.8], "survival has 2 values for 3 samples"),
    ([0.3, 0.8, 0.5, 0.1], "survival has 4 values for 3 samples"),
], ids=["short", "long"])
def test_brier_refuses_survival_of_another_length(survival, message):
    outcomes = _outcomes([(1.0, 1), (3.0, 0), (1.5, 1)])
    with pytest.raises(AlignmentError, match=f"^{message}$"):
        brier_score(survival, outcomes, 2.0)


def test_brier_hand_value():
    curves = [SurvivalCurve((1.0,), (0.3,)),
              SurvivalCurve((1.0,), (0.8,)),
              SurvivalCurve((1.0,), (0.5,))]
    outcomes = _outcomes([(1.0, 1), (3.0, 0), (1.5, 0)])
    # s0: event by t*=2 -> label 0, S=0.3; s1: t>2 -> label 1, S=0.8;
    # s2: censored before t* -> excluded
    score = brier_score([c.value_at(2.0) for c in curves], outcomes, 2.0)
    assert abs(score - (0.3 ** 2 + 0.2 ** 2) / 2) <= 1e-15


def test_brier_boundary_cases():
    curves = [SurvivalCurve((1.0,), (0.4,)), SurvivalCurve((1.0,), (0.4,))]
    # event exactly at the horizon is evaluable with label 0
    outcomes = _outcomes([(2.0, 1), (2.0, 0)])
    score = brier_score([c.value_at(2.0) for c in curves], outcomes, 2.0)
    assert score == 0.4 ** 2

    with pytest.raises(NoEvaluableSamples):
        brier_score([c.value_at(2.0) for c in curves],
                    _outcomes([(1.0, 0), (2.0, 0)]), 2.0)


def test_perfect_curves_give_zero_brier():
    curves = [SurvivalCurve((1.0,), (0.0,)), SurvivalCurve((5.0,), (0.0,))]
    outcomes = _outcomes([(1.0, 1), (9.0, 1)])
    assert brier_score([c.value_at(2.0) for c in curves], outcomes,
                       2.0) == 0.0
