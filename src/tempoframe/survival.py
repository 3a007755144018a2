"""Time-to-event analysis: Kaplan-Meier curves and a Cox-style risk model.

One tie rule, from `kernels.risk_groups`: samples with equal times form
one group. An event at t is scored against R(t) = {j : t_j >= t}, which
includes t's whole group, censorings too (Kaplan-Meier, and Breslow ties
in the Cox fit and baseline, both read off the kernels' one risk layout);
concordance (`metrics.concordance_index`) compares an event at t only
with strictly later groups.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from tempoframe.data import (
    Dataset,
    MISSING,
    Modality,
    Role,
    check_column_names,
    covariate_matrix,
)
from tempoframe.errors import EmptyInput, NoEvents, RequirementUnmet
from tempoframe.kernels import _exp, at_risk_counts, cox_gd, linear_predictor
from tempoframe.plugins import Category, EstimatorSpec, Param, register_plugin


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous step function; S(t) = 1 before the first breakpoint.

    Breakpoints are strictly increasing event times.
    """

    breakpoints: tuple
    values: tuple

    def value_at(self, t: float) -> float:
        idx = bisect_right(self.breakpoints, t)
        return 1.0 if idx == 0 else self.values[idx - 1]


@dataclass(frozen=True)
class EventOutcome:
    sample_id: str
    time: float
    occurred: bool


@dataclass(frozen=True)
class SurvivalOutput:
    """Per-sample risks (higher = earlier expected event) and the shared
    baseline cumulative hazard H0; S_i(t) = exp(-H0(t) * e^{risk_i})."""

    sample_ids: tuple
    risks: tuple
    base_times: tuple
    cumhaz: tuple

    def survival_at(self, t: float) -> tuple:
        """Every sample's S_i(t); 1.0 before the first breakpoint."""
        idx = bisect_right(self.base_times, t)
        if idx == 0:
            return (1.0,) * len(self.risks)
        # H0 > 0 here, so an e^r that saturates to inf gives S = 0.0
        h = self.cumhaz[idx - 1]
        return tuple(math.exp(-h * _exp(r)) for r in self.risks)


def event_outcomes(ds: Dataset) -> list:
    """Derive per-sample (time, occurred) from the single event Target."""
    fid, _, _ = ds.sole_feature(Role.TARGET, Modality.EVENT)
    out = []
    for sid in ds.sample_ids:
        entry = ds.events.entry(sid, fid)
        if entry is None:
            raise RequirementUnmet(
                "incomplete_event_target",
                f"sample {sid!r} has no record for event target {fid!r}")
        t, value = entry
        out.append(EventOutcome(sid, t, value is not MISSING))
    return out


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

def kaplan_meier(outcomes) -> SurvivalCurve:
    """Product-limit estimate: at each event time t with d events among
    the n samples of R(t), S multiplies by (1 - d/n)."""
    outcomes = list(outcomes)
    if not outcomes:
        raise EmptyInput("kaplan_meier needs at least one sample")
    steps = at_risk_counts([o.time for o in outcomes],
                           [o.occurred for o in outcomes])
    values = accumulate([1.0 - d / n for _, d, n in steps], mul, initial=1.0)
    return SurvivalCurve(tuple(t for t, _, _ in steps), tuple(values)[1:])


# ---------------------------------------------------------------------------
# survival.cox
# ---------------------------------------------------------------------------

def _cox_fit(params, ds: Dataset) -> dict:
    outcomes = event_outcomes(ds)
    if not any(o.occurred for o in outcomes):
        raise NoEvents("all samples are censored")
    names, columns = covariate_matrix(ds)
    beta, trace, grad_norm, (base_times, cumhaz) = cox_gd(
        columns, [o.time for o in outcomes], [o.occurred for o in outcomes],
        params["step_size"], params["iters"], params["ridge"])
    return {"beta": beta, "columns": names, "trace": trace,
            "grad_norm": grad_norm,
            "baseline": {"times": base_times, "cumhaz": cumhaz}}


def _cox_predict_columns(params, state, sample_ids, names,
                         columns) -> SurvivalOutput:
    check_column_names(state["columns"], names)
    risks = linear_predictor(columns, state["beta"], [0.0] * len(sample_ids))
    return SurvivalOutput(sample_ids, tuple(risks),
                          tuple(state["baseline"]["times"]),
                          tuple(state["baseline"]["cumhaz"]))


register_plugin(EstimatorSpec(
    name="survival.cox", category=Category.SURVIVAL,
    schema=(Param("iters", "integer", 500, lo=0),
            Param("step_size", "real", 0.1, lo=0.0),
            Param("ridge", "real", 1e-6, lo=0.0)),
    fit=_cox_fit, predict_columns=_cox_predict_columns))

