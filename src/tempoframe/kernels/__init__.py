"""Numeric kernels: the fitting inner loops, implemented in `pure`."""

from tempoframe.kernels.pure import (
    BACKEND,
    concordance_counts,
    cox_gd,
    linear_predictor,
    logistic_gd,
    lu_solve,
    mean_std,
    ridge_normal_solve,
    risk_groups,
)


def backend_name() -> str:
    return BACKEND
