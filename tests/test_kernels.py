"""Numeric kernels: oracles for the solvers, gradient checks, and typed
failures on singular or diverging fits."""

from __future__ import annotations

import math

import pytest

from tempoframe.errors import FitDiverged
from tempoframe.kernels import backend_name, pure
from tempoframe.rng import Lcg

# One value keeps the historical test ids (`[tempoframe.kernels.pure]`).
KERNELS = [pure]


# ---------------------------------------------------------------------------
# lu_solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("impl", KERNELS)
def test_lu_solve_known_systems(impl):
    # 2x2 hand case: x + y = 3, x - y = 1
    x = impl.lu_solve(2, [1.0, 1.0, 1.0, -1.0], [3.0, 1.0])
    assert x == [2.0, 1.0]

    # needs a pivot swap: first pivot is zero
    x = impl.lu_solve(2, [0.0, 2.0, 3.0, 0.0], [4.0, 6.0])
    assert x == [2.0, 2.0]

    a = [2.0, 1.0, 1.0,
         1.0, 3.0, 2.0,
         1.0, 0.0, 0.0]
    b = [4.0, 5.0, 6.0]
    x = impl.lu_solve(3, a, b)
    for i in range(3):
        lhs = sum(a[i * 3 + j] * x[j] for j in range(3))
        assert math.isclose(lhs, b[i], rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("impl", KERNELS)
def test_lu_solve_singular(impl):
    with pytest.raises(FitDiverged, match="singular"):
        impl.lu_solve(2, [1.0, 2.0, 2.0, 4.0], [1.0, 2.0])


@pytest.mark.parametrize("impl", KERNELS)
def test_lu_solve_does_not_mutate_inputs(impl):
    a = [3.0, 1.0, 1.0, 2.0]
    b = [5.0, 5.0]
    impl.lu_solve(2, a, b)
    assert a == [3.0, 1.0, 1.0, 2.0]
    assert b == [5.0, 5.0]


# ---------------------------------------------------------------------------
# ridge_normal_solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("impl", KERNELS)
def test_ridge_identity_design(impl):
    # X = I: (I + lam*diag(p)) w = y
    y = [2.0, 6.0]
    w = impl.ridge_normal_solve(2, 2, [1.0, 0.0, 0.0, 1.0], y, 1.0,
                                [1.0, 0.0])
    assert w == [1.0, 6.0]


@pytest.mark.parametrize("impl", KERNELS)
def test_ridge_zero_lambda_is_least_squares(impl):
    # exactly determined line: y = 2x + 1 through (0,1), (1,3), (2,5)
    x_flat = [1.0, 0.0, 1.0, 1.0, 1.0, 2.0]
    w = impl.ridge_normal_solve(3, 2, x_flat, [1.0, 3.0, 5.0], 0.0,
                                [1.0, 1.0])
    assert math.isclose(w[0], 1.0, abs_tol=1e-12)
    assert math.isclose(w[1], 2.0, abs_tol=1e-12)


def test_ridge_shrinks_penalized_columns_only():
    # intercept free, slope penalized: slope = Sxy / (Sxx + lam), so the
    # penalized column shrinks monotonically while lam grows
    x_flat = [1.0, 2.0, 1.0, -1.0, 1.0, 0.5, 1.0, 3.0]
    y = [4.0, -2.0, 1.0, 6.0]
    slopes = [abs(pure.ridge_normal_solve(4, 2, x_flat, y, lam,
                                          [0.0, 1.0])[1])
              for lam in (0.0, 1.0, 10.0, 100.0)]
    assert slopes == sorted(slopes, reverse=True)
    assert slopes[-1] < slopes[0]


# ---------------------------------------------------------------------------
# logistic_gd
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("impl", KERNELS)
def test_logistic_balanced_symmetric_data_stays_at_zero(impl):
    # identical rows, balanced labels: the gradient vanishes at zero init
    x_flat = [1.0, 2.0] * 4
    y = [0.0, 1.0, 0.0, 1.0]
    w, b = impl.logistic_gd(4, 2, x_flat, y, 0.1, 50)
    assert w == [0.0, 0.0]
    assert b == 0.0


@pytest.mark.parametrize("impl", KERNELS)
def test_logistic_learns_separable_sign(impl):
    x_flat = [-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]
    y = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    w, b = impl.logistic_gd(6, 1, x_flat, y, 0.5, 500)
    assert w[0] > 1.0
    assert abs(b) < 1.0


def test_logistic_more_iters_lowers_loss():
    rng = Lcg(4)
    n = 30
    x_flat = [rng.uniform_in(-1, 1) for _ in range(2 * n)]
    y = [1.0 if x_flat[2 * i] + 0.3 * x_flat[2 * i + 1] > 0 else 0.0
         for i in range(n)]

    def loss(w, b):
        total = 0.0
        for i in range(n):
            z = b + w[0] * x_flat[2 * i] + w[1] * x_flat[2 * i + 1]
            p = pure._sigmoid(z)
            p = min(max(p, 1e-12), 1 - 1e-12)
            total += -(y[i] * math.log(p) + (1 - y[i]) * math.log(1 - p))
        return total / n

    few = pure.logistic_gd(n, 2, x_flat, y, 0.1, 10)
    many = pure.logistic_gd(n, 2, x_flat, y, 0.1, 400)
    assert loss(*many) < loss(*few)


# ---------------------------------------------------------------------------
# cox_gd
# ---------------------------------------------------------------------------

def _cox_inputs(seed, n=12, d=2, tie_times=True):
    rng = Lcg(seed)
    z_flat = [rng.uniform_in(-1.0, 1.0) for _ in range(n * d)]
    if tie_times:
        times = [float(1 + rng.below(4)) for _ in range(n)]
    else:
        times = [rng.uniform_in(0.1, 9.0) for _ in range(n)]
    occurred = [1 if rng.uniform() < 0.7 else 0 for _ in range(n)]
    if not any(occurred):
        occurred[0] = 1
    return z_flat, times, occurred


@pytest.mark.parametrize("impl", KERNELS)
def test_cox_trace_shape_and_zero_iters(impl):
    z_flat, times, occurred = _cox_inputs(0)
    beta, trace, gnorm = impl.cox_gd(12, 2, z_flat, times, occurred,
                                     0.05, 0, 1e-6)
    assert beta == [0.0, 0.0]
    assert len(trace) == 1
    beta, trace, gnorm = impl.cox_gd(12, 2, z_flat, times, occurred,
                                     0.05, 40, 1e-6)
    assert len(trace) == 41
    assert gnorm >= 0.0


def test_cox_gradient_matches_finite_differences():
    z_flat, times, occurred = _cox_inputs(1, n=10)
    groups = pure.risk_groups(times)
    beta = [0.3, -0.7]
    lam = 0.01
    obj, grad = pure._cox_obj_grad(10, 2, z_flat, groups, occurred, lam,
                                   beta)
    eps = 1e-6
    for j in range(2):
        up = list(beta)
        up[j] += eps
        down = list(beta)
        down[j] -= eps
        o_up, _ = pure._cox_obj_grad(10, 2, z_flat, groups, occurred, lam,
                                     up)
        o_dn, _ = pure._cox_obj_grad(10, 2, z_flat, groups, occurred, lam,
                                     down)
        fd = (o_up - o_dn) / (2 * eps)
        assert math.isclose(grad[j], fd, rel_tol=1e-5, abs_tol=1e-7)


def test_cox_breslow_tied_objective_hand_value():
    # two events tied at t=1, one later censoring; at beta the Breslow
    # objective is sum(xb_events) - d * log(sum of risk-set exps)
    z_flat = [1.0, 0.0, -1.0]
    times = [1.0, 1.0, 2.0]
    occurred = [1, 1, 0]
    groups = pure.risk_groups(times)
    beta = [0.5]
    denom = math.exp(0.5) + math.exp(0.0) + math.exp(-0.5)
    expected = (0.5 - math.log(denom)) + (0.0 - math.log(denom))
    obj, _ = pure._cox_obj_grad(3, 1, z_flat, groups, occurred, 0.0, beta)
    assert math.isclose(obj, expected, rel_tol=1e-15)


def test_risk_groups_latest_first_ties_in_index_order():
    groups = pure.risk_groups([2.0, 5.0, 2.0, 1.0, 5.0, 2.0])
    assert groups == [(5.0, [1, 4]), (2.0, [0, 2, 5]), (1.0, [3])]
    assert pure.risk_groups([]) == []


# ---------------------------------------------------------------------------
# concordance_counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("impl", KERNELS)
def test_concordance_counts_hand_case(impl):
    # (t, occ, risk): a=(1,1,3) b=(2,1,3) c=(3,0,1)
    # comparable: (a,b) risk-tied, (a,c) and (b,c) concordant
    conc, tied, comp = impl.concordance_counts(
        3, [1.0, 2.0, 3.0], [1, 1, 0], [3.0, 3.0, 1.0])
    assert (conc, tied, comp) == (2, 1, 3)


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_backend_name_is_pure():
    assert backend_name() == "pure"


def test_lu_solve_non_finite_result_diverges():
    # the pivot is not zero, but the quotient overflows to inf
    with pytest.raises(FitDiverged, match="non-finite"):
        pure.lu_solve(1, [1e-300], [1e300])


def test_logistic_overflowing_step_diverges():
    x_flat = [1e300, -1e300]
    with pytest.raises(FitDiverged, match="logistic_gd"):
        pure.logistic_gd(2, 1, x_flat, [1.0, 0.0], 1e300, 3)


def test_cox_zero_risk_set_sum_diverges():
    # a huge step drives every exp(beta . z) of the risk set to 0.0
    z_flat, times, occurred = _cox_inputs(2)
    with pytest.raises(FitDiverged, match="risk-set sum"):
        pure.cox_gd(12, 2, z_flat, times, occurred, 1e6, 5, 0.0)
