"""Numeric kernels: oracles for the solvers, gradient checks, and typed
failures on singular or diverging fits.

The row-major oracles below are the kernels' arithmetic written one
sample at a time, as it was before the matrix crossed the kernel boundary
as per-feature columns. The column kernels must return `==` results to
them: same terms, same order of addition, so a reassociated loop fails
here before it moves a golden report. The Cox gradient also keeps its
earlier per-event form, S1_j / S0 at each event, as an independent
referee that must agree within a stated relative tolerance. The Breslow
baseline `cox_gd` returns keeps its oracle too: the per-time d / S0 rule
the Cox estimator used before the kernel returned it, compared with
`==`."""

from __future__ import annotations

import math
import re

import pytest

from tempoframe import kernels
from tempoframe.errors import AlignmentError, FitDiverged
from tempoframe.rng import Lcg

# One value keeps the test ids these tests had while the kernels lived in
# `tempoframe.kernels.pure`.
KERNELS = [pytest.param(kernels, id="tempoframe.kernels.pure")]


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
# row-major oracles
# ---------------------------------------------------------------------------

def _flat(columns):
    """The row-major flat layout of a column matrix."""
    return [v for row in zip(*columns) for v in row]


def _ridge_oracle(n_rows, n_cols, x_flat, y, lam, penalty):
    ata = [0.0] * (n_cols * n_cols)
    aty = [0.0] * n_cols
    for i in range(n_rows):
        base = i * n_cols
        yi = y[i]
        for j in range(n_cols):
            xij = x_flat[base + j]
            row = j * n_cols
            for k in range(j, n_cols):
                ata[row + k] += xij * x_flat[base + k]
            aty[j] += xij * yi
    for j in range(n_cols):
        for k in range(j + 1, n_cols):
            ata[k * n_cols + j] = ata[j * n_cols + k]
    for j in range(n_cols):
        ata[j * n_cols + j] += lam * penalty[j]
    return kernels.lu_solve(n_cols, ata, aty)


def _logistic_oracle(n_rows, n_cols, x_flat, y, lr, iters):
    w = [0.0] * n_cols
    b = 0.0
    scale = lr / n_rows
    for _ in range(iters):
        gw = [0.0] * n_cols
        gb = 0.0
        for i in range(n_rows):
            base = i * n_cols
            z = b
            for j in range(n_cols):
                z += w[j] * x_flat[base + j]
            d = kernels._sigmoid(z) - y[i]
            for j in range(n_cols):
                gw[j] += d * x_flat[base + j]
            gb += d
        for j in range(n_cols):
            w[j] -= scale * gw[j]
        b -= scale * gb
    return w, b


def _cox_obj_grad_oracle(n_rows, n_cols, z_flat, groups, occurred, lam,
                         beta):
    """The hazard-weight gradient, one sample at a time: each column is
    shifted by its value at the first sample in sweep order, the samples
    after the last event's group are left out, and each sample weighs
    e^{xb} times the suffix sum of 1/S0 from the first event whose risk
    set holds it. Returns (objective, gradient, S0 per event in sweep
    order)."""
    xb = [0.0] * n_rows
    ex = [0.0] * n_rows
    for i in range(n_rows):
        base = i * n_cols
        s = 0.0
        for j in range(n_cols):
            s += beta[j] * z_flat[base + j]
        xb[i] = s
        ex[i] = math.exp(s)
    obj = 0.0
    s0 = 0.0
    order = []
    first = []
    events = []
    sums = []
    kept = 0
    for _, members in groups:
        for i in members:
            s0 += ex[i]
            order.append(i)
            first.append(len(events))
        for i in members:
            if occurred[i]:
                obj += xb[i] - math.log(s0)
                events.append(i)
                sums.append(s0)
                kept = len(order)
    hazard = [0.0] * (len(sums) + 1)
    h = 0.0
    for e in range(len(sums) - 1, -1, -1):
        h += 1.0 / sums[e]
        hazard[e] = h
    shift = [z_flat[order[0] * n_cols + j] for j in range(n_cols)] \
        if kept else []
    event_sums = [0.0] * n_cols
    for i in events:
        base = i * n_cols
        for j in range(n_cols):
            event_sums[j] += z_flat[base + j] - shift[j]
    dots = [0.0] * n_cols
    for k in range(kept):
        i = order[k]
        w = ex[i] * hazard[first[k]]
        base = i * n_cols
        for j in range(n_cols):
            dots[j] += (z_flat[base + j] - shift[j]) * w
    grad = [0.0] * n_cols
    for j in range(n_cols):
        obj -= lam * beta[j] * beta[j]
        grad[j] = event_sums[j] - dots[j] - 2.0 * lam * beta[j]
    return obj, grad, sums


def _cox_obj_grad_per_event(n_rows, n_cols, z_flat, groups, occurred, lam,
                            beta):
    """The gradient as sum over events of z - S1/S0, with S0 and S1_j
    swept one sample at a time: the kernel's earlier arithmetic, kept as
    an independent referee for `_cox_obj_grad_oracle`."""
    xb = [0.0] * n_rows
    ex = [0.0] * n_rows
    for i in range(n_rows):
        base = i * n_cols
        s = 0.0
        for j in range(n_cols):
            s += beta[j] * z_flat[base + j]
        xb[i] = s
        ex[i] = math.exp(s)
    obj = 0.0
    grad = [0.0] * n_cols
    s0 = 0.0
    s1 = [0.0] * n_cols
    for _, members in groups:
        for i in members:
            e = ex[i]
            s0 += e
            base = i * n_cols
            for j in range(n_cols):
                s1[j] += e * z_flat[base + j]
        for i in members:
            if occurred[i]:
                obj += xb[i] - math.log(s0)
                base = i * n_cols
                for j in range(n_cols):
                    grad[j] += z_flat[base + j] - s1[j] / s0
    for j in range(n_cols):
        obj -= lam * beta[j] * beta[j]
        grad[j] -= 2.0 * lam * beta[j]
    return obj, grad


def _breslow_oracle(n_rows, n_cols, z_flat, groups, occurred, beta):
    """(event times ascending, cumulative hazard) at `beta` by the per-time
    rule: sweep the groups latest first, adding each sample's e^{xb} to
    S0, and note (t, d, S0) at each time with d > 0 events; then H0 adds
    d / S0 per time, earliest first."""
    steps = []
    s0 = 0.0
    for t, members in groups:
        d = 0
        for i in members:
            base = i * n_cols
            s = 0.0
            for j in range(n_cols):
                s += beta[j] * z_flat[base + j]
            s0 += math.exp(s)
            if occurred[i]:
                d += 1
        if d:
            steps.append((t, d, s0))
    times = []
    cumhaz = []
    h = 0.0
    for t, d, s in reversed(steps):
        h += d / s
        times.append(t)
        cumhaz.append(h)
    return times, cumhaz


def _cox_gd_oracle(n_rows, n_cols, z_flat, times, occurred, step, iters,
                   lam, obj_grad=_cox_obj_grad_oracle):
    groups = kernels.risk_groups(times)
    beta = [0.0] * n_cols
    trace = []
    for _ in range(iters):
        obj, grad = obj_grad(n_rows, n_cols, z_flat, groups, occurred, lam,
                             beta)[:2]
        trace.append(obj)
        for j in range(n_cols):
            beta[j] += step * grad[j]
    obj, grad = obj_grad(n_rows, n_cols, z_flat, groups, occurred, lam,
                         beta)[:2]
    trace.append(obj)
    gnorm = 0.0
    for j in range(n_cols):
        gnorm += grad[j] * grad[j]
    return beta, trace, math.sqrt(gnorm), _breslow_oracle(
        n_rows, n_cols, z_flat, groups, occurred, beta)


def _random_columns(rng, n, d):
    return [[rng.uniform_in(-2.0, 2.0) for _ in range(n)] for _ in range(d)]


def test_linear_predictor_adds_columns_in_order():
    rng = Lcg(7)
    for n, d in ((1, 1), (9, 3), (40, 12)):
        columns = _random_columns(rng, n, d)
        w = [rng.uniform_in(-1.0, 1.0) for _ in range(d)]
        start = [rng.uniform_in(-1.0, 1.0) for _ in range(n)]
        want = []
        for i in range(n):
            s = start[i]
            for j in range(d):
                s += w[j] * columns[j][i]
            want.append(s)
        assert kernels.linear_predictor(columns, w, start) == want
    assert kernels.linear_predictor([], [], [0.5, 1.5]) == [0.5, 1.5]


@pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (200, 4), (60, 9)])
def test_ridge_matches_row_major_oracle(n, d):
    rng = Lcg(100 + n + d)
    columns = _random_columns(rng, n, d)
    y = [rng.uniform_in(-5.0, 5.0) for _ in range(n)]
    for lam, penalty in ((1e-9, [1.0] * d), (0.5, [0.0] + [1.0] * (d - 1))):
        want = _ridge_oracle(n, d, _flat(columns), y, lam, penalty)
        assert kernels.ridge_normal_solve(columns, y, lam, penalty) == want


@pytest.mark.parametrize("iters", [0, 1, 60])
def test_logistic_matches_row_major_oracle(iters):
    rng = Lcg(11)
    n, d = 50, 4
    columns = _random_columns(rng, n, d)
    y = [1.0 if rng.uniform() < 0.4 else 0.0 for _ in range(n)]
    want = _logistic_oracle(n, d, _flat(columns), y, 0.3, iters)
    assert kernels.logistic_gd(columns, y, 0.3, iters) == want


def _cox_oracle_case(case):
    """(columns, times, occurred, step, iters) for one oracle case. True
    and False are 30 samples, 3 columns, with tied or distinct times; the
    named cases are the boundaries of the risk-ordered layout."""
    if case in (True, False):
        return (*_cox_inputs(3, n=30, d=3, tie_times=case), 0.05, (0, 1, 40))
    if case == "bench-shape":
        return (*_cox_inputs(8, n=120, d=12), 0.001, (25,))
    columns, times, occurred = _cox_inputs(4, n=12, d=3)
    if case == "no-columns":
        columns = []
    elif case == "one-event":
        occurred = [1 if i == 5 else 0 for i in range(12)]
    elif case == "all-tied":
        times = [2.0] * 12
    elif case == "censored-first-and-last":
        # the latest group and the earliest are censored only
        times = [float(1 + i % 5) for i in range(12)]
        occurred = [0 if t in (1.0, 5.0) else 1 for t in times]
    return columns, times, occurred, 0.05, (0, 1, 40)


@pytest.mark.parametrize("case", [True, False, "no-columns", "one-event",
                                  "all-tied", "censored-first-and-last",
                                  "bench-shape"])
def test_cox_matches_row_major_oracle(case):
    columns, times, occurred, step, iters_list = _cox_oracle_case(case)
    n, d = len(times), len(columns)
    z_flat = _flat(columns)
    groups = kernels.risk_groups(times)
    layout = kernels._risk_layout(columns, groups, occurred)
    for beta in ([0.0] * d, ([0.4, -1.1, 0.25] * 4)[:d]):
        assert kernels._cox_obj_grad(layout, 1e-3, beta) \
            == _cox_obj_grad_oracle(n, d, z_flat, groups, occurred, 1e-3,
                                    beta)
    for iters in iters_list:
        assert kernels.cox_gd(columns, times, occurred, step, iters, 1e-6) \
            == _cox_gd_oracle(n, d, z_flat, times, occurred, step, iters,
                              1e-6)


# The hazard-weight gradient reassociates the per-event sums, so it agrees
# with them only to rounding: ~5e-14 relative per entry at the betas below
# and ~1e-12 over a whole fit on these cases.
GRADIENT_REL_TOL = 1e-12
FIT_REL_TOL = 1e-9


@pytest.mark.parametrize("case", [True, False, "one-event", "all-tied",
                                  "censored-first-and-last", "bench-shape"])
def test_cox_hazard_weights_agree_with_per_event_sums(case):
    columns, times, occurred, step, iters_list = _cox_oracle_case(case)
    n, d = len(times), len(columns)
    z_flat = _flat(columns)
    groups = kernels.risk_groups(times)
    for beta in ([0.0] * d, ([0.4, -1.1, 0.25] * 4)[:d]):
        obj, grad, _ = _cox_obj_grad_oracle(n, d, z_flat, groups,
                                            occurred, 1e-3, beta)
        ref_obj, ref_grad = _cox_obj_grad_per_event(n, d, z_flat, groups,
                                                    occurred, 1e-3, beta)
        assert obj == ref_obj
        for g, ref in zip(grad, ref_grad):
            assert math.isclose(g, ref, rel_tol=GRADIENT_REL_TOL,
                                abs_tol=GRADIENT_REL_TOL)
    for iters in iters_list:
        beta, trace, _, _ = _cox_gd_oracle(n, d, z_flat, times, occurred,
                                           step, iters, 1e-6)
        ref_beta, ref_trace, _, _ = _cox_gd_oracle(
            n, d, z_flat, times, occurred, step, iters, 1e-6,
            _cox_obj_grad_per_event)
        for v, ref in zip(beta + trace, ref_beta + ref_trace):
            assert math.isclose(v, ref, rel_tol=FIT_REL_TOL,
                                abs_tol=FIT_REL_TOL)


# ---------------------------------------------------------------------------
# every column count: the kernels take the columns four per pass, so
# d = 0..9 covers each remainder mod 4 with no, one and two full blocks
# ---------------------------------------------------------------------------

COLUMN_COUNTS = list(range(10))


def _linear_predictor_oracle(n_rows, n_cols, x_flat, w, start):
    out = []
    for i in range(n_rows):
        base = i * n_cols
        s = start[i]
        for j in range(n_cols):
            s += w[j] * x_flat[base + j]
        out.append(s)
    return out


def _dots_oracle(n_rows, n_cols, x_flat, v):
    acc = [0.0] * n_cols
    for i in range(n_rows):
        base = i * n_cols
        for j in range(n_cols):
            acc[j] += v[i] * x_flat[base + j]
    return acc


@pytest.mark.parametrize("d", COLUMN_COUNTS)
def test_linear_predictor_and_dots_match_oracles_for_every_width(d):
    rng = Lcg(300 + d)
    n = 23
    columns = _random_columns(rng, n, d)
    w = [rng.uniform_in(-1.0, 1.0) for _ in range(d)]
    v = [rng.uniform_in(-3.0, 3.0) for _ in range(n)]
    start = [rng.uniform_in(-1.0, 1.0) for _ in range(n)]
    x_flat = _flat(columns)
    assert kernels.linear_predictor(columns, w, start) \
        == _linear_predictor_oracle(n, d, x_flat, w, start)
    assert kernels._dots(v, columns) == _dots_oracle(n, d, x_flat, v)
    assert kernels._dots(v, columns) == [kernels._dot(v, c) for c in columns]


@pytest.mark.parametrize("d", COLUMN_COUNTS)
def test_ridge_matches_row_major_oracle_for_every_width(d):
    rng = Lcg(400 + d)
    n = 31
    columns = _random_columns(rng, n, d)
    y = [rng.uniform_in(-5.0, 5.0) for _ in range(n)]
    for lam, penalty in ((1e-9, [1.0] * d),
                         (0.5, [float(j > 0) for j in range(d)])):
        want = _ridge_oracle(n, d, _flat(columns), y, lam, penalty)
        assert kernels.ridge_normal_solve(columns, y, lam, penalty) == want


@pytest.mark.parametrize("d", COLUMN_COUNTS)
def test_logistic_matches_row_major_oracle_for_every_width(d):
    rng = Lcg(500 + d)
    n = 37
    columns = _random_columns(rng, n, d)
    y = [1.0 if rng.uniform() < 0.4 else 0.0 for _ in range(n)]
    for iters in (0, 1, 30):
        want = _logistic_oracle(n, d, _flat(columns), y, 0.3, iters)
        assert kernels.logistic_gd(columns, y, 0.3, iters) == want


@pytest.mark.parametrize("d", COLUMN_COUNTS)
def test_cox_matches_row_major_oracle_for_every_width(d):
    columns, times, occurred = _cox_inputs(600 + d, n=25, d=d)
    n = len(times)
    z_flat = _flat(columns)
    groups = kernels.risk_groups(times)
    layout = kernels._risk_layout(columns, groups, occurred)
    beta = ([0.4, -1.1, 0.25] * 4)[:d]
    assert kernels._cox_obj_grad(layout, 1e-3, beta) \
        == _cox_obj_grad_oracle(n, d, z_flat, groups, occurred, 1e-3, beta)
    for iters in (0, 1, 30):
        assert kernels.cox_gd(columns, times, occurred, 0.05, iters, 1e-6) \
            == _cox_gd_oracle(n, d, z_flat, times, occurred, 0.05, iters,
                              1e-6)


@pytest.mark.parametrize("d, bad", [(1, 0), (5, 2)],
                         ids=["alone", "in-a-block"])
def test_linear_predictor_refuses_a_short_column(d, bad):
    columns = [[1.0, 2.0, 3.0] for _ in range(d)]
    columns[bad] = [1.0, 2.0]
    with pytest.raises(AlignmentError, match=re.escape(
            f"column {bad} has 2 values for 3 samples")):
        kernels.linear_predictor(columns, [1.0] * d, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("d, bad", [(1, 0), (5, 2)],
                         ids=["alone", "in-a-block"])
def test_linear_predictor_refuses_a_long_column(d, bad):
    columns = [[1.0, 2.0, 3.0] for _ in range(d)]
    columns[bad] = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(AlignmentError, match=re.escape(
            f"column {bad} has 4 values for 3 samples")):
        kernels.linear_predictor(columns, [1.0] * d, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: kernels.ridge_normal_solve(
        [[1.0, 2.0, 3.0], [1.0, -2.0]], [1.0, 2.0, 3.0], 1e-3, [1.0, 1.0]),
     "column 1 has 2 values for 3 samples"),
    (lambda: kernels.ridge_normal_solve(
        [[1.0, 2.0, 3.0]], [1.0, 2.0], 1e-3, [1.0]),
     "column 0 has 3 values for 2 samples"),
    (lambda: kernels.ridge_normal_solve(
        [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0], 1e-3, [1.0, 1.0]),
     "penalty has 2 values for 1 columns"),
    (lambda: kernels.ridge_normal_solve(
        [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0], 1e-3, []),
     "penalty has 0 values for 1 columns"),
    (lambda: kernels.cox_gd(
        [[1.0, 2.0]], [1.0, 2.0, 3.0], [1, 1, 1], 0.1, 2, 0.0),
     "column 0 has 2 values for 3 samples"),
    (lambda: kernels.cox_gd(
        [[1.0, 2.0, 3.0, 4.0]], [1.0, 2.0, 3.0], [1, 1, 1], 0.1, 2, 0.0),
     "column 0 has 4 values for 3 samples"),
    (lambda: kernels.cox_gd(
        [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0], [1, 1], 0.1, 2, 0.0),
     "occurred has 2 values for 3 samples"),
    (lambda: kernels.cox_gd(
        [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0], [1, 1, 1, 1], 0.1, 2, 0.0),
     "occurred has 4 values for 3 samples"),
    (lambda: kernels.at_risk_counts([1.0, 2.0, 3.0], [1, 1]),
     "occurred has 2 values for 3 samples"),
    (lambda: kernels.at_risk_counts([1.0, 2.0], [1, 1, 0]),
     "occurred has 3 values for 2 samples"),
    (lambda: kernels.concordance_counts(
        3, [1.0, 2.0], [1, 1, 1], [1.0, 2.0, 3.0]),
     "times has 2 values for 3 samples"),
    (lambda: kernels.concordance_counts(
        3, [1.0, 2.0, 3.0], [1, 1, 1, 0], [1.0, 2.0, 3.0]),
     "occurred has 4 values for 3 samples"),
    (lambda: kernels.concordance_counts(
        3, [1.0, 2.0, 3.0], [1, 1, 1], [1.0, 2.0]),
     "risks has 2 values for 3 samples"),
], ids=["ridge-short-column", "ridge-short-y", "ridge-extra-penalty",
        "ridge-no-penalty", "cox-short-column", "cox-long-column",
        "cox-short-flags", "cox-long-flags", "at-risk-short-flags",
        "at-risk-long-flags", "concordance-short-times",
        "concordance-long-flags", "concordance-short-risks"])
def test_kernels_refuse_misaligned_inputs(call, message):
    with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# ridge_normal_solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("impl", KERNELS)
def test_ridge_identity_design(impl):
    # X = I: (I + lam*diag(p)) w = y
    y = [2.0, 6.0]
    w = impl.ridge_normal_solve([[1.0, 0.0], [0.0, 1.0]], y, 1.0,
                                [1.0, 0.0])
    assert w == [1.0, 6.0]


@pytest.mark.parametrize("impl", KERNELS)
def test_ridge_zero_lambda_is_least_squares(impl):
    # exactly determined line: y = 2x + 1 through (0,1), (1,3), (2,5)
    columns = [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]
    w = impl.ridge_normal_solve(columns, [1.0, 3.0, 5.0], 0.0, [1.0, 1.0])
    assert math.isclose(w[0], 1.0, abs_tol=1e-12)
    assert math.isclose(w[1], 2.0, abs_tol=1e-12)


def test_ridge_shrinks_penalized_columns_only():
    # intercept free, slope penalized: slope = Sxy / (Sxx + lam), so the
    # penalized column shrinks monotonically while lam grows
    columns = [[1.0, 1.0, 1.0, 1.0], [2.0, -1.0, 0.5, 3.0]]
    y = [4.0, -2.0, 1.0, 6.0]
    slopes = [abs(kernels.ridge_normal_solve(columns, y, lam, [0.0, 1.0])[1])
              for lam in (0.0, 1.0, 10.0, 100.0)]
    assert slopes == sorted(slopes, reverse=True)
    assert slopes[-1] < slopes[0]


# ---------------------------------------------------------------------------
# logistic_gd
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("impl", KERNELS)
def test_logistic_balanced_symmetric_data_stays_at_zero(impl):
    # identical rows, balanced labels: the gradient vanishes at zero init
    columns = [[1.0] * 4, [2.0] * 4]
    y = [0.0, 1.0, 0.0, 1.0]
    w, b = impl.logistic_gd(columns, y, 0.1, 50)
    assert w == [0.0, 0.0]
    assert b == 0.0


@pytest.mark.parametrize("impl", KERNELS)
def test_logistic_learns_separable_sign(impl):
    columns = [[-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]]
    y = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    w, b = impl.logistic_gd(columns, y, 0.5, 500)
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
            p = kernels._sigmoid(z)
            p = min(max(p, 1e-12), 1 - 1e-12)
            total += -(y[i] * math.log(p) + (1 - y[i]) * math.log(1 - p))
        return total / n

    columns = [x_flat[0::2], x_flat[1::2]]
    few = kernels.logistic_gd(columns, y, 0.1, 10)
    many = kernels.logistic_gd(columns, y, 0.1, 400)
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
    return [z_flat[j::d] for j in range(d)], times, occurred


@pytest.mark.parametrize("impl", KERNELS)
def test_cox_trace_shape_and_zero_iters(impl):
    columns, times, occurred = _cox_inputs(0)
    beta, trace, gnorm, _ = impl.cox_gd(columns, times, occurred, 0.05, 0,
                                        1e-6)
    assert beta == [0.0, 0.0]
    assert len(trace) == 1
    beta, trace, gnorm, (base_times, cumhaz) = impl.cox_gd(
        columns, times, occurred, 0.05, 40, 1e-6)
    assert len(trace) == 41
    assert gnorm >= 0.0
    # one baseline step per distinct event time, ascending
    assert base_times == sorted({t for t, e in zip(times, occurred) if e})
    assert len(cumhaz) == len(base_times)


def test_cox_gradient_matches_finite_differences():
    columns, times, occurred = _cox_inputs(1, n=10)
    layout = kernels._risk_layout(columns, kernels.risk_groups(times), occurred)
    beta = [0.3, -0.7]
    lam = 0.01
    obj, grad, _ = kernels._cox_obj_grad(layout, lam, beta)
    eps = 1e-6
    for j in range(2):
        up = list(beta)
        up[j] += eps
        down = list(beta)
        down[j] -= eps
        o_up, _, _ = kernels._cox_obj_grad(layout, lam, up)
        o_dn, _, _ = kernels._cox_obj_grad(layout, lam, down)
        fd = (o_up - o_dn) / (2 * eps)
        assert math.isclose(grad[j], fd, rel_tol=1e-5, abs_tol=1e-7)


def test_cox_breslow_tied_objective_hand_value():
    # two events tied at t=1, one later censoring; at beta the Breslow
    # objective is sum(xb_events) - d * log(sum of risk-set exps)
    columns = [[1.0, 0.0, -1.0]]
    times = [1.0, 1.0, 2.0]
    occurred = [1, 1, 0]
    layout = kernels._risk_layout(columns, kernels.risk_groups(times), occurred)
    beta = [0.5]
    denom = math.exp(0.5) + math.exp(0.0) + math.exp(-0.5)
    expected = (0.5 - math.log(denom)) + (0.0 - math.log(denom))
    obj, _, _ = kernels._cox_obj_grad(layout, 0.0, beta)
    assert math.isclose(obj, expected, rel_tol=1e-15)


def test_cox_baseline_matches_per_time_oracle_on_tied_fixtures():
    # the fixture of `test_cox_breslow_baseline_matches_rescan_oracle` in
    # test_survival.py, over several seeds: 40 samples at times 1-6 tie
    # events with events and with censorings, so a hazard that added 1/S0
    # once per event instead of d/S0 once per time would round apart
    for seed in range(12):
        rng = Lcg(seed)
        x = [rng.uniform_in(-1.0, 1.0) for _ in range(40)]
        times = []
        occurred = []
        for _ in range(40):
            times.append(float(1 + rng.below(6)))
            occurred.append(1 if rng.uniform() < 0.6 else 0)
        assert kernels.cox_gd([x], times, occurred, 0.1, 100, 1e-6) \
            == _cox_gd_oracle(40, 1, x, times, occurred, 0.1, 100, 1e-6)


@pytest.mark.parametrize("value", [0.1, -3.7, 1e6])
def test_cox_constant_column_keeps_beta_exactly_zero(value):
    # a constant column has no effect on the partial likelihood; its
    # shifted copy is exact zeros, so its gradient is exactly -2 lam b
    varying, times, occurred = _cox_inputs(5, n=20, d=1)
    columns = [[value] * 20, varying[0]]
    beta, trace, gnorm, _ = kernels.cox_gd(columns, times, occurred, 0.05,
                                           40, 1e-3)
    assert beta[0] == 0.0
    assert beta[1] != 0.0


def test_cox_layout_drops_samples_censored_before_every_event():
    # sample 3 is censored before the first event: it joins no risk set
    columns = [[0.5, -1.0, 2.0, 1e6]]
    times = [3.0, 2.0, 1.0, 0.5]
    occurred = [1, 0, 1, 0]
    layout = kernels._risk_layout(columns, kernels.risk_groups(times),
                                  occurred)
    n, permuted, positions, ends, event_times, first = layout[:6]
    assert n == 3
    assert permuted == [[0.5, -1.0, 2.0]]
    assert first == [0, 1, 1]
    assert (positions, ends, event_times) == ([0, 2], [1, 3], [3.0, 1.0])
    # an overflowing risk score there cannot reach the gradient
    obj, grad, _ = kernels._cox_obj_grad(layout, 0.0, [1.0])
    assert math.isfinite(obj) and math.isfinite(grad[0])


@pytest.mark.parametrize("column, times, bad", [
    # S0 = e^-720 at t=2 is positive and finite, but 1/S0 overflows
    ([0.0, 720.0], [1.0, 2.0], "2.0 is not finite (risk-set sum 2.03"),
    # each 1/S0 is finite, but their sum overflows at t=3
    ([709.5, 709.5], [3.0, 2.0], "3.0 is not finite (risk-set sum 7.38"),
])
def test_cox_overflowing_hazard_diverges(column, times, bad):
    layout = kernels._risk_layout([column], kernels.risk_groups(times),
                                  [1, 1])
    with pytest.raises(FitDiverged, match=re.escape(
            f"cox_gd: cumulative hazard at time {bad}")):
        kernels._cox_obj_grad(layout, 0.0, [-1.0])


def test_risk_groups_latest_first_ties_in_index_order():
    groups = kernels.risk_groups([2.0, 5.0, 2.0, 1.0, 5.0, 2.0])
    assert groups == [(5.0, [1, 4]), (2.0, [0, 2, 5]), (1.0, [3])]
    assert kernels.risk_groups([]) == []


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
    assert kernels.backend_name() == "pure"


def test_lu_solve_non_finite_result_diverges():
    # the pivot is not zero, but the quotient overflows to inf
    with pytest.raises(FitDiverged, match="non-finite"):
        kernels.lu_solve(1, [1e-300], [1e300])


def test_logistic_overflowing_step_diverges():
    with pytest.raises(FitDiverged, match="logistic_gd"):
        kernels.logistic_gd([[1e300, -1e300]], [1.0, 0.0], 1e300, 3)


def test_cox_zero_risk_set_sum_diverges():
    # a huge step overflows exp(beta . z) in the first risk set; the
    # overflow saturates to inf, so the sum is inf
    columns, times, occurred = _cox_inputs(2)
    with pytest.raises(FitDiverged, match=re.escape(
            "cox_gd: risk-set sum inf at time 4.0 is not positive and "
            "finite")):
        kernels.cox_gd(columns, times, occurred, 1e6, 5, 0.0)


@pytest.mark.parametrize("seed, step, bad", [
    # every exp(beta . z) of the first risk set underflows to 0.0
    (1, 1e6, "0.0 at time 4.0"),
    # the first risk sets are finite: the first bad one in sweep order,
    # the last group's, is named
    (3, 1e3, "inf at time 1.0"),
])
def test_cox_divergence_names_the_first_bad_risk_set_sum(seed, step, bad):
    columns, times, occurred = _cox_inputs(seed)
    with pytest.raises(FitDiverged, match=re.escape(
            f"cox_gd: risk-set sum {bad} is not positive and finite")):
        kernels.cox_gd(columns, times, occurred, step, 5, 0.0)
