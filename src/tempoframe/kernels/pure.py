"""Numeric kernels: the fitting inner loops, in plain Python.

Every loop fixes its iteration and accumulation order, so a fit gives the
same doubles on every run. Golden reports depend on that: rewriting a loop
in a mathematically equivalent but reassociated form changes their bytes.

Matrices cross this boundary as flat row-major lists of floats plus explicit
dimensions. A fit that meets a singular system or produces non-finite values
raises `FitDiverged` instead of returning them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import groupby

from tempoframe.errors import FitDiverged

BACKEND = "pure"

_INF = float("inf")


def _check_finite(kernel: str, values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise FitDiverged(f"{kernel} produced a non-finite value {v!r}")


def _exp(v: float) -> float:
    # Overflow saturates to inf instead of raising, so an overflowing risk
    # score surfaces as a non-positive-finite risk-set sum in _cox_obj_grad.
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


def lu_solve(n: int, a_flat: list, b: list) -> list:
    """Solve the n-by-n system A x = b by Gaussian elimination.

    Partial pivoting: largest absolute pivot, first occurrence wins.
    Inputs are copied, not mutated.
    """
    a = list(a_flat)
    x = list(b)
    for col in range(n):
        p = col
        best = abs(a[col * n + col])
        for r in range(col + 1, n):
            v = abs(a[r * n + col])
            if v > best:
                best = v
                p = r
        if best == 0.0:
            raise FitDiverged("lu_solve: singular matrix (zero pivot in "
                              f"column {col})")
        if p != col:
            for c in range(n):
                a[col * n + c], a[p * n + c] = a[p * n + c], a[col * n + c]
            x[col], x[p] = x[p], x[col]
        for r in range(col + 1, n):
            f = a[r * n + col] / a[col * n + col]
            a[r * n + col] = 0.0
            for c in range(col + 1, n):
                a[r * n + c] -= f * a[col * n + c]
            x[r] -= f * x[col]
    for i in range(n - 1, -1, -1):
        s = x[i]
        for j in range(i + 1, n):
            s -= a[i * n + j] * x[j]
        x[i] = s / a[i * n + i]
    _check_finite("lu_solve", x)
    return x


def ridge_normal_solve(n_rows: int, n_cols: int, x_flat: list, y: list,
                       lam: float, penalty: list) -> list:
    """Solve (XᵀX + λ·diag(penalty)) w = Xᵀy.

    `penalty` has one entry per column (1.0 = penalized, 0.0 = free), so the
    same kernel serves full-diagonal jitter and intercept-free ridge.
    Accumulation order: sample-major over the upper triangle, mirrored after.
    """
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
    return lu_solve(n_cols, ata, aty)


def _sigmoid(z: float) -> float:
    # Branch keeps exp's argument non-positive; no overflow possible.
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def logistic_gd(n_rows: int, n_cols: int, x_flat: list, y: list,
                lr: float, iters: int) -> tuple:
    """Full-batch gradient descent on mean logistic log-loss, zero init.

    Returns (weights, bias).
    """
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
            d = _sigmoid(z) - y[i]
            for j in range(n_cols):
                gw[j] += d * x_flat[base + j]
            gb += d
        for j in range(n_cols):
            w[j] -= scale * gw[j]
        b -= scale * gb
    _check_finite("logistic_gd", [*w, b])
    return w, b


def risk_groups(times: list) -> list:
    """[(t, [i, ...]), ...]: sample indices grouped by equal time, latest
    first, tied samples in index order. The one place that orders or ties
    event times; the risk set R(t) = {j : t_j >= t} is a suffix sum of it.
    """
    order = sorted(range(len(times)), key=times.__getitem__, reverse=True)
    return [(t, list(g)) for t, g in groupby(order, times.__getitem__)]


def _cox_obj_grad(n_rows: int, n_cols: int, z_flat: list, groups: list,
                  occurred: list, lam: float, beta: list) -> tuple:
    """Breslow-tie log partial likelihood and its gradient at `beta`.

    Walks `risk_groups`: each tied-time group enters the risk-set suffix
    sums before any of its events is scored, as R(t) = {j : t_j >= t}.
    """
    xb = [0.0] * n_rows
    ex = [0.0] * n_rows
    for i in range(n_rows):
        base = i * n_cols
        s = 0.0
        for j in range(n_cols):
            s += beta[j] * z_flat[base + j]
        xb[i] = s
        ex[i] = _exp(s)
    obj = 0.0
    grad = [0.0] * n_cols
    s0 = 0.0
    s1 = [0.0] * n_cols
    for t, members in groups:
        for i in members:
            e = ex[i]
            s0 += e
            base = i * n_cols
            for j in range(n_cols):
                s1[j] += e * z_flat[base + j]
        for i in members:
            if occurred[i]:
                if not 0.0 < s0 < _INF:
                    raise FitDiverged(
                        f"cox_gd: risk-set sum {s0!r} at time {t!r} is not "
                        "positive and finite")
                obj += xb[i] - math.log(s0)
                base = i * n_cols
                for j in range(n_cols):
                    grad[j] += z_flat[base + j] - s1[j] / s0
    for j in range(n_cols):
        obj -= lam * beta[j] * beta[j]
        grad[j] -= 2.0 * lam * beta[j]
    return obj, grad


def cox_gd(n_rows: int, n_cols: int, z_flat: list, times: list,
           occurred: list, step: float, iters: int, lam: float) -> tuple:
    """Gradient ascent on the ridged Breslow partial likelihood, zero init.

    Returns (beta, objective_trace, final_gradient_norm); the trace has
    iters+1 entries (value before each update, then at the final beta).
    """
    groups = risk_groups(times)
    beta = [0.0] * n_cols
    trace = []
    grad = [0.0] * n_cols
    for _ in range(iters):
        obj, grad = _cox_obj_grad(n_rows, n_cols, z_flat, groups, occurred,
                                  lam, beta)
        trace.append(obj)
        for j in range(n_cols):
            beta[j] += step * grad[j]
    obj, grad = _cox_obj_grad(n_rows, n_cols, z_flat, groups, occurred,
                              lam, beta)
    trace.append(obj)
    gnorm = 0.0
    for j in range(n_cols):
        gnorm += grad[j] * grad[j]
    gnorm = math.sqrt(gnorm)
    _check_finite("cox_gd", [*beta, *trace, gnorm])
    return beta, trace, gnorm


def concordance_counts(n: int, times: list, occurred: list,
                       risks: list) -> tuple:
    """Count (concordant, risk-tied, comparable) ordered pairs.

    Pair (i, j) is comparable when sample i's event occurred and
    t_i < t_j; concordant when risk_i > risk_j. Each event bisects into
    the sorted risks of strictly later groups (so risks must not be NaN).
    """
    conc = 0
    tied = 0
    comp = 0
    later = []
    for _, members in risk_groups(times):
        for i in members:
            if occurred[i]:
                lo = bisect_left(later, risks[i])
                conc += lo
                tied += bisect_right(later, risks[i], lo) - lo
                comp += len(later)
        for i in members:
            insort(later, risks[i])
    return conc, tied, comp
