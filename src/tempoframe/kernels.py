"""Numeric kernels: the fitting inner loops, in plain Python.

Every loop fixes its iteration and accumulation order, so a fit gives the
same doubles on every run. Golden reports depend on that: rewriting a loop
in a mathematically equivalent but reassociated form changes their bytes.

A sample matrix crosses this boundary as per-feature columns: one list of
floats per feature, in sample order. A reduction over samples adds left to
right from 0.0 (`_dot`), and `linear_predictor` adds w_j * x_ij to each
sample in column order. Both consume the columns four per pass over the
samples (`_dots` keeps four accumulators; the predictor adds four terms in
one left-to-right expression), which saves interpreter loop overhead but
leaves each sample's terms and each dot's terms added in the same order,
so the doubles are those of one column at a time. `accumulate(...,
initial=0.0)` adds left to right from 0.0 as `_dot` does, so its prefix
sums are allowed. Do not replace any of these with `sum()`, `math.fsum` or
`math.sumprod` (`tests/test_imports.py` fails on any call to them in any
module of the package): they round differently (and `sum()` of floats is
compensated from Python 3.12 on), which changes the golden bytes.
`map(math.exp, ...)` is allowed where an `OverflowError` falls back to
`_exp`, which keeps its saturation to inf. A fit that meets a singular
system or produces non-finite values raises `FitDiverged` instead of
returning them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, groupby

from tempoframe.errors import AlignmentError, FitDiverged

_INF = float("inf")


def backend_name() -> str:
    """Always "pure". It stays because the benchmark (`perfbench/worker.py`)
    calls it on every run to fill its `kernel_backend` field."""
    return "pure"


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


def _dot(a: list, b: list) -> float:
    """Sum of a_i * b_i, added left to right from 0.0. A plain loop: on
    CPython 3.11 it is faster than the last value of
    `accumulate(map(mul, a, b), initial=0.0)`, which adds in the same order."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _dots(v: list, columns: list) -> list:
    """`[_dot(v, col) for col in columns]`, four columns per pass over v:
    each of the four sums starts at 0.0 and adds v_i * x_i left to right,
    so it is the same double as its `_dot`. The 0-3 columns left over go
    through `_dot`. Every column has v's length."""
    out = []
    full = len(columns) - len(columns) % 4
    for j in range(0, full, 4):
        s0 = s1 = s2 = s3 = 0.0
        for x, a, b, c, d in zip(v, *columns[j:j + 4]):
            s0 += x * a
            s1 += x * b
            s2 += x * c
            s3 += x * d
        out += (s0, s1, s2, s3)
    out += [_dot(v, col) for col in columns[full:]]
    return out


def mean_std(values: list) -> tuple:
    """Population mean and standard deviation of a non-empty list, in two
    left-to-right passes: the sum, then the squared deviations."""
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    ssq = 0.0
    for v in values:
        d = v - mean
        ssq += d * d
    return mean, math.sqrt(ssq / n)


def _check_lengths(n: int, unit: str, columns=(), **named) -> None:
    """Raise AlignmentError, naming the first offender, unless each of
    `columns` and of the `named` sequences holds n values, one per `unit`."""
    for what, values in [*((f"column {j}", c) for j, c in enumerate(columns)),
                         *named.items()]:
        if len(values) != n:
            raise AlignmentError(f"{what} has {len(values)} values for {n} "
                                 f"{unit}")


def linear_predictor(columns: list, weights: list, start: list) -> list:
    """start_i + sum over j of w_j * x_ij per sample, the terms added in
    column order (as `s += w_j * x_ij` would); `start` holds one value per
    sample, so a matrix without columns still has a length. Four columns
    go in each pass, as `s + w0 * a + w1 * b + w2 * c + w3 * d`, which
    Python adds left to right, so each sample's terms keep their order;
    the 0-3 columns left over go one per pass. Raises AlignmentError
    unless there is one weight per column and one value per sample in
    each column."""
    if len(weights) != len(columns):
        raise AlignmentError(f"model has {len(weights)} weights for "
                             f"{len(columns)} columns")
    _check_lengths(len(start), "samples", columns)
    xb = start
    full = len(columns) - len(columns) % 4
    for j in range(0, full, 4):
        w0, w1, w2, w3 = weights[j:j + 4]
        xb = [s + w0 * a + w1 * b + w2 * c + w3 * d
              for s, a, b, c, d in zip(xb, *columns[j:j + 4])]
    for w, col in zip(weights[full:], columns[full:]):
        xb = [s + w * z for s, z in zip(xb, col)]
    return xb


def ridge_normal_solve(columns: list, y: list, lam: float,
                       penalty: list) -> list:
    """Solve (XᵀX + λ·diag(penalty)) w = Xᵀy.

    `penalty` has one entry per column (1.0 = penalized, 0.0 = free), so the
    same kernel serves full-diagonal jitter and intercept-free ridge.
    Each entry of XᵀX and Xᵀy is one dot product over samples, taken by
    `_dots` a row of XᵀX at a time; the upper triangle is mirrored.
    Misaligned columns or penalty raise AlignmentError.
    """
    p = len(columns)
    _check_lengths(len(y), "samples", columns)
    _check_lengths(p, "columns", penalty=penalty)
    ata = [0.0] * (p * p)
    for j, cj in enumerate(columns):
        for k, v in enumerate(_dots(cj, columns[j:]), j):
            ata[j * p + k] = ata[k * p + j] = v
        ata[j * p + j] += lam * penalty[j]
    return lu_solve(p, ata, _dots(y, columns))


def _sigmoid(z: float) -> float:
    # Branch keeps exp's argument non-positive; no overflow possible.
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def logistic_gd(columns: list, y: list, lr: float, iters: int) -> tuple:
    """Full-batch gradient descent on mean logistic log-loss, zero init.

    Returns (weights, bias).
    """
    n = len(y)
    w = [0.0] * len(columns)
    b = 0.0
    scale = lr / n
    for _ in range(iters):
        d = [_sigmoid(z) - yi
             for z, yi in zip(linear_predictor(columns, w, [b] * n), y)]
        gb = 0.0
        for v in d:
            gb += v
        w = [wj - scale * g for wj, g in zip(w, _dots(d, columns))]
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


def _risk_layout(columns: list, groups: list, occurred: list) -> tuple:
    """The sweep order of `groups` (from `risk_groups`: latest group first,
    tied samples in index order), built once per fit so that every
    iteration reads its risk sets as prefix sums and its gradient as one
    dot product per column.

    Returns (n, columns, positions, ends, times, first, shifted,
    event_sums). The samples after the last event's group are dropped:
    they are in no risk set, so n counts only the samples that are, and
    `columns` holds the covariate columns permuted into sweep order. For
    each event in sweep order come its index in that order, the number of
    samples up to the end of its tied group (its risk set
    R(t) = {j : t_j >= t} is the prefix before it) and its time. `first`
    gives each sample the index of the first event whose risk set holds
    it: the count of events in earlier groups. `shifted` is each column
    minus its first value, and `event_sums` each shifted column's sum over
    the events, added in sweep order. The shift cancels in the gradient
    (see `_cox_obj_grad`), and a constant column becomes exact zeros.
    """
    order = []
    first = []
    positions = []
    ends = []
    times = []
    for t, members in groups:
        start = len(order)
        order.extend(members)
        first.extend([len(positions)] * len(members))
        for k, i in enumerate(members, start):
            if occurred[i]:
                positions.append(k)
                ends.append(len(order))
                times.append(t)
    n = ends[-1] if ends else 0
    del order[n:], first[n:]
    permuted = [[col[i] for i in order] for col in columns]
    shifted = [[v - col[0] for v in col] for col in permuted]
    event_sums = []
    for col in shifted:
        s = 0.0
        for k in positions:
            s += col[k]
        event_sums.append(s)
    return n, permuted, positions, ends, times, first, shifted, event_sums


def _tied_steps(layout: tuple, sums: list) -> list:
    """[(t, d, S), ...] per event time of `layout`, earliest first: d
    events at t, which end one group and so share S, their entry of
    `sums` (one per event in sweep order, read at its group end)."""
    _, _, _, ends, times, *_ = layout
    tied = [list(g) for _, g in groupby(range(len(ends)), ends.__getitem__)]
    return [(times[g[0]], len(g), sums[g[0]]) for g in reversed(tied)]


def at_risk_counts(times: list, occurred: list) -> list:
    """[(t, d, n), ...] per event time, earliest first: d events at t among
    the n samples of R(t) = {j : t_j >= t}, the group ends of a layout of no
    columns. Flags misaligned with `times` raise AlignmentError."""
    _check_lengths(len(times), "samples", occurred=occurred)
    layout = _risk_layout([], risk_groups(times), occurred)
    return _tied_steps(layout, layout[3])


def _cox_obj_grad(layout: tuple, lam: float, beta: list) -> tuple:
    """Breslow-tie log partial likelihood and its gradient at `beta`.

    S0 is a prefix sum over the sweep order, read at each event's group
    end, so a tied group enters the risk set before any of its events is
    scored, as R(t) = {j : t_j >= t}. Every S0 is checked before any
    division by one. The gradient is the score in its martingale-residual
    form: with the Breslow hazard increments 1/S0 and their suffix sums
    H (the cumulative hazard at each event), sample k weighs
    w_k = e^{x_k b} H_k, where H_k sums the increments of every event whose
    risk set holds k; then g_j = sum over events of z_j - sum over samples
    of z_j w_k. The weights sum to the event count, so the columns'
    shift by a constant cancels, and each entry is `event_sums[j]` minus
    the dot of w with the shifted column (from `_dots`). A cumulative
    hazard that overflows raises `FitDiverged`, so it never reaches the
    gradient. Returns (objective, gradient, S0 of each event).
    """
    n, columns, positions, ends, times, first, shifted, event_sums = layout
    xb = linear_predictor(columns, beta, [0.0] * n)
    try:
        ex = list(map(math.exp, xb))
    except OverflowError:
        ex = [_exp(s) for s in xb]
    prefix = list(accumulate(ex, initial=0.0))
    s0 = [prefix[e] for e in ends]
    obj = 0.0
    for i, s, t in zip(positions, s0, times):
        if not 0.0 < s < _INF:
            raise FitDiverged(
                f"cox_gd: risk-set sum {s!r} at time {t!r} is not "
                "positive and finite")
        obj += xb[i] - math.log(s)
    hazard = list(accumulate([1.0 / s for s in reversed(s0)],
                             initial=0.0))[::-1]
    if hazard[0] == _INF:
        # the suffix sums grow towards index 0; name the event where the
        # cumulative hazard first overflows
        e = hazard.count(_INF) - 1
        raise FitDiverged(
            f"cox_gd: cumulative hazard at time {times[e]!r} is not finite "
            f"(risk-set sum {s0[e]!r})")
    w = [x * hazard[f] for x, f in zip(ex, first)]
    grad = [s - g - 2.0 * lam * b
            for b, g, s in zip(beta, _dots(w, shifted), event_sums)]
    for b in beta:
        obj -= lam * b * b
    return obj, grad, s0


def cox_gd(columns: list, times: list, occurred: list, step: float,
           iters: int, lam: float) -> tuple:
    """Gradient ascent on the ridged Breslow partial likelihood, zero init.

    Returns (beta, objective_trace, final_gradient_norm, baseline); the
    trace has iters+1 entries (value before each update, then at the final
    beta), and the baseline is (event times ascending, Breslow H0(t), the
    sum of d_u / S0(u) over event times u <= t) from the final pass's S0.
    Columns or flags misaligned with `times` raise AlignmentError.
    """
    _check_lengths(len(times), "samples", columns, occurred=occurred)
    layout = _risk_layout(columns, risk_groups(times), occurred)
    beta = [0.0] * len(columns)
    trace = []
    for _ in range(iters):
        obj, grad, _ = _cox_obj_grad(layout, lam, beta)
        trace.append(obj)
        beta = [bj + step * g for bj, g in zip(beta, grad)]
    obj, grad, s0 = _cox_obj_grad(layout, lam, beta)
    trace.append(obj)
    gnorm = math.sqrt(_dot(grad, grad))
    _check_finite("cox_gd", [*beta, *trace, gnorm])
    steps = _tied_steps(layout, s0)
    cumhaz = list(accumulate([d / s for _, d, s in steps], initial=0.0))
    return beta, trace, gnorm, ([t for t, _, _ in steps], cumhaz[1:])


def concordance_counts(n: int, times: list, occurred: list,
                       risks: list) -> tuple:
    """Count (concordant, risk-tied, comparable) ordered pairs of n samples.

    Pair (i, j) is comparable when sample i's event occurred and
    t_i < t_j; concordant when risk_i > risk_j. Each event bisects into
    the sorted risks of strictly later groups (so risks must not be NaN).
    Inputs of another length than n raise AlignmentError.
    """
    _check_lengths(n, "samples", times=times, occurred=occurred, risks=risks)
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
