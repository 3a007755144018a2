"""Fixed reference workloads that measure how fast the host runs Python
at the moment they run.

The benchmark runs on shared hosts whose speed for the same code swings
by up to 1.7x, in phases of seconds to minutes, and the swings are
invisible from inside: CPU time rises with wall time. So every timing
is paired with runs of a reference workload right before and right
after it, and reported scaled to the reference speed:

    scaled = seconds * reference / mean(reference run before, after)

Ops are paired with `reference_run`, a gradient loop in the style of
the program's pure kernels (lists of floats, `math.exp`, running sums in
a sorted order).
Of the candidates tried (an integer loop, string and dict building,
this loop) it tracked the ops' swings closest: in a nine-minute run that
alternated it (at twice this length) with survival-cox and forecast-ar
ops, 30-second window medians of raw op time spread 0.16-0.20 of their
median (first to third quartile) and scaled ones 0.03-0.04. It imports
nothing from the program, so no change to the program moves it.

Set-up probes (a fresh interpreter importing the program) are paired
with `reference_import`, a fresh interpreter importing a fixed set of
standard-library modules. Against the loop above, 0.1-second imports
did not track; against this, the per-probe ratio's quartiles spread 0.10
of its median where raw probe times spread 0.45, and medians of eight
consecutive ratios stayed within 5% of each other.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

# Seconds of one `reference_run` and of the imports in one
# `reference_import` at the reference speed, rounded from medians on a
# 2-vCPU Intel Xeon VM with Python 3.11.7. They only fix the unit:
# scaled timings read as seconds at that speed.
REFERENCE_S = 0.22
REFERENCE_IMPORT_S = 0.06

_STDLIB_IMPORT = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import argparse, csv, dataclasses, decimal, difflib, email.parser, "
    "fractions, http.client, json, logging, statistics, tarfile, typing, "
    "unittest, xml.dom.minidom, zipfile\n"
    "print(repr(time.perf_counter() - start))\n")

_ROWS, _COLS, _ITERS = 400, 12, 100


def _inputs() -> tuple:
    """Fixed covariates and times from a small LCG (no `random`, so the
    inputs cannot change with the Python version)."""
    state = 12345
    values = []
    for _ in range(_ROWS * (_COLS + 1)):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        values.append((state >> 11) / 2.0**53 - 0.5)
    return values[:_ROWS * _COLS], values[_ROWS * _COLS:]


_Z, _TIMES = _inputs()
_ORDER = sorted(range(_ROWS), key=lambda i: _TIMES[i], reverse=True)


def _loop() -> list:
    z, m = _Z, _COLS
    beta = [0.0] * m
    for _ in range(_ITERS):
        risk = 0.0
        wz = [0.0] * m
        grad = [0.0] * m
        for i in _ORDER:
            base = i * m
            eta = 0.0
            for j in range(m):
                eta += z[base + j] * beta[j]
            w = math.exp(eta)
            risk += w
            for j in range(m):
                wz[j] += w * z[base + j]
            for j in range(m):
                grad[j] += z[base + j] - wz[j] / risk
        for j in range(m):
            beta[j] += 1e-4 * grad[j]
    return beta


def reference_run() -> float:
    """Wall seconds of one run of the reference workload."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def reference_import(timeout: float) -> float:
    """Seconds a fresh interpreter takes to import the fixed modules."""
    out = subprocess.run([sys.executable, "-c", _STDLIB_IMPORT], check=True,
                         capture_output=True, text=True, timeout=timeout)
    return float(out.stdout)


def scale(seconds: float, before: float, after: float,
          reference: float) -> float:
    """`seconds` at the reference speed, given the reference runs that
    bracket it and their time at that speed."""
    return seconds * reference * 2.0 / (before + after)
