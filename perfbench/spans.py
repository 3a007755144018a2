"""Span recorder for the traced run, installed from outside the library.

Wrappers are installed by identity scan: every attribute of a loaded
`tempoframe.*` module that *is* one of the named public functions is
replaced, so a new import site of the same function is still traced.
Lifecycle methods are wrapped on their classes and named by the module
that defines the plugin's `fit` (e.g. `survival.predict`).

Each span records name, start, end, parent and op id. Spans stay in
memory; the worker writes them out when the run ends. Counters are
computed from call arguments and results after the op finishes, so their
cost never lands inside a span.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

from tempoframe import MISSING

# kernel -> its work as a function of the call arguments
_KERNEL_WORK = {
    # rows x iterations
    "cox_gd": lambda a: a[0] * a[6],
    "logistic_gd": lambda a: a[0] * a[5],
    # rows x cols^2: the normal-equation accumulation
    "ridge_normal_solve": lambda a: a[0] * a[1] * a[1],
    # n^2 ordered pairs
    "concordance_counts": lambda a: a[0] * a[0],
}


def _kernel_counter(name):
    work = _KERNEL_WORK[name]
    return lambda args, kwargs, result: {
        f"kernels.{name}_calls": 1, f"kernels.{name}_work": work(args)}


def _dataset_rows(ds) -> int:
    """Long-format rows a bundle holds for this dataset (one per CSV line)."""
    rows = 0
    if ds.static is not None:
        rows += sum(1 for row in ds.static.values for v in row
                    if v is not MISSING)
    if ds.temporal is not None:
        rows += sum(len(seq) for per in ds.temporal.series for seq in per)
    if ds.events is not None:
        rows += sum(1 for per in ds.events.entries for e in per
                    if e is not None)
    return rows


def _brier_reads(args, kwargs, result):
    _, outcomes, horizon = args
    read = sum(1 for o in outcomes if o.time > horizon or o.occurred)
    return {"survival.curves_read": read}


# (module, attribute, span name, counter); the counter maps
# (args, kwargs, result) to {counter_name: count}.
_FUNCTIONS = [
    ("tempoframe.kernels", k, f"kernels.{k}", _kernel_counter(k))
    for k in _KERNEL_WORK
] + [
    ("tempoframe.data", "covariate_matrix", "data.covariate_matrix",
     lambda a, kw, r: {"data.covariate_matrix_calls": 1,
                       "data.covariate_matrix_cells": len(r[0]) * len(r[1])}),
    ("tempoframe.plugins", "fingerprint_of", "plugins.fingerprint_of",
     lambda a, kw, r: {"plugins.fingerprint_calls": 1}),
    ("tempoframe.bundle", "read_bundle", "bundle.read_bundle",
     lambda a, kw, r: {"bundle.read_rows": _dataset_rows(r)}),
    ("tempoframe.bundle", "write_bundle", "bundle.write_bundle",
     lambda a, kw, r: {"bundle.write_rows": _dataset_rows(a[0])}),
    ("tempoframe.bench", "load_config", "bench.load_config", None),
    ("tempoframe.bench", "kfold_split", "bench.kfold_split", None),
    ("tempoframe.bench", "report_text", "bench.report_text", None),
    ("tempoframe.bench", "run_benchmark", "bench.run_benchmark", None),
    ("tempoframe.interpret", "permutation_importance",
     "interpret.permutation_importance", None),
    ("tempoframe.treatment", "synth_treatment_data",
     "treatment.synth_treatment_data", None),
    ("tempoframe.forecasting", "rmse", "metrics.rmse", None),
    ("tempoframe.forecasting", "accuracy", "metrics.accuracy", None),
    ("tempoframe.survival", "concordance_index", "metrics.concordance_index",
     None),
    ("tempoframe.survival", "brier_score", "metrics.brier_score",
     _brier_reads),
    ("tempoframe.treatment", "pehe", "metrics.pehe", None),
]


def _layer(fitted) -> str:
    """The module that defines the plugin, e.g. `survival`."""
    fit = fitted.spec.fit
    return "plugins" if fit is None else fit.__module__.split(".")[-1]


def _lifecycle(kind: str):
    """Span namer for a lifecycle method; args[0] is the estimator."""
    return lambda args: f"{_layer(args[0])}.{kind}"


def _survival_curves(args, kwargs, result):
    if _layer(args[0]) != "survival":
        return None
    return {"survival.curves_built": len(result.curves)}


def _transform_calls(args, kwargs, result):
    return {f"{_layer(args[0])}.transform_calls": 1}


# (module, class, method, span namer, counter)
_METHODS = [
    ("tempoframe.plugins", "Estimator", "fit", _lifecycle("fit"), None),
    ("tempoframe.plugins", "PipelineEstimator", "fit",
     lambda args: "plugins.pipeline_fit", None),
    ("tempoframe.plugins", "FittedEstimator", "transform",
     _lifecycle("transform"), _transform_calls),
    ("tempoframe.plugins", "FittedEstimator", "predict",
     _lifecycle("predict"), _survival_curves),
    ("tempoframe.plugins", "FittedEstimator", "predict_counterfactuals",
     _lifecycle("predict"), None),
    ("tempoframe.plugins", "PipelineFitted", "predict",
     lambda args: "plugins.pipeline_predict", None),
    ("tempoframe.plugins", "PipelineFitted", "predict_counterfactuals",
     lambda args: "plugins.pipeline_predict", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Recorder.spans, -1 for an op's root span
    op: int


class Recorder:
    """Holds spans and pending counter evaluations for the traced ops."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.counter_errors: set = set()
        self._stack: list = []
        self._pending: list = []
        self._installed: list = []
        self._op = -1

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._op))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, fn):
        """Run fn() as one op under a root span; returns (result, counts)."""
        self._op = op
        self._pending = []
        root = self._enter("op")
        try:
            result = fn()
        finally:
            self._exit(root)
        counts: dict = {}
        for span, counter, args, kwargs, returned in self._pending:
            try:
                found = counter(args, kwargs, returned) or {}
            except Exception as e:  # a changed signature must not fail the op
                self.counter_errors.add(f"{span}: {type(e).__name__}: {e}")
                continue
            for name, value in found.items():
                counts[name] = counts.get(name, 0) + value
        self._pending = []
        return result, counts

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, namer, counter):
        rec = self

        def traced(*args, **kwargs):
            name = namer(args)
            idx = rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit(idx)
            if counter is not None:
                rec._pending.append((name, counter, args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every named target; a target that no longer exists is
        recorded in `missing` and skipped."""
        self.missing = []
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "tempoframe"
                                        or n.startswith("tempoframe."))]
        for module, attr, name, counter in _FUNCTIONS:
            try:
                target = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(target, lambda args, name=name: name,
                                 counter)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, target))
        for module, cls_name, meth, namer, counter in _METHODS:
            try:
                cls = getattr(importlib.import_module(module), cls_name)
                target = cls.__dict__[meth]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._wrap(target, namer, counter))
            self._installed.append((cls, meth, target))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the time its children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations can simply be subtracted.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def has_ancestor(spans: list, idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
