"""Config-driven benchmarking: k-fold cross-validation of a pipeline on a
bundle, with a byte-deterministic report.

Configs and reports are JSON. Reports are written by `json.dumps`, as
bundle manifests are: fixed key order and shortest round-trip (`repr`)
floats, so that identical (bundle, config) inputs give byte-identical
files, timing fields aside; that is what the golden-file tests compare.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

from tempoframe._version import __version__
from tempoframe.bundle import locate_manifest, read_bundle, read_number
from tempoframe.data import Dataset, fields, load_json, select_samples
from tempoframe.errors import (
    BenchError,
    ConfigError,
    IoError,
    ParseError,
    TempoframeError,
    TooFewSamples,
)
from tempoframe.interpret import check_importance, importance_of
from tempoframe.kernels import mean_std
from tempoframe.metrics import TASKS, MetricSpec, resolve_metric
from tempoframe.plugins import Estimator, build_pipeline
from tempoframe.rng import Lcg, check_seed

log = logging.getLogger("tempoframe.bench")


# ---------------------------------------------------------------------------
# Cross-validation splitting
# ---------------------------------------------------------------------------

def kfold_split(ds: Dataset, k: int, seed: int) -> list:
    """Seeded sample-level partition into k (train, test) pairs.

    Fold sizes differ by at most one; a sample's entire static/temporal/event
    data stays on one side of each split.
    """
    if k < 2:
        raise TooFewSamples(f"cross-validation needs k >= 2, got k={k}")
    ids = list(ds.sample_ids)
    n = len(ids)
    if n < k:
        raise TooFewSamples(f"{n} samples cannot fill {k} folds")
    perm = Lcg(seed).permutation(n)
    shuffled = [ids[i] for i in perm]
    base, extra = divmod(n, k)  # the first `extra` folds take one more
    bounds = [i * base + min(i, extra) for i in range(k + 1)]
    folds = [shuffled[a:b] for a, b in zip(bounds, bounds[1:])]
    out = []
    for i in range(k):
        test = folds[i]
        train = [sid for j, fold in enumerate(folds) if j != i
                 for sid in fold]
        out.append((select_samples(ds, train), select_samples(ds, test)))
    return out


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig:
    """A checked config, which is also the run's plan: every fold fits
    `estimator` and scores with `metrics` (and `importance_metric`)."""
    doc: dict            # parsed config, echoed verbatim into the report
    bundle: str          # absolute manifest path
    task: str
    estimator: Estimator  # the unfitted pipeline
    metrics: tuple       # (MetricSpec, ...) in config order
    folds: int
    seed: int
    output: str = None
    truth: str = None
    importance: dict = None
    importance_metric: MetricSpec = None


def _check_metric(name, task: str, where: str) -> MetricSpec:
    """The spec of `name` if it names a metric of `task`."""
    if not isinstance(name, str):
        raise ConfigError(f"{where} must hold metric names, got {name!r}")
    try:
        spec = resolve_metric(name)
    except TempoframeError as e:
        raise ConfigError(f"{where}: {e}") from e
    if spec.task != task:
        raise ConfigError(f"{where}: metric {name!r} does not apply to task "
                          f"{task!r}")
    return spec


def config_from_doc(doc: dict, base_dir: str) -> BenchConfig:
    """The config of a parsed document, checked by building the pipeline
    and resolving the metrics the run uses; every object is read by
    `fields`, and an optional key may be null. A ConfigError names the key
    and its object. Paths are resolved against `base_dir`."""
    (bundle, task, raw_steps, metrics, cv, output, truth,
     importance) = fields(doc, {
        "bundle": (str, ...), "task": (str, ...), "pipeline": (list, ...),
        "metrics": (list, ...), "cv": (dict, ...), "output": (str, None),
        "truth": (str, None), "importance": (dict, None)},
        ConfigError, "config", nullable=True)
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; one of {list(TASKS)}")

    if not raw_steps:
        raise ConfigError("pipeline must have at least one step")
    steps = [fields(step, {"plugin": (str, ...), "params": (dict, {})},
                    ConfigError, f"pipeline step {i}", nullable=True)
             for i, step in enumerate(raw_steps)]
    try:
        est = build_pipeline(steps)
    except TempoframeError as e:
        raise ConfigError(f"pipeline {e}") from e
    if est.spec.category is not TASKS[task].category:
        raise ConfigError(
            f"task {task!r} needs a final {TASKS[task].category.value} step, "
            f"got {est.spec.name!r} ({est.spec.category.value})")

    specs = tuple(_check_metric(m, task, "config 'metrics'") for m in metrics)
    if not metrics:
        raise ConfigError("config 'metrics' must name one or more metrics")
    named = {}   # a metric name, or a Brier horizon -> the name first given
    for spec in specs:
        key = spec.name if spec.horizon is None else spec.horizon
        if key in named:
            raise ConfigError(f"config 'metrics' names one metric twice: "
                              f"{named[key]!r} and {spec.name!r}")
        named[key] = spec.name

    folds, seed = fields(cv, {"folds": (int, ...), "seed": (int, ...)},
                         ConfigError, "cv", nullable=True)
    seed = check_seed(seed, "cv 'seed'", ConfigError)
    if folds < 2:
        raise ConfigError(f"cv 'folds' must be >= 2, got {folds}")

    if (task == "treatment") != (truth is not None):
        raise ConfigError("config is missing 'truth'" if truth is None else
                          "'truth' only applies to the treatment task")

    importance_metric = None
    if importance is not None:
        metric, repeats, shuffle_seed = fields(importance, {
            "metric": (str, ...), "repeats": (int, 1), "seed": (int, 0)},
            ConfigError, "importance", nullable=True)
        importance = {"metric": metric, "repeats": repeats,
                      "seed": check_seed(shuffle_seed, "importance 'seed'",
                                         ConfigError)}
        if repeats < 1:
            raise ConfigError("importance 'repeats' must be >= 1")
        _check_metric(metric, task, "importance 'metric'")
        try:
            importance_metric = check_importance(est, metric)
        except TempoframeError as e:
            raise ConfigError(str(e)) from e

    def resolve(p):
        if p is not None:
            return os.path.normpath(os.path.join(base_dir, p))

    return BenchConfig(doc=doc, bundle=locate_manifest(resolve(bundle)),
                       task=task, estimator=est, metrics=specs,
                       folds=folds, seed=seed, output=resolve(output),
                       truth=resolve(truth), importance=importance,
                       importance_metric=importance_metric)


def load_config(path) -> BenchConfig:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise IoError(f"cannot read config {path}: {e}") from e
    return config_from_doc(load_json(raw, ConfigError, path),
                           os.path.dirname(os.path.abspath(path)))


def read_truth(path) -> dict:
    """Per-sample true effects, each a number `read_number` reads: CSV
    with header sample_id,effect."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            # each record with the file line it starts on, since a quoted
            # sample id may hold a line break
            rows, line = [], 1
            for row in reader:
                rows.append((line, row))
                line = reader.line_num + 1
    except OSError as e:
        raise IoError(f"cannot read truth file {path}: {e}") from e
    except (UnicodeDecodeError, csv.Error) as e:
        raise ConfigError(f"{path}: unreadable CSV: {e}") from None
    if not rows or rows[0][1] != ["sample_id", "effect"]:
        raise ConfigError(f"{path}: expected header sample_id,effect")
    out = {}
    for i, row in rows[1:]:
        if len(row) != 2:
            raise ConfigError(f"{path}: line {i}: expected 2 fields")
        sid, val = row
        if sid in out:
            raise ConfigError(f"{path}: line {i}: duplicate sample {sid!r}")
        try:
            out[sid] = read_number(val)
        except ParseError:
            raise ConfigError(f"{path}: line {i}: bad effect {val!r}") \
                from None
    return out


def write_truth(path, sample_ids, effects) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["sample_id", "effect"])
            for sid, tau in zip(sample_ids, effects):
                w.writerow([sid, repr(float(tau))])
    except OSError as e:
        raise IoError(f"cannot write truth file {path}: {e}") from e


# ---------------------------------------------------------------------------
# Fold evaluation
# ---------------------------------------------------------------------------

@contextmanager
def _step(fold: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except TempoframeError as e:
        raise BenchError(f"fold {fold}, {label}: {e}") from e
    log.debug("fold %d, %s: %.6f s", fold, label, time.perf_counter() - t0)


def _eval_fold(config: BenchConfig, fold: int, fitted, test: Dataset,
               truth_map) -> tuple:
    """(metric values, importance report or None) of `fitted` on `test`:
    an in-place task scores both from one featurization of `test`."""
    task = TASKS[config.task]
    with _step(fold, "predict"):
        if task.in_place:
            predict = fitted.predictor(test)
            pred, truth = predict(None, None), task.truth(test)
        else:
            pred, truth = task.held_out(fitted, test, truth_map)
    values = {}
    for spec in config.metrics:
        with _step(fold, f"metric {spec.name}"):
            values[spec.name] = spec.score(pred, truth)
            if not math.isfinite(values[spec.name]):
                raise BenchError(f"non-finite score {values[spec.name]!r}")
    if config.importance is None:
        return values, None
    with _step(fold, "importance"):
        return values, importance_of(predict, pred, truth, test,
                                     config.importance_metric,
                                     config.importance["repeats"],
                                     config.importance["seed"])


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def report_text(doc: dict) -> str:
    """A report document as text: fixed key order, repr floats, LF line
    ends; a non-finite float is a BenchError."""
    try:
        return json.dumps(doc, indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"
    except ValueError:
        raise BenchError("cannot serialize a non-finite float in a "
                         "report") from None


def strip_timing(text: str) -> str:
    """Report text with the timing block zeroed, for byte comparisons."""
    doc = load_json(text, BenchError, "report")
    doc["timing"] = {"fold_seconds": [0.0] * len(doc["timing"]["fold_seconds"]),
                     "total_seconds": 0.0}
    return report_text(doc)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _run_fold(config: BenchConfig, fold: int, train: Dataset,
              test: Dataset, truth_map) -> tuple:
    """One fold: (metric values, importance report or None, seconds)."""
    log.info("fold %d: %d train / %d test samples", fold,
             len(train.sample_ids), len(test.sample_ids))
    t0 = time.perf_counter()
    with _step(fold, "fit"):
        fitted = config.estimator.fit(train)
    values, rep = _eval_fold(config, fold, fitted, test, truth_map)
    seconds = time.perf_counter() - t0
    log.info("fold %d done: %s", fold, values)
    return values, rep, seconds


def _usable_cpus() -> int:
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _max_children() -> int:
    """How many folds may run in forked children at once: one per usable
    CPU, or none where there is no fork, one CPU, or a second thread
    (a forked child gets only the calling thread, so a lock another
    thread holds would stay locked in it)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    cpus = _usable_cpus()
    return cpus if cpus >= 2 else 0


def _fork_fold(run, fold: int) -> tuple:
    """Start `run(fold)` in a child; return (pid, read end of its pipe).

    The child pickles ("ok", result), ("error", message) for a
    TempoframeError, or ("crash", type name, traceback text) to the pipe,
    and always leaves through `os._exit`, so it never returns into the
    caller's stack, flushes nothing of its parent's and runs no exit
    handler. Messages, not exception objects, cross the pipe: not every
    error class survives a pickle round trip.
    """
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError as e:
        os.close(r)
        os.close(w)
        raise BenchError(f"fold {fold}: cannot start a worker: {e}") from e
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                msg = ("ok", run(fold))
            except TempoframeError as e:
                msg = ("error", str(e))
            except BaseException as e:
                msg = ("crash", type(e).__name__, traceback.format_exc())
            with open(w, "wb") as f:
                pickle.dump(msg, f, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _collect_fold(fold: int, pid: int, r: int):
    """Read a child's message to EOF (it may exceed the pipe buffer), reap
    the child, and return its result or raise its error."""
    import pickle

    try:
        with open(r, "rb") as f:
            data = f.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchError(f"fold {fold}: worker exited with status {code}")
    msg = pickle.loads(data)
    if msg[0] == "error":
        raise BenchError(msg[1])
    if msg[0] == "crash":
        raise RuntimeError(f"fold {fold}: {msg[1]} in a worker\n{msg[2]}")
    return msg[1]


def _run_folds(config: BenchConfig, splits: list, truth_map) -> list:
    """Every fold's `_run_fold` result, in fold order.

    Folds 1..k-1 run in forked children, at most `_max_children()` at a
    time, while this process runs fold 0; the lowest failing fold's error
    is raised, as a sequential loop would. Every child is reaped on every
    path. Where no child may be forked, this process runs every fold.
    """
    def run(i):
        return _run_fold(config, i, *splits[i], truth_map)

    limit = _max_children()
    if limit == 0:
        return [run(i) for i in range(len(splits))]
    queue = iter(range(1, len(splits)))
    live = {}    # fold -> (pid, read fd)
    try:
        for i in queue:
            live[i] = _fork_fold(run, i)
            if len(live) == limit:
                break
        results = [run(0)]
        for i in range(1, len(splits)):
            results.append(_collect_fold(i, *live.pop(i)))
            nxt = next(queue, None)
            if nxt is not None:
                live[nxt] = _fork_fold(run, nxt)
        return results
    finally:
        import signal

        for pid, r in live.values():
            os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)


def run_benchmark(config: BenchConfig) -> dict:
    """The report document of `config`'s run, also written to
    `config.output` when it is set."""
    t_start = time.perf_counter()
    ds = read_bundle(config.bundle)
    truth_map = read_truth(config.truth) if config.truth is not None else None
    splits = kfold_split(ds, config.folds, config.seed)
    results = _run_folds(config, splits, truth_map)
    metrics = {}
    for spec in config.metrics:
        folds = [values[spec.name] for values, _, _ in results]
        mean, std = mean_std(folds)
        metrics[spec.name] = {"folds": folds, "mean": mean, "stddev": std}
    report = {"config": config.doc, "version": __version__,
              "folds": config.folds, "metrics": metrics}
    if config.importance is not None:
        reps = [rep for _, rep, _ in results]
        report["importance"] = {
            **config.importance, "features": list(reps[-1].features),
            "baselines": [rep.baseline for rep in reps],
            "folds": [list(rep.importances) for rep in reps]}
    # Timing comes last so deterministic content forms a stable prefix.
    report["timing"] = {"fold_seconds": [sec for _, _, sec in results],
                        "total_seconds": time.perf_counter() - t_start}
    if config.output is not None:
        try:
            with open(config.output, "w", encoding="utf-8",
                      newline="\n") as f:
                f.write(report_text(report))
        except OSError as e:
            raise IoError(f"cannot write report {config.output}: {e}") from e
    return report
