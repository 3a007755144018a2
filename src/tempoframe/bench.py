"""Config-driven benchmarking: k-fold cross-validation of a pipeline on a
bundle, with a byte-deterministic report.

Configs and reports are JSON. Reports are emitted with fixed key order and
17-significant-digit floats so that identical (bundle, config) inputs give
byte-identical files, timing fields aside; that is what the golden-file
tests compare.
"""

from __future__ import annotations

import csv
import hashlib
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
from tempoframe.bundle import MANIFEST_NAME, read_bundle
from tempoframe.data import Dataset, select_samples
from tempoframe.errors import (
    BenchError,
    ConfigError,
    IoError,
    TempoframeError,
    TooFewSamples,
)
from tempoframe.interpret import permutation_importance
from tempoframe.kernels import mean_std
from tempoframe.metrics import TASKS, resolve_metric
from tempoframe.plugins import (
    Category,
    build_pipeline,
    resolve_params,
    spec_of,
)
from tempoframe.rng import Lcg

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
    base = n // k
    extra = n % k
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(shuffled[start:start + size])
        start += size
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
    doc: dict            # parsed config, echoed verbatim into the report
    sha256: str
    bundle: str          # absolute manifest path
    task: str
    pipeline: tuple      # ((plugin_name, params_dict), ...)
    metrics: tuple
    folds: int
    seed: int
    output: str = None
    truth: str = None
    importance: dict = None


def _require(doc: dict, key: str, typ, what: str):
    if key not in doc:
        raise ConfigError(f"config is missing {key!r}")
    v = doc[key]
    if not isinstance(v, typ) or isinstance(v, bool):
        raise ConfigError(f"config {key!r} must be {what}")
    return v


def _manifest_path(path: str) -> str:
    return os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path


def config_from_doc(doc: dict, base_dir: str, sha256: str) -> BenchConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"bundle", "task", "pipeline", "metrics", "cv", "output",
               "truth", "importance"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    bundle = _require(doc, "bundle", str, "a path string")
    task = _require(doc, "task", str, "a task name")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; one of {list(TASKS)}")

    raw_steps = _require(doc, "pipeline", list, "a list of steps")
    if not raw_steps:
        raise ConfigError("pipeline must have at least one step")
    steps = []
    for i, step in enumerate(raw_steps):
        if not isinstance(step, dict) or "plugin" not in step:
            raise ConfigError(f"pipeline step {i} must be an object with "
                              "a 'plugin' key")
        stray = sorted(set(step) - {"plugin", "params"})
        if stray:
            raise ConfigError(f"pipeline step {i} has unknown keys: {stray}")
        name = step["plugin"]
        params = step.get("params", {})
        if not isinstance(name, str) or not isinstance(params, dict):
            raise ConfigError(f"pipeline step {i}: plugin must be a string "
                              "and params an object")
        try:
            spec = spec_of(name)
            resolve_params(spec.schema, params)
        except TempoframeError as e:
            raise ConfigError(f"pipeline step {i}: {e}") from e
        steps.append((name, params))
    for name, _ in steps[:-1]:
        if spec_of(name).category is not Category.TRANSFORM:
            raise ConfigError(f"interior pipeline step {name!r} is not a "
                              "transform")
    final_cat = spec_of(steps[-1][0]).category
    if final_cat is not TASKS[task].category:
        raise ConfigError(
            f"task {task!r} needs a final {TASKS[task].category.value} "
            f"step, got {steps[-1][0]!r} ({final_cat.value})")

    raw_metrics = _require(doc, "metrics", list, "a list of metric names")
    if not raw_metrics:
        raise ConfigError("metrics must name at least one metric")
    for m in raw_metrics:
        if not isinstance(m, str):
            raise ConfigError("metric names must be strings")
        try:
            spec = resolve_metric(m)
        except TempoframeError as e:
            raise ConfigError(str(e)) from e
        if spec.task != task:
            raise ConfigError(f"metric {m!r} does not apply to task {task!r}")
    if len(set(raw_metrics)) != len(raw_metrics):
        raise ConfigError("metrics contain duplicates")

    cv = _require(doc, "cv", dict, "an object")
    stray = sorted(set(cv) - {"folds", "seed"})
    if stray:
        raise ConfigError(f"cv has unknown keys: {stray}")
    folds = _require(cv, "folds", int, "an integer")
    seed = _require(cv, "seed", int, "an integer")
    if folds < 2:
        raise ConfigError(f"cv.folds must be >= 2, got {folds}")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output must be a path string")

    truth = doc.get("truth")
    if task == "treatment":
        if truth is None:
            raise ConfigError("task 'treatment' needs a 'truth' file with "
                              "per-sample true effects")
        if not isinstance(truth, str):
            raise ConfigError("truth must be a path string")
    elif truth is not None:
        raise ConfigError("'truth' only applies to the treatment task")

    importance = doc.get("importance")
    if importance is not None:
        if not isinstance(importance, dict):
            raise ConfigError("importance must be an object")
        stray = sorted(set(importance) - {"metric", "repeats", "seed"})
        if stray:
            raise ConfigError(f"importance has unknown keys: {stray}")
        imetric = _require(importance, "metric", str, "a metric name")
        irepeats = importance.get("repeats", 1)
        iseed = importance.get("seed", 0)
        if not isinstance(irepeats, int) or isinstance(irepeats, bool) \
                or irepeats < 1:
            raise ConfigError("importance.repeats must be an integer >= 1")
        if not isinstance(iseed, int) or isinstance(iseed, bool):
            raise ConfigError("importance.seed must be an integer")
        try:
            ispec = resolve_metric(imetric)
        except TempoframeError as e:
            raise ConfigError(str(e)) from e
        if ispec.task != task or not TASKS[task].in_place:
            raise ConfigError(
                f"importance metric {imetric!r} is not scorable in place "
                f"for task {task!r}")
        importance = {"metric": imetric, "repeats": irepeats, "seed": iseed}

    def resolve(p):
        return os.path.normpath(os.path.join(base_dir, p))

    return BenchConfig(
        doc=doc, sha256=sha256,
        bundle=_manifest_path(resolve(bundle)),
        task=task, pipeline=tuple(steps), metrics=tuple(raw_metrics),
        folds=folds, seed=seed,
        output=resolve(output) if output is not None else None,
        truth=resolve(truth) if truth is not None else None,
        importance=importance)


def load_config(path) -> BenchConfig:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise IoError(f"cannot read config {path}: {e}") from e
    sha256 = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    return config_from_doc(doc, os.path.dirname(os.path.abspath(path)),
                           sha256)


def read_truth(path) -> dict:
    """Per-sample true effects: CSV with header sample_id,effect."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise IoError(f"cannot read truth file {path}: {e}") from e
    except (UnicodeDecodeError, csv.Error) as e:
        raise ConfigError(f"{path}: unreadable CSV: {e}") from None
    if not rows or rows[0] != ["sample_id", "effect"]:
        raise ConfigError(f"{path}: expected header sample_id,effect")
    out = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ConfigError(f"{path}: line {i}: expected 2 fields")
        sid, val = row
        if sid in out:
            raise ConfigError(f"{path}: line {i}: duplicate sample {sid!r}")
        try:
            out[sid] = float(val)
        except ValueError:
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


def _final_params(config: BenchConfig) -> dict:
    name, params = config.pipeline[-1]
    return resolve_params(spec_of(name).schema, params)


def _eval_fold(config: BenchConfig, fold: int, fitted, test: Dataset,
               truth_map) -> dict:
    with _step(fold, "predict"):
        pred, truth = TASKS[config.task].observe(
            fitted, test, _final_params(config), truth_map)
    values = {}
    for name in config.metrics:
        with _step(fold, f"metric {name}"):
            values[name] = resolve_metric(name).score(pred, truth)
            if not math.isfinite(values[name]):
                raise BenchError(f"non-finite score {values[name]!r}")
    return values


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchReport:
    config_doc: dict
    config_sha256: str
    version: str
    folds: int
    metrics: dict        # name -> {"folds": [...], "mean": x, "stddev": x}
    importance: dict
    fold_seconds: list
    total_seconds: float

    def to_doc(self) -> dict:
        doc = {
            "config": self.config_doc,
            "config_sha256": self.config_sha256,
            "version": self.version,
            "folds": self.folds,
            "metrics": self.metrics,
        }
        if self.importance is not None:
            doc["importance"] = self.importance
        # Timing comes last so deterministic content forms a stable prefix.
        doc["timing"] = {"fold_seconds": self.fold_seconds,
                         "total_seconds": self.total_seconds}
        return doc


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise BenchError(f"cannot serialize non-finite float {v!r}")
    return format(v, ".17g")


def _emit(v, pad: str) -> str:
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        parts = []
        for k, val in v.items():
            parts.append(f'{pad}  {json.dumps(str(k), ensure_ascii=False)}: '
                         f'{_emit(val, pad + "  ")}')
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        parts = [f"{pad}  {_emit(x, pad + '  ')}" for x in v]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise BenchError(f"cannot serialize {type(v).__name__} in a report")


def report_text(report: BenchReport) -> str:
    """Fixed key order, 17-significant-digit floats, LF line ends."""
    return _emit(report.to_doc(), "") + "\n"


def strip_timing(text: str) -> str:
    """Report text with the timing block zeroed, for byte comparisons."""
    doc = json.loads(text)
    doc["timing"] = {"fold_seconds": [0.0] * len(doc["timing"]["fold_seconds"]),
                     "total_seconds": 0.0}
    return _emit(doc, "") + "\n"


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
        fitted = build_pipeline(config.pipeline).fit(train)
    values = _eval_fold(config, fold, fitted, test, truth_map)
    rep = None
    if config.importance is not None:
        with _step(fold, "importance"):
            rep = permutation_importance(
                fitted, test, config.importance["metric"],
                config.importance["repeats"], config.importance["seed"])
    seconds = time.perf_counter() - t0
    log.info("fold %d done: %s", fold,
             {k: values[k] for k in config.metrics})
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


def run_benchmark(config: BenchConfig) -> BenchReport:
    t_start = time.perf_counter()
    ds = read_bundle(config.bundle)
    truth_map = read_truth(config.truth) if config.truth is not None else None
    splits = kfold_split(ds, config.folds, config.seed)
    per_metric = {name: [] for name in config.metrics}
    importance = None
    if config.importance is not None:
        importance = {"metric": config.importance["metric"],
                      "repeats": config.importance["repeats"],
                      "seed": config.importance["seed"],
                      "features": None, "baselines": [], "folds": []}
    fold_seconds = []
    for values, rep, seconds in _run_folds(config, splits, truth_map):
        for name in config.metrics:
            per_metric[name].append(values[name])
        if importance is not None:
            importance["features"] = list(rep.features)
            importance["baselines"].append(rep.baseline)
            importance["folds"].append(list(rep.importances))
        fold_seconds.append(seconds)
    metrics_doc = {}
    for name in config.metrics:
        mean, std = mean_std(per_metric[name])
        metrics_doc[name] = {"folds": list(per_metric[name]),
                             "mean": mean, "stddev": std}
    report = BenchReport(
        config_doc=config.doc, config_sha256=config.sha256,
        version=__version__, folds=config.folds, metrics=metrics_doc,
        importance=importance, fold_seconds=fold_seconds,
        total_seconds=time.perf_counter() - t_start)
    if config.output is not None:
        try:
            with open(config.output, "w", encoding="utf-8",
                      newline="\n") as f:
                f.write(report_text(report))
        except OSError as e:
            raise IoError(f"cannot write report {config.output}: {e}") from e
    return report
