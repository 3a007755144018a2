"""Cross-validation splitting, config parsing, the benchmark harness,
report emission, and the command line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from datagen import classification_dataset, regular_series_dataset, \
    survival_dataset
from tempoframe import bench, interpret
from tempoframe.bench import (
    BenchConfig,
    config_from_doc,
    kfold_split,
    load_config,
    read_truth,
    report_text,
    run_benchmark,
    strip_timing,
    write_truth,
)
from tempoframe.bundle import read_bundle, write_bundle
from tempoframe.cli import cli
from tempoframe.data import (
    MISSING,
    Continuous,
    EventSamples,
    Integer,
    RoleMap,
    StaticSamples,
    assemble_dataset,
    build_static_samples,
)
from tempoframe.errors import (
    BenchError,
    ConfigError,
    IoError,
    NonBinaryTarget,
    TooFewSamples,
)
from tempoframe.metrics import MetricSpec
from tempoframe.rng import Lcg
from tempoframe.treatment import synth_treatment_data
from tempoframe._version import __version__


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _classify_doc(**extra):
    doc = {"bundle": "bundle", "task": "classify",
           "pipeline": [{"plugin": "classify.logistic",
                         "params": {"iters": 60}}],
           "metrics": ["accuracy"], "cv": {"folds": 2, "seed": 0}}
    doc.update(extra)
    return doc


def _classify_setup(tmp_path, n=24, **extra):
    write_bundle(classification_dataset(0, n=n), str(tmp_path / "bundle"))
    return _write_config(tmp_path, _classify_doc(**extra))


# ---------------------------------------------------------------------------
# kfold_split
# ---------------------------------------------------------------------------

def test_kfold_partitions_samples():
    ds = classification_dataset(1, n=23)
    for k in (2, 3, 5):
        splits = kfold_split(ds, k, seed=4)
        assert len(splits) == k
        test_ids = [list(test.sample_ids) for _, test in splits]
        flat = [sid for fold in test_ids for sid in fold]
        assert sorted(flat) == sorted(ds.sample_ids)
        sizes = [len(fold) for fold in test_ids]
        assert max(sizes) - min(sizes) <= 1
        for train, test in splits:
            assert set(train.sample_ids).isdisjoint(test.sample_ids)
            assert len(train.sample_ids) + len(test.sample_ids) == 23


def test_kfold_is_seeded():
    ds = classification_dataset(2, n=12)
    a = kfold_split(ds, 3, seed=5)
    b = kfold_split(ds, 3, seed=5)
    assert [t.sample_ids for _, t in a] == [t.sample_ids for _, t in b]
    c = kfold_split(ds, 3, seed=6)
    assert [t.sample_ids for _, t in a] != [t.sample_ids for _, t in c]


def test_kfold_bounds():
    ds = classification_dataset(3, n=6)
    with pytest.raises(TooFewSamples):
        kfold_split(ds, 1, seed=0)
    with pytest.raises(TooFewSamples):
        kfold_split(ds, 7, seed=0)
    splits = kfold_split(ds, 6, seed=0)
    assert all(len(test.sample_ids) == 1 for _, test in splits)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_happy_path_resolves_paths(tmp_path):
    path = _classify_setup(tmp_path, output="out/report.txt")
    config = load_config(path)
    assert config.task == "classify"
    assert config.bundle == str(tmp_path / "bundle" / "manifest")
    assert config.output == str(tmp_path / "out" / "report.txt")
    assert config.pipeline == (("classify.logistic", {"iters": 60}),)
    assert config.folds == 2 and config.seed == 0
    raw = (tmp_path / "config.json").read_bytes()
    assert config.sha256 == hashlib.sha256(raw).hexdigest()


def test_config_rejections(tmp_path):
    base = str(tmp_path)

    def bad(doc):
        with pytest.raises(ConfigError):
            config_from_doc(doc, base, "0" * 64)

    bad("not an object")
    bad(_classify_doc(surprise=1))
    bad(_classify_doc(task="regression"))
    bad(_classify_doc(pipeline=[]))
    bad(_classify_doc(pipeline=[{"plugin": "no.such"}]))
    bad(_classify_doc(pipeline=[{"plugin": "classify.logistic",
                                 "params": {"zzz": 1}}]))
    bad(_classify_doc(pipeline=[{"plugin": "classify.logistic",
                                 "extra": 1}]))
    # interior step must be a transform
    bad(_classify_doc(pipeline=[{"plugin": "classify.logistic"},
                                {"plugin": "classify.logistic"}]))
    # final step category must fit the task
    bad(_classify_doc(pipeline=[{"plugin": "scale.zscore"}]))
    bad(_classify_doc(metrics=[]))
    bad(_classify_doc(metrics=["accuracy", "accuracy"]))
    bad(_classify_doc(metrics=["rmse"]))
    bad(_classify_doc(metrics=["no_such_metric"]))
    bad(_classify_doc(cv={"folds": 1, "seed": 0}))
    bad(_classify_doc(cv={"folds": 2, "seed": 0, "shuffle": True}))
    bad(_classify_doc(cv={"folds": True, "seed": 0}))
    bad(_classify_doc(truth="effects.csv"))
    bad(_classify_doc(importance={"metric": "rmse"}))
    bad(_classify_doc(importance={"metric": "c_index"}))
    bad(_classify_doc(importance={"metric": "accuracy", "repeats": 0}))
    bad(_classify_doc(importance={"metric": "accuracy", "extra": 1}))

    survival_doc = {"bundle": "b", "task": "survival",
                    "pipeline": [{"plugin": "survival.cox"}],
                    "metrics": ["rmse"], "cv": {"folds": 2, "seed": 0}}
    bad(survival_doc)

    treatment_doc = {"bundle": "b", "task": "treatment",
                     "pipeline": [{"plugin": "treatment.t_learner"}],
                     "metrics": ["pehe"], "cv": {"folds": 2, "seed": 0}}
    bad(treatment_doc)  # truth missing


def test_config_importance_defaults(tmp_path):
    doc = _classify_doc(importance={"metric": "accuracy"})
    config = config_from_doc(doc, str(tmp_path), "0" * 64)
    assert config.importance == {"metric": "accuracy", "repeats": 1,
                                 "seed": 0}


def test_load_config_io_errors(tmp_path):
    with pytest.raises(IoError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# truth files
# ---------------------------------------------------------------------------

def test_truth_round_trip(tmp_path):
    path = str(tmp_path / "truth.csv")
    write_truth(path, ("a", "b"), (1.5, -0.25))
    assert read_truth(path) == {"a": 1.5, "b": -0.25}
    text = open(path, encoding="utf-8").read()
    assert text.startswith("sample_id,effect\n")


def test_truth_rejections(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("wrong,header\na,1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_truth(str(path))
    path.write_text("sample_id,effect\na,1\na,2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_truth(str(path))
    path.write_text("sample_id,effect\na,notanumber\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_truth(str(path))
    path.write_text("sample_id,effect\na\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_truth(str(path))


# ---------------------------------------------------------------------------
# run_benchmark per task
# ---------------------------------------------------------------------------

def test_classify_benchmark_and_report_shape(tmp_path):
    config = load_config(_classify_setup(tmp_path, n=30))
    report = run_benchmark(config)
    assert report.version == __version__
    assert report.folds == 2
    entry = report.metrics["accuracy"]
    assert len(entry["folds"]) == 2
    assert all(0.0 <= v <= 1.0 for v in entry["folds"])
    mean = sum(entry["folds"]) / 2
    assert entry["mean"] == mean
    var = sum((v - mean) ** 2 for v in entry["folds"]) / 2
    assert math.isclose(entry["stddev"], math.sqrt(var), abs_tol=1e-15)
    assert len(report.fold_seconds) == 2


def test_forecast_benchmark(tmp_path):
    ds = regular_series_dataset(42, n=8, length=12, phi=0.7, c=1.0)
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "forecast.ar",
                         "params": {"order": 1, "horizon": 3,
                                    "step": 1.0}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 7}}
    report = run_benchmark(load_config(_write_config(tmp_path, doc)))
    folds = report.metrics["rmse"]["folds"]
    assert len(folds) == 2
    assert all(v >= 0.0 and math.isfinite(v) for v in folds)
    # the AR(1) generator is recovered almost exactly
    assert report.metrics["rmse"]["mean"] < 1e-6


def test_forecast_holdout_needs_history(tmp_path):
    ds = regular_series_dataset(1, n=6, length=4)
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "forecast.persistence",
                         "params": {"horizon": 4, "step": 1.0}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 0}}
    with pytest.raises(BenchError) as exc:
        run_benchmark(load_config(_write_config(tmp_path, doc)))
    assert "fold 0" in str(exc.value)


def test_survival_benchmark(tmp_path):
    ds = survival_dataset(5, n=30, censor_rate=0.2, effect=2.0)
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "survival",
           "pipeline": [{"plugin": "survival.cox",
                         "params": {"iters": 100}}],
           "metrics": ["c_index", "brier@3.0"],
           "cv": {"folds": 2, "seed": 1}}
    report = run_benchmark(load_config(_write_config(tmp_path, doc)))
    assert set(report.metrics) == {"c_index", "brier@3.0"}
    assert report.metrics["c_index"]["mean"] > 0.5
    assert 0.0 <= report.metrics["brier@3.0"]["mean"] <= 1.0


def test_treatment_benchmark(tmp_path):
    truth = synth_treatment_data(40, seed=1, tau0=3.0)
    write_bundle(truth.dataset, str(tmp_path / "bundle"))
    write_truth(str(tmp_path / "bundle" / "truth.csv"),
                truth.dataset.sample_ids, truth.effects)
    doc = {"bundle": "bundle", "task": "treatment",
           "pipeline": [{"plugin": "treatment.t_learner"}],
           "metrics": ["pehe"], "cv": {"folds": 2, "seed": 3},
           "truth": "bundle/truth.csv"}
    report = run_benchmark(load_config(_write_config(tmp_path, doc)))
    assert report.metrics["pehe"]["mean"] <= 1e-5


def test_treatment_truth_must_cover_samples(tmp_path):
    truth = synth_treatment_data(20, seed=2, tau0=1.0)
    write_bundle(truth.dataset, str(tmp_path / "bundle"))
    write_truth(str(tmp_path / "truth.csv"),
                truth.dataset.sample_ids[:5], truth.effects[:5])
    doc = {"bundle": "bundle", "task": "treatment",
           "pipeline": [{"plugin": "treatment.t_learner"}],
           "metrics": ["pehe"], "cv": {"folds": 2, "seed": 0},
           "truth": "truth.csv"}
    with pytest.raises(BenchError):
        run_benchmark(load_config(_write_config(tmp_path, doc)))


def test_benchmark_with_pipeline_and_importance(tmp_path):
    path = _classify_setup(
        tmp_path, n=30,
        pipeline=[{"plugin": "scale.zscore"},
                  {"plugin": "classify.logistic", "params": {"iters": 60}}],
        importance={"metric": "accuracy", "repeats": 2, "seed": 5})
    report = run_benchmark(load_config(path))
    imp = report.importance
    assert imp["metric"] == "accuracy"
    assert imp["repeats"] == 2 and imp["seed"] == 5
    assert imp["features"] == ["x1", "x2"]
    assert len(imp["baselines"]) == 2
    assert len(imp["folds"]) == 2
    assert all(len(row) == 2 for row in imp["folds"])


def test_importance_baseline_is_the_fold_score(tmp_path):
    """Fold scoring and importance share one (pred, truth) scoring path."""
    classify = load_config(_classify_setup(
        tmp_path, n=30, importance={"metric": "accuracy", "repeats": 1}))
    write_bundle(survival_dataset(5, n=30, censor_rate=0.2, effect=2.0),
                 str(tmp_path / "surv"))
    survival = load_config(_write_config(tmp_path, {
        "bundle": "surv", "task": "survival",
        "pipeline": [{"plugin": "survival.cox", "params": {"iters": 50}}],
        "metrics": ["brier@3.0", "c_index"], "cv": {"folds": 3, "seed": 2},
        "importance": {"metric": "c_index"}}, name="surv.json"))
    for config, metric in ((classify, "accuracy"), (survival, "c_index")):
        report = run_benchmark(config)
        folds = report.metrics[metric]["folds"]
        assert len(folds) == config.folds
        for i, value in enumerate(folds):
            assert report.importance["baselines"][i] == value


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_text_layout_and_determinism(tmp_path):
    config = load_config(_classify_setup(tmp_path, n=24))
    a = report_text(run_benchmark(config))
    b = report_text(run_benchmark(config))
    assert strip_timing(a) == strip_timing(b)
    assert a != b or a == b  # timing may or may not coincide

    doc = json.loads(a)
    assert list(doc.keys()) == ["config", "config_sha256", "version",
                                "folds", "metrics", "timing"]
    assert doc["config"] == json.loads(
        (tmp_path / "config.json").read_text(encoding="utf-8"))
    assert a.endswith("\n") and "\r" not in a
    # floats survive the 17-significant-digit round trip exactly
    report = run_benchmark(config)
    for v, parsed in zip(report.metrics["accuracy"]["folds"],
                         json.loads(a)["metrics"]["accuracy"]["folds"]):
        assert float(parsed) == v

    stripped = json.loads(strip_timing(a))
    assert stripped["timing"] == {"fold_seconds": [0.0, 0.0],
                                  "total_seconds": 0.0}
    del stripped["timing"]
    full = json.loads(a)
    del full["timing"]
    assert stripped == full


def test_report_written_to_output(tmp_path):
    config = load_config(_classify_setup(tmp_path, output="report.txt"))
    report = run_benchmark(config)
    text = open(tmp_path / "report.txt", encoding="utf-8",
                newline="").read()
    assert text == report_text(report)
    assert "\r" not in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_plugins_listing(capsys):
    assert cli(["plugins"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    names = [ln.split("\t")[0] for ln in lines]
    assert names == sorted(names)
    assert "survival.cox\tsurvival" in lines

    assert cli(["plugins", "--category", "transform"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [ln.split("\t")[0] for ln in lines] == \
        ["encode.onehot", "impute.locf", "impute.mean", "resample.regular",
         "scale.zscore"]


def test_cli_validate(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    write_bundle(classification_dataset(0, n=6), str(bundle))
    assert cli(["validate", str(bundle)]) == 0
    assert capsys.readouterr().out == ""

    static = bundle / "static.csv"
    rows = static.read_text(encoding="utf-8").splitlines()
    rows.insert(2, rows[1])  # duplicate cell
    static.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert cli(["validate", str(bundle)]) == 1
    out = capsys.readouterr().out
    assert "static.csv:3: duplicate_cell" in out

    assert cli(["validate", str(tmp_path / "nope")]) == 2


def test_cli_run(tmp_path, capsys):
    config_path = _classify_setup(tmp_path, n=24)
    assert cli(["run", config_path]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["folds"] == 2

    assert cli(["run", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    bad = _write_config(tmp_path, _classify_doc(task="nonsense"),
                        name="bad.json")
    assert cli(["run", bad]) == 2
    capsys.readouterr()


def test_cli_run_writes_output_quietly(tmp_path, capsys):
    config_path = _classify_setup(tmp_path, output="r.txt")
    assert cli(["run", config_path]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "r.txt").exists()


def test_cli_run_runtime_failure(tmp_path, capsys):
    ds = regular_series_dataset(1, n=6, length=3)
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "forecast.persistence",
                         "params": {"horizon": 5, "step": 1.0}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 0}}
    assert cli(["run", _write_config(tmp_path, doc)]) == 1
    capsys.readouterr()


def _run_cli(tmp_path, doc):
    return subprocess.run(
        [sys.executable, "-m", "tempoframe", "run",
         _write_config(tmp_path, doc)],
        capture_output=True, text=True, env=dict(os.environ))


def _assert_clean_failure(proc, prefix):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"tempoframe: {prefix}")
    assert proc.stdout == ""


def _diverging_cox_doc(tmp_path, n, metrics):
    # step_size 50 drives the Cox fit to a zero or non-finite risk-set sum
    write_bundle(survival_dataset(5, n=n, censor_rate=0.2, effect=2.0),
                 str(tmp_path / "bundle"))
    return {"bundle": "bundle", "task": "survival",
            "pipeline": [{"plugin": "survival.cox",
                          "params": {"step_size": 50}}],
            "metrics": metrics, "cv": {"folds": 2, "seed": 1}}


def test_cli_run_non_finite_score_fails_cleanly(tmp_path):
    doc = _diverging_cox_doc(tmp_path, 60, ["brier@5"])
    # c_index alone scores NaN risks as a finite number, so only the fit
    # itself can notice the divergence
    c_index_only = dict(doc, metrics=["c_index"])
    nan_importance = dict(c_index_only, importance={"metric": "brier@5"})
    for d in (doc, c_index_only, nan_importance):
        _assert_clean_failure(_run_cli(tmp_path, d), "fold 0, fit: cox_gd: ")


def test_cli_run_non_finite_importance_fails_cleanly(tmp_path, monkeypatch,
                                                   capsys):
    # fold 0: a finite baseline, then a NaN score with x1 permuted
    scores = iter([0.75, float("nan")])
    monkeypatch.setattr(interpret, "resolve_metric", lambda name: MetricSpec(
        name, "gain", "classify", lambda pred, truth: next(scores)))
    path = _classify_setup(tmp_path, importance={"metric": "accuracy"})
    assert cli(["run", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("tempoframe: fold 0, importance: accuracy is nan "
                        "with feature 'x1' permuted\n")


def test_cli_run_zero_risk_set_sum_fails_cleanly(tmp_path):
    doc = _diverging_cox_doc(tmp_path, 40, ["brier@5"])
    _assert_clean_failure(_run_cli(tmp_path, doc),
                          "fold 1, fit: cox_gd: risk-set sum 0.0 ")


def test_cli_run_overflowing_risk_scores_cleanly(tmp_path):
    # x = 1e6 on one fold-0 test sample overflows e^risk at fold 0's
    # predict; its survival past the first breakpoint is exactly 0.0.
    # Censored before every event, it joins no risk set when fold 1 trains
    # on it, so that fit stays finite.
    ds = survival_dataset(5, n=40, censor_rate=0.2, effect=2.0)
    _, test = kfold_split(ds, 2, 1)[0]
    st, ev = ds.static, ds.events
    i = st.sample_ids.index(test.sample_ids[0])
    rows = tuple((1e6,) if k == i else row for k, row in enumerate(st.values))
    entries = tuple(((0.5, MISSING),) if k == i else e
                    for k, e in enumerate(ev.entries))
    ds = replace(ds,
                 static=StaticSamples(st.sample_ids, st.features, rows),
                 events=EventSamples(ev.sample_ids, ev.features, entries))
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "survival",
           "pipeline": [{"plugin": "survival.cox", "params": {"iters": 50}}],
           "metrics": ["c_index", "brier@5"], "cv": {"folds": 2, "seed": 1}}
    proc = _run_cli(tmp_path, doc)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    metrics = json.loads(proc.stdout)["metrics"]
    for entry in metrics.values():
        assert all(math.isfinite(v) for v in entry["folds"])


def test_cli_run_singular_t_learner_fails_cleanly(tmp_path):
    # a constant 1.0 covariate duplicates the intercept column; ridge 0
    # leaves the normal equations singular
    truth = synth_treatment_data(40, seed=1, tau0=3.0)
    st = truth.dataset.static
    j = st.feature_ids.index("x1")
    rows = tuple(tuple(1.0 if k == j else v for k, v in enumerate(row))
                 for row in st.values)
    ds = replace(truth.dataset,
                 static=StaticSamples(st.sample_ids, st.features, rows))
    write_bundle(ds, str(tmp_path / "bundle"))
    write_truth(str(tmp_path / "truth.csv"), ds.sample_ids, truth.effects)
    doc = {"bundle": "bundle", "task": "treatment",
           "pipeline": [{"plugin": "treatment.t_learner",
                         "params": {"ridge": 0}}],
           "metrics": ["pehe"], "cv": {"folds": 2, "seed": 1},
           "truth": "truth.csv"}
    _assert_clean_failure(_run_cli(tmp_path, doc),
                          "fold 0, fit: lu_solve: singular matrix")


def _cli_proc(*args):
    return subprocess.run([sys.executable, "-m", "tempoframe", *args],
                          capture_output=True, text=True, env=dict(os.environ))


def _assert_clean_exit_1(proc, *fragments):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("tempoframe: ")
    for fragment in fragments:
        assert fragment in proc.stderr


@pytest.mark.parametrize("key,value", [
    ("kinds", []),
    ("features", {"static": 5}),
    ("files", {"static": 5}),
])
def test_cli_malformed_manifest_fails_cleanly(tmp_path, key, value):
    bundle = tmp_path / "bundle"
    write_bundle(classification_dataset(0, n=6), str(bundle))
    manifest = bundle / "manifest"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    _assert_clean_exit_1(_cli_proc("validate", str(bundle)), "manifest")


def test_cli_undecodable_or_oversized_input_fails_cleanly(tmp_path):
    config = _classify_setup(tmp_path, n=12)
    bundle = tmp_path / "bundle"
    manifest = bundle / "manifest"
    good = manifest.read_bytes()
    manifest.write_bytes(good + b"\xff")
    for args in (("validate", str(bundle)), ("run", config)):
        _assert_clean_exit_1(_cli_proc(*args), "manifest: not UTF-8")
    manifest.write_bytes(good)
    static = bundle / "static.csv"
    head = static.read_bytes().splitlines()[:2]
    for bad in (b"s000,x1,\xff", b"s000,x1," + b"1" * 131073):
        static.write_bytes(b"\n".join(head + [bad]) + b"\n")
        for args in (("validate", str(bundle)), ("run", config)):
            _assert_clean_exit_1(_cli_proc(*args), "static.csv: unreadable")

    truth = synth_treatment_data(12, seed=1, tau0=3.0)
    write_bundle(truth.dataset, str(tmp_path / "tbundle"))
    (tmp_path / "truth.csv").write_bytes(b"sample_id,effect\n\xff,1.0\n")
    doc = {"bundle": "tbundle", "task": "treatment",
           "pipeline": [{"plugin": "treatment.t_learner"}],
           "metrics": ["pehe"], "cv": {"folds": 2, "seed": 1},
           "truth": "truth.csv"}
    _assert_clean_exit_1(_cli_proc("run", _write_config(tmp_path, doc)),
                         "truth.csv: unreadable")


def test_cli_synth_ite(tmp_path, capsys):
    out = tmp_path / "synth"
    args = ["synth-ite", "--n", "12", "--seed", "4", "--out", str(out)]
    assert cli(args) == 0
    assert (out / "manifest").exists()
    truth = read_truth(str(out / "truth.csv"))
    assert len(truth) == 12
    assert all(v == 3.0 for v in truth.values())

    again = tmp_path / "synth2"
    assert cli(["synth-ite", "--n", "12", "--seed", "4", "--out",
                str(again)]) == 0
    for name in ("manifest", "static.csv", "truth.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes()

    assert cli(["synth-ite", "--n", "12", "--seed", "0", "--out",
                str(tmp_path / "g"), "--gamma", "1.0,oops"]) == 2
    assert cli(["synth-ite", "--n", "2", "--seed", "0", "--out",
                str(tmp_path / "h")]) == 2
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert cli([]) == 2
    assert cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_module_entry_point(tmp_path):
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "tempoframe", "plugins"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "treatment.t_learner\ttreatment" in proc.stdout


# ---------------------------------------------------------------------------
# golden report
# ---------------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_golden_report_byte_match():
    config = load_config(os.path.join(GOLDEN, "config.json"))
    report = run_benchmark(config)
    got = strip_timing(report_text(report))
    with open(os.path.join(GOLDEN, "expected_report.txt"),
              encoding="utf-8", newline="") as f:
        expected = f.read()
    assert got == expected

    # a second run differs at most in timing
    again = strip_timing(report_text(run_benchmark(config)))
    assert again == expected


# ---------------------------------------------------------------------------
# fold processes
# ---------------------------------------------------------------------------

def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(bench, "_usable_cpus", lambda: n)


def _count_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _task_doc(tmp_path, task, folds):
    bundle = str(tmp_path / "bundle")
    cv = {"folds": folds, "seed": 3}
    if task == "forecast":
        write_bundle(regular_series_dataset(42, n=10, length=12), bundle)
        return {"bundle": "bundle", "task": "forecast",
                "pipeline": [{"plugin": "forecast.ar",
                              "params": {"order": 2, "horizon": 3,
                                         "step": 1.0}}],
                "metrics": ["rmse"], "cv": cv}
    if task == "classify":
        write_bundle(classification_dataset(0, n=30), bundle)
        return _classify_doc(
            pipeline=[{"plugin": "scale.zscore"},
                      {"plugin": "classify.logistic",
                       "params": {"iters": 60}}],
            cv=cv, importance={"metric": "accuracy", "repeats": 2,
                               "seed": 5})
    if task == "survival":
        write_bundle(survival_dataset(5, n=40, censor_rate=0.2, effect=2.0),
                     bundle)
        return {"bundle": "bundle", "task": "survival",
                "pipeline": [{"plugin": "survival.cox",
                              "params": {"iters": 50}}],
                "metrics": ["c_index", "brier@3.0"], "cv": cv,
                "importance": {"metric": "c_index", "repeats": 2}}
    truth = synth_treatment_data(40, seed=1, tau0=3.0, noise=0.5)
    write_bundle(truth.dataset, bundle)
    write_truth(str(tmp_path / "truth.csv"), truth.dataset.sample_ids,
                truth.effects)
    return {"bundle": "bundle", "task": "treatment",
            "pipeline": [{"plugin": "treatment.t_learner"}],
            "metrics": ["pehe"], "cv": cv, "truth": "truth.csv"}


def _fold_reports(config, monkeypatch):
    """Report texts of `config` run in-process and with forked folds."""
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    in_process = report_text(run_benchmark(config))
    assert forks == []
    _usable_cpus(monkeypatch, 2)
    with _deadline(60):
        forked = report_text(run_benchmark(config))
    assert len(forks) == config.folds - 1
    _assert_no_child_left()
    return in_process, forked


@pytest.mark.parametrize("folds", [2, 3, 5])
@pytest.mark.parametrize("task",
                         ["forecast", "classify", "survival", "treatment"])
def test_forked_folds_give_the_in_process_report(tmp_path, monkeypatch,
                                                 task, folds):
    config = load_config(_write_config(tmp_path,
                                       _task_doc(tmp_path, task, folds)))
    in_process, forked = _fold_reports(config, monkeypatch)
    assert strip_timing(forked) == strip_timing(in_process)
    assert len(json.loads(forked)["timing"]["fold_seconds"]) == folds


def test_fold_result_larger_than_a_pipe_buffer(tmp_path, monkeypatch):
    # long feature ids make one fold's importance result ~75 KB, above
    # the 64 KiB a pipe buffers
    names = [f"f{j:03d}_" + "x" * 300 for j in range(240)]
    rng = Lcg(7)
    rows = []
    for i in range(20):
        values = [rng.uniform_in(-1.0, 1.0) for _ in names]
        rows += [(f"s{i:02d}", fid, v) for fid, v in zip(names, values)]
        rows.append((f"s{i:02d}", "y", int(values[0] > 0.0)))
    kinds = dict.fromkeys(names, Continuous())
    kinds["y"] = Integer()
    ds = assemble_dataset(
        static=build_static_samples(rows, kinds),
        roles=RoleMap.of(covariates=tuple(names), targets=("y",)))
    write_bundle(ds, str(tmp_path / "bundle"))
    config = load_config(_write_config(tmp_path, _classify_doc(
        importance={"metric": "accuracy"})))
    assert sum(map(len, names)) > 65536
    in_process, forked = _fold_reports(config, monkeypatch)
    assert strip_timing(forked) == strip_timing(in_process)


def _failing_eval(monkeypatch, failing):
    """Folds in `failing` raise at predict, the lowest one last in time."""
    real = bench._eval_fold

    def eval_fold(config, fold, fitted, test, truth_map):
        if fold not in failing:
            return real(config, fold, fitted, test, truth_map)
        if fold == min(failing):
            time.sleep(0.3)
        with bench._step(fold, "predict"):
            raise NonBinaryTarget(f"failure {fold}")

    monkeypatch.setattr(bench, "_eval_fold", eval_fold)


@pytest.mark.parametrize("failing", [(1, 2), (0, 1, 2)])
def test_lowest_failing_fold_is_reported(tmp_path, monkeypatch, failing):
    config = load_config(_classify_setup(tmp_path, cv={"folds": 3,
                                                       "seed": 0}))
    _failing_eval(monkeypatch, failing)
    lo = min(failing)
    expected = f"fold {lo}, predict: non_binary_target: failure {lo}"
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        with _deadline(60), pytest.raises(BenchError) as exc:
            run_benchmark(config)
        assert str(exc.value) == expected
        _assert_no_child_left()


def _fail_in_worker(monkeypatch, fold, fail):
    """Fold `fold` calls `fail()`, which it may do only in a child."""
    parent = os.getpid()
    real = bench._eval_fold

    def eval_fold(config, i, *rest):
        if i == fold:
            assert os.getpid() != parent, "fold ran in the parent"
            fail()
        return real(config, i, *rest)

    monkeypatch.setattr(bench, "_eval_fold", eval_fold)
    _usable_cpus(monkeypatch, 2)


def test_worker_dying_without_a_result_fails_its_fold(tmp_path, monkeypatch,
                                                      capsys):
    path = _classify_setup(tmp_path, cv={"folds": 3, "seed": 0})
    _fail_in_worker(monkeypatch, 2, lambda: os._exit(3))
    with _deadline(60):
        assert cli(["run", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "tempoframe: fold 2: worker exited with status 3\n"
    _assert_no_child_left()


def test_worker_exception_reaches_the_parent_with_its_type(tmp_path,
                                                          monkeypatch):
    config = load_config(_classify_setup(tmp_path, cv={"folds": 3,
                                                       "seed": 0}))
    _fail_in_worker(monkeypatch, 1, lambda: 1 / 0)
    with _deadline(60), pytest.raises(RuntimeError) as exc:
        run_benchmark(config)
    assert str(exc.value).startswith("fold 1: ZeroDivisionError")
    assert "division by zero" in str(exc.value)
    _assert_no_child_left()


def test_debug_log_times_each_fold_phase_once(tmp_path):
    path = _classify_setup(tmp_path, cv={"folds": 3, "seed": 0})
    proc = subprocess.run(
        [sys.executable, "-m", "tempoframe", "run", path],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, TEMPOFRAME_LOG="debug"))
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    for fold in range(3):
        for phase in ("fit", "predict", "metric accuracy"):
            pattern = rf"tempoframe\.bench: fold {fold}, {phase}: \d+\.\d+ s"
            assert sum(bool(re.fullmatch(pattern, ln)) for ln in lines) == 1
