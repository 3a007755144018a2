"""Cross-validation splitting, config parsing, the benchmark harness,
report emission, and the command line."""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from datagen import classification_dataset, offset_grid_dataset, \
    patient_dataset, regular_series_dataset, survival_dataset
from tempoframe import bench, interpret, metrics, plugins, treatment
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
from tempoframe.bundle import read_bundle, validate_bundle, write_bundle
from tempoframe.cli import cli
from tempoframe.data import (
    MISSING,
    Continuous,
    EventSamples,
    Integer,
    RoleMap,
    assemble_dataset,
    build_static_samples,
    build_time_series_samples,
    covariate_matrix,
    map_columns,
)
from tempoframe.errors import (
    BenchError,
    ConfigError,
    DuplicateFeature,
    InvalidSpec,
    IoError,
    NonBinaryTarget,
    RoleConflict,
    RoleGap,
    TooFewSamples,
)
from tempoframe.metrics import MetricSpec
from tempoframe.plugins import (
    Category,
    EstimatorSpec,
    build_pipeline,
    save_fitted,
)
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


def _forecast_classifier_doc():
    """A forecast task whose final step is a classifier."""
    return _classify_doc(task="forecast", metrics=["rmse"])


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


def test_a_seed_is_a_signed_64_bit_integer():
    # `Lcg` keeps a seed modulo 2**64: a wider seed would alias another
    for seed in (-2 ** 63, -1, 2 ** 63 - 1):
        Lcg(seed)
    assert Lcg(-1).permutation(9) != Lcg(2 ** 63 - 1).permutation(9)
    ds = classification_dataset(2, n=12)
    for seed in (2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64 + 11):
        message = ("^seed must be a signed 64-bit integer, in "
                   rf"\[-2\*\*63, 2\*\*63\), got {seed}$")
        with pytest.raises(InvalidSpec, match=message):
            Lcg(seed)
        with pytest.raises(InvalidSpec, match=message):
            kfold_split(ds, 3, seed)
        with pytest.raises(InvalidSpec, match=message):
            synth_treatment_data(8, seed, tau0=1.0)


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
    assert config.estimator.spec.name == "classify.logistic"
    assert config.estimator.params == {"lr": 0.1, "iters": 60}
    assert config.estimator.front == ()
    assert config.folds == 2 and config.seed == 0
    assert config.doc == json.loads(
        (tmp_path / "config.json").read_text(encoding="utf-8"))


def test_config_rejections(tmp_path):
    base = str(tmp_path)

    def bad(doc):
        with pytest.raises(ConfigError):
            config_from_doc(doc, base)

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
    bad(_classify_doc(pipeline=[{"plugin": "forecast.ar"}]))
    bad(_forecast_classifier_doc())
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
    # a Brier horizon must be a finite number, in the characters `repr`
    # writes for one: `float()` alone reads `5_0` as 50 and takes spaces,
    # non-ASCII digits and a capital E
    for horizon in ("nan", "inf", "-inf", "1e400", "soon", "5_0", " 5",
                    "5 ", "\u0665", "5E0", ""):
        bad(dict(survival_doc, metrics=[f"brier@{horizon}"]))
        bad(dict(survival_doc, metrics=["c_index"],
                 importance={"metric": f"brier@{horizon}"}))
    for horizon in ("+5.0", "5.0", "1e1"):
        config_from_doc(dict(survival_doc, metrics=[f"brier@{horizon}"]),
                        base)
    # a Brier score is its horizon: two spellings of one are one metric
    # named twice, and the refusal names both
    for first, *rest in (["brier@5", "brier@5.0"],
                         ["brier@5", "c_index", "brier@+5"],
                         ["brier@1e1", "brier@10"], ["brier@0", "brier@-0"],
                         ["brier@5", "brier@5e0"], ["brier@5", "brier@+5.0"],
                         ["c_index", "c_index"]):
        twice = (f"config 'metrics' names one metric twice: {first!r} and "
                 f"{rest[-1]!r}")
        with pytest.raises(ConfigError, match=f"^{re.escape(twice)}$"):
            config_from_doc(dict(survival_doc, metrics=[first, *rest]), base)
    config = config_from_doc(
        dict(survival_doc, metrics=["brier@5", "brier@5.5", "c_index"]), base)
    assert [spec.horizon for spec in config.metrics] == [5.0, 5.5, None]

    treatment_doc = {"bundle": "b", "task": "treatment",
                     "pipeline": [{"plugin": "treatment.t_learner"}],
                     "metrics": ["pehe"], "cv": {"folds": 2, "seed": 0}}
    bad(treatment_doc)  # truth missing


def test_config_rejects_non_finite_real_params(tmp_path, capsys):
    survival = {"bundle": "b", "task": "survival",
                "pipeline": [{"plugin": "survival.cox"}],
                "metrics": ["c_index"], "cv": {"folds": 2, "seed": 0}}
    for doc, param in ((_classify_doc(), "lr"), (survival, "step_size"),
                       (survival, "ridge")):
        # JSON NaN and Infinity, and an integer beyond the float range
        for value in (math.nan, math.inf, -math.inf, 10 ** 400):
            doc["pipeline"][0]["params"] = {param: value}
            path = _write_config(tmp_path, doc)
            with pytest.raises(ConfigError, match=f"'{param}'.*not finite"):
                load_config(path)
            assert cli(["run", path]) == 2
    assert "not finite" in capsys.readouterr().err


def test_config_refuses_a_metric_that_is_not_a_name(tmp_path, capsys):
    held = "config 'metrics' must hold metric names, got 1"
    path = _write_config(tmp_path, _classify_doc(metrics=[1]))
    with pytest.raises(ConfigError, match=f"^{re.escape(held)}$"):
        load_config(path)
    assert cli(["run", path]) == 2
    assert held in capsys.readouterr().err


def test_config_rejects_a_t_learner_seed(tmp_path):
    doc = {"bundle": "b", "task": "treatment",
           "pipeline": [{"plugin": "treatment.t_learner",
                         "params": {"seed": 0}}],
           "metrics": ["pehe"], "cv": {"folds": 2, "seed": 0},
           "truth": "truth.csv"}
    with pytest.raises(ConfigError, match="unknown hyperparameter 'seed'"):
        config_from_doc(doc, str(tmp_path))


def test_config_rejects_a_negative_cox_step(tmp_path, capsys):
    # a negative step would run gradient descent on the partial likelihood
    doc = {"bundle": "b", "task": "survival",
           "pipeline": [{"plugin": "survival.cox",
                         "params": {"step_size": -0.1}}],
           "metrics": ["c_index"], "cv": {"folds": 2, "seed": 0}}
    assert cli(["run", _write_config(tmp_path, doc)]) == 2
    assert "param 'step_size': -0.1 below lower bound 0.0" in \
        capsys.readouterr().err


def test_config_importance_defaults(tmp_path):
    doc = _classify_doc(importance={"metric": "accuracy"})
    config = config_from_doc(doc, str(tmp_path))
    assert config.importance == {"metric": "accuracy", "repeats": 1,
                                 "seed": 0}


def test_config_refuses_importance_its_pipeline_cannot_serve(tmp_path,
                                                             monkeypatch):
    # A front step without derived_ids: refused at the config check, with
    # exit 2, before the bundle is read.
    monkeypatch.setitem(plugins._REGISTRY, "test.ident", EstimatorSpec(
        name="test.ident", category=Category.TRANSFORM,
        fit=lambda params, ds: {}, transform=lambda params, state, ds: ds))
    doc = _classify_doc(importance={"metric": "accuracy"})
    doc["pipeline"].insert(0, {"plugin": "test.ident"})
    message = ("importance needs per-sample transforms; 'test.ident' does "
               "not declare derived_ids")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_doc(doc, str(tmp_path))
    write_bundle(classification_dataset(0, n=24), str(tmp_path / "bundle"))
    reads = []
    monkeypatch.setattr(bench, "read_bundle",
                        lambda path: reads.append(path) or read_bundle(path))
    assert (cli(["run", _write_config(tmp_path, doc)]), reads) == (2, [])


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


@pytest.mark.parametrize("edit,message", [
    (lambda t: t.replace("w,3.0", "w,bad"), "line 5: bad effect 'bad'"),
    (lambda t: t.replace("z,2.0", "z,2.0,9"), "line 4: expected 2 fields"),
    (lambda t: t.replace("w,3.0", "z,3.0"), "line 5: duplicate sample 'z'"),
], ids=["bad-effect", "arity", "duplicate"])
def test_truth_fault_after_an_id_that_holds_a_line_feed_names_its_line(
        tmp_path, edit, message):
    # the quoted id "x\ny" takes file lines 2 and 3, so the record of z
    # starts on line 4 and that of w on line 5
    path = tmp_path / "truth.csv"
    write_truth(str(path), ["x\ny", "z", "w"], [1.0, 2.0, 3.0])
    assert read_truth(str(path)) == {"x\ny": 1.0, "z": 2.0, "w": 3.0}
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        read_truth(str(path))
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("effect", ["1_0", " 1.5 ", "\u0661.\u0665",
                                    "1.5\t"],
                         ids=["underscore", "spaces", "arabic-digits", "tab"])
def test_truth_effect_holds_only_the_characters_repr_writes(tmp_path, effect):
    # float() reads each of these, but `write_truth`'s repr writes none
    path = tmp_path / "t.csv"
    path.write_text(f"sample_id,effect\na,1.0\nb,{effect}\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=(
            rf": line 3: bad effect {re.escape(repr(effect))}$")):
        read_truth(str(path))
    # a sign or an exponent is in the alphabet
    path.write_text("sample_id,effect\na,+2.50\nb,-1e-05\n",
                    encoding="utf-8")
    assert read_truth(str(path)) == {"a": 2.5, "b": -1e-05}


@pytest.mark.parametrize("effect", ["nan", "inf", "-inf", "1e999"])
def test_cli_non_finite_true_effect_names_its_line(tmp_path, effect):
    assert cli(["synth-ite", "--n", "40", "--seed", "1", "--out",
                str(tmp_path / "synth")]) == 0
    truth = tmp_path / "synth" / "truth.csv"
    lines = truth.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].split(",")[0] + "," + effect
    truth.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=(
            rf": line 3: bad effect '{re.escape(effect)}'$")):
        read_truth(str(truth))
    doc = {"bundle": "synth", "task": "treatment",
           "pipeline": [{"plugin": "treatment.t_learner"}],
           "metrics": ["pehe"], "cv": {"folds": 2, "seed": 1},
           "truth": "synth/truth.csv"}
    proc = _cli_proc("run", _write_config(tmp_path, doc))
    _assert_clean_exit_1(proc, f"truth.csv: line 3: bad effect '{effect}'")
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# run_benchmark per task
# ---------------------------------------------------------------------------

def test_classify_benchmark_and_report_shape(tmp_path):
    config = load_config(_classify_setup(tmp_path, n=30))
    report = run_benchmark(config)
    assert report["version"] == __version__
    assert report["folds"] == 2
    entry = report["metrics"]["accuracy"]
    assert len(entry["folds"]) == 2
    assert all(0.0 <= v <= 1.0 for v in entry["folds"])
    mean = sum(entry["folds"]) / 2
    assert entry["mean"] == mean
    var = sum((v - mean) ** 2 for v in entry["folds"]) / 2
    assert math.isclose(entry["stddev"], math.sqrt(var), abs_tol=1e-15)
    assert len(report["timing"]["fold_seconds"]) == 2


def test_forecast_benchmark(tmp_path):
    ds = regular_series_dataset(42, n=8, length=12, phi=0.7, c=1.0)
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "forecast.ar",
                         "params": {"order": 1, "horizon": 3,
                                    "step": 1.0}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 7}}
    report = run_benchmark(load_config(_write_config(tmp_path, doc)))
    folds = report["metrics"]["rmse"]["folds"]
    assert len(folds) == 2
    assert all(v >= 0.0 and math.isfinite(v) for v in folds)
    # the AR(1) generator is recovered almost exactly
    assert report["metrics"]["rmse"]["mean"] < 1e-6


def test_forecast_on_a_fractional_grid(tmp_path, capsys):
    # the held-out points sit on t0 + j * 0.1, so the forecast must too
    write_bundle(offset_grid_dataset(3), str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "resample.regular",
                         "params": {"step": 0.1}},
                        {"plugin": "forecast.ar",
                         "params": {"order": 2, "horizon": 2,
                                    "step": 0.1}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 0}}
    assert cli(["run", _write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["metrics"]["rmse"]["mean"] < 1e-6


def test_persistence_forecast_on_a_fractional_grid(tmp_path, capsys):
    # persistence continues the grid too, so its held-out times match
    write_bundle(offset_grid_dataset(3), str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "forecast.persistence",
                         "params": {"horizon": 2, "step": 0.1}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 0}}
    assert cli(["run", _write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert 0.0 < json.loads(captured.out)["metrics"]["rmse"]["mean"] < 1.0


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


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "forked"])
def test_cli_forecast_horizon_exhausting_a_series_fails_cleanly(
        tmp_path, monkeypatch, capfd, cpus):
    # one series of 2 points, in fold 1's test set, cannot hold out 2
    ds = regular_series_dataset(1, n=6, length=5)
    short = kfold_split(ds, 2, 0)[1][1].sample_ids[0]
    i = ds.sample_ids.index(short)
    write_bundle(map_columns(ds, {"hr": lambda column: tuple(
        (times[:2], values[:2]) if k == i else (times, values)
        for k, (times, values) in enumerate(column))}),
        str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "forecast.persistence",
                         "params": {"horizon": 2, "step": 1.0}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 0}}
    _usable_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    assert cli(["run", _write_config(tmp_path, doc)]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == (f"tempoframe: fold 1, predict: sample {short!r} target "
                   "'hr' has 2 points; holding out 2 leaves no history\n")
    assert len(forks) == (1 if cpus > 1 else 0)
    _assert_no_child_left()


def test_forecast_non_finite_score_fails_its_fold(tmp_path, capsys):
    # persistence repeats +-1e308, so a squared error overflows to inf
    points = [(f"s{i}", "y", float(t), (-1.0) ** (i + t) * 1e308)
              for i in range(6) for t in range(5)]
    ds = assemble_dataset(
        static=build_static_samples([(f"s{i}", "a", float(i))
                                     for i in range(6)], {"a": Continuous()}),
        temporal=build_time_series_samples(points, {"y": Continuous()}),
        roles=RoleMap.of(covariates=("a",), targets=("y",)))
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "forecast",
           "pipeline": [{"plugin": "forecast.persistence",
                         "params": {"horizon": 2, "step": 1.0}}],
           "metrics": ["rmse"], "cv": {"folds": 2, "seed": 0}}
    assert cli(["run", _write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == \
        "tempoframe: fold 0, metric rmse: non-finite score inf\n"


def test_survival_benchmark(tmp_path):
    ds = survival_dataset(5, n=30, censor_rate=0.2, effect=2.0)
    write_bundle(ds, str(tmp_path / "bundle"))
    doc = {"bundle": "bundle", "task": "survival",
           "pipeline": [{"plugin": "survival.cox",
                         "params": {"iters": 100}}],
           "metrics": ["c_index", "brier@3.0"],
           "cv": {"folds": 2, "seed": 1}}
    report = run_benchmark(load_config(_write_config(tmp_path, doc)))
    assert set(report["metrics"]) == {"c_index", "brier@3.0"}
    assert report["metrics"]["c_index"]["mean"] > 0.5
    assert 0.0 <= report["metrics"]["brier@3.0"]["mean"] <= 1.0


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
    assert report["metrics"]["pehe"]["mean"] <= 1e-5


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
    imp = report["importance"]
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
        folds = report["metrics"][metric]["folds"]
        assert len(folds) == config.folds
        for i, value in enumerate(folds):
            assert report["importance"]["baselines"][i] == value


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
    assert list(doc.keys()) == ["config", "version", "folds", "metrics",
                                "timing"]
    assert doc["config"] == json.loads(
        (tmp_path / "config.json").read_text(encoding="utf-8"))
    assert a.endswith("\n") and "\r" not in a
    # floats survive their repr round trip exactly
    report = run_benchmark(config)
    for v, parsed in zip(report["metrics"]["accuracy"]["folds"],
                         json.loads(a)["metrics"]["accuracy"]["folds"]):
        assert float(parsed) == v

    stripped = json.loads(strip_timing(a))
    assert stripped["timing"] == {"fold_seconds": [0.0, 0.0],
                                  "total_seconds": 0.0}
    del stripped["timing"]
    full = json.loads(a)
    del full["timing"]
    assert stripped == full


def test_report_floats_are_written_by_repr():
    report = {
        "config": {"cv": {"seed": 1}}, "version": __version__, "folds": 2,
        "metrics": {"rmse": {"folds": [0.1 + 0.2, 1.0], "mean": 2 / 3,
                             "stddev": 5e-324}},
        "timing": {"fold_seconds": [0.5, 0.25], "total_seconds": 1e20}}
    text = report_text(report)
    for v in (0.1 + 0.2, 1.0, 2 / 3, 5e-324, 1e20):
        assert f" {v!r}" in text
    assert json.loads(text) == report
    assert strip_timing(text) == text.replace("0.5,", "0.0,").replace(
        "0.25\n", "0.0\n").replace("1e+20", "0.0")

    # a non-finite float has no JSON text: the report is refused
    nan = {**report, "metrics": {"rmse": {"folds": [math.nan, 1.0],
                                          "mean": math.nan, "stddev": 0.0}}}
    with pytest.raises(BenchError, match="^cannot serialize a non-finite "
                                         "float in a report$"):
        report_text(nan)
    with pytest.raises(BenchError, match="non-finite"):
        strip_timing(text.replace("5e-324", "Infinity"))


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

    for category, names in (("classifier", ["classify.logistic"]),
                            ("forecaster", ["forecast.ar",
                                            "forecast.persistence"])):
        assert cli(["plugins", "--category", category]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == [f"{name}\t{category}" for name in names]


def test_cli_validate(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    write_bundle(classification_dataset(0, n=6), str(bundle))
    assert cli(["validate", str(bundle)]) == 0
    assert capsys.readouterr().out == ""

    static = bundle / "static.csv"
    rows = static.read_text(encoding="utf-8").splitlines()
    rows.append(rows[1])  # a fourth row for three static features
    static.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert cli(["validate", str(bundle)]) == 1
    out = capsys.readouterr().out
    assert out == "static.csv:5: arity: more rows than static features " \
        "(3)\n"

    assert cli(["validate", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("edit,error,message", [
    (lambda doc: doc["roles"].update(ghost="covariate"), RoleConflict,
     "roles assigned to unknown features: ['ghost']"),
    (lambda doc: doc["roles"].update(x="target"), RoleGap,
     "dataset has no covariate feature"),
    (lambda doc: doc["features"]["event"].append(
        {"id": "x", "kind": "continuous"}), DuplicateFeature,
     "feature ids repeat across containers: ['x']"),
], ids=["unknown-feature-role", "no-covariate", "repeated-feature"])
def test_validate_and_read_agree_on_dataset_faults(tmp_path, capsys, edit,
                                                   error, message):
    bundle = tmp_path / "bundle"
    write_bundle(survival_dataset(1, n=12), str(bundle))
    manifest = bundle / "manifest"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    edit(doc)
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    for load in (read_bundle, validate_bundle):
        with pytest.raises(error) as exc:
            load(str(manifest))
        assert str(exc.value) == f"{manifest}: {message}"
    config = _write_config(tmp_path, {
        "bundle": "bundle", "task": "survival",
        "pipeline": [{"plugin": "survival.cox", "params": {"iters": 5}}],
        "metrics": ["c_index"], "cv": {"folds": 2, "seed": 0}})
    for args in (["validate", str(bundle)], ["run", config]):
        assert cli(args) == 1
        assert capsys.readouterr().err == \
            f"tempoframe: {manifest}: {message}\n"


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


def test_cli_run_forecast_ending_in_classifier_fails_config_check(tmp_path):
    write_bundle(classification_dataset(0, n=30), str(tmp_path / "bundle"))
    proc = _run_cli(tmp_path, _forecast_classifier_doc())
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "task 'forecast' needs a final forecaster step, got " \
        "'classify.logistic' (classifier)" in proc.stderr
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


def test_cli_run_scores_a_classifier_without_predict_columns(
        tmp_path, monkeypatch, capsys):
    # a classifier may set only `predict`: a run scores what it predicts
    # as it scores the built-in model, and only importance refuses it
    logistic = plugins.spec_of("classify.logistic")
    queried = []

    def predict(params, state, ds):
        queried.append(ds.sample_ids)
        return logistic.predict_columns(params, state, ds.sample_ids,
                                        *covariate_matrix(ds))

    monkeypatch.setitem(plugins._REGISTRY, "test.dataset_logistic", replace(
        logistic, name="test.dataset_logistic", predict_columns=None,
        predict=predict))
    _usable_cpus(monkeypatch, 1)
    write_bundle(classification_dataset(0, n=24), str(tmp_path / "bundle"))
    scored = []
    for plugin in ("classify.logistic", "test.dataset_logistic"):
        path = _write_config(tmp_path, _classify_doc(
            pipeline=[{"plugin": plugin, "params": {"iters": 60}}],
            cv={"folds": 3, "seed": 0}))
        assert cli(["run", path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        scored.append(json.loads(out)["metrics"])
    assert scored[1] == scored[0]
    assert len(queried) == 3
    path = _write_config(tmp_path, _classify_doc(
        pipeline=[{"plugin": "test.dataset_logistic"}],
        importance={"metric": "accuracy"}))
    assert cli(["run", path]) == 2
    assert capsys.readouterr() == ("", (
        "tempoframe: importance needs a model that reads the covariate "
        "matrix; 'test.dataset_logistic' has no predict_columns\n"))
    assert len(queried) == 3


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
    ev = ds.events
    i = ds.sample_ids.index(test.sample_ids[0])
    (event,) = ev.columns
    ds = map_columns(ds, {"x": lambda column: tuple(
        1e6 if k == i else v for k, v in enumerate(column))})
    ds = replace(ds, events=EventSamples(ev.sample_ids, ev.features, (tuple(
        (0.5, MISSING) if k == i else e for k, e in enumerate(event)),)))
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


def _all_numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _all_numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _all_numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _sweep(tmp_path, capsys, docs) -> list:
    """The exit code of `tempoframe run` on each config of `docs`. Each
    must be 0, 1 or 2 without a raw exception, and an exit-0 report must
    hold only finite numbers."""
    codes = []
    for doc in docs:
        where = json.dumps(doc)
        try:
            code = cli(["run", _write_config(tmp_path, doc)])
        except Exception as e:
            pytest.fail(f"{where}: {type(e).__name__}: {e}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), where
        assert "Traceback" not in err, where
        if code == 0:
            assert all(math.isfinite(v)
                       for v in _all_numbers(json.loads(out))), where
        codes.append(code)
    return codes


def _grid(task, bundles, pipelines, metrics, importances=(None,)):
    """One config per (bundle, pipeline, folds 2 or 5, importance)."""
    return [{"bundle": b, "task": task, "pipeline": pipeline,
             "metrics": metrics, "cv": {"folds": folds, "seed": 1},
             **({"importance": imp} if imp else {})}
            for b in bundles for pipeline in pipelines for folds in (2, 5)
            for imp in importances]


def test_cli_survival_sweep_exits_cleanly(tmp_path, capsys):
    # A fixed grid of survival configs, some diverging, some with too few
    # samples or events per fold.
    bundles = [(1, 30, 0.3), (2, 6, 0.5), (3, 9, 0.9), (5, 40, 0.95)]
    for seed, n, censor_rate in bundles:
        write_bundle(survival_dataset(seed, n=n, censor_rate=censor_rate),
                     str(tmp_path / f"b{seed}"))
    params = [{}, {"iters": 0}, {"step_size": 0}, {"step_size": 1e6},
              {"step_size": -1e6}, {"step_size": 1e-300}, {"ridge": 1e300},
              {"iters": 20, "step_size": 5, "ridge": 0}]
    # every event time of these bundles lies between 2.5 and 6.5
    codes = _sweep(tmp_path, capsys, _grid(
        "survival", [f"b{seed}" for seed, _, _ in bundles],
        [[{"plugin": "survival.cox", "params": p}] for p in params],
        ["c_index", "brier@1", "brier@100"],
        (None, {"metric": "c_index"})))
    assert len(codes) == 128
    assert {0, 1} <= set(codes)


def test_cli_classify_sweep_exits_cleanly(tmp_path, capsys):
    # Missing cells without an imputer, test folds too small for
    # importance, zero and huge learning rates.
    bundles = {"clean": classification_dataset(1, n=30),
               "tiny": classification_dataset(2, n=6),
               "noise": classification_dataset(3, n=20, informative="x2"),
               "patients": patient_dataset(4, n=24, outcome="classify")}
    for name, ds in bundles.items():
        write_bundle(ds, str(tmp_path / name))
    fronts = [[], [{"plugin": "impute.locf"}, {"plugin": "impute.mean"},
                   {"plugin": "scale.zscore"}]]
    params = [{"iters": 30}, {"lr": 0, "iters": 5},
              {"lr": 1e6, "iters": 30}, {"lr": 1e300, "iters": 2}]
    codes = _sweep(tmp_path, capsys, _grid(
        "classify", list(bundles),
        [front + [{"plugin": "classify.logistic", "params": p}]
         for front in fronts for p in params],
        ["accuracy"], (None, {"metric": "accuracy", "seed": 2})))
    assert len(codes) == 128
    assert {0, 1} <= set(codes)


def test_cli_forecast_sweep_exits_cleanly(tmp_path, capsys):
    # Irregular series without a resampler, series too short for the
    # order and horizon, grid steps that miss or match the data's, a
    # negative step.
    bundles = {"regular": regular_series_dataset(1, n=8, length=12),
               "short": regular_series_dataset(2, n=4, length=4),
               "offset": offset_grid_dataset(6, n=8, drop=0.2, keep_last=4)}
    for name, ds in bundles.items():
        write_bundle(ds, str(tmp_path / name))
    fronts = [[], [{"plugin": "resample.regular", "params": {"step": 0.1}}],
              [{"plugin": "resample.regular", "params": {"step": 1.0}}]]
    models = [("forecast.persistence", {"horizon": 2, "step": 1.0}),
              ("forecast.persistence", {"horizon": 1, "step": 0.1}),
              ("forecast.ar", {"order": 1, "horizon": 1, "step": 1.0}),
              ("forecast.ar", {"order": 3, "horizon": 3, "step": 0.1}),
              ("forecast.ar", {"order": 2, "horizon": 2, "step": -1.0})]
    codes = _sweep(tmp_path, capsys, _grid(
        "forecast", list(bundles),
        [front + [{"plugin": name, "params": p}]
         for front in fronts for name, p in models], ["rmse"]))
    assert len(codes) == 90
    assert {0, 1} <= set(codes)


def test_cli_treatment_sweep_exits_cleanly(tmp_path, capsys):
    # Zero, tiny and huge ridges; folds too small for both arms.
    for n, seed in ((40, 1), (8, 2), (12, 3)):
        truth = synth_treatment_data(n, seed, gamma=(1.0, -0.5), noise=0.5)
        write_bundle(truth.dataset, str(tmp_path / f"b{seed}"))
        write_truth(str(tmp_path / f"b{seed}" / "truth.csv"),
                    truth.dataset.sample_ids, truth.effects)
    fronts = [[], [{"plugin": "scale.zscore"}]]
    params = [{}, {"ridge": 0}, {"ridge": 1e300}, {"ridge": 1e-300}]
    codes = _sweep(tmp_path, capsys, [
        dict(doc, truth=f"{doc['bundle']}/truth.csv") for doc in _grid(
            "treatment", ["b1", "b2", "b3"],
            [front + [{"plugin": "treatment.t_learner", "params": p}]
             for front in fronts for p in params], ["pehe"])])
    assert len(codes) == 48
    assert {0, 1} <= set(codes)


# Per object of a config: key -> (the Python type it takes, required).
_CONFIG_KEYS = {
    "config": {"bundle": (str, True), "task": (str, True),
               "pipeline": (list, True), "metrics": (list, True),
               "cv": (dict, True), "output": (str, False),
               "truth": (str, False), "importance": (dict, False)},
    "step": {"plugin": (str, True), "params": (dict, False)},
    "cv": {"folds": (int, True), "seed": (int, True)},
    "importance": {"metric": (str, True), "repeats": (int, False),
                   "seed": (int, False)},
}
# One value of each JSON type; both an integral and a fractional number.
_JSON_VALUES = (None, True, 3, 2.5, "x", ["x"], {"x": 1})


def _config_objects(doc):
    """(name in messages, kind in _CONFIG_KEYS, object) of each object of
    a config."""
    yield "config", "config", doc
    for i, step in enumerate(doc["pipeline"]):
        yield f"pipeline step {i}", "step", step
    yield "cv", "cv", doc["cv"]
    if "importance" in doc:
        yield "importance", "importance", doc["importance"]


def _config_mutations(doc):
    """(config, object name, key) for each one-field mutation of a valid
    config: a required key dropped, a key given a value of a JSON type it
    refuses, and an unknown key added to an object."""
    out = []
    for n, (where, kind, _) in enumerate(_config_objects(doc)):
        def mutated(change):
            copy = json.loads(json.dumps(doc))
            change(list(_config_objects(copy))[n][2])
            return copy

        for key, (typ, required) in _CONFIG_KEYS[kind].items():
            required = required or (key, doc["task"]) == ("truth",
                                                          "treatment")
            if required:
                out.append((mutated(lambda o: o.pop(key)), where, key))
            for v in _JSON_VALUES:
                if (required if v is None
                        else isinstance(v, bool) or not isinstance(v, typ)):
                    out.append((mutated(lambda o: o.update({key: v})),
                                where, key))
        out.append((mutated(lambda o: o.update(zzz=1)), where, "zzz"))
    return out


def test_cli_config_mutation_sweep_exits_cleanly(tmp_path, capsys):
    # Each golden config with one field broken: exit 2 before any bundle is
    # read, with one line that names the key and, for a nested key, its
    # object.
    docs = []
    for path in sorted(glob.glob(os.path.join(GOLDEN, "**", "config.json"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    cases = [case for doc in docs for case in _config_mutations(doc)]
    assert len(docs) == 5 and len(cases) == 524
    for doc, where, key in cases:
        what = f"{where} {key!r}: {json.dumps(doc)}"
        assert cli(["run", _write_config(tmp_path, doc)]) == 2, what
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err, what
        assert err.startswith("tempoframe: ") and err.count("\n") == 1, what
        line = err[len("tempoframe: "):]
        assert repr(key) in line, what
        if where != "config":
            assert line.startswith(f"{where} "), what


def test_cli_run_singular_t_learner_fails_cleanly(tmp_path):
    # a constant 1.0 covariate duplicates the intercept column; ridge 0
    # leaves the normal equations singular
    truth = synth_treatment_data(40, seed=1, tau0=3.0)
    ds = map_columns(truth.dataset,
                     {"x1": lambda column: (1.0,) * len(column)})
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


def test_cli_run_non_finite_zscore_stats_fail_cleanly(tmp_path):
    # x sums past the float range in every training fold, so its mean is
    # inf: the scaler refuses it instead of handing NaN cells on
    rows = []
    for i in range(12):
        sid = f"s{i:02d}"
        rows += [(sid, "x", 1e308 if i % 2 else 1.7e308), (sid, "y", i % 2)]
    write_bundle(assemble_dataset(
        static=build_static_samples(rows, {"x": Continuous(),
                                           "y": Integer()}),
        roles=RoleMap.of(covariates=("x",), targets=("y",))),
        str(tmp_path / "bundle"))
    doc = _classify_doc()
    doc["pipeline"].insert(0, {"plugin": "scale.zscore"})
    proc = _cli_proc("run", _write_config(tmp_path, doc))
    _assert_clean_exit_1(proc, "fit: scale.zscore of 'x': mean is not "
                               "finite (inf)\n")
    assert "logistic" not in proc.stderr


def test_cli_run_integer_fill_past_the_float_range_fails_cleanly(
        tmp_path, monkeypatch, capsys):
    # the Integer x sums past the float range in every training fold: the
    # mean imputer refuses its fill instead of raising OverflowError from
    # round(inf)
    rows = []
    for i in range(12):
        sid = f"s{i:02d}"
        rows.append((sid, "y", i % 2))
        rows.append((sid, "x", MISSING if i in (3, 8) else 10 ** 308))
    write_bundle(assemble_dataset(
        static=build_static_samples(rows, {"x": Integer(), "y": Integer()}),
        roles=RoleMap.of(covariates=("x",), targets=("y",))),
        str(tmp_path / "bundle"))
    doc = _classify_doc()
    doc["pipeline"].insert(0, {"plugin": "impute.mean"})
    path = _write_config(tmp_path, doc)
    forks = _count_forks(monkeypatch)
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        with _deadline(60):
            assert cli(["run", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("tempoframe: fold 0, fit: impute.mean of 'x': mean is "
                       "not finite (inf)\n")
    assert len(forks) == 1
    _assert_no_child_left()


def test_cli_run_non_finite_temporal_summary_fails_cleanly(
        tmp_path, monkeypatch, capsys):
    # s00's two times are distinct, but their squared spread underflows
    points, rows = [], []
    for i in range(12):
        sid = f"s{i:02d}"
        times = (1e-200, 2e-200) if i == 0 else (0.0, 1.0)
        points += [(sid, "x", t, float(i + k)) for k, t in enumerate(times)]
        rows.append((sid, "y", i % 2))
    write_bundle(assemble_dataset(
        static=build_static_samples(rows, {"y": Integer()}),
        temporal=build_time_series_samples(points, {"x": Continuous()}),
        roles=RoleMap.of(covariates=("x",), targets=("y",))),
        str(tmp_path / "bundle"))
    path = _write_config(tmp_path, _classify_doc())
    forks = _count_forks(monkeypatch)
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        with _deadline(60):
            assert cli(["run", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("tempoframe: fold 0, fit: temporal summary of 'x' in "
                       "sample 's00': slope is not finite (nan)\n")
    assert len(forks) == 1
    _assert_no_child_left()


def test_cli_synth_ite_onto_a_file_fails_cleanly(tmp_path):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    proc = _cli_proc("synth-ite", "--n", "8", "--seed", "1",
                     "--out", str(out))
    _assert_clean_exit_1(proc, f"tempoframe: cannot write bundle at {out}: ")
    assert proc.stdout == ""
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_cli_integer_beyond_float_range_fails_cleanly(tmp_path):
    rows = []
    for i in range(12):
        rows += [(f"s{i:02d}", "x1", i / 4.0), (f"s{i:02d}", "k", i % 3),
                 (f"s{i:02d}", "y", i % 2)]
    ds = assemble_dataset(
        static=build_static_samples(
            rows, {"x1": Continuous(), "k": Integer(), "y": Integer()}),
        roles=RoleMap.of(covariates=("x1", "k"), targets=("y",)))
    bundle = tmp_path / "bundle"
    write_bundle(ds, str(bundle))
    static = bundle / "static.csv"
    lines = static.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "0 1 2 0 1 2 0 1 2 0 1 2"  # k
    lines[2] = "1" + "0" * 400 + " 1 2 0 1 2 0 1 2 0 1 2"
    static.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _cli_proc("validate", str(bundle))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == ("static.csv:3: kind_mismatch: sample 's00', "
                           "feature 'k': integer beyond float range\n")
    _assert_clean_exit_1(
        _cli_proc("run", _write_config(tmp_path, _classify_doc())),
        "static.csv:3: sample 's00', feature 'k': integer beyond float "
        "range")


@pytest.mark.parametrize("field", [
    "1" + "0" * 5000, "-" + "9" * 4301, "+" + "1" * 4400],
    ids=["5001-digits", "minus-4301-digits", "plus-4400-digits"])
def test_cli_integer_past_the_digit_limit_is_not_echoed(tmp_path, field):
    # int() refuses a field of more than 4,300 digits for its length alone
    bundle = tmp_path / "bundle"
    write_bundle(classification_dataset(0, n=6), str(bundle))
    static = bundle / "static.csv"
    lines = static.read_text(encoding="utf-8").splitlines()
    assert lines[3] == "0 1 0 0 0 1"  # y
    rest = " 1 0 0 0 1"  # the first sample's token is edited
    lines[3] = f"{field}{rest}"
    static.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _cli_proc("validate", str(bundle))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == ("static.csv:4: kind_mismatch: sample 's000', "
                           "feature 'y': integer beyond float range\n")
    lines[3] = "1" + "0" * 4400 + "x" + rest
    static.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _cli_proc("validate", str(bundle))
    assert proc.returncode == 1
    assert proc.stdout.startswith("static.csv:4: kind_mismatch: sample "
                                  "'s000', feature 'y': '100")
    assert proc.stdout.endswith("0x' is not an integer\n")
    # leading zeros do not count toward the value: the field reads as 1
    lines[3] = "+" + "0" * 4400 + "1" + rest
    static.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _cli_proc("validate", str(bundle)).returncode == 0
    assert read_bundle(str(bundle / "manifest")).static.cell(
        "s000", "y") == 1


@pytest.mark.parametrize("option", ["--n", "--seed", "--dim"])
def test_cli_integer_argument_past_the_digit_limit_is_not_echoed(
        tmp_path, capsys, option):
    # an integer argument reads as an Integer field does: the refusal
    # names the argument and neither echoes the digits nor names a
    # private function
    given = {"--n": "12", "--seed": "4", "--dim": "2",
             option: "1" + "0" * 5000}
    out = tmp_path / "synth"
    assert cli(["synth-ite", "--out", str(out),
                *(x for kv in given.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"tempoframe synth-ite: error: argument {option}: "
                        "integer beyond float range\n")
    assert "0000" not in err and "_integer" not in err
    assert not out.exists()


def test_cli_validate_lists_integer_fields_that_are_not_ascii_decimals(
        tmp_path):
    bundle = tmp_path / "bundle"
    write_bundle(classification_dataset(0, n=6), str(bundle))
    static = bundle / "static.csv"
    lines = static.read_text(encoding="utf-8").splitlines()
    assert lines[3] == "0 1 0 0 0 1"  # y
    # three Integer columns, each with one token int() reads
    lines[1:] = ["0 1 0_1 0 0 1", "1 0 \u0663 0 0 1", "1 0 0 +-1 0 1"]
    static.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = bundle / "manifest"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["features"]["static"] = [{"id": fid, "kind": "integer"}
                                 for fid in ("y", "x1", "x2")]
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    proc = _cli_proc("validate", str(bundle))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        "static.csv:2: kind_mismatch: sample 's002', feature 'y': '0_1' is "
        "not an integer\n"
        "static.csv:3: kind_mismatch: sample 's002', feature 'x1': "
        "'\u0663' is not an integer\n"
        "static.csv:4: kind_mismatch: sample 's003', feature 'x2': '+-1' "
        "is not an integer\n")


@pytest.mark.parametrize("key,value", [
    ("features", {"static": [{"id": "x1", "kind": "categorical",
                              "categories": [["x"]]}]}),
    ("features", {"static": 5}),
    ("features", {"static": [{"kind": "continuous"}]}),
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
    lines = static.read_bytes().splitlines()
    static.write_bytes(b"\n".join(lines[:2] + [b"\xff"]) + b"\n")
    for args in (("validate", str(bundle)), ("run", config)):
        _assert_clean_exit_1(_cli_proc(*args), "static.csv: not UTF-8")
    # a line has no length limit: one of 131,073 characters is read whole
    # and fails on its token count
    static.write_bytes(b"\n".join(lines[:2] + [b"1" * 131073] + lines[3:])
                       + b"\n")
    detail = "feature 'x2': expected 12 values, one per sample, got 1"
    proc = _cli_proc("validate", str(bundle))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == f"static.csv:3: arity: {detail}\n"
    _assert_clean_exit_1(_cli_proc("run", config), f"static.csv:3: {detail}")

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


# sha256 of the files of one small `synth-ite` call, recorded from the
# generator that built its grid from long-form records; the bundle files
# were re-recorded at schema "2", again at schema "4", the manifest at
# schema "5", and both at schema "6", each from a bundle that reads to the
# same dataset as the one before.
_SYNTH_ITE_SHA256 = {
    "manifest":
        "e7b1da507cc0f94b046a2acc3ddbfbbadd2532d13822b8a1cdccc460c23b8486",
    "static.csv":
        "4d046f223356abcf1a4b08d830dba14b0b40478d2928376a300947704c0fe8fa",
    "truth.csv":
        "1c16575fa3b9e7964f83f578f956cd9a6952b4bbf681db9f8262826ab644587f",
}


def test_cli_synth_ite_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "synth"
    assert cli(["synth-ite", "--n", "12", "--seed", "4", "--dim", "3",
                "--gamma", "0.5,-1.25,2.0", "--noise", "0.3",
                "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(_SYNTH_ITE_SHA256)
    for name, digest in _SYNTH_ITE_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    capsys.readouterr()


# A number that reads as inf is refused at its argument, as `inf` is,
# before `synth_treatment_data` sees it.
@pytest.mark.parametrize("arg,message", [
    (("--noise", "1e400"), "argument --noise: '1e400' is not finite"),
    (("--tau0", "1e400"), "argument --tau0: '1e400' is not finite"),
    (("--gamma", "1.0,1e400"), "argument --gamma: '1e400' is not finite"),
], ids=["noise", "tau0", "gamma"])
def test_cli_synth_ite_rejects_non_finite_parameters(tmp_path, arg, message):
    out = tmp_path / "synth"
    proc = _cli_proc("synth-ite", "--n", "8", "--seed", "1", "--dim", "2",
                     *arg, "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(f"tempoframe synth-ite: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("size,cells", [
    (("--n", "100000000", "--dim", "2"), 400000000),
    (("--n", "8", "--dim", "100000000"), 800000016),
], ids=["n", "dim"])
def test_cli_synth_ite_refuses_a_table_too_large(tmp_path, capsys,
                                                 monkeypatch, size, cells):
    # refused before the first draw, so nothing of that size is allocated
    def refuse(seed):
        raise AssertionError("drew before the size check")

    monkeypatch.setattr(treatment, "Lcg", refuse)
    out = tmp_path / "synth"
    assert cli(["synth-ite", "--seed", "1", *size, "--out", str(out)]) == 2
    n, dim = size[1], size[3]
    assert capsys.readouterr() == ("", (
        f"tempoframe: n={n} samples of dim={dim} give {cells} cells, "
        "more than 1000000\n"))
    assert not out.exists()


# Number arguments are written in the characters `repr` writes for a
# number, and integer arguments are ASCII [+-]?[0-9]+: `float()` and
# `int()` alone read `3_0` as 30, and take spaces and non-ASCII digits.
@pytest.mark.parametrize("arg", [
    ("--tau0", "3_0"), ("--tau0", "\u0663"), ("--tau0", " 3"),
    ("--tau0", "3E0"), ("--tau0", "nan"), ("--tau0", "inf"),
    ("--tau0", ""), ("--tau0", "1e"), ("--tau0", "1e400"),
    ("--gamma", "1_0,2"), ("--gamma", " 1, 2"), ("--gamma", "1,,2"),
    ("--gamma", "1.0,inf"), ("--gamma", "1e400,1"), ("--noise", "0_5"),
    ("--noise", "nan"), ("--noise", "1e400"), ("--n", "1_2"),
    ("--n", "\u0661\u0662"), ("--n", " 12"), ("--n", "12.0"), ("--n", "+"),
    ("--seed", "0x1"), ("--seed", "1 "), ("--dim", "\u0662"),
    ("--dim", "2_0"),
], ids=lambda arg: f"{arg[0][2:]}={arg[1]!r}")
def test_cli_synth_ite_refuses_numbers_outside_the_grammar(tmp_path, capsys,
                                                           arg):
    out = tmp_path / "synth"
    given = dict([("--n", "12"), ("--seed", "4"), ("--dim", "2"), arg])
    assert cli(["synth-ite", "--out", str(out),
                *(x for kv in given.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert f"argument {arg[0]}: " in err and "Traceback" not in err
    assert not out.exists()


def test_cli_synth_ite_reads_numbers_in_the_grammar(tmp_path, capsys):
    for i, (tau0, effect) in enumerate((("1.5", 1.5), ("-0.5", -0.5),
                                        ("+2", 2.0), ("1e-3", 0.001))):
        out = tmp_path / str(i)
        assert cli(["synth-ite", "--n", "+8", "--seed", "-1", "--dim", "+2",
                    "--tau0", tau0, "--noise", "1e-3", "--out",
                    str(out)]) == 0
        assert set(read_truth(str(out / "truth.csv")).values()) == {effect}
    assert cli(["synth-ite", "--n", "8", "--seed", "1", "--gamma",
                "+1,1e-3", "--out", str(tmp_path / "gamma")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("seed,code", [
    ("18446744073709551617", 2), ("-9223372036854775809", 2),
    ("9223372036854775808", 2), ("9223372036854775807", 0),
    ("-9223372036854775808", 0),
])
def test_cli_synth_ite_takes_a_signed_64_bit_seed(tmp_path, capsys, seed,
                                                  code):
    out = tmp_path / "synth"
    assert cli(["synth-ite", "--n", "8", "--seed", seed, "--out",
                str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and out.exists()
    else:
        assert err == ("tempoframe: seed must be a signed 64-bit integer, "
                       f"in [-2**63, 2**63), got {seed}\n")
        assert not out.exists()


@pytest.mark.parametrize("where,extra", [
    ("cv", {"cv": {"folds": 2, "seed": 2 ** 64 + 11}}),
    ("importance", {"importance": {"metric": "accuracy",
                                   "seed": -2 ** 63 - 1}}),
])
def test_cli_run_refuses_a_seed_beyond_64_bits(tmp_path, capsys, where,
                                               extra):
    config = _classify_setup(tmp_path, output="report.txt", **extra)
    assert cli(["run", config]) == 2
    seed = extra[where]["seed"]
    assert capsys.readouterr().err == (
        f"tempoframe: {where} 'seed' must be a signed 64-bit integer, in "
        f"[-2**63, 2**63), got {seed}\n")
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("option,value", [
    ("--tau0", "-1e-3"), ("--tau0", "-2"), ("--gamma", "-1,2"),
    ("--gamma", "1.0,-0.5"), ("--noise", "0.25"), ("--noise", "-1e-3"),
])
def test_cli_synth_ite_reads_a_negative_number_as_a_value(tmp_path, capsys,
                                                          option, value):
    # argparse reads "-1e-3" or "-1,2" after an option as an option of its
    # own; `--opt value` must write what `--opt=value` writes
    outcomes = []
    for name, spelling in (("apart", [option, value]),
                           ("joined", [f"{option}={value}"])):
        out = tmp_path / name
        code = cli(["synth-ite", "--n", "8", "--seed", "3", "--dim", "2",
                    *spelling, "--out", str(out)])
        outcomes.append((code, capsys.readouterr().err,
                         _bundle_bytes(out) if out.exists() else None))
    assert outcomes[0] == outcomes[1]
    if value == "-1e-3" and option == "--noise":
        assert outcomes[0][:2] == (
            2, "tempoframe: noise must be finite and >= 0, got -0.001\n")
    else:
        assert outcomes[0][:2] == (0, "")


def _bundle_bytes(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


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


def _check_goldens(golden_dir, python=sys.executable):
    tests = os.path.dirname(GOLDEN)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.environ["PYTHONPATH"], tests]))
    return subprocess.run(
        [python, os.path.join(golden_dir, "check_goldens.py")],
        capture_output=True, text=True, env=env)


def _other_pythons() -> dict:
    """Path -> version of each CPython 3.10 or newer installed under
    `$PYENV_ROOT/versions` (default `~/.pyenv`), other than the one
    running. The pyenv shims are not used: they run only the versions a
    shell has selected."""
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    running = os.path.realpath(sys.executable)
    found = {}
    for python in sorted(glob.glob(os.path.join(root, "versions", "*", "bin",
                                                "python"))):
        if os.path.realpath(python) == running:
            continue
        # sys.implementation is 3.3+, so an older interpreter fails here
        proc = subprocess.run(
            [python, "-c", "import sys; sys.stdout.write('%s %d %d %d' % "
             "((sys.implementation.name,) + sys.version_info[:3]))"],
            capture_output=True, text=True, timeout=60)
        probe = proc.stdout.split()
        if proc.returncode != 0 or probe[0] != "cpython":
            continue
        if tuple(map(int, probe[1:])) >= (3, 10):
            found[python] = ".".join(probe[1:])
    return found


def test_goldens_match_under_every_interpreter():
    # The goldens must be byte-identical on every supported Python; with
    # no other interpreter installed, the running one is checked instead.
    pythons = _other_pythons()
    if not pythons:
        print("no other CPython >= 3.10 found; checking the running "
              f"interpreter {sys.executable} only")
        pythons = {sys.executable: sys.version.split()[0]}
    for python, version in pythons.items():
        proc = _check_goldens(GOLDEN, python)
        assert proc.returncode == 0, (python, proc.stdout + proc.stderr)
        last = proc.stdout.splitlines()[-1]
        assert last == f"python {version}: all goldens match", python
        print(f"{python}: {last}")


def test_golden_check_script(tmp_path):
    # The pytest-free check that runs the goldens under any interpreter.
    proc = _check_goldens(GOLDEN)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    bundle = ("bundle/manifest", "bundle/static.csv", "bundle/temporal.csv")
    assert lines[:-1] == [f"ok  {name}" for name in (
        "expected_report.txt", *bundle,
        "survival/expected_report.txt", "survival/bundle/events.csv",
        *(f"survival/{name}" for name in bundle),
        "classify/expected_report.txt", "classify/fitted.json",
        *(f"classify/{name}" for name in bundle),
        "forecast/expected_report.txt",
        *(f"forecast/{name}" for name in bundle),
        "treatment/expected_report.txt", "treatment/bundle/manifest",
        "treatment/bundle/static.csv", "treatment/truth.csv")]
    assert lines[-1].endswith(": all goldens match")

    # and it fails on a golden that no longer matches: a blob, or a
    # bundle table that reads to the same dataset but is not what the
    # writer gives
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    fitted = copy / "classify" / "fitted.json"
    fitted.write_bytes(fitted.read_bytes().replace(b"0", b"1", 1))
    static = copy / "bundle" / "static.csv"
    static.write_bytes(static.read_bytes().replace(
        b"\n62.729213065756305 ", b"\n62.7292130657563050 ", 1))
    proc = _check_goldens(str(copy))
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "ok  expected_report.txt" in lines
    assert "DIFFERS  bundle/static.csv" in lines
    assert "DIFFERS  classify/fitted.json" in lines
    assert proc.stdout.count("ok  ") == 20


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "forked"])
@pytest.mark.parametrize("task",
                         ["survival", "classify", "forecast", "treatment"])
def test_task_golden_report(monkeypatch, task, cpus):
    # A transform front before each task's fitting step, written by
    # tests/golden/regenerate.py; forked folds and a one-process run
    # must both reproduce it byte for byte.
    _usable_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    config = load_config(os.path.join(GOLDEN, task, "config.json"))
    got = strip_timing(report_text(run_benchmark(config)))
    with open(os.path.join(GOLDEN, task, "expected_report.txt"),
              encoding="utf-8", newline="") as f:
        assert got == f.read()
    assert len(forks) == (config.folds - 1 if cpus > 1 else 0)
    _assert_no_child_left()


def test_classify_golden_fitted_blob():
    # Accuracy is a thresholded count, so the report alone misses a
    # change in the logistic weights; the fitted blob pins them.
    config = load_config(os.path.join(GOLDEN, "classify", "config.json"))
    blob = save_fitted(config.estimator.fit(read_bundle(config.bundle)))
    with open(os.path.join(GOLDEN, "classify", "fitted.json"), "rb") as f:
        assert blob == f.read()


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


def _count_featurizations(monkeypatch) -> list:
    """The datasets `covariate_matrix` is called on from now on, in this
    process, through any library module that imported it."""
    calls = []

    def counted(ds):
        calls.append(ds)
        return covariate_matrix(ds)

    for name, module in list(sys.modules.items()):
        if name.startswith("tempoframe") and getattr(
                module, "covariate_matrix", None) is covariate_matrix:
            monkeypatch.setattr(module, "covariate_matrix", counted)
    return calls


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


@pytest.mark.parametrize("task",
                         ["forecast", "classify", "survival", "treatment"])
def test_a_run_fits_and_scores_what_its_config_check_built(tmp_path,
                                                           monkeypatch, task):
    # the checked config is the run plan: once `load_config` returns, no
    # fold builds a plugin, resolves a metric or checks importance, in one
    # process or forked
    config = load_config(_write_config(tmp_path, _task_doc(tmp_path, task, 3)))
    featurized = _count_featurizations(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    expected = strip_timing(report_text(run_benchmark(config)))
    # a fold featurizes its train set once and its test set once, for its
    # metrics and its importance alike; an AR forecaster reads no matrix
    assert len(featurized) == (0 if task == "forecast" else 2 * config.folds)

    def refuse(*args, **kwargs):
        raise AssertionError("built or resolved after the config check")

    for module, name in ((plugins, "create"), (plugins, "build_pipeline"),
                         (bench, "build_pipeline"),
                         (bench, "resolve_metric"),
                         (bench, "check_importance"),
                         (metrics, "resolve_metric"),
                         (interpret, "resolve_metric"),
                         (interpret, "check_importance")):
        monkeypatch.setattr(module, name, refuse)
    in_process, forked = _fold_reports(config, monkeypatch)
    assert strip_timing(in_process) == expected
    assert strip_timing(forked) == expected


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
    for importance in (None, {"metric": "accuracy"}):
        where = tmp_path / ("plain" if importance is None else "importance")
        where.mkdir()
        path = _classify_setup(where, cv={"folds": 3, "seed": 0},
                               importance=importance)
        proc = subprocess.run(
            [sys.executable, "-m", "tempoframe", "run", path],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, TEMPOFRAME_LOG="debug"))
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        for fold in range(3):
            for phase in ("fit", "predict", "metric accuracy", "importance"):
                pattern = (rf"tempoframe\.bench: fold {fold}, {phase}: "
                           r"\d+\.\d+ s")
                count = sum(bool(re.fullmatch(pattern, ln)) for ln in lines)
                skipped = phase == "importance" and importance is None
                assert count == (0 if skipped else 1)
