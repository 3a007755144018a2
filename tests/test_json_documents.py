"""Every JSON document tempoframe reads (the run config, a bundle manifest
and a fitted blob) is a closed object with unique keys at each level. An
unknown key, a repeated key and nesting too deep to parse are each the
document's own typed error: `ConfigError` (`tempoframe run` exits 2),
`ManifestError` (`read_bundle` and `validate_bundle` agree, and
`tempoframe validate` exits 1) or `CorruptBlob`, and the CLI prints one
line and no traceback.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from datagen import repeated_key_text
from tempoframe.bench import load_config, strip_timing
from tempoframe.bundle import MANIFEST_NAME, read_bundle, validate_bundle
from tempoframe.cli import cli
from tempoframe.data import fields, load_json
from tempoframe.errors import (
    BenchError,
    ConfigError,
    CorruptBlob,
    ManifestError,
)
from tempoframe.plugins import load_fitted

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden(*parts):
    with open(os.path.join(GOLDEN, *parts), encoding="utf-8") as f:
        return json.load(f)


_DOCS = {"config": _golden("classify", "config.json"),
         "manifest": _golden("bundle", MANIFEST_NAME),
         "blob": _golden("classify", "fitted.json")}


def _edited(document, edit) -> str:
    doc = json.loads(json.dumps(_DOCS[document]))
    edit(doc)
    return json.dumps(doc)


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


# document -> the key path of each object; roles is an open map keyed by
# feature id, so only a repeated key is refused in it
_OBJECTS = {
    "config": [(), ("pipeline", 0), ("cv",), ("importance",)],
    "manifest": [(), ("features",), ("features", "static", 0), ("roles",)],
    "blob": [(), ("fitted",), ("fitted", "front", 0)],
}
_OPEN_MAPS = {("manifest", ("roles",))}
_DEEP = "[" * 1000 + "]" * 1000


def _cases():
    for document, paths in _OBJECTS.items():
        for path in paths:
            name = "/".join(map(str, path)) or "top"
            if (document, path) not in _OPEN_MAPS:
                yield pytest.param(
                    document, _edited(document, lambda d, p=path: _at(
                        d, p).update(zzz=1)), "has unknown keys: ['zzz']",
                    id=f"{document}-{name}-extra-key")
            first = next(iter(_at(_DOCS[document], path)))
            yield pytest.param(document,
                               repeated_key_text(_DOCS[document], path),
                               f"repeated key {first!r}",
                               id=f"{document}-{name}-repeated-key")
        # too deep to parse up to Python 3.11; from 3.12 on it parses, and
        # is refused as no object
        yield pytest.param(document, _DEEP, "", id=f"{document}-1000-deep")
    # a second key at the end, which a plain JSON reader lets win
    yield pytest.param("config", json.dumps(_DOCS["config"])[:-1]
                       + ', "cv": {"folds": 3, "seed": 99}}',
                       "repeated key 'cv'", id="config-second-cv")
    yield pytest.param("manifest", json.dumps(_DOCS["manifest"])[:-1]
                       + ', "roles": {"age": "covariate", "hr": "target"}}',
                       "repeated key 'roles'", id="manifest-second-roles")
    yield pytest.param("manifest", _edited("manifest", lambda d: d.update(
        extra_top=1)), "manifest has unknown keys: ['extra_top']",
        id="manifest-extra-top")
    yield pytest.param("manifest", _edited("manifest", lambda d: d[
        "features"]["static"][0].update(role="target", unit="kg",
                                        categories=["x"])),
        "features 'static' entry 0 has unknown keys: "
        "['categories', 'role', 'unit']", id="manifest-entry-role-unit")
    yield pytest.param("blob", _edited("blob", lambda d: d["fitted"][
        "front"][0].update(front=[])),
        "front step 0 has unknown keys: ['front']", id="blob-nested-front")


@pytest.mark.parametrize("document", sorted(_DOCS))
def test_each_golden_document_reads_as_written_here(tmp_path, document):
    # the cases below differ from these texts only by their one edit
    text = repeated_key_text(_DOCS[document], None)
    assert json.loads(text) == _DOCS[document]
    _check(tmp_path, document, text, None)


@pytest.mark.parametrize("document, text, held", list(_cases()))
def test_a_document_is_a_closed_object_with_unique_keys(
        tmp_path, capsys, document, text, held):
    _check(tmp_path, document, text, held)
    if document != "blob":
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert held in err


def _check(tmp_path, document, text, held):
    """Read `text` as `document`: it must be refused with a message that
    holds `held`, or read cleanly when `held` is None."""
    if document == "blob":
        if held is None:
            load_fitted(text.encode("utf-8"))
            return
        with pytest.raises(CorruptBlob) as exc:
            load_fitted(text.encode("utf-8"))
        assert held in str(exc.value)
        return
    if document == "config":
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        if held is None:
            load_config(path)
            return
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert held in str(exc.value)
        assert cli(["run", str(path)]) == 2
        return
    bundle = tmp_path / "bundle"
    shutil.copytree(os.path.join(GOLDEN, "bundle"), bundle)
    manifest = bundle / MANIFEST_NAME
    manifest.write_text(text, encoding="utf-8")
    if held is None:
        assert validate_bundle(manifest) == []
        read_bundle(manifest)
        return
    messages = []
    for load in (read_bundle, validate_bundle):
        with pytest.raises(ManifestError) as exc:
            load(manifest)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and held in messages[0]
    assert messages[0].startswith(f"{manifest}: ")
    assert cli(["validate", str(bundle)]) == 1


@pytest.mark.parametrize("command, code", [("run", 2), ("validate", 1)])
def test_a_deep_document_is_no_traceback_in_a_new_process(tmp_path, command,
                                                          code):
    path = tmp_path / ("config.json" if command == "run" else MANIFEST_NAME)
    path.write_text(_DEEP, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tempoframe", command, str(path)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ))
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("tempoframe: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_blob_with_a_non_finite_number_is_corrupt(token):
    # `save_fitted` refuses to write such a blob; a loaded one would
    # predict nan (or a constant) for every sample
    def blob(edit):
        return _edited("blob", edit).replace('"@"', token).encode("utf-8")

    with pytest.raises(CorruptBlob) as exc:
        load_fitted(blob(lambda d: d["fitted"]["state"].update(bias="@")))
    assert str(exc.value) == ("fitted (classify.logistic): params or state "
                              "hold a non-finite number")
    with pytest.raises(CorruptBlob, match=r"^front step 2 \(scale.zscore\): "):
        load_fitted(blob(lambda d: d["fitted"]["front"][2].update(
            params={"zzz": "@"})))


def test_fields_reads_a_closed_object():
    keys = {"a": (str, ...), "n": (int, 1), "xs": (list, None)}
    assert fields({"a": "x"}, keys, ConfigError, "o") == ["x", 1, None]
    assert fields({"a": "x", "n": None}, keys, ConfigError, "o",
                  nullable=True) == ["x", 1, None]
    for obj, held in ((["a"], "o must be an object"),
                      ({"a": "x", "b": 1, "c": 2},
                       "o has unknown keys: ['b', 'c']"),
                      ({"n": 2}, "o is missing 'a'"),
                      ({"a": None}, "o 'a' must be a string"),
                      ({"a": "x", "n": True}, "o 'n' must be an integer"),
                      ({"a": "x", "n": 2.0}, "o 'n' must be an integer"),
                      ({"a": "x", "n": None}, "o 'n' must be an integer"),
                      ({"a": "x", "xs": {}}, "o 'xs' must be a list")):
        with pytest.raises(ConfigError) as exc:
            fields(obj, keys, ConfigError, "o")
        assert str(exc.value) == held


def test_load_json_names_its_document():
    assert load_json(b'{"a": [1, {"b": 2}]}', BenchError, "r") == \
        {"a": [1, {"b": 2}]}
    for raw, held in ((b'{"a": 1, "a": 1}', "r: repeated key 'a'"),
                      ('[{"b": 1, "c": 2, "b": 3}]', "r: repeated key 'b'"),
                      (b"\xff", "r: not UTF-8 text: "),
                      ("{", "r: not valid JSON: "),
                      ("[" * 100000, "r: not valid JSON: ")):
        with pytest.raises(BenchError) as exc:
            load_json(raw, BenchError, "r")
        assert str(exc.value).startswith(held)
    # the benchmark gate compares report texts through `strip_timing`
    with pytest.raises(BenchError, match="^report: repeated key 'timing'$"):
        strip_timing('{"timing": {}, "timing": {}}')
