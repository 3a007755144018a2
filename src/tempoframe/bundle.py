"""Bundle file format: a `manifest` JSON file plus one CSV per modality.

Layout (schema "2"):
    manifest                     JSON: schema_version, samples, files,
                                 features, kinds, roles
    static.csv                   sample_id,<static feature ids>: one row
                                 per sample, in manifest order
    temporal.csv / events.csv    sample_id,feature_id,time,value: one row
                                 per point or event

Empty value field = Missing. Writing is deterministic: fixed field order,
shortest round-trip float formatting, UTF-8, LF line endings, so identical
datasets produce byte-identical bundles. A manifest of any other schema,
such as "1", is refused.

Reading and validation share the manifest check, one pass over each
listed table (`tempoframe.data.scan_wide` for the static table,
`tempoframe.data.scan_rows`, as the builders use, for a timed one) that
checks each data row and places it in its sample's grid row, and the
assembly of clean tables into a Dataset, so both fail on the same
bundles. `validate_bundle` returns every table fault; `read_bundle` raises
the first in row order as `<path>:<line>: <detail>`, with the error type
of its code.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

from tempoframe.data import (
    VIOLATION_ERRORS,
    Categorical,
    Dataset,
    MISSING,
    Modality,
    Role,
    RoleMap,
    ValueKind,
    Violation,
    _check_id,
    assemble_dataset,
    grid,
    kind_from_json,
    kind_to_json,
    scan_rows,
    scan_wide,
)
from tempoframe.errors import (
    IoError,
    KindMismatch,
    ManifestError,
    ParseError,
    TempoframeError,
)

SCHEMA_VERSION = "2"
MANIFEST_NAME = "manifest"

# Modality -> table file name, in the order tables are written, read and
# validated.
_TABLES = {
    Modality.STATIC: "static.csv",
    Modality.TEMPORAL: "temporal.csv",
    Modality.EVENT: "events.csv",
}
_TIMED_HEADER = ["sample_id", "feature_id", "time", "value"]


@dataclass(frozen=True)
class BundleManifest:
    samples: tuple[str, ...]
    files: dict           # modality name -> relative path
    features: dict        # modality name -> ordered feature id list
    kinds: dict           # feature_id -> ValueKind
    roles: dict           # feature_id -> role name


def locate_manifest(path: str) -> str:
    """The manifest path of a bundle given as its directory or as the
    manifest itself."""
    return os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _manifest_kind(d, where: str) -> ValueKind:
    try:
        return kind_from_json(d, where)
    except KindMismatch as e:
        raise ManifestError(str(e)) from None


def _is_string_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def _manifest_id(s: str, what: str, manifest_path) -> None:
    try:
        _check_id(s, what)
    except KindMismatch as e:
        raise ManifestError(f"{manifest_path}: {e}") from None


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def manifest_for(ds: Dataset) -> BundleManifest:
    files = {}
    features = {}
    for modality, container in ds.containers():
        files[modality.value] = _TABLES[modality]
        features[modality.value] = list(container.feature_ids)
    kinds = {fid: kind for fid, kind, _, _ in ds.all_features()}
    # Assignment order, so the RoleMap read back equals this one.
    roles = {fid: role.value for fid, role in ds.roles.assignment}
    return BundleManifest(tuple(ds.sample_ids), files, features, kinds,
                          roles)


def _manifest_json(m: BundleManifest) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "samples": list(m.samples),
        "files": m.files,
        "features": m.features,
        "kinds": {fid: kind_to_json(k) for fid, k in m.kinds.items()},
        "roles": m.roles,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _table_rows(modality: Modality, container):
    """The header and data rows of a container's table, as written:
    csv.writer writes None (a Missing value) as an empty field and a float
    by its shortest round-trip repr."""
    if modality is Modality.STATIC:
        yield ["sample_id", *container.feature_ids]
        for sid, row in zip(container.sample_ids, container.values):
            yield [sid, *[None if v is MISSING else v for v in row]]
        return
    yield _TIMED_HEADER
    points = (container.to_points() if modality is Modality.TEMPORAL
              else container.to_entries())
    for sid, fid, t, v in points:
        yield [sid, fid, t, None if v is MISSING else v]


def write_bundle(ds: Dataset, dir_path) -> BundleManifest:
    """Write manifest plus one CSV per present modality; deterministic.

    Every sample id, feature id and category is checked with `_check_id`
    before any file is opened, so a directly built container whose ids
    `read_bundle` would refuse raises `KindMismatch` and writes nothing."""
    manifest = manifest_for(ds)
    for sid in manifest.samples:
        _check_id(sid, "sample_id")
    for fid, kind in manifest.kinds.items():
        _check_id(fid, "feature_id")
        if isinstance(kind, Categorical):
            for c in kind.categories:
                _check_id(c, "category")
    try:
        os.makedirs(dir_path, exist_ok=True)
        with open(os.path.join(dir_path, MANIFEST_NAME), "w",
                  encoding="utf-8", newline="\n") as f:
            f.write(_manifest_json(manifest))
        for modality, container in ds.containers():
            with open(os.path.join(dir_path, _TABLES[modality]), "w",
                      encoding="utf-8", newline="") as f:
                csv.writer(f, lineterminator="\n").writerows(
                    _table_rows(modality, container))
    except OSError as e:
        raise IoError(f"cannot write bundle at {dir_path}: {e}") from e
    return manifest


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _load_manifest(manifest_path) -> BundleManifest:
    if not os.path.exists(manifest_path):
        raise ManifestError(f"no manifest at {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        raise IoError(f"cannot read {manifest_path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ManifestError(f"{manifest_path}: not UTF-8 text: {e}") from None
    try:
        doc = json.loads(raw)
    except ValueError as e:
        raise ManifestError(f"{manifest_path}: not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ManifestError(f"{manifest_path}: manifest must be an object")
    for key in ("schema_version", "samples", "files", "features", "kinds",
                "roles"):
        if key not in doc:
            raise ManifestError(f"{manifest_path}: missing key {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ManifestError(
            f"{manifest_path}: unsupported schema_version "
            f"{doc['schema_version']!r} (expected {SCHEMA_VERSION!r})")
    samples = doc["samples"]
    if not _is_string_list(samples):
        raise ManifestError(f"{manifest_path}: samples must be a string list")
    if len(set(samples)) != len(samples):
        raise ManifestError(f"{manifest_path}: samples repeat a sample id")
    for sid in samples:
        _manifest_id(sid, "sample_id", manifest_path)
    for key in ("files", "features", "kinds", "roles"):
        if not isinstance(doc[key], dict):
            raise ManifestError(f"{manifest_path}: {key} must be an object")
    files = doc["files"]
    features = doc["features"]
    roles = doc["roles"]
    for modality, name in files.items():
        if modality not in ("static", "temporal", "event"):
            raise ManifestError(
                f"{manifest_path}: unknown modality {modality!r}")
        if not isinstance(name, str):
            raise ManifestError(
                f"{manifest_path}: file name for {modality!r} must be a "
                "string")
        if modality not in features:
            raise ManifestError(
                f"{manifest_path}: no feature list for {modality!r}")
    kinds = {fid: _manifest_kind(d, f"{manifest_path}: kinds[{fid!r}]")
             for fid, d in doc["kinds"].items()}
    for fid, role in roles.items():
        if role not in ("covariate", "target", "treatment"):
            raise ManifestError(
                f"{manifest_path}: unknown role {role!r} for {fid!r}")
    for modality, fids in features.items():
        if not _is_string_list(fids):
            raise ManifestError(f"{manifest_path}: features of {modality!r} "
                                "must be a string list")
        for fid in fids:
            _manifest_id(fid, "feature_id", manifest_path)
            if fid not in kinds:
                raise ManifestError(f"{manifest_path}: feature {fid!r} has "
                                    "no kind")
            if fid not in roles:
                raise ManifestError(f"{manifest_path}: feature {fid!r} has "
                                    "no role")
    return BundleManifest(tuple(samples), files, features, kinds, roles)


def _read_table(path, header: list):
    """Data rows of one CSV table, after its header row is checked."""
    if not os.path.exists(path):
        raise ManifestError(f"listed file does not exist: {path}")
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            first = next(reader, None)
            if first is None:
                raise ParseError(f"{path}: missing header row")
            if first != header:
                raise ParseError(f"{path}: bad header {first!r}, "
                                 f"expected {header!r}")
            yield from reader
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"{path}: unreadable CSV: {e}") from None


def _scanned_tables(manifest: BundleManifest, manifest_path):
    """(modality, file name, path, kinds, Scan) of each listed table."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    for modality in _TABLES:
        name = manifest.files.get(modality.value)
        if name is None:
            continue
        path = os.path.join(base, name)
        kinds = {fid: manifest.kinds[fid]
                 for fid in manifest.features[modality.value]}
        if modality is Modality.STATIC:
            scan = scan_wide(_read_table(path, ["sample_id", *kinds]), kinds,
                             manifest.samples)
        else:
            scan = scan_rows(_read_table(path, _TIMED_HEADER), modality,
                             kinds, manifest.samples, text=True)
        yield modality, name, path, kinds, scan


def _assemble(manifest: BundleManifest, manifest_path, tables) -> Dataset:
    """The Dataset of clean scanned tables; a dataset-level fault carries
    the manifest path."""
    containers = {modality: grid(modality, scan, kinds, manifest.samples)
                  for modality, _, _, kinds, scan in tables}
    role_map = RoleMap(tuple(
        (fid, Role(name)) for fid, name in manifest.roles.items()))
    try:
        return assemble_dataset(static=containers.get(Modality.STATIC),
                                temporal=containers.get(Modality.TEMPORAL),
                                events=containers.get(Modality.EVENT),
                                roles=role_map)
    except TempoframeError as e:
        raise type(e)(f"{manifest_path}: {e}") from None


def read_bundle(manifest_path) -> Dataset:
    """Load a bundle. A table fault raises as `<path>:<line>: <detail>`;
    a dataset-level fault carries the manifest path."""
    manifest = _load_manifest(manifest_path)
    tables = []
    for table in _scanned_tables(manifest, manifest_path):
        _, _, path, _, scan = table
        if scan.violations:
            v = scan.violations[0]
            raise VIOLATION_ERRORS[v.code](
                f"{path}:{table_line(v)}: {v.detail}")
        tables.append(table)
    return _assemble(manifest, manifest_path, tables)


# ---------------------------------------------------------------------------
# Validation (non-fail-fast)
# ---------------------------------------------------------------------------

def table_line(v: Violation) -> int:
    """The file line of a table violation: data rows follow the header."""
    return v.row + 1


def validate_bundle(manifest_path) -> list:
    """Validate all tables of a bundle; returns (file, Violation) pairs.
    Row numbers count data rows; `table_line` gives the file line. Raises
    the error `read_bundle` raises for a manifest fault, for a table that
    cannot be read when no earlier table has a violation (such as a
    missing file) or, when every table is clean, for a dataset-level
    fault."""
    manifest = _load_manifest(manifest_path)
    tables, found = [], []
    try:
        for table in _scanned_tables(manifest, manifest_path):
            _, name, _, _, scan = table
            tables.append(table)
            found.extend((name, v) for v in scan.violations)
    except (ManifestError, ParseError, IoError):
        # a table that cannot be read; read_bundle stops before it when
        # an earlier table has a violation
        if not found:
            raise
    if not found:
        _assemble(manifest, manifest_path, tables)
    return found
