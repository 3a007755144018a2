"""Estimator lifecycle, plugin registry, pipelines, wrappers, persistence.

A plugin is an EstimatorSpec: a dotted name, a category, a hyperparameter
schema and a set of lifecycle functions. `create` resolves params against
the schema and returns an Estimator; `fit` produces an immutable
FittedEstimator carrying JSON-able learned state plus a fingerprint of the
training features, which predict-time datasets must match.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

from tempoframe.data import (
    Dataset,
    StaticSamples,
    TimeSeriesSamples,
    kind_to_json,
)
from tempoframe.errors import (
    BadPipelineShape,
    CorruptBlob,
    DuplicatePlugin,
    FingerprintMismatch,
    FitDiverged,
    IncompatibleInner,
    InvalidAlternative,
    NotATransform,
    NotFitted,
    ParamOutOfBounds,
    UnknownParam,
    UnknownPlugin,
    UnknownPluginInBlob,
    WrongCategory,
)


class Category(enum.Enum):
    TRANSFORM = "transform"
    PREDICTOR = "predictor"
    SURVIVAL = "survival"
    TREATMENT = "treatment"
    WRAPPER = "wrapper"


# ---------------------------------------------------------------------------
# Hyperparameter schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One hyperparameter: name, type, bounds/choices and a default.

    type is one of "real", "integer", "categorical", "boolean", "string".
    Bounds are inclusive and optional; categorical params use `choices`
    instead.
    """

    name: str
    type: str
    default: object
    lo: object = None
    hi: object = None
    choices: tuple = None

    def __post_init__(self):
        if self.type not in ("real", "integer", "categorical", "boolean",
                             "string"):
            raise ValueError(f"bad param type {self.type!r}")
        if self.type == "categorical" and not self.choices:
            raise ValueError(f"param {self.name!r} needs choices")
        # Defaults must satisfy their own constraints.
        object.__setattr__(self, "default", self.check(self.default))

    def check(self, value):
        where = f"param {self.name!r}"
        if self.type == "string":
            if not isinstance(value, str):
                raise ParamOutOfBounds(f"{where}: expected a string, "
                                       f"got {value!r}")
            return value
        if self.type == "boolean":
            if not isinstance(value, bool):
                raise ParamOutOfBounds(f"{where}: expected a boolean, "
                                       f"got {value!r}")
            return value
        if self.type == "categorical":
            if value not in self.choices:
                raise ParamOutOfBounds(f"{where}: {value!r} not in "
                                       f"{list(self.choices)}")
            return value
        if self.type == "integer":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParamOutOfBounds(f"{where}: expected an integer, "
                                       f"got {value!r}")
            v = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParamOutOfBounds(f"{where}: expected a real number, "
                                       f"got {value!r}")
            v = float(value)
        if self.lo is not None and v < self.lo:
            raise ParamOutOfBounds(f"{where}: {v} below lower bound {self.lo}")
        if self.hi is not None and v > self.hi:
            raise ParamOutOfBounds(f"{where}: {v} above upper bound {self.hi}")
        return v


def resolve_params(schema: tuple, given: dict) -> dict:
    by_name = {p.name: p for p in schema}
    for name in given:
        if name not in by_name:
            raise UnknownParam(f"unknown hyperparameter {name!r}; known: "
                               f"{sorted(by_name)}")
    out = {}
    for p in schema:
        out[p.name] = p.check(given[p.name]) if p.name in given else p.default
    return out


# ---------------------------------------------------------------------------
# Specs and registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSpec:
    """Registry entry: lifecycle functions keyed by a unique dotted name.

    fit(params, ds) -> state dict (JSON-able). The optional lifecycle
    functions receive (params, state, ds). `requirements(params, ds)` runs
    before fit and before each transform of a query, and raises
    RequirementUnmet. Wrapper specs leave fit unset and declare which
    inner categories they accept.

    Two optional fields let permutation importance featurize once:

    - `predict_columns(params, state, sample_ids, names, columns)` is the
      prediction of a model that reads the `covariate_matrix` of its
      query; its `predict` is that function applied to the matrix.
    - `derived_ids(params, state, feature_id) -> tuple` names the output
      features a transform computes from one input feature, and declares
      the transform per-sample: each output value of a sample depends only
      on that sample's value of the input feature, and sample order is
      kept. Leave it unset for any other transform.
    """

    name: str
    category: Category
    schema: tuple = ()
    fit: object = None
    transform: object = None
    predict: object = None
    predict_counterfactuals: object = None
    requirements: object = None
    accepts: tuple = ()
    predict_columns: object = None
    derived_ids: object = None


_REGISTRY: dict = {}


def register_plugin(spec: EstimatorSpec) -> None:
    if spec.name in _REGISTRY:
        raise DuplicatePlugin(f"plugin {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec


def spec_of(name: str) -> EstimatorSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPlugin(f"no plugin named {name!r}; known: "
                            f"{sorted(_REGISTRY)}") from None


def list_specs(category: Category | None = None) -> list:
    out = [s for s in _REGISTRY.values()
           if category is None or s.category is category]
    return sorted(out, key=lambda s: s.name)


def create(name: str, params: dict | None = None) -> "Estimator":
    spec = spec_of(name)
    return Estimator(spec, resolve_params(spec.schema, params or {}))


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def dataset_signature(ds: Dataset) -> tuple:
    """Ordered (feature_id, kind, role, modality) tuples, JSON-able."""
    return tuple(
        (fid, json.dumps(kind_to_json(kind), sort_keys=True),
         role.value, modality.value)
        for fid, kind, role, modality in ds.all_features())


def fingerprint_of(ds: Dataset) -> str:
    doc = json.dumps([list(t) for t in dataset_signature(ds)],
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def check_fingerprint(fitted: "FittedEstimator", ds: Dataset) -> None:
    """Raise FingerprintMismatch unless `ds` has exactly the features
    `fitted` was trained on."""
    fp = fingerprint_of(ds)
    if fp != fitted.fingerprint:
        raise FingerprintMismatch(
            f"query features differ from training features for "
            f"{fitted.spec.name!r}: trained on "
            f"{[t[0] for t in fitted.features]}, "
            f"queried with {[t[0] for t in dataset_signature(ds)]}")


def _check_superset_fingerprint(fitted: "FittedEstimator",
                                ds: Dataset) -> None:
    have = {t[0]: t[1:] for t in dataset_signature(ds)}
    for fid, kind_s, role, modality in fitted.features:
        if have.get(fid) != (kind_s, role, modality):
            raise FingerprintMismatch(
                f"training feature {fid!r} absent or changed in query "
                f"dataset for {fitted.spec.name!r}")


# ---------------------------------------------------------------------------
# Prediction outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaticOutput:
    """Predictions as a static grid over target features."""
    values: StaticSamples

    @property
    def sample_ids(self):
        return self.values.sample_ids


@dataclass(frozen=True)
class ForecastOutput:
    """Predictions as per-sample forecast sequences over target features."""
    series: TimeSeriesSamples

    @property
    def sample_ids(self):
        return self.series.sample_ids


# ---------------------------------------------------------------------------
# Lifecycle objects
# ---------------------------------------------------------------------------

class Estimator:
    """Unfitted estimator: a spec plus resolved params."""

    def __init__(self, spec: EstimatorSpec, params: dict):
        self.spec = spec
        self.params = params

    def fit(self, ds: Dataset) -> "FittedEstimator":
        if self.spec.fit is None:
            raise WrongCategory(
                f"{self.spec.name!r} ({self.spec.category.value}) "
                "does not support fit")
        if self.spec.requirements is not None:
            self.spec.requirements(self.params, ds)
        state = self.spec.fit(self.params, ds)
        return FittedEstimator(self.spec, self.params, state,
                               fingerprint_of(ds), dataset_signature(ds))

    # Lifecycle safety: predict-family calls before fit are NotFitted,
    # never AttributeError.
    def transform(self, ds):
        raise NotFitted(f"{self.spec.name!r} is not fitted")

    def predict(self, ds):
        raise NotFitted(f"{self.spec.name!r} is not fitted")

    def predict_counterfactuals(self, ds, alternatives):
        raise NotFitted(f"{self.spec.name!r} is not fitted")


class FittedEstimator:
    """Immutable result of fit: learned state plus training fingerprint."""

    def __init__(self, spec: EstimatorSpec, params: dict, state: dict,
                 fingerprint: str, features: tuple):
        self.spec = spec
        self.params = params
        self.state = state
        self.fingerprint = fingerprint
        self.features = features

    @property
    def category(self) -> Category:
        return self.spec.category

    def transform(self, ds: Dataset) -> Dataset:
        if self.spec.category is not Category.TRANSFORM:
            raise NotATransform(f"{self.spec.name!r} is a "
                                f"{self.spec.category.value}, not a transform")
        _check_superset_fingerprint(self, ds)
        if self.spec.requirements is not None:
            self.spec.requirements(self.params, ds)
        return self.spec.transform(self.params, self.state, ds)

    def predict(self, ds: Dataset):
        if self.spec.category is Category.WRAPPER:
            return self._inner().predict(ds)
        if self.spec.category not in (Category.PREDICTOR, Category.SURVIVAL):
            raise WrongCategory(
                f"{self.spec.name!r} ({self.spec.category.value}) "
                "does not support predict")
        check_fingerprint(self, ds)
        return self.spec.predict(self.params, self.state, ds)

    def predict_counterfactuals(self, ds: Dataset, alternatives):
        if self.spec.category is not Category.TREATMENT:
            raise WrongCategory(
                f"{self.spec.name!r} ({self.spec.category.value}) "
                "does not support predict_counterfactuals")
        alternatives = list(alternatives)
        if not alternatives:
            raise InvalidAlternative("alternatives must be non-empty")
        if len(set(alternatives)) != len(alternatives):
            raise InvalidAlternative("alternatives contain duplicates")
        check_fingerprint(self, ds)
        return self.spec.predict_counterfactuals(self.params, self.state, ds,
                                                 alternatives)

    def _inner(self) -> "FittedEstimator":
        return _fitted_from_doc(self.state["inner"])

    def effective_category(self) -> Category:
        """Category after unwrapping any wrapper layers."""
        if self.spec.category is Category.WRAPPER:
            return self._inner().effective_category()
        return self.spec.category


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

_PIPELINE_NAME = "__pipeline__"


class PipelineEstimator(Estimator):
    def __init__(self, steps: list):
        self.steps = steps  # list of Estimator
        last = steps[-1]
        spec = EstimatorSpec(name=_PIPELINE_NAME, category=last.spec.category)
        super().__init__(spec, {})

    def fit(self, ds: Dataset) -> "PipelineFitted":
        fitted_steps = []
        running = ds
        for est in self.steps[:-1]:
            f = est.fit(running)
            fitted_steps.append(f)
            running = f.transform(running)
        fitted_steps.append(self.steps[-1].fit(running))
        return PipelineFitted(fitted_steps, fingerprint_of(ds),
                              dataset_signature(ds))


class PipelineFitted(FittedEstimator):
    def __init__(self, steps: list, fingerprint: str, features: tuple):
        self.steps = steps
        spec = EstimatorSpec(name=_PIPELINE_NAME,
                             category=steps[-1].spec.category)
        super().__init__(spec, {}, {}, fingerprint, features)

    def _apply_front(self, ds: Dataset) -> Dataset:
        running = ds
        for f in self.steps[:-1]:
            running = f.transform(running)
        return running

    def transform(self, ds: Dataset) -> Dataset:
        if self.spec.category is not Category.TRANSFORM:
            raise NotATransform("pipeline does not end in a transform")
        _check_superset_fingerprint(self, ds)
        return self.steps[-1].transform(self._apply_front(ds))

    def predict(self, ds: Dataset):
        if self.spec.category not in (Category.PREDICTOR, Category.SURVIVAL):
            raise WrongCategory(
                f"pipeline of {self.spec.category.value} does not predict")
        check_fingerprint(self, ds)
        return self.steps[-1].predict(self._apply_front(ds))

    def predict_counterfactuals(self, ds: Dataset, alternatives):
        if self.spec.category is not Category.TREATMENT:
            raise WrongCategory(
                f"pipeline of {self.spec.category.value} does not support "
                "predict_counterfactuals")
        check_fingerprint(self, ds)
        return self.steps[-1].predict_counterfactuals(self._apply_front(ds),
                                                      alternatives)


def build_pipeline(steps) -> Estimator:
    """steps: list of (plugin_name, params) pairs; every step but the last
    must be a Transform."""
    steps = list(steps)
    if not steps:
        raise BadPipelineShape("pipeline needs at least one step")
    ests = [create(name, params) for name, params in steps]
    for est in ests[:-1]:
        if est.spec.category is not Category.TRANSFORM:
            raise BadPipelineShape(
                f"interior step {est.spec.name!r} is a "
                f"{est.spec.category.value}; only the last step may be "
                "non-transform")
    if len(ests) == 1 and ests[0].spec.category is Category.WRAPPER:
        raise BadPipelineShape("a wrapper cannot be fitted as a pipeline step")
    return PipelineEstimator(ests)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def wrap(inner: FittedEstimator, wrapper_name: str,
         params: dict | None = None) -> FittedEstimator:
    """Encapsulate an already-fitted estimator in a wrapper plugin."""
    spec = spec_of(wrapper_name)
    if spec.category is not Category.WRAPPER:
        raise WrongCategory(f"{wrapper_name!r} is not a wrapper plugin")
    resolved = resolve_params(spec.schema, params or {})
    if inner.spec.category not in spec.accepts:
        raise IncompatibleInner(
            f"{wrapper_name!r} cannot wrap a "
            f"{inner.spec.category.value} estimator")
    state = {"inner": _fitted_to_doc(inner)}
    return FittedEstimator(spec, resolved, state, inner.fingerprint,
                           inner.features)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_BLOB_FORMAT = "tempoframe.fitted"
_BLOB_VERSION = 1


def _fitted_to_doc(f: FittedEstimator) -> dict:
    if isinstance(f, PipelineFitted):
        return {"plugin": _PIPELINE_NAME,
                "steps": [_fitted_to_doc(s) for s in f.steps],
                "fingerprint": f.fingerprint,
                "features": [list(t) for t in f.features]}
    return {"plugin": f.spec.name,
            "params": f.params,
            "state": f.state,
            "fingerprint": f.fingerprint,
            "features": [list(t) for t in f.features]}


def _fitted_from_doc(doc) -> FittedEstimator:
    if not isinstance(doc, dict) or "plugin" not in doc:
        raise CorruptBlob("missing plugin name")
    name = doc["plugin"]
    try:
        features = tuple(tuple(t) for t in doc["features"])
        fingerprint = doc["fingerprint"]
        if name == _PIPELINE_NAME:
            steps = [_fitted_from_doc(d) for d in doc["steps"]]
            return PipelineFitted(steps, fingerprint, features)
        params = doc["params"]
        state = doc["state"]
    except (KeyError, TypeError) as e:
        raise CorruptBlob(f"malformed fitted-estimator document: {e}") from None
    if name not in _REGISTRY:
        raise UnknownPluginInBlob(f"blob names unregistered plugin {name!r}")
    spec = _REGISTRY[name]
    return FittedEstimator(spec, resolve_params(spec.schema, params), state,
                           fingerprint, features)


def save_fitted(f: FittedEstimator) -> bytes:
    doc = {"format": _BLOB_FORMAT, "version": _BLOB_VERSION,
           "fitted": _fitted_to_doc(f)}
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        for step in f.steps if isinstance(f, PipelineFitted) else [f]:
            try:
                json.dumps(_fitted_to_doc(step), allow_nan=False)
            except ValueError:
                raise FitDiverged(f"{step.spec.name}: fitted state holds a "
                                  "non-finite number, which a blob cannot "
                                  "store") from None
        raise
    return text.encode("utf-8")


def load_fitted(blob: bytes) -> FittedEstimator:
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise CorruptBlob(f"blob is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != _BLOB_FORMAT:
        raise CorruptBlob("not a fitted-estimator blob")
    if doc.get("version") != _BLOB_VERSION:
        raise CorruptBlob(f"unsupported blob version {doc.get('version')!r}")
    if "fitted" not in doc:
        raise CorruptBlob("blob has no fitted document")
    return _fitted_from_doc(doc["fitted"])
