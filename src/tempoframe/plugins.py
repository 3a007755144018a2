"""Estimator lifecycle, plugin registry, pipelines, persistence.

A plugin is an EstimatorSpec: a dotted name, a category, a hyperparameter
schema and a set of lifecycle functions; `register_plugin` refuses a spec
without the ones its category runs. `create` resolves params against the
schema and returns an Estimator; `fit` produces an immutable
FittedEstimator carrying JSON-able learned state plus the signature of its
training features, which predict-time datasets must match. A pipeline is
its last step's Estimator with the other steps, all transforms, as its
front: fit fits and applies the front first, and every query runs it
first.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from tempoframe.data import (
    Dataset,
    covariate_groups,
    covariate_matrix,
    kind_to_json,
)
from tempoframe.errors import (
    BadPipelineShape,
    CorruptBlob,
    DuplicatePlugin,
    FingerprintMismatch,
    FitDiverged,
    InvalidAlternative,
    InvalidSpec,
    MetricMismatch,
    NotATransform,
    NotFitted,
    ParamOutOfBounds,
    TempoframeError,
    UnknownParam,
    UnknownPlugin,
    UnknownPluginInBlob,
    WrongCategory,
)


class Category(enum.Enum):
    TRANSFORM = "transform"
    FORECASTER = "forecaster"
    CLASSIFIER = "classifier"
    SURVIVAL = "survival"
    TREATMENT = "treatment"


# The categories whose fitted estimators support predict.
_PREDICTING = (Category.FORECASTER, Category.CLASSIFIER, Category.SURVIVAL)

# Per category, the lifecycle functions of which a spec must set at least
# one besides fit.
_LIFECYCLE = {Category.TRANSFORM: ("transform",),
              Category.TREATMENT: ("predict_counterfactuals",),
              **{c: ("predict", "predict_columns") for c in _PREDICTING}}


# ---------------------------------------------------------------------------
# Hyperparameter schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One hyperparameter: name, type, bounds and a default.

    type is "real" or "integer". Bounds are inclusive and optional.
    """

    name: str
    type: str
    default: object
    lo: object = None
    hi: object = None

    def __post_init__(self):
        if self.type not in ("real", "integer"):
            raise ValueError(f"bad param type {self.type!r}")
        # Defaults must satisfy their own constraints.
        object.__setattr__(self, "default", self.check(self.default))

    def check(self, value):
        where = f"param {self.name!r}"
        if self.type == "integer":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParamOutOfBounds(f"{where}: expected an integer, "
                                       f"got {value!r}")
            v = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParamOutOfBounds(f"{where}: expected a real number, "
                                       f"got {value!r}")
            try:
                v = float(value)
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                raise ParamOutOfBounds(f"{where}: {value!r} is not finite")
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
    functions receive (params, state, ds). Each checks its own input and
    raises RequirementUnmet or another TempoframeError.

    Two optional fields let permutation importance featurize once:

    - `predict_columns(params, state, sample_ids, names, columns)` is the
      prediction of a model that reads the `covariate_matrix` of its
      query. A model sets it instead of `predict`; `predictor` applies it
      to the query's `covariate_matrix`.
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
    predict_columns: object = None
    derived_ids: object = None


_REGISTRY: dict = {}


def register_plugin(spec: EstimatorSpec) -> None:
    if spec.name in _REGISTRY:
        raise DuplicatePlugin(f"plugin {spec.name!r} already registered")
    needed = _LIFECYCLE[spec.category]
    if spec.fit is None or all(getattr(spec, f) is None for f in needed):
        raise InvalidSpec(f"{spec.category.value} {spec.name!r} must set fit "
                          f"and {' or '.join(needed)}")
    if spec.category is Category.FORECASTER and not any(
            p.name == "horizon" and p.type == "integer" and (p.lo or 0) >= 1
            for p in spec.schema):
        raise InvalidSpec(f"forecaster {spec.name!r} must declare the points "
                          "it holds out as an integer 'horizon' param >= 1")
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
# Feature signatures
# ---------------------------------------------------------------------------

def dataset_signature(ds: Dataset) -> tuple:
    """Ordered (feature_id, kind, role, modality) tuples, JSON-able."""
    return tuple(
        (fid, json.dumps(kind_to_json(kind), sort_keys=True),
         role.value, modality.value)
        for fid, kind, role, modality in ds.all_features())


def check_fingerprint(fitted: "FittedEstimator", ds: Dataset) -> None:
    """Raise FingerprintMismatch unless `ds` has exactly the features
    `fitted` was trained on."""
    if dataset_signature(ds) != fitted.features:
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
# Lifecycle objects
# ---------------------------------------------------------------------------

class Estimator:
    """Unfitted estimator: a spec plus resolved params, after a front of
    unfitted transforms (a pipeline's earlier steps)."""

    def __init__(self, spec: EstimatorSpec, params: dict, front=()):
        self.spec = spec
        self.params = params
        self.front = tuple(front)

    def fit(self, ds: Dataset) -> "FittedEstimator":
        front = []
        for est in self.front:
            front.append(est.fit(ds))
            ds = front[-1].transform(ds)
        state = self.spec.fit(self.params, ds)
        return FittedEstimator(self.spec, self.params, state,
                               dataset_signature(ds), front)

    # Lifecycle safety: predict-family calls before fit are NotFitted,
    # never AttributeError.
    def transform(self, ds):
        raise NotFitted(f"{self.spec.name!r} is not fitted")

    def predict(self, ds):
        raise NotFitted(f"{self.spec.name!r} is not fitted")

    def predict_counterfactuals(self, ds, alternatives):
        raise NotFitted(f"{self.spec.name!r} is not fitted")


class FittedEstimator:
    """Immutable result of fit: learned state plus the signature of the
    features it was trained on, after its fitted front. A query runs the
    front, whose steps each accept a superset of their training features
    and keep extra features in order, then the step's own checks."""

    def __init__(self, spec: EstimatorSpec, params: dict, state: dict,
                 features: tuple, front=()):
        self.spec = spec
        self.params = params
        self.state = state
        self.features = features
        self.front = tuple(front)

    def run_front(self, ds: Dataset) -> Dataset:
        """ds after each fitted front step's transform, in order."""
        for f in self.front:
            ds = f.transform(ds)
        return ds

    def transform(self, ds: Dataset) -> Dataset:
        if self.spec.category is not Category.TRANSFORM:
            raise NotATransform(f"{self.spec.name!r} is a "
                                f"{self.spec.category.value}, not a transform")
        ds = self.run_front(ds)
        _check_superset_fingerprint(self, ds)
        return self.spec.transform(self.params, self.state, ds)

    def predictor(self, ds: Dataset):
        """predict(fid, perm) from one run of the front and one
        featurization of ds: the prediction on ds with covariate fid's
        samples permuted by perm, or unpermuted for fid None. A shuffle
        reindexes the matrix columns the front's `derived_ids` derive from
        fid; only an estimator `interpret.check_importance` passes has one."""
        if self.spec.category not in _PREDICTING:
            raise WrongCategory(
                f"{self.spec.name!r} ({self.spec.category.value}) "
                "does not support predict")
        ds = self.run_front(ds)
        check_fingerprint(self, ds)
        if self.spec.predict_columns is None:
            def predict(fid, perm):
                if fid is not None:
                    raise MetricMismatch(f"{self.spec.name!r} has no "
                                         "predict_columns to permute")
                return self.spec.predict(self.params, self.state, ds)
            return predict
        names, columns = covariate_matrix(ds)
        sources = [fid for fid, _, group in covariate_groups(ds)
                   for _ in group]

        def predict(fid, perm):
            shuffled = columns
            if fid is not None:
                ids = {fid}
                for step in self.front:
                    ids = {out for i in ids for out in
                           step.spec.derived_ids(step.params, step.state, i)}
                shuffled = [[col[p] for p in perm] if src in ids else col
                            for src, col in zip(sources, columns)]
            return self.spec.predict_columns(self.params, self.state,
                                             ds.sample_ids, names, shuffled)
        return predict

    def predict(self, ds: Dataset):
        return self.predictor(ds)(None, None)

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
        ds = self.run_front(ds)
        check_fingerprint(self, ds)
        return self.spec.predict_counterfactuals(self.params, self.state, ds,
                                                 alternatives)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def build_pipeline(steps) -> Estimator:
    """steps: list of (plugin_name, params) pairs; every step but the last
    must be a Transform. Returns the last step's Estimator with the others
    as its front. A step's fault raises as `step <i> (<plugin>): ...`."""
    steps = list(steps)
    if not steps:
        raise BadPipelineShape("pipeline needs at least one step")
    ests = []
    for i, (name, params) in enumerate(steps):
        try:
            est = create(name, params)
            if i < len(steps) - 1 and \
                    est.spec.category is not Category.TRANSFORM:
                raise BadPipelineShape(f"a {est.spec.category.value} may "
                                       "only be the last step")
        except TempoframeError as e:
            raise type(e)(f"step {i} ({name}): {e}") from None
        ests.append(est)
    *front, last = ests
    return Estimator(last.spec, last.params, front)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_BLOB_FORMAT = "tempoframe.fitted"
_BLOB_VERSION = 2


def _step_to_doc(f: FittedEstimator) -> dict:
    return {"plugin": f.spec.name,
            "params": f.params,
            "state": f.state,
            "features": [list(t) for t in f.features]}


def _step_from_doc(doc, front=()) -> FittedEstimator:
    if not isinstance(doc, dict) or "plugin" not in doc:
        raise CorruptBlob("missing plugin name")
    name = doc["plugin"]
    try:
        features = tuple(tuple(t) for t in doc["features"])
        if any(len(t) != 4 or {*map(type, t)} != {str} for t in features):
            raise CorruptBlob(f"{name!r}: stored features are malformed")
        params = doc["params"]
        state = doc["state"]
    except (KeyError, TypeError) as e:
        raise CorruptBlob(f"malformed fitted-estimator document: {e}") from None
    if name not in _REGISTRY:
        raise UnknownPluginInBlob(f"blob names unregistered plugin {name!r}")
    spec = _REGISTRY[name]
    return FittedEstimator(spec, resolve_params(spec.schema, params), state,
                           features, front)


def save_fitted(f: FittedEstimator) -> bytes:
    """The blob: the step's document plus a `front` list of its front
    steps' documents."""
    doc = {"format": _BLOB_FORMAT, "version": _BLOB_VERSION,
           "fitted": {**_step_to_doc(f),
                      "front": [_step_to_doc(s) for s in f.front]}}
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        for step in (*f.front, f):
            try:
                json.dumps([step.params, step.state], allow_nan=False)
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
    fitted = doc["fitted"]
    front = fitted.get("front") if isinstance(fitted, dict) else None
    if not isinstance(front, list):
        raise CorruptBlob("fitted document has no front list")
    return _step_from_doc(fitted, [_step_from_doc(d) for d in front])
