"""Exception hierarchy shared by every tempoframe module.

All errors derive from :class:`TempoframeError` so callers can catch the
library as a whole, while tests and the CLI can pin down the precise failure.
"""


class TempoframeError(Exception):
    """Base class for all tempoframe errors."""


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

class DuplicateCell(TempoframeError):
    """The same (sample, feature) static cell was supplied twice."""


class KindMismatch(TempoframeError):
    """A value (or time coordinate) violates its feature's declared kind."""


class DuplicateTimePoint(TempoframeError):
    """The same (sample, feature, time) triple was supplied twice."""


class DuplicateEvent(TempoframeError):
    """More than one event entry for one (sample, feature)."""


class SampleIndexMismatch(TempoframeError):
    """Containers of one dataset disagree on sample ids or their order."""


class DuplicateFeature(TempoframeError):
    """The same feature id appears in more than one modality container."""


class RoleGap(TempoframeError):
    """A feature has no role, or the dataset has no covariate at all."""


class RoleConflict(TempoframeError):
    """A feature has two roles, or a role names an undeclared feature."""


class UnknownSample(TempoframeError):
    """A sample id outside the dataset was requested."""


class EmptyDataset(TempoframeError):
    """A dataset was assembled without any modality container."""


# ---------------------------------------------------------------------------
# Bundle I/O
# ---------------------------------------------------------------------------

class ManifestError(TempoframeError):
    """Bundle manifest is missing keys, malformed, or has a bad version."""


class ParseError(TempoframeError):
    """A bundle table row could not be parsed (arity, times, headers)."""


class IoError(TempoframeError):
    """Filesystem failure while reading or writing a bundle."""


# ---------------------------------------------------------------------------
# Plugin framework
# ---------------------------------------------------------------------------

class DuplicatePlugin(TempoframeError):
    """A plugin name was registered twice."""


class UnknownPlugin(TempoframeError):
    """No plugin registered under the requested name."""


class UnknownParam(TempoframeError):
    """A hyperparameter name not present in the plugin's schema."""


class ParamOutOfBounds(TempoframeError):
    """A hyperparameter value violates its declared bounds or choices."""


class RequirementUnmet(TempoframeError):
    """Dataset does not satisfy a plugin's modality/role requirements.

    ``reason`` is a stable machine-readable code such as
    ``missing_event_target`` or ``non_numeric_feature``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class FingerprintMismatch(TempoframeError):
    """Query dataset features differ from the training features."""


class NotFitted(TempoframeError):
    """predict/transform called on an estimator that was never fitted."""


class NotATransform(TempoframeError):
    """transform() called on a non-Transform estimator."""


class WrongCategory(TempoframeError):
    """A lifecycle call not supported by the estimator's category."""


class BadPipelineShape(TempoframeError):
    """Pipeline steps empty or with a non-Transform in interior position."""


class InvalidAlternative(TempoframeError):
    """Counterfactual alternatives empty, duplicated, or kind-invalid."""


class CorruptBlob(TempoframeError):
    """A fitted-estimator blob failed to decode."""


class UnknownPluginInBlob(TempoframeError):
    """A fitted-estimator blob names a plugin that is not registered."""


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

class AllMissingFeature(TempoframeError):
    """A feature has zero observed training values, so no fill statistic."""


class UnseenCategory(TempoframeError):
    """A categorical value outside the declared category list."""


class InvalidStep(TempoframeError):
    """A non-positive or non-finite step/spacing parameter."""


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

class EmptyTargetSeries(TempoframeError):
    """A target sequence has no observed value to forecast from."""


class IrregularSeries(TempoframeError):
    """A sequence is not on the exact regular grid the model requires."""


class InsufficientHistory(TempoframeError):
    """Fewer observed points than the model order requires."""


class MissingInTarget(TempoframeError):
    """Missing values inside a target feature."""


class NonBinaryTarget(RequirementUnmet):
    """Classification target is not binary."""

    def __init__(self, detail: str = ""):
        super().__init__("non_binary_target", detail)


class MissingInFeatures(TempoframeError):
    """Missing values remained in featurized covariates."""


class AlignmentError(TempoframeError):
    """Predictions and ground truth disagree on samples/features/times."""


# ---------------------------------------------------------------------------
# Numeric kernels
# ---------------------------------------------------------------------------

class FitDiverged(TempoframeError):
    """A numeric fit hit a singular system or produced non-finite values."""


# ---------------------------------------------------------------------------
# Survival
# ---------------------------------------------------------------------------

class EmptyInput(TempoframeError):
    """An estimator was given zero samples."""


class NoEvents(TempoframeError):
    """All samples censored; nothing to fit the hazard model on."""


class NoComparablePairs(TempoframeError):
    """No pair of outcomes is comparable under the concordance rule."""


class NoEvaluableSamples(TempoframeError):
    """No sample is evaluable at the requested Brier horizon."""


# ---------------------------------------------------------------------------
# Treatment effects
# ---------------------------------------------------------------------------

class ArmTooSmall(TempoframeError):
    """A treatment arm has too few samples to fit its regressor."""


class NonBinaryTreatment(RequirementUnmet):
    """Treatment feature is not binary."""

    def __init__(self, detail: str = ""):
        super().__init__("non_binary_treatment", detail)


class MultipleTargets(RequirementUnmet):
    """More than one target feature where exactly one is required."""

    def __init__(self, detail: str = ""):
        super().__init__("multiple_targets", detail)


class InvalidSpec(TempoframeError):
    """A synthetic-data generator or a plugin spec is invalid."""


# ---------------------------------------------------------------------------
# Interpretability
# ---------------------------------------------------------------------------

class MetricMismatch(TempoframeError):
    """Metric not applicable to the estimator or task at hand."""


class TooFewSamples(TempoframeError):
    """Not enough samples for the requested operation (importance, CV)."""


class NonFiniteScore(TempoframeError):
    """A permutation-importance score came out NaN or infinite."""


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------

class ConfigError(TempoframeError):
    """Benchmark configuration file is invalid."""


class BenchError(TempoframeError):
    """A benchmark fold failed; message carries fold index and step name."""
