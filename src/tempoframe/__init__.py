"""tempoframe: a small toolkit for medically-flavored temporal data.

Datasets combine three modalities (static values, irregular time series,
at-most-one event records) under an exhaustive covariate/target/treatment
role partition. Estimators are plugins with a fit/transform/predict/
predict_counterfactuals lifecycle; a config-driven CLI benchmarks them
with deterministic, byte-stable reports.

Importing the package registers every shipped plugin.
"""

from tempoframe._version import __version__
from tempoframe.data import (
    MISSING,
    Categorical,
    Continuous,
    Dataset,
    EventSamples,
    Integer,
    Modality,
    Role,
    RoleMap,
    StaticSamples,
    TimeSeriesSamples,
    assemble_dataset,
    build_event_samples,
    build_static_samples,
    build_time_series_samples,
    covariate_matrix,
    take_samples,
)
from tempoframe.bundle import read_bundle, validate_bundle, write_bundle
from tempoframe.plugins import (
    Category,
    EstimatorSpec,
    FittedEstimator,
    Param,
    build_pipeline,
    create,
    list_specs,
    load_fitted,
    register_plugin,
    save_fitted,
)

# Importing these modules registers their plugins.
from tempoframe import forecasting, preprocess  # noqa: F401
from tempoframe.survival import SurvivalCurve, event_outcomes, kaplan_meier
from tempoframe.treatment import synth_treatment_data
from tempoframe.metrics import accuracy, brier_score, concordance_index, rmse
from tempoframe.interpret import permutation_importance
from tempoframe.bench import (
    BenchConfig,
    load_config,
    report_text,
    run_benchmark,
)

__all__ = [
    "__version__",
    "MISSING", "Continuous", "Integer", "Categorical",
    "Role", "Modality", "RoleMap", "Dataset",
    "StaticSamples", "TimeSeriesSamples", "EventSamples",
    "build_static_samples", "build_time_series_samples",
    "build_event_samples", "assemble_dataset",
    "take_samples", "covariate_matrix",
    "read_bundle", "write_bundle", "validate_bundle",
    "Category", "EstimatorSpec", "Param", "FittedEstimator",
    "register_plugin", "create", "list_specs", "build_pipeline",
    "save_fitted", "load_fitted",
    "rmse", "accuracy",
    "SurvivalCurve", "kaplan_meier", "concordance_index", "brier_score",
    "event_outcomes",
    "synth_treatment_data",
    "permutation_importance",
    "BenchConfig", "load_config", "run_benchmark",
    "report_text",
]
