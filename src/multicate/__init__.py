"""Heterogeneous treatment-effect estimation for multiple correlated outcomes.

The main estimator fits a row-sparse, reduced-rank coefficient matrix for
the treatment-covariate interaction, with per-subject offset rows that
absorb contaminated observations and inverse-probability weights for
non-randomized designs.
"""

from .baselines import BaselineModel, fit_wfull, fit_wmcm, fit_wmcm_l1, fit_wmcmrrr
from .data import (
    CateEstimate,
    DataError,
    Dataset,
    FactorModel,
    FitConfig,
    NumericalError,
    assemble_design,
    validate_dataset,
)
from .metrics import METRIC_ORDER, MetricsReport, auc, bias, evaluate, mse, spearman
from .model_io import (
    ModelArtifact,
    PathDiagramGraph,
    build_path_diagram,
    export_path_diagram,
    load_csv_dataset,
    load_model,
    read_replication_csv,
    save_model,
    summarize_replications,
    write_replication_csv,
    write_summary_csv,
)
from .model_selection import CvGrid, CvResult, cross_validate, cv_loss, default_cv_grid, kfold_split
from .simulation import (
    B_LARGE,
    B_SMALL,
    METHOD_ALIASES,
    TRUE_RANK,
    ScenarioSpec,
    SimulatedTruth,
    assign_treatment,
    generate_covariates,
    generate_gamma,
    generate_outcomes,
    generate_truth,
    inject_outliers,
    make_main_effect,
    run_scenario,
)
from .solver import (
    FitTrace,
    fit,
    fit_batch,
    group_soft_threshold,
    objective,
    predict_cate,
    update_loading_rows,
    update_orthogonal_factor,
    update_outlier_rows,
)
from .weights import (
    WeightVector,
    compute_weights,
    fit_propensity_logistic,
    rct_weights,
    resolve_weights,
)

__version__ = "0.1.0"

__all__ = [
    "B_LARGE", "B_SMALL", "METHOD_ALIASES", "METRIC_ORDER", "TRUE_RANK",
    "BaselineModel", "CateEstimate", "CvGrid", "CvResult", "DataError", "Dataset",
    "FactorModel", "FitConfig", "FitTrace", "MetricsReport", "ModelArtifact",
    "NumericalError", "PathDiagramGraph", "ScenarioSpec", "SimulatedTruth",
    "WeightVector", "assemble_design", "assign_treatment", "auc", "bias",
    "build_path_diagram", "compute_weights", "cross_validate", "cv_loss",
    "default_cv_grid", "evaluate", "export_path_diagram", "fit", "fit_batch",
    "fit_propensity_logistic", "fit_wfull", "fit_wmcm", "fit_wmcm_l1",
    "fit_wmcmrrr", "generate_covariates", "generate_gamma", "generate_outcomes",
    "generate_truth", "group_soft_threshold", "inject_outliers", "kfold_split",
    "load_csv_dataset", "load_model", "make_main_effect", "mse", "objective",
    "predict_cate", "rct_weights", "read_replication_csv", "resolve_weights",
    "run_scenario", "save_model", "spearman", "summarize_replications",
    "update_loading_rows", "update_orthogonal_factor", "update_outlier_rows",
    "validate_dataset", "write_replication_csv", "write_summary_csv",
]
