"""ranktopo: estimation from pairwise and m-wise comparisons with
topology-aware minimax analysis.

The package splits into comparison-graph spectral analysis (graph),
link-function families (models), synthetic data generation (synth),
estimators (estimate), executable minimax bounds (bounds), and a CLI (cli).
"""

from .bounds import (
    BoundReport,
    CvoReport,
    PackingSet,
    cvo_decision,
    fano_bound,
    fano_pipeline,
    gv_packing,
    gv_target,
    kl_exact,
    kl_upper,
    minimax_bounds,
    mwise_prefactors,
)
from .estimate import (
    ErrorMetrics,
    EstimateResult,
    SolverOptions,
    error_metrics,
    ls_paired_cardinal,
    mean_cardinal,
    mle_mwise,
    mle_ordinal,
    mwise_nll,
    mwise_nll_gradient,
    ordinal_nll,
    ordinal_nll_gradient,
    project_feasible,
)
from .graph import (
    ComparisonDesign,
    HyperDesign,
    OptimalityReport,
    SpectralSummary,
    build_topology,
    design_from_json,
    hypergraph_laplacian,
    lower_bound_statistic,
    optimality_report,
    spectrum,
)
from .models import (
    LinkFunction,
    ModelParams,
    MWiseLink,
    make_link,
    model_params,
    plackett_luce,
)
from .synth import (
    CardinalModel,
    ObservationBatch,
    QualityVector,
    even_allocation,
    gen_quality,
    sample_comparisons,
    sample_outcomes,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CvoReport", "PackingSet",
    "cvo_decision", "fano_bound", "fano_pipeline", "gv_packing", "gv_target",
    "kl_exact", "kl_upper", "minimax_bounds", "mwise_prefactors",
    "ErrorMetrics", "EstimateResult", "SolverOptions", "error_metrics",
    "ls_paired_cardinal", "mean_cardinal", "mle_mwise", "mle_ordinal",
    "mwise_nll", "mwise_nll_gradient", "ordinal_nll", "ordinal_nll_gradient",
    "project_feasible",
    "ComparisonDesign", "HyperDesign", "OptimalityReport", "SpectralSummary",
    "build_topology", "design_from_json", "hypergraph_laplacian",
    "lower_bound_statistic", "optimality_report", "spectrum",
    "LinkFunction", "ModelParams", "MWiseLink", "make_link", "model_params", "plackett_luce",
    "CardinalModel", "ObservationBatch", "QualityVector",
    "even_allocation", "gen_quality", "sample_comparisons", "sample_outcomes",
    "__version__",
]
