"""VAR-based shock identification toolkit.

Subpackages cover the full pipeline: quarterly panel ingestion (``panel``),
Bayesian VAR estimation (``bvar``), Cholesky identification and residual
decomposition (``structural``), local projections with HAC inference
(``localproj``), patent-based innovation indices (``patentval``), a
simulation oracle (``synth``), and the batch CLI (``cli``).
"""

__version__ = "0.1.0"

from .bvar import (
    OlsFit,
    PosteriorDraw,
    PosteriorDraws,
    PriorSpec,
    VarSpec,
    build_regressors,
    companion,
    ols_estimate,
    posterior_mean,
    posterior_sample,
)
from .errors import ConfigError, DataError, NumericalError, PipelineError
from .localproj import (
    LocalProjectionResult,
    StateLpResult,
    lp_irf,
    lp_irf_state,
    newey_west,
)
from .panel import TimeSeriesPanel, align_range, apply_transforms, load_panel, write_panel
from .patentval import (
    InnovationIndex,
    PatentEvent,
    PatentEvents,
    assign_values,
    build_index,
    filter_value,
    index_stats,
)
from .structural import (
    ImpactMatrix,
    IrfSet,
    ShockDecomposition,
    cholesky_rotate,
    compute_irf,
    decompose_residuals,
    irf_band_summary,
    irf_bands,
    rescale_irf,
    standardize_shock,
)
from .synth import Dgp, simulate_var, true_irf

__all__ = [
    "__version__",
    "ConfigError",
    "DataError",
    "NumericalError",
    "PipelineError",
    "TimeSeriesPanel",
    "load_panel",
    "write_panel",
    "apply_transforms",
    "align_range",
    "VarSpec",
    "OlsFit",
    "PriorSpec",
    "PosteriorDraw",
    "PosteriorDraws",
    "build_regressors",
    "ols_estimate",
    "posterior_mean",
    "posterior_sample",
    "companion",
    "ImpactMatrix",
    "IrfSet",
    "ShockDecomposition",
    "cholesky_rotate",
    "compute_irf",
    "irf_band_summary",
    "irf_bands",
    "rescale_irf",
    "decompose_residuals",
    "standardize_shock",
    "LocalProjectionResult",
    "StateLpResult",
    "lp_irf",
    "lp_irf_state",
    "newey_west",
    "PatentEvent",
    "PatentEvents",
    "InnovationIndex",
    "filter_value",
    "assign_values",
    "build_index",
    "index_stats",
    "Dgp",
    "simulate_var",
    "true_irf",
]
