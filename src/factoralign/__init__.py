"""Alignment of posterior factor-loading samples.

Bayesian factor models leave the loadings matrix identified only up to
right-multiplication by a semi-orthogonal matrix, so raw MCMC output mixes
rotations, column labels, and column signs.  This package removes that
ambiguity in three steps: varimax-rotate every sample, pick a pivot sample by
the median conditioning statistic, and greedily match each sample's columns
to the pivot's with signs.  Exact matchers, a conjugate Gibbs sampler, data
generators, and alignment diagnostics round out the toolkit.
"""

from .align import (
    AlignmentReport,
    MatchOrder,
    align_chain,
    brute_force_match,
    exact_match_assignment,
    greedy_match,
    match_loss,
)
from .chainio import (
    ChainFileManifest,
    FileFormatError,
    read_chain,
    read_dataset,
    write_chain,
    write_dataset,
)
from .core import (
    Chain,
    NumericalError,
    SampleError,
    SignedPermutation,
    apply_signed_permutation,
    column_l2_norms,
    compose,
    frobenius_norm,
    random_signed_permutation,
)
from .diagnostics import (
    DegenerateSeriesWarning,
    build_report,
    covariance_discrepancy,
    effective_sample_size,
    export_traces,
    mean_ess_ratio,
    per_entry_ess,
)
from .factor_model import (
    GeneratorConfig,
    SamplerConfig,
    Scenario,
    SyntheticDataset,
    generate_dataset,
    generate_independent,
    generate_sparse,
    gibbs_sample,
    validate_identifiability,
)
from .pivot import (
    PivotSelection,
    PivotStatistic,
    condition_number,
    select_pivot,
    singular_values,
)
from .varimax import (
    VarimaxConfig,
    VarimaxResult,
    orthogonalize_chain,
    varimax_criterion,
    varimax_rotate,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "Chain",
    "ChainFileManifest",
    "DegenerateSeriesWarning",
    "FileFormatError",
    "GeneratorConfig",
    "MatchOrder",
    "NumericalError",
    "PivotSelection",
    "PivotStatistic",
    "SampleError",
    "SamplerConfig",
    "Scenario",
    "SignedPermutation",
    "SyntheticDataset",
    "VarimaxConfig",
    "VarimaxResult",
    "align_chain",
    "apply_signed_permutation",
    "brute_force_match",
    "build_report",
    "column_l2_norms",
    "compose",
    "condition_number",
    "covariance_discrepancy",
    "effective_sample_size",
    "exact_match_assignment",
    "export_traces",
    "frobenius_norm",
    "generate_dataset",
    "generate_independent",
    "generate_sparse",
    "gibbs_sample",
    "greedy_match",
    "match_loss",
    "mean_ess_ratio",
    "orthogonalize_chain",
    "per_entry_ess",
    "random_signed_permutation",
    "read_chain",
    "read_dataset",
    "select_pivot",
    "singular_values",
    "validate_identifiability",
    "varimax_criterion",
    "varimax_rotate",
    "write_chain",
    "write_dataset",
]
