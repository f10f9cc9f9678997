"""Taxicab correspondence analysis, cut norms, and balanced 2-block seriation.

A library and CLI for L1-based analysis of contingency tables and centered
arrays: robust dispersion statistics with gain-function certificates,
cut-norms of centered vectors/matrices/tensors, taxicab and classical
correspondence analysis, and maximal-interaction two-mode clustering.
"""

from .ca_classic import (
    CaDecomposition,
    CaTcaComparison,
    ca,
    compare_ca_tca,
    jacobi_svd,
)
from .clustering import ClusteringResult, TwoModePartition, maximize, objective
from .datasets import DATASETS, load_dataset
from .dispersion import (
    DispersionReport,
    center,
    cut_norm_vec,
    gain_d,
    gain_s,
    lad,
    mad_mean,
    relative_contributions,
    variance_and_std,
)
from .io import LabeledMatrix, load_counts_csv, load_tensor
from .reports import AnalysisReport
from .residual import (
    CorrespondenceMatrix,
    ResidualMatrix,
    Tensor3,
    additive_double_center,
    correspondence_residual,
    from_counts,
    triple_center,
)
from .svg import render_map
from .taxicab import (
    EnumerationBudgetError,
    InvariantError,
    SeriationReport,
    TaxicabAxis,
    TcaDecomposition,
    cut_norm_matrix,
    deflate,
    norm_exact,
    norm_heuristic,
    rc_axis,
    seriate,
    tca,
)
from .tensor import (
    TensorAxis,
    octant_report,
    tensor_norm,
    tensor_norm_exact,
    tensor_norm_heuristic,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CaDecomposition",
    "CaTcaComparison",
    "ClusteringResult",
    "CorrespondenceMatrix",
    "DATASETS",
    "DispersionReport",
    "EnumerationBudgetError",
    "InvariantError",
    "LabeledMatrix",
    "ResidualMatrix",
    "SeriationReport",
    "TaxicabAxis",
    "TcaDecomposition",
    "Tensor3",
    "TensorAxis",
    "TwoModePartition",
    "additive_double_center",
    "ca",
    "center",
    "compare_ca_tca",
    "correspondence_residual",
    "cut_norm_matrix",
    "cut_norm_vec",
    "deflate",
    "from_counts",
    "gain_d",
    "gain_s",
    "jacobi_svd",
    "lad",
    "load_counts_csv",
    "load_dataset",
    "load_tensor",
    "mad_mean",
    "maximize",
    "norm_exact",
    "norm_heuristic",
    "objective",
    "octant_report",
    "rc_axis",
    "relative_contributions",
    "render_map",
    "seriate",
    "tca",
    "tensor_norm",
    "tensor_norm_exact",
    "tensor_norm_heuristic",
    "triple_center",
    "variance_and_std",
]
