"""Reduce-then-cluster toolkit.

Four dimension reducers (SVD projection, PCA, SOM, FastICA), DBSCAN over
mixed numeric/nominal data, EM Gaussian-mixture clustering, and a benchmark
harness that wires them into a reduce -> DBSCAN -> filter -> EM pipeline and
emits measurement tables. Two library utilities sit outside the benchmark:
``filter_examples(ds, keep)`` keeps the rows a boolean mask selects, and
``data_to_similarity(data, schema)`` returns the inverse-distance similarity
of a 2-D table as an n x n array.
"""

from .benchmark import (
    BenchmarkConfig,
    BenchmarkReport,
    emit_report,
    paired_dbscan_timing,
    run_benchmark,
    run_full_benchmark,
)
from .dataset import (
    ColumnSpec,
    Dataset,
    data_to_similarity,
    filter_examples,
    load_dataset,
    normalize,
)
from .density import (
    ClusterAssignment,
    DistanceSchema,
    cluster_count,
    dbscan,
    mixed_euclidean,
    pairwise_distances,
)
from .errors import (
    ConvergenceError,
    DatasetParseError,
    DegenerateInputError,
    InvalidConfigError,
    InvalidInputError,
    OutputError,
    RedclustError,
    SchemaError,
)
from .linalg import EigenPairs, SvdFactors, center, orthogonalize, svd, sym_eig
from .mixture import MixtureModel, em_fit, kmeans_init
from .model_io import load_model, save_model
from .reducers import (
    IcaModel,
    PcaModel,
    ReducedDataset,
    SomGrid,
    fastica_fit,
    fastica_transform,
    pca_encode,
    pca_fit,
    pca_reconstruct,
    som_encode,
    som_fit,
    svd_reduce,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "BenchmarkReport",
    "ClusterAssignment",
    "ColumnSpec",
    "ConvergenceError",
    "Dataset",
    "DatasetParseError",
    "DegenerateInputError",
    "DistanceSchema",
    "EigenPairs",
    "IcaModel",
    "InvalidConfigError",
    "InvalidInputError",
    "MixtureModel",
    "OutputError",
    "PcaModel",
    "RedclustError",
    "ReducedDataset",
    "SchemaError",
    "SomGrid",
    "SvdFactors",
    "center",
    "cluster_count",
    "data_to_similarity",
    "dbscan",
    "em_fit",
    "emit_report",
    "fastica_fit",
    "fastica_transform",
    "filter_examples",
    "kmeans_init",
    "load_dataset",
    "load_model",
    "mixed_euclidean",
    "normalize",
    "orthogonalize",
    "paired_dbscan_timing",
    "pairwise_distances",
    "pca_encode",
    "pca_fit",
    "pca_reconstruct",
    "run_benchmark",
    "run_full_benchmark",
    "save_model",
    "som_encode",
    "som_fit",
    "svd",
    "svd_reduce",
    "sym_eig",
    "__version__",
]
