"""chaidkit: classification trees built from chi-squared category merging.

The library grows trees the CHAID way: at every node each predictor's
categories are merged pairwise while statistically indistinguishable, the
merged tables are scored by a Bonferroni-adjusted chi-squared test, and
the most significant predictor splits the node until the stop rules end
growth. Terminal nodes predict class-probability distributions.
"""

from .core import (
    MISSING_LABEL,
    CategoryPartition,
    GrowthParams,
    PredictorSpec,
    SplitCandidate,
    StopReason,
    best_split,
    evaluate_predictor,
    merge_categories,
    should_stop,
)
from .errors import ChaidError, DataError, ModelError
from .grow import grow_tree, train_tree
from .ingest import (
    BinningSpec,
    ColumnSpec,
    Dataset,
    DatasetSchema,
    assign_bin,
    bin_numeric,
    load_dataset,
    load_schema,
)
from .model import (
    ClassDistribution,
    NodeSplit,
    Tree,
    TreeNode,
    load_model,
    save_model,
)
from .stats import (
    BonferroniQuery,
    ChiSquareResult,
    ContingencyTable,
    Scale,
    bonferroni_multiplier,
    build_contingency,
    chi_square_p_value,
    chi_square_test,
    expected_counts,
    partition_count_oracle,
    pearson_chi_square,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChaidError",
    "DataError",
    "ModelError",
    "Scale",
    "ContingencyTable",
    "ChiSquareResult",
    "BonferroniQuery",
    "build_contingency",
    "expected_counts",
    "pearson_chi_square",
    "chi_square_p_value",
    "chi_square_test",
    "bonferroni_multiplier",
    "partition_count_oracle",
    "MISSING_LABEL",
    "PredictorSpec",
    "CategoryPartition",
    "SplitCandidate",
    "GrowthParams",
    "StopReason",
    "merge_categories",
    "evaluate_predictor",
    "best_split",
    "should_stop",
    "NodeSplit",
    "TreeNode",
    "ClassDistribution",
    "Tree",
    "load_model",
    "save_model",
    "grow_tree",
    "train_tree",
    "BinningSpec",
    "ColumnSpec",
    "DatasetSchema",
    "Dataset",
    "bin_numeric",
    "assign_bin",
    "load_dataset",
    "load_schema",
]
