"""chaidkit: classification trees built from chi-squared category merging.

The library grows trees the CHAID way: at every node each predictor's
categories are merged pairwise while statistically indistinguishable, the
merged tables are scored by a Bonferroni-adjusted chi-squared test, and
the most significant predictor splits the node until the stop rules end
growth. Terminal nodes predict class-probability distributions.
"""

from .core import (
    GrowthParams,
    PredictorSpec,
    best_split,
    evaluate_predictor,
    merge_categories,
)
from .errors import ChaidError, DataError, ModelError
from .grow import grow_tree, train_tree
from .ingest import DatasetSchema, load_dataset, load_schema
from .model import Tree, load_model, save_model
from .stats import (
    CodedRecords,
    ContingencyTable,
    Scale,
    bonferroni_multiplier,
    build_contingency,
    chi_square_p_value,
    chi_square_test,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChaidError",
    "DataError",
    "ModelError",
    "Scale",
    "GrowthParams",
    "PredictorSpec",
    "ContingencyTable",
    "CodedRecords",
    "build_contingency",
    "merge_categories",
    "evaluate_predictor",
    "best_split",
    "chi_square_test",
    "chi_square_p_value",
    "bonferroni_multiplier",
    "grow_tree",
    "train_tree",
    "DatasetSchema",
    "load_schema",
    "load_dataset",
    "Tree",
    "load_model",
    "save_model",
]
