"""The package namespace exports exactly the documented API."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import chaidkit

DOCUMENTED = {
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
}

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_is_the_documented_api():
    assert len(chaidkit.__all__) == len(DOCUMENTED)
    assert set(chaidkit.__all__) == DOCUMENTED


def test_every_exported_name_resolves():
    for name in chaidkit.__all__:
        assert getattr(chaidkit, name) is not None, name


def test_benchmark_imports_are_exported():
    # perfbench/run.py imports these from the package root on every run.
    source = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "chaidkit"
        for alias in node.names
    }
    assert {"ChaidError", "DatasetSchema", "load_dataset", "load_model"} <= imported
    assert imported <= set(chaidkit.__all__)


def test_benchmark_tracer_wraps_the_growth_layers(monkeypatch):
    # perfbench/layers.py replaces module attributes by name (cli.train_tree,
    # grow.best_split, core.merge_categories, ...); a renamed one fails here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    import chaidkit.core as core
    import chaidkit.grow as grow

    original = (grow.best_split, core.merge_categories, core.build_contingency)
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        records = [{"x": x, "y": y} for x, y in [("a", "u"), ("b", "v")] * 20]
        spec = chaidkit.PredictorSpec("x", chaidkit.Scale.FREE, ("a", "b"))
        chaidkit.grow_tree(records, [spec], "y")
    finally:
        tracer.remove()
    assert (grow.best_split, core.merge_categories, core.build_contingency) == original
    # Training still reaches every wrapped layer through its module globals.
    for name in (
        "core.best_split",
        "core.merge_categories",
        "stats.build_contingency",
        "stats.chi_square_test",
        "stats.bonferroni_multiplier",
    ):
        assert tracer.named(name), name
