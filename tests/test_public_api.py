"""The package namespace exports exactly the documented API."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
import sys
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

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_all_is_the_documented_api():
    assert len(chaidkit.__all__) == len(DOCUMENTED)
    assert set(chaidkit.__all__) == DOCUMENTED


def test_every_exported_name_resolves():
    for name in chaidkit.__all__:
        assert getattr(chaidkit, name) is not None, name


def test_module_names_are_the_documented_ones():
    # README: "Everything else lives in its module: `A` and `B` in `chaidkit.m`; ..."
    lead = "Everything else lives in its module: "
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if lead in " ".join(p.split()))
    listing = " ".join(paragraph.split()).split(lead, 1)[1]
    documented = {
        module: set(re.findall(r"`(\w+)`", names))
        for names, module in re.findall(r"(.*?) in `chaidkit\.(\w+)`[;.]", listing)
    }
    modules = {}
    for name in ("core", "stats", "ingest", "grow", "model", "cli"):
        extra = set(importlib.import_module(f"chaidkit.{name}").__all__) - set(chaidkit.__all__)
        if extra:
            modules[name] = extra
    assert modules == documented


def test_the_library_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependency; CI installs the test extras, so an
    # import of one of them from src/ would pass every other step.
    for path in sorted((ROOT / "src" / "chaidkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "chaidkit", (path.name, name)


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


def test_library_use_examples_run_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 3
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert out.getvalue().splitlines() == [
        "{'no': 0.0, 'yes': 1.0}",
        "unroutable: category 'purple' of predictor 'color' was not seen in training at node 0; "
        "following the largest child (node 2)",
    ]
