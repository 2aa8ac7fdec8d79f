"""Tests of the benchmark itself. Run with ``python3 perfbench/test_perfbench.py``.

They need only the standard library and the sources under ``src/``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from workloads import ACCEPTANCE_SEED, WORKLOADS, Workload, listing_rows, nominal_rows  # noqa: E402


def acceptance_listing_rows():
    """``_synthetic_listing_rows`` from the acceptance test, without importing its module."""
    source = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    (func,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_synthetic_listing_rows"
    ]
    namespace: dict = {}
    exec(compile(ast.Module(body=[func], type_ignores=[]), "test_acceptance.py", "exec"), namespace)
    return namespace["_synthetic_listing_rows"]


class GeneratorTest(unittest.TestCase):
    def test_listings_rows_equal_the_acceptance_generator(self):
        reference = acceptance_listing_rows()
        ours = listing_rows(random.Random(ACCEPTANCE_SEED), 100_000)
        self.assertEqual(ours, reference(random.Random(ACCEPTANCE_SEED), 100_000))

    def test_same_seed_same_inputs(self):
        generate = WORKLOADS["nominal-wide"].generate
        self.assertEqual(generate(7), generate(7))
        self.assertNotEqual(generate(7), generate(8))


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_match_what_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER_UNITS)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_spans_and_tallies_inside(self):
        ns = types.SimpleNamespace()
        ns.inner = lambda: time.sleep(0.01)
        ns.hot = lambda: time.sleep(0.002)

        def outer():
            ns.inner()
            for _ in range(5):
                ns.hot()
            time.sleep(0.01)

        ns.outer = outer
        originals = dict(vars(ns))
        tracer = layers.Tracer()
        tracer.span(ns, "outer", "outer")
        tracer.span(ns, "inner", "inner")
        tracer.tally(ns, "hot", "hot")
        ns.outer()
        tracer.remove()

        self.assertEqual(vars(ns), originals)
        (span,) = tracer.named("outer")
        self.assertEqual(len(tracer.named("inner", parent="outer")), 1)
        self.assertEqual(tracer.counts["hot"], 5)
        covered = tracer.total("inner") + tracer.times["hot"]
        self.assertAlmostEqual(span.self_time, span.duration - covered, places=9)
        self.assertGreaterEqual(span.self_time, 0.01)
        self.assertLess(span.self_time, 0.01 + 0.5 * covered)


class LayersTest(unittest.TestCase):
    def test_tracing_reports_every_layer_and_leaves_outputs_unchanged(self):
        from chaidkit import cli, core, grow, model

        small = Workload(
            "small",
            WORKLOADS["nominal-wide"].schema,
            lambda seed: (nominal_rows(random.Random(seed), 600), None),
        )
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            small.write_inputs(3, work)

            def train_and_predict() -> tuple[bytes, bytes]:
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(cli.main(small.train_argv(work)), 0)
                    self.assertEqual(cli.main(small.predict_argv(work)), 0)
                return (work / "model.json").read_bytes(), (work / "predictions.csv").read_bytes()

            plain = train_and_predict()
            before = [dict(vars(owner)) for owner in (cli, core, grow, model.Tree)]
            tracer = layers.Tracer()
            layers.install(tracer)
            try:
                traced = train_and_predict()
            finally:
                tracer.remove()
            self.assertEqual(traced, plain)
            self.assertEqual([dict(vars(owner)) for owner in (cli, core, grow, model.Tree)], before)

        figures = layers.metrics(tracer)
        computed_by_run = {"ingest.rows_per_s", "trace_overhead_ratio", "model.model_bytes"}
        self.assertEqual(set(figures), set(PER_LAYER_UNITS) - computed_by_run)
        self.assertEqual(figures["model.route_calls"], 600)
        self.assertGreaterEqual(figures["core.pair_tests"], figures["stats.pair_p_value_calls"])
        self.assertGreater(figures["stats.pair_p_value_calls"], 0)
        self.assertGreater(figures["core.merges"], 0)
        for name, value in figures.items():
            self.assertGreaterEqual(value, 0, name)


if __name__ == "__main__":
    unittest.main()
