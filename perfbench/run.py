"""chaidkit benchmark: train and predict through the CLI on one workload.

Usage, from the root of a source checkout (no install, no network, no pytest):

    python3 perfbench/run.py --workload listings-100k --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs from ``--seed`` (timed as ``setup_s``),
starts ``worker.py`` in a fresh process for ``--seconds`` of train and
predict cycles, then checks every output against the library. It prints a
report, then as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, measured untraced; with ``--trace 1``
they are the per-layer ones. A full record of the run, with every sample,
goes to ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from speed import reference_loop_s, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up is repeated at least this often, and for at least this long, so
#: ``setup_s`` is a median even when one set-up takes milliseconds.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
#: The worker is stopped if it overruns this, so a run always ends in time.
WORKER_TIMEOUT_S = 140

END_TO_END_UNITS = {
    "train_s": "s",
    "predict_s": "s",
    "train_rows_per_s": "1/s",
    "predict_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "ingest.load_dataset.train_s": "s",
    "ingest.rows_per_s": "1/s",
    "ingest.load_dataset.predict_s": "s",
    "grow.train_tree_s": "s",
    "grow.nodes": "count",
    "core.best_split_calls": "count",
    "core.best_split_s": "s",
    "core.merge_categories_calls": "count",
    "core.merge_categories_s": "s",
    "core.merge_categories_self_s": "s",
    "core.merges": "count",
    "core.pair_tests": "count",
    "core.pair_tests_per_merge": "tests/merge",
    "stats.build_contingency_calls": "count",
    "stats.build_contingency_s": "s",
    "stats.pair_p_value_calls": "count",
    "stats.pair_p_value_s": "s",
    "stats.chi_square_test_calls": "count",
    "stats.chi_square_test_s": "s",
    "stats.p_underflow_count": "count",
    "stats.bonferroni_multiplier_calls": "count",
    "stats.bonferroni_multiplier_s": "s",
    "model.save_model_s": "s",
    "model.load_model_s": "s",
    "model.model_bytes": "bytes",
    "model.route_calls": "count",
    "model.route_s": "s",
    "model.route_detours": "count",
    "model.distribution_calls": "count",
    "model.distribution_s": "s",
    "cli.predict_self_s": "s",
    "cli.train_self_s": "s",
    "trace_overhead_ratio": "ratio",
}


class Checks:
    """Output checks; each one that fails is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload, seed: int, work: Path) -> tuple[list[tuple[float, float]], tuple[int, int]]:
    """Write the inputs repeatedly.

    Returns each set-up's wall seconds with the mean seconds of the
    reference loop run just before and just after it, and the (train,
    predict) row counts.
    """
    times: list[tuple[float, float]] = []
    loop_before = reference_loop_s()
    while len(times) < SETUP_MIN_REPEATS or sum(t for t, _ in times) < SETUP_MIN_SECONDS:
        started = time.perf_counter()
        rows = workload.write_inputs(seed, work)
        elapsed = time.perf_counter() - started
        loop_after = reference_loop_s()
        times.append((elapsed, (loop_before + loop_after) / 2))
        loop_before = loop_after
    return times, rows


def run_worker(workload, work: Path, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload.name, "--work", str(work),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(workload, work: Path, cycles: list[dict], predict_rows: int, checks: Checks) -> dict:
    """Check every cycle's exit codes and hashes, then the final files in full.

    Every ``cli.main`` call is one operation, checked by its exit code.
    Returns the model's sha256, node count and depth.
    """
    from chaidkit import ChaidError, DatasetSchema, load_dataset, load_model

    for i, c in enumerate(cycles):
        checks.expect(c["train_code"] == 0, f"cycle {i}: train exited {c['train_code']}")
        checks.expect(c["predict_code"] == 0, f"cycle {i}: predict exited {c['predict_code']}")
    model_hashes = {c["model_sha256"] for c in cycles}
    checks.expect(len(model_hashes) == 1, f"trains gave {len(model_hashes)} different models")
    prediction_hashes = {c["predictions_sha256"] for c in cycles}
    checks.expect(
        len(prediction_hashes) == 1, f"predicts gave {len(prediction_hashes)} different files"
    )

    model = {"model_sha256": cycles[-1]["model_sha256"]}
    try:
        tree = load_model(work / "model.json")
    except ChaidError as exc:
        checks.expect(False, f"model does not reload: {exc}")
        return model
    checks.expect(True, "model reloads")
    model.update(nodes=len(tree.nodes), depth=tree.depth)
    try:
        replay = load_dataset(
            workload.predict_data(work),
            DatasetSchema.from_doc(tree.schema),
            require_target=False,
            keep_raw=True,
        )
    except ChaidError as exc:
        checks.expect(False, f"prediction input does not replay through the model schema: {exc}")
        return model
    if not checks.expect((work / "predictions.csv").is_file(), "no predictions file"):
        return model
    expected_header = (
        list(replay.header) + ["leaf_id", "predicted_class"] + [f"p_{c}" for c in tree.classes]
    )
    detours = 0

    def count_detour(_message: str) -> None:
        nonlocal detours
        detours += 1

    rows = 0
    wrong: list[int] = []
    with open(work / "predictions.csv", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=replay.schema.delimiter)
        header = next(reader, None)
        for rows, (out, raw, record) in enumerate(
            zip(reader, replay.raw_rows, replay.records), start=1
        ):
            leaf = tree.route(record, warn=count_detour)
            dist = tree.distribution(leaf)
            width = len(raw) + 2
            try:
                probabilities = [float(p) for p in out[width:]]
            except ValueError:
                probabilities = []
            if (
                out[:width] != [*raw, str(leaf), dist.modal_class()]
                or probabilities != [dist.probabilities[c] for c in tree.classes]
            ):
                wrong.append(rows)
        rows += sum(1 for _ in reader)
    checks.expect(header == expected_header, f"predictions header is {header}")
    checks.expect(rows == predict_rows, f"{rows} prediction rows for {predict_rows} inputs")
    checks.expect(
        not wrong,
        f"{len(wrong)} prediction rows differ from Tree.route/distribution, first {wrong[:5]}",
    )
    checks.expect(
        all(c["warnings"] == detours for c in cycles),
        f"predict warned {[c['warnings'] for c in cycles]} times for {detours} detours",
    )
    model["detours"] = detours
    return model


def scaled_times(cycles: list[dict], phase: str) -> list[float]:
    return [scaled(c[f"{phase}_s"], c[f"{phase}_loop_s"]) for c in cycles]


def end_to_end(
    cycles: list[dict], setup: list[tuple[float, float]], rows: tuple[int, int], peak_kib: int
) -> dict:
    train = scaled_times(cycles, "train")
    predict = scaled_times(cycles, "predict")
    return {
        "train_s": median(train),
        "predict_s": median(predict),
        "train_rows_per_s": median([rows[0] / t for t in train]),
        "predict_rows_per_s": median([rows[1] / t for t in predict]),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": median([scaled(t, loop_s) for t, loop_s in setup]),
    }


def per_layer(cycles: list[dict], train_rows: int) -> dict:
    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]
    figures = {
        name: median([c["layers"][name] for c in traced])
        for name in traced[0]["layers"]
    }
    figures["ingest.rows_per_s"] = median(
        [train_rows / c["layers"]["ingest.load_dataset.train_s"] for c in traced]
    )
    def cycle_s(group: list[dict]) -> float:
        return median([t + p for t, p in zip(scaled_times(group, "train"), scaled_times(group, "predict"))])

    figures["trace_overhead_ratio"] = cycle_s(traced) / cycle_s(plain)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chaidkit" / "__init__.py").is_file():
        print(f"error: no chaidkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup, rows = set_up(workload, args.seed, work)
    try:
        result = run_worker(workload, work, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cycles = result["cycles"]

    checks = Checks()
    model = check_outputs(workload, work, cycles, rows[1], checks)
    attempted = checks.attempted
    failed = len(checks.failures)

    if args.trace:
        figures = per_layer(cycles, rows[0])
        units = PER_LAYER_UNITS
    else:
        figures = end_to_end(cycles, setup, rows, result["peak_rss_kib"])
        units = END_TO_END_UNITS
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "train_rows": rows[0],
        "predict_rows": rows[1],
        "samples": sum(not c["traced"] for c in cycles),
        "traced_samples": sum(c["traced"] for c in cycles),
        "setup_repeats": len(setup),
        "train_wall_median_s": median([c["train_s"] for c in cycles]),
        "predict_wall_median_s": median([c["predict_s"] for c in cycles]),
        "reference_loop_median_s": median(
            [c[f"{phase}_loop_s"] for c in cycles for phase in ("train", "predict")]
        ),
        **model,
    }
    (work / "result.json").write_text(
        json.dumps(
            {"meta": meta, "setup_s": setup, "cycles": cycles, "failures": checks.failures,
             "metrics": figures},
            indent=1,
        ),
        encoding="utf-8",
    )

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, unit in units.items():
        print(f"{name} = {figures[name]:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for failure in checks.failures + [f for c in cycles for f in c["failures"]]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
