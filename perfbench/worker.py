"""Timed train and predict cycles of one workload, in a process of their own.

``run.py`` starts this after writing the workload's inputs, so the peak
resident memory of this process is that of chaidkit running the workload
and nothing else. Each cycle calls ``chaidkit.cli.main`` in-process for
``train`` and then ``predict``, with the CLI's output captured. The
reference loop of ``speed.py`` runs before and after each call, and the
mean of the two is recorded with the call's time. Cycles
repeat until the next one would end after ``--seconds``. With ``--trace 1``
untraced and traced cycles alternate, so the tracing overhead is measured
in the same process. The last line of standard output is one JSON document
with every cycle's timings, exit codes and output hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chaidkit import cli  # noqa: E402

import layers  # noqa: E402
from speed import reference_loop_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def sha256_of(path: Path) -> str | None:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command; return its exit code, its stderr and its wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            traceback.print_exc()
            code = -1
    return code, err.getvalue(), time.perf_counter() - started


def cycle(
    workload, work: Path, traced: bool, loop_before: float
) -> tuple[dict, layers.Tracer | None, float]:
    """One train and one predict, each between two runs of the reference loop.

    ``loop_before`` is the loop's time just before this cycle; the loop's
    time at the end of the cycle is returned for the next one.
    """
    tracer = layers.Tracer() if traced else None
    if tracer is not None:
        layers.install(tracer)
    try:
        train_code, train_err, train_s = run_cli(workload.train_argv(work))
        model_sha = sha256_of(work / "model.json")
        loop_between = reference_loop_s()
        predict_code, predict_err, predict_s = run_cli(workload.predict_argv(work))
        loop_after = reference_loop_s()
    finally:
        if tracer is not None:
            tracer.remove()
    record = {
        "traced": traced,
        "train_s": train_s,
        "predict_s": predict_s,
        "train_loop_s": (loop_before + loop_between) / 2,
        "predict_loop_s": (loop_between + loop_after) / 2,
        "train_code": train_code,
        "predict_code": predict_code,
        "failures": [
            err[-2000:]
            for code, err in ((train_code, train_err), (predict_code, predict_err))
            if code != 0
        ],
        "model_sha256": model_sha,
        "predictions_sha256": sha256_of(work / "predictions.csv"),
        "warnings": predict_err.count("warning: "),
    }
    if tracer is not None:
        record["layers"] = layers.metrics(tracer)
        model = work / "model.json"
        record["layers"]["model.model_bytes"] = model.stat().st_size if model.exists() else 0
    return record, tracer, loop_after


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    rounds = [False, True] if args.trace else [False]
    cycles: list[dict] = []
    last_tracer = None
    started = time.perf_counter()
    loop_s = reference_loop_s()
    while True:
        for traced in rounds:
            record, tracer, loop_s = cycle(workload, args.work, traced, loop_s)
            cycles.append(record)
            last_tracer = tracer or last_tracer
        elapsed = time.perf_counter() - started
        per_round = elapsed * len(rounds) / len(cycles)
        if elapsed + per_round > args.seconds:
            break
    if last_tracer is not None:
        (args.work / "trace.json").write_text(
            json.dumps({"spans": last_tracer.span_records()}), encoding="utf-8"
        )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"cycles": cycles, "peak_rss_kib": peak_kib}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
