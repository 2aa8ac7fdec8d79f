"""Per-layer tracing of chaidkit from outside the program.

The tracer replaces module attributes that chaidkit's own callers look up
at call time (``chaidkit.grow.best_split``, ``chaidkit.core.merge_categories``,
``chaidkit.model.Tree.route`` and so on) with timing wrappers, and puts the
originals back on ``remove``. Nothing under ``src/`` changes.

Two kinds of wrapper exist. A span wrapper records one span per call: name,
start, end and the span that caused it. A tally wrapper serves boundaries
crossed 10^5 to 10^6 times per run (pair p-values, routing): it only adds a
count and a total time, and charges the time to the open span, so self times
stay exact without one span per call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    #: Time covered by child spans and tallied calls made inside this one.
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Spans and tallies collected while wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.times: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------

    def _replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Record a span per call of ``owner.attr``; ``observe`` sees each result."""

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                parent = self._open[-1] if self._open else None
                span = Span(name, parent, time.perf_counter())
                self.spans.append(span)
                self._open.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._open.pop()
                    if parent is not None:
                        self.spans[parent].child_time += span.duration
                if observe is not None:
                    observe(self, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def tally(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        timed: bool = True,
        wrap_kwargs: Callable[["Tracer", dict], None] | None = None,
    ) -> None:
        """Count calls of ``owner.attr`` and, if ``timed``, add up their time.

        ``wrap_kwargs`` may rewrite the keyword arguments of each call, for
        example to count the callbacks a call makes.
        """

        def make(original: Callable) -> Callable:
            if not timed:
                def counted(*args, **kwargs):
                    self.counts[name] += 1
                    return original(*args, **kwargs)

                return counted

            def wrapper(*args, **kwargs):
                if wrap_kwargs is not None:
                    wrap_kwargs(self, kwargs)
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    self.counts[name] += 1
                    self.times[name] += elapsed
                    if self._open:
                        self.spans[self._open[-1]].child_time += elapsed

            return wrapper

        self._replace(owner, attr, make)

    def remove(self) -> None:
        """Put every original attribute back, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def named(self, name: str, parent: str | None = None) -> list[Span]:
        """Finished spans called ``name``, optionally only those under a ``parent`` span."""
        return [
            s
            for s in self.spans
            if s.name == name
            and (parent is None or (s.parent is not None and self.spans[s.parent].name == parent))
        ]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(s.duration for s in self.named(name, parent))

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.named(name))

    def span_records(self) -> list[dict]:
        """Spans as plain data, start and end relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": i,
                "name": s.name,
                "parent": s.parent,
                "start": s.start - origin,
                "end": s.end - origin,
            }
            for i, s in enumerate(self.spans)
        ]


# -- chaidkit's layers ------------------------------------------------------


def _count_nodes(tracer: Tracer, tree: Any) -> None:
    tracer.counts["grow.nodes"] += len(tree.nodes)


def _count_merges(tracer: Tracer, partition: Any) -> None:
    tracer.counts["core.merges"] += len(partition.all_categories()) - len(partition.groups)


def _count_underflow(tracer: Tracer, result: Any) -> None:
    if result.p_value == 0.0:
        tracer.counts["stats.p_underflow_count"] += 1


def _count_detours(tracer: Tracer, kwargs: dict) -> None:
    warn = kwargs.get("warn")

    def counted(message: str) -> None:
        tracer.counts["model.route_detours"] += 1
        if warn is not None:
            warn(message)

    kwargs["warn"] = counted


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Each attribute is the one the calling layer looks up: ``cli`` calls
    ingest, grow and model through its own module globals, ``grow`` calls
    ``best_split`` through its globals, and ``core`` calls the stats
    functions through its globals. ``chi_square_p_value`` as seen from
    ``core`` is the pair test of the merge loop; the split test reaches it
    through ``stats`` and is not counted there.
    """
    import chaidkit.cli as cli
    import chaidkit.core as core
    import chaidkit.grow as grow
    import chaidkit.model as model

    tracer.span(cli, "cmd_train", "cli.train")
    tracer.span(cli, "cmd_predict", "cli.predict")
    tracer.span(cli, "load_schema", "ingest.load_schema")
    tracer.span(cli, "load_dataset", "ingest.load_dataset")
    tracer.span(cli, "train_tree", "grow.train_tree", observe=_count_nodes)
    tracer.span(cli, "save_model", "model.save_model")
    tracer.span(cli, "load_model", "model.load_model")
    tracer.span(grow, "best_split", "core.best_split")
    tracer.span(core, "merge_categories", "core.merge_categories", observe=_count_merges)
    if hasattr(core, "_pair_p_value"):  # private: core.pair_tests reads 0 once it is gone
        tracer.tally(core, "_pair_p_value", "core.pair_tests", timed=False)
    tracer.tally(core, "chi_square_p_value", "stats.pair_p_value")
    tracer.span(core, "build_contingency", "stats.build_contingency")
    tracer.span(core, "chi_square_test", "stats.chi_square_test", observe=_count_underflow)
    tracer.span(core, "bonferroni_multiplier", "stats.bonferroni_multiplier")
    tracer.tally(model.Tree, "route", "model.route", wrap_kwargs=_count_detours)
    tracer.tally(model.Tree, "distribution", "model.distribution")


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced train and predict."""
    counts = tracer.counts
    merges = counts["core.merges"]
    figures: dict[str, float] = {
        "ingest.load_dataset.train_s": tracer.total("ingest.load_dataset", parent="cli.train"),
        "ingest.load_dataset.predict_s": tracer.total("ingest.load_dataset", parent="cli.predict"),
        "grow.train_tree_s": tracer.total("grow.train_tree"),
        "grow.nodes": counts["grow.nodes"],
        "core.merge_categories_self_s": tracer.self_total("core.merge_categories"),
        "core.merges": merges,
        "core.pair_tests": counts["core.pair_tests"],
        "core.pair_tests_per_merge": counts["core.pair_tests"] / merges if merges else 0.0,
        "stats.p_underflow_count": counts["stats.p_underflow_count"],
        "model.save_model_s": tracer.total("model.save_model"),
        "model.load_model_s": tracer.total("model.load_model"),
        "model.route_detours": counts["model.route_detours"],
        "cli.train_self_s": tracer.self_total("cli.train"),
        "cli.predict_self_s": tracer.self_total("cli.predict"),
    }
    for span in (
        "core.best_split",
        "core.merge_categories",
        "stats.build_contingency",
        "stats.chi_square_test",
        "stats.bonferroni_multiplier",
    ):
        figures[f"{span}_calls"] = len(tracer.named(span))
        figures[f"{span}_s"] = tracer.total(span)
    for tally in ("stats.pair_p_value", "model.route", "model.distribution"):
        figures[f"{tally}_calls"] = counts[tally]
        figures[f"{tally}_s"] = tracer.times[tally]
    return figures
