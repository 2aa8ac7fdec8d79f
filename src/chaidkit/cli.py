"""Command-line interface: train, predict, inspect, export-dot.

Every command is batch-oriented and deterministic: identical inputs give
byte-identical outputs. Failures print exactly one ``error: <cause>`` line
to stderr and exit nonzero; per-row prediction detours (unseen categories,
missing values) are warnings on stderr, not failures.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import closing
from dataclasses import asdict, fields, replace
from functools import cache
from itertools import chain, repeat
from operator import add, itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

from .core import GrowthParams
from .errors import ChaidError
from .grow import train_tree
from .ingest import DatasetSchema, iter_batches, load_dataset, load_schema
from .model import Tree, load_model, save_model

__all__ = ["build_parser", "main", "entrypoint"]


#: Each growth parameter's ``train`` option and help text, in ``GrowthParams`` field order.
_GROWTH_OPTIONS = {
    "alpha_merge": ("--alpha-merge", "significance level for category merging"),
    "alpha_split": ("--alpha-split", "significance level a split must reach"),
    "max_depth": ("--max-depth", "maximum tree depth"),
    "min_parent_size": ("--min-parent", "smallest node that may still split"),
    "min_child_size": ("--min-child", "smallest child a split may create"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaidkit",
        description=(
            "Classification trees via chi-squared category merging and "
            "Bonferroni-adjusted split selection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a tree from a data file and schema")
    train.add_argument("--data", required=True, help="training data file (delimited text)")
    train.add_argument("--schema", required=True, help="schema file (JSON)")
    train.add_argument("--model", required=True, help="where to write the model document")
    for f in fields(GrowthParams):
        flag, what = _GROWTH_OPTIONS[f.name]
        train.add_argument(
            flag,
            dest=f.name,
            metavar=flag[2:].replace("-", "_").upper(),
            type=type(f.default),
            default=f.default,
            help=f"{what} (default %(default)s)",
        )
    train.add_argument("--verbose", action="store_true", help="extra detail on stderr")

    predict = sub.add_parser("predict", help="route records through a trained model")
    predict.add_argument("--model", required=True, help="model document to apply")
    predict.add_argument("--data", required=True, help="input records (delimited text)")
    predict.add_argument("--out", required=True, help="where to write predictions")

    inspect = sub.add_parser("inspect", help="print the tree structure")
    inspect.add_argument("--model", required=True, help="model document to read")

    export = sub.add_parser("export-dot", help="write the tree as Graphviz DOT text")
    export.add_argument("--model", required=True, help="model document to read")
    export.add_argument("--out", help="output file (default: stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": cmd_train,
        "predict": cmd_predict,
        "inspect": cmd_inspect,
        "export-dot": cmd_export_dot,
    }
    try:
        return handlers[args.command](args)
    except (ChaidError, OSError) as exc:
        _fail(str(exc))
        return 1


def entrypoint() -> None:
    sys.exit(main())


def _fail(message: str) -> None:
    flat = " ".join(str(message).split())
    print(f"error: {flat}", file=sys.stderr)


def _shown(name: str, separators: str) -> str:
    """``name``, or its repr if it holds a separator, a quote or an unprintable character."""
    return repr(name) if set(name) & set(separators + "'\"") or not name.isprintable() else name


def _distribution_text(tree: Tree, node_id: int) -> str:
    """A node's class probabilities as ``class:p`` pairs, in class order; see :func:`_shown`."""
    dist = tree.distribution(node_id)
    return " ".join(f"{_shown(c, ' :')}:{dist.probabilities[c]:.6g}" for c in tree.classes)


def _split_predictors(tree: Tree) -> list[str]:
    """The predictors the tree splits on, in first-use order."""
    names = [node.split.predictor for node in tree.nodes if node.split is not None]
    return list(dict.fromkeys(names))


def cmd_train(args: argparse.Namespace) -> int:
    loaded = [load_dataset(args.data, load_schema(args.schema))]
    params = GrowthParams(**{f.name: getattr(args, f.name) for f in fields(GrowthParams)})
    if args.verbose:
        pairs = " ".join(f"{name}={value}" for name, value in asdict(params).items())
        print(f"params: {pairs}", file=sys.stderr)
        for name, count in loaded[0].missing_counts.items():
            if count:
                print(f"missing values in {name!r}: {count}", file=sys.stderr)
    tree = train_tree(loaded.pop(), params)  # held by train_tree alone, which lets it go once coded
    save_model(tree, args.model)

    terminals = tree.terminal_nodes()
    print(f"nodes: {len(tree.nodes)}, terminal: {len(terminals)}, depth: {tree.depth}")
    used = _split_predictors(tree)
    print(f"split variables: {', '.join(used) if used else '(none)'}")
    for node in terminals:
        print(f"leaf {node.id}: n={node.size} {_distribution_text(tree, node.id)}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    tree = load_model(args.model)
    if tree.schema is None:
        raise ChaidError("model carries no schema; cannot parse raw data")
    used = _split_predictors(tree)
    echo = DatasetSchema.from_doc(tree.schema)
    absent = [name for name in used if name not in {col.name for col in echo.predictors}]
    if absent:
        raise ChaidError(f"model splits on predictor {absent[0]!r}, which its schema lacks")
    kept = tuple(col for col in echo.columns if col.role != "predictor" or col.name in used)
    schema = replace(echo, columns=kept)
    # A fault in the header or the first batch leaves no output file behind.
    with closing(iter_batches(args.data, schema)) as batches:
        first = next(batches)
        if os.path.exists(args.out) and os.path.samefile(args.out, args.data):
            raise ChaidError("--out names the --data file, which is still being read")
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            # A writer returns what its file's ``write`` returns: here, each formatted line.
            # It quotes a cell holding a character of its line end, so "\r\n" quotes a lone
            # "\r" on every Python; each line's "\r\n" is then cut to "\n".
            line = csv.writer(
                SimpleNamespace(write=str), delimiter=schema.delimiter, lineterminator="\r\n"
            ).writerow
            names = [f"p_{cls}" for cls in tree.classes]
            handle.write(line([*first.header, "leaf_id", "predicted_class", *names])[:-2] + "\n")
            done = 0
            leaves: list[int] = []

            def warn(note: str) -> None:
                print(f"warning: row {done + len(leaves) + 1}: {note}", file=sys.stderr)

            # Quoting is decided cell by cell, so a row's line is its input cells'
            # line, formatted with a blank padding cell whose delimiter and line end
            # are then cut, followed by its leaf's ",<cells>\n", formatted once per
            # leaf. The padding also keeps a lone blank cell from being written as "".
            @cache
            def tail(leaf_id: int) -> str:
                dist = tree.distribution(leaf_id)
                probabilities = (repr(dist.probabilities[cls]) for cls in tree.classes)
                return line(("", str(leaf_id), dist.modal_class(), *probabilities))[:-2] + "\n"

            cut = itemgetter(slice(None, -3))
            route = tree.route
            d, gaps = schema.delimiter, len(first.header) - 1
            for batch in chain([first], batches):
                leaves = []
                for record in batch.iter_records():
                    leaves.append(route(record, warn=warn))
                # Joined rows that hold only their separating delimiters and no quote
                # or line break have no cell to quote: they are the writer's lines.
                rows = batch.raw_rows
                heads: Iterable[str] = list(map(d.join, rows))
                text = "".join(heads)
                if text.count(d) != len(rows) * gaps or any(map(text.__contains__, '"\r\n')):
                    heads = map(cut, map(line, map(add, rows, repeat(("",)))))
                handle.writelines(map(add, heads, map(tail, leaves)))
                done += len(leaves)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    tree = load_model(args.model)
    # Depth first with an explicit stack, so a deep tree cannot exhaust recursion.
    stack = [(0, "")]
    while stack:
        node_id, origin = stack.pop()
        node = tree.node(node_id)
        head = f"{'  ' * node.depth}node {node.id} [n={node.size}]{origin}; "
        if node.split is not None:
            name = node.split.predictor
            print(f"{head}split on {name}")
            parts = (", ".join(_shown(c, ",{}") for c in g) for g in node.split.partition.groups)
            stack += reversed([(c, f" {name} in {{{p}}}") for c, p in zip(node.children, parts)])
        else:
            reason = node.stop_reason.value if node.stop_reason else "?"
            print(f"{head}terminal ({reason}) {_distribution_text(tree, node.id)}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    tree = load_model(args.model)
    text = tree.to_dot()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0
