"""Input generators and CLI invocations for the benchmark workloads.

Each workload turns a seed into a schema file and data files in a work
directory, and names the ``chaidkit train`` and ``chaidkit predict``
arguments that run over them. Nothing here imports chaidkit: the program
only ever sees the generated files. README.md says why each workload was
chosen.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Seed of the acceptance test's listings data; the benchmark's own tests
#: check the generator below against the test's at this seed.
ACCEPTANCE_SEED = 246824682468

LISTINGS_BRANDS = ["acme", "bolt", "corva", "dux"]
#: A brand no training row carries, so routing must take its detour.
UNSEEN_BRAND = "zenith"


def listing_rows(rng: random.Random, n: int) -> list[list]:
    """Synthetic marketplace listings, row for row as the acceptance test makes them.

    Columns: views, price, weight, brand, rating, region, material (blank
    for missing), color, sold. Keep every draw in this order: the
    benchmark's tests compare the output with
    ``tests/test_acceptance.py::_synthetic_listing_rows``.
    """
    regions = ["north", "south", "east", "west", "center"]
    materials = ["leather", "canvas", "mesh", "synthetic"]
    colors = ["black", "white", "red", "blue", "green", "brown"]
    rows = []
    for _ in range(n):
        views = int(rng.lognormvariate(5.5, 1.1))
        price = round(rng.lognormvariate(11.5, 0.8), 2)
        weight = round(rng.uniform(0.2, 2.5), 3)
        brand = rng.choice(LISTINGS_BRANDS)
        rating = str(rng.randint(1, 5))
        region = rng.choice(regions)
        material = "" if rng.random() < 0.05 else rng.choice(materials)
        color = rng.choice(colors)
        base = views / (1 + price / 150000) * (1 + int(rating) / 10)
        sold = int(base * rng.uniform(0.5, 1.5) / 40)
        rows.append([views, price, weight, brand, rating, region, material, color, sold])
    return rows


LISTINGS_SCHEMA = {
    "format": "chaidkit-schema",
    "format_version": 1,
    "delimiter": ",",
    "columns": [
        {"name": "views", "role": "predictor", "kind": "numeric",
         "binning": {"strategy": "equal_frequency", "bin_count": 12}},
        {"name": "price", "role": "predictor", "kind": "numeric",
         "binning": {"strategy": "equal_frequency", "bin_count": 14}},
        {"name": "weight", "role": "predictor", "kind": "numeric",
         "binning": {"strategy": "equal_width", "bin_count": 6}},
        {"name": "brand", "role": "predictor", "kind": "categorical"},
        {"name": "rating", "role": "predictor", "kind": "categorical",
         "scale": "monotonic", "categories": ["1", "2", "3", "4", "5"]},
        {"name": "region", "role": "predictor", "kind": "categorical"},
        {"name": "material", "role": "predictor", "kind": "categorical",
         "scale": "float"},
        {"name": "color", "role": "predictor", "kind": "categorical"},
        {"name": "sold", "role": "target", "kind": "numeric",
         "binning": {"strategy": "equal_frequency", "bin_count": 4}},
    ],
}

NOMINAL_PREDICTORS = 6
NOMINAL_CATEGORIES = [chr(ord("a") + i) for i in range(16)]
NOMINAL_LATENT_GROUPS = 4
NOMINAL_CLASSES = 8
NOMINAL_BASE_SEED = 1


def nominal_rows(rng: random.Random, n: int) -> list[list[str]]:
    """Free-scale predictors whose categories hide a coarser latent grouping.

    Each predictor's 16 categories fall into 4 latent groups drawn from
    ``rng``. The target is driven by the latent groups of the first three
    predictors plus noise, so at every node the merge loop must fold most
    categories together before the remaining pairs differ significantly.
    """
    latent = []
    for _ in range(NOMINAL_PREDICTORS):
        groups = [i % NOMINAL_LATENT_GROUPS for i in range(len(NOMINAL_CATEGORIES))]
        rng.shuffle(groups)
        latent.append(groups)
    rows = []
    for _ in range(n):
        picks = [rng.randrange(len(NOMINAL_CATEGORIES)) for _ in range(NOMINAL_PREDICTORS)]
        signal = latent[0][picks[0]] + latent[1][picks[1]] + latent[2][picks[2]]
        label = (signal + rng.randrange(3)) % NOMINAL_CLASSES
        rows.append([NOMINAL_CATEGORIES[p] for p in picks] + [f"y{label}"])
    return rows


NOMINAL_SCHEMA = {
    "format": "chaidkit-schema",
    "format_version": 1,
    "delimiter": ",",
    "columns": [
        {"name": f"x{j}", "role": "predictor", "kind": "categorical", "scale": "free"}
        for j in range(1, NOMINAL_PREDICTORS + 1)
    ]
    + [{"name": "y", "role": "target", "kind": "categorical"}],
}


def _listings_100k(seed: int) -> tuple[list[list], None]:
    # The acceptance test's rows at its own seed, in an order drawn from
    # ``seed``: training does not depend on row order, so every seed trains
    # the same model and times the same work.
    rows = listing_rows(random.Random(ACCEPTANCE_SEED), 100_000)
    random.Random(seed).shuffle(rows)
    return rows, None


def _nominal_wide(seed: int) -> tuple[list[list], None]:
    # The rows come from one fixed draw; the seed renames every predictor's
    # categories and shuffles the rows. Training is invariant to both, so
    # every seed does the same merge work: with rows drawn per seed, the
    # node count ranged over 108-202 and swamped the timing.
    rows = nominal_rows(random.Random(NOMINAL_BASE_SEED), 10_000)
    rng = random.Random(seed)
    renames = [
        dict(zip(NOMINAL_CATEGORIES, rng.sample(NOMINAL_CATEGORIES, len(NOMINAL_CATEGORIES))))
        for _ in range(NOMINAL_PREDICTORS)
    ]
    rows = [[rename[cell] for rename, cell in zip(renames, row)] + row[-1:] for row in rows]
    rng.shuffle(rows)
    return rows, None


def _deep_predict(seed: int) -> tuple[list[list], list[list]]:
    # Training rows are fixed like listings-100k's; with rows drawn per seed
    # the tree ranged over 501-568 nodes. Prediction rows are fresh per seed.
    train = listing_rows(random.Random(ACCEPTANCE_SEED), 20_000)
    rng = random.Random(seed)
    rng.shuffle(train)
    predict = listing_rows(rng, 200_000)
    for row in predict:
        if rng.random() < 0.01:
            row[3] = UNSEEN_BRAND
    return train, predict


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: generated files plus the CLI runs over them.

    ``generate`` maps a seed to the training rows and the prediction rows;
    ``None`` for the latter means predicting on the training file.
    """

    name: str
    schema: dict
    generate: Callable[[int], tuple[list[list], list[list] | None]]
    train_options: tuple[str, ...] = ()

    def write_inputs(self, seed: int, work: Path) -> tuple[int, int]:
        """Write the schema and data files under ``work``; return (train, predict) row counts."""
        train, predict = self.generate(seed)
        header = [col["name"] for col in self.schema["columns"]]
        (work / "schema.json").write_text(json.dumps(self.schema), encoding="utf-8")
        _write_csv(work / "train.csv", header, train)
        if predict is None:
            (work / "predict.csv").unlink(missing_ok=True)
            return len(train), len(train)
        _write_csv(work / "predict.csv", header, predict)
        return len(train), len(predict)

    @staticmethod
    def predict_data(work: Path) -> Path:
        predict = work / "predict.csv"
        return predict if predict.exists() else work / "train.csv"

    def train_argv(self, work: Path) -> list[str]:
        return [
            "train",
            "--data", str(work / "train.csv"),
            "--schema", str(work / "schema.json"),
            "--model", str(work / "model.json"),
            *self.train_options,
        ]

    def predict_argv(self, work: Path) -> list[str]:
        return [
            "predict",
            "--model", str(work / "model.json"),
            "--data", str(self.predict_data(work)),
            "--out", str(work / "predictions.csv"),
        ]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("listings-100k", LISTINGS_SCHEMA, _listings_100k),
        Workload("nominal-wide", NOMINAL_SCHEMA, _nominal_wide),
        Workload(
            "deep-predict",
            LISTINGS_SCHEMA,
            _deep_predict,
            train_options=(
                "--max-depth", "8", "--min-parent", "20",
                "--min-child", "10", "--alpha-split", "0.2",
            ),
        ),
    )
}
