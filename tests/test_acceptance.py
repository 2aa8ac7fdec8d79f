"""Acceptance gate: one test per release criterion.

Each test exercises a criterion end to end at its stated tolerance and
prints a PASS line naming what held. Timed criteria assert their budget.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
import tracemalloc

from chaidkit import (
    ChaidError,
    GrowthParams,
    PredictorSpec,
    Scale,
    Tree,
    bonferroni_multiplier,
    chi_square_p_value,
    chi_square_test,
    evaluate_predictor,
    grow_tree,
    load_dataset,
    load_model,
    save_model,
    train_tree,
)
from chaidkit import ingest
from chaidkit.cli import main
from chaidkit.ingest import BinningSpec, ColumnSpec, DatasetSchema
from chaidkit.stats import ContingencyTable
from conftest import (
    TERMINAL_NODE_IDS,
    TIPE_CATEGORIES,
    chi2_upper_tail_by_integration,
    coded,
    partition_count_oracle,
    random_tree,
    sales_fixture_tree,
)


def test_bonferroni_multipliers_match_enumeration():
    """Multipliers equal genuine partition counts for every scale, c <= 8."""
    started = time.perf_counter()
    checked = 0
    for c in range(1, 9):
        for r in range(1, c + 1):
            for scale in (Scale.MONOTONIC, Scale.FREE, Scale.FLOAT):
                try:
                    closed_form = bonferroni_multiplier(scale, c, r)
                except ChaidError:
                    with_oracle = None
                    try:
                        partition_count_oracle(scale, c, r)
                    except ChaidError as exc:
                        with_oracle = exc
                    assert with_oracle is not None, (scale, c, r)
                    continue
                assert closed_form == partition_count_oracle(scale, c, r), (scale, c, r)
                checked += 1
    # The nominal-scale count is the Stirling partition number, not the
    # broken power form: 4 categories into 2 blocks can happen 7 ways.
    assert bonferroni_multiplier(Scale.FREE, 4, 2) == 7
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"bonferroni sweep took {elapsed:.3f}s"
    print(f"PASS bonferroni: {checked} (scale, c, r) cells equal the "
          f"enumeration oracle in {elapsed:.3f}s")


def test_tail_probability_matches_integration():
    """Survival values agree with numeric integration to 1e-8 absolute."""
    started = time.perf_counter()
    worst = 0.0
    for statistic in (0.001, 0.5, 1.0, 3.841, 10.0, 20.0, 50.0):
        for df in range(1, 11):
            ours = chi_square_p_value(statistic, df)
            reference = chi2_upper_tail_by_integration(statistic, df)
            worst = max(worst, abs(ours - reference))
    assert worst <= 1e-8, f"worst deviation {worst:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"p-value grid took {elapsed:.3f}s"
    print(f"PASS p-values: 70-point grid within {worst:.2e} of the "
          f"integration oracle in {elapsed:.3f}s")


def _table(rows):
    labels = [str(i) for i in range(len(rows))]
    classes = [str(j) for j in range(len(rows[0]))]
    return ContingencyTable.from_counts(labels, classes, rows)


def test_chi_square_kernel_closed_forms_and_scaling():
    """Closed-form 2x2 statistics plus the k-scaling law, 1000 cases."""
    assert chi_square_test(_table([[10, 0], [0, 10]])).statistic == 20.0
    assert abs(chi_square_test(_table([[20, 5], [10, 15]])).statistic - 25 / 3) <= 1e-9

    rng = random.Random(90210)
    cases = 0
    while cases < 1000:
        n_rows = rng.randint(2, 5)
        n_cols = rng.randint(2, 4)
        rows = [[rng.randint(0, 30) for _ in range(n_cols)] for _ in range(n_rows)]
        for i in range(min(n_rows, n_cols)):
            rows[i][i] += 1  # no all-zero line
        base = chi_square_test(_table(rows))
        if cases % 2 == 0:
            k = 2 ** rng.randint(1, 8)
            scaled = chi_square_test(_table([[k * v for v in row] for row in rows]))
            # Scaling by a power of two commutes with every rounding step.
            assert scaled.statistic == k * base.statistic
        else:
            k = rng.randint(2, 9)
            scaled = chi_square_test(_table([[k * v for v in row] for row in rows]))
            assert abs(scaled.statistic - k * base.statistic) <= 1e-12 * max(
                1.0, k * base.statistic
            )
        assert scaled.degrees_of_freedom == base.degrees_of_freedom
        cases += 1
    print(f"PASS kernel: closed forms exact, scaling law held for {cases} cases")


def test_perfect_predictor_forces_structure():
    """A fully determining predictor wins the root and leaves come out pure."""
    for variant in range(100):
        rng = random.Random(1000 + variant)
        cats = [f"c{variant}_{i}" for i in range(3)]
        classes = [f"y{variant}_{i}" for i in range(3)]
        rng.shuffle(classes)
        mapping = dict(zip(cats, classes))
        noise_specs = [
            PredictorSpec(
                f"noise{j}",
                Scale.FREE,
                tuple(f"n{j}_{i}" for i in range(rng.randint(2, 4))),
                None,
            )
            for j in range(3)
        ]
        records = []
        for _ in range(1000):
            record = {"signal": rng.choice(cats)}
            record["y"] = mapping[record["signal"]]
            for spec in noise_specs:
                record[spec.name] = rng.choice(spec.categories)
            records.append(record)
        predictors = noise_specs[: rng.randint(0, 3)]
        signal_spec = PredictorSpec("signal", Scale.FREE, tuple(cats), None)
        predictors = predictors + [signal_spec] + noise_specs[len(predictors):]
        tree = grow_tree(records, predictors, "y", GrowthParams())
        assert tree.root.split is not None, f"variant {variant} grew no split"
        assert tree.root.split.predictor == "signal", f"variant {variant}"
        for leaf in tree.terminal_nodes():
            assert len(leaf.class_counts) == 1, f"variant {variant} impure leaf"
    print("PASS structure forcing: 100/100 variants split on the signal "
          "variable with pure leaves")


def test_independent_data_trains_to_a_single_node():
    """When every adjusted p exceeds alpha, training must refuse to split."""
    predictors = [
        PredictorSpec("a", Scale.FREE, ("a1", "a2", "a3"), None),
        PredictorSpec("b", Scale.MONOTONIC, ("b1", "b2", "b3"), None),
        PredictorSpec("c", Scale.FREE, ("c1", "c2"), None),
    ]
    # A balanced product grid: every predictor-target table is exactly
    # proportional, so every raw p is 1.
    records = []
    for a in ("a1", "a2", "a3"):
        for b in ("b1", "b2", "b3"):
            for c in ("c1", "c2"):
                for y in ("u", "v"):
                    records.extend({"a": a, "b": b, "c": c, "y": y} for _ in range(5))
    params = GrowthParams()
    for spec in predictors:
        candidate = evaluate_predictor(
            coded(records, spec.name, class_order=("u", "v")), spec, params.alpha_merge
        )
        assert candidate is not None
        assert candidate.adjusted_p > 0.05, spec.name
    tree = grow_tree(records, predictors, "y", params)
    assert len(tree.nodes) == 1
    assert tree.root.is_terminal
    print("PASS null forcing: all adjusted p-values verified > 0.05 and the "
          "tree stayed a single node")


def test_sales_tree_routes_the_prescribed_terminals():
    """The hand-built sales tree sends every battery record where it should."""
    tree = sales_fixture_tree()
    assert len(tree.nodes) == 11
    assert len(tree.terminal_nodes()) == 7
    assert tree.depth == 3
    first_use = []
    for node in tree.nodes:
        if node.split is not None and node.split.predictor not in first_use:
            first_use.append(node.split.predictor)
    assert first_use == ["dilihat", "harga", "tipe"]

    battery = []
    # Terminal 1: rarely viewed listings at any price band above the lowest.
    for views in ("1", "9", "10", "12"):
        for price in [str(i) for i in range(2, 15)]:
            battery.append(({"dilihat": views, "harga": price}, 1))
    # Terminals 2 and 3: lowest price band, split by product type.
    for views in ("1", "9", "10", "12"):
        for tipe in TIPE_CATEGORIES[:4]:
            battery.append(({"dilihat": views, "harga": "1", "tipe": tipe}, 2))
        for tipe in TIPE_CATEGORIES[4:]:
            battery.append(({"dilihat": views, "harga": "1", "tipe": tipe}, 3))
    # Terminal 4: view interval 3 decides alone.
    battery.append(({"dilihat": "3"}, 4))
    # Terminals 5 and 6: view interval 2, split by price band.
    for price in [str(i) for i in range(2, 10)]:
        battery.append(({"dilihat": "2", "harga": price}, 5))
    battery.append(({"dilihat": "2", "harga": "1"}, 6))
    # Terminal 7: view intervals 4 through 8.
    for views in ("4", "5", "6", "7", "8"):
        battery.append(({"dilihat": views}, 7))

    for record, terminal in battery:
        assert tree.route(record) == TERMINAL_NODE_IDS[terminal], (record, terminal)

    dist = tree.distribution(TERMINAL_NODE_IDS[2])
    assert dist.probabilities == {"1": 0.982, "2": 0.013, "3": 0.003, "4": 0.002}

    # Worked example: a cheap, barely-viewed sneaker listing, binned by the
    # loader under the tree's own schema: conftest's HARGA_BOUNDARIES and
    # DILIHAT_BOUNDARIES as explicit cut points.
    listing = load_dataset(
        io.StringIO("harga,dilihat,tipe\n62000,80,Sneakers\n"),
        DatasetSchema.from_doc(tree.schema),
        require_target=False,
    )
    record = listing.records[0]
    assert record == {"dilihat": "1", "harga": "1", "tipe": "Sneakers"}
    assert tree.route(record) == TERMINAL_NODE_IDS[2]
    assert tree.distribution(tree.route(record)).modal_class() == "1"

    again = Tree.from_bytes(tree.document_bytes())
    assert again == tree and again.document_bytes() == tree.document_bytes()
    print(f"PASS sales fixture: {len(battery)} battery records reached their "
          "prescribed terminals; round-trip is byte-identical")


def test_training_is_deterministic_and_round_trip_is_identity():
    """Repeat and permuted training agree; 500 random trees survive a round trip."""
    rng = random.Random(777)
    predictors = [
        PredictorSpec("p", Scale.FREE, ("p1", "p2", "p3", "p4"), None),
        PredictorSpec("q", Scale.MONOTONIC, ("q1", "q2", "q3"), None),
    ]
    records = []
    for _ in range(600):
        p = rng.choice(predictors[0].categories)
        q = rng.choice(predictors[1].categories)
        y = rng.choice("uv") if rng.random() < 0.4 else ("u" if p in ("p1", "p2") else "v")
        records.append({"p": p, "q": q, "y": y})
    first = grow_tree(records, predictors, "y", GrowthParams())
    second = grow_tree(records, predictors, "y", GrowthParams())
    shuffled = list(records)
    random.Random(31337).shuffle(shuffled)
    third = grow_tree(shuffled, predictors, "y", GrowthParams())
    assert first.document_bytes() == second.document_bytes() == third.document_bytes()
    assert first == second == third
    assert first.root.split is not None

    tree_rng = random.Random(52)
    for index in range(500):
        tree = random_tree(tree_rng)
        again = Tree.from_bytes(tree.document_bytes())
        assert again == tree, f"round trip {index} changed the tree"
        assert again.document_bytes() == tree.document_bytes()
    print("PASS determinism: repeat and row-permuted training byte-identical; "
          "500/500 serialization round trips were identity")


def _synthetic_listing_rows(rng, n):
    brands = ["acme", "bolt", "corva", "dux"]
    regions = ["north", "south", "east", "west", "center"]
    materials = ["leather", "canvas", "mesh", "synthetic"]
    colors = ["black", "white", "red", "blue", "green", "brown"]
    rows = []
    for _ in range(n):
        views = int(rng.lognormvariate(5.5, 1.1))
        price = round(rng.lognormvariate(11.5, 0.8), 2)
        weight = round(rng.uniform(0.2, 2.5), 3)
        brand = rng.choice(brands)
        rating = str(rng.randint(1, 5))
        region = rng.choice(regions)
        material = "" if rng.random() < 0.05 else rng.choice(materials)
        color = rng.choice(colors)
        base = views / (1 + price / 150000) * (1 + int(rating) / 10)
        sold = int(base * rng.uniform(0.5, 1.5) / 40)
        rows.append([views, price, weight, brand, rating, region, material, color, sold])
    return rows


#: sha256 of the model `chaidkit train` writes with default parameters for
#: the first 10,000 generated listings (binned, monotonic, float and free
#: predictors). Any change to it is a change in trained models.
LISTINGS_10K_MODEL_SHA256 = "9e1371ca453d39bac47f39bbe107f1c5580f28c30cccb7e9a28a41f958e438e2"


def _write_listings(tmp_path, n):
    """The listings schema and ``n`` generated rows at the acceptance seed, as files."""
    columns = [
        ColumnSpec(name="views", role="predictor", kind="numeric",
                   binning=BinningSpec(strategy="equal_frequency", bin_count=12)),
        ColumnSpec(name="price", role="predictor", kind="numeric",
                   binning=BinningSpec(strategy="equal_frequency", bin_count=14)),
        ColumnSpec(name="weight", role="predictor", kind="numeric",
                   binning=BinningSpec(strategy="equal_width", bin_count=6)),
        ColumnSpec(name="brand", role="predictor", kind="categorical"),
        ColumnSpec(name="rating", role="predictor", kind="categorical",
                   scale=Scale.MONOTONIC, categories=("1", "2", "3", "4", "5")),
        ColumnSpec(name="region", role="predictor", kind="categorical"),
        ColumnSpec(name="material", role="predictor", kind="categorical",
                   scale=Scale.FLOAT),
        ColumnSpec(name="color", role="predictor", kind="categorical"),
        ColumnSpec(name="sold", role="target", kind="numeric",
                   binning=BinningSpec(strategy="equal_frequency", bin_count=4)),
    ]
    schema = DatasetSchema(columns=tuple(columns), delimiter=",")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema.to_doc()), encoding="utf-8")

    data_path = tmp_path / "listings.csv"
    rng = random.Random(246824682468)
    with open(data_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([c.name for c in columns])
        writer.writerows(_synthetic_listing_rows(rng, n))
    return schema, schema_path, data_path


def test_end_to_end_pipeline_and_speed(tmp_path):
    """File to model to predictions; 10k x 8 trains inside ten seconds."""
    schema, _, data_path = _write_listings(tmp_path, 10_000)

    dataset = load_dataset(data_path, schema)
    assert len(dataset.records) == 10_000
    started = time.perf_counter()
    tree = train_tree(dataset, GrowthParams())
    train_seconds = time.perf_counter() - started
    assert train_seconds < 10.0, f"training took {train_seconds:.2f}s"
    assert tree.root.split is not None, "synthetic signal should support a split"

    model_path = tmp_path / "model.json"
    save_model(tree, model_path)
    loaded = load_model(model_path)
    assert loaded == tree

    out_path = tmp_path / "predictions.csv"
    rc = main([
        "predict", "--model", str(model_path),
        "--data", str(data_path), "--out", str(out_path),
    ])
    assert rc == 0

    echo = DatasetSchema.from_doc(loaded.schema)
    replay = load_dataset(data_path, echo, require_target=False)
    with open(out_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        predicted_leaves = [int(row["leaf_id"]) for row in reader]
    assert len(predicted_leaves) == 10_000
    for record, leaf in zip(replay.records, predicted_leaves):
        assert loaded.route(record) == leaf
    print(f"PASS end to end: trained 10000x8 in {train_seconds:.2f}s; file "
          "predictions equal in-memory routing for every row")


def test_distributions_are_exact_normalized_counts():
    """Every emitted distribution is counts over support and sums to one."""
    trees = [sales_fixture_tree()]
    rng = random.Random(8642)
    for _ in range(30):
        trees.append(random_tree(rng))
    predictors = [PredictorSpec("g", Scale.FREE, ("g1", "g2", "g3"), None)]
    records = [
        {"g": rng.choice(("g1", "g2", "g3")), "y": rng.choice("uv")}
        for _ in range(300)
    ]
    trees.append(grow_tree(records, predictors, "y", GrowthParams()))

    nodes_checked = 0
    for tree in trees:
        for node in tree.nodes:
            dist = tree.distribution(node.id)
            assert abs(sum(dist.probabilities.values()) - 1.0) <= 1e-9
            assert dist.support == node.size
            for cls in tree.classes:
                assert dist.probabilities[cls] == node.class_counts.get(cls, 0) / node.size
            nodes_checked += 1
    print(f"PASS distributions: {nodes_checked} node distributions are exact "
          "normalized counts")


def test_listings_model_bytes_are_pinned(tmp_path):
    """Default-parameter training on 10k generated listings writes pinned bytes."""
    _, schema_path, data_path = _write_listings(tmp_path, 10_000)
    model_path = tmp_path / "model.json"
    rc = main([
        "train", "--data", str(data_path), "--schema", str(schema_path),
        "--model", str(model_path),
    ])
    assert rc == 0
    digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
    assert digest == LISTINGS_10K_MODEL_SHA256
    print(f"PASS model bytes: 10k listings model sha256 {digest[:8]}... as pinned")


def test_train_memory_per_row_is_bounded(tmp_path, monkeypatch, capsys):
    """`chaidkit train` holds a few label and code lists per row, not the rows' text."""
    monkeypatch.setattr(ingest, "BATCH_ROWS", 250)

    def peak_bytes(n):
        _, schema_path, data_path = _write_listings(tmp_path, n)
        argv = ["train", "--data", str(data_path), "--schema", str(schema_path)]
        tracemalloc.start()
        try:
            assert main(argv + ["--model", str(tmp_path / "model.json")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(1_000)  # first-call allocations land here, not in either figure
    per_row = (peak_bytes(8_000) - peak_bytes(1_000)) / 7_000
    # Holding every row's cell strings, as train once did, cost about 660
    # bytes a row here; one shared string per category and an array per
    # numeric column bring it to about 210.
    assert per_row < 300
    capsys.readouterr()
    print(f"PASS train memory: {per_row:.0f} bytes of peak heap per extra row")
