"""Acceptance gate: nine criteria, one test and one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
Criterion 7 needs the released corpus converted into this package's file
formats; point MPE_RELEASED_DIR at a directory holding train.items.jsonl,
dev.items.jsonl, and dev.pairs.tsv to enable it. Its comparison also runs,
in tier 1, on a synthetic corpus.
"""

import itertools
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from mpe.autodiff import Adam, Tensor, cross_entropy, dropout, softmax
from mpe.cli import run_model_gradcheck
from mpe.dataset import (
    GenerationConfig,
    Item,
    adjudicate,
    attach_judgments,
    corpus_stats,
    flagged_items,
    generate_items,
    graph_captions,
    load_captions,
    load_items,
    save_items,
)
from mpe.graph import build_graph, caption_closures
from mpe.models import concat_premises
from mpe.text import STOPWORDS, normalize, tokenize
from mpe.training import TrainConfig, Trainer, build_model, vocabulary_from_items
from mpe.voting import (
    attach_pair_labels,
    ec_heuristic,
    load_pair_labels,
    majority_vote,
    pair_agreement_category,
    score_baselines,
)

CAPTIONS = Path(__file__).parent / "fixtures" / "captions.tsv"
MODEL_KINDS = ("conditional-lstm", "attention", "sum-of-experts")


def _verdict(number: int, slug: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- 1: gradient correctness ----------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    ok = True
    for kind in MODEL_KINDS:
        report = run_model_gradcheck(kind, dim=8, state_dim=8, seed=11)
        worst = max(worst, report.max_rel_err)
        ok = ok and report.passed and report.max_rel_err < 1e-4
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    _verdict(
        1,
        "gradient-correctness",
        ok,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- 2: overfit oracle -----------------------------------------------------------

MARKERS = {"E": "alpha", "N": "beta", "C": "gamma"}
FILLERS = (
    ("dog runs fast", "cat sits down", "bird sings loud", "fish swims away"),
    ("man cooks rice", "woman reads book", "child draws circle", "crowd waits"),
    ("girl jumps rope", "boy kicks ball", "team plays game", "coach watches"),
    ("horse trots", "cow grazes", "goat climbs", "sheep sleeps"),
)


def overfit_items(n: int) -> list[Item]:
    labels = ["E", "N", "C"]
    return [
        Item(
            id=f"syn-{i:03d}",
            scene_group_id=f"g{i % 4}",
            premises=tuple(map(normalize, FILLERS[i % len(FILLERS)])),
            hypothesis=normalize(f"the {MARKERS[labels[i % 3]]} case number {i % 7} holds"),
            gold_label=labels[i % 3],
            label_source="majority",
            split="train",
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_criterion_2_overfit_oracle(kind):
    items = overfit_items(32)
    config = TrainConfig(
        model=kind,
        state_dim=8,
        embedding_dim=8,
        epochs=1,
        batch_size=8,
        learning_rate=0.01,
        keep_prob=1.0,
        seed=0,
    )
    model = build_model(config, vocabulary_from_items(items))
    trainer = Trainer(model, config)
    started = time.perf_counter()
    reached_at = None
    for epoch in range(1, 201):
        (log,) = trainer.run(items, 1)
        if log.train_accuracy == 1.0:
            reached_at = epoch
            break
    elapsed = time.perf_counter() - started
    first_losses = [log.train_loss for log in trainer.logs[:5]]
    decreasing = all(b < a for a, b in zip(first_losses, first_losses[1:]))
    ok = reached_at is not None and decreasing and elapsed < 300
    _verdict(
        2,
        f"overfit-{kind}",
        ok,
        f"100% at epoch {reached_at}, first-5 losses "
        f"{'strictly decreasing' if decreasing else 'NOT decreasing'}, "
        f"{elapsed:.1f}s",
    )


# --- 3: sum-of-experts structural invariants -------------------------------------


def random_sequences(rng: random.Random, vocab: list[str]):
    premises = [
        [rng.choice(vocab) for _ in range(rng.randint(1, 3))] for _ in range(4)
    ]
    hypothesis = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
    return premises, hypothesis


def test_criterion_3_sum_of_experts_invariants():
    vocab = [f"tok{i}" for i in range(12)]
    config = TrainConfig(
        model="sum-of-experts", embedding_dim=4, state_dim=4, keep_prob=1.0, seed=5
    )
    model = build_model(config, vocab)
    rng = random.Random(9)
    worst_perm = 0.0
    identity_ok = True
    for _ in range(100):
        premises, hypothesis = random_sequences(rng, vocab)
        base, _ = model.forward(premises, hypothesis)
        for perm in itertools.permutations(range(4)):
            permuted, _ = model.forward([premises[i] for i in perm], hypothesis)
            worst_perm = max(
                worst_perm, float(np.max(np.abs(permuted.values - base.values)))
            )
        single = premises[0]
        one, _ = model.forward([single], hypothesis)
        four, _ = model.forward([single, single, single, single], hypothesis)
        identity_ok = identity_ok and np.array_equal(four.values, 4.0 * one.values)
    ok = worst_perm <= 1e-9 and identity_ok
    _verdict(
        3,
        "sum-of-experts-invariants",
        ok,
        f"24/24 permutations max diff {worst_perm:.1e}, "
        f"identical-premise identity {'exact' if identity_ok else 'BROKEN'}",
    )


# --- 4: attention invariants ------------------------------------------------------


def test_criterion_4_attention_invariants():
    vocab = [f"tok{i}" for i in range(12)]
    config = TrainConfig(
        model="attention", embedding_dim=4, state_dim=4, keep_prob=1.0, seed=6
    )
    model = build_model(config, vocab)
    rng = random.Random(10)
    worst_row = 0.0
    for _ in range(20):
        premises, hypothesis = random_sequences(rng, vocab)
        _, weights = model.forward(concat_premises(premises), hypothesis)
        worst_row = max(worst_row, float(np.max(np.abs(weights.sum(axis=1) - 1.0))))
    rows_ok = worst_row <= 1e-12

    _, single = model.forward(["tok0"], ["tok1", "tok2"])
    single_ok = bool(np.all(single == 1.0))

    # Zeroed score vector: every position scores identically, so each row
    # must come out exactly uniform over the four premise tokens.
    model.tensors["attention.score"].values[:] = 0.0
    _, uniform = model.forward(["tok3"] * 4, ["tok4", "tok5"])
    uniform_ok = bool(np.all(uniform == 0.25))

    ok = rows_ok and single_ok and uniform_ok
    _verdict(
        4,
        "attention-invariants",
        ok,
        f"row-sum err {worst_row:.1e}, single-token "
        f"{'exact 1.0' if single_ok else 'BROKEN'}, uniform case "
        f"{'exact' if uniform_ok else 'BROKEN'}",
    )


# --- 5: voting on the five worked examples ----------------------------------------

WORKED_EXAMPLES = (
    # (pair labels, gold) for agreement categories 0..4 in order.
    (("N", "N", "N", "N"), "E"),
    (("N", "C", "N", "N"), "C"),
    (("E", "E", "N", "N"), "E"),
    (("N", "N", "E", "N"), "N"),
    (("C", "C", "C", "C"), "C"),
)


def test_criterion_5_voting_worked_examples():
    majority = [majority_vote(pairs) for pairs, _ in WORKED_EXAMPLES]
    heuristic = [ec_heuristic(pairs) for pairs, _ in WORKED_EXAMPLES]
    categories = [
        pair_agreement_category(pairs, gold) for pairs, gold in WORKED_EXAMPLES
    ]
    majority_ok = majority == ["N", "N", None, "N", "C"]
    heuristic_ok = heuristic == ["N", "C", "E", "E", "C"]
    categories_ok = categories == [0, 1, 2, 3, 4]
    # Stated correctness pattern: the heuristic works on the second example
    # and fails on the fourth.
    golds = [gold for _, gold in WORKED_EXAMPLES]
    pattern_ok = (
        heuristic[1] == golds[1]
        and heuristic[3] != golds[3]
        and majority[1] != golds[1]
    )
    ok = majority_ok and heuristic_ok and categories_ok and pattern_ok
    _verdict(
        5,
        "voting-worked-examples",
        ok,
        f"majority {majority}, heuristic {heuristic}",
    )


# --- 6: voting identity against a brute-force oracle -------------------------------


def random_voting_items(n: int, seed: int) -> list[Item]:
    rng = random.Random(seed)
    labels = ("E", "N", "C")
    return [
        Item(
            id=f"rv-{i:04d}",
            scene_group_id="g0",
            premises=("p one", "p two", "p three", "p four"),
            hypothesis="h stands",
            gold_label=rng.choice(labels),
            label_source="majority",
            pair_labels=tuple(rng.choice(labels) for _ in range(4)),
            split="train",
        )
        for i in range(n)
    ]


def test_criterion_6_voting_identity():
    items = random_voting_items(1000, seed=123)
    report = score_baselines(items)

    strict_hits = 0
    fallback_hits = 0
    heuristic_hits = 0
    category_counts = [0] * 5
    for item in items:
        counts = {label: item.pair_labels.count(label) for label in ("E", "N", "C")}
        majority = next(
            (label for label, c in counts.items() if c >= 3), None
        )
        strict_hits += majority == item.gold_label
        fallback_hits += (majority or "N") == item.gold_label
        if counts["E"] > counts["C"]:
            guess = "E"
        elif counts["C"] > counts["E"]:
            guess = "C"
        else:
            guess = "N"
        heuristic_hits += guess == item.gold_label
        category_counts[sum(p == item.gold_label for p in item.pair_labels)] += 1

    n = len(items)
    oracle_ok = (
        report.majority_acc_strict == strict_hits / n
        and report.majority_acc_neutral_fallback == fallback_hits / n
        and report.heuristic_acc == heuristic_hits / n
        and all(
            report.category_histogram[cat] == category_counts[cat] / n
            for cat in range(5)
        )
    )
    identity_gap = abs(
        report.majority_acc_strict
        - (report.category_histogram[3] + report.category_histogram[4])
    )
    ok = oracle_ok and identity_gap < 1e-12
    _verdict(
        6,
        "voting-identity",
        ok,
        f"1000 items, strict == cat3+cat4 gap {identity_gap:.1e}",
    )


# --- 7: conditional reproduction on the released corpus ----------------------------

RELEASED_ENV = "MPE_RELEASED_DIR"
RELEASED_LAYOUT = (
    "set MPE_RELEASED_DIR to a directory containing the released corpus "
    "converted to this package's formats: train.items.jsonl (labeled items "
    "with their five judgments), dev.items.jsonl (labeled dev items), and "
    "dev.pairs.tsv (per-premise pair labels, `id<TAB>L,L,L,L`)"
)


def released_comparison(base: Path) -> tuple[list[tuple], list[str]]:
    """Criterion 7 on the corpus in `base`: one (name, measured, reference,
    tolerance) row per quantity the paper reports, and the names of the rows
    out of tolerance, a quantity the corpus cannot measure (None) included,
    plus the runtime when it reaches 60 s."""
    started = time.perf_counter()
    dev = attach_pair_labels(
        load_items(base / "dev.items.jsonl"),
        load_pair_labels(base / "dev.pairs.tsv"),
    )
    vote = score_baselines(dev)
    stats = corpus_stats(load_items(base / "train.items.jsonl"))
    elapsed = time.perf_counter() - started

    # The paper's numbers on its released corpus, one row each.
    rows = [
        ("heuristic accuracy", vote.heuristic_acc, 0.417, 0.005),
        ("strict majority accuracy", vote.majority_acc_strict, 0.346, 0.005),
        *(
            (f"agreement category {cat} share", got, want, 0.005)
            for cat, (got, want) in enumerate(
                zip(vote.category_histogram, (0.218, 0.269, 0.167, 0.248, 0.098))
            )
        ),
        *(
            (f"label share {label}", stats.label_distribution[label], want, 0.002)
            for label, want in (("E", 0.323), ("N", 0.263), ("C", 0.416))
        ),
        ("annotator agreement", stats.agreement_overall, 0.70, 0.02),
        *(
            (f"agreement on {label}", stats.agreement_by_label[label], want, 0.03)
            for label, want in (("E", 0.82), ("N", 0.42), ("C", 0.78))
        ),
        ("mean lemma overlap", stats.overlap_lemma["all"].mean, 0.33, 0.03),
    ]
    failed = [name for name, got, want, tol in rows if got is None or abs(got - want) > tol]
    if elapsed >= 60:
        failed.append(f"runtime {elapsed:.1f}s >= 60s")
    return rows, failed


def test_criterion_7_released_data_reproduction():
    base = os.environ.get(RELEASED_ENV)
    if not base:
        print("acceptance 7 released-data-reproduction: SKIP (no MPE_RELEASED_DIR)")
        pytest.skip(RELEASED_LAYOUT)
    base = Path(base)
    for name in ("train.items.jsonl", "dev.items.jsonl", "dev.pairs.tsv"):
        if not (base / name).is_file():
            print(f"acceptance 7 released-data-reproduction: SKIP (missing {name})")
            pytest.skip(f"missing {base / name}; {RELEASED_LAYOUT}")

    rows, failed = released_comparison(base)
    for name, got, want, tol in rows:
        mark = "OUT" if name in failed else "ok "
        measured = "none" if got is None else f"{got:.4f}"
        print(f"  [{mark}] {name:34s} got {measured:>7s}  want {want:.4f} ± {tol}")
    _verdict(
        7,
        "released-data-reproduction",
        not failed,
        "all tolerances met" if not failed else "failed: " + ", ".join(failed),
    )


def test_released_comparison_reports_every_row(tmp_path):
    """Criterion 7's comparison on a synthetic corpus: the golden items with
    seeded judgments (flagged splits decided at random) and pair labels. It
    must measure every row and fail, since random labels match no reference."""
    rng = random.Random(7)
    draw = lambda n: tuple(rng.choice("ENC") for _ in range(n))
    items = load_items(Path(__file__).parent / "fixtures" / "golden_items.jsonl")
    items = attach_judgments(items, {item.id: draw(5) for item in items})
    items, _ = adjudicate(items, {item.id: draw(1)[0] for item in flagged_items(items)})
    save_items(items, tmp_path / "train.items.jsonl")
    save_items(items, tmp_path / "dev.items.jsonl")
    (tmp_path / "dev.pairs.tsv").write_text(
        "".join(f"{item.id}\t{','.join(draw(4))}\n" for item in items)
    )
    rows, failed = released_comparison(tmp_path)
    assert len(rows) == len({name for name, *_ in rows}) == 15
    assert all(got is not None for _, got, *_ in rows)
    assert failed
    assert set(failed) <= {name for name, *_ in rows}


# --- 8: pipeline invariants ---------------------------------------------------------


def independent_overlap(hypothesis_raw: str, premise_raws: list[str]) -> float:
    """Recompute overlap from raw strings without the corpus-stats code path."""
    hyp_content = {t for t in tokenize(hypothesis_raw) if t not in STOPWORDS}
    premise_union = set()
    for raw in premise_raws:
        premise_union.update(tokenize(raw))
    return sum(1 for t in hyp_content if t in premise_union) / len(hyp_content)


def test_criterion_8_pipeline_invariants(tmp_path):
    groups = load_captions(CAPTIONS)
    closures = caption_closures(graph_captions(groups))
    graph = build_graph(graph_captions(groups))  # oracle for ancestor exclusion
    config = GenerationConfig(n_items=8, seed=42)
    result = generate_items(groups, closures, config)
    assert result.items, "fixture corpus produced no items"

    overlap_ok = True
    ancestry_ok = True
    for item in result.items:
        overlap = independent_overlap(
            item.hypothesis.raw, [p.raw for p in item.premises]
        )
        overlap_ok = overlap_ok and overlap <= 0.5
        hyp_node = graph.node_id_for_phrase(tuple(item.hypothesis.tokens))
        ancestry_ok = ancestry_ok and hyp_node is not None
        for premise in item.premises:
            premise_node = graph.node_for_caption(premise)
            ancestry_ok = ancestry_ok and hyp_node not in graph.ancestors(premise_node)

    first = tmp_path / "run1.jsonl"
    second = tmp_path / "run2.jsonl"
    save_items(generate_items(groups, closures, config).items, first)
    save_items(generate_items(groups, closures, config).items, second)
    deterministic = first.read_bytes() == second.read_bytes()

    ok = overlap_ok and ancestry_ok and deterministic
    _verdict(
        8,
        "pipeline-invariants",
        ok,
        f"{len(result.items)} items, overlap recheck "
        f"{'ok' if overlap_ok else 'BROKEN'}, ancestor exclusion "
        f"{'ok' if ancestry_ok else 'BROKEN'}, bytes "
        f"{'identical' if deterministic else 'DIFFER'}",
    )


# --- 9: numerical core ---------------------------------------------------------------


def test_criterion_9_numerical_core():
    started = time.perf_counter()
    rng = np.random.default_rng(3)

    sums = softmax(Tensor(rng.normal(size=(40, 7))), axis=1).values.sum(axis=1)
    softmax_ok = bool(np.max(np.abs(sums - 1.0)) <= 1e-12)

    certain = cross_entropy(Tensor(np.array([60.0, 0.0, 0.0])), 0)
    certainty_ok = 0.0 <= float(certain.values) <= 1e-12

    params = [
        Tensor(rng.normal(size=(4, 4)), name="a"),
        Tensor(rng.normal(size=(3,)), name="b"),
    ]
    before = [p.values.copy() for p in params]
    opt = Adam(params)
    for p in params:
        p.grad = np.zeros_like(p.values)
    opt.step()
    fixpoint_ok = all(
        np.array_equal(p.values, prev) for p, prev in zip(params, before)
    ) and opt.step_count == 1

    kept = dropout(Tensor(np.ones(200_000)), keep_prob=0.8, rng=np.random.default_rng(4))
    dropout_ok = abs(float(kept.values.mean()) - 1.0) <= 0.02

    elapsed = time.perf_counter() - started
    ok = softmax_ok and certainty_ok and fixpoint_ok and dropout_ok and elapsed < 60
    _verdict(
        9,
        "numerical-core",
        ok,
        f"softmax {np.max(np.abs(sums - 1.0)):.1e}, certainty loss "
        f"{float(certain.values):.1e}, dropout mean drift "
        f"{abs(float(kept.values.mean()) - 1.0):.4f}, {elapsed:.1f}s",
    )
