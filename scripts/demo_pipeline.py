"""End-to-end demo on the bundled fixture corpus.

Computes caption closures, generates items, attaches synthetic five-way
judgments, aggregates and adjudicates labels, prints corpus statistics, then
trains and scores a small conditional LSTM — the whole research loop in
miniature. Everything is seeded; two runs print identical numbers.

Usage: python3 scripts/demo_pipeline.py [--workdir DIR] [--n-items N] [--seed S]

Without --workdir the artifacts go to a temporary directory that is removed
at exit. Paths are printed relative to the repository root or the work
directory, so the output does not depend on where either lives.
"""

import argparse
import random
import tempfile
from pathlib import Path

from mpe.dataset import (
    GenerationConfig,
    adjudicate,
    attach_judgments,
    corpus_stats,
    flagged_items,
    generate_items,
    graph_captions,
    load_captions,
    save_items,
)
from mpe.graph import caption_closures
from mpe.training import TrainConfig, evaluate, format_eval_report, train

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

VOTE_PATTERNS = (
    ("E", "E", "E", "E", "N"),  # clear majority
    ("N", "N", "N", "C", "E"),  # clear majority
    ("C", "C", "C", "E", "E"),  # clear majority
    ("E", "E", "E", "C", "C"),  # 3-2 E/C: provisional, flagged
    ("E", "E", "N", "N", "C"),  # 2-2-1: unlabeled, flagged
    ("C", "C", "N", "N", "N"),  # clear majority
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="where to drop artifacts (default: temp dir)")
    parser.add_argument("--n-items", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        return run(args, workdir)
    with tempfile.TemporaryDirectory() as tmp:
        return run(args, Path(tmp))


def run(args: argparse.Namespace, workdir: Path) -> int:
    print(f"== caption closures of {(FIXTURES / 'captions.tsv').relative_to(ROOT)}")
    groups = load_captions(FIXTURES / "captions.tsv")
    closures = caption_closures(graph_captions(groups))
    print(
        f"   {len(closures.ancestors)} distinct captions, "
        f"{len(closures.caption_counts)} distinct phrases"
    )

    print(f"== generating {args.n_items} items (seed {args.seed})")
    config = GenerationConfig(n_items=args.n_items, seed=args.seed)
    result = generate_items(groups, closures, config)
    diag = result.diagnostics
    print(
        f"   produced {diag.produced} ({diag.related} related, "
        f"{diag.unrelated} unrelated); rejections: support "
        f"{diag.rejected_support}, overlap {diag.rejected_overlap}"
    )

    print("== attaching synthetic five-way judgments")
    rng = random.Random(args.seed)
    judgments = {
        item.id: VOTE_PATTERNS[rng.randrange(len(VOTE_PATTERNS))]
        for item in result.items
    }
    items = attach_judgments(result.items, judgments)
    flagged = flagged_items(items)
    print(f"   {len(flagged)} of {len(items)} items flagged for adjudication")

    if flagged:
        print("== adjudicating flagged items (demo rule: pick the first leader)")
        decisions = {}
        for item in flagged:
            counts = [item.judgments.count(label) for label in ("E", "N", "C")]
            decisions[item.id] = max(zip(counts, ("E", "N", "C")))[1]
        items, unresolved = adjudicate(items, decisions)
        print(f"   decided {len(decisions)}, unresolved {len(unresolved)}")

    items_path = workdir / "demo.items.jsonl"
    save_items(items, items_path)
    print(f"== wrote {items_path.name} in the work directory")

    stats = corpus_stats(items)
    print(
        f"== stats: {stats.item_count} items, {stats.type_count} types, "
        f"agreement {stats.agreement_overall:.2f}"
    )
    dist = "  ".join(f"{k} {v:.1%}" for k, v in stats.label_distribution.items())
    print(f"   label distribution: {dist}")

    print("== training a small conditional LSTM on the demo items")
    train_config = TrainConfig(
        model="conditional-lstm",
        state_dim=16,
        embedding_dim=16,
        epochs=8,
        batch_size=4,
        learning_rate=0.01,
        keep_prob=1.0,
        seed=args.seed,
    )
    outcome = train(items, train_config)
    for log in outcome.logs:
        print(
            f"   epoch {log.epoch}: loss {log.train_loss:.4f}, "
            f"train acc {log.train_accuracy:.1%}"
        )
    report = evaluate(outcome.model, items)
    print("== final training-set report")
    print(format_eval_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
