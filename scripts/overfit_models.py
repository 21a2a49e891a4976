"""Overfit every architecture on a small synthetic dataset.

A sanity harness for the numerical core: each model must drive training
accuracy to 100% on 32 separable items. Prints per-epoch loss/accuracy and
stops early once the model is perfect.

Usage: python3 scripts/overfit_models.py [--models lstm,attn,se] [--max-epochs N]
"""

import argparse
import time

from mpe.cli import MODEL_ALIASES
from mpe.dataset import Item
from mpe.training import TrainConfig, Trainer, build_model, vocabulary_from_items

MARKERS = {"E": "alpha", "N": "beta", "C": "gamma"}
FILLERS = (
    ("dog runs fast", "cat sits down", "bird sings loud", "fish swims away"),
    ("man cooks rice", "woman reads book", "child draws circle", "crowd waits"),
    ("girl jumps rope", "boy kicks ball", "team plays game", "coach watches"),
    ("horse trots", "cow grazes", "goat climbs", "sheep sleeps"),
)


def synthetic_items(n: int) -> list[Item]:
    labels = ["E", "N", "C"]
    return [
        Item(
            id=f"syn-{i:03d}",
            scene_group_id=f"g{i % 4}",
            premises=FILLERS[i % len(FILLERS)],
            hypothesis=f"the {MARKERS[labels[i % 3]]} case number {i % 7} holds",
            gold_label=labels[i % 3],
            label_source="majority",
            split="train",
        )
        for i in range(n)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", default="lstm,attn,se")
    parser.add_argument("--n-items", type=int, default=32)
    parser.add_argument("--max-epochs", type=int, default=200)
    parser.add_argument("--state-dim", type=int, default=8)
    parser.add_argument("--embedding-dim", type=int, default=8)
    parser.add_argument("--learning-rate", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    items = synthetic_items(args.n_items)
    failures = []
    for alias in args.models.split(","):
        kind = MODEL_ALIASES.get(alias.strip(), alias.strip())
        config = TrainConfig(
            model=kind,
            state_dim=args.state_dim,
            embedding_dim=args.embedding_dim,
            epochs=1,
            batch_size=8,
            learning_rate=args.learning_rate,
            keep_prob=1.0,
            seed=args.seed,
        )
        model = build_model(config, vocabulary_from_items(items))
        trainer = Trainer(model, config)
        print(f"== {kind} ({args.n_items} items, lr {args.learning_rate})")
        started = time.perf_counter()
        reached = None
        for epoch in range(1, args.max_epochs + 1):
            (log,) = trainer.run(items, 1)
            if epoch <= 5 or epoch % 10 == 0 or log.train_accuracy == 1.0:
                print(
                    f"   epoch {epoch:3d}: loss {log.train_loss:.4f}, "
                    f"acc {log.train_accuracy:.1%}"
                )
            if log.train_accuracy == 1.0:
                reached = epoch
                break
        elapsed = time.perf_counter() - started
        if reached:
            print(f"   100% at epoch {reached} in {elapsed:.1f}s")
        else:
            print(f"   FAILED to reach 100% within {args.max_epochs} epochs")
            failures.append(kind)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
