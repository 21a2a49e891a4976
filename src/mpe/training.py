"""Training loops, the pretrain/fine-tune phases, and evaluation reports.

`train` is the one entry point: it builds the run's model with `build_model`,
the one place where fresh weights are drawn. Given `pretrain` items it runs a
`pretrain` phase on them and then a `finetune` phase on the training items;
otherwise it runs one `train` phase, and returns its Trainer. A Trainer owns
one optimizer over the model's `params()` and two seeded random streams
(shuffling and dropout) that persist across phases, so running a pretrain
phase followed by a fine-tune phase on the same data is bitwise equivalent to
one long run. It also holds the run's state: the model, the epoch logs and
the best-epoch snapshot, which `save_best_checkpoint` writes.
Each mini-batch is one padded batch through the model: one taped forward
given the dropout stream, one backward of its mean loss and one Adam step.
Dropout masks are drawn item by item, so the mask stream is that of reading
the items one at a time, and the gradient equals the per-item accumulated one
up to summation order. Scoring passes no stream, so it runs without dropout.
Prediction, accuracy and evaluation score items in chunks of `EVAL_CHUNK`.
A batch or chunk reaches the model in one call, its items in their original
order; an `Item` and a `SpePair` (one premise) offer the same `premises`,
`hypothesis` and `gold_label`. Every batch comes from one file or one phase,
so its items share their number of premises; sum-of-experts refuses a batch
that mixes 1- and 4-premise items. The single-item call `forward_logits` is
the B = 1 call of `batch_logits`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .autodiff import (
    Adam,
    Tape,
    Tensor,
    cross_entropy,
    flatten,
    save_checkpoint,
    scale,
    tensor_sum,
    zero_grad,
)
from .dataset import Item, LABELS, SpePair, label_index
from .models import ARCHITECTURES, SEPARATOR, UNK_TOKEN, initial_tensors
from .text import _quote
from .voting import PAIR_COUNT, pair_agreement_category


# Items per forward pass when predicting, scoring and evaluating.
EVAL_CHUNK = 32


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    model: str = "conditional-lstm"
    state_dim: int = 75
    embedding_dim: int = 50
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.001
    keep_prob: float = 0.8
    seed: int = 0
    trainable_embeddings: bool = True

    def __post_init__(self) -> None:
        if self.model not in ARCHITECTURES:
            raise ValueError(f"unknown model {self.model!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must lie in (0, 1], got {self.keep_prob}")
        if not 0.0 <= self.learning_rate < float("inf"):
            raise ValueError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.state_dim < 1 or self.embedding_dim < 1:
            raise ValueError("state_dim and embedding_dim must be >= 1")


PRESETS: dict[str, TrainConfig] = {
    "lstm-mpe": TrainConfig(model="conditional-lstm", state_dim=75, keep_prob=0.8),
    "se-mpe": TrainConfig(model="sum-of-experts", state_dim=100, keep_prob=0.8),
    "attn-mpe": TrainConfig(model="attention", state_dim=100, keep_prob=0.6),
    # Sizes only: a run pretrains when it is given pretraining items.
    "snli-pretrain": TrainConfig(model="conditional-lstm", state_dim=100, keep_prob=0.8),
}


def vocabulary_from_items(items: Iterable["Item | SpePair"]) -> list[str]:
    """Sorted token set over every premise and hypothesis."""
    tokens: set[str] = set()
    for item in items:
        for text in (*item.premises, item.hypothesis):
            tokens.update(text.tokens)
    return sorted(tokens)


def _token_lists(item: "Item | SpePair") -> tuple[list[list[str]], list[str]]:
    return [list(p.tokens) for p in item.premises], list(item.hypothesis.tokens)


def forward_logits(
    model,
    item: "Item | SpePair",
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run any architecture on a labeled item, returning its 3 logits; with
    `train` the dropout stream `rng` is used, otherwise there is no dropout."""
    return flatten(batch_logits(model, [item], rng if train else None))


def batch_logits(
    model,
    items: Sequence["Item | SpePair"],
    rng: np.random.Generator | None = None,
) -> Tensor:
    """(B, 3) logits of B items in one model call, with dropout drawn from
    `rng` when one is given; sum-of-experts needs every item of the batch to
    have the same number of premises."""
    premises, hypotheses = zip(*map(_token_lists, items))
    return model.batch_logits(premises, hypotheses, rng)


def predict_all(model, items: Sequence["Item | SpePair"]) -> list[str]:
    """The predicted label of every item, scored in chunks of EVAL_CHUNK items."""
    guesses: list[str] = []
    for start in range(0, len(items), EVAL_CHUNK):
        logits = batch_logits(model, items[start : start + EVAL_CHUNK])
        guesses.extend(LABELS[i] for i in np.argmax(logits.values, axis=1))
    return guesses


def accuracy(model, items: Sequence["Item | SpePair"]) -> float:
    if not items:
        raise ValueError("cannot score an empty dataset")
    guesses = predict_all(model, items)
    correct = sum(guess == item.gold_label for guess, item in zip(guesses, items))
    return correct / len(items)


def _check_labeled(items: Iterable["Item | SpePair"]) -> None:
    for item in items:
        if item.gold_label is None:
            raise ValueError(f"item {_quote(item.id)} has no gold label")


def build_model(
    config: TrainConfig,
    vocab_tokens: Sequence[str],
    vectors: Mapping[str, Sequence[float]] | None = None,
):
    """A fresh `config.model` over `vocab_tokens`: its `shapes` table drawn
    from `default_rng(config.seed)` by the rule of `initial_tensors`.

    Given pretrained `vectors` of width `config.embedding_dim`, their rows in
    sorted token order are `embeddings.main` and their tokens the vocabulary;
    `embeddings.special` is drawn from one `default_rng(config.seed)` and every
    other tensor from a second one."""
    cls = ARCHITECTURES[config.model]
    tokens = vocab_tokens if vectors is None else vectors
    ordered = sorted({t for t in tokens if t not in (UNK_TOKEN, SEPARATOR)})
    given: dict[str, Tensor] = {}
    if vectors is not None:
        if not ordered:
            raise ValueError("no vectors supplied")
        dim = len(vectors[ordered[0]])
        matrix = np.empty((len(ordered), dim))
        for i, token in enumerate(ordered):
            row = np.asarray(vectors[token], dtype=np.float64)
            if row.shape != (dim,):
                raise ValueError(
                    f"vector for {_quote(token)} has length {row.shape[0]}, expected {dim}"
                )
            matrix[i] = row
        if dim != config.embedding_dim:
            raise ValueError(
                f"embedding_dim {config.embedding_dim} differs from the "
                f"{dim}-d pretrained vectors"
            )
        given = {
            "embeddings.main": Tensor(matrix, name="embeddings.main"),
            **initial_tensors(
                {"embeddings.special": (2, dim)}, np.random.default_rng(config.seed)
            ),
        }
    shapes = cls.shapes(len(ordered), config.embedding_dim, config.state_dim)
    drawn = initial_tensors(
        {name: shape for name, shape in shapes.items() if name not in given},
        np.random.default_rng(config.seed),
    )
    return cls(
        {token: i for i, token in enumerate(ordered)},
        given | drawn,
        config.state_dim,
        config.keep_prob,
        config.trainable_embeddings,
    )


@dataclass(frozen=True)
class EpochLog:
    """One line of the training log."""

    phase: str
    epoch: int
    train_loss: float
    train_accuracy: float
    dev_accuracy: float | None


class Trainer:
    """Mini-batch optimizer state shared across training phases, the
    per-epoch log and the retained best snapshot."""

    def __init__(self, model, config: TrainConfig):
        self.model = model
        self.config = config
        self.optimizer = Adam(model.params(), lr=config.learning_rate)
        self._shuffle = random.Random(config.seed)
        self._dropout_rng = np.random.default_rng(config.seed)
        self.logs: list[EpochLog] = []
        self._best_metric: float | None = None
        self.best_phase = ""
        self.best_epoch = 0
        self.best_params: dict[str, np.ndarray] = {}

    def _snapshot(self, phase: str, epoch: int, metric: float) -> None:
        if self._best_metric is None or metric > self._best_metric:
            self._best_metric = metric
            self.best_phase = phase
            self.best_epoch = epoch
            self.best_params = {
                name: t.values.copy() for name, t in self.model.tensors.items()
            }

    def run(
        self,
        items: Sequence["Item | SpePair"],
        epochs: int,
        dev: Sequence["Item | SpePair"] | None = None,
        phase: str = "train",
    ) -> list[EpochLog]:
        if not items:
            raise ValueError("cannot train on an empty dataset")
        _check_labeled(items)
        if dev:
            _check_labeled(dev)
        batch_size = self.config.batch_size
        phase_logs: list[EpochLog] = []
        for epoch in range(1, epochs + 1):
            order = list(range(len(items)))
            self._shuffle.shuffle(order)
            losses: list[float] = []
            for start in range(0, len(order), batch_size):
                chunk = [items[idx] for idx in order[start : start + batch_size]]
                zero_grad(self.optimizer.params)
                with Tape() as tape:
                    logits = batch_logits(self.model, chunk, self._dropout_rng)
                    item_losses = cross_entropy(
                        logits, [label_index(item.gold_label) for item in chunk]
                    )
                    loss = scale(tensor_sum(item_losses), 1.0 / len(chunk))
                tape.backward(loss)
                losses.extend(item_losses.values.tolist())
                self.optimizer.step()
            train_loss = float(np.mean(losses))
            train_acc = accuracy(self.model, items)
            dev_acc = accuracy(self.model, dev) if dev else None
            log = EpochLog(phase, epoch, train_loss, train_acc, dev_acc)
            phase_logs.append(log)
            self.logs.append(log)
            # Best-epoch retention: dev accuracy when available, else train loss.
            self._snapshot(phase, epoch, dev_acc if dev else -train_loss)
        return phase_logs

    def save_best_checkpoint(self, path) -> None:
        save_checkpoint(path, self.best_params, self.model._meta())


def train(
    items: Sequence["Item | SpePair"],
    config: TrainConfig,
    dev: Sequence["Item | SpePair"] | None = None,
    pretrain: Sequence["Item | SpePair"] | None = None,
    vectors: Mapping[str, Sequence[float]] | None = None,
) -> Trainer:
    """Train a fresh `build_model` over both item sets' vocabulary (or over
    `vectors`) on `items` for `config.epochs` epochs, after as many epochs on
    `pretrain` when given, with one optimizer and one pair of random streams,
    and return the Trainer holding the model, logs and best snapshot."""
    vocab = vocabulary_from_items([*(pretrain or ()), *items])
    trainer = Trainer(build_model(config, vocab, vectors), config)
    if pretrain is None:
        trainer.run(items, config.epochs, dev=dev, phase="train")
    else:
        trainer.run(pretrain, config.epochs, dev=dev, phase="pretrain")
        trainer.run(items, config.epochs, dev=dev, phase="finetune")
    return trainer


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class Breakdown:
    """Accuracy over one subset of the evaluation data."""

    correct: int
    total: int

    @property
    def accuracy(self) -> float | None:
        return self.correct / self.total if self.total else None


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus per-class, per-agreement, and per-phenomenon views.

    Subsets that partition the data (classes; agreement categories when every
    item carries pair labels) have weighted-mean accuracy equal to the
    overall accuracy.
    """

    n_items: int
    correct: int
    per_class: Mapping[str, Breakdown]
    by_category: Mapping[int, Breakdown] | None
    by_phenomenon: Mapping[str, Breakdown]
    confusion: tuple[tuple[int, ...], ...]
    predictions: tuple[str, ...]
    diagnostics: tuple[str, ...]

    @property
    def accuracy(self) -> float:
        return self.correct / self.n_items

    def to_record(self) -> dict:
        def breakdowns(table: Mapping) -> dict:
            return {
                str(key): {"correct": b.correct, "total": b.total, "accuracy": b.accuracy}
                for key, b in table.items()
            }

        return {
            "n_items": self.n_items,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "per_class": breakdowns(self.per_class),
            "by_category": (
                None if self.by_category is None else breakdowns(self.by_category)
            ),
            "by_phenomenon": breakdowns(self.by_phenomenon),
            "confusion": [list(row) for row in self.confusion],
            "labels": list(LABELS),
            "diagnostics": list(self.diagnostics),
        }


def _breakdowns(pairs: Iterable[tuple[object, bool]], keys: Iterable = ()) -> dict:
    """A Breakdown per key of the `(key, hit)` pairs, in sorted key order;
    each of `keys` is present even when no pair names it."""
    counts = {key: [0, 0] for key in keys}
    for key, hit in pairs:
        bucket = counts.setdefault(key, [0, 0])
        bucket[0] += hit
        bucket[1] += 1
    return {key: Breakdown(*counts[key]) for key in sorted(counts)}


def evaluate(model, items: Sequence[Item]) -> EvalReport:
    """Score a labeled dataset with dropout off; never mutates parameters.

    The predictions and their hits are the one tally: `correct` is the number
    of hits, `per_class` reads each gold row of `confusion` (the diagonal cell
    is the correct count, the row sum the total), and the agreement-category
    and phenomenon breakdowns count the hits per key. The category view needs
    pair labels on every item; the phenomenon view needs a tagged item.
    """
    if not items:
        raise ValueError("cannot evaluate an empty dataset")
    _check_labeled(items)

    predictions = predict_all(model, items)
    golds = [item.gold_label for item in items]
    hits = [guess == gold for guess, gold in zip(predictions, golds)]
    confusion = [[0] * len(LABELS) for _ in LABELS]
    for gold, guess in zip(golds, predictions):
        confusion[label_index(gold)][label_index(guess)] += 1
    pair_labels = [getattr(item, "pair_labels", None) for item in items]
    diagnostics: list[str] = []

    by_category: dict[int, Breakdown] | None = None
    if None in pair_labels:
        diagnostics.append(
            f"pair-agreement breakdown skipped: {pair_labels.count(None)} of "
            f"{len(items)} items lack pair labels"
        )
    else:
        by_category = _breakdowns(
            (
                (pair_agreement_category(pairs, gold), hit)
                for pairs, gold, hit in zip(pair_labels, golds, hits)
            ),
            keys=range(PAIR_COUNT + 1),
        )
    by_phenomenon = _breakdowns(
        (tag, hit)
        for item, hit in zip(items, hits)
        for tag in getattr(item, "phenomenon_tags", ())
    )
    if not by_phenomenon:
        diagnostics.append("phenomenon breakdown skipped: no tagged items")

    return EvalReport(
        n_items=len(items),
        correct=sum(hits),
        per_class={
            label: Breakdown(row[i], sum(row))
            for i, (label, row) in enumerate(zip(LABELS, confusion))
        },
        by_category=by_category,
        by_phenomenon=by_phenomenon,
        confusion=tuple(tuple(row) for row in confusion),
        predictions=tuple(predictions),
        diagnostics=tuple(diagnostics),
    )


def format_eval_report(report: EvalReport) -> str:
    """Aligned text rendering of an EvalReport."""

    def pct(value: float | None) -> str:
        return "   -" if value is None else f"{100 * value:5.1f}%"

    def rows(table: Mapping, width: int) -> list[str]:
        return [
            f"  {key!s:<{width}}: {pct(b.accuracy)} ({b.correct}/{b.total})"
            for key, b in table.items()
        ]

    lines = [
        f"items: {report.n_items}",
        f"accuracy: {pct(report.accuracy)} ({report.correct}/{report.n_items})",
        "",
        "per class:",
        *rows(report.per_class, 1),
        "",
    ]
    if report.by_category is None:
        lines.append("pair-agreement categories: (skipped)")
    else:
        lines += ["pair-agreement categories:", *rows(report.by_category, 1)]
    if report.by_phenomenon:
        width = max(map(len, report.by_phenomenon))
        lines += ["", "phenomena:", *rows(report.by_phenomenon, width)]
    lines += ["", "confusion (rows gold, cols predicted " + "/".join(LABELS) + "):"]
    for label, row in zip(LABELS, report.confusion):
        lines.append(f"  {label} " + " ".join(f"{n:5d}" for n in row))
    lines += [f"note: {note}" for note in report.diagnostics]
    return "\n".join(lines) + "\n"
