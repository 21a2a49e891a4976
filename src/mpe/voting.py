"""Fixed voting schemes that reduce four pair labels to one item label.

Each premise-hypothesis pair carries its own E/N/C label; these baselines try
to recover the item label from the four pair labels alone. Their failure
modes (ties, overruled minorities) are the motivation for models that read
all premises jointly. The schemes trust their input: pair labels are checked
once, when an `Item` holding them is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import LABELS, Item, _load_label_table, _merge

PAIR_COUNT = 4


def majority_vote(pairs: Sequence[str]) -> str | None:
    """Label held by at least 3 of the 4 pairs, else None (no majority)."""
    for label in LABELS:
        if pairs.count(label) >= 3:
            return label
    return None


def ec_heuristic(pairs: Sequence[str]) -> str:
    """Predict E if E-pairs outnumber C-pairs, C if the reverse, else N."""
    e, c = pairs.count("E"), pairs.count("C")
    if e > c:
        return "E"
    if c > e:
        return "C"
    return "N"


def pair_agreement_category(pairs: Sequence[str], gold: str) -> int:
    """How many pair labels equal the item label (0..4)."""
    return sum(label == gold for label in pairs)


@dataclass(frozen=True)
class BaselineReport:
    """Voting-baseline accuracies plus the agreement-category histogram.

    majority_acc_strict scores a no-majority vote as incorrect; the
    neutral-fallback variant maps no-majority to N first. The histogram holds
    the fraction of scored items in each agreement category 0..4. A strict
    majority is right exactly when 3 or 4 pairs agree with the item, so
    majority_acc_strict is read off the category counts: (count of category 3
    + count of category 4) / n_scored.
    """

    n_scored: int
    n_skipped: int
    majority_acc_strict: float
    majority_acc_neutral_fallback: float
    heuristic_acc: float
    category_histogram: tuple[float, float, float, float, float]


def score_baselines(items: Sequence[Item]) -> BaselineReport:
    """Score both voting schemes over items carrying pair labels and gold."""
    scored = [
        item
        for item in items
        if item.pair_labels is not None and item.gold_label is not None
    ]
    if not scored:
        raise ValueError("no items with both pair_labels and gold_label")
    fallback = 0
    heuristic = 0
    histogram = [0] * (PAIR_COUNT + 1)
    for item in scored:
        pairs, gold = item.pair_labels, item.gold_label
        fallback += (majority_vote(pairs) or "N") == gold
        heuristic += ec_heuristic(pairs) == gold
        histogram[pair_agreement_category(pairs, gold)] += 1
    n = len(scored)
    return BaselineReport(
        n_scored=n,
        n_skipped=len(items) - n,
        majority_acc_strict=(histogram[3] + histogram[4]) / n,
        majority_acc_neutral_fallback=fallback / n,
        heuristic_acc=heuristic / n,
        category_histogram=tuple(count / n for count in histogram),
    )


def attach_pair_labels(
    items: Sequence[Item], pair_labels: Mapping[str, Sequence[str]]
) -> list[Item]:
    """Set pair labels on matching items; ids without items are an error."""
    attach = lambda item, labels: replace(item, pair_labels=tuple(labels))
    return _merge(items, pair_labels, "pair labels", attach)


def load_pair_labels(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read `item_id<TAB>L,L,L,L` lines into an id -> pair-labels map."""
    return _load_label_table(path, PAIR_COUNT)
