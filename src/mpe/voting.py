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

NO_MAJORITY = None


def majority_vote(pairs: Sequence[str]) -> str | None:
    """Label held by at least 3 of the 4 pairs, else None (no majority)."""
    for label in LABELS:
        if pairs.count(label) >= 3:
            return label
    return NO_MAJORITY


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
    the fraction of scored items in each agreement category 0..4; by
    construction majority_acc_strict equals histogram[3] + histogram[4].
    """

    n_scored: int
    n_skipped: int
    majority_acc_strict: float
    majority_acc_neutral_fallback: float
    heuristic_acc: float
    category_histogram: tuple[float, float, float, float, float]


def score_baselines(items: Sequence[Item]) -> BaselineReport:
    """Score both voting schemes over items carrying pair labels and gold."""
    strict = 0
    fallback = 0
    heuristic = 0
    histogram = [0] * (PAIR_COUNT + 1)
    scored = 0
    skipped = 0
    for item in items:
        if item.pair_labels is None or item.gold_label is None:
            skipped += 1
            continue
        scored += 1
        vote = majority_vote(item.pair_labels)
        strict += vote == item.gold_label
        fallback += (vote if vote is not NO_MAJORITY else "N") == item.gold_label
        heuristic += ec_heuristic(item.pair_labels) == item.gold_label
        histogram[pair_agreement_category(item.pair_labels, item.gold_label)] += 1
    if scored == 0:
        raise ValueError("no items with both pair_labels and gold_label")
    return BaselineReport(
        n_scored=scored,
        n_skipped=skipped,
        majority_acc_strict=strict / scored,
        majority_acc_neutral_fallback=fallback / scored,
        heuristic_acc=heuristic / scored,
        category_histogram=tuple(count / scored for count in histogram),
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
