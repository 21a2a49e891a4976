"""Item generation, judgment aggregation, adjudication, and corpus statistics.

An item pairs four premise captions from one scene group with a hypothesis
phrase and a three-way label (E = entailment, N = neutral, C = contradiction).
Hypotheses are drawn from caption closures (`mpe.graph.CaptionClosures`):
generalizations of a fifth caption of the same group (related) or of a caption
from another group (unrelated) that no premise generalizes to, kept only when
they clear a support threshold and a word-overlap ceiling against the
premises.

Five crowd judgments reduce to a final label and its route, `label_source`
(`aggregate_labels`): "majority", or "majority-provisional" for a 3-2 split
between E and C; a 2-2-1 split gets no label. Both splits are flagged for human
adjudication, and an "adjudicated" item is never flagged again. Judgments,
decisions and pair labels attach to items by id through one merge, which
rejects an id that names no item; their labels are checked once, by `Item`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .graph import CaptionClosures, simplify_hypothesis
from .text import (
    OverlapUndefinedError,
    Sentence,
    _atomic_write,
    _lines,
    _quote,
    _quote_list,
    normalize,
    word_overlap,
)

LABELS = ("E", "N", "C")
SPLITS = ("train", "dev", "test")
LABEL_SOURCES = ("majority", "majority-provisional", "adjudicated")

ITEMS_FORMAT = "mpe-items"
SPE_FORMAT = "mpe-spe-items"
FORMAT_VERSION = 1


class UnknownItemError(ValueError):
    """A judgment, decision or pair label names an item id that does not exist."""


class EmptyCorpusError(ValueError):
    """Statistics were requested over zero items."""


def label_index(label: str) -> int:
    try:
        return LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown label {_quote(label)}, expected one of {LABELS}") from None


def _check_id(item_id: str) -> None:
    """Refuse an id that no TSV output could hold: empty, or with a TAB, CR or LF."""
    if not item_id or any(c in item_id for c in "\t\r\n"):
        raise ValueError(f"id {_quote(item_id)} is empty or holds a TAB, CR or LF")


@dataclass(frozen=True)
class Item:
    """One four-premise entailment problem."""

    id: str
    scene_group_id: str
    premises: tuple[Sentence, Sentence, Sentence, Sentence]
    hypothesis: Sentence
    gold_label: str | None = None
    judgments: tuple[str, ...] = ()
    pair_labels: tuple[str, str, str, str] | None = None
    phenomenon_tags: frozenset[str] = frozenset()
    split: str = "train"
    label_source: str | None = None

    def __post_init__(self) -> None:
        _check_id(self.id)
        if len(self.premises) != 4:
            raise ValueError(f"item {_quote(self.id)}: needs exactly 4 premises")
        if self.judgments and len(self.judgments) != 5:
            raise ValueError(f"item {_quote(self.id)}: judgments must number exactly 5")
        if self.pair_labels is not None and len(self.pair_labels) != 4:
            raise ValueError(f"item {_quote(self.id)}: pair_labels must number exactly 4")
        for label in (*self.judgments, *(self.pair_labels or ())):
            label_index(label)
        if self.gold_label is not None:
            label_index(self.gold_label)
        if self.split not in SPLITS:
            raise ValueError(f"item {_quote(self.id)}: bad split {_quote(self.split)}")
        if self.label_source is not None and self.label_source not in LABEL_SOURCES:
            raise ValueError(
                f"item {_quote(self.id)}: bad label_source {_quote(self.label_source)}"
            )


@dataclass(frozen=True)
class SpePair:
    """Single-premise pair, the unit of the pairwise annotations."""

    id: str
    premise: Sentence
    hypothesis: Sentence
    label: str

    def __post_init__(self) -> None:
        _check_id(self.id)
        label_index(self.label)

    # An `Item`'s names, so training and evaluation read both kinds alike.
    @property
    def premises(self) -> tuple[Sentence]:
        return (self.premise,)

    @property
    def gold_label(self) -> str:
        return self.label


# --- judgment aggregation -------------------------------------------------


def aggregate_labels(judgments: Sequence[str]) -> tuple[str | None, str | None]:
    """Reduce five E/N/C judgments to `(label, label_source)`.

    No label reaching 3 votes (a 2-2-1 split) gives `(None, None)`; a 3-2
    split between E and C keeps its majority as "majority-provisional"; any
    other majority is "majority". Both splits need adjudication.
    """
    counts = [judgments.count(label) for label in LABELS]
    top = max(counts)
    if top < 3:
        return None, None
    label = LABELS[counts.index(top)]
    if top == 3 and "N" not in judgments:
        return label, "majority-provisional"
    return label, "majority"


def _at(table: Mapping[str, object], key: str) -> str:
    """`path:line: ` of `key` when `table` was read by `_load_label_table`."""
    return f"{table.lines[key]}: " if isinstance(table, _LabelTable) else ""


def _merge(
    items: Sequence[Item], table: Mapping[str, object], what: str, update: Callable
) -> list[Item]:
    """Every item in order, each id of `table` replaced by
    `update(item, table[id])`; an id that names no item is an error."""
    known = {item.id for item in items}
    unknown = [key for key in table if key not in known]
    if unknown:
        raise UnknownItemError(
            f"{_at(table, unknown[0])}{what} for unknown item ids: {_quote_list(unknown)}"
        )
    return [update(item, table[item.id]) if item.id in table else item for item in items]


def _judged(item: Item, judgments: Sequence[str]) -> Item:
    judgments = tuple(judgments)
    label, source = aggregate_labels(judgments)
    return replace(item, judgments=judgments, gold_label=label, label_source=source)


def attach_judgments(
    items: Sequence[Item], judgments: Mapping[str, Sequence[str]]
) -> list[Item]:
    """Attach crowd judgments with the label and `label_source` they reduce to.

    Items without an entry pass through unchanged. 2-2-1 items come back with
    judgments attached but no label; 3-2 E/C items get a provisional label.
    """
    return _merge(items, judgments, "judgments", _judged)


def flagged_items(items: Iterable[Item]) -> list[Item]:
    """The judged items whose judgments reduce to no label or a provisional
    one, unless already adjudicated."""
    return [
        item
        for item in items
        if item.judgments
        and item.label_source != "adjudicated"
        and aggregate_labels(item.judgments)[1] != "majority"
    ]


def adjudicate(
    items: Sequence[Item], decisions: Mapping[str, str]
) -> tuple[list[Item], list[str]]:
    """Apply human decisions to the flagged items among `items`.

    Returns every item in input order plus the ids of flagged items left
    without a decision: a 2-2-1 item stays unlabeled, a 3-2 item keeps its
    provisional label. A decision for an unknown id or for an item that is
    not flagged is an error, and the message says which.
    """
    flagged = dict.fromkeys(item.id for item in flagged_items(items))
    decide = lambda item, label: replace(item, gold_label=label, label_source="adjudicated")
    out = _merge(items, decisions, "decisions", decide)
    unflagged = [key for key in decisions if key not in flagged]
    if unflagged:
        raise ValueError(
            f"{_at(decisions, unflagged[0])}decisions for items that do not "
            f"need adjudication: {_quote_list(unflagged)}"
        )
    return out, [item_id for item_id in flagged if item_id not in decisions]


# --- corpus loading --------------------------------------------------------


@dataclass(frozen=True)
class CaptionGroup:
    """Captions sharing one scene, ordered by their caption index."""

    gid: str
    captions: tuple[Sentence, ...]


def load_captions(path: str | Path) -> list[CaptionGroup]:
    """Parse a `gid<TAB>index<TAB>text` corpus into groups sorted by gid."""
    path = Path(path)
    rows: dict[str, dict[int, Sentence]] = {}
    for lineno, line in _lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(
                f"{path}:{lineno}: expected gid<TAB>index<TAB>text, got {_quote(line)}"
            )
        gid, idx_s, text = parts
        if not gid:
            raise ValueError(f"{path}:{lineno}: empty scene group id")
        try:
            idx = int(idx_s)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad caption index {_quote(idx_s)}") from None
        group = rows.setdefault(gid, {})
        if idx in group:
            raise ValueError(f"{path}:{lineno}: duplicate caption index {_quote(gid)}/{idx}")
        try:
            group[idx] = normalize(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return [
        CaptionGroup(gid=gid, captions=tuple(rows[gid][i] for i in sorted(rows[gid])))
        for gid in sorted(rows)
    ]


def graph_captions(groups: Iterable[CaptionGroup]) -> list[tuple[str, Sentence]]:
    """Flatten groups into the (gid, Sentence) pairs that `build_graph` and
    `caption_closures` consume."""
    return [(g.gid, sent) for g in groups for sent in g.captions]


# --- item generation -------------------------------------------------------


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for item generation.

    min_support counts the corpus captions whose closure holds a candidate
    phrase (`CaptionClosures.caption_counts`); overlap_max is inclusive and
    applies to full-token overlap between hypothesis and premise set.
    related_fraction splits the requested n_items between same-group and
    other-group hypothesis sources before sampling.
    """

    n_items: int
    seed: int = 0
    overlap_max: float = 0.5
    related_fraction: float = 0.5
    min_support: int = 2
    split: str = "train"

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError("n_items must be >= 1")
        if not 0.0 <= self.overlap_max <= 1.0:
            raise ValueError("overlap_max must lie in [0, 1]")
        if not 0.0 <= self.related_fraction <= 1.0:
            raise ValueError("related_fraction must lie in [0, 1]")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if self.split not in SPLITS:
            raise ValueError(f"bad split {self.split!r}")


@dataclass
class GenerationDiagnostics:
    requested: int = 0
    produced: int = 0
    related: int = 0
    unrelated: int = 0
    shortfall: int = 0
    groups_total: int = 0
    groups_with_4plus: int = 0
    groups_with_5plus: int = 0
    groups_skipped: int = 0
    rejected_support: int = 0
    rejected_overlap: int = 0
    rejected_no_content: int = 0


@dataclass(frozen=True)
class GenerationResult:
    items: list[Item]
    diagnostics: GenerationDiagnostics


def generate_items(
    groups: Sequence[CaptionGroup],
    closures: CaptionClosures,
    config: GenerationConfig,
) -> GenerationResult:
    """Sample items: one per host group, hypotheses from caption closures.

    Host groups are visited in seeded-shuffle order; each contributes at most
    one item. Related items draw the hypothesis from generalizations of the
    group's own fifth caption, unrelated items from a random other group's
    caption; a group that cannot fill its drawn kind backfills the other.
    A shortfall is reported in the diagnostics, never silently truncated.
    """
    rng = random.Random(config.seed)
    diag = GenerationDiagnostics(requested=config.n_items)
    groups = sorted(groups, key=lambda g: g.gid)
    diag.groups_total = len(groups)
    hosts = [g for g in groups if len(g.captions) >= 4]
    diag.groups_with_4plus = len(hosts)
    diag.groups_with_5plus = sum(1 for g in groups if len(g.captions) >= 5)
    position = {g.gid: i for i, g in enumerate(groups)}

    def draw(group: CaptionGroup, related: bool) -> Sentence | None:
        """A hypothesis of the given kind for group's first four captions:
        one generalization of the source caption that passes the support and
        overlap gates, drawn at random; None if there is none."""
        premises = group.captions[:4]
        if related:
            if len(group.captions) < 5:
                return None
            source = group.captions[4]
        else:
            if len(groups) < 2:
                return None
            # The index `rng.choice` would draw from the list of the other
            # groups, shifted past the host's own position.
            j = rng.choice(range(len(groups) - 1))
            partner = groups[j + (j >= position[group.gid])]
            source = rng.choice(partner.captions)
        candidates = []
        for phrase in simplify_hypothesis(source, premises, closures):
            if closures.caption_counts[phrase] < config.min_support:
                diag.rejected_support += 1
                continue
            hypothesis = normalize(" ".join(phrase))
            try:
                overlap = word_overlap(hypothesis, premises, "full")
            except OverlapUndefinedError:
                diag.rejected_no_content += 1
                continue
            if overlap > config.overlap_max:
                diag.rejected_overlap += 1
                continue
            candidates.append(hypothesis)
        return rng.choice(candidates) if candidates else None

    order = list(hosts)
    rng.shuffle(order)
    n_related = round(config.n_items * config.related_fraction)
    left = {True: n_related, False: config.n_items - n_related}  # by relatedness
    items = []
    for group in order:
        if left[True] + left[False] == 0:
            break
        if left[True] and left[False]:
            related = rng.random() < left[True] / (left[True] + left[False])
        else:
            related = left[True] > 0
        hypothesis = draw(group, related)
        if hypothesis is None and left[not related]:
            related = not related
            hypothesis = draw(group, related)
        if hypothesis is None:
            diag.groups_skipped += 1
            continue
        left[related] -= 1
        items.append(
            Item(
                id=f"{config.split}-{len(items):05d}",
                scene_group_id=group.gid,
                premises=group.captions[:4],
                hypothesis=hypothesis,
                split=config.split,
            )
        )
    diag.related = n_related - left[True]
    diag.unrelated = config.n_items - n_related - left[False]
    diag.produced = len(items)
    diag.shortfall = config.n_items - len(items)
    return GenerationResult(items=items, diagnostics=diag)


# --- corpus statistics -----------------------------------------------------


@dataclass(frozen=True)
class Moments:
    mean: float
    sd: float


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _moments(values: Sequence[float]) -> Moments | None:
    if not values:
        return None
    mean = _mean(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    # Population variance; tiny negatives from roundoff clamp to zero.
    return Moments(mean=mean, sd=max(var, 0.0) ** 0.5)


@dataclass(frozen=True)
class StatsReport:
    """Corpus-level text and label statistics.

    Overlap maps are keyed by "all" plus each label; entries are None when no
    item carries that label. Agreement is the mean fraction of judgments
    matching the final label, over items that have judgments.
    """

    item_count: int
    type_count: int
    token_count: int
    premise_set_length: Moments
    hypothesis_length: Moments
    label_distribution: dict[str, float]
    overlap_full: dict[str, Moments | None]
    overlap_lemma: dict[str, Moments | None]
    agreement_overall: float | None
    agreement_by_label: dict[str, float | None]
    overlap_excluded: int


def _by_label(rows: Sequence[tuple], column: int) -> dict[str, list]:
    """`column` of every row under "all", then of each label's rows; a row
    starts with its item's label."""
    return {
        "all": [row[column] for row in rows],
        **{label: [row[column] for row in rows if row[0] == label] for label in LABELS},
    }


def corpus_stats(items: Sequence[Item]) -> StatsReport:
    if not items:
        raise EmptyCorpusError("no items to summarize")
    unlabeled = [item.id for item in items if item.gold_label is None]
    if unlabeled:
        raise ValueError(f"items without gold labels: {_quote_list(unlabeled)}")

    types: set[str] = set()
    token_count = 0
    premise_lengths = []
    hyp_lengths = []
    overlaps = []  # (label, full, lemma) per item whose overlap is defined
    agreements = []  # (label, agreement) per judged item

    for item in items:
        for sent in (*item.premises, item.hypothesis):
            types.update(sent.tokens)
            token_count += len(sent.tokens)
        premise_lengths.append(sum(len(p.tokens) for p in item.premises))
        hyp_lengths.append(len(item.hypothesis.tokens))
        try:
            full = word_overlap(item.hypothesis, item.premises, "full")
            lemma = word_overlap(item.hypothesis, item.premises, "lemma")
        except OverlapUndefinedError:
            pass
        else:
            overlaps.append((item.gold_label, full, lemma))
        if item.judgments:
            agreement = sum(j == item.gold_label for j in item.judgments) / 5
            agreements.append((item.gold_label, agreement))

    n = len(items)
    labels = [item.gold_label for item in items]
    agreement_by_key = {k: _mean(v) for k, v in _by_label(agreements, 1).items()}
    return StatsReport(
        item_count=n,
        type_count=len(types),
        token_count=token_count,
        premise_set_length=_moments(premise_lengths),
        hypothesis_length=_moments(hyp_lengths),
        label_distribution={label: labels.count(label) / n for label in LABELS},
        overlap_full={k: _moments(v) for k, v in _by_label(overlaps, 1).items()},
        overlap_lemma={k: _moments(v) for k, v in _by_label(overlaps, 2).items()},
        agreement_overall=agreement_by_key.pop("all"),
        agreement_by_label=agreement_by_key,
        overlap_excluded=n - len(overlaps),
    )


# --- file formats ----------------------------------------------------------


def _check_header(path: Path, line: str, fmt: str | None) -> str:
    """The format the header line names: `fmt`, or any known one if None."""
    try:
        header = json.loads(line)
    except (ValueError, RecursionError):  # ValueError: also an int too long to convert
        raise ValueError(f"{path}:1: bad header line {_quote(line)}") from None
    named = header.get("format") if isinstance(header, dict) else None
    expected = [fmt] if fmt else list(_RECORDS)
    if named not in expected:
        want = " or ".join(map(repr, expected))
        raise ValueError(f"{path}:1: expected format {want}, got {_quote(line)}")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}:1: unsupported version {_quote(header.get('version'))}")
    return named


def _item_record(item: Item) -> dict:
    return {
        "id": item.id,
        "scene_group_id": item.scene_group_id,
        "premises": [p.raw for p in item.premises],
        "hypothesis": item.hypothesis.raw,
        "gold_label": item.gold_label,
        "judgments": list(item.judgments),
        "pair_labels": list(item.pair_labels) if item.pair_labels is not None else None,
        "phenomenon_tags": sorted(item.phenomenon_tags),
        "split": item.split,
        "label_source": item.label_source,
    }


def _field(rec: dict, key: str, kind: type, optional: bool = False):
    """rec[key], checked to be a string (kind str) or a list of strings
    (kind list); null passes only when optional."""
    value = rec[key]
    if value is None and optional:
        return None
    if not isinstance(value, kind) or (
        kind is list and not all(isinstance(v, str) for v in value)
    ):
        want = "a list of strings" if kind is list else "a string"
        raise TypeError(f"{key!r} must be {want}{' or null' if optional else ''}")
    return value


def _item_from_record(rec: dict) -> Item:
    pair_labels = _field(rec, "pair_labels", list, optional=True)
    return Item(
        id=_field(rec, "id", str),
        scene_group_id=_field(rec, "scene_group_id", str),
        premises=tuple(normalize(p) for p in _field(rec, "premises", list)),
        hypothesis=normalize(_field(rec, "hypothesis", str)),
        gold_label=_field(rec, "gold_label", str, optional=True),
        judgments=tuple(_field(rec, "judgments", list)),
        pair_labels=tuple(pair_labels) if pair_labels is not None else None,
        phenomenon_tags=frozenset(_field(rec, "phenomenon_tags", list)),
        split=_field(rec, "split", str),
        label_source=_field(rec, "label_source", str, optional=True),
    )


def _pair_from_record(rec: dict) -> SpePair:
    return SpePair(
        id=_field(rec, "id", str),
        premise=normalize(_field(rec, "premise", str)),
        hypothesis=normalize(_field(rec, "hypothesis", str)),
        label=_field(rec, "label", str),
    )


# Record parser and noun (for messages) of each JSONL format.
_RECORDS = {
    ITEMS_FORMAT: (_item_from_record, "item"),
    SPE_FORMAT: (_pair_from_record, "pair"),
}


def _load_jsonl(path: str | Path, fmt: str | None) -> list:
    """Records of a file in format `fmt`, or in the format its header names
    if None. Checks the header, then parses each non-empty record line,
    naming the `path:lineno` of the first bad record or repeated id; an empty
    file is an empty items file unless `fmt` names another format."""
    path = Path(path)
    lines = _lines(path)
    _, header = next(lines, (1, None))
    if header is None:
        raise ValueError(f"{path}: empty {_RECORDS[fmt or ITEMS_FORMAT][1]}s file")
    parse, noun = _RECORDS[_check_header(path, header, fmt)]
    out = []
    seen: set[str] = set()
    for lineno, line in lines:
        if not line:
            continue
        try:
            record = parse(json.loads(line))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{lineno}: bad {noun} record: {exc}") from None
        if record.id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate {noun} id {_quote(record.id)}")
        seen.add(record.id)
        out.append(record)
    return out


def save_items(items: Sequence[Item], path: str | Path) -> None:
    """Header line, then one sorted-key JSON record per item."""
    header = {"format": ITEMS_FORMAT, "version": FORMAT_VERSION}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(_item_record(item), sort_keys=True) for item in items)
    _atomic_write(path, "\n".join(lines) + "\n")


def load_items(path: str | Path) -> list[Item]:
    """Read items, re-normalizing premise and hypothesis text on the way in."""
    return _load_jsonl(path, ITEMS_FORMAT)


def load_examples(path: str | Path) -> "list[Item] | list[SpePair]":
    """Load an items or single-premise-pairs file, dispatching on its header."""
    return _load_jsonl(path, None)


class _LabelTable(dict):
    """An id -> labels map read from a file; `lines` holds each id's
    `path:line`, so an error about an id can say where it came from."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: dict[str, str] = {}


def _load_label_table(path: str | Path, count: int) -> _LabelTable:
    """Read `item_id<TAB>L,L,...` lines, each holding exactly `count` labels."""
    path = Path(path)
    out = _LabelTable()
    for lineno, line in _lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected id<TAB>labels, got {_quote(line)}")
        item_id, labels_s = parts
        if item_id in out:
            raise ValueError(f"{path}:{lineno}: duplicate labels for {_quote(item_id)}")
        labels = tuple(labels_s.split(","))
        if len(labels) != count:
            raise ValueError(
                f"{path}:{lineno}: expected {count} labels, got {len(labels)}"
            )
        for label in labels:
            if label not in LABELS:
                raise ValueError(f"{path}:{lineno}: bad label {_quote(label)}")
        out[item_id] = labels
        out.lines[item_id] = f"{path}:{lineno}"
    return out


def load_decisions(path: str | Path) -> dict[str, str]:
    """Read `item_id<TAB>label` adjudication decisions."""
    decisions = _load_label_table(path, 1)
    for item_id, (label,) in decisions.items():
        decisions[item_id] = label
    return decisions
