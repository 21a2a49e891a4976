"""Seeded synthetic inputs: a caption corpus and labeled item files.

Everything is drawn from `random.Random(seed)`; the program under test only
ever sees the files written here. Captions are built from fixed templates per
token length, filled with words whose reduction behaviour is uniform (every
noun has exactly one hypernym, no verb or noun is in a closed-class lexicon,
no content word repeats inside a caption). The closure size of a caption,
and so its graph cost, therefore depends on its length and not on the seed;
the seed only changes which words fill the slots.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# Nouns by their single hypernym. Subjects come from the first two classes,
# prepositional-phrase objects from the rest, one class per phrase, so no
# two nouns in a caption share a hypernym.
SUBJECTS = {
    "person": "man woman doctor nurse farmer teacher student soldier vendor "
    "tourist worker artist athlete performer rider driver waiter shopper".split(),
    "animal": "dog cat horse cow goat pig sheep rabbit bear lion tiger zebra "
    "giraffe elephant monkey deer fox camel donkey turtle".split(),
}
OBJECTS = {
    "furniture": "bench table chair sofa stool shelf bed cabinet".split(),
    "vehicle": "car bus truck van boat train tractor wagon".split(),
    "building": "house barn hut shed school church hotel library".split(),
    "container": "bag basket bottle bowl box bucket cup jar".split(),
    "instrument": "guitar piano drum violin flute banjo".split(),
    "plant": "tree bush flower grass vine fern".split(),
}
VERBS = "runs walks sits stands jumps plays looks waits rests smiles reads sleeps".split()
ADJECTIVES = "red blue green yellow black white brown small big little young old tall wet dirty happy".split()
DETERMINERS = "a the this that some".split()
PREPOSITIONS = "on in near behind under beside across along past inside".split()
TAGS = ("quantifier", "hypernym", "negation", "count", "location")
LABELS = ("E", "N", "C")

# Premise lengths of every labeled item: realistic 5-9 token captions, the
# same multiset for every item so that each item costs the models the same.
ITEM_PREMISE_LENGTHS = (6, 7, 8, 9)
HYPOTHESIS_TOKENS = 3
# At 16 tokens and more the current closure exhausts an 8 GB machine; the cap
# hides that defect rather than fixing it (README, "Caption-length cap").
MAX_CAPTION_TOKENS = 14
LENGTH_BUCKETS = (("len05-08", 5, 8), ("len09-11", 9, 11), ("len12-up", 12, MAX_CAPTION_TOKENS))


@dataclass(frozen=True)
class Sizes:
    """How much input one workload gets; all counts are per pass."""

    groups: int  # caption groups of five captions each
    lengths: tuple[tuple[int, int], ...]  # (tokens, caption count) pairs
    n_items: int  # items requested from build-dataset
    train: int  # labeled training items per architecture
    dev: int
    epochs: int
    batch_size: int
    eval: int  # labeled evaluation items per architecture


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus the properties worth recording."""

    captions: Path
    train: Path
    dev: Path
    eval: Path
    pairs: Path
    caption_count: int
    length_histogram: dict[int, int]
    tokens_per_item: int


def _caption(rng: random.Random, tokens: int, subject: str, verb: str, objects: list[str]) -> str:
    if not 5 <= tokens <= MAX_CAPTION_TOKENS:
        raise ValueError(f"caption length {tokens} outside 5..{MAX_CAPTION_TOKENS}")
    n_pp = (tokens - 2) // 4
    n_adj = tokens - 3 - 3 * n_pp
    per_np = [n_adj // (n_pp + 1) + (i < n_adj % (n_pp + 1)) for i in range(n_pp + 1)]
    adjectives = iter(rng.sample(ADJECTIVES, n_adj))
    preps = rng.sample(PREPOSITIONS, n_pp)

    def noun_phrase(count: int, noun: str) -> list[str]:
        return [rng.choice(DETERMINERS)] + [next(adjectives) for _ in range(count)] + [noun]

    words = noun_phrase(per_np[0], subject) + [verb]
    for prep, count, noun in zip(preps, per_np[1:], objects):
        words += [prep] + noun_phrase(count, noun)
    return " ".join(words).capitalize() + "."


class _Scenes:
    """Scene groups: one subject class, verb and set of places per group."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def group(self) -> tuple[list[str], str, list[list[str]]]:
        rng = self.rng
        subjects = rng.sample(SUBJECTS[rng.choice(sorted(SUBJECTS))], 3)
        verb = rng.choice(VERBS)
        classes = rng.sample(sorted(OBJECTS), 3)
        places = [rng.sample(OBJECTS[c], 2) for c in classes]
        return subjects, verb, places

    def caption(self, tokens: int, subjects, verb, places) -> str:
        rng = self.rng
        return _caption(rng, tokens, rng.choice(subjects), verb, [rng.choice(p) for p in places])


def _write_items(path: Path, records: list[dict]) -> None:
    lines = [json.dumps({"format": "mpe-items", "version": 1}, sort_keys=True)]
    lines += [json.dumps(r, sort_keys=True) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _labeled_items(scenes: _Scenes, count: int, split: str) -> list[dict]:
    rng = scenes.rng
    records = []
    for i in range(count):
        subjects, verb, places = scenes.group()
        lengths = list(ITEM_PREMISE_LENGTHS)
        rng.shuffle(lengths)
        premises = [scenes.caption(n, subjects, verb, places) for n in lengths]
        hypothesis = f"{rng.choice(DETERMINERS)} {rng.choice(subjects)} {rng.choice(VERBS)}"
        records.append(
            {
                "id": f"{split}-{i:05d}",
                "scene_group_id": f"s{i:05d}",
                "premises": premises,
                "hypothesis": hypothesis,
                "gold_label": rng.choice(LABELS),
                "judgments": [],
                "pair_labels": [rng.choice(LABELS) for _ in premises],
                "phenomenon_tags": sorted(rng.sample(TAGS, rng.randint(0, 2))),
                "split": split,
                "label_source": None,
            }
        )
    return records


def write_inputs(seed: int, sizes: Sizes, out_dir: Path) -> Inputs:
    """Write the corpus, train/dev/eval items and pair labels for one seed."""
    rng = random.Random(seed)
    scenes = _Scenes(rng)
    out_dir.mkdir(parents=True, exist_ok=True)

    lengths = [n for n, count in sizes.lengths for _ in range(count)]
    if len(lengths) != 5 * sizes.groups:
        raise ValueError(f"{len(lengths)} caption lengths for {sizes.groups} groups of 5")
    rng.shuffle(lengths)
    rows = []
    for g in range(sizes.groups):
        scene = scenes.group()
        for idx in range(5):
            rows.append(f"g{g:04d}\t{idx}\t{scenes.caption(lengths[5 * g + idx], *scene)}")
    captions = out_dir / "captions.tsv"
    captions.write_text("\n".join(rows) + "\n", encoding="utf-8")

    paths = {name: out_dir / f"{name}.jsonl" for name in ("train", "dev", "eval")}
    for name, count in (("train", sizes.train), ("dev", sizes.dev), ("eval", sizes.eval)):
        records = _labeled_items(scenes, count, {"eval": "test"}.get(name, name))
        _write_items(paths[name], records)
        if name == "eval":
            pairs = out_dir / "pairs.tsv"
            pairs.write_text(
                "".join(f"{r['id']}\t{','.join(r['pair_labels'])}\n" for r in records),
                encoding="utf-8",
            )
    return Inputs(
        captions=captions,
        pairs=pairs,
        caption_count=len(rows),
        length_histogram=dict(sorted(Counter(lengths).items())),
        tokens_per_item=sum(ITEM_PREMISE_LENGTHS) + HYPOTHESIS_TOKENS,
        **paths,
    )
