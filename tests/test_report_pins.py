"""Byte pins of every report the CLI writes: `stats`, `vote` and `eval`.

The fixture is `tests/fixtures/golden_items.jsonl` with seeded judgments
(every item gets a gold label), zero to two phenomenon tags and pair labels
on every item; a second file drops one item's pair labels, and a small
single-premise pairs file is cut from the first. A tiny model is trained on
the first file and evaluated on all three. Each JSON report, the predictions
file, the training log and each stdout is pinned by its sha256 (`train`'s
stdout names its output path, so it is not pinned)."""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

from mpe.cli import main
from mpe.dataset import attach_judgments, load_items, save_items

GOLDEN = Path(__file__).parent / "fixtures" / "golden_items.jsonl"
SPE_HEADER = '{"format": "mpe-spe-items", "version": 1}'
SEED = 23

# Five-way votes that each reduce to a label; the 3-2 E/C one is provisional.
VOTE_PATTERNS = (
    ("E", "E", "E", "E", "E"),
    ("E", "E", "E", "N", "C"),
    ("N", "N", "N", "E", "C"),
    ("C", "C", "C", "C", "N"),
    ("E", "E", "E", "C", "C"),
    ("C", "C", "C", "N", "N"),
)
TAGS = ("negation", "quantifier", "gender", "count")
TRAIN_FLAGS = [
    "--model", "lstm", "--epochs", "6", "--batch-size", "4", "--state-dim", "4",
    "--embedding-dim", "4", "--learning-rate", "0.05", "--keep-prob", "1.0",
    "--seed", "0",
]  # fmt: skip

PINNED_REPORTS = {
    "stats.json": "487313c294fe38dddeb14f4e1b34d87e7b738997fe02dbf6b99999c97c84766b",
    "stats.stdout": "1f9e4c71d6db692506622afa52b4288172c4b34f56efea3633c7724e79654639",
    "stats-gap.json": "487313c294fe38dddeb14f4e1b34d87e7b738997fe02dbf6b99999c97c84766b",
    "stats-gap.stdout": "1f9e4c71d6db692506622afa52b4288172c4b34f56efea3633c7724e79654639",
    "vote.json": "84b7a3a56df8ec430f505a93a5b5bc94ce3110c79d2aa2399ab330d6eeb99813",
    "vote.stdout": "4de9c16a8724da744344aee7f474b3a9e5e9b1a69da171f44245afe608b96511",
    "vote-gap.json": "e8dc1695d7018b32bdc7370d933b45722f0990a9310655ba270f602f2e75a98b",
    "vote-gap.stdout": "3f37eb6ebafa4b50171f987427b435976df972da9c929ea20788e745304c314a",
    "model.ckpt.logs.jsonl": "eb62391d659e41f04a99cebefbab481d78a7de1ac5bce1b4a5219f621493b1fb",
    "eval.json": "c0c863f5b7f272c0e39350d7ac2b7e22cc3cf41525ac08abf1f6f0eaa4dff850",
    "eval.stdout": "ae33493895e0b8377dc2b0168a2a93365de58ce8d1068a80546af84cc9b1811a",
    "eval.tsv": "c6454bb65352ce4304f6ceb9b4d0aae8ca560df9e86676e6ae7d26d9226b0912",
    "eval-gap.json": "6f84b74b346d8731620d43abe8e5df663c613f788b6fd5375379038b571bf759",
    "eval-gap.stdout": "98db13ae32480c4525538d363f3050de0d9d62b494d570d1e8c3d7bbb1029d27",
    "eval-gap.tsv": "c6454bb65352ce4304f6ceb9b4d0aae8ca560df9e86676e6ae7d26d9226b0912",
    "eval-spe.json": "2b0a259610bc8ced5d99eac5b5ffd0c3206f3bd76df2733197059e593b569481",
    "eval-spe.stdout": "fab2cf8ea49df9999a35a4370ad83c89890d428055ca863abca551331b142a25",
    "eval-spe.tsv": "9548db31f21bc015bf46d00163215f76398b702e3ff36a737bf640c53ff9b25b",
}


def write_fixture(tmp_path: Path) -> dict[str, Path]:
    """The items file with pair labels everywhere (`full`), the one where one
    item has none (`gap`), the matching pair-label tables, and `spe`."""
    rng = random.Random(SEED)
    items = load_items(GOLDEN)
    judgments = {item.id: rng.choice(VOTE_PATTERNS) for item in items}
    items = [
        replace(
            item,
            phenomenon_tags=frozenset(rng.sample(TAGS, rng.randint(0, 2))),
            # Each pair agrees with the item with probability about 0.7.
            pair_labels=tuple(
                item.gold_label if rng.random() < 0.55 else rng.choice("ENC")
                for _ in range(4)
            ),
        )
        for item in attach_judgments(items, judgments)
    ]
    assert all(item.gold_label for item in items)
    gap = [*items[:3], replace(items[3], pair_labels=None), *items[4:]]
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("full", "gap")}
    save_items(items, paths["full"])
    save_items(gap, paths["gap"])
    for name, subset in (("full", items), ("gap", gap)):
        paths[f"{name}-pairs"] = tmp_path / f"{name}.pairs.tsv"
        paths[f"{name}-pairs"].write_text(
            "".join(
                f"{item.id}\t{','.join(item.pair_labels)}\n"
                for item in subset
                if item.pair_labels is not None
            )
        )
    records = [
        {
            "id": f"{item.id}-p{k}",
            "premise": item.premises[k].raw,
            "hypothesis": item.hypothesis.raw,
            "label": item.pair_labels[k],
        }
        for item in items
        for k in (0, 2)
    ]
    paths["spe"] = tmp_path / "spe.jsonl"
    paths["spe"].write_text("\n".join([SPE_HEADER, *map(json.dumps, records)]) + "\n")
    return paths


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(tmp_path: Path, capsys) -> dict[str, str]:
    paths = write_fixture(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    digests: dict[str, str] = {}

    def run(output: str, *argv: str) -> None:
        """Run `argv --out out/<output>`; keep its stdout as `<stem>.stdout`."""
        assert main([*argv, "--out", str(out / output)]) == 0
        stem = output.split(".")[0]
        digests[f"{stem}.stdout"] = sha256(capsys.readouterr().out.encode())

    for suffix, key in (("", "full"), ("-gap", "gap")):
        items = str(paths[key])
        run(f"stats{suffix}.json", "stats", "--items", items)
        pairs = str(paths[f"{key}-pairs"])
        run(f"vote{suffix}.json", "vote", "--items", items, "--pairs", pairs)
    run("model.ckpt", "train", "--items", str(paths["full"]), *TRAIN_FLAGS)
    del digests["model.stdout"]  # it names the checkpoint's path
    for suffix, key in (("", "full"), ("-gap", "gap"), ("-spe", "spe")):
        run(
            f"eval{suffix}.json", "eval", "--model", str(out / "model.ckpt"),
            "--items", str(paths[key]), "--predictions", str(out / f"eval{suffix}.tsv"),
        )  # fmt: skip
    for name in PINNED_REPORTS:
        if not name.endswith(".stdout"):
            digests[name] = sha256((out / name).read_bytes())
    return digests


def test_fixture_covers_every_breakdown(tmp_path):
    """Zero to two tags, agreement categories on both sides of the strict
    majority, both label sources, and one item without pair labels."""
    paths = write_fixture(tmp_path)
    full, gap = load_items(paths["full"]), load_items(paths["gap"])
    assert {len(item.phenomenon_tags) for item in full} == {0, 1, 2}
    categories = {sum(p == item.gold_label for p in item.pair_labels) for item in full}
    assert categories == {0, 2, 3, 4}
    assert [item.pair_labels is None for item in gap].count(True) == 1
    assert all(item.pair_labels is not None for item in full)
    assert {item.label_source for item in full} == {"majority", "majority-provisional"}


def test_report_bytes_pinned(tmp_path, capsys):
    assert report_digests(tmp_path, capsys) == PINNED_REPORTS
