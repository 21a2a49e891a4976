"""Seeded mutation fuzz over every input file `mpe.cli.main` reads.

Each input kind starts from a small valid file. Its mutants (byte flips,
inserted bytes, deleted runs, truncations and repeated lines, drawn from a
fixed seed) run through every command that reads that kind, beside valid
copies of the other inputs. Every run must exit 0 or 1, and every exit 1
must name the mutated file: malformed input never gives a traceback or an
error that does not say where it came from. The graph file, which no command
reads, is fuzzed through `PhraseGraph.load` the same way.

A second fuzz, with its own seed, stretches one field of each input kind to
100,000 characters (or a list of ids to 20,000 entries). Besides the rules
above, every message it draws must stay under 1 KB.
"""

import json
import random
import string

import numpy as np
import pytest

from mpe.autodiff import load_checkpoint, save_checkpoint
from mpe.cli import main
from mpe.dataset import Item, save_items
from mpe.graph import PhraseGraph
from mpe.text import normalize

SEED = 20170
MUTANTS_PER_INPUT = 48
STRETCH_SEED = 20171
STRETCH = 100_000

TINY_TRAIN = ["--model", "lstm", "--epochs", "1", "--state-dim", "2",
              "--embedding-dim", "2", "--batch-size", "4"]

# Short captions: a mutant that joins two lines stays a short caption.
CAPTIONS = "".join(
    f"g{g}\t{i}\t{text}\n"
    for g, texts in enumerate([
        ("A dog runs.", "A brown dog runs fast.", "The dog plays.",
         "A dog jumps.", "A small dog runs."),
        ("A man cooks.", "An old man grills meat.", "The man eats.",
         "A man sits.", "A tall man cooks food."),
        ("A girl swims.", "The girl dives in.", "A young girl swims.",
         "A girl smiles.", "The girl swims fast."),
    ])
    for i, text in enumerate(texts)
)

PREMISES = ("A dog runs.", "A cat sits.", "A bird sings.", "A fish swims.")
JUDGMENTS = [
    ("E", "E", "E", "E", "N"),
    ("E", "E", "E", "C", "C"),  # 3-2 between E and C: provisional, flagged
    ("N", "N", "N", "N", "C"),
    ("C", "C", "C", "N", "E"),
    ("C", "C", "C", "C", "C"),
    ("N", "N", "N", "E", "E"),
]


def write_inputs(root):
    """Valid files of every input kind, by kind."""
    items = []
    for i, judgments in enumerate(JUDGMENTS):
        label = judgments[0]
        items.append(Item(
            id=f"it-{i}",
            scene_group_id="g0",
            premises=tuple(normalize(p) for p in PREMISES),
            hypothesis=normalize(f"An animal {['runs', 'sits', 'eats'][i % 3]}."),
            gold_label=label,
            judgments=judgments,
            pair_labels=("E", "N", "C", label) if i % 2 else None,
            label_source="majority-provisional" if i == 1 else "majority",
        ))
    paths = {kind: root / name for kind, name in [
        ("captions", "captions.tsv"), ("items", "items.jsonl"),
        ("spe", "spe.jsonl"), ("decisions", "decisions.tsv"),
        ("pairs", "pairs.tsv"), ("checkpoint", "model.ckpt"),
        ("vectors", "vectors.txt"), ("graph", "graph.tsv"),
    ]}
    paths["captions"].write_text(CAPTIONS)
    save_items(items, paths["items"])
    paths["spe"].write_text(
        '{"format": "mpe-spe-items", "version": 1}\n'
        + "".join(
            f'{{"id": "p{i}", "premise": "A dog runs.", "hypothesis": "{h}",'
            f' "label": "{label}"}}\n'
            for i, (h, label) in enumerate(
                [("An animal runs.", "E"), ("A cat sleeps.", "C"), ("A dog eats.", "N")]
            )
        )
    )
    paths["decisions"].write_text("it-1\tC\n")
    paths["pairs"].write_text("it-0\tE,E,E,N\nit-2\tN,N,C,N\nit-4\tC,C,C,C\n")
    paths["vectors"].write_text("dog 0.1 0.2\nruns -0.3 0.4\nanimal 0.5 0.6\ncat 1 2\n")
    assert main(["train", "--items", str(paths["items"]),
                 "--out", str(paths["checkpoint"]), *TINY_TRAIN]) == 0
    assert main(["build-graph", "--captions", str(paths["captions"]),
                 "--out", str(paths["graph"])]) == 0
    return paths


def commands(paths, out):
    """Every command line that reads each input kind."""
    p = {kind: str(path) for kind, path in paths.items()}
    train = ["train", "--out", out, *TINY_TRAIN]
    return {
        "captions": [
            ["build-graph", "--captions", p["captions"], "--out", out],
            ["build-dataset", "--captions", p["captions"], "--out", out,
             "--n-items", "2"],
        ],
        "items": [
            ["stats", "--items", p["items"]],
            ["adjudicate", "--items", p["items"], "--decisions", p["decisions"],
             "--out", out],
            ["vote", "--items", p["items"], "--pairs", p["pairs"]],
            [*train, "--items", p["items"]],
            ["eval", "--model", p["checkpoint"], "--items", p["items"]],
        ],
        "spe": [
            [*train, "--items", p["items"], "--pretrain", p["spe"]],
            ["eval", "--model", p["checkpoint"], "--items", p["spe"]],
        ],
        "decisions": [
            ["adjudicate", "--items", p["items"], "--decisions", p["decisions"],
             "--out", out],
        ],
        "pairs": [["vote", "--items", p["items"], "--pairs", p["pairs"]]],
        "checkpoint": [["eval", "--model", p["checkpoint"], "--items", p["items"]]],
        "vectors": [[*train, "--items", p["items"], "--embeddings", p["vectors"]]],
    }


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One byte flip, inserted byte, deleted run, truncation or repeated line."""
    i = rng.randrange(len(data))
    kind = rng.choice(("flip", "insert", "delete", "truncate", "repeat"))
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
    if kind == "insert":
        byte = rng.choice(b'\t\n,"{}[]0-9 .eE\xff\x00')
        return data[:i] + bytes([byte]) + data[i:]
    if kind == "delete":
        return data[:i] + data[i + rng.randint(1, 8):]
    if kind == "truncate":
        return data[:i]
    lines = data.split(b"\n")
    j = rng.randrange(len(lines))
    return b"\n".join(lines[: j + 1] + lines[j:])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("fuzz-inputs"))


@pytest.mark.parametrize(
    "kind", ["captions", "items", "spe", "decisions", "pairs", "checkpoint", "vectors"]
)
def test_mutated_input_exits_0_or_1_naming_the_file(inputs, kind, tmp_path, capsys):
    rng = random.Random(f"{SEED}-{kind}")
    original = inputs[kind].read_bytes()
    mutant = tmp_path / inputs[kind].name
    paths = {**inputs, kind: mutant}
    failures = []
    for n in range(MUTANTS_PER_INPUT):
        data = mutate(original, rng)
        mutant.write_bytes(data)
        for argv in commands(paths, str(tmp_path / "out"))[kind]:
            code = main(argv)
            err = capsys.readouterr().err
            if code not in (0, 1) or (code == 1 and str(mutant) not in err):
                failures.append(f"mutant {n} {data!r}\n  {argv[0]}: exit {code}: {err}")
    assert not failures, "\n".join(failures)


def test_mutated_graph_loads_or_raises_value_error_naming_the_file(inputs, tmp_path):
    rng = random.Random(f"{SEED}-graph")
    original = inputs["graph"].read_bytes()
    mutant = tmp_path / inputs["graph"].name
    failures = []
    for n in range(MUTANTS_PER_INPUT):
        data = mutate(original, rng)
        mutant.write_bytes(data)
        try:
            PhraseGraph.load(mutant)
        except ValueError as exc:
            if str(mutant) not in str(exc):
                failures.append(f"mutant {n} {data!r}\n  {exc}")
        except Exception as exc:
            failures.append(f"mutant {n} {data!r}\n  {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)


# --- stretched fields -----------------------------------------------------------


def on_line(lineno, make):
    """Replace line `lineno` (from 1) with `make(line, long)`."""

    def stretch(text, long):
        lines = text.splitlines()
        lines[lineno - 1] = make(lines[lineno - 1], long)
        return "\n".join(lines) + "\n"

    return stretch


def in_record(lineno, edit):
    """Pass the JSON record on line `lineno` through `edit(record, long)`,
    which changes it in place."""

    def make(line, long):
        record = json.loads(line)
        edit(record, long)
        return json.dumps(record)

    return on_line(lineno, make)


def field(key, index=None):
    def edit(record, long):
        if index is None:
            record[key] = long
        else:
            record[key][index] = long

    return edit


def whole(make):
    """Replace the whole file with `make(long)`."""
    return lambda text, long: make(long)


def id_of_three_premises(record, long):
    record.update(id=long, premises=record["premises"][:3])


def many_unknown_ids(labels):
    return whole(lambda long: "".join(f"nope-{i}\t{labels}\n" for i in range(20_000)))


def in_meta(key, value=lambda long: long):
    def edit(tensors, meta, long):
        meta[key] = value(long)

    return edit


def stray_tensors(tensors, meta, long):
    tensors.update({f"stray.{i}": np.zeros(1) for i in range(3000)})


def long_tensor(tensors, meta, long):
    tensors[long] = np.zeros(1)


ITEMS_HEADER = '{"format": "mpe-items", "version": %s}'

# kind -> case -> stretch. A text kind's stretch maps the valid file's text
# and the long value to the new text; a checkpoint's edits its tensors and meta.
STRETCHES = {
    "captions": {
        "group-id": on_line(1, lambda line, long: f"{long}\t0\tA dog runs."),
        "caption-index": on_line(1, lambda line, long: f"g0\t{long}\tA dog runs."),
        "caption-text": on_line(1, lambda line, long: f"g0\t0\t{long}"),
        "repeated-index": whole(lambda long: f"{long}\t0\tA dog.\n{long}\t0\tA cat.\n"),
        "no-tab": on_line(1, lambda line, long: long),
    },
    "items": {
        "header-format": on_line(1, lambda line, long: json.dumps({"format": long})),
        "header-version": on_line(1, lambda line, long: ITEMS_HEADER % json.dumps(long)),
        "header-version-digits": on_line(1, lambda line, long: ITEMS_HEADER % ("1" * len(long))),
        "header-not-json": on_line(1, lambda line, long: long),
        **{
            f"item-{key}": in_record(2, field(key))
            for key in ("id", "scene_group_id", "hypothesis", "gold_label", "split",
                        "label_source")
        },
        "item-id-three-premises": in_record(2, id_of_three_premises),
        "item-premise": in_record(2, field("premises", 0)),
        "item-judgment": in_record(2, field("judgments", 0)),
        "item-pair-label": in_record(3, field("pair_labels", 0)),
        "item-tag": in_record(2, lambda record, long: record.update(phenomenon_tags=[long])),
        "record-not-json": on_line(2, lambda line, long: long),
    },
    "spe": {
        "header-version": on_line(
            1, lambda line, long: json.dumps({"format": "mpe-spe-items", "version": long})
        ),
        **{
            f"pair-{key}": in_record(2, field(key))
            for key in ("id", "premise", "hypothesis", "label")
        },
    },
    "decisions": {
        "unknown-id": whole(lambda long: f"{long}\tC\n"),
        "repeated-id": whole(lambda long: f"{long}\tC\n{long}\tC\n"),
        "label": whole(lambda long: f"it-1\t{long}\n"),
        "no-tab": whole(lambda long: long),
        "20000-unknown-ids": many_unknown_ids("C"),
    },
    "pairs": {
        "unknown-id": whole(lambda long: f"{long}\tE,E,E,E\n"),
        "repeated-id": whole(lambda long: f"{long}\tE,E,E,E\n{long}\tE,E,E,E\n"),
        "label": whole(lambda long: f"it-0\tE,E,E,{long}\n"),
        "no-tab": whole(lambda long: long),
        "20000-unknown-ids": many_unknown_ids("E,E,E,E"),
    },
    "vectors": {
        "token": whole(lambda long: f"{long} 0.1 0.2\ndog 0.3 0.4\n"),
        "repeated-token": whole(lambda long: f"{long} 0.1 0.2\n{long} 0.3 0.4\n"),
        "component": whole(lambda long: f"dog 0.1 {long}\n"),
        "no-space": whole(lambda long: long),
    },
    "checkpoint": {
        "architecture": in_meta("architecture"),
        "keep-prob": in_meta("keep_prob"),
        "dim": in_meta("dim"),
        "vocab-token": in_meta("vocab", lambda long: [long]),
        "tensor-name": long_tensor,
        "3000-stray-tensors": stray_tensors,
    },
}


# Graph files, read by `PhraseGraph.load` alone.
GRAPH_STRETCHES = {
    "header": on_line(1, lambda line, long: long),
    "version": on_line(1, lambda line, long: f"mpe-graph\t{long}"),
    "record-kind": lambda text, long: f"{text}{long}\n",
    "phrase": lambda text, long: f"{text}node\t999\t{long}  x\tg0\t1\n",
    "support": lambda text, long: f"{text}node\t999\tx\t{long},,\t1\n",
    "caption": lambda text, long: f"{text}caption\t0\t{long}\ncaption\t0\t{long}\n",
}


def stretched(*case) -> str:
    """The long value of `case`: STRETCH letters drawn from its own stream."""
    rng = random.Random("-".join(map(str, (STRETCH_SEED, *case))))
    return "".join(rng.choices(string.ascii_lowercase, k=STRETCH))


@pytest.mark.parametrize(
    "kind, case", [(kind, case) for kind in STRETCHES for case in STRETCHES[kind]]
)
def test_stretched_field_exits_0_or_1_with_a_short_message(inputs, kind, case, tmp_path, capsys):
    long = stretched(kind, case)
    stretch = STRETCHES[kind][case]
    mutant = tmp_path / inputs[kind].name
    if kind == "checkpoint":
        tensors, meta = load_checkpoint(inputs[kind])
        stretch(tensors, meta, long)
        save_checkpoint(mutant, tensors, meta)
    else:
        mutant.write_text(stretch(inputs[kind].read_text(), long))
    paths = {**inputs, kind: mutant}
    failures = []
    for argv in commands(paths, str(tmp_path / "out"))[kind]:
        code = main(argv)
        err = capsys.readouterr().err
        if (
            code not in (0, 1)
            or (code == 1 and str(mutant) not in err)
            or len(err.encode()) >= 1024
        ):
            failures.append(f"{argv[0]}: exit {code}, {len(err.encode())} B: {err[:300]}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("case", GRAPH_STRETCHES)
def test_stretched_graph_field_raises_a_short_value_error(inputs, case, tmp_path):
    mutant = tmp_path / inputs["graph"].name
    mutant.write_text(GRAPH_STRETCHES[case](inputs["graph"].read_text(), stretched("graph", case)))
    with pytest.raises(ValueError) as exc:
        PhraseGraph.load(mutant)
    assert str(mutant) in str(exc.value)
    assert len(str(exc.value).encode()) < 1024, str(exc.value)[:300]
