"""Seeded mutation fuzz over every input file `mpe.cli.main` reads.

Each input kind starts from a small valid file. Its mutants (byte flips,
inserted bytes, deleted runs, truncations and repeated lines, drawn from a
fixed seed) run through every command that reads that kind, beside valid
copies of the other inputs. Every run must exit 0 or 1, and every exit 1
must name the mutated file: malformed input never gives a traceback or an
error that does not say where it came from. The graph file, which no command
reads, is fuzzed through `PhraseGraph.load` the same way.
"""

import random

import pytest

from mpe.cli import main
from mpe.dataset import Item, save_items
from mpe.graph import PhraseGraph
from mpe.text import normalize

SEED = 20170
MUTANTS_PER_INPUT = 48

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
