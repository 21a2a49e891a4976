"""The three workloads: input sizes, one pass through `mpe.cli.main`, and the
checks that what a pass wrote is correct.

Every workload runs the same pass (build-graph, build-dataset, train for each
architecture, eval for each architecture, vote), so that every metric has a
value on every workload; the input sizes decide which layers the time goes to.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from mpe import cli
from mpe.autodiff import Tape
from mpe.dataset import graph_captions, load_captions, load_items
from mpe.graph import PhraseGraph, ReductionRuleSet, apply_reductions, build_graph
from mpe.models import concat_premises, load_model
from mpe.text import word_overlap
from mpe.training import (
    PRESETS,
    build_model,
    evaluate,
    forward_logits,
    train,
    vocabulary_from_items,
)

from inputs import LENGTH_BUCKETS, Inputs, Sizes, write_inputs

# (metric suffix, training preset) for each architecture.
ARCHS = (("lstm", "lstm-mpe"), ("attn", "attn-mpe"), ("se", "se-mpe"))
OVERLAP_MAX = 0.5  # the build-dataset default the pass runs with
SAMPLED_ITEMS = 8  # items used by the per-item model checks and op counts

# Short captions for the workloads whose time should go to the models: the
# graph stages stay cheap. Both corpora give every requested item on every
# seed tried (1-30), so items/s through build-dataset does not hinge on luck.
SHORT = ((5, 20), (6, 20), (7, 20))
LONG_TAIL = ((5, 10), (6, 11), (7, 11), (8, 10), (9, 8), (10, 3), (11, 3), (12, 2), (13, 1), (14, 1))

WORKLOADS: dict[str, tuple[Sizes, str]] = {
    "corpus-longtail": (
        Sizes(groups=12, lengths=LONG_TAIL, n_items=5, train=4, dev=2, epochs=1, batch_size=4, eval=4),
        "long-tail captions up to 14 tokens, so the exponential closure and the "
        "transitive reduction, paid twice per pass, dominate; models get a small share",
    ),
    "train-mpe": (
        Sizes(groups=12, lengths=SHORT, n_items=4, train=8, dev=4, epochs=1, batch_size=4, eval=8),
        "labeled 4-premise items trained per architecture, so taped forward, backward, "
        "Adam and the accuracy passes dominate; the graph gets a small share",
    ),
    "eval-mpe": (
        Sizes(groups=12, lengths=SHORT, n_items=4, train=4, dev=2, epochs=1, batch_size=4, eval=32),
        "labeled items scored forward-only from preset-size checkpoints, so "
        "inference without backward or Adam dominates",
    ),
}


def calibration_kernel() -> float:
    """Seconds for a fixed mix of the two kinds of work the program does:
    small numpy products and elementwise ops (the models) and tuple/set
    churn (the phrase graph). It runs no program code, so a change to the
    program cannot move it; only the speed of the core can."""
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=(1, 50)), rng.normal(size=(50, 75)), np.zeros(75)
    start = time.perf_counter()
    for _ in range(30):
        h = x
        for _ in range(10):
            h = x + np.tanh(h @ w + b)[:, :50]
        phrases = {tuple(f"w{i % 13}" for i in range(k, k + 8)) for k in range(60)}
        phrases |= {p[1:] for p in phrases}
        sorted(phrases)
    return time.perf_counter() - start


class CheckFailed(Exception):
    """An output of the program is not what it should be."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Pipeline:
    """One workload's files, its pass through the CLI, and its checks.

    `attempted` counts CLI calls and checks; `failed` counts CLI calls that
    exited non-zero and checks that did not hold.
    """

    def __init__(self, root: Path, work: Path, sizes: Sizes, seed: int):
        self.root = root
        self.work = work
        self.sizes = sizes
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.graph = work / "out" / "graph.txt"
        self.items = work / "out" / "items.jsonl"
        self.vote = work / "out" / "vote.json"
        self.trained = {a: work / "out" / f"{a}.ckpt" for a, _ in ARCHS}
        self.initial = {a: work / "init" / f"{a}.ckpt" for a, _ in ARCHS}
        self.predictions = {a: work / "out" / f"{a}.predictions.tsv" for a, _ in ARCHS}
        self.inputs: Inputs | None = None
        self.loaded_graph: PhraseGraph | None = None  # build-graph's output, once loaded

    # --- set-up and the pass -----------------------------------------------

    def set_up(self) -> None:
        """Write the seeded inputs and the preset-size initial checkpoints."""
        self.inputs = write_inputs(self.seed, self.sizes, self.work / "inputs")
        (self.work / "out").mkdir(exist_ok=True)
        (self.work / "init").mkdir(exist_ok=True)
        vocab = vocabulary_from_items(load_items(self.inputs.eval))
        for arch, preset in ARCHS:
            build_model(PRESETS[preset], vocab).save(self.initial[arch])

    def run_cli(self, argv: list[str]) -> float:
        """Seconds spent in one `mpe` command; a non-zero exit is a failure."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"mpe {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
        return seconds

    def one_pass(self) -> dict[str, float]:
        """Run every stage once; seconds per stage and for the whole pass,
        and the calibration kernel's mean seconds around the pass."""
        inp, s = self.inputs, self.sizes
        kernel = calibration_kernel()
        start = time.perf_counter()
        seconds = {
            "build-graph": self.run_cli(
                ["build-graph", "--captions", str(inp.captions), "--out", str(self.graph)]
            ),
            "build-dataset": self.run_cli(
                ["build-dataset", "--captions", str(inp.captions), "--out", str(self.items),
                 "--n-items", str(s.n_items), "--seed", str(self.seed)]
            ),
        }
        for arch, preset in ARCHS:
            seconds[f"train.{arch}"] = self.run_cli(
                ["train", "--preset", preset, "--items", str(inp.train), "--dev", str(inp.dev),
                 "--epochs", str(s.epochs), "--batch-size", str(s.batch_size),
                 "--out", str(self.trained[arch])]
            )
        for arch, _ in ARCHS:
            seconds[f"eval.{arch}"] = self.run_cli(
                ["eval", "--model", str(self.initial[arch]), "--items", str(inp.eval),
                 "--predictions", str(self.predictions[arch])]
            )
        seconds["vote"] = self.run_cli(
            ["vote", "--items", str(inp.eval), "--pairs", str(inp.pairs), "--out", str(self.vote)]
        )
        seconds["pass"] = time.perf_counter() - start
        seconds["kernel"] = (kernel + calibration_kernel()) / 2
        return seconds

    def digest(self) -> str:
        """Hash of every primary output of a pass."""
        outputs = [self.graph, self.items, self.vote, *self.trained.values(), *self.predictions.values()]
        h = hashlib.sha256()
        for path in outputs:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()

    def produced_items(self) -> int:
        return len(load_items(self.items))

    # --- checks ------------------------------------------------------------

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a check that crashes has failed
            self.failed += 1
            self.errors.append(f"check {name}: {type(exc).__name__}: {exc}")

    def run_checks(self) -> None:
        self.check("golden items", self._golden)
        self.check("graph round trip", self._graph_round_trip)
        self.check("hypotheses", self._hypotheses)
        for arch, preset in ARCHS:
            self.check(f"finite losses {arch}", lambda a=arch: self._finite_losses(a))
            self.check(f"checkpoint reload {arch}", lambda a=arch, p=preset: self._reload(a, p))
            self.check(f"predictions {arch}", lambda a=arch: self._predictions(a))
        self.check("attention rows", self._attention_rows)
        self.check("sum-of-experts order", self._experts_order)
        self.check("vote", self._vote)

    def _golden(self) -> None:
        fixtures = self.root / "tests" / "fixtures"
        out = self.work / "golden.jsonl"
        self.run_cli(["build-dataset", "--captions", str(fixtures / "captions.tsv"),
                      "--out", str(out), "--n-items", "8", "--seed", "42"])
        expect(out.read_bytes() == (fixtures / "golden_items.jsonl").read_bytes(),
               "the fixture corpus no longer regenerates golden_items.jsonl")

    def _graph_round_trip(self) -> None:
        built = build_graph(graph_captions(load_captions(self.inputs.captions)))
        copy = self.work / "graph.copy.txt"
        built.save(copy)
        expect(copy.read_bytes() == self.graph.read_bytes(),
               "build-graph output differs from build_graph in process")
        loaded = PhraseGraph.load(self.graph)
        expect(loaded.nodes == built.nodes and loaded.edges == built.edges
               and loaded.caption_index == built.caption_index,
               "PhraseGraph.save -> load changed the graph")
        self.loaded_graph = loaded

    def _hypotheses(self) -> None:
        graph = self.loaded_graph or PhraseGraph.load(self.graph)
        for item in load_items(self.items):
            hid = graph.node_id_for_phrase(tuple(item.hypothesis.lemmas))
            expect(hid is not None, f"{item.id}: hypothesis is not a graph node")
            for premise in item.premises:
                pid = graph.node_for_caption(premise)
                expect(hid != pid and hid not in graph.ancestors(pid),
                       f"{item.id}: hypothesis is an ancestor of a premise")
            overlap = word_overlap(item.hypothesis, item.premises, "full")
            expect(overlap <= OVERLAP_MAX, f"{item.id}: overlap {overlap} over the cap")

    def _finite_losses(self, arch: str) -> None:
        logs = self.trained[arch].with_name(self.trained[arch].name + ".logs.jsonl")
        losses = [json.loads(line)["train_loss"] for line in logs.read_text().splitlines()]
        expect(bool(losses) and all(math.isfinite(x) for x in losses), f"losses {losses}")

    def _reload(self, arch: str, preset: str) -> None:
        config = replace(PRESETS[preset], epochs=self.sizes.epochs, batch_size=self.sizes.batch_size)
        dev = load_items(self.inputs.dev)
        reference = train(load_items(self.inputs.train), config, dev=dev).model
        loaded = load_model(self.trained[arch])
        for item in dev:
            expect(np.array_equal(forward_logits(loaded, item).values,
                                  forward_logits(reference, item).values),
                   f"{item.id}: reloaded checkpoint gives other logits than training")

    def _predictions(self, arch: str) -> None:
        items = load_items(self.inputs.eval)
        report = evaluate(load_model(self.initial[arch]), items)
        expected = [f"{item.id}\t{guess}" for item, guess in zip(items, report.predictions)]
        expect(self.predictions[arch].read_text().splitlines() == expected,
               "eval --predictions differs from evaluate in process")

    def _sampled(self) -> list:
        return load_items(self.inputs.eval)[:SAMPLED_ITEMS]

    def _attention_rows(self) -> None:
        model = load_model(self.initial["attn"])
        for item in self._sampled():
            premises = concat_premises([list(p.tokens) for p in item.premises])
            _, weights = model.forward(premises, list(item.hypothesis.tokens))
            expect(bool(np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)),
                   f"{item.id}: attention rows sum to {weights.sum(axis=1)}")

    def _experts_order(self) -> None:
        model = load_model(self.initial["se"])
        for item in self._sampled():
            premises = [list(p.tokens) for p in item.premises]
            hypothesis = list(item.hypothesis.tokens)
            base = model.forward(premises, hypothesis)[0].values.tobytes()
            for order in (premises[::-1], premises[1:] + premises[:1]):
                expect(model.forward(order, hypothesis)[0].values.tobytes() == base,
                       f"{item.id}: sum-of-experts logits depend on premise order")

    def _vote(self) -> None:
        report = json.loads(self.vote.read_text())
        expect(report["n_scored"] == self.sizes.eval and report["n_skipped"] == 0,
               f"vote scored {report['n_scored']} of {self.sizes.eval} items")

    # --- profiles for the traced run -----------------------------------------

    def closure_table(self) -> dict[str, tuple[float, float]]:
        """Median closure size and apply_reductions seconds per length bucket."""
        rules = ReductionRuleSet.default()
        found: dict[str, list[tuple[int, float]]] = {name: [] for name, _, _ in LENGTH_BUCKETS}
        for group in load_captions(self.inputs.captions):
            for caption in group.captions:
                start = time.perf_counter()
                size = len(apply_reductions(caption, rules))
                seconds = time.perf_counter() - start
                for name, low, high in LENGTH_BUCKETS:
                    if low <= len(caption.tokens) <= high:
                        found[name].append((size, seconds))
        return {
            name: (float(np.median([s for s, _ in rows])), float(np.median([t for _, t in rows])))
            if rows else (0.0, 0.0)
            for name, rows in found.items()
        }

    def tape_profile(self) -> dict[str, tuple[Counter, int, int]]:
        """Tape ops by kind over one training-mode forward of each sampled
        training item at a fixed dropout seed: (ops, items, tokens)."""
        items = load_items(self.inputs.train)[:SAMPLED_ITEMS]
        tokens = sum(len(p.tokens) for i in items for p in (*i.premises, i.hypothesis))
        profile = {}
        for arch, _ in ARCHS:
            model = load_model(self.initial[arch])
            ops: Counter = Counter()
            rng = np.random.default_rng(0)
            for item in items:
                with Tape() as tape:
                    forward_logits(model, item, train=True, rng=rng)
                ops.update(thunk.__qualname__.split(".")[0] for _, thunk in tape._entries)
            profile[arch] = (ops, len(items), tokens)
        return profile
