"""End-to-end tests of the command-line pipeline, run in-process via main()."""

import argparse
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import mpe.cli as cli
import mpe.graph
from mpe.autodiff import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from mpe.cli import main
from mpe.dataset import Item, load_items, save_items
from mpe.graph import PhraseGraph
from mpe.models import load_model
from mpe.text import normalize
from mpe.training import TrainConfig, build_model, vocabulary_from_items

CAPTIONS = Path(__file__).parent / "fixtures" / "captions.tsv"
SRC = Path(__file__).resolve().parents[1] / "src"
SPE_HEADER = '{"format": "mpe-spe-items", "version": 1}'

MARKERS = {"E": "alpha", "N": "beta", "C": "gamma"}
PREMISE_TEXTS = ("A dog runs.", "A cat sits.", "A bird sings.", "A fish swims.")


def make_item(i, label, judgments=(), gold=True, pair_labels=None):
    return Item(
        id=f"it-{i:03d}",
        scene_group_id="g1",
        premises=tuple(normalize(t) for t in PREMISE_TEXTS),
        hypothesis=normalize(f"The {MARKERS[label]} thing happens."),
        gold_label=label if gold else None,
        label_source="majority" if gold else None,
        judgments=tuple(judgments),
        pair_labels=pair_labels,
        split="train",
    )


@pytest.fixture
def labeled_items_file(tmp_path):
    items = [make_item(i, label) for i, label in enumerate(["E", "N", "C"] * 4)]
    path = tmp_path / "items.jsonl"
    save_items(items, path)
    return path


def read_manifest(primary: Path) -> dict:
    return json.loads((primary.parent / (primary.name + ".manifest.json")).read_text())


class TestBuildGraph:
    def test_writes_graph_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "graph.tsv"
        code = main(["build-graph", "--captions", str(CAPTIONS), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert out.read_text().startswith("mpe-graph\t1")
        manifest = read_manifest(out)
        assert manifest["command"] == "build-graph"
        assert set(manifest["inputs"]) == {"captions"}
        assert len(manifest["inputs"]["captions"]["sha256"]) == 64
        assert manifest["outputs"] == [str(out)]
        assert "nodes" in capsys.readouterr().out

    def test_manifest_names_the_numeric_stack(self, tmp_path):
        out = tmp_path / "graph.tsv"
        assert main(["build-graph", "--captions", str(CAPTIONS), "--out", str(out)]) == 0
        versions = read_manifest(out)["versions"]
        assert versions["numpy"] == np.__version__
        assert versions["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        # A "name version" string, or null where numpy cannot report its BLAS.
        assert versions["blas"] == cli._blas()
        assert versions["blas"] is None or isinstance(versions["blas"], str)

    def test_blas_is_null_where_numpy_cannot_report_it(self, tmp_path, monkeypatch):
        def show_config(mode="stdout"):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(np, "show_config", show_config)
        out = tmp_path / "graph.tsv"
        assert main(["build-graph", "--captions", str(CAPTIONS), "--out", str(out)]) == 0
        assert read_manifest(out)["versions"]["blas"] is None

    def test_fixture_graph_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "graph.tsv"
        assert main(["build-graph", "--captions", str(CAPTIONS), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cb06052a79a064a75a18c40afa4b432801389e0a921d58d95fa001e120991bd1"
        )
        graph = PhraseGraph.load(out)
        printed = f"graph: {len(graph)} nodes, {len(graph.edges)} edges -> {out}"
        assert printed in capsys.readouterr().out

    def test_missing_captions_exits_1(self, tmp_path, capsys):
        out = tmp_path / "graph.tsv"
        code = main(
            ["build-graph", "--captions", str(tmp_path / "nope.tsv"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    def test_group_id_with_comma_exits_1_writing_nothing(self, tmp_path, capsys):
        # Supports are comma-joined in the graph file, so its reader would refuse it.
        captions = tmp_path / "captions.tsv"
        captions.write_text("g,1\t0\tA dog runs.\ng2\t0\tA cat runs.\n")
        out = tmp_path / "graph.tsv"
        assert main(["build-graph", "--captions", str(captions), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --captions {captions}: scene group id 'g,1' holds a comma, "
            "which a graph file's support field cannot hold\n"
        )
        assert list(tmp_path.iterdir()) == [captions]

    def test_build_dataset_keeps_a_group_id_with_comma(self, tmp_path):
        # Items hold the group id as a JSON string, which can hold a comma.
        captions = tmp_path / "captions.tsv"
        captions.write_text(
            "".join(f"{line[0]},{line[1:]}" for line in CAPTIONS.read_text().splitlines(True))
        )
        items = tmp_path / "items.jsonl"
        argv = ["build-dataset", "--captions", str(captions), "--out", str(items)]
        assert main([*argv, "--n-items", "8", "--seed", "42"]) == 0
        gids = [item.scene_group_id for item in load_items(items)]
        assert len(gids) == 8 and all(gid.startswith("g,") for gid in gids)


class TestBuildDataset:
    def args(self, out, n=6, seed=3):
        return [
            "build-dataset",
            "--captions",
            str(CAPTIONS),
            "--out",
            str(out),
            "--n-items",
            str(n),
            "--seed",
            str(seed),
        ]

    def test_produces_loadable_items(self, tmp_path):
        out = tmp_path / "items.jsonl"
        assert main(self.args(out)) == 0
        items = load_items(out)
        assert len(items) == 6
        manifest = read_manifest(out)
        assert manifest["config"]["seed"] == 3
        assert manifest["diagnostics"]["produced"] == 6
        assert manifest["versions"]["items_format"] == 1

    def test_same_arguments_give_identical_bytes(self, tmp_path):
        out_a = tmp_path / "a" / "items.jsonl"
        out_b = tmp_path / "b" / "items.jsonl"
        out_a.parent.mkdir()
        out_b.parent.mkdir()
        assert main(self.args(out_a)) == 0
        assert main(self.args(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "3fe62c10f2e10fb101e55126686dd148919008c0f045f17046c934bec363b9c3"),
            (2, "f8c99a4b24b7ef3880ddd60c3ee484fd034be8e0ec1f860fa8dd8a44d7b3f1ab"),
            (3, "ed274625911b4ca2424312836148adc36f0d3562c373c6510c5f6b36b9a52d05"),
        ],
    )
    def test_unrelated_items_bytes_pinned(self, tmp_path, seed, digest):
        # Every item draws its partner group from the others; the bytes pin
        # that order of rng calls.
        out = tmp_path / "items.jsonl"
        assert main(self.args(out, n=12, seed=seed) + ["--related-fraction", "0.0"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_abbreviated_flag_exits_1_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "items.jsonl"
        argv = ["--n-item" if a == "--n-items" else a for a in self.args(out)]
        assert main(argv) == 1
        assert list(tmp_path.iterdir()) == []
        assert "required: --n-items" in capsys.readouterr().err

    def test_invalid_overlap_max_exits_1(self, tmp_path, capsys):
        out = tmp_path / "items.jsonl"
        code = main(self.args(out) + ["--overlap-max", "1.5"])
        assert code == 1
        assert not out.exists()
        assert "overlap_max" in capsys.readouterr().err

    def test_never_builds_a_phrase_graph(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build-dataset built a phrase graph")

        monkeypatch.setattr(mpe.graph, "build_graph", refuse)
        monkeypatch.setattr(cli, "build_graph", refuse)
        monkeypatch.setattr(mpe.graph.PhraseGraph, "__init__", refuse)
        out = tmp_path / "items.jsonl"
        assert main(self.args(out, n=8, seed=42)) == 0
        golden = Path(__file__).parent / "fixtures" / "golden_items.jsonl"
        assert out.read_bytes() == golden.read_bytes()

    def test_bad_captions_leaves_no_output(self, tmp_path, capsys):
        captions = tmp_path / "bad.tsv"
        captions.write_text("only-one-column\n")
        out = tmp_path / "items.jsonl"
        code = main(
            [
                "build-dataset",
                "--captions",
                str(captions),
                "--out",
                str(out),
                "--n-items",
                "2",
            ]
        )
        assert code == 1
        assert not out.exists()
        assert not (tmp_path / "items.jsonl.manifest.json").exists()


@pytest.mark.parametrize("command", ["build-graph", "build-dataset"])
@pytest.mark.parametrize("content", ["", "\n\n\n"], ids=["empty", "blank-lines"])
def test_captions_without_captions_exit_1(tmp_path, capsys, command, content):
    captions = tmp_path / "captions.tsv"
    captions.write_text(content)
    argv = [command, "--captions", str(captions), "--out", str(tmp_path / "out")]
    if command == "build-dataset":
        argv += ["--n-items", "2"]
    assert main(argv) == 1
    assert f"--captions {captions}: holds no captions" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [captions]


class TestStats:
    def test_prints_summary(self, labeled_items_file, capsys):
        assert main(["stats", "--items", str(labeled_items_file)]) == 0
        out = capsys.readouterr().out
        assert "items: 12" in out
        assert "label distribution:" in out

    def test_json_output(self, labeled_items_file, tmp_path):
        report_path = tmp_path / "stats.json"
        code = main(
            ["stats", "--items", str(labeled_items_file), "--out", str(report_path)]
        )
        assert code == 0
        record = json.loads(report_path.read_text())
        assert record["item_count"] == 12
        assert read_manifest(report_path)["command"] == "stats"

    def test_unlabeled_items_exit_1(self, tmp_path, capsys):
        path = tmp_path / "items.jsonl"
        save_items([make_item(0, "E", gold=False)], path)
        assert main(["stats", "--items", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_wrong_json_type_exits_1(self, tmp_path, capsys):
        path = tmp_path / "items.jsonl"
        save_items([make_item(0, "E")], path)
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["hypothesis"] = 5
        path.write_text(f"{header}\n{json.dumps(record)}\n")
        assert main(["stats", "--items", str(path)]) == 1
        assert ":2: bad item record: 'hypothesis' must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lineno, expected", [(1, "bad header line"), (2, "bad item record")],
        ids=["header", "record"],
    )
    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, lineno, expected):
        path = tmp_path / "items.jsonl"
        save_items([make_item(0, "E")], path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = "[" * 100_000 + "]" * 100_000
        path.write_text("\n".join(lines) + "\n")
        assert main(["stats", "--items", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}: {expected}")


class TestAdjudicate:
    @pytest.fixture
    def flagged_file(self, tmp_path):
        items = [
            make_item(0, "E", judgments=("E", "E", "N", "N", "C"), gold=False),
            make_item(1, "N", judgments=("E", "E", "E", "C", "C"), gold=False),
            make_item(2, "C", judgments=("C", "C", "C", "C", "N")),
        ]
        path = tmp_path / "flagged.jsonl"
        save_items(items, path)
        return path

    def test_decisions_file(self, flagged_file, tmp_path):
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text("it-000\tN\nit-001\tE\n")
        out = tmp_path / "resolved.jsonl"
        code = main(
            [
                "adjudicate",
                "--items",
                str(flagged_file),
                "--out",
                str(out),
                "--decisions",
                str(decisions),
            ]
        )
        assert code == 0
        by_id = {item.id: item for item in load_items(out)}
        assert by_id["it-000"].gold_label == "N"
        assert by_id["it-000"].label_source == "adjudicated"
        assert by_id["it-001"].gold_label == "E"
        # The clear-majority item passes through untouched.
        assert by_id["it-002"].gold_label == "C"
        assert by_id["it-002"].label_source == "majority"
        manifest = read_manifest(out)
        assert manifest["decisions"] == {"it-000": "N", "it-001": "E"}
        assert manifest["unresolved"] == []

    def test_manifest_hashes_the_items_read_not_written(self, flagged_file, tmp_path):
        """An `--out` onto `--items` overwrites the input; the manifest still
        records the file the command read."""
        read = hashlib.sha256(flagged_file.read_bytes()).hexdigest()
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text("it-000\tN\n")
        argv = ["adjudicate", "--items", str(flagged_file), "--out", str(flagged_file),
                "--decisions", str(decisions)]
        assert main(argv) == 0
        assert hashlib.sha256(flagged_file.read_bytes()).hexdigest() != read
        assert read_manifest(flagged_file)["inputs"]["items"]["sha256"] == read

    def test_interactive_loop(self, flagged_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("x\nC\ns\n"))
        out = tmp_path / "resolved.jsonl"
        code = main(["adjudicate", "--items", str(flagged_file), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "votes E:2 N:2 C:1" in printed
        assert "premise 1: A dog runs." in printed  # raw text, not object repr
        assert "Sentence(" not in printed
        assert "hypothesis: The alpha thing happens." in printed
        assert "unrecognized answer 'x'" in printed
        by_id = {item.id: item for item in load_items(out)}
        assert by_id["it-000"].gold_label == "C"  # first answer after retry
        assert by_id["it-001"].gold_label is None  # skipped, stays unlabeled
        manifest = read_manifest(out)
        assert manifest["decisions"] == {"it-000": "C"}
        assert manifest["unresolved"] == ["it-001"]

    def test_interactive_eof_stops(self, flagged_file, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))  # immediate EOF
        out = tmp_path / "resolved.jsonl"
        assert main(["adjudicate", "--items", str(flagged_file), "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["decisions"] == {}
        assert manifest["unresolved"] == ["it-000", "it-001"]

    def test_no_flagged_items_exits_1(self, labeled_items_file, tmp_path, capsys):
        out = tmp_path / "resolved.jsonl"
        code = main(
            ["adjudicate", "--items", str(labeled_items_file), "--out", str(out)]
        )
        assert code == 1
        assert "no items need adjudication" in capsys.readouterr().err

    def test_rerun_never_reflags_adjudicated_items(self, tmp_path, monkeypatch, capsys):
        splits = {0: ("E", "E", "N", "N", "C"), 2: ("C", "C", "C", "E", "E"),
                  4: ("N", "N", "E", "E", "C")}
        items = [
            make_item(i, "E", judgments=splits.get(i, ("E",) * 5), gold=i not in splits)
            for i in range(5)
        ]
        first, second, third = (tmp_path / f"run{k}.jsonl" for k in (1, 2, 3))
        save_items(items, tmp_path / "items.jsonl")
        decisions = tmp_path / "d.tsv"
        decisions.write_text("it-000\tN\nit-004\tC\n")

        def adjudicate(items_path, out, *flags):
            argv = ["adjudicate", "--items", str(items_path), "--out", str(out)]
            return main(argv + list(flags))

        assert adjudicate(tmp_path / "items.jsonl", first, "--decisions", str(decisions)) == 0
        assert read_manifest(first)["unresolved"] == ["it-002"]
        capsys.readouterr()

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert adjudicate(first, second) == 0
        printed = capsys.readouterr().out
        assert printed.count("\nitem ") == 1 and "item it-002 " in printed
        assert printed.endswith(f"flagged 1, decided 0, unresolved 1 -> {second}\n")
        assert read_manifest(second)["unresolved"] == ["it-002"]

        assert adjudicate(first, third, "--decisions", str(decisions)) == 1
        assert capsys.readouterr().err == (
            f"error: {decisions}:1: decisions for items that do not need "
            f"adjudication: ['it-000', 'it-004'] (items: {first})\n"
        )
        assert not third.exists()

        decisions.write_text("it-002\tE\n")
        assert adjudicate(first, third, "--decisions", str(decisions)) == 0
        assert adjudicate(third, tmp_path / "run4.jsonl") == 1
        assert capsys.readouterr().err.endswith(
            f"{third}: no items need adjudication\n"
        )

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("nope-1\tE", "decisions for unknown item ids: ['nope-1']"),
            ("it-002\tE", "decisions for items that do not need adjudication: ['it-002']"),
        ],
        ids=["unknown-id", "unflagged-id"],
    )
    def test_bad_decision_id_named_at_its_line(
        self, flagged_file, tmp_path, capsys, line, expected
    ):
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text(f"it-000\tN\n{line}\n")
        out = tmp_path / "resolved.jsonl"
        argv = ["adjudicate", "--items", str(flagged_file), "--out", str(out)]
        assert main(argv + ["--decisions", str(decisions)]) == 1
        assert capsys.readouterr().err == (
            f"error: {decisions}:2: {expected} (items: {flagged_file})\n"
        )
        assert not out.exists()


class TestVote:
    def test_scores_baselines(self, tmp_path, capsys):
        items = [
            make_item(0, "E", pair_labels=("E", "E", "E", "N")),
            make_item(1, "N", pair_labels=("E", "N", "C", "N")),
            make_item(2, "C", pair_labels=("C", "C", "C", "C")),
        ]
        items_path = tmp_path / "items.jsonl"
        save_items(items, items_path)
        # The pairs file is authoritative; overwrite one entry to prove it.
        pairs_path = tmp_path / "pairs.tsv"
        pairs_path.write_text("it-000\tE,E,E,E\nit-001\tE,N,C,N\nit-002\tC,C,C,N\n")
        report_path = tmp_path / "vote.json"
        code = main(
            [
                "vote",
                "--items",
                str(items_path),
                "--pairs",
                str(pairs_path),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scored 3 items" in out
        record = json.loads(report_path.read_text())
        assert record["n_scored"] == 3
        # it-000 4/4 agree -> cat 4; it-002 3/4 -> cat 3; both majority-correct.
        assert record["majority_acc_strict"] == pytest.approx(2 / 3)

    def test_unknown_id_named_at_its_line(self, labeled_items_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("it-000\tE,E,E,E\nnope-1\tE,N,C,N\n")
        out = tmp_path / "vote.json"
        argv = ["vote", "--items", str(labeled_items_file), "--pairs", str(pairs)]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {pairs}:2: pair labels for unknown item ids: ['nope-1']"
            f" (items: {labeled_items_file})\n"
        )
        assert not out.exists()

    def test_missing_pairs_file_exits_1(self, labeled_items_file, tmp_path, capsys):
        code = main(
            [
                "vote",
                "--items",
                str(labeled_items_file),
                "--pairs",
                str(tmp_path / "missing.tsv"),
            ]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


TINY_TRAIN_FLAGS = [
    "--model",
    "lstm",
    "--epochs",
    "2",
    "--batch-size",
    "4",
    "--state-dim",
    "4",
    "--embedding-dim",
    "4",
    "--keep-prob",
    "1.0",
    "--seed",
    "0",
]


class TestTrain:
    def test_checkpoint_logs_and_manifest(self, labeled_items_file, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        code = main(
            ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
            + TINY_TRAIN_FLAGS
        )
        assert code == 0
        model = load_model(ckpt)
        assert model.architecture == "conditional-lstm"
        logs = [
            json.loads(line)
            for line in (tmp_path / "model.ckpt.logs.jsonl").read_text().splitlines()
        ]
        assert len(logs) == 2
        assert logs[0]["epoch"] == 1 and logs[0]["phase"] == "train"
        manifest = read_manifest(ckpt)
        assert manifest["config"]["model"] == "conditional-lstm"
        assert manifest["config"]["epochs"] == 2
        assert "trained conditional-lstm" in capsys.readouterr().out

    def test_preset_with_overrides(self, labeled_items_file, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code = main(
            [
                "train",
                "--items",
                str(labeled_items_file),
                "--out",
                str(ckpt),
                "--preset",
                "lstm-mpe",
                "--epochs",
                "1",
                "--state-dim",
                "4",
                "--embedding-dim",
                "4",
                "--batch-size",
                "4",
            ]
        )
        assert code == 0
        manifest = read_manifest(ckpt)
        assert manifest["config"]["state_dim"] == 4  # override wins
        assert manifest["config"]["keep_prob"] == 0.8  # preset value kept

    @pytest.fixture
    def pretrain_file(self, tmp_path):
        records = [
            {
                "id": f"sp-{i}",
                "premise": PREMISE_TEXTS[i % 4],
                "hypothesis": f"The {MARKERS[label]} thing happens.",
                "label": label,
            }
            for i, label in enumerate(["E", "N", "C"] * 2)
        ]
        path = tmp_path / "pretrain.jsonl"
        path.write_text("\n".join([SPE_HEADER, *map(json.dumps, records)]) + "\n")
        return path

    def test_pretrain_then_finetune(self, labeled_items_file, pretrain_file, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code = main(
            [
                "train",
                "--items",
                str(labeled_items_file),
                "--out",
                str(ckpt),
                "--pretrain",
                str(pretrain_file),
            ]
            + TINY_TRAIN_FLAGS
        )
        assert code == 0
        logs = [
            json.loads(line)
            for line in (tmp_path / "model.ckpt.logs.jsonl").read_text().splitlines()
        ]
        assert [log["phase"] for log in logs] == [
            "pretrain",
            "pretrain",
            "finetune",
            "finetune",
        ]
        manifest = read_manifest(ckpt)
        assert "regime" not in manifest["config"]
        assert "pretrain" in manifest["inputs"]

    @pytest.mark.parametrize(
        "pretrain, phases", [(False, ["train"]), (True, ["pretrain", "finetune"])]
    )
    def test_snli_pretrain_preset_sets_sizes_only(
        self, labeled_items_file, pretrain_file, tmp_path, pretrain, phases
    ):
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
        argv += ["--preset", "snli-pretrain", "--epochs", "1", "--state-dim", "4"]
        argv += ["--embedding-dim", "4", "--batch-size", "4"]
        if pretrain:
            argv += ["--pretrain", str(pretrain_file)]
        assert main(argv) == 0
        logs = (tmp_path / "model.ckpt.logs.jsonl").read_text().splitlines()
        assert [json.loads(line)["phase"] for line in logs] == phases

    def test_regime_flag_is_unknown(self, labeled_items_file, tmp_path, capsys):
        code = main(
            [
                "train",
                "--items",
                str(labeled_items_file),
                "--out",
                str(tmp_path / "m.ckpt"),
                "--regime",
                "single",
            ]
            + TINY_TRAIN_FLAGS
        )
        assert code == 1
        assert "unrecognized arguments: --regime" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_trainable_embeddings_needs_embeddings(
        self, labeled_items_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "m.ckpt"
        code = main(
            ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
            + TINY_TRAIN_FLAGS
            + ["--trainable-embeddings"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--trainable-embeddings" in err and "--embeddings" in err
        assert list(tmp_path.iterdir()) == [labeled_items_file]

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
    def test_bad_learning_rate_exits_1_without_checkpoint(
        self, labeled_items_file, tmp_path, capsys, rate
    ):
        ckpt = tmp_path / "m.ckpt"
        code = main(
            ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
            + TINY_TRAIN_FLAGS
            + ["--learning-rate", rate]
        )
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [labeled_items_file]

    def test_config_error_exits_1_without_checkpoint(self, labeled_items_file, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
        assert main(argv + TINY_TRAIN_FLAGS + ["--epochs", "0"]) == 1
        assert capsys.readouterr().err == "error: epochs must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == [labeled_items_file]

    def test_negative_seed_exits_1_writing_nothing(self, labeled_items_file, tmp_path, capsys):
        argv = ["train", "--items", str(labeled_items_file), "--out", str(tmp_path / "m.ckpt")]
        assert main(argv + TINY_TRAIN_FLAGS + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == [labeled_items_file]

    @pytest.mark.parametrize("flag", ["items", "dev", "pretrain"])
    def test_empty_input_exits_1_naming_flag_and_file(
        self, labeled_items_file, tmp_path, capsys, flag
    ):
        empty = tmp_path / f"empty-{flag}.jsonl"
        if flag == "pretrain":
            empty.write_text(SPE_HEADER + "\n")
        else:
            save_items([], empty)
        # A repeated --items replaces the first, so every case has items to train on.
        argv = ["train", "--items", str(labeled_items_file), "--out", str(tmp_path / "m.ckpt")]
        assert main(argv + TINY_TRAIN_FLAGS + [f"--{flag}", str(empty)]) == 1
        err = capsys.readouterr().err
        assert f"--{flag} {empty}" in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag", ["items", "dev"])
    def test_unlabeled_input_exits_1_naming_flag_and_file(
        self, labeled_items_file, tmp_path, capsys, flag
    ):
        unlabeled = tmp_path / "unlabeled.jsonl"
        save_items([make_item(0, "E"), make_item(1, "N", gold=False)], unlabeled)
        argv = ["train", "--items", str(labeled_items_file), "--out", str(tmp_path / "m.ckpt")]
        assert main(argv + TINY_TRAIN_FLAGS + [f"--{flag}", str(unlabeled)]) == 1
        assert capsys.readouterr().err == (
            f"error: --{flag} {unlabeled}: item 'it-001' has no gold label\n"
        )
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "flags, shared",
        [
            (["--out", "m.ckpt", "--logs", "m.ckpt"], "m.ckpt"),
            (["--best-out", "m2.ckpt", "--out", "m2.ckpt"], "m2.ckpt"),
            (["--out", "m.ckpt", "--logs", "m.ckpt.manifest.json"], "m.ckpt.manifest.json"),
            (["--out", "m.ckpt", "--best-out", "sub/../m.ckpt.logs.jsonl"],
             "sub/../m.ckpt.logs.jsonl"),
        ],
        ids=["logs", "best-out", "manifest", "default-logs"],
    )
    def test_outputs_on_one_path_exit_1_writing_nothing(
        self, labeled_items_file, tmp_path, capsys, monkeypatch, flags, shared
    ):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path / "run"))
        (tmp_path / "run" / "sub").mkdir(parents=True)
        argv = ["train", "--items", str(labeled_items_file), *flags, *TINY_TRAIN_FLAGS]
        assert main(argv) == 1
        shared = tmp_path / "run" / shared
        assert capsys.readouterr().err == f"error: two outputs would be written to {shared}\n"
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["sub"]

    def test_best_out_and_dev(self, labeled_items_file, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        best = tmp_path / "best.ckpt"
        code = main(
            [
                "train",
                "--items",
                str(labeled_items_file),
                "--out",
                str(ckpt),
                "--dev",
                str(labeled_items_file),
                "--best-out",
                str(best),
            ]
            + TINY_TRAIN_FLAGS
        )
        assert code == 0
        assert load_model(best).architecture == "conditional-lstm"
        logs = [
            json.loads(line)
            for line in (tmp_path / "model.ckpt.logs.jsonl").read_text().splitlines()
        ]
        assert all(log["dev_accuracy"] is not None for log in logs)

    def test_pretrained_embeddings(self, labeled_items_file, tmp_path):
        vectors_path = tmp_path / "vectors.txt"
        tokens = sorted(
            {
                tok
                for item in load_items(labeled_items_file)
                for sent in (*item.premises, item.hypothesis)
                for tok in sent.tokens
            }
        )
        lines = [
            " ".join([tok] + [f"{0.01 * (i + j):.4f}" for j in range(4)])
            for i, tok in enumerate(tokens)
        ]
        vectors_path.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "model.ckpt"
        code = main(
            [
                "train",
                "--items",
                str(labeled_items_file),
                "--out",
                str(ckpt),
                "--embeddings",
                str(vectors_path),
            ]
            + TINY_TRAIN_FLAGS
        )
        assert code == 0
        manifest = read_manifest(ckpt)
        assert manifest["config"]["trainable_embeddings"] is False
        assert "embeddings" in manifest["inputs"]
        model = load_model(ckpt)
        assert model.trainable_embeddings is False

    @pytest.fixture
    def vectors_3d(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("dog 0.1 0.2 0.3\ncat 0.3 0.2 0.1\n")
        return path

    def test_embeddings_set_manifest_width(self, labeled_items_file, vectors_3d, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
        argv += ["--embeddings", str(vectors_3d), "--epochs", "1", "--state-dim", "2"]
        assert main(argv) == 0
        assert read_manifest(ckpt)["config"]["embedding_dim"] == 3
        assert load_model(ckpt).embeddings.dim == 3

    def test_embedding_dim_unlike_vectors_exits_1(
        self, labeled_items_file, vectors_3d, tmp_path, capsys
    ):
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
        argv += ["--embeddings", str(vectors_3d), "--embedding-dim", "300"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "embedding_dim 300" in err and "3-d" in err
        assert f"--embeddings {vectors_3d}: " in err
        assert not ckpt.exists()

    def test_embeddings_of_reserved_tokens_only_exit_1_naming_file(
        self, labeled_items_file, tmp_path, capsys
    ):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("<unk> 0.1 0.2\n<sep> 0.3 0.4\n")
        argv = ["train", "--items", str(labeled_items_file), "--out", str(tmp_path / "m.ckpt")]
        assert main(argv + ["--embeddings", str(vectors)]) == 1
        assert capsys.readouterr().err == f"error: {vectors}: no vectors found\n"
        assert not (tmp_path / "m.ckpt").exists()

    # sha256 of (checkpoint, logs, stdout) of a run over vectors that hold a
    # `<unk>` line, every other item token and one token no item has.
    EMBEDDINGS_PINS = {
        "frozen": (
            "e7eaf1eab4942fb65e8f63aa22a946b80300576ed4296e5f998a871eb55657e1",
            "9e620584045c245bd6cf23d839d5cd7f0d09a45e50d5fcbad5c61936d2d3cb59",
            "eacc096afd34e88de31c2713cc04f0974c5708e9909e14adbb0037ae2e8e629e",
        ),
        "trainable": (
            "b43ef949b434ab36833a321d2451ec416016c3610bd5e04c7754890c52bc1972",
            "2d2d2c76bb8e0061d7b44df2db9d9f7daa14bb00a5e96a4e24ce16da0a41310d",
            "eacc096afd34e88de31c2713cc04f0974c5708e9909e14adbb0037ae2e8e629e",
        ),
    }

    @pytest.mark.parametrize("mode", sorted(EMBEDDINGS_PINS))
    def test_pretrained_embeddings_bytes_pinned(
        self, labeled_items_file, tmp_path, monkeypatch, capsys, mode
    ):
        tokens = vocabulary_from_items(load_items(labeled_items_file))
        lines = [
            " ".join([tok] + [f"{0.37 * np.sin(7 * i + j):.6f}" for j in range(4)])
            for i, tok in enumerate(["<unk>", *tokens[::2], "zebra"])
        ]
        (tmp_path / "vectors.txt").write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        argv = ["train", "--items", str(labeled_items_file), "--out", "model.ckpt"]
        argv += TINY_TRAIN_FLAGS + ["--keep-prob", "0.8", "--embeddings", "vectors.txt"]
        assert main(argv + ["--trainable-embeddings"] * (mode == "trainable")) == 0
        digests = tuple(
            hashlib.sha256(data).hexdigest()
            for data in (
                Path("model.ckpt").read_bytes(),
                Path("model.ckpt.logs.jsonl").read_bytes(),
                capsys.readouterr().out.encode(),
            )
        )
        assert digests == self.EMBEDDINGS_PINS[mode]

    # Each settable TrainConfig field, the flags that set it and the value,
    # unlike the default, that they give it.
    FIELD_FLAGS = {
        "model": (["--model", "se"], "sum-of-experts"),
        "state_dim": (["--state-dim", "3"], 3),
        "embedding_dim": (["--embedding-dim", "3"], 3),
        "epochs": (["--epochs", "2"], 2),
        "batch_size": (["--batch-size", "5"], 5),
        "learning_rate": (["--learning-rate", "0.01"], 0.01),
        "keep_prob": (["--keep-prob", "0.5"], 0.5),
        "seed": (["--seed", "9"], 9),
    }

    def test_field_flags_cover_train_config(self):
        # trainable_embeddings is set only with --embeddings, tested above.
        names = {f.name for f in fields(TrainConfig)} - {"trainable_embeddings"}
        assert set(self.FIELD_FLAGS) == names

    @pytest.mark.parametrize("name", sorted(FIELD_FLAGS))
    def test_flag_overrides_its_field(self, labeled_items_file, tmp_path, name):
        base = {"epochs": 1, "state_dim": 2, "embedding_dim": 2, "batch_size": 4}
        flags, value = self.FIELD_FLAGS[name]
        argv = ["train", "--items", str(labeled_items_file), "--out", str(tmp_path / "m.ckpt")]
        for field, number in base.items():
            if field != name:
                argv += [f"--{field.replace('_', '-')}", str(number)]
        assert main(argv + flags) == 0
        config = read_manifest(tmp_path / "m.ckpt")["config"]
        assert value != getattr(TrainConfig(), name)
        assert config == asdict(replace(TrainConfig(**base), **{name: value}))

    def test_malformed_items_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "items.jsonl"
        path.write_text('{"format": "who-knows", "version": 1}\n')
        code = main(
            ["train", "--items", str(path), "--out", str(tmp_path / "m.ckpt")]
            + TINY_TRAIN_FLAGS
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}:1" in err
        assert "who-knows" in err


class TestEval:
    @pytest.fixture
    def checkpoint(self, labeled_items_file, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        assert (
            main(
                ["train", "--items", str(labeled_items_file), "--out", str(ckpt)]
                + TINY_TRAIN_FLAGS
            )
            == 0
        )
        return ckpt

    def test_text_json_and_predictions(
        self, checkpoint, labeled_items_file, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        preds_path = tmp_path / "preds.tsv"
        code = main(
            [
                "eval",
                "--model",
                str(checkpoint),
                "--items",
                str(labeled_items_file),
                "--out",
                str(report_path),
                "--predictions",
                str(preds_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        record = json.loads(report_path.read_text())
        assert record["n_items"] == 12
        lines = preds_path.read_text().splitlines()
        assert len(lines) == 12
        item_id, guess = lines[0].split("\t")
        assert item_id == "it-000" and guess in ("E", "N", "C")
        manifest = read_manifest(report_path)
        assert set(manifest["inputs"]) == {"model", "items"}

    @pytest.mark.parametrize(
        "flags, shared",
        [
            (["--out", "x", "--predictions", "x"], "x"),
            (["--out", "x", "--predictions", "x.manifest.json"], "x.manifest.json"),
            (["--predictions", "p", "--out", "./p"], "p"),
        ],
        ids=["report", "manifest", "dot-slash"],
    )
    def test_outputs_on_one_path_exit_1_writing_nothing(
        self, checkpoint, labeled_items_file, tmp_path, capsys, monkeypatch, flags, shared
    ):
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(run))
        argv = ["eval", "--model", str(checkpoint), "--items", str(labeled_items_file)]
        assert main(argv + flags) == 1
        assert capsys.readouterr().err == f"error: two outputs would be written to {run / shared}\n"
        assert list(run.iterdir()) == []

    @pytest.mark.parametrize(
        "items, expected",
        [
            ([], "holds no items"),
            ([make_item(0, "E", gold=False)], "item 'it-000' has no gold label"),
        ],
        ids=["header-only", "unlabeled"],
    )
    def test_items_without_labels_exit_1_naming_file(
        self, checkpoint, tmp_path, capsys, items, expected
    ):
        path = tmp_path / "eval-items.jsonl"
        save_items(items, path)
        assert main(["eval", "--model", str(checkpoint), "--items", str(path)]) == 1
        assert capsys.readouterr().err == f"error: --items {path}: {expected}\n"

    @pytest.mark.parametrize(
        "dims",
        [(2**63 + 1,) * 3 + (7,) * 300, (2**40, 2**40), (0, 2**64 - 1)],
        ids=["overflowing-product", "huge-size", "zero-size-huge-dim"],
    )
    def test_corrupt_tensor_dims_exit_1(self, labeled_items_file, tmp_path, capsys, dims):
        """Shapes numpy cannot build are reported against the file, whatever
        the product of the dims or its overflow in 64 bits."""
        path = tmp_path / "dims.ckpt"
        path.write_bytes(
            CHECKPOINT_MAGIC
            + struct.pack("<II", CHECKPOINT_VERSION, 2)
            + b"{}"
            + struct.pack("<II", 1, 1)
            + b"w"
            + struct.pack(f"<I{len(dims)}Q", len(dims), *dims)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--model", str(path), "--items", str(labeled_items_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_missing_checkpoint_exits_1(self, labeled_items_file, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--model",
                str(tmp_path / "missing.ckpt"),
                "--items",
                str(labeled_items_file),
            ]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "meta, expected",
        [
            (b"[]", "must be a JSON object"),
            (b"{not json", "bad checkpoint meta"),
            (b"[" * 100_000 + b"]" * 100_000, "bad checkpoint meta"),
            (
                b'{"architecture": "conditional-lstm", "dim": 4, "keep_prob": 1.0,'
                b' "state_dim": 4, "trainable_embeddings": true}',
                "lacks 'vocab'",
            ),
        ],
        ids=["meta-list", "meta-not-json", "meta-deeply-nested", "meta-no-vocab"],
    )
    def test_malformed_checkpoint_meta_exits_1(
        self, labeled_items_file, tmp_path, capsys, meta, expected
    ):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(
            CHECKPOINT_MAGIC
            + struct.pack("<II", CHECKPOINT_VERSION, len(meta))
            + meta
            + struct.pack("<I", 0)
        )
        code = main(["eval", "--model", str(path), "--items", str(labeled_items_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert expected in err

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda t, m: t.pop("output.b"), "names do not match: ['output.b']"),
            (lambda t, m: t.update(extra=np.zeros(1)), "names do not match: ['extra']"),
            (
                lambda t, m: t.update({"hidden.W": np.zeros((4, 8))}),
                "tensor hidden.W has shape (4, 8), expected (8, 4)",
            ),
            # A width no machine can allocate: restore must compare shapes
            # without building a model of that size first.
            (lambda t, m: m.update(dim=10**13), ", 10000000000000)"),
            (lambda t, m: m.update(state_dim=4.0), "must be integers"),
            (lambda t, m: m.update(vocab=[*m["vocab"][:-1], "a"]), "repeats token 'a'"),
        ],
        ids=["missing-tensor", "extra-tensor", "misshaped-tensor", "huge-dim", "float-dim",
             "repeated-token"],
    )
    def test_checkpoint_tensors_not_matching_meta_exit_1(
        self, checkpoint, labeled_items_file, tmp_path, capsys, edit, expected
    ):
        tensors, meta = load_checkpoint(checkpoint)
        edit(tensors, meta)
        path = tmp_path / "edited.ckpt"
        save_checkpoint(path, tensors, meta)
        code = main(["eval", "--model", str(path), "--items", str(labeled_items_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert expected in err

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("keep_prob", 0.0, "'keep_prob' must be a number in (0, 1], got 0.0"),
            ("keep_prob", 9.8, "'keep_prob' must be a number in (0, 1], got 9.8"),
            ("keep_prob", "0.8", "'keep_prob' must be a number in (0, 1], got '0.8'"),
            ("keep_prob", True, "'keep_prob' must be a number in (0, 1], got True"),
            ("trainable_embeddings", 1, "'trainable_embeddings' must be true or false"),
            ("vocab", "abcdefghijkl", "'vocab' must be a list of strings"),
            ("vocab", list(range(12)), "'vocab' must be a list of strings"),
        ],
        ids=["keep-prob-zero", "keep-prob-above-one", "keep-prob-string",
             "keep-prob-bool", "trainable-int", "vocab-string", "vocab-ints"],
    )
    def test_bad_checkpoint_meta_value_exits_1(
        self, checkpoint, labeled_items_file, tmp_path, capsys, key, value, expected
    ):
        tensors, meta = load_checkpoint(checkpoint)
        meta[key] = value
        path = tmp_path / "edited.ckpt"
        save_checkpoint(path, tensors, meta)
        code = main(["eval", "--model", str(path), "--items", str(labeled_items_file)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: checkpoint meta {expected}\n"


@pytest.mark.parametrize("command", ["eval", "train", "stats", "vote", "adjudicate"])
def test_empty_items_file_gives_one_message(tmp_path, capsys, command):
    """Every command reads `--items` through the same loader."""
    empty = tmp_path / "items.jsonl"
    empty.write_bytes(b"")
    model = tmp_path / "model.ckpt"
    config = TrainConfig(embedding_dim=2, state_dim=2, keep_prob=1.0)
    build_model(config, ["dog"]).save(model)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("")
    out = ["--out", str(tmp_path / "out")]
    extra = {
        "eval": ["--model", str(model)],
        "train": out + TINY_TRAIN_FLAGS,
        "stats": [],
        "vote": ["--pairs", str(pairs)],
        "adjudicate": out,
    }[command]
    assert main([command, "--items", str(empty), *extra]) == 1
    assert capsys.readouterr().err == f"error: {empty}: empty items file\n"


LONG = "x" * 100_000
BUILD_GRAPH = ["build-graph", "--out", "{out}"]
VOTE = ["vote", "--items", "{items}"]
# Inputs with one 100k-character field: the argv before `--<flag> <file>`,
# the flag, the file's content, and the line the message names. `{items}` is
# a labeled items file, `{out}` an output path.
LONG_FIELD_CASES = {
    "header-not-json": (["stats"], "items", LONG, 1),
    "header-wrong-format": (["stats"], "items", json.dumps({"format": LONG}), 1),
    "captions-no-tab": (BUILD_GRAPH, "captions", LONG, 1),
    "caption-index": (BUILD_GRAPH, "captions", f"g\t{LONG}\tdog", 1),
    "caption-no-content": (BUILD_GRAPH, "captions", "g\t0\t" + "." * 100_000, 1),
    "labels-no-tab": (VOTE, "pairs", LONG, 1),
    "bad-label": (VOTE, "pairs", f"it-000\tE,E,E,{LONG}", 1),
    "duplicate-vector": (
        ["train", "--items", "{items}", "--out", "{out}", *TINY_TRAIN_FLAGS],
        "embeddings",
        f"{LONG} 1.0\n{LONG} 2.0",
        2,
    ),
}


@pytest.mark.parametrize(
    "argv, flag, content, lineno", LONG_FIELD_CASES.values(), ids=LONG_FIELD_CASES.keys()
)
def test_long_field_gives_a_short_message(
    argv, flag, content, lineno, labeled_items_file, tmp_path, capsys
):
    path = tmp_path / "input"
    path.write_text(content + "\n")
    places = {"{items}": str(labeled_items_file), "{out}": str(tmp_path / "out")}
    argv = [places.get(arg, arg) for arg in argv]
    assert main([*argv, f"--{flag}", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{lineno}: ")
    assert len(err.encode()) < 1024, err[:200]


def bad_id_cases():
    for kind, bad_id in {"empty": "", "tab": "a\tb", "cr": "a\rb", "lf": "a\nb"}.items():
        for noun in ("item", "pair"):
            yield pytest.param(noun, bad_id, id=f"{noun}-{kind}")


@pytest.mark.parametrize("noun, bad_id", bad_id_cases())
def test_id_no_tsv_can_hold_exits_1(noun, bad_id, labeled_items_file, tmp_path, capsys):
    """An id goes into TSV outputs (predictions, decisions, pair labels), so
    one that is empty or holds a TAB, CR or LF is refused where it is read."""
    if noun == "item":
        header, line = labeled_items_file.read_text().splitlines()[:2]
        record = json.loads(line)
        argv = ["stats"]
    else:
        header = SPE_HEADER
        record = {"premise": "A dog runs.", "hypothesis": "A dog moves.", "label": "E"}
        argv = ["train", "--out", str(tmp_path / "model.ckpt"), *TINY_TRAIN_FLAGS]
    path = tmp_path / "examples.jsonl"
    path.write_text(f"{header}\n{json.dumps({**record, 'id': bad_id})}\n")
    assert main([*argv, "--items", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: bad {noun} record: id {bad_id!r} is empty")


class TestGradcheck:
    def test_all_models_stdout_pinned(self, capsys):
        """`mpe gradcheck --model all` at its default sizes and seed."""
        assert main(["gradcheck", "--model", "all"]) == 0
        assert capsys.readouterr().out == (
            "attention: max rel err 1.509e-07 (worst: hypothesis_lstm.forget.Wh) [PASS]\n"
            "conditional-lstm: max rel err 1.931e-07 (worst: embeddings.main) [PASS]\n"
            "sum-of-experts: max rel err 1.412e-07 (worst: premise_lstm.input.b) [PASS]\n"
        )

    def test_all_models_pass(self, capsys):
        code = main(["gradcheck", "--dim", "4", "--state-dim", "4"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("conditional-lstm", "attention", "sum-of-experts"):
            assert f"{name}:" in out
        assert out.count("[PASS]") == 3

    def test_single_model_alias(self, capsys):
        code = main(["gradcheck", "--model", "se", "--dim", "4", "--state-dim", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 1
        assert "sum-of-experts" in out

    @pytest.mark.parametrize(
        "flag,value", [("--dim", "0"), ("--state-dim", "0"), ("--dim", "-1")]
    )
    def test_dimension_below_one_exits_1(self, capsys, flag, value):
        assert main(["gradcheck", "--model", "lstm", flag, value]) == 1
        captured = capsys.readouterr()
        assert f"{flag} must be >= 1" in captured.err
        assert "[PASS]" not in captured.out

    def test_negative_seed_exits_1(self, capsys):
        assert main(["gradcheck", "--model", "lstm", "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")


class TestCliPlumbing:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "build-dataset" in capsys.readouterr().out

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert "mpe" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["mpe", "mpe.cli"])
    def test_module_runs_main(self, module, tmp_path):
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", module, *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
                cwd=tmp_path, capture_output=True, text=True,
            )

        version = run("--version")
        assert (version.returncode, version.stdout) == (0, "mpe 0.1.0\n")
        bad = run("build-dataset", "--captions", str(CAPTIONS), "--out", "x.jsonl", "--n-item", "3")
        assert (bad.returncode, bad.stdout) == (1, "")
        assert "required: --n-items" in bad.stderr
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_parser_takes_abbreviated_flags(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert [name for name, p in sub.choices.items() if p.allow_abbrev] == []
        assert not parser.allow_abbrev

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["stats"]) == 1
        assert "--items" in capsys.readouterr().err

    def test_data_dir_resolves_relative_paths(
        self, labeled_items_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("MPE_DATA_DIR", str(labeled_items_file.parent))
        assert main(["stats", "--items", labeled_items_file.name]) == 0
        assert "items: 12" in capsys.readouterr().out

    def test_absolute_paths_ignore_data_dir(
        self, labeled_items_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("MPE_DATA_DIR", "/nonexistent")
        assert main(["stats", "--items", str(labeled_items_file)]) == 0
        assert "items: 12" in capsys.readouterr().out

    def test_unexpected_exception_exits_2(
        self, labeled_items_file, monkeypatch, capsys
    ):
        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "load_items", boom)
        assert main(["stats", "--items", str(labeled_items_file)]) == 2
        assert "internal error: RuntimeError" in capsys.readouterr().err

    def test_internal_key_error_exits_2(self, labeled_items_file, monkeypatch, capsys):
        """A KeyError that escapes a command is a bug, not a bad input: every
        loader names a bad file's `path:line` in a ValueError."""

        def boom(path):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "load_items", boom)
        assert main(["stats", "--items", str(labeled_items_file)]) == 2
        assert "internal error: KeyError" in capsys.readouterr().err


# Each file-writing run: argv with {in}/{out} directory placeholders, the
# input flags it gives, and its primary output, the manifest's anchor.
MANIFEST_RUNS = {
    "build-graph": (
        ["build-graph", "--captions", str(CAPTIONS), "--out", "{out}/graph.tsv"],
        {"captions"},
        "graph.tsv",
    ),
    "build-dataset": (
        ["build-dataset", "--captions", str(CAPTIONS), "--out", "{out}/items.jsonl",
         "--n-items", "4"],
        {"captions"},
        "items.jsonl",
    ),
    "stats": (
        ["stats", "--items", "{in}/items.jsonl", "--out", "{out}/stats.json"],
        {"items"},
        "stats.json",
    ),
    "adjudicate": (
        ["adjudicate", "--items", "{in}/flagged.jsonl", "--decisions",
         "{in}/decisions.tsv", "--out", "{out}/resolved.jsonl"],
        {"items", "decisions"},
        "resolved.jsonl",
    ),
    "vote": (
        ["vote", "--items", "{in}/items.jsonl", "--pairs", "{in}/pairs.tsv",
         "--out", "{out}/vote.json"],
        {"items", "pairs"},
        "vote.json",
    ),
    "train": (
        ["train", "--items", "{in}/items.jsonl", "--dev", "{in}/items.jsonl",
         "--pretrain", "{in}/items.jsonl", "--embeddings", "{in}/vectors.txt",
         "--out", "{out}/model.ckpt", "--best-out", "{out}/best.ckpt"]
        + TINY_TRAIN_FLAGS,
        {"items", "dev", "pretrain", "embeddings"},
        "model.ckpt",
    ),
    "eval": (
        ["eval", "--model", "{in}/model.ckpt", "--items", "{in}/items.jsonl",
         "--out", "{out}/report.json", "--predictions", "{out}/preds.tsv"],
        {"model", "items"},
        "report.json",
    ),
    "eval-predictions-only": (
        ["eval", "--model", "{in}/model.ckpt", "--items", "{in}/items.jsonl",
         "--predictions", "{out}/preds.tsv"],
        {"model", "items"},
        "preds.tsv",
    ),
}


def write_run_inputs(in_dir: Path, checkpoint: bool) -> None:
    """The input files the runs above read, and `model.ckpt` if asked."""
    in_dir.mkdir()
    items = [
        make_item(i, label, pair_labels=("E", "N", "C", label))
        for i, label in enumerate(["E", "N", "C"] * 2)
    ]
    save_items(items, in_dir / "items.jsonl")
    save_items(
        [make_item(0, "E", judgments=("E", "E", "N", "N", "C"), gold=False)],
        in_dir / "flagged.jsonl",
    )
    (in_dir / "decisions.tsv").write_text("it-000\tN\n")
    (in_dir / "pairs.tsv").write_text(
        "".join(f"{item.id}\t{','.join(item.pair_labels)}\n" for item in items)
    )
    (in_dir / "vectors.txt").write_text("dog 0.1 0.2 0.3 0.4\ncat 0.4 0.3 0.2 0.1\n")
    (in_dir / "captions.tsv").write_bytes(CAPTIONS.read_bytes())
    if checkpoint:
        argv = ["train", "--items", str(in_dir / "items.jsonl"), "--out",
                str(in_dir / "model.ckpt")]
        assert main(argv + TINY_TRAIN_FLAGS) == 0


@pytest.mark.parametrize("run", sorted(MANIFEST_RUNS))
def test_manifest_records_the_run(run, tmp_path, capsys):
    template, input_flags, primary = MANIFEST_RUNS[run]
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    write_run_inputs(in_dir, checkpoint=template[0] == "eval")
    out_dir.mkdir()
    argv = [arg.format(**{"in": in_dir, "out": out_dir}) for arg in template]

    assert main(argv) == 0, capsys.readouterr().err
    manifest_path = out_dir / f"{primary}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == argv[0]
    assert manifest["argv"] == argv
    assert set(manifest["inputs"]) == input_flags
    assert manifest["outputs"][0] == str(out_dir / primary)
    created = {p for p in out_dir.iterdir() if p != manifest_path}
    assert set(map(Path, manifest["outputs"])) == created


# An output onto an input of the same run: argv with an {in} directory
# placeholder, and the input flag and file it would overwrite.
OVERWRITE_RUNS = {
    "train-out": (
        ["train", "--items", "{in}/items.jsonl", "--out", "{in}/items.jsonl"] + TINY_TRAIN_FLAGS,
        "items", "items.jsonl",
    ),
    "train-logs": (
        ["train", "--items", "{in}/items.jsonl", "--out", "{in}/m.ckpt",
         "--logs", "{in}/items.jsonl"] + TINY_TRAIN_FLAGS,
        "items", "items.jsonl",
    ),
    "stats-out": (
        ["stats", "--items", "{in}/items.jsonl", "--out", "{in}/items.jsonl"],
        "items", "items.jsonl",
    ),
    "eval-predictions": (
        ["eval", "--model", "{in}/model.ckpt", "--items", "{in}/items.jsonl",
         "--predictions", "{in}/model.ckpt"],
        "model", "model.ckpt",
    ),
    "vote-out": (
        ["vote", "--items", "{in}/items.jsonl", "--pairs", "{in}/pairs.tsv",
         "--out", "{in}/pairs.tsv"],
        "pairs", "pairs.tsv",
    ),
    "build-dataset-out": (
        ["build-dataset", "--captions", "{in}/captions.tsv", "--out", "{in}/captions.tsv",
         "--n-items", "4"],
        "captions", "captions.tsv",
    ),
    # Only `--items` may be rewritten in place by `adjudicate`.
    "adjudicate-decisions": (
        ["adjudicate", "--items", "{in}/flagged.jsonl", "--decisions", "{in}/decisions.tsv",
         "--out", "{in}/decisions.tsv"],
        "decisions", "decisions.tsv",
    ),
}


@pytest.mark.parametrize("run", sorted(OVERWRITE_RUNS))
def test_output_onto_an_input_exits_1_leaving_it(run, tmp_path, capsys):
    template, flag, name = OVERWRITE_RUNS[run]
    in_dir = tmp_path / "in"
    write_run_inputs(in_dir, checkpoint=template[0] == "eval")
    before = {p: p.read_bytes() for p in in_dir.iterdir()}
    argv = [arg.format(**{"in": in_dir}) for arg in template]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: an output would overwrite the input --{flag} {in_dir / name}\n"
    )
    assert {p: p.read_bytes() for p in in_dir.iterdir()} == before


def empty_path_cases():
    """(run, flag) for every input and output flag each command declares."""
    parser = cli.build_parser()
    for run in ("adjudicate", "build-dataset", "build-graph", "eval", "stats", "train", "vote"):
        args = parser.parse_args(MANIFEST_RUNS[run][0])
        for name in (*args.inputs, *args.outputs):
            yield run, f"--{name.replace('_', '-')}"


@pytest.mark.parametrize("run, flag", list(empty_path_cases()))
def test_empty_path_exits_1_naming_its_flag(run, flag, tmp_path, capsys):
    """`--flag ""` is refused before any work, whether the run gives that
    flag (its value emptied) or not (the flag added)."""
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    write_run_inputs(in_dir, checkpoint=run == "eval")
    out_dir.mkdir()
    argv = [arg.format(**{"in": in_dir, "out": out_dir}) for arg in MANIFEST_RUNS[run][0]]
    if flag in argv:
        argv[argv.index(flag) + 1] = ""
    else:
        argv += [flag, ""]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag}: empty path\n"
    assert list(out_dir.iterdir()) == []
