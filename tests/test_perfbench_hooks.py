"""The benchmark under perfbench/ patches methods of the program by name and
imports its public functions; a refactor that moves one should fail here, not
crash a benchmark run."""

import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import mpe.autodiff as ad
from mpe import cli
from mpe.dataset import load_items
from mpe.training import vocabulary_from_items

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("spans", "workloads", "inputs"):
        sys.modules.pop(name, None)


def test_traced_methods_defined_on_their_classes(perfbench_path):
    spans = importlib.import_module("spans")
    for layer, cls_name, method in spans.METHODS:
        cls = getattr(importlib.import_module(f"mpe.{layer}"), cls_name)
        assert method in cls.__dict__, f"mpe.{layer}.{cls_name}.{method}"


def test_traced_private_helpers_exist(perfbench_path):
    spans = importlib.import_module("spans")
    for layer, name in spans.PRIVATE:
        assert callable(getattr(importlib.import_module(f"mpe.{layer}"), name, None))


def test_workloads_import(perfbench_path):
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"corpus-longtail", "train-mpe", "eval-mpe"}


# One call per op in the benchmark's OPS, on small operands.
SAMPLE_CALLS = {
    "matmul": lambda m, v: ad.matmul(m, ad.transpose(m)),
    "add": lambda m, v: ad.add(m, v),
    "mul": lambda m, v: ad.mul(m, v),
    "scale": lambda m, v: ad.scale(m, 2.0),
    "sigmoid": lambda m, v: ad.sigmoid(m),
    "tanh": lambda m, v: ad.tanh(m),
    "softmax": lambda m, v: ad.softmax(m),
    "concat": lambda m, v: ad.concat([m, m]),
    "flatten": lambda m, v: ad.flatten(m),
    "transpose": lambda m, v: ad.transpose(m),
    "dropout": lambda m, v: ad.dropout(m, 0.5, np.random.default_rng(0)),
    "lookup": lambda m, v: ad.lookup(m, [1, 0]),
    "cross_entropy": lambda m, v: ad.cross_entropy(v, 1),
}


def test_profiled_ops_record_thunks_named_after_them(perfbench_path):
    """The benchmark times each op in OPS by its public name and counts taped
    ops by the qualname of the recorded thunk."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert set(run.OPS) == set(SAMPLE_CALLS)
    for op in run.OPS:
        fn = getattr(ad, op)
        assert inspect.isfunction(fn) and fn.__module__ == "mpe.autodiff", op
        m = ad.Tensor(np.arange(6.0).reshape(2, 3) / 6)
        v = ad.Tensor(np.array([0.5, -1.0, 2.0]))
        with ad.Tape() as tape:
            SAMPLE_CALLS[op](m, v)
        assert tape._entries[-1][1].__qualname__.startswith(f"{op}."), op


def run_one_pass(workload, tmp_path):
    """Set up one workload at seed 41, run one pass and its output checks."""
    workloads = importlib.import_module("workloads")
    sizes, _ = workloads.WORKLOADS[workload]
    pipeline = workloads.Pipeline(PERFBENCH.parent, tmp_path, sizes, seed=41)
    pipeline.set_up()
    pipeline.one_pass()
    pipeline.run_checks()
    assert pipeline.failed == 0, pipeline.errors
    assert pipeline.attempted > 0


def test_eval_pass_runs_clean(perfbench_path, tmp_path):
    """One pass of the eval-mpe workload and its output checks, so a change to
    any program API the benchmark calls fails here first."""
    run_one_pass("eval-mpe", tmp_path)


def test_longtail_pass_runs_clean(perfbench_path, tmp_path):
    """One pass of corpus-longtail, the workload with the longest closures, and
    its checks: graph round trip, hypotheses off premise ancestors, golden items."""
    run_one_pass("corpus-longtail", tmp_path)


# sha256 of the graph `build-graph` writes from the benchmark's seed-41
# captions, pinned when the reduction ran over graphlib's topological order.
PINNED_GRAPHS = {
    "corpus-longtail": "f1a59b34bc6f0b2d86a2eaabb8ac0d3e0cde8855b8b8c3a0ee2c2b9d6ac8610a",
    "train-mpe": "5e2156a8f4341fedac8af1fa9fdab68d28153f7786a9a6ee6d3955026314e143",
}


@pytest.mark.parametrize("workload", sorted(PINNED_GRAPHS))
def test_benchmark_graph_bytes_pinned(perfbench_path, tmp_path, workload):
    workloads = importlib.import_module("workloads")
    inputs = importlib.import_module("inputs")
    sizes, _ = workloads.WORKLOADS[workload]
    captions = inputs.write_inputs(41, sizes, tmp_path).captions
    out = tmp_path / "graph.tsv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["build-graph", "--captions", str(captions), "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_GRAPHS[workload]


# sha256 of the items file and of the manifest's diagnostics (JSON with sorted
# keys) that `build-dataset` writes from the benchmark's seed-41 captions with
# its n_items and seed 41, pinned when items were still drawn from a phrase graph.
PINNED_DATASETS = {
    "corpus-longtail": (
        "b760e10609563e78a111b8ab1e74434a14d2ec0e263d3ab79c814a1891f03265",
        "1157f889596f5d00da1dda205a6e3c94b6c2250649b17e2f3f81ee28ed14b7c7",
    ),
    "train-mpe": (
        "806f5bffc25ac7de15b421fc5f214e06307871d2e00db8befd120e0b6fac5e50",
        "4c4d99f73af85ef7ddbfda8fed2ddf00a32e04088fd0ffbc96ec9fe6c6598db3",
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED_DATASETS))
def test_benchmark_dataset_bytes_pinned(perfbench_path, tmp_path, workload):
    workloads = importlib.import_module("workloads")
    inputs = importlib.import_module("inputs")
    sizes, _ = workloads.WORKLOADS[workload]
    captions = inputs.write_inputs(41, sizes, tmp_path).captions
    out = tmp_path / "items.jsonl"
    argv = ["build-dataset", "--captions", str(captions), "--out", str(out),
            "--n-items", str(sizes.n_items), "--seed", "41"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    diagnostics = json.dumps(manifest["diagnostics"], sort_keys=True).encode("utf-8")
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(diagnostics).hexdigest(),
    ) == PINNED_DATASETS[workload]


# sha256 of the preset-size initial checkpoints `Pipeline.set_up` writes for
# eval-mpe at seed 41: they pin the draw order, every shape and name, and
# checkpoint format v1.
PINNED_CHECKPOINTS = {
    "attn": "83e6939420bd24035ed790a0b90992418a6bbc375a5233d6c7baf03d36e08b95",
    "lstm": "3ae985fa57c267df57b03458b04a4acfd258a836b3e214c697d56c0aeabb168a",
    "se": "fa1fe4ba8f787b36fa3bf704b2a817a5506b2073dadbf0e8b203e1040e58c2d2",
}


def test_benchmark_initial_checkpoint_bytes_pinned(perfbench_path, tmp_path):
    workloads = importlib.import_module("workloads")
    sizes, _ = workloads.WORKLOADS["eval-mpe"]
    pipeline = workloads.Pipeline(PERFBENCH.parent, tmp_path, sizes, seed=41)
    pipeline.set_up()
    assert {
        arch: hashlib.sha256(path.read_bytes()).hexdigest()
        for arch, path in pipeline.initial.items()
    } == PINNED_CHECKPOINTS


# sha256 of the checkpoint `mpe train` writes on the benchmark's train-mpe
# seed-41 inputs with `Pipeline.one_pass`'s argv: for each preset, and for
# lstm-mpe from 3-d vectors of every other training token, frozen and
# trainable. They pin the path from flags through `TrainConfig` and
# `build_model` to the trained weights. The bits of a trained model depend on
# the BLAS thread count; these are with the one thread conftest.py pins.
PINNED_TRAINED = {
    "attn-mpe": "2382c1d6e505f0f71483d57111fd7f9ac80c92b8a3c0e30158512bf069409ab9",
    "lstm-mpe": "e52c2f4a3cab8678a8cb9d840a6e288eb2710085e5f0602053fe360d434fd581",
    "se-mpe": "11280421a2d6c69178f4ab2fc3f725deb8c1fc3ac279e45897ef5b4d670ba46b",
    "vectors-frozen": "825125777eedc4db43ef155148746c4c947967b4b4696a49d305ed21dd8e3276",
    "vectors-trainable": "92f52eeaca1024796f54816824fb32aa07815582ba38c70a2939437df96d7eba",
}


@pytest.mark.parametrize("run", sorted(PINNED_TRAINED))
def test_benchmark_trained_checkpoint_bytes_pinned(perfbench_path, tmp_path, run):
    workloads = importlib.import_module("workloads")
    inputs = importlib.import_module("inputs")
    sizes, _ = workloads.WORKLOADS["train-mpe"]
    files = inputs.write_inputs(41, sizes, tmp_path)
    out = tmp_path / "model.ckpt"
    preset = "lstm-mpe" if run.startswith("vectors") else run
    argv = ["train", "--preset", preset, "--items", str(files.train), "--dev", str(files.dev),
            "--epochs", str(sizes.epochs), "--batch-size", str(sizes.batch_size),
            "--out", str(out)]
    if run.startswith("vectors"):
        vocab = vocabulary_from_items(load_items(files.train))
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("".join(
            f"{token} {i % 7 / 10} {-(i % 5) / 10} 0.25\n" for i, token in enumerate(vocab[::2])
        ))
        argv += ["--embeddings", str(vectors)]
        if run == "vectors-trainable":
            argv.append("--trainable-embeddings")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TRAINED[run]
