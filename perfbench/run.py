"""Seeded benchmark of the mpe pipeline, driven through `mpe.cli.main`.

    python3 perfbench/run.py --workload corpus-longtail --seed 1 --seconds 30 --trace 0

Run from anywhere inside a full checkout; the package is imported from the
checkout's `src/`. Writes only under `.bench_work/` in the checkout. Prints a
report (inputs, environment, every metric with its unit, failures) and, as
the last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones, measured untraced and
scaled by a calibration kernel; with `--trace 1` they are the per-layer ones,
from traced passes alternating with untraced ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from inputs import LENGTH_BUCKETS

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: a single closed-loop client on small matrices; more
# threads would only add scheduling noise.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
# Seconds the calibration kernel takes on the reference core; times are
# reported as if measured on it (see README, "Statistics and noise").
KERNEL_REFERENCE_S = 0.006
OPS = ("matmul", "add", "mul", "scale", "sigmoid", "tanh", "softmax", "concat",
       "flatten", "transpose", "dropout", "lookup", "cross_entropy")
TAPE_OPS_BY_ARCH = ("matmul", "add", "sigmoid", "tanh")
ARCH_CLASSES = {"lstm": "ConditionalLstmModel", "attn": "AttentionModel", "se": "SumOfExpertsModel"}
ARCH_NAMES = {"lstm": "conditional-lstm", "attn": "attention", "se": "sum-of-experts"}
COMMANDS = ("build-graph", "build-dataset", "train", "eval", "vote")
BUCKETS = tuple(name for name, _, _ in LENGTH_BUCKETS)
ARCH_KEYS = ("lstm", "attn", "se")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "graph_captions_per_s": "captions/s",
    "dataset_items_per_s": "items/s",
    **{f"train_items_per_s.{a}": "items/s" for a in ARCH_KEYS},
    **{f"eval_items_per_s.{a}": "items/s" for a in ARCH_KEYS},
}

PER_LAYER = {
    "text.normalize_calls": "count",
    "text.normalize_s": "s",
    "text.word_overlap_calls": "count",
    "text.word_overlap_s": "s",
    "graph.build_graph_calls": "count",
    "graph.build_graph_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    **{f"graph.closure_phrases.{b}": "count" for b in BUCKETS},
    **{f"graph.apply_reductions_s.{b}": "s" for b in BUCKETS},
    "graph.ancestors_calls": "count",
    "graph.ancestors_s": "s",
    "graph.ancestors_distinct_ratio": "ratio",
    "graph.simplify_hypothesis_calls": "count",
    "graph.simplify_hypothesis_s": "s",
    "graph.save_s": "s",
    "graph.save_bytes": "bytes",
    "dataset.load_captions_s": "s",
    "dataset.generate_items_s": "s",
    "dataset.candidate_accept_ratio": "ratio",
    "dataset.rejected.support": "count",
    "dataset.rejected.overlap": "count",
    "dataset.rejected.no_content": "count",
    "dataset.shortfall": "count",
    "dataset.load_items_s": "s",
    "voting.score_baselines_s": "s",
    "voting.items": "count",
    **{f"autodiff.tape_ops_per_item.{a}": "count" for a in ARCH_KEYS},
    **{f"autodiff.tape_ops_per_token.{a}": "ops/token" for a in ARCH_KEYS},
    **{f"autodiff.tape_ops.{a}.{op}": "count" for a in ARCH_KEYS for op in TAPE_OPS_BY_ARCH},
    **{f"autodiff.op_calls.{op}": "count" for op in OPS},
    **{f"autodiff.op_s.{op}": "s" for op in OPS},
    "autodiff.backward_calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.adam_steps": "count",
    "autodiff.adam_step_s": "s",
    "autodiff.checkpoint_save_s": "s",
    "autodiff.checkpoint_load_s": "s",
    "autodiff.checkpoint_bytes": "bytes",
    **{f"models.forward_ms_per_item.{a}.{m}": "ms" for a in ARCH_KEYS for m in ("taped", "untaped")},
    "models.lstm_step_calls": "count",
    "models.lstm_step_us": "us",
    "models.embed_s": "s",
    "models.tokens_per_item": "count",
    **{f"training.{k}.{a}": "s" for k in ("epoch_s", "accuracy_pass_s", "self_s", "evaluate_s")
       for a in ARCH_KEYS},
    **{f"cli.main_s.{c}": "s" for c in COMMANDS},
    **{f"cli.self_s.{c}": "s" for c in COMMANDS},
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "cli.bytes_hashed": "bytes",
    **{f"layer.self_s.{layer}": "s" for layer in
       ("text", "graph", "dataset", "voting", "autodiff", "models", "training", "cli")},
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


def _median(values) -> float:
    return float(statistics.median(values))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes, setup_times, peak_rss_mb, pipeline, produced, scaled=True) -> dict[str, float]:
    """Every time is a median: over the set-up repeats for `setup_s`, over
    the passes for a stage. Scaled, each time is first divided by the
    calibration kernel's seconds around it and multiplied by
    KERNEL_REFERENCE_S; the caller passes set-up times already scaled."""
    sizes = pipeline.sizes

    def seconds(stage: str) -> float:
        if scaled:
            return KERNEL_REFERENCE_S * _median(p[stage] / p["kernel"] for p in passes)
        return _median(p[stage] for p in passes)

    metrics = {
        "setup_s": _median(setup_times),
        "run_s": seconds("pass"),
        "peak_rss_mb": peak_rss_mb,
        "graph_captions_per_s": pipeline.inputs.caption_count / seconds("build-graph"),
        "dataset_items_per_s": produced / seconds("build-dataset"),
    }
    for a in ARCH_KEYS:
        metrics[f"train_items_per_s.{a}"] = sizes.train * sizes.epochs / seconds(f"train.{a}")
        metrics[f"eval_items_per_s.{a}"] = sizes.eval / seconds(f"eval.{a}")
    return metrics


def per_layer(tracer, traced, untraced, pipeline) -> dict[str, float]:
    from mpe.graph import PhraseGraph
    from spans import aggregate

    agg = aggregate(tracer)
    n = len(traced)
    graph = pipeline.loaded_graph or PhraseGraph.load(pipeline.graph)
    calls, incl, own = agg["calls"], agg["inclusive"], agg["self"]

    def c(name):
        return calls.get(name, 0.0) / n

    def s(name):
        return incl.get(name, 0.0) / n

    counters = tracer.counters
    diag = tracer.diagnostics
    rejected = {k: getattr(diag, f"rejected_{k}", 0) for k in ("support", "overlap", "no_content")}
    produced = getattr(diag, "produced", 0)
    m = {
        "text.normalize_calls": c("text.normalize"),
        "text.normalize_s": s("text.normalize"),
        "text.word_overlap_calls": c("text.word_overlap"),
        "text.word_overlap_s": s("text.word_overlap"),
        "graph.build_graph_calls": c("graph.build_graph"),
        "graph.build_graph_s": s("graph.build_graph"),
        "graph.nodes": float(len(graph)),
        "graph.edges": float(len(graph.edges)),
        "graph.ancestors_calls": c("graph.PhraseGraph.ancestors"),
        "graph.ancestors_s": s("graph.PhraseGraph.ancestors"),
        "graph.ancestors_distinct_ratio": _ratio(
            len(tracer.ancestor_keys), calls.get("graph.PhraseGraph.ancestors", 0)),
        "graph.simplify_hypothesis_calls": c("graph.simplify_hypothesis"),
        "graph.simplify_hypothesis_s": s("graph.simplify_hypothesis"),
        "graph.save_s": s("graph.PhraseGraph.save"),
        "graph.save_bytes": counters.get("graph_save_bytes", 0) / n,
        "dataset.load_captions_s": s("dataset.load_captions"),
        "dataset.generate_items_s": s("dataset.generate_items"),
        "dataset.candidate_accept_ratio": _ratio(produced, produced + sum(rejected.values())),
        **{f"dataset.rejected.{k}": float(v) for k, v in rejected.items()},
        "dataset.shortfall": float(getattr(diag, "shortfall", 0)),
        "dataset.load_items_s": s("dataset.load_items"),
        "voting.score_baselines_s": s("voting.score_baselines"),
        "voting.items": counters.get("voting_items", 0) / n,
        "autodiff.backward_calls": c("autodiff.Tape.backward"),
        "autodiff.backward_s": s("autodiff.Tape.backward"),
        "autodiff.adam_steps": c("autodiff.Adam.step"),
        "autodiff.adam_step_s": s("autodiff.Adam.step"),
        "autodiff.checkpoint_save_s": s("autodiff.save_checkpoint"),
        "autodiff.checkpoint_load_s": s("autodiff.load_checkpoint"),
        "autodiff.checkpoint_bytes": _ratio(
            counters.get("checkpoint_bytes", 0), counters.get("checkpoint_bytes_files", 0)),
        "models.lstm_step_calls": c("models.LstmCell.step"),
        "models.lstm_step_us": 1e6 * _ratio(incl.get("models.LstmCell.step", 0),
                                            calls.get("models.LstmCell.step", 0)),
        "models.embed_s": s("models.EmbeddingTable.embed"),
        "models.tokens_per_item": float(pipeline.inputs.tokens_per_item),
        "cli.files_written": counters.get("files_written", 0) / n,
        "cli.bytes_written": counters.get("bytes_written", 0) / n,
        "cli.bytes_hashed": counters.get("bytes_hashed", 0) / n,
        "trace.overhead_s": _median(p["pass"] for p in traced) - _median(p["pass"] for p in untraced),
        "error_rate": _ratio(pipeline.failed, pipeline.attempted),
    }
    for op in OPS:
        m[f"autodiff.op_calls.{op}"] = c(f"autodiff.{op}")
        m[f"autodiff.op_s.{op}"] = s(f"autodiff.{op}")
    for a in ARCH_KEYS:
        cls, arch = ARCH_CLASSES[a], ARCH_NAMES[a]
        for mode in ("taped", "untaped"):
            key = f"models.{cls}.forward[{mode}]"
            m[f"models.forward_ms_per_item.{a}.{mode}"] = 1e3 * _ratio(incl.get(key, 0), calls.get(key, 0))
        run = f"training.Trainer.run[{arch}]"
        m[f"training.epoch_s.{a}"] = s(run) / pipeline.sizes.epochs
        m[f"training.accuracy_pass_s.{a}"] = s(f"training.accuracy[{arch}]")
        m[f"training.self_s.{a}"] = own.get(run, 0.0) / n
        m[f"training.evaluate_s.{a}"] = s(f"training.evaluate[{arch}]")
    for command in COMMANDS:
        m[f"cli.main_s.{command}"] = s(f"cli.main[{command}]")
        m[f"cli.self_s.{command}"] = agg["cli_self"].get(f"cli.main[{command}]", 0.0) / n
    for layer, seconds in agg["layer_self"].items():
        m[f"layer.self_s.{layer}"] = seconds / n
    for bucket, (size, seconds) in pipeline.closure_table().items():
        m[f"graph.closure_phrases.{bucket}"] = size
        m[f"graph.apply_reductions_s.{bucket}"] = seconds
    for a, (ops, items, tokens) in pipeline.tape_profile().items():
        total = sum(ops.values())
        m[f"autodiff.tape_ops_per_item.{a}"] = total / items
        m[f"autodiff.tape_ops_per_token.{a}"] = total / tokens
        for op in TAPE_OPS_BY_ARCH:
            m[f"autodiff.tape_ops.{a}.{op}"] = ops.get(op, 0) / items
        print(f"tape ops per item, {a}: " + ", ".join(
            f"{op} {count / items:g}" for op, count in sorted(ops.items())))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mpe" / "cli.py").is_file():
        print(f"error: no mpe package under {ROOT / 'src'}; run inside a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads
    os.environ.pop("MPE_DATA_DIR", None)  # inputs are absolute paths
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS, Pipeline, calibration_kernel, expect

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    sizes, _ = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pipeline = Pipeline(ROOT, work, sizes, args.seed)

    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        kernel = calibration_kernel()
        start = time.perf_counter()
        pipeline.set_up()
        setup_times.append(time.perf_counter() - start)
        kernel = (kernel + calibration_kernel()) / 2
        setup_scaled.append(KERNEL_REFERENCE_S * setup_times[-1] / kernel)

    reference = None  # outputs of the first pass, which every later pass must repeat
    tracer = Tracer(f"{args.workload}-{args.seed}-{time.time_ns()}") if args.trace else None
    traced, untraced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
        try:
            seconds = pipeline.one_pass()
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else untraced).append(seconds)
        if reference is None:
            reference, produced = pipeline.digest(), pipeline.produced_items()
        else:
            pipeline.check("same outputs as the first pass", lambda: expect(
                pipeline.digest() == reference, "a pass wrote other outputs than the first"))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pipeline.run_checks()

    inputs = pipeline.inputs
    print(f"workload {args.workload}, seed {args.seed}, nproc {os.cpu_count()}, "
          f"numpy {np.__version__}, BLAS threads {BLAS_THREADS}")
    print(f"inputs: {inputs.caption_count} captions, token lengths "
          f"{json.dumps(inputs.length_histogram)}, {inputs.tokens_per_item} tokens per item, "
          f"{sizes.train} train + {sizes.dev} dev + {sizes.eval} eval items per architecture")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"error_rate {_ratio(pipeline.failed, pipeline.attempted)} "
          f"({pipeline.failed} of {pipeline.attempted})")
    for error in pipeline.errors:
        print(f"FAILED {error}")

    if tracer is None:
        metrics = end_to_end(untraced, setup_scaled, peak_rss_mb, pipeline, produced)
        raw = end_to_end(untraced, setup_times, peak_rss_mb, pipeline, produced, scaled=False)
        kernel = _median(p["kernel"] for p in untraced)
        print(f"calibration kernel: median {kernel:.6g} s per pass, "
              f"reference {KERNEL_REFERENCE_S} s; unscaled values follow each metric")
        units = END_TO_END
    else:
        metrics = per_layer(tracer, traced, untraced, pipeline)
        units = PER_LAYER
        tracer.dump(work / "trace" / "spans.npz")
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names drifted: {sorted(set(metrics) ^ set(units))}")
    for name in units:
        unscaled = f" (unscaled {raw[name]:.6g})" if tracer is None else ""
        print(f"{name} {metrics[name]:.6g} {units[name]}{unscaled}")
    print(json.dumps({
        "correct": pipeline.failed == 0,
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
