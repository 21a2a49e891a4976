"""Command-line pipeline: graph building, dataset generation, statistics,
adjudication, voting baselines, training, evaluation, and gradient checks.

Each subcommand declares its input and output flags, primary output first.
Before the command runs, `main` refuses an empty path for any of them, checks
that each given input exists and hashes it, and refuses two outputs on one
file (the primary's manifest included) or an output on an input, but for
`adjudicate` rewriting its own `--items`. The settings flags of
`build-dataset` and `train` are the fields of `GenerationConfig` and
`TrainConfig`; `train` hands its config to `mpe.training.train`, which builds
the model. After a run that wrote files, `main` writes
`<output>.manifest.json` beside the primary output, recording the subcommand,
argv, input hashes, configuration (with a hash), format and numeric-stack
versions and the command's extra records, such as interactive adjudication
decisions — enough to reproduce the run byte-for-byte. Inputs are loaded and
validated in full before any output is written, and all writes are atomic, so
a failed run leaves no partial artifacts.

Relative paths resolve against $MPE_DATA_DIR when it is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .autodiff import CHECKPOINT_VERSION, cross_entropy, flatten, grad_check
from .dataset import (
    FORMAT_VERSION,
    SPLITS,
    CaptionGroup,
    GenerationConfig,
    Item,
    adjudicate,
    corpus_stats,
    flagged_items,
    generate_items,
    graph_captions,
    load_captions,
    load_decisions,
    load_examples,
    load_items,
    save_items,
    _atomic_write,
)
from .graph import GRAPH_VERSION, build_graph, caption_closures
from .models import ARCHITECTURES, load_model, load_pretrained_vectors
from .text import _quote
from .training import (
    PRESETS,
    TrainConfig,
    build_model,
    evaluate,
    format_eval_report,
    train,
)
from .voting import attach_pair_labels, load_pair_labels, score_baselines

DATA_DIR_ENV = "MPE_DATA_DIR"

MODEL_ALIASES = {
    "lstm": "conditional-lstm",
    "attn": "attention",
    "se": "sum-of-experts",
    **{name: name for name in ARCHITECTURES},
}


class CliError(Exception):
    """Validation problem: bad flags, missing or malformed inputs."""


class _Parser(argparse.ArgumentParser):
    """Exits through `CliError`, and takes a long flag only when spelled out
    in full: a unique prefix would otherwise run as the flag it abbreviates."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:
        raise CliError(f"{self.prog}: {message}")


def _resolve(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(DATA_DIR_ENV)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _require_input(path: str) -> Path:
    resolved = _resolve(path)
    if not resolved.is_file():
        raise CliError(f"input file not found: {resolved}")
    return resolved


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, record: dict) -> None:
    _atomic_write(path, json.dumps(record, sort_keys=True, indent=2) + "\n")


@dataclass
class _Written:
    """What a command hands `main` for the manifest: its configuration and
    extra top-level manifest keys."""

    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _beside(path: Path, suffix: str) -> Path:
    return path.with_name(path.name + suffix)


def _outputs(args, inputs: dict[str, Path]) -> dict[str, Path]:
    """The outputs by flag, resolved, primary first (an unset one in `beside`
    goes beside the primary); refused if two of them or the primary's manifest
    are one file, or if one is an input the subcommand leaves out of `rewrites`."""
    outputs = {}
    for name in args.outputs:
        if getattr(args, name):
            outputs[name] = _resolve(getattr(args, name))
        elif name in args.beside:
            outputs[name] = _beside(outputs[args.outputs[0]], args.beside[name])
    read = {p.resolve(): f"--{n} {p}" for n, p in inputs.items() if n not in args.rewrites}
    paths = list(outputs.values())
    seen = set()
    for path in paths + [_beside(p, ".manifest.json") for p in paths[:1]]:
        key = path.resolve()
        if key in seen:
            raise CliError(f"two outputs would be written to {path}")
        if key in read:
            raise CliError(f"an output would overwrite the input {read[key]}")
        seen.add(key)
    return outputs


def _blas() -> str | None:
    """Name and version of numpy's BLAS, None where numpy cannot report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no `mode`
        return None


def _write_manifest(
    command: str, argv: Sequence[str], inputs: dict[str, dict], outputs: list[Path],
    run: _Written,
) -> None:
    config_blob = json.dumps(run.config, sort_keys=True)
    manifest = {
        "command": command,
        "argv": list(argv),
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "config": run.config,
        "config_hash": hashlib.sha256(config_blob.encode("utf-8")).hexdigest(),
        "versions": {
            "package": __version__,
            "items_format": FORMAT_VERSION,
            "graph_format": GRAPH_VERSION,
            "checkpoint_format": CHECKPOINT_VERSION,
            "numpy": np.__version__,
            "blas": _blas(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        **run.extra,
    }
    _write_json(_beside(outputs[0], ".manifest.json"), manifest)


# --- subcommands --------------------------------------------------------------


def _load_corpus(inputs) -> list[CaptionGroup]:
    """Groups of the `--captions` input; a file without captions is an error."""
    groups = load_captions(inputs["captions"])
    if not groups:
        raise CliError(f"--captions {inputs['captions']}: holds no captions")
    return groups


def cmd_build_graph(args, inputs, outputs) -> _Written:
    groups = _load_corpus(inputs)
    # A node's support is written comma-joined, so its reader would split such an id.
    comma = next((g.gid for g in groups if "," in g.gid), None)
    if comma is not None:
        raise CliError(
            f"--captions {inputs['captions']}: scene group id {_quote(comma)} holds a comma, "
            "which a graph file's support field cannot hold"
        )
    graph = build_graph(graph_captions(groups))
    graph.save(outputs["out"])
    print(f"graph: {len(graph)} nodes, {graph.edge_count} edges -> {outputs['out']}")
    return _Written()


def cmd_build_dataset(args, inputs, outputs) -> _Written:
    config = GenerationConfig(
        **{f.name: getattr(args, f.name) for f in fields(GenerationConfig)}
    )
    groups = _load_corpus(inputs)
    result = generate_items(groups, caption_closures(graph_captions(groups)), config)
    out = outputs["out"]
    save_items(result.items, out)
    diag = asdict(result.diagnostics)
    print(
        f"items: {diag['produced']}/{diag['requested']} "
        f"(related {diag['related']}, unrelated {diag['unrelated']}, "
        f"shortfall {diag['shortfall']}) -> {out}"
    )
    if diag["shortfall"]:
        print(
            f"warning: short by {diag['shortfall']} "
            f"(rejected: support {diag['rejected_support']}, "
            f"overlap {diag['rejected_overlap']}, "
            f"no-content {diag['rejected_no_content']})"
        )
    return _Written(asdict(config), {"diagnostics": diag})


def _format_stats(report) -> str:
    lines = [
        f"items: {report.item_count}",
        f"types: {report.type_count}",
        f"tokens: {report.token_count}",
        f"premise-set length: {report.premise_set_length.mean:.2f} "
        f"(sd {report.premise_set_length.sd:.2f})",
        f"hypothesis length: {report.hypothesis_length.mean:.2f} "
        f"(sd {report.hypothesis_length.sd:.2f})",
        "label distribution: "
        + "  ".join(
            f"{label} {share:.1%}"
            for label, share in report.label_distribution.items()
        ),
    ]
    for name, table in (
        ("full overlap", report.overlap_full),
        ("lemma overlap", report.overlap_lemma),
    ):
        parts = []
        for key, moments in table.items():
            parts.append(f"{key} -" if moments is None else f"{key} {moments.mean:.2f}")
        lines.append(f"{name}: " + "  ".join(parts))
    if report.agreement_overall is not None:
        per = "  ".join(
            f"{label} {value:.2f}" if value is not None else f"{label} -"
            for label, value in report.agreement_by_label.items()
        )
        lines.append(f"agreement: {report.agreement_overall:.2f} ({per})")
    if report.overlap_excluded:
        lines.append(f"overlap excluded items: {report.overlap_excluded}")
    return "\n".join(lines) + "\n"


@contextmanager
def _naming_items(inputs):
    """Report a ValueError about the `--items` items, such as too few labels
    or an id another input names, against that file too."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{exc} (items: {inputs['items']})") from None


def cmd_stats(args, inputs, outputs) -> _Written:
    items = load_items(inputs["items"])
    with _naming_items(inputs):
        report = corpus_stats(items)
    print(_format_stats(report), end="")
    if "out" in outputs:
        _write_json(outputs["out"], asdict(report))
    return _Written()


def _adjudication_prompt(item: Item, stream) -> str | None:
    counts = {label: item.judgments.count(label) for label in ("E", "N", "C")}
    print(f"\nitem {item.id} (votes E:{counts['E']} N:{counts['N']} C:{counts['C']})")
    for i, premise in enumerate(item.premises, 1):
        print(f"  premise {i}: {premise.raw}")
    print(f"  hypothesis: {item.hypothesis.raw}")
    while True:
        print("label [E/N/C/s=skip]? ", end="", flush=True)
        line = stream.readline()
        if not line:
            return None  # EOF: stop adjudicating
        answer = line.strip().upper()
        if answer in ("E", "N", "C"):
            return answer
        if answer in ("S", "SKIP", ""):
            return "skip"
        print(f"unrecognized answer {_quote(line.strip())}")


def run_adjudication_loop(flagged: Sequence[Item], stream) -> dict[str, str]:
    """Terminal review: returns the decisions the reviewer entered."""
    decisions: dict[str, str] = {}
    for item in flagged:
        answer = _adjudication_prompt(item, stream)
        if answer is None:
            break
        if answer != "skip":
            decisions[item.id] = answer
    return decisions


def cmd_adjudicate(args, inputs, outputs) -> _Written:
    items_path = inputs["items"]
    items = load_items(items_path)
    flagged = flagged_items(items)
    if not flagged:
        raise CliError(f"{items_path}: no items need adjudication")
    if "decisions" in inputs:
        decisions = load_decisions(inputs["decisions"])
    else:
        decisions = run_adjudication_loop(flagged, sys.stdin)
    with _naming_items(inputs):
        items, unresolved = adjudicate(items, decisions)
    out = outputs["out"]
    save_items(items, out)
    print(
        f"flagged {len(flagged)}, decided {len(decisions)}, "
        f"unresolved {len(unresolved)} -> {out}"
    )
    extra = {"decisions": dict(sorted(decisions.items())), "unresolved": unresolved}
    return _Written(extra=extra)


def cmd_vote(args, inputs, outputs) -> _Written:
    items = load_items(inputs["items"])
    pair_labels = load_pair_labels(inputs["pairs"])
    with _naming_items(inputs):
        report = score_baselines(attach_pair_labels(items, pair_labels))
    histogram = "  ".join(
        f"{cat}:{share:.1%}" for cat, share in enumerate(report.category_histogram)
    )
    print(f"scored {report.n_scored} items ({report.n_skipped} skipped)")
    print(f"majority (strict):           {report.majority_acc_strict:.1%}")
    print(f"majority (neutral fallback): {report.majority_acc_neutral_fallback:.1%}")
    print(f"entail/contradict heuristic: {report.heuristic_acc:.1%}")
    print(f"agreement histogram: {histogram}")
    if "out" in outputs:
        _write_json(outputs["out"], asdict(report))
    return _Written()


def _train_config(args) -> TrainConfig:
    """The preset's (or the default) config with each given flag's field set."""
    config = PRESETS[args.preset] if args.preset else TrainConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(TrainConfig)
        if getattr(args, f.name) is not None
    }
    return replace(config, **overrides)


def _load_examples(inputs, name: str):
    """Examples of the `--name` input, None if not given; an empty file or an
    unlabeled example is an error."""
    if name not in inputs:
        return None
    examples = load_examples(inputs[name])
    if not examples:
        raise CliError(f"--{name} {inputs[name]}: holds no items")
    for example in examples:
        if example.gold_label is None:
            raise CliError(
                f"--{name} {inputs[name]}: item {_quote(example.id)} has no gold label"
            )
    return examples


def cmd_train(args, inputs, outputs) -> _Written:
    if args.trainable_embeddings and not args.embeddings:
        raise CliError("--trainable-embeddings needs --embeddings")
    out, logs, best = outputs["out"], outputs["logs"], outputs.get("best_out")
    config = _train_config(args)
    items = _load_examples(inputs, "items")
    dev = _load_examples(inputs, "dev")
    pretrain = _load_examples(inputs, "pretrain")

    vectors = None
    if "embeddings" in inputs:
        # Pretrained vectors are frozen by default; their width is the run's.
        vectors = load_pretrained_vectors(inputs["embeddings"])
        width = len(next(iter(vectors.values())))
        if args.embedding_dim not in (None, width):
            raise CliError(
                f"--embeddings {inputs['embeddings']}: embedding_dim "
                f"{args.embedding_dim} differs from the {width}-d pretrained vectors"
            )
        config = replace(
            config,
            embedding_dim=width,
            trainable_embeddings=bool(args.trainable_embeddings),
        )

    result = train(items, config, dev=dev, pretrain=pretrain, vectors=vectors)

    result.model.save(out)
    _atomic_write(
        logs,
        "".join(json.dumps(asdict(log), sort_keys=True) + "\n" for log in result.logs),
    )
    if best:
        result.save_best_checkpoint(best)
    last = result.logs[-1]
    dev_note = "" if last.dev_accuracy is None else f", dev acc {last.dev_accuracy:.1%}"
    print(
        f"trained {config.model} for {len(result.logs)} epochs "
        f"(final loss {last.train_loss:.4f}, train acc {last.train_accuracy:.1%}"
        f"{dev_note}) -> {out}"
    )
    print(f"best epoch: {result.best_phase} {result.best_epoch}")
    extra = {"best_phase": result.best_phase, "best_epoch": result.best_epoch}
    return _Written(asdict(config), extra)


def cmd_eval(args, inputs, outputs) -> _Written:
    out, predictions = outputs.get("out"), outputs.get("predictions")
    model = load_model(inputs["model"])
    items = _load_examples(inputs, "items")
    report = evaluate(model, items)
    print(format_eval_report(report), end="")
    if out:
        _write_json(out, report.to_record())
    if predictions:
        _atomic_write(
            predictions,
            "".join(
                f"{item.id}\t{guess}\n"
                for item, guess in zip(items, report.predictions)
            ),
        )
    return _Written()


GRADCHECK_PREMISES = (
    ("w00", "w01", "w02"),
    ("w03", "w04"),
    ("w05", "w06", "w07"),
    ("w08", "w09"),
)
GRADCHECK_HYPOTHESIS = ("w10", "w11")


def run_model_gradcheck(kind: str, dim: int, state_dim: int, seed: int):
    """Finite-difference check of one architecture on a fixed tiny example."""
    config = TrainConfig(
        model=kind, state_dim=state_dim, embedding_dim=dim, keep_prob=1.0, seed=seed
    )
    model = build_model(config, [f"w{i:02d}" for i in range(12)])

    def forward():
        logits = model.batch_logits([GRADCHECK_PREMISES], [GRADCHECK_HYPOTHESIS])
        return cross_entropy(flatten(logits), 1)

    return grad_check(
        forward, model.params(), np.random.default_rng(seed + 1), samples=3
    )


def cmd_gradcheck(args, inputs, outputs) -> int:
    for flag, value in (("--dim", args.dim), ("--state-dim", args.state_dim)):
        if value < 1:
            raise CliError(f"{flag} must be >= 1, got {value}")
    kinds = (
        sorted(ARCHITECTURES)
        if args.model == "all"
        else [MODEL_ALIASES[args.model]]
    )
    all_passed = True
    for kind in kinds:
        report = run_model_gradcheck(kind, args.dim, args.state_dim, args.seed)
        verdict = "PASS" if report.passed else "FAIL"
        worst = max(report.worst_by_param, key=report.worst_by_param.get)
        print(
            f"{kind}: max rel err {report.max_rel_err:.3e} "
            f"(worst: {worst}) [{verdict}]"
        )
        all_passed = all_passed and report.passed
    return 0 if all_passed else 2


# --- argument parsing ----------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="mpe", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mpe {__version__}")
    parser.set_defaults(rewrites=(), beside={})  # read by `_outputs`
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("build-graph", help="build the phrase graph from captions")
    p.add_argument("--captions", required=True, help="caption groups TSV")
    p.add_argument("--out", required=True, help="graph file to write")
    p.set_defaults(func=cmd_build_graph, inputs=("captions",), outputs=("out",))

    p = sub.add_parser("build-dataset", help="generate entailment items")
    p.add_argument("--captions", required=True)
    p.add_argument("--out", required=True, help="items file to write")
    p.add_argument("--n-items", type=int, required=True)
    # One flag per defaulted GenerationConfig field, typed by its default.
    for f in fields(GenerationConfig):
        if f.default is not MISSING:
            p.add_argument(
                f"--{f.name.replace('_', '-')}",
                type=type(f.default),
                default=f.default,
                choices=SPLITS if f.name == "split" else None,
            )
    p.set_defaults(func=cmd_build_dataset, inputs=("captions",), outputs=("out",))

    p = sub.add_parser("stats", help="summarize a labeled items file")
    p.add_argument("--items", required=True)
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_stats, inputs=("items",), outputs=("out",))

    p = sub.add_parser("adjudicate", help="resolve items with split judgments")
    p.add_argument("--items", required=True)
    p.add_argument("--out", required=True, help="items file with decisions applied")
    p.add_argument(
        "--decisions", help="TSV of item-id<TAB>label; omit for an interactive loop"
    )
    p.set_defaults(func=cmd_adjudicate, inputs=("items", "decisions"), outputs=("out",))
    p.set_defaults(rewrites=("items",))  # `--out` may apply decisions in place

    p = sub.add_parser("vote", help="score the pair-label voting baselines")
    p.add_argument("--items", required=True)
    p.add_argument("--pairs", required=True, help="pair labels TSV")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_vote, inputs=("items", "pairs"), outputs=("out",))

    p = sub.add_parser("train", help="train an entailment model")
    p.add_argument("--items", required=True, help="training items")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--preset", choices=sorted(PRESETS))
    # `type` maps an alias to its architecture before `choices` is checked.
    alias = lambda name: MODEL_ALIASES.get(name, name)
    p.add_argument("--model", type=alias, choices=sorted(MODEL_ALIASES))
    # One flag per numeric TrainConfig field, typed by its default; unset, it
    # keeps the preset's (or the default) value.
    for f in fields(TrainConfig):
        if type(f.default) in (int, float):
            p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default))
    p.add_argument("--dev", help="dev items for per-epoch accuracy")
    p.add_argument("--pretrain", help="items to pretrain on first (single-premise ok)")
    p.add_argument("--logs", help="epoch log path (default: <out>.logs.jsonl)")
    p.add_argument("--best-out", help="also write the best-epoch checkpoint")
    p.add_argument("--embeddings", help="pretrained vector file (frozen by default)")
    p.add_argument(
        "--trainable-embeddings",
        action="store_true",
        default=None,
        help="update pretrained embeddings during training",
    )
    p.set_defaults(func=cmd_train, inputs=("items", "dev", "pretrain", "embeddings"))
    p.set_defaults(outputs=("out", "logs", "best_out"), beside={"logs": ".logs.jsonl"})

    p = sub.add_parser("eval", help="score a checkpoint on labeled items")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--items", required=True)
    p.add_argument("--out", help="also write the report as JSON")
    p.add_argument("--predictions", help="write id<TAB>prediction lines")
    p.set_defaults(func=cmd_eval, inputs=("model", "items"), outputs=("out", "predictions"))

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument(
        "--model", default="all", choices=sorted(MODEL_ALIASES) + ["all"]
    )
    p.add_argument("--dim", type=int, default=8, help="embedding dimension")
    p.add_argument("--state-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_gradcheck, inputs=(), outputs=())

    return parser


# Built once per process: every `main` call parses with the same tree.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(argv)
        for name in (*args.inputs, *args.outputs):
            if getattr(args, name) == "":
                raise CliError(f"--{name.replace('_', '-')}: empty path")
        inputs = {
            name: _require_input(getattr(args, name))
            for name in args.inputs
            if getattr(args, name) is not None
        }
        outputs = _outputs(args, inputs)
        # Hashed before the command runs: `adjudicate` may rewrite its items.
        recorded = {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in sorted(inputs.items())
        }
        run = args.func(args, inputs, outputs)
        if isinstance(run, int):
            return run
        if outputs:
            _write_manifest(args.subcommand, argv, recorded, list(outputs.values()), run)
        return 0
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
