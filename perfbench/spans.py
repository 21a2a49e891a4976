"""Spans around calls into the program's layers, recorded from outside it.

`Tracer.install` replaces every public function of the eight `mpe` layer
modules, in every module of the package that binds it, plus a few methods
and two private helpers whose arguments give byte counts, with a wrapper
that records a span: name, start, end and parent span. `uninstall` puts the
originals back. Spans live in flat arrays in memory and are written out once,
by `dump`, with the run id.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("text", "graph", "dataset", "voting", "autodiff", "models", "training", "cli")

# Methods on the hot paths named by the per-layer metrics.
METHODS = (
    ("graph", "PhraseGraph", "ancestors"),
    ("graph", "PhraseGraph", "save"),
    ("autodiff", "Tape", "backward"),
    ("autodiff", "Adam", "step"),
    ("models", "LstmCell", "step"),
    ("models", "EmbeddingTable", "embed"),
    ("models", "ConditionalLstmModel", "forward"),
    ("models", "AttentionModel", "forward"),
    ("models", "SumOfExpertsModel", "forward"),
    ("training", "Trainer", "run"),
)
# Private helpers traced only so that their arguments can be counted.
PRIVATE = (("dataset", "_atomic_write"), ("cli", "_sha256"))


def _file_size(path) -> int:
    return Path(path).stat().st_size


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        # (install, graph object, node id) of every PhraseGraph.ancestors call,
        # so distinct ids are counted per pass and per graph.
        self.ancestor_keys: set[tuple[int, int, int]] = set()
        self.diagnostics = None  # of the last generate_items call
        self._patched: list[tuple[object, str, object]] = []
        self.installs = 0

    # --- recording -------------------------------------------------------

    def _open(self, key: str) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name: str, tag=None, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name if tag is None else f"{name}[{tag(args)}]")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        self.installs += 1
        modules = {layer: importlib.import_module(f"mpe.{layer}") for layer in LAYERS}
        active_tape = modules["autodiff"].active_tape
        tags = {
            "cli.main": lambda a: a[0][0] if a and a[0] else "-",
            "training.accuracy": lambda a: a[0].architecture,
            "training.evaluate": lambda a: a[0].architecture,
            "training.Trainer.run": lambda a: a[0].model.architecture,
        }
        def taped(a):
            return "taped" if active_tape() is not None else "untaped"

        for cls in ("ConditionalLstmModel", "AttentionModel", "SumOfExpertsModel"):
            tags[f"models.{cls}.forward"] = taped

        def bytes_of_content(t, a, r):
            t.count("files_written")
            t.count("bytes_written", len(a[1].encode("utf-8")))

        def bytes_of_file(key, arg):
            def observe(t, a, r):
                size = _file_size(a[arg])
                t.count("files_written")
                t.count("bytes_written", size)
                t.count(key, size)
                t.count(key + "_files")  # files behind that byte count

            return observe

        observers = {
            "dataset._atomic_write": bytes_of_content,
            "cli._sha256": lambda t, a, r: t.count("bytes_hashed", _file_size(a[0])),
            "graph.PhraseGraph.save": bytes_of_file("graph_save_bytes", 1),
            "autodiff.save_checkpoint": bytes_of_file("checkpoint_bytes", 0),
            "graph.PhraseGraph.ancestors": lambda t, a, r: t.ancestor_keys.add(
                (t.installs, id(a[0]), a[1])
            ),
            "dataset.generate_items": lambda t, a, r: setattr(t, "diagnostics", r.diagnostics),
            "voting.score_baselines": lambda t, a, r: t.count("voting_items", len(a[0])),
        }

        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                public = inspect.isfunction(obj) and not attr.startswith("_")
                if (public and obj.__module__ == module.__name__) or (layer, attr) in PRIVATE:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(obj, name, tags.get(name), observers.get(name))
        # Rebind each wrapped function wherever a package module holds it.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            name = f"{layer}.{cls_name}.{method}"
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, tags.get(name), observers.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def dump(self, path: Path) -> None:
        """Write every span: name id, start and end in ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), run_id=np.array(self.run_id), **self.arrays())


def aggregate(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name; self seconds per layer
    and, for the layer's spans under each `cli.main[command]`, per command."""
    a = tracer.arrays()
    n_names = len(tracer.names)
    duration = (a["end"] - a["start"]).astype(np.float64) / 1e9
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    own = duration - child
    calls = np.bincount(a["name"], minlength=n_names)
    inclusive = np.bincount(a["name"], weights=duration, minlength=n_names)
    self_s = np.bincount(a["name"], weights=own, minlength=n_names)

    # Nearest enclosing cli.main span of every span, walking up one level
    # per step for the spans that have not reached one yet.
    is_main = np.array([n.startswith("cli.main[") for n in tracer.names])[a["name"]]
    anc = np.where(is_main, np.arange(len(parent)), parent)
    pending = (anc >= 0) & ~is_main[np.maximum(anc, 0)]
    while pending.any():
        anc[pending] = parent[anc[pending]]
        pending = (anc >= 0) & ~is_main[np.maximum(anc, 0)]
    span_layer = np.array([n.split(".", 1)[0] for n in tracer.names])[a["name"]]
    cli_spans = (span_layer == "cli") & (anc >= 0)
    per_root = np.bincount(anc[cli_spans], weights=own[cli_spans], minlength=len(own))
    by_command: dict[str, float] = {}
    for root in np.flatnonzero(is_main):
        command = tracer.names[a["name"][root]]
        by_command[command] = by_command.get(command, 0.0) + float(per_root[root])
    return {
        "calls": {n: float(calls[i]) for i, n in enumerate(tracer.names)},
        "inclusive": {n: float(inclusive[i]) for i, n in enumerate(tracer.names)},
        "self": {n: float(self_s[i]) for i, n in enumerate(tracer.names)},
        "layer_self": {
            layer: float(own[span_layer == layer].sum()) for layer in LAYERS
        },
        "cli_self": by_command,
    }
