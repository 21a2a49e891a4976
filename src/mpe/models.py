"""Entailment classifiers over the autodiff core.

Three architectures share one recipe: a premise LSTM whose final cell state
seeds a hypothesis LSTM, and a small feedforward head over the resulting
sentence vectors producing three logits (entailment, neutral, contradiction).

- ConditionalLstmModel reads the premise text as one sequence.
- AttentionModel adds word-by-word attention over premise positions with a
  recurrently updated attention memory.
- SumOfExpertsModel reads each premise separately with the same two LSTMs
  and sums the per-premise logits in a canonical order, which
  makes the output bitwise invariant under premise reordering.

A model is its named float64 tensors, `model.tensors`, the checkpoint set.
`shapes` is the one table of them, name to shape in draw order: embeddings,
premise cell, hypothesis cell, then the architecture's `_head_shapes`.
`training.build_model` fills it by the rule of `initial_tensors`;
`load_model` restores a checkpoint as the architecture its meta names, and
`_restore` checks the names and shapes against the table that meta implies
and wraps the stored arrays, drawing nothing. Everything else the three share
is written once on `_ModelBase`: the two LSTM reads, checkpoint save, and
`params()`, the one rule of what trains (the embedding matrix only when
`trainable_embeddings` is set). Each architecture adds only `_head_shapes`
and `_forward_batch`, its equations over a batch of B items, which applies
`autodiff.dropout` at `keep_prob` to its pair vectors.

`model.batch_logits(premises, hypotheses, rng)` scores B items at once, each
given by its list of premise token lists; the conditional LSTM and attention
join an item's premises with `concat_premises`, sum-of-experts reads them one
at a time. The dropout stream `rng` is the only training switch: given, masks
are drawn from it; omitted, there is no dropout. `forward` is the
architecture's own single-item call form, the B = 1 batch, with the same
`rng`, and also returns its extras (attention weights, per-premise experts).

A batch is embedded as one `Padded` (B, T, d) tensor gathered by id arrays,
zero past each sequence's end, with the length of each sequence. Each LSTM
reads it with one `autodiff.lstm_sequence` call, which freezes a row once its
sequence ends: `LstmCell` keeps its weights per gate (the checkpoint names
`<prefix>.<gate>.{Wx,Wh,b}`) and the op concatenates them at call time, so a
read is one tape entry whatever its length or batch size. Attention runs its
attention recurrence once per hypothesis step over all B rows, with padded
premise positions masked out of the softmax; sum-of-experts reads both LSTMs
once per premise slot over the B items.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    dropout,
    flatten,
    load_checkpoint,
    lookup,
    lstm_sequence,
    matmul,
    mul,
    pick,
    reshape,
    save_checkpoint,
    softmax,
    tanh,
    transpose,
)
from .text import _lines, _quote, _quote_list

UNK_TOKEN = "<unk>"
SEPARATOR = "<sep>"

INIT_SCALE = 0.1
FORGET_BIAS = 1.0


def concat_premises(premises: Sequence[Sequence[str]]) -> list[str]:
    """Join premise token sequences in order, one separator between each."""
    if not premises:
        raise ValueError("need at least one premise")
    joined: list[str] = []
    for i, premise in enumerate(premises):
        if i:
            joined.append(SEPARATOR)
        joined.extend(premise)
    return joined


def initial_tensors(
    shapes: Mapping[str, tuple[int, ...]], rng: np.random.Generator
) -> dict[str, Tensor]:
    """Fresh tensors in `shapes` order by one rule: a bias (`.b`) starts at 0,
    the forget gate's at FORGET_BIAS, and every other tensor is drawn from
    N(0, INIT_SCALE^2)."""
    tensors = {}
    for name, shape in shapes.items():
        if name.endswith(".b"):
            values = np.full(shape, FORGET_BIAS if name.endswith(".forget.b") else 0.0)
        else:
            values = rng.normal(scale=INIT_SCALE, size=shape)
        tensors[name] = Tensor(values, name=name)
    return tensors


class EmbeddingTable:
    """Token embeddings: a vocabulary matrix plus rows for the unknown token
    and the premise separator."""

    def __init__(
        self,
        vocab: Mapping[str, int],
        main: Tensor,
        special: Tensor,
    ):
        rows = len(main.values)
        if len(vocab) != rows or sorted(vocab.values()) != list(range(rows)):
            raise ValueError("vocabulary must map tokens onto rows 0..V-1 exactly")
        if UNK_TOKEN in vocab or SEPARATOR in vocab:
            raise ValueError("reserved tokens cannot appear in the vocabulary")
        self.vocab = dict(vocab)
        self.main = main
        self.special = special

    @property
    def dim(self) -> int:
        return self.main.values.shape[1]

    def embed(self, tokens: Sequence[str]) -> Tensor:
        """The (T, dim) rows of a token sequence; unknown words share the UNK
        row."""
        if not tokens:
            raise ValueError("cannot embed an empty token sequence")
        return self._gather(np.array([self._id(token) for token in tokens]))

    def embed_batch(self, sequences: Sequence[Sequence[str]]) -> "Padded":
        """Token sequences as one (B, T, dim) batch, T the longest length and
        zero rows past the end of each shorter sequence."""
        if not sequences or not all(sequences):
            raise ValueError("cannot embed an empty token sequence")
        lengths = np.array([len(tokens) for tokens in sequences])
        ids = np.full((len(sequences), lengths.max()), -1)
        for row, tokens in zip(ids, sequences):
            row[: len(tokens)] = [self._id(token) for token in tokens]
        return Padded(self._gather(ids), lengths)

    def _id(self, token: str) -> int:
        """Vocabulary row, or V + 0 (UNK) / V + 1 (separator) for special rows."""
        row = self.vocab.get(token)
        return len(self.vocab) + (token == SEPARATOR) if row is None else row

    def _gather(self, ids: np.ndarray) -> Tensor:
        """Rows for an id array of any shape; -1 marks padding, a zero row.

        Vocabulary and special rows are each gathered by one id array; when
        kinds mix, one more lookup of the stacked parts puts every row in
        place, so the vocabulary matrix is never copied."""
        vocab_size = len(self.vocab)
        kinds = (
            (self.main, (ids >= 0) & (ids < vocab_size), 0),
            (self.special, ids >= vocab_size, vocab_size),
        )
        for table, mask, offset in kinds:
            if mask.all():
                return lookup(table, ids - offset)
        parts = []
        position = np.empty(ids.shape, dtype=np.intp)
        start = 0
        for table, mask, offset in kinds:
            count = int(mask.sum())
            if count:
                parts.append(lookup(table, ids[mask] - offset))
                position[mask] = np.arange(start, start + count)
                start += count
        padding = ids < 0
        if padding.any():
            parts.append(Tensor(np.zeros((1, self.dim))))
            position[padding] = start
        return lookup(concat(parts), position)


def load_pretrained_vectors(path: str | Path) -> dict[str, list[float]]:
    """Parse a text file of `token v1 .. vd` lines into a vector table."""
    path = Path(path)
    vectors: dict[str, list[float]] = {}
    dim: int | None = None
    for lineno, line in _lines(path):
        parts = line.split(" ")
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: malformed vector line")
        token = parts[0]
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric component") from None
        if not np.isfinite(values).all():
            raise ValueError(f"{path}:{lineno}: non-finite component")
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: expected {dim} components, got {len(values)}"
            )
        if token in vectors:
            raise ValueError(f"{path}:{lineno}: duplicate token {_quote(token)}")
        vectors[token] = values
    if not vectors:
        raise ValueError(f"{path}: no vectors found")
    return vectors


class LstmCell:
    """One LSTM layer's weights: input/forget/output gates and candidate,
    stored per gate and read through the fused `lstm_sequence` op."""

    GATES = ("input", "forget", "output", "candidate")

    def __init__(self, tensors: Mapping[str, Tensor], prefix: str):
        """The cell's tensors `<prefix>.<gate>.{Wx,Wh,b}`, taken from `tensors`."""
        self._gates = tuple(
            [tensors[f"{prefix}.{gate}.{part}"] for gate in self.GATES]
            for part in ("Wx", "Wh", "b")
        )
        self.tensors = {t.name: t for part in self._gates for t in part}

    @classmethod
    def shapes(cls, prefix: str, dim: int, state_dim: int) -> dict[str, tuple[int, ...]]:
        """Tensor shapes by name in draw order: gate by gate, Wx, Wh, b."""
        return {
            f"{prefix}.{gate}.{part}": shape
            for gate in cls.GATES
            for part, shape in (
                ("Wx", (dim, state_dim)),
                ("Wh", (state_dim, state_dim)),
                ("b", (state_dim,)),
            )
        }

    def read(
        self, rows: Tensor, h0: Tensor, c0: Tensor, lengths: Sequence[int] | None = None
    ) -> tuple[Tensor, Tensor]:
        """(hidden rows (B, T, k), final cell states (B, k)) over a batch of
        input rows (B, T, d), row i read for lengths[i] steps (all T if None)."""
        return lstm_sequence(rows, lengths, h0, c0, *self._gates)

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """One step of B sequences: the T = 1 read of input rows x (B, d)."""
        rows = np.arange(x.values.shape[0])
        hidden, c = self.read(lookup(x, rows[:, None]), h_prev, c_prev)
        return pick(hidden, 0), c

    def params(self) -> list[Tensor]:
        return [self.tensors[name] for name in sorted(self.tensors)]


class Padded(NamedTuple):
    """A batch of token sequences: rows (B, T, d), zero past each sequence's
    end, and the length of each sequence."""

    rows: Tensor
    lengths: np.ndarray


def _zero_state(batch: int, state_dim: int) -> Tensor:
    return Tensor(np.zeros((batch, state_dim)))


# Checkpoint meta fields `_restore` needs besides the architecture.
_META_KEYS = ("dim", "state_dim", "keep_prob", "trainable_embeddings", "vocab")


class _ModelBase:
    """Embeddings, a premise LSTM whose final cell state seeds a hypothesis
    LSTM, and a head, all read from one name -> tensor dict; subclasses give
    the head's tensor shapes in `_head_shapes` and define `_forward_batch`
    and its B = 1 call `forward`.

    The hypothesis LSTM starts from a zero hidden state; only the cell state
    carries over. Each LSTM reads a whole batch of sequences in one op, and
    `params()` alone decides what trains."""

    architecture = ""

    def __init__(
        self,
        vocab: Mapping[str, int],
        tensors: Mapping[str, Tensor],
        state_dim: int,
        keep_prob: float,
        trainable_embeddings: bool,
    ):
        self.tensors = dict(tensors)
        self.embeddings = EmbeddingTable(
            vocab, tensors["embeddings.main"], tensors["embeddings.special"]
        )
        self.premise_cell = LstmCell(tensors, "premise_lstm")
        self.hypothesis_cell = LstmCell(tensors, "hypothesis_lstm")
        self.head = [tensors[name] for name in self._head_shapes(state_dim)]
        self.state_dim = state_dim
        self.keep_prob = keep_prob
        self.trainable_embeddings = trainable_embeddings

    @classmethod
    def shapes(
        cls, vocab_size: int, dim: int, state_dim: int
    ) -> dict[str, tuple[int, ...]]:
        """Every checkpoint tensor's shape by name, in draw order: the
        embeddings, the premise cell, the hypothesis cell, then the head."""
        return {
            "embeddings.main": (vocab_size, dim),
            "embeddings.special": (2, dim),
            **LstmCell.shapes("premise_lstm", dim, state_dim),
            **LstmCell.shapes("hypothesis_lstm", dim, state_dim),
            **cls._head_shapes(state_dim),
        }

    @classmethod
    def _head_shapes(cls, state_dim: int) -> dict[str, tuple[int, ...]]:
        raise NotImplementedError

    def batch_logits(
        self,
        premises: Sequence[Sequence[Sequence[str]]],
        hypotheses: Sequence[Sequence[str]],
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """(B, 3) logits of B items, each given by its list of premise token
        lists and its hypothesis. With a dropout stream `rng` the masks are
        drawn from it item by item, so they equal those of B single-item
        calls in turn; without one there is no dropout."""
        return self._forward_batch(premises, hypotheses, rng)[0]

    def _forward_batch(self, premises, hypotheses, rng) -> tuple[Tensor, object]:
        """(logits (B, 3), the architecture's extras) of B items, each given
        by its list of premise token lists."""
        raise NotImplementedError

    def _read_premise(self, premise: Padded) -> tuple[Tensor, Tensor]:
        """Returns (premise hidden rows (B, T, k), final premise cell states)."""
        zero = _zero_state(len(premise.lengths), self.state_dim)
        return self.premise_cell.read(premise.rows, zero, zero, premise.lengths)

    def _read_hypothesis(self, hypothesis: Padded, c: Tensor) -> Tensor:
        """Hypothesis hidden rows (B, T, k), from zero hidden states and cell
        states c."""
        zero = _zero_state(len(hypothesis.lengths), self.state_dim)
        hidden, _ = self.hypothesis_cell.read(hypothesis.rows, zero, c, hypothesis.lengths)
        return hidden

    def _final_hidden(self, premise: Padded, hypothesis: Padded) -> tuple[Tensor, Tensor]:
        """(final premise hidden (B, k), final hypothesis hidden (B, k))."""
        premise_states, c = self._read_premise(premise)
        hypothesis_states = self._read_hypothesis(hypothesis, c)
        return (
            pick(premise_states, premise.lengths - 1),
            pick(hypothesis_states, hypothesis.lengths - 1),
        )

    def params(self) -> list[Tensor]:
        """Trainable tensors: the embedding matrix unless frozen, the special
        rows, each cell's tensors by sorted name, then the head."""
        main = [self.embeddings.main] if self.trainable_embeddings else []
        cells = self.premise_cell.params() + self.hypothesis_cell.params()
        return main + [self.embeddings.special] + cells + self.head

    def _meta(self) -> dict:
        return {
            "architecture": self.architecture,
            "dim": self.embeddings.dim,
            "state_dim": self.state_dim,
            "keep_prob": self.keep_prob,
            "trainable_embeddings": self.trainable_embeddings,
            "vocab": sorted(self.embeddings.vocab, key=self.embeddings.vocab.get),
        }

    def save(self, path: str | Path) -> None:
        arrays = {name: t.values for name, t in self.tensors.items()}
        save_checkpoint(path, arrays, self._meta())

    @classmethod
    def _restore(cls, arrays: dict[str, np.ndarray], meta: dict) -> "_ModelBase":
        """The model of a checkpoint's arrays, once their names and shapes
        match the table its meta implies; nothing is drawn."""
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise ValueError(f"checkpoint meta lacks {', '.join(map(repr, missing))}")
        if not all(type(meta[key]) is int for key in ("dim", "state_dim")):
            raise ValueError("checkpoint meta 'dim' and 'state_dim' must be integers")
        keep_prob = meta["keep_prob"]
        if type(keep_prob) not in (int, float) or not 0 < keep_prob <= 1:
            raise ValueError(
                f"checkpoint meta 'keep_prob' must be a number in (0, 1], got {_quote(keep_prob)}"
            )
        if type(meta["trainable_embeddings"]) is not bool:
            raise ValueError("checkpoint meta 'trainable_embeddings' must be true or false")
        if type(meta["vocab"]) is not list or not all(type(t) is str for t in meta["vocab"]):
            raise ValueError("checkpoint meta 'vocab' must be a list of strings")
        shapes = cls.shapes(len(meta["vocab"]), meta["dim"], meta["state_dim"])
        if set(shapes) != set(arrays):
            mismatched = sorted(set(shapes) ^ set(arrays))
            raise ValueError(
                f"checkpoint parameter names do not match: {_quote_list(mismatched)}"
            )
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(
                    f"checkpoint tensor {name} has shape {arrays[name].shape}, "
                    f"expected {shape}"
                )
        return cls(
            {token: row for row, token in enumerate(meta["vocab"])},
            {name: Tensor(arrays[name], name=name) for name in shapes},
            meta["state_dim"],
            meta["keep_prob"],
            meta["trainable_embeddings"],
        )


class ConditionalLstmModel(_ModelBase):
    """Premise-conditioned LSTM pair with a tanh hidden layer head.

    Multi-premise items are read as one separator-joined sequence.
    """

    architecture = "conditional-lstm"

    @classmethod
    def _head_shapes(cls, k: int) -> dict[str, tuple[int, ...]]:
        return {
            "hidden.W": (2 * k, k), "hidden.b": (k,), "output.W": (k, 3), "output.b": (3,)
        }

    def _forward_batch(self, premises, hypotheses, rng) -> tuple[Tensor, None]:
        hidden_w, hidden_b, out_w, out_b = self.head
        embed = self.embeddings.embed_batch
        joined = embed([concat_premises(p) for p in premises])
        premise_vec, hypothesis_vec = self._final_hidden(joined, embed(hypotheses))
        pair = dropout(concat([premise_vec, hypothesis_vec], axis=1), self.keep_prob, rng)
        hidden = tanh(add(matmul(pair, hidden_w), hidden_b))
        return add(matmul(hidden, out_w), out_b), None

    def forward(
        self,
        premise: Sequence[str],
        hypothesis: Sequence[str],
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        logits, _ = self._forward_batch([[premise]], [hypothesis], rng)
        return flatten(logits)


def _hold(new: Tensor, old: Tensor, live: np.ndarray) -> Tensor:
    """new on the rows where live is set, old on the others (both exact)."""
    keep = live.astype(np.float64)[:, None]
    return add(mul(new, Tensor(keep)), mul(old, Tensor(1.0 - keep)))


class AttentionModel(_ModelBase):
    """Word-by-word attention over premise positions.

    Each hypothesis step scores every premise hidden state, mixes them by
    softmax weight, and folds the mixture into a recurrent attention memory;
    the final memory and hypothesis vector form the pair representation. Over
    a batch, padded premise positions get no weight, and a row's attention
    memory is held once its hypothesis has ended.
    """

    architecture = "attention"

    ATTN_NAMES = ("Wy", "Wh", "Wr", "Wt", "Wp", "Wx")

    @classmethod
    def _head_shapes(cls, k: int) -> dict[str, tuple[int, ...]]:
        return {
            **{f"attention.{name}": (k, k) for name in cls.ATTN_NAMES},
            "attention.score": (k, 1),
            "output.W": (k, 3),
            "output.b": (3,),
        }

    def _forward_batch(self, premises, hypotheses, rng) -> tuple[Tensor, list[np.ndarray]]:
        wy, wh, wr, wt, wp, wx, score_w, out_w, out_b = self.head
        premise = self.embeddings.embed_batch([concat_premises(p) for p in premises])
        hypothesis = self.embeddings.embed_batch(hypotheses)
        memory, c = self._read_premise(premise)
        hypothesis_states = self._read_hypothesis(hypothesis, c)
        batch, span, k = memory.values.shape
        projected = matmul(memory, wy)
        # -inf on padded premise positions, so the softmax gives them no weight.
        padding = np.arange(span) >= premise.lengths[:, None]
        mask = Tensor(np.where(padding, -np.inf, 0.0)[:, :, None]) if padding.any() else None

        attention_state = _zero_state(batch, k)
        weights_rows = []
        for t in range(hypothesis.rows.values.shape[1]):
            h = pick(hypothesis_states, t)
            query = add(matmul(h, wh), matmul(attention_state, wr))
            scored = tanh(add(projected, reshape(query, (batch, 1, k))))
            scores = matmul(scored, score_w)
            weights = softmax(scores if mask is None else add(scores, mask), axis=1)
            weights_rows.append(weights.values[:, :, 0].copy())
            mixed = reshape(matmul(transpose(weights), memory), (batch, k))
            state = add(mixed, tanh(matmul(attention_state, wt)))
            live = t < hypothesis.lengths
            attention_state = state if live.all() else _hold(state, attention_state, live)
        last = pick(hypothesis_states, hypothesis.lengths - 1)
        pair = tanh(add(matmul(attention_state, wp), matmul(last, wx)))
        pair = dropout(pair, self.keep_prob, rng)
        logits = add(matmul(pair, out_w), out_b)
        weights = [
            np.stack([rows[i, :premise_len] for rows in weights_rows[:hypothesis_len]])
            for i, (premise_len, hypothesis_len) in enumerate(
                zip(premise.lengths, hypothesis.lengths)
            )
        ]
        return logits, weights

    def forward(
        self,
        premise: Sequence[str],
        hypothesis: Sequence[str],
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, np.ndarray]:
        logits, weights = self._forward_batch([[premise]], [hypothesis], rng)
        return flatten(logits), weights[0]


class SumOfExpertsModel(_ModelBase):
    """One premise LSTM and one hypothesis LSTM judged against each premise
    separately.

    Per-premise logits are produced by a shared affine head and summed in a
    canonical value-sorted tree, so any ordering of the same four premises
    yields bitwise-identical totals. A batch reads both LSTMs once per premise
    slot over its B items, never once over an item's premises: a row's
    product would then depend on its position among them.
    """

    architecture = "sum-of-experts"

    @classmethod
    def _head_shapes(cls, k: int) -> dict[str, tuple[int, ...]]:
        return {"experts.W": (2 * k, 3), "experts.b": (3,)}

    def _forward_batch(self, premises, hypotheses, rng) -> tuple[Tensor, list[Tensor]]:
        expert_w, expert_b = self.head
        slots = {len(p) for p in premises}
        if len(slots) != 1 or not slots <= {1, 4}:
            raise ValueError(f"need 1 or 4 premises per item, got {sorted(slots)}")
        (count,) = slots
        batch, k = len(premises), self.state_dim
        hypothesis = self.embeddings.embed_batch(hypotheses)
        vectors = []
        for slot in range(count):
            premise = self.embeddings.embed_batch([p[slot] for p in premises])
            vectors += self._final_hidden(premise, hypothesis)
        # One (B, slots, 2k) draw: each item's masks in premise order, as if
        # the items were read one after another.
        pairs = dropout(
            reshape(concat(vectors, axis=1), (batch, count, 2 * k)), self.keep_prob, rng
        )
        experts = [
            add(matmul(pick(pairs, slot), expert_w), expert_b)
            for slot in range(count)
        ]
        if count == 1:
            return experts[0], experts
        # Each item's experts in ascending value order, compared as tuples.
        values = np.stack([e.values for e in experts], axis=1)
        order = np.lexsort(values[:, :, ::-1].transpose(2, 0, 1), axis=-1)
        stacked = concat(experts)
        ranked = [lookup(stacked, order[:, r] * batch + np.arange(batch)) for r in range(4)]
        total = add(add(ranked[0], ranked[1]), add(ranked[2], ranked[3]))
        return total, experts

    def forward(
        self,
        premises: Sequence[Sequence[str]],
        hypothesis: Sequence[str],
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, list[Tensor]]:
        total, experts = self._forward_batch([premises], [hypothesis], rng)
        return flatten(total), [flatten(e) for e in experts]


ARCHITECTURES = {
    cls.architecture: cls
    for cls in (ConditionalLstmModel, AttentionModel, SumOfExpertsModel)
}


def load_model(path: str | Path) -> _ModelBase:
    """Restore a checkpoint as the architecture its meta names; every error
    names the path."""
    tensors, meta = load_checkpoint(path)
    try:
        arch = meta.get("architecture")
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture in checkpoint: {_quote(arch)}")
        return ARCHITECTURES[arch]._restore(tensors, meta)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
