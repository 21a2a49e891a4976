"""Entailment classifiers over the autodiff core.

Three architectures share one recipe: a premise LSTM whose final cell state
seeds a hypothesis LSTM, and a small feedforward head over the resulting
sentence vectors producing three logits (entailment, neutral, contradiction).

- ConditionalLstmModel reads the premise text as one sequence.
- AttentionModel adds word-by-word attention over premise positions with a
  recurrently updated attention memory.
- SumOfExpertsModel applies a shared conditional core to each premise
  separately and sums the per-premise logits in a canonical order, which
  makes the output bitwise invariant under premise reordering.

Everything the three share is written once on `_ModelBase`: construction
(`init` draws the embeddings, then the core, then the head, so a seed fixes
every weight), dropout, the "core → concat → dropout" pair reader, the
`params()` / `all_tensors()` lists, and checkpoint save and load. Each
architecture adds only its head (`_init_head`) and its `forward`.

`model.logits(premises, hypothesis)` is the one entry point callers use: it
takes the premises as a list of token lists, and each architecture says with
`joined_premises` whether to read them joined by `concat_premises` or one at
a time. `forward` is the architecture's own call form and also returns its
extras (attention weights, per-premise experts).

Each LSTM reads its whole sequence with one `autodiff.lstm_sequence` call:
`LstmCell` keeps its weights per gate (the checkpoint names
`<prefix>.<gate>.{Wx,Wh,b}`) and the op concatenates them at call time, so a
read is one tape entry whatever its length. `EmbeddingTable.embed` returns a
token sequence as one (T, dim) tensor gathered by id arrays. Attention keeps
a per-step loop only for its attention recurrence and picks each hypothesis
hidden row with `lookup`; sum-of-experts makes one core call per premise.

All weights are float64 tensors named for checkpointing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

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
    save_checkpoint,
    softmax,
    tanh,
    transpose,
)

UNK_TOKEN = "<unk>"
SEPARATOR = "<sep>"

INIT_SCALE = 0.1
FORGET_BIAS = 1.0


def concat_premises(
    premises: Sequence[Sequence[str]], separator: str = SEPARATOR
) -> list[str]:
    """Join premise token sequences in order, one separator between each."""
    if not premises:
        raise ValueError("need at least one premise")
    joined: list[str] = []
    for i, premise in enumerate(premises):
        if i:
            joined.append(separator)
        joined.extend(premise)
    return joined


def _weight(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    return Tensor(rng.normal(scale=INIT_SCALE, size=shape), watched=True, name=name)


class EmbeddingTable:
    """Token embeddings: a vocabulary matrix plus always-trainable rows for
    the unknown token and the premise separator."""

    def __init__(
        self,
        vocab: Mapping[str, int],
        main: Tensor,
        special: Tensor,
        trainable: bool,
    ):
        if main.values.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-d, got {main.shape}")
        rows, dim = main.values.shape
        if special.values.shape != (2, dim):
            raise ValueError(
                f"special rows must have shape (2, {dim}), got {special.values.shape}"
            )
        if len(vocab) != rows or sorted(vocab.values()) != list(range(rows)):
            raise ValueError("vocabulary must map tokens onto rows 0..V-1 exactly")
        if UNK_TOKEN in vocab or SEPARATOR in vocab:
            raise ValueError("reserved tokens cannot appear in the vocabulary")
        self.vocab = dict(vocab)
        self.main = main
        self.special = special
        self.trainable = trainable

    @property
    def dim(self) -> int:
        return self.main.values.shape[1]

    @classmethod
    def random(
        cls,
        tokens: Sequence[str],
        dim: int,
        rng: np.random.Generator,
        trainable: bool = True,
    ) -> "EmbeddingTable":
        ordered = sorted({t for t in tokens if t not in (UNK_TOKEN, SEPARATOR)})
        matrix = rng.normal(scale=INIT_SCALE, size=(len(ordered), dim))
        return cls._build(ordered, matrix, rng, trainable)

    @classmethod
    def from_vectors(
        cls,
        vectors: Mapping[str, Sequence[float]],
        rng: np.random.Generator,
        trainable: bool = False,
    ) -> "EmbeddingTable":
        ordered = sorted(t for t in vectors if t not in (UNK_TOKEN, SEPARATOR))
        if not ordered:
            raise ValueError("no vectors supplied")
        dim = len(vectors[ordered[0]])
        matrix = np.empty((len(ordered), dim))
        for i, token in enumerate(ordered):
            row = np.asarray(vectors[token], dtype=np.float64)
            if row.shape != (dim,):
                raise ValueError(
                    f"vector for {token!r} has length {row.shape[0]}, expected {dim}"
                )
            matrix[i] = row
        return cls._build(ordered, matrix, rng, trainable)

    @classmethod
    def _build(
        cls,
        ordered: Sequence[str],
        matrix: np.ndarray,
        rng: np.random.Generator,
        trainable: bool,
    ) -> "EmbeddingTable":
        """Rows of `matrix` in `ordered` token order, plus freshly drawn UNK
        and separator rows."""
        special = _weight("embeddings.special", (2, matrix.shape[1]), rng)
        main = Tensor(matrix, watched=trainable, name="embeddings.main")
        vocab = {token: i for i, token in enumerate(ordered)}
        return cls(vocab, main, special, trainable)

    def embed(self, tokens: Sequence[str]) -> Tensor:
        """The (T, dim) rows of a token sequence; unknown words share the UNK
        row. Vocabulary and special rows are gathered by id arrays, then put
        back in token order."""
        if not tokens:
            raise ValueError("cannot embed an empty token sequence")
        ids = [self.vocab.get(token) for token in tokens]
        main_at = [p for p, i in enumerate(ids) if i is not None]
        special_at = [p for p, i in enumerate(ids) if i is None]
        parts = []
        if main_at:
            parts.append(lookup(self.main, [ids[p] for p in main_at]))
        if special_at:
            rows = [int(tokens[p] == SEPARATOR) for p in special_at]
            parts.append(lookup(self.special, rows))
        if len(parts) == 1:
            return parts[0]
        # argsort of the stacked positions is the row of each token in the stack.
        return lookup(concat(parts), np.argsort(main_at + special_at))

    def params(self) -> list[Tensor]:
        return [self.main, self.special] if self.trainable else [self.special]

    def all_tensors(self) -> dict[str, Tensor]:
        return {self.main.name: self.main, self.special.name: self.special}


def load_pretrained_vectors(path: str | Path) -> dict[str, list[float]]:
    """Parse a text file of `token v1 .. vd` lines into a vector table."""
    path = Path(path)
    vectors: dict[str, list[float]] = {}
    dim: int | None = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split(" ")
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
                raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
            vectors[token] = values
    if not vectors:
        raise ValueError(f"{path}: no vectors found")
    return vectors


class LstmCell:
    """One LSTM layer's weights: input/forget/output gates and candidate,
    stored per gate and read through the fused `lstm_sequence` op."""

    GATES = ("input", "forget", "output", "candidate")

    def __init__(
        self,
        tensors: dict[str, Tensor],
        input_dim: int,
        state_dim: int,
        prefix: str,
    ):
        self.tensors = tensors
        self.input_dim = input_dim
        self.state_dim = state_dim
        self.prefix = prefix
        self._gates = tuple(
            [tensors[f"{prefix}.{gate}.{part}"] for gate in self.GATES]
            for part in ("Wx", "Wh", "b")
        )

    @classmethod
    def random(
        cls, input_dim: int, state_dim: int, rng: np.random.Generator, prefix: str
    ) -> "LstmCell":
        tensors: dict[str, Tensor] = {}
        for gate in cls.GATES:
            for suffix, shape in (
                ("Wx", (input_dim, state_dim)),
                ("Wh", (state_dim, state_dim)),
            ):
                name = f"{prefix}.{gate}.{suffix}"
                tensors[name] = _weight(name, shape, rng)
            bias = np.zeros(state_dim)
            if gate == "forget":
                bias += FORGET_BIAS
            name = f"{prefix}.{gate}.b"
            tensors[name] = Tensor(bias, watched=True, name=name)
        return cls(tensors, input_dim, state_dim, prefix)

    def read(self, rows: Tensor, h0: Tensor, c0: Tensor) -> tuple[Tensor, Tensor]:
        """(hidden rows (T, k), final cell state) over input rows (T, d)."""
        return lstm_sequence(rows, h0, c0, *self._gates)

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """One step: the T = 1 read of a (1, d) input row."""
        return self.read(x, h_prev, c_prev)

    def params(self) -> list[Tensor]:
        return [self.tensors[name] for name in sorted(self.tensors)]


def _zero_state(state_dim: int) -> Tensor:
    return Tensor(np.zeros((1, state_dim)))


def _last_row(rows: Tensor) -> Tensor:
    return lookup(rows, [rows.values.shape[0] - 1])


class ConditionalCore:
    """Premise LSTM feeding its final cell state into a hypothesis LSTM.

    The hypothesis LSTM starts from a zero hidden state; only the cell state
    carries over. Each LSTM reads its whole sequence in one op.
    """

    def __init__(self, premise_cell: LstmCell, hypothesis_cell: LstmCell):
        self.premise_cell = premise_cell
        self.hypothesis_cell = hypothesis_cell
        self.state_dim = premise_cell.state_dim

    @classmethod
    def random(
        cls, input_dim: int, state_dim: int, rng: np.random.Generator
    ) -> "ConditionalCore":
        return cls(
            LstmCell.random(input_dim, state_dim, rng, "premise_lstm"),
            LstmCell.random(input_dim, state_dim, rng, "hypothesis_lstm"),
        )

    def read_premise(self, premise_rows: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (premise hidden rows (T, k), final premise cell state)."""
        zero = _zero_state(self.state_dim)
        return self.premise_cell.read(premise_rows, zero, zero)

    def read_hypothesis(self, hypothesis_rows: Tensor, c: Tensor) -> Tensor:
        """Hypothesis hidden rows (T, k), from a zero hidden state and cell state c."""
        hidden, _ = self.hypothesis_cell.read(
            hypothesis_rows, _zero_state(self.state_dim), c
        )
        return hidden

    def run(
        self, premise_rows: Tensor, hypothesis_rows: Tensor
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (premise hidden rows, final premise hidden, final
        hypothesis hidden)."""
        premise_states, c = self.read_premise(premise_rows)
        hypothesis_states = self.read_hypothesis(hypothesis_rows, c)
        return premise_states, _last_row(premise_states), _last_row(hypothesis_states)

    def params(self) -> list[Tensor]:
        return self.premise_cell.params() + self.hypothesis_cell.params()


def _affine(name: str, rows: int, cols: int, rng: np.random.Generator):
    w = _weight(f"{name}.W", (rows, cols), rng)
    b = Tensor(np.zeros(cols), watched=True, name=f"{name}.b")
    return w, b


# Checkpoint meta fields `_restore` needs besides the architecture.
_META_KEYS = ("dim", "state_dim", "keep_prob", "trainable_embeddings", "vocab")


class _ModelBase:
    """Embeddings, one conditional core and a head; subclasses name the head
    tensors in `_init_head` and define `forward`."""

    architecture = ""
    # True: `forward` reads the premises joined by `concat_premises`; False:
    # it takes the list of premises itself.
    joined_premises = True
    head: list[Tensor]

    def __init__(
        self, embeddings: EmbeddingTable, core: ConditionalCore, keep_prob: float
    ):
        self.embeddings = embeddings
        self.core = core
        self.keep_prob = keep_prob
        self.state_dim = core.state_dim

    @classmethod
    def init(
        cls,
        vocab_tokens: Sequence[str],
        dim: int,
        state_dim: int,
        rng: np.random.Generator,
        keep_prob: float = 1.0,
        trainable_embeddings: bool = True,
        embeddings: EmbeddingTable | None = None,
    ) -> "_ModelBase":
        """Fresh weights, drawn from `rng` in a fixed order: embeddings (unless
        given), then the core, then the head."""
        emb = embeddings or EmbeddingTable.random(
            vocab_tokens, dim, rng, trainable_embeddings
        )
        model = cls(emb, ConditionalCore.random(emb.dim, state_dim, rng), keep_prob)
        model._init_head(rng)
        return model

    def _init_head(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def _dropout(
        self, x: Tensor, train: bool, rng: np.random.Generator | None
    ) -> Tensor:
        if train and rng is None:
            raise ValueError("training mode needs a dropout rng")
        return dropout(x, self.keep_prob, rng, train=train)

    def _pair(
        self,
        premise_rows: Tensor,
        hypothesis_rows: Tensor,
        train: bool,
        rng: np.random.Generator | None,
    ) -> Tensor:
        """The final premise and hypothesis hidden states side by side,
        (1, 2k), after dropout."""
        _, premise_vec, hypothesis_vec = self.core.run(premise_rows, hypothesis_rows)
        return self._dropout(concat([premise_vec, hypothesis_vec], axis=1), train, rng)

    def logits(
        self,
        premises: Sequence[Sequence[str]],
        hypothesis: Sequence[str],
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """The 3 logits for a list of premise token lists."""
        if self.joined_premises:
            premises = concat_premises(premises)
        out = self.forward(premises, hypothesis, train=train, rng=rng)
        return out[0] if isinstance(out, tuple) else out

    def params(self) -> list[Tensor]:
        """Trainable tensors: embeddings, then the core, then the head."""
        return self.embeddings.params() + self.core.params() + self.head

    def all_tensors(self) -> dict[str, Tensor]:
        """Every named tensor, frozen embeddings included; the checkpoint set."""
        tensors = self.embeddings.all_tensors()
        for t in self.core.params() + self.head:
            tensors[t.name] = t
        return tensors

    def _meta(self) -> dict:
        return {
            "architecture": self.architecture,
            "dim": self.embeddings.dim,
            "state_dim": self.state_dim,
            "keep_prob": self.keep_prob,
            "trainable_embeddings": self.embeddings.trainable,
            "vocab": sorted(self.embeddings.vocab, key=self.embeddings.vocab.get),
        }

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self.all_tensors(), self._meta())

    @classmethod
    def _restore(cls, tensors: dict[str, np.ndarray], meta: dict) -> "_ModelBase":
        if meta.get("architecture") != cls.architecture:
            raise ValueError(
                f"checkpoint holds {meta.get('architecture')!r}, "
                f"expected {cls.architecture!r}"
            )
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise ValueError(f"checkpoint meta lacks {', '.join(map(repr, missing))}")
        model = cls.init(
            vocab_tokens=meta["vocab"],
            dim=meta["dim"],
            state_dim=meta["state_dim"],
            rng=np.random.default_rng(0),
            keep_prob=meta["keep_prob"],
            trainable_embeddings=meta["trainable_embeddings"],
        )
        own = model.all_tensors()
        if set(own) != set(tensors):
            missing = sorted(set(own) ^ set(tensors))
            raise ValueError(f"checkpoint parameter names do not match: {missing}")
        for name, values in tensors.items():
            if own[name].values.shape != values.shape:
                raise ValueError(
                    f"checkpoint tensor {name} has shape {values.shape}, "
                    f"expected {own[name].values.shape}"
                )
            own[name].values = values.copy()
        return model

    @classmethod
    def load(cls, path: str | Path) -> "_ModelBase":
        return _load(path, cls)


class ConditionalLstmModel(_ModelBase):
    """Premise-conditioned LSTM pair with a tanh hidden layer head.

    Multi-premise items are read as one separator-joined sequence.
    """

    architecture = "conditional-lstm"

    def _init_head(self, rng: np.random.Generator) -> None:
        k = self.state_dim
        self.hidden_w, self.hidden_b = _affine("hidden", 2 * k, k, rng)
        self.out_w, self.out_b = _affine("output", k, 3, rng)
        self.head = [self.hidden_w, self.hidden_b, self.out_w, self.out_b]

    def forward(
        self,
        premise: Sequence[str],
        hypothesis: Sequence[str],
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        pair = self._pair(
            self.embeddings.embed(premise), self.embeddings.embed(hypothesis), train, rng
        )
        hidden = tanh(add(matmul(pair, self.hidden_w), self.hidden_b))
        return flatten(add(matmul(hidden, self.out_w), self.out_b))


class AttentionModel(_ModelBase):
    """Word-by-word attention over premise positions.

    Each hypothesis step scores every premise hidden state, mixes them by
    softmax weight, and folds the mixture into a recurrent attention memory;
    the final memory and hypothesis vector form the pair representation.
    """

    architecture = "attention"

    ATTN_NAMES = ("Wy", "Wh", "Wr", "Wt", "Wp", "Wx")

    def _init_head(self, rng: np.random.Generator) -> None:
        k = self.state_dim
        self.attn = {s: _weight(f"attention.{s}", (k, k), rng) for s in self.ATTN_NAMES}
        self.score_w = _weight("attention.score", (k, 1), rng)
        self.out_w, self.out_b = _affine("output", k, 3, rng)
        self.head = [*self.attn.values(), self.score_w, self.out_w, self.out_b]

    def forward(
        self,
        premise: Sequence[str],
        hypothesis: Sequence[str],
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, np.ndarray]:
        memory, c = self.core.read_premise(self.embeddings.embed(premise))
        hypothesis_states = self.core.read_hypothesis(
            self.embeddings.embed(hypothesis), c
        )
        projected = matmul(memory, self.attn["Wy"])

        attention_state = _zero_state(self.state_dim)
        weights_rows = []
        for t in range(len(hypothesis)):
            h = lookup(hypothesis_states, [t])
            query = add(
                matmul(h, self.attn["Wh"]), matmul(attention_state, self.attn["Wr"])
            )
            scored = tanh(add(projected, query))
            weights = softmax(matmul(scored, self.score_w), axis=0)
            weights_rows.append(weights.values[:, 0].copy())
            mixed = matmul(transpose(weights), memory)
            attention_state = add(
                mixed, tanh(matmul(attention_state, self.attn["Wt"]))
            )
        pair = tanh(
            add(
                matmul(attention_state, self.attn["Wp"]),
                matmul(h, self.attn["Wx"]),
            )
        )
        pair = self._dropout(pair, train, rng)
        logits = flatten(add(matmul(pair, self.out_w), self.out_b))
        return logits, np.stack(weights_rows)


class SumOfExpertsModel(_ModelBase):
    """One shared conditional core judged against each premise separately.

    Per-premise logits are produced by a shared affine head and summed in a
    canonical value-sorted tree, so any ordering of the same four premises
    yields bitwise-identical totals.
    """

    architecture = "sum-of-experts"
    joined_premises = False

    def _init_head(self, rng: np.random.Generator) -> None:
        self.expert_w, self.expert_b = _affine("experts", 2 * self.state_dim, 3, rng)
        self.head = [self.expert_w, self.expert_b]

    def forward(
        self,
        premises: Sequence[Sequence[str]],
        hypothesis: Sequence[str],
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, list[Tensor]]:
        if len(premises) not in (1, 4):
            raise ValueError(f"need 1 or 4 premises, got {len(premises)}")
        hypothesis_rows = self.embeddings.embed(hypothesis)
        experts = []
        for premise in premises:
            pair = self._pair(self.embeddings.embed(premise), hypothesis_rows, train, rng)
            experts.append(flatten(add(matmul(pair, self.expert_w), self.expert_b)))
        if len(experts) == 1:
            return experts[0], experts
        ranked = sorted(experts, key=lambda t: tuple(t.values.tolist()))
        total = add(add(ranked[0], ranked[1]), add(ranked[2], ranked[3]))
        return total, experts


ARCHITECTURES = {
    cls.architecture: cls
    for cls in (ConditionalLstmModel, AttentionModel, SumOfExpertsModel)
}


def _load(path: str | Path, cls: type[_ModelBase] | None) -> _ModelBase:
    """Restore a checkpoint as `cls`, or as its own architecture when None;
    every error names the path."""
    tensors, meta = load_checkpoint(path)
    try:
        if cls is None:
            arch = meta.get("architecture")
            if arch not in ARCHITECTURES:
                raise ValueError(f"unknown architecture in checkpoint: {arch!r}")
            cls = ARCHITECTURES[arch]
        return cls._restore(tensors, meta)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_model(path: str | Path) -> _ModelBase:
    """Load any checkpoint, dispatching on its architecture field."""
    return _load(path, None)
