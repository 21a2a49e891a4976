"""Embeddings, LSTM cells, and the three entailment architectures."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from mpe.autodiff import (
    ShapeError,
    Tape,
    Tensor,
    concat,
    cross_entropy,
    flatten,
    grad_check,
    lookup,
    mul,
    save_checkpoint,
    tanh,
    tensor_sum,
)
from mpe.models import (
    ARCHITECTURES,
    AttentionModel,
    ConditionalLstmModel,
    EmbeddingTable,
    INIT_SCALE,
    LstmCell,
    Padded,
    SEPARATOR,
    SumOfExpertsModel,
    UNK_TOKEN,
    concat_premises,
    initial_tensors,
    load_model,
    load_pretrained_vectors,
)
from mpe.training import PRESETS, TrainConfig, build_model

VOCAB = ["girl", "run", "dog", "jump", "man", "cook", "woman", "sing", "fast"]

PREMISE = ["girl", "run", "fast"]
HYPOTHESIS = ["woman", "run"]
FOUR_PREMISES = [
    ["girl", "run", "fast"],
    ["man", "cook"],
    ["dog", "jump", "fast"],
    ["woman", "sing"],
]


def zero_params(model) -> None:
    for p in model.params():
        p.values[...] = 0.0


def fresh(arch, dim, state_dim, seed, vocab=VOCAB, **settings):
    """A `build_model` model of `arch` over `vocab`; dropout off unless given."""
    settings.setdefault("keep_prob", 1.0)
    config = TrainConfig(
        model=arch, embedding_dim=dim, state_dim=state_dim, seed=seed, **settings
    )
    return build_model(config, vocab)


def make_embeddings():
    """A 4-wide table over VOCAB, drawn from seed 0 as a model's are."""
    return fresh("conditional-lstm", 4, 1, 0).embeddings


def make_cell(dim, state_dim, rng):
    tensors = initial_tensors(LstmCell.shapes("cell", dim, state_dim), rng)
    return LstmCell(tensors, "cell")


class TestConcatPremises:
    def test_separator_count_and_length(self):
        premises = [["w"] * n for n in (5, 6, 7, 8)]
        joined = concat_premises(premises)
        assert len(joined) == 29
        assert joined.count(SEPARATOR) == 3

    def test_order_preserved(self):
        joined = concat_premises([["a", "b"], ["c"]])
        assert joined == ["a", "b", SEPARATOR, "c"]

    def test_single_premise_identity(self):
        assert concat_premises([["a", "b"]]) == ["a", "b"]

    def test_permutation_changes_sequence(self):
        a = concat_premises([["x"], ["y"]])
        b = concat_premises([["y"], ["x"]])
        assert a != b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_premises([])


class TestEmbeddingTable:
    def table(self):
        return make_embeddings()

    def test_vocabulary_rows_sorted_and_dense(self):
        table = self.table()
        assert list(table.vocab) == sorted(VOCAB)
        assert sorted(table.vocab.values()) == list(range(len(VOCAB)))
        assert table.main.values.shape == (len(VOCAB), 4)
        assert table.dim == 4

    def test_known_token_uses_its_row(self):
        table = self.table()
        row = table.embed(["dog"])
        assert np.array_equal(row.values[0], table.main.values[table.vocab["dog"]])

    def test_unknown_token_uses_unk_row(self):
        table = self.table()
        row = table.embed(["zebra"])
        assert np.array_equal(row.values[0], table.special.values[0])

    def test_separator_uses_its_own_row(self):
        table = self.table()
        row = table.embed([SEPARATOR])
        assert np.array_equal(row.values[0], table.special.values[1])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            self.table().embed([])

    def test_mixed_sequence_rows_and_gradients_follow_token_order(self):
        table = self.table()
        tokens = ["dog", "zebra", SEPARATOR, "girl", "dog"]
        main, special = table.main.values, table.special.values
        dog, girl = table.vocab["dog"], table.vocab["girl"]
        with Tape() as tape:
            rows = table.embed(tokens)
            weights = Tensor(np.arange(1.0, 6.0)[:, None] * np.ones((5, 4)))
            loss = tensor_sum(mul(rows, weights))
        expected = np.stack([main[dog], special[0], special[1], main[girl], main[dog]])
        assert np.array_equal(rows.values, expected)
        tape.backward(loss)
        assert np.array_equal(table.main.grad[dog], np.full(4, 1.0 + 5.0))
        assert np.array_equal(table.main.grad[girl], np.full(4, 4.0))
        assert np.array_equal(table.special.grad, [np.full(4, 2.0), np.full(4, 3.0)])

    def test_trainable_flag_controls_params(self):
        for trainable, names in (
            (True, ["embeddings.main", "embeddings.special"]),
            (False, ["embeddings.special"]),
        ):
            model = fresh("conditional-lstm", 4, 1, 0, trainable_embeddings=trainable)
            params = [t.name for t in model.params()]
            assert [n for n in params if n.startswith("embeddings.")] == names

    def test_reserved_tokens_rejected_in_vocab(self):
        table = self.table()
        with pytest.raises(ValueError):
            EmbeddingTable({UNK_TOKEN: 0}, Tensor(np.zeros((1, 4))), table.special)

    def test_tokens_name_each_row_once(self):
        table = self.table()
        with pytest.raises(ValueError, match="vocabulary repeats token 'a'"):
            EmbeddingTable(["a", "b", "a"], Tensor(np.zeros((3, 4))), table.special)
        with pytest.raises(ValueError, match="2 tokens for 3 rows"):
            EmbeddingTable(["a", "b"], Tensor(np.zeros((3, 4))), table.special)

    def test_from_vectors_exact_and_trainable_per_config(self):
        vectors = {"b": [1.0, 2.0], "a": [3.0, 4.0]}
        for trainable in (True, False):
            config = TrainConfig(embedding_dim=2, trainable_embeddings=trainable)
            model = build_model(config, VOCAB, vectors)
            table = model.embeddings
            assert list(table.vocab) == ["a", "b"]
            assert np.array_equal(table.main.values, [[3.0, 4.0], [1.0, 2.0]])
            assert model.trainable_embeddings is trainable
            assert (table.main in model.params()) is trainable

    def test_from_vectors_length_mismatch(self):
        config = TrainConfig(embedding_dim=1)
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            build_model(config, VOCAB, {"a": [1.0], "b": [1.0, 2.0]})
        with pytest.raises(ValueError, match="no vectors supplied"):
            build_model(config, VOCAB, {})
        with pytest.raises(ValueError, match="embedding_dim 1 differs"):
            build_model(config, VOCAB, {"a": [1.0, 2.0]})


def joined_gather(main: Tensor, special: Tensor, ids: np.ndarray) -> Tensor:
    """Reference embedding gather, -1 marking a zero padding row: one lookup
    of all-vocabulary or all-special ids, else one lookup per kind of row,
    joined with `concat` and gathered again by position. The one-lookup
    gather of `EmbeddingTable` must match it bit for bit."""
    vocab_size, dim = main.values.shape[0], special.values.shape[-1]
    kinds = (
        (main, (ids >= 0) & (ids < vocab_size), 0),
        (special, ids >= vocab_size, vocab_size),
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
        parts.append(Tensor(np.zeros((1, dim))))
        position[padding] = start
    return lookup(concat(parts), position)


def table_gather(main: Tensor, special: Tensor, ids: np.ndarray) -> Tensor:
    vocab = {f"w{row}": row for row in range(len(main.values))}
    return EmbeddingTable(vocab, main, special)._gather(ids)


GATHERS = {"joined": joined_gather, "table": table_gather}


class TestGatherMatchesJoinedLookups:
    """`EmbeddingTable._gather` against the reference composition: the same
    output and gradient bytes, and the same refusals. V = 5 vocabulary rows,
    so id 5 is UNK, 6 the separator and -1 padding."""

    def tables(self, seed=0):
        rng = np.random.default_rng(seed)
        main = Tensor(rng.normal(size=(5, 3)), name="main")
        special = Tensor(rng.normal(size=(2, 3)), name="special")
        return main, special

    def draws(self, calls, prior_grad):
        """(prior gradients of main and special or None, one weight array per
        call) with magnitudes spanning twelve decades, so the bits of a sum
        depend on the order of its terms."""
        rng = np.random.default_rng(1)

        def draw(shape):
            return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)

        prior = (draw((5, 3)), draw((2, 3))) if prior_grad else None
        return prior, [draw(np.shape(ids) + (3,)) for ids in calls]

    def run(self, gather, calls, prior_grad):
        """Output bytes of each call's gather, and gradient bytes (None if
        never set) of one backward through the weighted sum of them all."""
        main, special = self.tables()
        prior, weights = self.draws(calls, prior_grad)
        if prior:
            main.grad, special.grad = (g.copy() for g in prior)
        with Tape() as tape:
            outs = [gather(main, special, np.array(ids)) for ids in calls]
            weighted = [mul(out, Tensor(w)) for out, w in zip(outs, weights)]
            loss = tensor_sum(concat([flatten(w) for w in weighted]))
        tape.backward(loss)
        grads = [t.grad.tobytes() if t.grad is not None else None for t in (main, special)]
        return [out.values.tobytes() for out in outs], grads

    def scattered(self, calls, prior_grad):
        """Gradient bytes by the rule in numpy: the calls in reverse (tape)
        order, each adding its weight rows into each table's gradient rows in
        row-major order of occurrence."""
        prior, weights = self.draws(calls, prior_grad)
        grads = prior or (np.zeros((5, 3)), np.zeros((2, 3)))
        for ids, w in reversed(list(zip(map(np.array, calls), weights))):
            np.add.at(grads[0], ids[(ids >= 0) & (ids < 5)], w[(ids >= 0) & (ids < 5)])
            np.add.at(grads[1], ids[ids >= 5] - 5, w[ids >= 5])
        return [g.tobytes() for g in grads]

    @pytest.mark.parametrize(
        "calls",
        [
            [[[0, 3, 4], [2, 1, 0]]],
            [[[5, 0, 6, 2], [6, 5, -1, -1]]],
            [[3, 3, 1, 3, 3]],
            [[[4, 2, 4], [4, 5, -1]], [4, 6, 4, 4]],
        ],
        ids=["vocabulary", "unk-sep-padding", "repeated-row", "two-calls"],
    )
    @pytest.mark.parametrize("prior_grad", [False, True], ids=["zero", "prior"])
    def test_output_and_gradient_bytes(self, calls, prior_grad):
        outs, grads = self.run(table_gather, calls, prior_grad)
        assert (outs, grads) == self.run(joined_gather, calls, prior_grad)
        # A table no id reaches keeps a gradient of None, zero by the rule.
        zeros = [np.zeros(shape).tobytes() for shape in ((5, 3), (2, 3))]
        grads = [z if g is None else g for g, z in zip(grads, zeros)]
        assert grads == self.scattered(calls, prior_grad)

    @pytest.mark.parametrize("gather", GATHERS.values(), ids=GATHERS.keys())
    def test_gradcheck_over_two_tables(self, gather):
        main, special = self.tables(seed=2)
        ids = np.array([[1, 5, 4], [6, 1, -1]])
        weights = Tensor(np.random.default_rng(3).normal(size=(2, 3, 3)))
        report = grad_check(
            lambda: tensor_sum(mul(tanh(gather(main, special, ids)), weights)),
            [main, special],
            np.random.default_rng(4),
        )
        assert report.passed, report.worst_by_param

    @pytest.mark.parametrize("gather", GATHERS.values(), ids=GATHERS.keys())
    def test_refusals(self, gather):
        main, special = self.tables()
        with pytest.raises(ShapeError):
            gather(main, Tensor(np.zeros(3)), np.array([0, 5]))
        with pytest.raises(ShapeError):
            gather(main, special, np.array([], dtype=np.intp))
        with pytest.raises(ValueError):
            gather(main, special, np.array([0, 7]))
        with pytest.raises(ShapeError):
            gather(main, Tensor(np.zeros((2, 4))), np.array([0, 5]))


class TestPretrainedVectorFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0\ndog 3.5 -4.0\n")
        vectors = load_pretrained_vectors(path)
        assert all(row.dtype == np.float64 for row in vectors.values())
        assert {t: row.tolist() for t, row in vectors.items()} == {
            "cat": [1.0, 2.0],
            "dog": [3.5, -4.0],
        }

    def test_error_lines_are_located(self, tmp_path):
        cases = [
            ("cat 1.0\ndog\n", "2"),
            ("cat 1.0\ndog 2.0 3.0\n", "2"),
            ("cat x\n", "1"),
            ("cat 1.0\ncat 2.0\n", "2"),
        ]
        for body, lineno in cases:
            path = tmp_path / "bad.txt"
            path.write_text(body)
            with pytest.raises(ValueError) as exc:
                load_pretrained_vectors(path)
            assert f":{lineno}:" in str(exc.value)

    @pytest.mark.parametrize("body", ["cat nan 1.0\n", "cat 1.0 2.0\ndog inf 2\n"])
    def test_non_finite_component_located(self, tmp_path, body):
        path = tmp_path / "vecs.txt"
        path.write_text(body)
        lineno = body.count("\n")
        with pytest.raises(ValueError, match=f":{lineno}: non-finite component"):
            load_pretrained_vectors(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_pretrained_vectors(path)

    @pytest.mark.parametrize("reserved", [UNK_TOKEN, SEPARATOR])
    def test_reserved_lines_checked_then_left_out(self, tmp_path, reserved):
        path = tmp_path / "vecs.txt"
        path.write_text(f"cat 1.0 2.0\n{reserved} 3.0\n")
        with pytest.raises(ValueError, match=":2: expected 2 components, got 1"):
            load_pretrained_vectors(path)
        path.write_text(f"cat 1.0 2.0\n{reserved} 3.0 nan\n")
        with pytest.raises(ValueError, match=":2: non-finite component"):
            load_pretrained_vectors(path)
        path.write_text(f"{reserved} 3.0 4.0\ncat 1.0 2.0\n{reserved} 5.0 6.0\n")
        with pytest.raises(ValueError, match=f":3: duplicate token '{reserved}'"):
            load_pretrained_vectors(path)
        path.write_text(f"{reserved} 3.0 4.0\ncat 1.0 2.0\n")
        assert list(load_pretrained_vectors(path)) == ["cat"]

    def test_load_and_build_peak_memory_within_three_matrices(self, tmp_path):
        """Loading a 2,000 x 100 file and building a model over it holds at
        most three times the float64 matrix's bytes at once."""
        rows, dim = 2000, 100
        rng = np.random.default_rng(0)
        path = tmp_path / "vecs.txt"
        with path.open("w") as f:
            for i, row in enumerate(rng.normal(size=(rows, dim))):
                f.write(f"w{i:04d} " + " ".join(f"{v:.6f}" for v in row) + "\n")
        config = TrainConfig(embedding_dim=dim, state_dim=2)
        tracemalloc.start()
        try:
            model = build_model(config, [], load_pretrained_vectors(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.embeddings.main.values.shape == (rows, dim)
        assert peak <= 3 * rows * dim * 8


def reference_lstm_step(cell: LstmCell, x, h, c):
    """Textbook gate equations in plain numpy."""
    weights = {
        name.split(".", 1)[1]: t.values for name, t in cell.tensors.items()
    }

    def gate(g):
        return x @ weights[f"{g}.Wx"] + h @ weights[f"{g}.Wh"] + weights[f"{g}.b"]

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    i, f, o = sig(gate("input")), sig(gate("forget")), sig(gate("output"))
    candidate = np.tanh(gate("candidate"))
    c_next = f * c + i * candidate
    return o * np.tanh(c_next), c_next


class TestLstmCell:
    def make(self, seed=0):
        return make_cell(2, 3, np.random.default_rng(seed))

    def test_twelve_named_tensors(self):
        cell = self.make()
        assert len(cell.params()) == 12
        names = {t.name for t in cell.params()}
        assert len(names) == 12
        assert all(name.startswith("cell.") for name in names)

    def test_forget_bias_initialized_to_one(self):
        cell = self.make()
        assert np.array_equal(cell.tensors["cell.forget.b"].values, np.ones(3))
        assert np.array_equal(cell.tensors["cell.input.b"].values, np.zeros(3))

    def test_zero_weights_zero_inputs_give_zero_state(self):
        cell = self.make()
        for t in cell.params():
            t.values[...] = 0.0
        h, c = cell.step(
            Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3)))
        )
        assert np.array_equal(h.values, np.zeros((1, 3)))
        assert np.array_equal(c.values, np.zeros((1, 3)))

    def test_saturated_forget_gate_preserves_cell_state(self):
        cell = self.make()
        for t in cell.params():
            t.values[...] = 0.0
        cell.tensors["cell.forget.b"].values[...] = 50.0
        cell.tensors["cell.input.b"].values[...] = -50.0
        c_prev = Tensor(np.array([[0.3, -1.2, 0.8]]))
        _, c = cell.step(Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 3))), c_prev)
        assert np.allclose(c.values, c_prev.values, atol=1e-12)

    def test_step_matches_hand_equations(self):
        cell = self.make(seed=3)
        rng = np.random.default_rng(4)
        x, h0, c0 = rng.normal(size=(1, 2)), rng.normal(size=(1, 3)), rng.normal(
            size=(1, 3)
        )
        h, c = cell.step(Tensor(x), Tensor(h0), Tensor(c0))
        expected_h, expected_c = reference_lstm_step(cell, x, h0, c0)
        assert np.max(np.abs(h.values - expected_h)) < 1e-12
        assert np.max(np.abs(c.values - expected_c)) < 1e-12

    def test_read_matches_a_loop_of_reference_steps(self):
        cell = make_cell(5, 6, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(9, 5))
        h, c = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        hidden, final_c = cell.read(Tensor(x[None]), Tensor(h), Tensor(c))
        rows = []
        for row in x:
            h, c = reference_lstm_step(cell, row[None], h, c)
            rows.append(h[0])
        assert np.max(np.abs(hidden.values - np.stack(rows))) <= 1e-12
        assert np.max(np.abs(final_c.values - c)) <= 1e-12


class TestConditionalEncoding:
    """The two LSTM reads every architecture shares, on the model itself."""

    def test_empty_sequences_rejected(self):
        model = fresh("conditional-lstm", 2, 3, 0)
        row = Padded(Tensor(np.zeros((1, 1, 2))), np.array([1]))
        empty = Padded(Tensor(np.zeros((1, 0, 2))), np.array([0]))
        with pytest.raises(ValueError):
            model._final_hidden(empty, row)
        with pytest.raises(ValueError):
            model._final_hidden(row, empty)

    def test_one_state_per_premise_token(self):
        model = fresh("conditional-lstm", 2, 3, 0)
        rows = Tensor(np.ones((1, 4, 2)))
        premise = Padded(rows, np.array([4]))
        hypothesis = Padded(Tensor(rows.values[:, :2]), np.array([2]))
        states = model._read(premise, hypothesis)[0]
        final, _ = model._final_hidden(premise, hypothesis)
        assert len(states.values[0]) == 4
        assert np.array_equal(states.values[0, -1:], final.values)


def make_lstm(seed=0, state_dim=6, keep_prob=1.0):
    return fresh("conditional-lstm", 4, state_dim, seed, keep_prob=keep_prob)


class TestConditionalLstmModel:
    def test_zero_parameters_give_zero_logits(self):
        model = make_lstm()
        zero_params(model)
        logits = model.forward(PREMISE, HYPOTHESIS)
        assert np.array_equal(logits.values, np.zeros(3))

    def test_eval_forward_is_bitwise_deterministic(self):
        model = make_lstm(seed=5)
        a = model.forward(PREMISE, HYPOTHESIS).values
        b = model.forward(PREMISE, HYPOTHESIS).values
        assert np.array_equal(a, b)

    def test_premise_conditioning_changes_logits(self):
        model = make_lstm(seed=5)
        a = model.forward(PREMISE, HYPOTHESIS).values
        b = model.forward(["man", "cook"], HYPOTHESIS).values
        assert not np.array_equal(a, b)

    def test_accepts_separator_joined_premises(self):
        model = make_lstm(seed=5)
        logits = model.forward(concat_premises(FOUR_PREMISES), HYPOTHESIS)
        assert logits.values.shape == (3,)
        assert np.all(np.isfinite(logits.values))

    def test_unknown_tokens_fall_back_to_unk(self):
        model = make_lstm(seed=5)
        logits = model.forward(["quokka", "levitates"], HYPOTHESIS)
        assert np.all(np.isfinite(logits.values))

    def test_empty_sequences_rejected(self):
        model = make_lstm()
        with pytest.raises(ValueError):
            model.forward([], HYPOTHESIS)
        with pytest.raises(ValueError):
            model.forward(PREMISE, [])

    def test_dropout_changes_training_logits(self):
        model = make_lstm(seed=5, keep_prob=0.5)
        eval_logits = model.forward(PREMISE, HYPOTHESIS).values
        rng = np.random.default_rng(0)
        train_logits = model.forward(PREMISE, HYPOTHESIS, rng=rng).values
        assert not np.array_equal(eval_logits, train_logits)

    def test_gradients_match_finite_differences(self):
        model = fresh("conditional-lstm", 5, 8, 7)

        def forward():
            return cross_entropy(model.forward(["girl", "run"], ["woman", "run"]), 2)

        report = grad_check(forward, model.params(), np.random.default_rng(8), samples=3)
        assert report.max_rel_err < 1e-4

    def test_checkpoint_roundtrip_preserves_logits(self, tmp_path):
        model = make_lstm(seed=9, keep_prob=0.8)
        path = tmp_path / "lstm.ckpt"
        model.save(path)
        restored = load_model(path)
        assert isinstance(restored, ConditionalLstmModel)
        assert restored.keep_prob == 0.8
        assert np.array_equal(
            model.forward(PREMISE, HYPOTHESIS).values,
            restored.forward(PREMISE, HYPOTHESIS).values,
        )


def make_attention(seed=0, state_dim=6, keep_prob=1.0):
    return fresh("attention", 4, state_dim, seed, keep_prob=keep_prob)


class TestAttentionModel:
    def test_alpha_shape_indexed_by_hypothesis_rows(self):
        _, alpha = make_attention(seed=1).forward(PREMISE, HYPOTHESIS)
        assert alpha.shape == (len(HYPOTHESIS), len(PREMISE))

    def test_alpha_rows_are_distributions(self):
        _, alpha = make_attention(seed=1).forward(PREMISE, HYPOTHESIS)
        assert np.all(alpha >= 0.0)
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) <= 1e-12

    def test_single_premise_token_gets_full_weight(self):
        _, alpha = make_attention(seed=1).forward(["girl"], HYPOTHESIS)
        assert np.array_equal(alpha, np.ones((len(HYPOTHESIS), 1)))

    def test_identical_scores_spread_uniformly(self):
        model = make_attention()
        zero_params(model)
        logits, alpha = model.forward(PREMISE, HYPOTHESIS)
        assert np.allclose(alpha, 1.0 / len(PREMISE))
        assert np.array_equal(logits.values, np.zeros(3))

    def test_eval_forward_is_bitwise_deterministic(self):
        model = make_attention(seed=2)
        a, alpha_a = model.forward(PREMISE, HYPOTHESIS)
        b, alpha_b = model.forward(PREMISE, HYPOTHESIS)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(alpha_a, alpha_b)

    def test_gradients_match_finite_differences(self):
        model = fresh("attention", 5, 8, 11)

        def forward():
            logits, _ = model.forward(["girl", "run"], ["woman", "run"])
            return cross_entropy(logits, 0)

        report = grad_check(forward, model.params(), np.random.default_rng(12), samples=3)
        assert report.max_rel_err < 1e-4
        assert any(name.startswith("attention.") for name in report.worst_by_param)

    def test_checkpoint_roundtrip(self, tmp_path):
        model = make_attention(seed=3)
        path = tmp_path / "attn.ckpt"
        model.save(path)
        restored = load_model(path)
        assert isinstance(restored, AttentionModel)
        original, _ = model.forward(PREMISE, HYPOTHESIS)
        reloaded, _ = restored.forward(PREMISE, HYPOTHESIS)
        assert np.array_equal(original.values, reloaded.values)


def make_se(seed=0, state_dim=6, keep_prob=1.0):
    return fresh("sum-of-experts", 4, state_dim, seed, keep_prob=keep_prob)


class TestSumOfExpertsModel:
    def test_premise_count_validation(self):
        model = make_se()
        for count in (0, 2, 3, 5):
            with pytest.raises(ValueError):
                model.forward([PREMISE] * count if count else [], HYPOTHESIS)

    def test_identical_premises_quadruple_one_expert(self):
        model = make_se(seed=4)
        total, experts = model.forward([PREMISE] * 4, HYPOTHESIS)
        assert np.array_equal(total.values, 4.0 * experts[0].values)

    def test_expert_order_follows_input_order(self):
        model = make_se(seed=4)
        _, experts = model.forward(FOUR_PREMISES, HYPOTHESIS)
        assert len(experts) == 4
        solo, _ = model.forward([FOUR_PREMISES[2]], HYPOTHESIS)
        assert np.array_equal(experts[2].values, solo.values)

    def test_all_permutations_bitwise_identical(self):
        model = make_se(seed=4)
        reference, _ = model.forward(FOUR_PREMISES, HYPOTHESIS)
        for perm in itertools.permutations(range(4)):
            shuffled = [FOUR_PREMISES[i] for i in perm]
            total, _ = model.forward(shuffled, HYPOTHESIS)
            assert np.array_equal(total.values, reference.values)
            assert int(np.argmax(total.values)) == int(np.argmax(reference.values))

    def test_single_premise_equals_core_plus_head(self):
        model = make_se(seed=4)
        total, experts = model.forward([PREMISE], HYPOTHESIS)
        assert np.array_equal(total.values, experts[0].values)
        p_vec, h_vec = model._final_hidden(
            model.embeddings.embed_batch([PREMISE]), model.embeddings.embed_batch([HYPOTHESIS])
        )
        pair = np.concatenate([p_vec.values, h_vec.values], axis=1)
        w, b = model.tensors["experts.W"].values, model.tensors["experts.b"].values
        manual = (pair @ w + b).reshape(-1)
        assert np.array_equal(total.values, manual)

    def test_weight_sharing_single_core(self):
        model = make_se()
        names = [t.name for t in model.params()]
        assert len(names) == len(set(names))
        assert sum(name.startswith("premise_lstm.") for name in names) == 12

    def test_gradients_match_finite_differences(self):
        model = fresh("sum-of-experts", 5, 8, 13)

        def forward():
            total, _ = model.forward(
                [["girl", "run"], ["man", "cook"], ["dog"], ["woman", "sing"]],
                ["woman", "run"],
            )
            return cross_entropy(total, 1)

        report = grad_check(forward, model.params(), np.random.default_rng(14), samples=3)
        assert report.max_rel_err < 1e-4

    def test_gradients_flow_through_canonical_sum(self):
        model = make_se(seed=4)
        with Tape() as tape:
            total, _ = model.forward(FOUR_PREMISES, HYPOTHESIS)
            loss = cross_entropy(total, 0)
        tape.backward(loss)
        expert_w = model.tensors["experts.W"]
        assert expert_w.grad is not None
        assert np.any(expert_w.grad != 0.0)

    def test_checkpoint_roundtrip(self, tmp_path):
        model = make_se(seed=6)
        path = tmp_path / "se.ckpt"
        model.save(path)
        restored = load_model(path)
        assert isinstance(restored, SumOfExpertsModel)
        original, _ = model.forward(FOUR_PREMISES, HYPOTHESIS)
        reloaded, _ = restored.forward(FOUR_PREMISES, HYPOTHESIS)
        assert np.array_equal(original.values, reloaded.values)


def reference_logits(model, premises, hypothesis):
    """Plain-numpy eval forward of any architecture, one reference step per token."""
    w = {name: t.values for name, t in model.tensors.items()}
    table, zero = model.embeddings, np.zeros((1, model.state_dim))

    def read(cell, tokens, h, c):
        rows = []
        for t in tokens:
            row = w["embeddings.main"][table.vocab[t]] if t in table.vocab else (
                w["embeddings.special"][int(t == SEPARATOR)]
            )
            h, c = reference_lstm_step(cell, row[None], h, c)
            rows.append(h)
        return np.concatenate(rows), c

    def states(premise):
        memory, c = read(model.premise_cell, premise, zero, zero)
        return memory, read(model.hypothesis_cell, hypothesis, zero, c)[0]

    if isinstance(model, SumOfExpertsModel):
        pairs = [np.hstack([m[-1:], h[-1:]]) for m, h in map(states, premises)]
        return sum(p @ w["experts.W"] + w["experts.b"] for p in pairs)[0]
    memory, hyp = states(concat_premises(premises))
    if isinstance(model, ConditionalLstmModel):
        hidden = np.tanh(np.hstack([memory[-1:], hyp[-1:]]) @ w["hidden.W"] + w["hidden.b"])
        return (hidden @ w["output.W"] + w["output.b"])[0]
    a = {n: w[f"attention.{n}"] for n in AttentionModel.ATTN_NAMES}
    r = zero
    for h in hyp:
        scores = np.tanh(memory @ a["Wy"] + h @ a["Wh"] + r @ a["Wr"]) @ w["attention.score"]
        alpha = np.exp(scores - scores.max())
        r = (alpha / alpha.sum()).T @ memory + np.tanh(r @ a["Wt"])
    pair = np.tanh(r @ a["Wp"] + hyp[-1:] @ a["Wx"])
    return (pair @ w["output.W"] + w["output.b"])[0]


@pytest.mark.parametrize("preset", ["lstm-mpe", "attn-mpe", "se-mpe"])
def test_logits_match_numpy_reference_at_preset_sizes(preset):
    config = PRESETS[preset]
    model = fresh(config.model, config.embedding_dim, config.state_dim, 21)
    premises = [*FOUR_PREMISES[:3], ["woman", "quokka", "sing"]]
    got = flatten(model.batch_logits([premises], [HYPOTHESIS])).values
    assert np.max(np.abs(got - reference_logits(model, premises, HYPOTHESIS))) <= 1e-12


# Ragged batches: premises and hypotheses of different lengths, unknown
# tokens ("quokka", "levitates") and separators inside a sequence.
BATCH_HYPOTHESES = [["woman", "run"], ["dog"], ["quokka", "man", "cook", "fast"]]
BATCH_PREMISES = [
    FOUR_PREMISES,
    [["dog", "jump"], ["quokka"], [SEPARATOR, "girl"], ["levitates", "fast", "man"]],
    [["girl"], ["woman", "sing", "fast", "dog", "jump"], ["man"], ["cook", "run"]],
]


@pytest.mark.parametrize("arity", [1, 4])
@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_batch_logits_match_single_item_logits(arch, arity):
    model = fresh(arch, 5, 7, 31)
    premises = [p[:arity] for p in BATCH_PREMISES]
    batch = model.batch_logits(premises, BATCH_HYPOTHESES).values
    assert batch.shape == (3, 3)
    for row, p, h in zip(batch, premises, BATCH_HYPOTHESES):
        assert np.max(np.abs(row - model.batch_logits([p], [h]).values[0])) <= 1e-12


def test_batch_attention_weights_match_single_items():
    model = make_attention(seed=32)
    joined = [concat_premises(p) for p in BATCH_PREMISES]
    _, weights = model._forward_batch(BATCH_PREMISES, BATCH_HYPOTHESES, None)
    for w, p, h in zip(weights, joined, BATCH_HYPOTHESES):
        _, single = model.forward(p, h)
        assert single.shape == (len(h), len(p))
        assert np.max(np.abs(w[: len(h), : len(p)] - single)) <= 1e-12


def test_batch_attention_weights_are_one_array_with_no_weight_on_padding():
    model = make_attention(seed=32)
    joined = [concat_premises(p) for p in BATCH_PREMISES]
    _, weights = model._forward_batch(BATCH_PREMISES, BATCH_HYPOTHESES, None)
    span = max(map(len, joined))
    assert weights.shape == (3, max(map(len, BATCH_HYPOTHESES)), span)
    assert any(len(p) < span for p in joined)
    for w, p in zip(weights, joined):
        assert np.all(w[:, len(p) :] == 0.0)
    # Every step row is a softmax, past a hypothesis's end too.
    assert np.max(np.abs(weights.sum(axis=2) - 1.0)) <= 1e-12


def test_embed_batch_pads_with_zero_rows_that_take_no_gradient():
    table = make_embeddings()
    sequences = [["dog", "zebra", SEPARATOR], ["girl"]]
    with Tape() as tape:
        batch = table.embed_batch(sequences)
        loss = tensor_sum(batch.rows)
    assert batch.lengths.tolist() == [3, 1]
    assert np.array_equal(batch.rows.values[0], table.embed(sequences[0]).values)
    padded = np.vstack([table.embed(["girl"]).values, np.zeros((2, 4))])
    assert np.array_equal(batch.rows.values[1], padded)
    tape.backward(loss)
    # Three real rows of ones each: the padding adds nothing anywhere.
    assert table.main.grad.sum() + table.special.grad.sum() == 4 * 4


@pytest.mark.parametrize("embeddings", ["trainable", "frozen", "from-vectors"])
@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_save_load_save_is_byte_identical(tmp_path, arch, embeddings):
    vectors = None
    if embeddings == "from-vectors":
        vectors = {t: [i / 10, -i / 10, 0.5] for i, t in enumerate(VOCAB)}
    config = TrainConfig(
        model=arch, embedding_dim=3, state_dim=5, keep_prob=0.75, seed=17,
        trainable_embeddings=embeddings == "trainable",
    )
    model = build_model(config, VOCAB, vectors)
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    model.save(first)
    restored = load_model(first)
    restored.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert [t.name for t in restored.params()] == [t.name for t in model.params()]


class TestCheckpointDispatch:
    def test_registry_covers_three_architectures(self):
        assert set(ARCHITECTURES) == {
            "conditional-lstm",
            "attention",
            "sum-of-experts",
        }

    def test_unknown_architecture_rejected(self, tmp_path):
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, {"w": np.ones(1)}, {"architecture": "perceptron"})
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert "perceptron" in str(exc.value)


class TestModelInterface:
    CELL = [
        f"{gate}.{part}"
        for gate in ("candidate", "forget", "input", "output")
        for part in ("Wh", "Wx", "b")
    ]
    CORE = [f"premise_lstm.{n}" for n in CELL] + [f"hypothesis_lstm.{n}" for n in CELL]
    HEADS = {
        "conditional-lstm": ["hidden.W", "hidden.b", "output.W", "output.b"],
        "attention": [
            *(f"attention.{n}" for n in ("Wy", "Wh", "Wr", "Wt", "Wp", "Wx")),
            "attention.score",
            "output.W",
            "output.b",
        ],
        "sum-of-experts": ["experts.W", "experts.b"],
    }

    @pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_tensor_names_pinned(self, arch, trainable):
        model = fresh(arch, 6, 7, 0, trainable_embeddings=trainable)
        embeddings = ["embeddings.main"] if trainable else []
        assert [t.name for t in model.params()] == (
            embeddings + ["embeddings.special"] + self.CORE + self.HEADS[arch]
        )
        assert set(model.tensors) == {
            "embeddings.main",
            "embeddings.special",
            *self.CORE,
            *self.HEADS[arch],
        }

    @pytest.mark.parametrize("premises", [[PREMISE], FOUR_PREMISES], ids=["one", "four"])
    def test_logits_match_forward_call_form(self, premises):
        lstm, attention, experts = (
            fresh(arch, 6, 7, 3)
            for arch in ("conditional-lstm", "attention", "sum-of-experts")
        )
        joined = concat_premises(premises)
        expected = {
            lstm: lstm.forward(joined, HYPOTHESIS),
            attention: attention.forward(joined, HYPOTHESIS)[0],
            experts: experts.forward(premises, HYPOTHESIS)[0],
        }
        for model, reference in expected.items():
            got = flatten(model.batch_logits([premises], [HYPOTHESIS]))
            assert got.values.tobytes() == reference.values.tobytes()


def weights_digest(model) -> str:
    """sha256 over every tensor's name and little-endian float64 bytes."""
    digest = hashlib.sha256()
    for name, t in sorted(model.tensors.items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(t.values, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestInitialWeightsPinned:
    """A fixed seed gives fixed weights: the draw order (embeddings, core,
    head) and every shape and name are part of the trained artifacts."""

    VOCAB = ["a", "ball", "cat", "dog", "runs", "sits"]
    DIGESTS = {
        "attention": "4ecab05587e8692105afebfd16bce3609a197148b4ec0bb7efbe8550501929aa",
        "conditional-lstm": (
            "04a8b5a4a2ae5dc65cb6571013135f6ca8d5540995f5cdcba73620b7c5cdc900"
        ),
        "sum-of-experts": (
            "5d235178a66c20f2096ed5b67758decf1b9a0ac04be0fe8e89502be859c67508"
        ),
    }

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_random_init(self, arch):
        model = fresh(arch, 4, 3, 11, vocab=self.VOCAB, keep_prob=0.5)
        assert weights_digest(model) == self.DIGESTS[arch]

    def test_init_from_vectors(self):
        """The special rows come from a first `default_rng(seed)`, every other
        drawn tensor from a second one. The digest was pinned with the special
        rows drawn from seed 5 and the rest from seed 11."""
        vectors = {t: [i / 10, -i / 10, 0.5] for i, t in enumerate(self.VOCAB)}
        config = TrainConfig(model="sum-of-experts", embedding_dim=3, state_dim=3, seed=11)
        model = build_model(config, self.VOCAB, vectors)
        special = model.tensors["embeddings.special"].values
        draw = lambda seed: np.random.default_rng(seed).normal(scale=INIT_SCALE, size=(2, 3))
        assert np.array_equal(special, draw(11))
        special[...] = draw(5)
        assert weights_digest(model) == (
            "3c13d1657baef99b8d1cb10b89bc67331fa477bcffc6357820f92228bd0e9712"
        )
