"""Tensor ops, reverse-mode gradients, Adam, grad_check, and checkpoints."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.autodiff import (
    Adam,
    CHECKPOINT_MAGIC,
    ShapeError,
    Tape,
    Tensor,
    _sigmoid,
    active_tape,
    add,
    concat,
    cross_entropy,
    dropout,
    flatten,
    grad_check,
    load_checkpoint,
    lookup,
    lstm_sequence,
    matmul,
    mul,
    pick,
    reshape,
    save_checkpoint,
    scale,
    sigmoid,
    softmax,
    tanh,
    tensor_sum,
    transpose,
    zero_grad,
)


def run_backward(build):
    """Run build() under a fresh tape and backprop its scalar result."""
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    return loss


class TestTensor:
    def test_converts_to_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.values.dtype == np.float64
        assert t.values.shape == (2, 2)
        assert t.values.size == 4

    def test_defaults(self):
        t = Tensor(1.0)
        assert t.grad is None
        assert t.name is None
        assert Tensor.__slots__ == ("values", "grad", "name")

    def test_repr_mentions_name(self):
        assert "'w'" in repr(Tensor([1.0], name="w"))

    def test_zero_grad_helper(self):
        t = Tensor([1.0])
        t.grad = np.ones(1)
        zero_grad([t])
        assert t.grad.dtype == np.float64 and np.array_equal(t.grad, np.zeros(1))


class TestElementwiseOps:
    def test_add_mul_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([10.0, 20.0])
        assert np.array_equal(add(a, b).values, [11.0, 22.0])
        assert np.array_equal(mul(a, b).values, [10.0, 40.0])

    def test_mul_gradients_swap_operands(self):
        x, y = Tensor([2.0, 3.0]), Tensor([5.0, 7.0])
        run_backward(lambda: tensor_sum(mul(x, y)))
        assert np.array_equal(x.grad, y.values)
        assert np.array_equal(y.grad, x.values)

    def test_broadcast_bias_gradient_sums_rows(self):
        a = Tensor(np.ones((3, 2)))
        bias = Tensor([1.0, 2.0])
        run_backward(lambda: tensor_sum(add(a, bias)))
        assert a.grad.shape == (3, 2)
        assert np.array_equal(bias.grad, [3.0, 3.0])

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)))
        s = Tensor(5.0)
        run_backward(lambda: tensor_sum(mul(a, s)))
        assert s.grad.shape == ()
        assert s.grad == 4.0

    def test_incompatible_shapes_named_in_error(self):
        with pytest.raises(ShapeError) as exc:
            add(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
        assert "(2, 3)" in str(exc.value)
        assert "(4,)" in str(exc.value)

    def test_scale(self):
        x = Tensor([1.0, -2.0])
        out = scale(x, 2.5)
        assert np.array_equal(out.values, [2.5, -5.0])
        run_backward(lambda: tensor_sum(scale(x, 2.5)))
        assert np.array_equal(x.grad, [2.5, 2.5])


class TestMatmul:
    def test_known_product(self):
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = Tensor([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
        assert np.array_equal(matmul(a, b).values, [[58.0, 64.0], [139.0, 154.0]])

    def test_gradients_with_ones_upstream(self):
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = Tensor([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
        run_backward(lambda: tensor_sum(matmul(a, b)))
        # dA = ones @ B^T stacks B's row sums; dB = A^T @ ones stacks A's column sums.
        assert np.array_equal(a.grad, [[15.0, 19.0, 23.0], [15.0, 19.0, 23.0]])
        assert np.array_equal(b.grad, [[5.0, 5.0], [7.0, 7.0], [9.0, 9.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert str(exc.value).count("(2, 3)") == 2

    def test_rejects_vectors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_transpose_roundtrip_and_grad(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = transpose(x)
        assert out.values.shape == (2, 3)
        assert np.array_equal(out.values, x.values.T)
        c = Tensor(np.arange(6.0).reshape(2, 3))
        run_backward(lambda: tensor_sum(mul(transpose(x), c)))
        assert np.array_equal(x.grad, c.values.T)

    def test_transpose_rejects_vector(self):
        with pytest.raises(ShapeError):
            transpose(Tensor(np.ones(3)))


    def test_batch_against_matrix_and_batch_against_batch(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4, 5)))
        w = Tensor(rng.normal(size=(5, 2)))
        b = Tensor(rng.normal(size=(3, 5, 6)))
        shared, paired = matmul(a, w), matmul(a, b)
        assert shared.values.shape == (3, 4, 2) and paired.values.shape == (3, 4, 6)
        for i in range(3):
            assert np.max(np.abs(shared.values[i] - a.values[i] @ w.values)) <= 1e-12
            assert np.max(np.abs(paired.values[i] - a.values[i] @ b.values[i])) <= 1e-12

    @pytest.mark.parametrize("paired", [False, True], ids=["shared", "paired"])
    def test_batch_gradients_match_finite_differences(self, paired):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)), name="a")
        b = Tensor(rng.normal(size=(2, 4, 3) if paired else (4, 3)), name="b")
        weights = Tensor(rng.normal(size=(2, 3, 3)))
        report = grad_check(
            lambda: tensor_sum(mul(matmul(a, b), weights)), [a, b], np.random.default_rng(2)
        )
        assert report.passed, report.worst_by_param

    def test_batch_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3, 4))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((5, 2))))

    def test_transpose_of_a_batch_swaps_each_matrix(self):
        x = Tensor(np.arange(12.0).reshape(2, 3, 2), name="x")
        assert np.array_equal(transpose(x).values, x.values.transpose(0, 2, 1))
        report = grad_check(
            lambda: tensor_sum(mul(transpose(x), Tensor(np.arange(12.0).reshape(2, 2, 3)))),
            [x],
            np.random.default_rng(3),
        )
        assert report.passed


class TestConcat:
    def test_values_axis0_and_axis1(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0]])
        assert np.array_equal(concat([a, b], axis=0).values, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(concat([a, b], axis=1).values, [[1.0, 2.0, 3.0, 4.0]])

    def test_gradient_splits_back(self):
        a = Tensor([[1.0, 1.0]])
        b = Tensor([[1.0, 1.0], [1.0, 1.0]])
        weights = Tensor([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        run_backward(lambda: tensor_sum(mul(concat([a, b], axis=0), weights)))
        assert np.array_equal(a.grad, [[10.0, 20.0]])
        assert np.array_equal(b.grad, [[30.0, 40.0], [50.0, 60.0]])

    def test_negative_axis_counts_from_the_end(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0]])
        weights = Tensor([[10.0, 20.0, 30.0]])
        run_backward(lambda: tensor_sum(mul(concat([a, b], axis=-1), weights)))
        assert np.array_equal(a.grad, [[10.0, 20.0]])
        assert np.array_equal(b.grad, [[30.0]])

    def test_mismatched_off_axis_shape(self):
        with pytest.raises(ShapeError) as exc:
            concat([Tensor(np.ones((1, 2))), Tensor(np.ones((1, 3)))], axis=0)
        assert "(1, 2)" in str(exc.value) and "(1, 3)" in str(exc.value)

    def test_empty_list_and_bad_axis(self):
        with pytest.raises(ShapeError):
            concat([], axis=0)
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((1, 2)))], axis=2)


class TestNonlinearities:
    def test_tanh_values_and_grad(self):
        x = Tensor([0.0, 0.5, -1.0])
        out = tanh(x)
        assert np.allclose(out.values, np.tanh(x.values))
        run_backward(lambda: tensor_sum(tanh(x)))
        assert np.allclose(x.grad, 1.0 - np.tanh(x.values) ** 2)

    def test_sigmoid_midpoint_and_grad(self):
        x = Tensor([0.0])
        assert sigmoid(x).values[0] == 0.5
        run_backward(lambda: tensor_sum(sigmoid(x)))
        assert np.allclose(x.grad, [0.25])

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            out = sigmoid(Tensor([1000.0, -1000.0]))
        assert out.values[0] == 1.0
        assert out.values[1] == 0.0


def reference_sigmoid(x):
    """The select-by-`np.where` form `_sigmoid` replaced, kept as its oracle."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def sigmoid_inputs():
    """Signed zeros, subnormals, the edges of exp's range, infinities and
    seeded normals at three scales."""
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, tiny, 1e-310, 40.0, 709.0, 746.0, 1000.0, np.inf]
    rng = np.random.default_rng(17)
    normals = [rng.normal(scale=scale, size=200) for scale in (0.1, 1.0, 10.0)]
    return np.concatenate([edges, np.negative(edges), *normals])


class TestSigmoidKernel:
    """`_sigmoid` is bit for bit the `np.where` form, whether it writes a new
    array or over its input. exp(-|x|) underflows for |x| >= 709 in both
    forms, so underflow is the one floating-point flag left unraised."""

    def test_equals_reference_bitwise(self):
        x = sigmoid_inputs()
        with np.errstate(all="raise", under="ignore"):
            got, want = _sigmoid(x), reference_sigmoid(x)
        assert got.tobytes() == want.tobytes()

    def test_in_place_on_a_strided_gate_block(self):
        """The step loop writes the sigmoid over the first 3k columns of its
        (B, 4k) gate rows."""
        k = 75
        x = sigmoid_inputs()
        block = np.resize(x, (len(x) // (3 * k) + 1) * 3 * k).reshape(-1, 3 * k)
        gates = np.full((len(block), 4 * k), 7.0)
        gates[:, : 3 * k] = block
        view = gates[:, : 3 * k]
        with np.errstate(all="raise", under="ignore"):
            returned = _sigmoid(view, out=view)
            want = reference_sigmoid(block)
        assert returned is view
        assert view.tobytes() == want.tobytes()
        assert np.all(gates[:, 3 * k :] == 7.0)

    def test_nan_stays_in_place(self):
        x = sigmoid_inputs()
        x[::7] = np.nan
        got, want = _sigmoid(x), reference_sigmoid(x)
        assert np.array_equal(np.isnan(got), np.isnan(x))
        assert np.array_equal(np.isnan(want), np.isnan(x))
        assert got[~np.isnan(x)].tobytes() == want[~np.isnan(x)].tobytes()
        view = x.copy()
        _sigmoid(view, out=view)
        assert view.tobytes() == got.tobytes()


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = softmax(Tensor(np.zeros(3)))
        assert np.allclose(out.values, [1 / 3, 1 / 3, 1 / 3])

    def test_axis_selection(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        rows = softmax(x, axis=1).values
        cols = softmax(x, axis=0).values
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert np.allclose(cols.sum(axis=0), 1.0)
        assert not np.allclose(rows, cols)

    def test_stable_for_large_magnitudes(self):
        out = softmax(Tensor([1000.0, 1000.5]))
        assert abs(out.values.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(out.values))

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.ones((2, 0))), axis=1)
        with pytest.raises(ShapeError):
            softmax(Tensor(np.ones(3)), axis=2)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_rows_sum_to_one(self, values):
        out = softmax(Tensor(values)).values
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0.0)

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=5))
        weights = Tensor(rng.normal(size=5))
        run_backward(lambda: tensor_sum(mul(softmax(x), weights)))
        eps = 1e-6
        for i in range(5):
            bumped = x.values.copy()
            bumped[i] += eps
            plus = (softmax(Tensor(bumped)).values * weights.values).sum()
            bumped[i] -= 2 * eps
            minus = (softmax(Tensor(bumped)).values * weights.values).sum()
            assert abs(x.grad[i] - (plus - minus) / (2 * eps)) < 1e-8


class TestCrossEntropy:
    def test_single_class_costs_nothing(self):
        assert cross_entropy(Tensor([3.7]), 0).values == 0.0

    def test_uniform_logits_cost_log_n(self):
        out = cross_entropy(Tensor([0.0, 0.0, 0.0]), 1)
        assert np.isclose(float(out.values), np.log(3.0))

    def test_matches_explicit_formula(self):
        logits = np.array([1.0, 2.0, 3.0])
        expected = np.log(np.exp(logits).sum()) - logits[2]
        out = cross_entropy(Tensor(logits), 2)
        assert np.isclose(float(out.values), expected)

    def test_confident_correct_prediction_near_zero(self):
        out = cross_entropy(Tensor([100.0, 0.0, 0.0]), 0)
        assert 0.0 <= float(out.values) < 1e-40

    def test_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((1, 3))), 0)
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(3)), 3)
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(3)), -1)

    @given(
        st.lists(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            min_size=2,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=5),
    )
    def test_gradient_is_probs_minus_onehot(self, values, klass):
        klass %= len(values)
        logits = Tensor(values)
        run_backward(lambda: cross_entropy(logits, klass))
        probs = softmax(Tensor(values)).values
        onehot = np.zeros(len(values))
        onehot[klass] = 1.0
        assert np.max(np.abs(logits.grad - (probs - onehot))) <= 1e-12


    def test_batch_rows_equal_single_rows(self):
        rows = np.random.default_rng(4).normal(size=(4, 3))
        classes = [2, 0, 1, 2]
        out = cross_entropy(Tensor(rows), classes)
        assert out.values.shape == (4,)
        for row, klass, value in zip(rows, classes, out.values):
            assert value == cross_entropy(Tensor(row), klass).values

    def test_batch_gradient_is_probs_minus_onehot_per_row(self):
        rows = np.random.default_rng(5).normal(size=(3, 4))
        logits = Tensor(rows)
        upstream = Tensor(np.array([0.5, -1.0, 2.0]))
        run_backward(lambda: tensor_sum(mul(cross_entropy(logits, [1, 3, 0]), upstream)))
        probs = softmax(Tensor(rows)).values
        probs[[0, 1, 2], [1, 3, 0]] -= 1.0
        assert np.max(np.abs(logits.grad - probs * upstream.values[:, None])) <= 1e-12
        leaf = Tensor(rows, name="logits")
        report = grad_check(
            lambda: tensor_sum(mul(cross_entropy(leaf, [1, 3, 0]), upstream)),
            [leaf],
            np.random.default_rng(6),
        )
        assert report.passed

    def test_batch_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0])
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros(3)), [0])
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


class TestDropout:
    def test_keep_prob_validation(self):
        x = Tensor(np.ones(3))
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(ValueError):
                dropout(x, bad, rng)

    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones(5))
        assert dropout(x, 0.5, None) is x

    def test_keep_prob_one_keeps_everything(self):
        x = Tensor(np.arange(6.0))
        out = dropout(x, 1.0, np.random.default_rng(0))
        assert np.array_equal(out.values, x.values)

    def test_surviving_entries_scaled(self):
        x = Tensor(np.ones(1000))
        out = dropout(x, 0.25, np.random.default_rng(3))
        kept = out.values[out.values != 0.0]
        assert np.all(kept == 4.0)

    def test_expectation_preserved(self):
        # Inverted scaling keeps the mean activation level unchanged.
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.8, np.random.default_rng(11))
        assert abs(out.values.mean() - 1.0) < 0.02

    def test_gradient_equals_mask(self):
        x = Tensor(np.ones(64))
        with Tape() as tape:
            out = dropout(x, 0.5, np.random.default_rng(5))
            loss = tensor_sum(out)
        tape.backward(loss)
        assert np.array_equal(x.grad, out.values)

    def test_seeded_draws_are_bitwise_stable(self):
        x = Tensor(np.ones(128))
        a = dropout(x, 0.7, np.random.default_rng(42)).values
        b = dropout(x, 0.7, np.random.default_rng(42)).values
        assert np.array_equal(a, b)


class TestLookup:
    def test_gathers_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = lookup(table, [2, 0, 2])
        assert np.array_equal(out.values, table.values[[2, 0, 2]])

    def test_repeated_rows_accumulate_gradient(self):
        table = Tensor(np.zeros((4, 3)), name="emb")
        run_backward(lambda: tensor_sum(lookup(table, [2, 0, 2])))
        assert np.array_equal(table.grad[0], [1.0, 1.0, 1.0])
        assert np.array_equal(table.grad[2], [2.0, 2.0, 2.0])
        assert np.array_equal(table.grad[1], [0.0, 0.0, 0.0])
        assert np.array_equal(table.grad[3], [0.0, 0.0, 0.0])

    def test_validation(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            lookup(table, [4])
        with pytest.raises(ValueError):
            lookup(table, [-1])
        with pytest.raises(ShapeError):
            lookup(table, [])
        with pytest.raises(ShapeError):
            lookup(Tensor(np.zeros(4)), [0])


    def test_index_array_shape_is_kept(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), name="t")
        idx = np.array([[3, 0], [3, 3]])
        out = lookup(table, idx)
        assert out.values.shape == (2, 2, 3)
        assert np.array_equal(out.values, table.values[idx])
        run_backward(lambda: tensor_sum(lookup(table, idx)))
        assert np.array_equal(table.grad[:, 0], [1.0, 0.0, 0.0, 3.0])


class TestPickAndReshape:
    def test_pick_takes_one_step_per_row(self):
        x = Tensor(np.arange(24.0).reshape(2, 4, 3))
        assert np.array_equal(pick(x, [3, 1]).values, [x.values[0, 3], x.values[1, 1]])
        assert np.array_equal(pick(x, 2).values, x.values[:, 2])

    def test_pick_gradient(self):
        x = Tensor(np.random.default_rng(6).normal(size=(3, 4, 2)), name="x")
        weights = Tensor(np.random.default_rng(7).normal(size=(3, 2)))
        report = grad_check(
            lambda: add(
                tensor_sum(mul(pick(x, [0, 3, 3]), weights)), tensor_sum(pick(x, 3))
            ),
            [x],
            np.random.default_rng(8),
            samples=24,
        )
        assert report.passed, report.worst_by_param
        assert np.array_equal(x.grad[0, 1:3], np.zeros((2, 2)))

    def test_pick_validation(self):
        x = Tensor(np.zeros((2, 3, 1)))
        with pytest.raises(ShapeError):
            pick(Tensor(np.zeros(3)), 0)
        with pytest.raises(ShapeError):
            pick(x, [0, 0, 0])
        with pytest.raises(ValueError):
            pick(x, [0, 3])

    def test_reshape_values_and_gradient(self):
        x = Tensor(np.random.default_rng(9).normal(size=(2, 6)), name="x")
        assert np.array_equal(reshape(x, (2, 3, 2)).values, x.values.reshape(2, 3, 2))
        weights = Tensor(np.random.default_rng(10).normal(size=(2, 3, 2)))
        report = grad_check(
            lambda: tensor_sum(mul(reshape(x, (2, 3, 2)), weights)),
            [x],
            np.random.default_rng(11),
        )
        assert report.passed
        with pytest.raises(ShapeError):
            reshape(x, (5, 2))


def lstm_operands(seed, d=3, k=4, steps=5):
    """Named input rows, nonzero initial state and per-gate weights."""
    rng = np.random.default_rng(seed)

    def leaf(name, shape, scale=1.0):
        return Tensor(rng.normal(scale=scale, size=shape), name=name)

    x = leaf("x", (1, steps, d))
    h0, c0 = leaf("h0", (1, k)), leaf("c0", (1, k))
    gates = [
        [leaf(f"{part}.{gate}", shape, 0.5) for gate in range(4)]
        for part, shape in (("Wx", (d, k)), ("Wh", (k, k)), ("b", (k,)))
    ]
    return x, h0, c0, gates


def lstm_leaves(x, h0, c0, gates):
    return [x, h0, c0, *(t for part in gates for t in part)]


class TestLstmSequence:
    def loss(self, x, h0, c0, gates, through_hidden=True):
        """A weighted sum of the hidden rows and the final cell state, or of
        the final cell state alone."""
        rng = np.random.default_rng(99)
        hidden, cell = lstm_sequence(x, None, h0, c0, *gates)
        on_cell = tensor_sum(mul(cell, Tensor(rng.normal(size=cell.values.shape))))
        if not through_hidden:
            return on_cell
        return add(tensor_sum(mul(hidden, Tensor(rng.normal(size=hidden.values.shape)))), on_cell)

    @pytest.mark.parametrize("through_hidden", [True, False], ids=["hidden", "cell-only"])
    def test_gradients_match_finite_differences(self, through_hidden):
        operands = lstm_operands(0)
        report = grad_check(
            lambda: self.loss(*operands, through_hidden=through_hidden),
            lstm_leaves(*operands),
            np.random.default_rng(1),
            samples=6,
        )
        assert report.passed, report.worst_by_param

    def test_shapes(self):
        x, h0, c0, gates = lstm_operands(2, d=3, k=4, steps=6)
        hidden, cell = lstm_sequence(x, None, h0, c0, *gates)
        assert hidden.values.shape == (1, 6, 4)
        assert cell.values.shape == (1, 4)

    def test_untaped_call_records_nothing_and_matches_taped(self):
        operands = lstm_operands(3)
        hidden, cell = lstm_sequence(operands[0], None, operands[1], operands[2], *operands[3])
        # Untaped outputs are constants to a later tape: no gradient passes
        # through them to the operands.
        with Tape() as later:
            loss = tensor_sum(add(tensor_sum(hidden), tensor_sum(cell)))
        later.backward(loss)
        assert len(later) == 4
        assert hidden.grad is not None and cell.grad is not None
        assert all(t.grad is None for t in lstm_leaves(*operands))
        with Tape() as tape:
            taped = lstm_sequence(operands[0], None, operands[1], operands[2], *operands[3])
        assert len(tape) == 1
        assert taped[0].values.tobytes() == hidden.values.tobytes()
        assert taped[1].values.tobytes() == cell.values.tobytes()

    def test_second_backward_doubles_leaf_grads_exactly(self):
        operands = lstm_operands(4)
        leaves = lstm_leaves(*operands)
        with Tape() as tape:
            loss = self.loss(*operands)
        tape.backward(loss)
        first = [t.grad.copy() for t in leaves]
        tape.backward(loss)
        for t, g in zip(leaves, first):
            assert np.array_equal(t.grad, 2.0 * g), t.name

    def test_gradients_are_bitwise_repeatable(self):
        runs = []
        for _ in range(2):
            operands = lstm_operands(5)
            run_backward(lambda: self.loss(*operands))
            runs.append([t.grad.tobytes() for t in lstm_leaves(*operands)])
        assert runs[0] == runs[1]

    def test_shape_validation(self):
        x, h0, c0, gates = lstm_operands(6, d=3, k=4)
        with pytest.raises(ShapeError, match="non-empty"):
            lstm_sequence(Tensor(np.zeros((1, 0, 3))), None, h0, c0, *gates)
        with pytest.raises(ShapeError, match="do not fit"):
            lstm_sequence(Tensor(np.zeros((1, 2, 5))), None, h0, c0, *gates)
        with pytest.raises(ShapeError, match="do not fit"):
            lstm_sequence(x, None, Tensor(np.zeros((1, 3))), c0, *gates)


    @staticmethod
    def ragged_operands(seed, lengths=(5, 2, 4), d=3, k=4):
        """A batch of len(lengths) rows padded to the longest, with nonzero
        padding, h0 and c0."""
        rng = np.random.default_rng(seed)
        gates = lstm_operands(seed, d, k)[3]
        x = Tensor(rng.normal(size=(len(lengths), max(lengths), d)), name="x")
        h0 = Tensor(rng.normal(size=(len(lengths), k)), name="h0")
        c0 = Tensor(rng.normal(size=(len(lengths), k)), name="c0")
        return x, h0, c0, gates

    @pytest.mark.parametrize("through_hidden", [True, False], ids=["hidden", "cell-only"])
    def test_ragged_batch_gradients_match_finite_differences(self, through_hidden):
        lengths = [5, 2, 4]
        x, h0, c0, gates = self.ragged_operands(12, lengths)
        rng = np.random.default_rng(13)
        on_hidden = Tensor(rng.normal(size=(3, 5, 4)))
        on_cell = Tensor(rng.normal(size=(3, 4)))

        def loss():
            hidden, cell = lstm_sequence(x, lengths, h0, c0, *gates)
            final = tensor_sum(mul(cell, on_cell))
            if not through_hidden:
                return final
            return add(tensor_sum(mul(hidden, on_hidden)), final)

        leaves = lstm_leaves(x, h0, c0, gates)
        report = grad_check(loss, leaves, np.random.default_rng(14), samples=8)
        assert report.passed, report.worst_by_param
        assert np.all(x.grad[1, 2:] == 0.0) and np.all(x.grad[2, 4:] == 0.0)
        assert np.any(x.grad[1, :2] != 0.0) and np.any(x.grad[2, :4] != 0.0)

    def test_ragged_rows_equal_their_own_reads(self):
        lengths = [5, 2, 4]
        x, h0, c0, gates = self.ragged_operands(15, lengths)
        hidden, cell = lstm_sequence(x, lengths, h0, c0, *gates)
        for i, n in enumerate(lengths):
            row = Tensor(x.values[i : i + 1, :n])
            state = Tensor(h0.values[i : i + 1]), Tensor(c0.values[i : i + 1])
            own_hidden, own_cell = lstm_sequence(row, None, *state, *gates)
            assert np.max(np.abs(hidden.values[i, :n] - own_hidden.values[0])) <= 1e-12
            assert np.max(np.abs(cell.values[i] - own_cell.values[0])) <= 1e-12
            # Past its end a row's hidden state is held.
            held = np.repeat(hidden.values[i, n - 1 : n], 5 - n, axis=0)
            assert np.array_equal(hidden.values[i, n:], held)

    def test_ragged_batch_untaped_equals_taped_and_grads_repeat(self):
        lengths = [3, 5, 1]
        runs = []
        for _ in range(2):
            x, h0, c0, gates = self.ragged_operands(16, lengths)
            untaped = lstm_sequence(x, lengths, h0, c0, *gates)
            with Tape() as tape:
                taped = lstm_sequence(x, lengths, h0, c0, *gates)
                loss = add(tensor_sum(taped[0]), tensor_sum(taped[1]))
            tape.backward(loss)
            for a, b in zip(untaped, taped):
                assert a.values.tobytes() == b.values.tobytes()
            runs.append([t.grad.tobytes() for t in lstm_leaves(x, h0, c0, gates)])
        assert runs[0] == runs[1]

    def test_lengths_validation(self):
        x, h0, c0, gates = self.ragged_operands(17, (3, 3))
        for lengths in ([3], [0, 3], [3, 4]):
            with pytest.raises(ShapeError, match="lengths"):
                lstm_sequence(x, lengths, h0, c0, *gates)


class TestBackwardMechanics:
    def test_sum_seeds_ones(self):
        x = Tensor(np.zeros((2, 3)))
        run_backward(lambda: tensor_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_chain_rule_through_two_ops(self):
        x = Tensor([0.3])
        run_backward(lambda: tensor_sum(tanh(scale(x, 2.0))))
        expected = 2.0 * (1.0 - np.tanh(0.6) ** 2)
        assert np.allclose(x.grad, [expected])

    def test_shared_node_accumulates(self):
        x = Tensor([3.0])
        run_backward(lambda: tensor_sum(add(mul(x, x), mul(x, x))))
        assert np.array_equal(x.grad, [12.0])

    def test_unused_branch_gets_no_gradient(self):
        x, y = Tensor([1.0]), Tensor([1.0])
        with Tape() as tape:
            used = mul(x, x)
            mul(y, y)
            loss = tensor_sum(used)
        tape.backward(loss)
        assert x.grad is not None
        assert y.grad is None

    def test_repeated_backward_accumulates_on_leaves_only(self):
        x = Tensor([2.0])
        with Tape() as tape:
            loss = tensor_sum(mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        # Doubles exactly: intermediates are reset per call, leaves are not.
        assert np.array_equal(x.grad, 2.0 * first)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            out = tanh(x)
        with pytest.raises(ValueError):
            tape.backward(out)

    def test_loss_from_other_tape_rejected(self):
        x = Tensor([1.0])
        with Tape():
            loss = tensor_sum(x)
        with Tape() as other:
            tensor_sum(x)
        with pytest.raises(ValueError):
            other.backward(loss)

    def test_loss_outside_any_tape_rejected(self):
        loss = tensor_sum(Tensor([1.0]))
        with pytest.raises(ValueError, match="not recorded"):
            Tape().backward(loss)

    def test_dropping_a_tape_frees_it_without_the_cycle_collector(self):
        x = Tensor([2.0])
        gc.disable()
        try:
            with Tape() as tape:
                loss = tensor_sum(mul(x, x))
            freed = weakref.ref(tape)
            del tape
            assert freed() is None
            # The outputs outlive their tape and still hold their values.
            assert np.array_equal(loss.values, 4.0)
        finally:
            gc.enable()

    def test_ops_outside_tape_do_not_record(self):
        assert active_tape() is None
        x = Tensor([1.0])
        out = add(x, Tensor([2.0]))
        # To a later tape the untaped output is a leaf: its gradient stops there.
        with Tape() as later:
            loss = tensor_sum(out)
        later.backward(loss)
        assert len(later) == 1
        assert out.grad is not None and x.grad is None

    def test_record_takes_a_tuple_of_outputs(self):
        """A custom op with two outputs is one entry, whose thunk runs when
        either output has a gradient."""
        x = Tensor([1.0, -2.0])

        def split_double(t):
            a, b = Tensor(t.values * 2.0), Tensor(t.values * -3.0)

            def thunk():
                g = np.zeros_like(t.values)
                if a.grad is not None:
                    g += 2.0 * a.grad
                if b.grad is not None:
                    g -= 3.0 * b.grad
                t.grad = g if t.grad is None else t.grad + g

            active_tape().record((a, b), thunk)
            return a, b

        for pick_output, expected in ((0, [2.0, 2.0]), (1, [-3.0, -3.0])):
            x.grad = None
            with Tape() as tape:
                outputs = split_double(x)
                loss = tensor_sum(outputs[pick_output])
            assert len(tape) == 2
            tape.backward(loss)
            assert np.array_equal(x.grad, expected)
        x.grad = None
        with Tape() as tape:
            a, b = split_double(x)
            loss = tensor_sum(add(a, b))
        tape.backward(loss)
        assert np.array_equal(x.grad, [-1.0, -1.0])

    def test_tapes_nest_and_restore(self):
        with Tape() as outer:
            add(Tensor([1.0]), Tensor([1.0]))
            with Tape() as inner:
                assert active_tape() is inner
                add(Tensor([1.0]), Tensor([1.0]))
            assert active_tape() is outer
            add(Tensor([1.0]), Tensor([1.0]))
        assert active_tape() is None
        assert len(outer) == 2
        assert len(inner) == 1

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_broadcast_gradients_match_operand_shapes(self, m, n):
        a = Tensor(np.ones((m, n)))
        b = Tensor(np.ones(n))
        run_backward(lambda: tensor_sum(mul(a, b)))
        assert a.grad.shape == (m, n)
        assert b.grad.shape == (n,)


def adam_reference(w0, grad_fn, steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar-array Adam mirror used as an oracle."""
    w = np.asarray(w0, dtype=np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


class TestAdam:
    def test_single_step_matches_reference(self):
        w = Tensor([1.0, -3.0], name="w")
        opt = Adam([w])
        w.grad = np.array([2.0, 4.0])
        opt.step()
        expected = adam_reference([1.0, -3.0], lambda _: np.array([2.0, 4.0]), 1, 0.001)
        assert np.allclose(w.values, expected, rtol=1e-12, atol=0)
        assert opt.step_count == 1

    def test_three_steps_match_reference(self):
        grads = [np.array([2.0]), np.array([-1.0]), np.array([0.5])]
        w = Tensor([1.0], name="w")
        opt = Adam([w], lr=0.01)
        for g in grads:
            w.grad = g.copy()
            opt.step()
        it = iter(grads)
        expected = adam_reference([1.0], lambda _: next(it), 3, 0.01)
        assert np.allclose(w.values, expected, rtol=1e-12, atol=0)

    def test_steps_equal_reference_bit_for_bit(self):
        """The in-place step applies the reference's ufuncs in its order. The
        weights start at zero, so the steps' last bits are not lost in a
        larger weight."""
        rng = np.random.default_rng(8)
        w0 = np.zeros((6, 4))
        grads = [rng.normal(scale=10.0 ** -e, size=(6, 4)) for e in range(5)]
        w = Tensor(w0.copy(), name="w")
        opt = Adam([w], lr=0.01)
        for g in grads:
            w.grad = g.copy()
            opt.step()
        it = iter(grads)
        expected = adam_reference(w0, lambda _: next(it), len(grads), 0.01)
        assert w.values.tobytes() == expected.tobytes()

    def test_zero_gradient_leaves_values_unchanged(self):
        w = Tensor([1.5, -2.5], name="w")
        before = w.values.copy()
        opt = Adam([w])
        w.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(w.values, before)
        assert opt.step_count == 1

    def test_missing_gradients_listed_by_name(self):
        a = Tensor([1.0], name="alpha")
        b = Tensor([1.0], name="beta")
        opt = Adam([a, b])
        a.grad = np.ones(1)
        with pytest.raises(ValueError) as exc:
            opt.step()
        assert "beta" in str(exc.value)
        assert "alpha" not in str(exc.value)
        assert opt.step_count == 0

    def test_name_requirements(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0])])
        with pytest.raises(ValueError):
            Adam(
                [
                    Tensor([1.0], name="w"),
                    Tensor([2.0], name="w"),
                ]
            )

    def test_zero_grad_clears_all(self):
        w = Tensor([1.0], name="w")
        w.grad = np.ones(1)
        zero_grad(Adam([w]).params)
        assert w.grad.dtype == np.float64 and np.array_equal(w.grad, np.zeros(1))

    def test_quadratic_descent_tracks_oracle(self):
        # Minimize w^2 from w=1; at lr=0.01 Adam's near-unit steps bring
        # |w| under 0.5 well within 100 iterations.
        w = Tensor([1.0], name="w")
        opt = Adam([w], lr=0.01)
        losses = []
        for _ in range(100):
            zero_grad(opt.params)
            with Tape() as tape:
                loss = tensor_sum(mul(w, w))
            losses.append(float(loss.values))
            tape.backward(loss)
            opt.step()
        expected = adam_reference([1.0], lambda cur: 2.0 * cur, 100, 0.01)
        assert np.allclose(w.values, expected, rtol=1e-12, atol=1e-15)
        assert abs(float(w.values[0])) < 0.5
        assert losses[:5] == sorted(losses[:5], reverse=True)

    def test_runs_are_deterministic(self):
        def final():
            w = Tensor([1.0, 2.0], name="w")
            opt = Adam([w], lr=0.05)
            for _ in range(10):
                zero_grad(opt.params)
                with Tape() as tape:
                    loss = tensor_sum(mul(w, w))
                tape.backward(loss)
                opt.step()
            return w.values

        assert np.array_equal(final(), final())


class TestGradCheck:
    def test_linear_model_is_exact_to_roundoff(self):
        rng = np.random.default_rng(0)
        weights = Tensor(rng.normal(size=(2, 3)), name="W")
        bias = Tensor(rng.normal(size=3), name="b")
        x = Tensor(rng.normal(size=(1, 2)))

        def forward():
            return tensor_sum(add(matmul(x, weights), bias))

        report = grad_check(forward, [weights, bias], np.random.default_rng(1))
        assert report.max_rel_err < 1e-8
        assert report.passed
        assert set(report.worst_by_param) == {"W", "b"}

    def test_small_nonlinear_net_passes(self):
        rng = np.random.default_rng(2)
        w1 = Tensor(rng.normal(scale=0.5, size=(3, 4)), name="w1")
        w2 = Tensor(rng.normal(scale=0.5, size=(4, 3)), name="w2")
        x = Tensor(rng.normal(size=(1, 3)))

        def forward():
            hidden = tanh(matmul(x, w1))
            return cross_entropy(flatten(matmul(hidden, w2)), 1)

        report = grad_check(forward, [w1, w2], np.random.default_rng(3))
        assert report.max_rel_err < 1e-4
        assert report.passed

    def test_detects_corrupted_gradient(self):
        x = Tensor([0.5], name="x")

        def bad_double(t):
            out = Tensor(t.values * 2.0)
            tape = active_tape()
            if tape is not None:

                def thunk():
                    if t.grad is None:
                        t.grad = np.zeros_like(t.values)
                    t.grad += out.grad * 3.0  # wrong: forward used factor 2

                tape.record(out, thunk)
            return out

        report = grad_check(
            lambda: tensor_sum(bad_double(x)), [x], np.random.default_rng(0)
        )
        assert report.max_rel_err > 0.1
        assert not report.passed

    def test_zero_analytic_gradient_still_checked(self):
        unused = Tensor([1.0], name="unused")
        live = Tensor([1.0], name="live")

        def forward():
            return tensor_sum(mul(live, live))

        report = grad_check(forward, [unused, live], np.random.default_rng(0))
        assert report.worst_by_param["unused"] == 0.0
        assert report.passed

    def test_restores_parameter_values(self):
        w = Tensor([1.0, 2.0, 3.0], name="w")
        before = w.values.copy()
        grad_check(lambda: tensor_sum(mul(w, w)), [w], np.random.default_rng(0))
        assert np.array_equal(w.values, before)


class TestFlatten:
    def test_values_row_major(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(flatten(x).values, [1.0, 2.0, 3.0, 4.0])

    def test_gradient_reshapes_back(self):
        x = Tensor(np.ones((2, 3)))
        c = Tensor(np.arange(6.0))
        run_backward(lambda: tensor_sum(mul(flatten(x), c)))
        assert np.array_equal(x.grad, np.arange(6.0).reshape(2, 3))


class TestCheckpoints:
    def payload(self):
        rng = np.random.default_rng(9)
        return {
            "w": rng.normal(size=(2, 3)),
            "b": rng.normal(size=3),
            "s": np.float64(4.25),
        }

    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "model.ckpt"
        meta = {"hidden": 75, "preset": "demo"}
        save_checkpoint(path, self.payload(), meta)
        tensors, loaded_meta = load_checkpoint(path)
        source = self.payload()
        assert loaded_meta == meta
        assert set(tensors) == {"w", "b", "s"}
        assert np.array_equal(tensors["w"], source["w"])
        assert np.array_equal(tensors["b"], source["b"])
        assert tensors["s"].shape == ()
        assert tensors["s"] == 4.25

    def test_bytes_independent_of_insertion_order(self, tmp_path):
        data = self.payload()
        forward = tmp_path / "a.ckpt"
        reverse = tmp_path / "b.ckpt"
        save_checkpoint(forward, data, {"k": 1})
        save_checkpoint(reverse, dict(reversed(list(data.items()))), {"k": 1})
        assert forward.read_bytes() == reverse.read_bytes()

    def test_meta_defaults_to_empty(self, tmp_path):
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, {"x": np.ones(2)})
        _, meta = load_checkpoint(path)
        assert meta == {}

    def test_magic_prefix_present(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {})
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert "magic" in str(exc.value)

    def test_rejects_unknown_version(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, {"x": np.ones(1)})
        blob = bytearray(good.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError) as exc:
            load_checkpoint(bad)
        assert "version" in str(exc.value)

    def test_rejects_truncation_and_trailing_bytes(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, {"x": np.arange(4.0)})
        blob = good.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[:-4])
        with pytest.raises(ValueError) as exc:
            load_checkpoint(cut)
        assert "truncated" in str(exc.value)
        extra = tmp_path / "extra.ckpt"
        extra.write_bytes(blob + b"xx")
        with pytest.raises(ValueError) as exc:
            load_checkpoint(extra)
        assert "trailing" in str(exc.value)

    def crafted(self, tmp_path, old_name: bytes, new_name: bytes):
        """A valid two-tensor checkpoint with one tensor name's bytes replaced."""
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, {"qx": np.ones(2), "qy": np.zeros(2)})
        blob = good.read_bytes()
        assert blob.count(old_name) == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(old_name, new_name))
        return bad

    def test_rejects_non_utf8_tensor_name(self, tmp_path):
        bad = self.crafted(tmp_path, b"qy", b"\xff\xfe")
        with pytest.raises(ValueError) as exc:
            load_checkpoint(bad)
        assert not isinstance(exc.value, UnicodeDecodeError)
        assert str(bad) in str(exc.value)
        assert "tensor name" in str(exc.value)

    def test_rejects_duplicate_tensor_name(self, tmp_path):
        bad = self.crafted(tmp_path, b"qy", b"qx")
        with pytest.raises(ValueError) as exc:
            load_checkpoint(bad)
        assert str(bad) in str(exc.value)
        assert "duplicate tensor name 'qx'" in str(exc.value)

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "clean.ckpt"
        save_checkpoint(path, {"x": np.ones(3)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.ckpt"]

    @settings(max_examples=25)
    @given(
        st.dictionaries(
            st.text(
                alphabet="abcdefghij_", min_size=1, max_size=8
            ),
            st.lists(
                st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False
                ),
                min_size=1,
                max_size=6,
            ),
            max_size=4,
        )
    )
    def test_roundtrip_property(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("ckpt") / "p.ckpt"
        arrays = {k: np.asarray(v) for k, v in payload.items()}
        save_checkpoint(path, arrays, {"n": len(arrays)})
        tensors, meta = load_checkpoint(path)
        assert meta == {"n": len(arrays)}
        assert set(tensors) == set(arrays)
        for k, v in arrays.items():
            assert np.array_equal(tensors[k], v)
