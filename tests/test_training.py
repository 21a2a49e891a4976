"""Trainer phases, determinism, and evaluation report identities."""

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from mpe.autodiff import Tape, cross_entropy, scale, tensor_sum, zero_grad
from mpe.dataset import Item, LABELS, SpePair, label_index, load_items
from mpe.models import ARCHITECTURES, SumOfExpertsModel, concat_premises, load_model
from mpe.text import normalize
from mpe.training import (
    EVAL_CHUNK,
    EpochLog,
    PRESETS,
    TrainConfig,
    Trainer,
    accuracy,
    batch_logits,
    build_model,
    evaluate,
    format_eval_report,
    forward_logits,
    predict_all,
    train,
    vocabulary_from_items,
)

MARKERS = {"E": "alpha", "N": "beta", "C": "gamma"}
VARIANTS = ("zero", "one", "two", "three")
FILLERS = (
    ("dog runs", "cat sits", "bird sings", "fish swims"),
    ("man cooks", "woman reads", "boy jumps", "girl paints"),
)
PAIR_PATTERNS = (
    ("E", "E", "E", "E"),
    ("E", "N", "C", "N"),
    ("N", "N", "C", "E"),
)


def synth_items(n=12, with_pairs=False, with_tags=False, offset=0):
    """Separable fixtures: the hypothesis marker word determines the label."""
    items = []
    for i in range(n):
        label = LABELS[(i + offset) % 3]
        items.append(
            Item(
                id=f"syn-{offset}-{i:03d}",
                scene_group_id=f"g{i:03d}",
                premises=tuple(map(normalize, FILLERS[i % 2])),
                hypothesis=normalize(f"{MARKERS[label]} sign {VARIANTS[i % 4]}"),
                gold_label=label,
                pair_labels=PAIR_PATTERNS[i % 3] if with_pairs else None,
                phenomenon_tags=frozenset({f"tag{i % 2}"}) if with_tags else frozenset(),
            )
        )
    return items


def synth_pairs(n=12, offset=0):
    pairs = []
    for i in range(n):
        label = LABELS[(i + offset) % 3]
        pairs.append(
            SpePair(
                id=f"pair-{i:03d}",
                premise=normalize(FILLERS[i % 2][i % 4]),
                hypothesis=normalize(f"{MARKERS[label]} sign {VARIANTS[(i + 1) % 4]}"),
                label=label,
            )
        )
    return pairs


def tiny_config(**overrides):
    base = dict(
        model="conditional-lstm",
        state_dim=4,
        embedding_dim=4,
        epochs=2,
        batch_size=3,
        learning_rate=0.01,
        keep_prob=1.0,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tensor_values(model):
    return {name: t.values.copy() for name, t in model.tensors.items()}


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 10
        assert cfg.batch_size == 32
        assert cfg.learning_rate == 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(model="perceptron")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(keep_prob=0.0)
        with pytest.raises(ValueError):
            TrainConfig(keep_prob=1.5)
        with pytest.raises(ValueError):
            TrainConfig(state_dim=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_learning_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_presets_pin_dimensions(self):
        assert PRESETS["lstm-mpe"].model == "conditional-lstm"
        assert PRESETS["lstm-mpe"].state_dim == 75
        assert PRESETS["lstm-mpe"].keep_prob == 0.8
        assert PRESETS["se-mpe"].model == "sum-of-experts"
        assert PRESETS["se-mpe"].state_dim == 100
        assert PRESETS["attn-mpe"].model == "attention"
        assert PRESETS["attn-mpe"].keep_prob == 0.6
        assert PRESETS["snli-pretrain"].state_dim == 100
        for preset in PRESETS.values():
            assert preset.learning_rate == 0.001
            assert preset.epochs == 10
            assert preset.batch_size == 32


class TestAdapters:
    def test_vocabulary_sorted_over_all_texts(self):
        vocab = vocabulary_from_items(synth_items(3))
        assert vocab == sorted(vocab)
        assert "alpha" in vocab and "dog" in vocab and "sign" in vocab

    def test_vocabulary_includes_spe_pairs(self):
        vocab = vocabulary_from_items(synth_pairs(3))
        assert "beta" in vocab

    def test_forward_logits_all_architectures_both_arities(self):
        item = synth_items(1)[0]
        pair = synth_pairs(1)[0]
        vocab = vocabulary_from_items([item, pair])
        for kind in ("conditional-lstm", "attention", "sum-of-experts"):
            model = build_model(tiny_config(model=kind), vocab)
            for example in (item, pair):
                logits = forward_logits(model, example)
                assert logits.values.shape == (3,)
                assert np.all(np.isfinite(logits.values))

    def test_foreign_item_type_rejected(self):
        model = build_model(tiny_config(), ["dog"])
        with pytest.raises(AttributeError):
            forward_logits(model, object())

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_single_item_calls_are_the_batch_of_one(self, arch):
        model = batch_model(arch, keep_prob=1.0)
        for item in (*synth_pairs(2), *ragged_items(2)):
            row = batch_logits(model, [item]).values[0]
            premises = [list(p.tokens) for p in item.premises]
            hypothesis = list(item.hypothesis.tokens)
            joined = premises if arch == "sum-of-experts" else concat_premises(premises)
            assert np.array_equal(model.batch_logits([premises], [hypothesis]).values[0], row)
            # The conditional LSTM's forward has no extras to return.
            out = model.forward(joined, hypothesis)
            forward = out if arch == "conditional-lstm" else out[0]
            assert np.array_equal(forward.values, row)
            assert np.array_equal(forward_logits(model, item).values, row)

    def test_spe_pairs_score_like_items(self):
        pairs = synth_pairs(5)
        vocab = vocabulary_from_items(pairs)
        assert {"alpha", "beta", "gamma", "dog"} <= set(vocab)
        model = build_model(tiny_config(), vocab)
        logits = batch_logits(model, pairs)
        assert logits.values.shape == (5, 3)
        guesses = predict_all(model, pairs)
        hits = sum(guess == pair.label for guess, pair in zip(guesses, pairs))
        assert accuracy(model, pairs) == hits / 5

    def test_predict_returns_pinned_class_order(self):
        model = build_model(tiny_config(), ["dog"])
        for p in model.params():
            p.values[...] = 0.0
        assert predict_all(model, synth_items(1)) == ["E"]


class TestTrainer:
    def test_unlabeled_item_named_in_error(self):
        items = synth_items(3)
        items[1] = replace(items[1], gold_label=None)
        model = build_model(tiny_config(), vocabulary_from_items(items))
        with pytest.raises(ValueError) as exc:
            Trainer(model, tiny_config()).run(items, 1)
        assert items[1].id in str(exc.value)

    def test_empty_dataset_rejected(self):
        model = build_model(tiny_config(), ["dog"])
        with pytest.raises(ValueError):
            Trainer(model, tiny_config()).run([], 1)

    def test_zero_learning_rate_freezes_parameters(self):
        items = synth_items(6)
        cfg = tiny_config(learning_rate=0.0, epochs=3)
        result = train(items, cfg)
        fresh = build_model(cfg, vocabulary_from_items(items))
        for name, values in tensor_values(fresh).items():
            assert np.array_equal(result.model.tensors[name].values, values)

    def test_identical_seeds_reproduce_logs_and_weights(self):
        items = synth_items(6)
        a = train(items, tiny_config(seed=3))
        b = train(items, tiny_config(seed=3))
        assert a.logs == b.logs
        for name, values in tensor_values(a.model).items():
            assert np.array_equal(values, b.model.tensors[name].values)

    def test_different_seeds_diverge(self):
        items = synth_items(6)
        a = train(items, tiny_config(seed=3))
        b = train(items, tiny_config(seed=4))
        assert a.logs != b.logs

    def test_epoch_log_shape(self):
        items = synth_items(6)
        dev = synth_items(3, offset=1)
        result = train(items, tiny_config(epochs=2), dev=dev)
        assert [log.epoch for log in result.logs] == [1, 2]
        assert all(log.phase == "train" for log in result.logs)
        for log in result.logs:
            assert np.isfinite(log.train_loss)
            assert 0.0 <= log.train_accuracy <= 1.0
            assert 0.0 <= log.dev_accuracy <= 1.0

    def test_no_dev_logs_none(self):
        result = train(synth_items(3), tiny_config(epochs=1))
        assert result.logs[0].dev_accuracy is None

    def test_partial_batches_run(self):
        result = train(synth_items(5), tiny_config(batch_size=2, epochs=1))
        assert len(result.logs) == 1

    def test_epoch_log_record_is_json_ready(self):
        log = EpochLog("train", 1, 0.5, 0.75, None)
        record = json.loads(json.dumps(asdict(log)))
        assert record == {
            "phase": "train",
            "epoch": 1,
            "train_loss": 0.5,
            "train_accuracy": 0.75,
            "dev_accuracy": None,
        }

    def test_dropout_draws_differ_across_epochs(self):
        items = synth_items(6)
        result = train(items, tiny_config(keep_prob=0.5, epochs=2, seed=9))
        assert result.logs[0].train_loss != result.logs[1].train_loss

    def test_best_epoch_retention(self, tmp_path):
        items = synth_items(6)
        dev = synth_items(3, offset=2)
        cfg = tiny_config(epochs=3)
        result = train(items, cfg, dev=dev)
        assert 1 <= result.best_epoch <= 3
        assert result.best_phase == "train"
        assert set(result.best_params) == set(result.model.tensors)
        path = tmp_path / "best.ckpt"
        result.save_best_checkpoint(path)
        restored = load_model(path)
        for name, values in result.best_params.items():
            assert np.array_equal(restored.tensors[name].values, values)

    def test_snapshot_leaves_out_frozen_vectors(self, tmp_path):
        items = synth_items(6)
        vectors = {token: [0.1, 0.2, 0.3, 0.4] for token in vocabulary_from_items(items)}
        config = tiny_config(epochs=1, trainable_embeddings=False)
        result = train(items, config, vectors=vectors)
        assert "embeddings.main" not in result.best_params
        assert set(result.best_params) == {t.name for t in result.model.params()}
        # One epoch is the best: its checkpoint is the final model's, byte for byte.
        result.save_best_checkpoint(tmp_path / "best.ckpt")
        result.model.save(tmp_path / "final.ckpt")
        assert (tmp_path / "best.ckpt").read_bytes() == (tmp_path / "final.ckpt").read_bytes()


class TestOverfit:
    def test_separable_set_reaches_full_accuracy(self):
        items = synth_items(32)
        cfg = tiny_config(state_dim=6, embedding_dim=6, batch_size=8)
        model = build_model(cfg, vocabulary_from_items(items))
        trainer = Trainer(model, cfg)
        for _ in range(200):
            log = trainer.run(items, 1)[-1]
            if log.train_accuracy == 1.0:
                break
        assert trainer.logs[-1].train_accuracy == 1.0
        first_losses = [entry.train_loss for entry in trainer.logs[:5]]
        assert first_losses == sorted(first_losses, reverse=True)
        assert len(set(first_losses)) == len(first_losses)


class TestPretrainFinetune:
    def test_degenerate_phases_equal_one_long_run(self):
        items = synth_items(6)
        cfg = tiny_config(epochs=2)
        staged = train(items, cfg, pretrain=items)
        flat = train(items, replace(cfg, epochs=4))
        assert [log.phase for log in staged.logs] == ["pretrain"] * 2 + [
            "finetune"
        ] * 2
        assert [log.epoch for log in staged.logs] == [1, 2, 1, 2]
        assert [log.train_loss for log in staged.logs] == [
            log.train_loss for log in flat.logs
        ]
        for name, values in tensor_values(staged.model).items():
            assert np.array_equal(values, flat.model.tensors[name].values)

    def test_se_consumes_single_premise_pretrain(self):
        cfg = tiny_config(model="sum-of-experts", epochs=1)
        result = train(synth_items(6), cfg, pretrain=synth_pairs(6))
        assert isinstance(result.model, SumOfExpertsModel)
        assert [log.phase for log in result.logs] == ["pretrain", "finetune"]

    def test_transfer_beats_chance_on_shared_rule(self):
        cfg = tiny_config(state_dim=6, embedding_dim=6, epochs=3, batch_size=4)
        dev = synth_items(6, offset=1)
        result = train(synth_items(12), cfg, dev=dev, pretrain=synth_pairs(12))
        assert result.logs[-1].dev_accuracy >= 1.0 / 3.0

    def test_wrong_item_type_raises(self):
        cfg = tiny_config(epochs=1)
        model = build_model(cfg, ["dog"])
        with pytest.raises(AttributeError):
            Trainer(model, cfg).run([object()], 1)


class TestEvaluate:
    def eval_fixture(self, with_pairs=True, with_tags=True, seed=1):
        items = synth_items(12, with_pairs=with_pairs, with_tags=with_tags)
        model = build_model(tiny_config(seed=seed), vocabulary_from_items(items))
        return model, items

    def test_empty_dataset_rejected(self):
        model, _ = self.eval_fixture()
        with pytest.raises(ValueError):
            evaluate(model, [])

    def test_unlabeled_item_named(self):
        model, items = self.eval_fixture()
        items[3] = replace(items[3], gold_label=None)
        with pytest.raises(ValueError) as exc:
            evaluate(model, items)
        assert items[3].id in str(exc.value)

    def test_constant_predictor_accuracy_is_class_frequency(self):
        model, items = self.eval_fixture()
        for p in model.params():
            p.values[...] = 0.0
        report = evaluate(model, items)
        freq_e = sum(i.gold_label == "E" for i in items) / len(items)
        assert report.accuracy == freq_e
        assert report.per_class["E"].accuracy == 1.0
        assert report.per_class["N"].accuracy == 0.0
        assert report.per_class["C"].accuracy == 0.0
        assert set(report.predictions) == {"E"}

    def test_overall_matches_correct_over_total(self):
        model, items = self.eval_fixture()
        report = evaluate(model, items)
        hits = sum(g == item.gold_label for g, item in zip(predict_all(model, items), items))
        assert report.correct == hits
        assert report.accuracy == hits / len(items)
        assert accuracy(model, items) == report.accuracy

    def test_class_breakdown_partitions(self):
        model, items = self.eval_fixture()
        report = evaluate(model, items)
        assert sum(b.total for b in report.per_class.values()) == report.n_items
        weighted = sum(b.correct for b in report.per_class.values())
        assert weighted / report.n_items == report.accuracy

    def test_confusion_rows_match_class_counts(self):
        model, items = self.eval_fixture()
        report = evaluate(model, items)
        for label, row in zip(LABELS, report.confusion):
            assert sum(row) == report.per_class[label].total
        diag = sum(report.confusion[i][i] for i in range(3))
        assert diag == report.correct

    def test_category_breakdown_partitions_when_fully_labeled(self):
        model, items = self.eval_fixture(with_pairs=True)
        report = evaluate(model, items)
        assert report.by_category is not None
        assert sum(b.total for b in report.by_category.values()) == report.n_items
        weighted = sum(b.correct for b in report.by_category.values())
        assert weighted / report.n_items == report.accuracy

    def test_missing_pair_labels_skip_category_breakdown(self):
        model, items = self.eval_fixture(with_pairs=True)
        items[0] = replace(items[0], pair_labels=None)
        report = evaluate(model, items)
        assert report.by_category is None
        assert any("pair labels" in d for d in report.diagnostics)

    def test_single_tag_partition_matches_overall(self):
        model, items = self.eval_fixture(with_tags=True)
        report = evaluate(model, items)
        assert sum(b.total for b in report.by_phenomenon.values()) == report.n_items
        weighted = sum(b.correct for b in report.by_phenomenon.values())
        assert weighted / report.n_items == report.accuracy

    def test_untagged_dataset_notes_diagnostic(self):
        model, items = self.eval_fixture(with_tags=False)
        report = evaluate(model, items)
        assert report.by_phenomenon == {}
        assert any("phenomenon" in d for d in report.diagnostics)

    def test_predictions_aligned_with_items(self):
        model, items = self.eval_fixture()
        report = evaluate(model, items)
        assert len(report.predictions) == len(items)
        for item, guess in zip(items, report.predictions):
            assert [guess] == predict_all(model, [item])

    def test_evaluation_never_mutates_parameters(self):
        model, items = self.eval_fixture()
        before = tensor_values(model)
        evaluate(model, items)
        for name, values in tensor_values(model).items():
            assert np.array_equal(values, before[name])

    def test_works_on_spe_pairs(self):
        pairs = synth_pairs(6)
        model = build_model(tiny_config(), vocabulary_from_items(pairs))
        report = evaluate(model, pairs)
        assert report.n_items == 6
        assert report.by_category is None


def ragged_items(n=7):
    """Items whose premises and hypotheses differ in length, with words the
    vocabulary below does not hold."""
    words = "dog runs cat sits bird sings fish swims man cooks fast slowly".split()
    rng = np.random.default_rng(n)

    def sentence():
        return " ".join(rng.choice(words, size=int(rng.integers(1, 6))))

    return [
        Item(
            id=f"rag-{i:03d}",
            scene_group_id=f"r{i:03d}",
            premises=tuple(normalize(sentence()) for _ in range(4)),
            hypothesis=normalize(sentence()),
            gold_label=LABELS[i % 3],
        )
        for i in range(n)
    ]


def batch_model(arch, keep_prob):
    vocab = "dog runs cat sits bird man".split()
    config = TrainConfig(
        model=arch, embedding_dim=4, state_dim=5, seed=3, keep_prob=keep_prob
    )
    return build_model(config, vocab)


def labels_of(items):
    return [label_index(item.gold_label) for item in items]


class TestBatchPath:
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_batch_gradient_equals_serial_accumulation(self, arch):
        model, items = batch_model(arch, keep_prob=0.6), ragged_items()
        serial_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
        zero_grad(model.params())
        for item, klass in zip(items, labels_of(items)):
            with Tape() as tape:
                logits = forward_logits(model, item, train=True, rng=serial_rng)
                loss = scale(cross_entropy(logits, klass), 1.0 / len(items))
            tape.backward(loss)
        serial = {p.name: p.grad.copy() for p in model.params()}
        zero_grad(model.params())
        with Tape() as tape:
            losses = cross_entropy(
                batch_logits(model, items, rng=batch_rng), labels_of(items)
            )
            loss = scale(tensor_sum(losses), 1.0 / len(items))
        tape.backward(loss)
        for p in model.params():
            assert np.max(np.abs(p.grad - serial[p.name])) <= 1e-12, p.name
        # The same masks were drawn, so both streams stand at the same place.
        assert serial_rng.random() == batch_rng.random()

    def test_untouched_parameter_keeps_an_exact_zero_gradient(self):
        """Sum-of-experts never joins premises, so a batch with no unknown word
        reads no special row: that tensor's gradient is zeros after the
        training step's zero_grad and backward, and Adam leaves it unchanged."""
        model = batch_model("sum-of-experts", keep_prob=0.6)
        items = [
            Item(
                id=f"known-{i}",
                scene_group_id=f"k{i}",
                premises=tuple(map(normalize, ("dog runs", "cat sits", "bird", "man"))),
                hypothesis=normalize(("man runs", "dog sits", "cat")[i]),
                gold_label=LABELS[i],
            )
            for i in range(3)
        ]
        texts = [text for item in items for text in (*item.premises, item.hypothesis)]
        vocab = model.embeddings.vocab
        assert all(token in vocab for text in texts for token in text.tokens)
        special = model.embeddings.special
        before = special.values.copy()
        config = TrainConfig(model="sum-of-experts", batch_size=3, seed=3)
        Trainer(model, config).run(items, epochs=1)
        assert special.grad.shape == before.shape and not special.grad.any()
        assert any(p.grad.any() for p in model.params())
        assert np.array_equal(special.values, before)

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_batch_untaped_equals_taped_and_gradients_repeat(self, arch):
        items = ragged_items()
        grads = []
        for _ in range(2):
            model = batch_model(arch, keep_prob=1.0)
            untaped = batch_logits(model, items).values
            with Tape() as tape:
                logits = batch_logits(model, items)
                loss = tensor_sum(cross_entropy(logits, labels_of(items)))
            assert logits.values.tobytes() == untaped.tobytes()
            tape.backward(loss)
            grads.append([p.grad.tobytes() for p in model.params()])
        assert grads[0] == grads[1]

    def test_mixed_premise_counts_rejected(self):
        # A batch is one model call; sum-of-experts reads one premise slot
        # at a time, so its items must share their number of premises.
        model = batch_model("sum-of-experts", keep_prob=1.0)
        items = [*ragged_items(3), *synth_pairs(2), *ragged_items(2)]
        with pytest.raises(ValueError, match=r"need 1 or 4 premises per item, got \[1, 4\]"):
            batch_logits(model, items)

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_evaluate_past_one_chunk_matches_predict(self, arch):
        model = batch_model(arch, keep_prob=1.0)
        items = ragged_items(EVAL_CHUNK + 9)
        report = evaluate(model, items)
        assert list(report.predictions) == [predict_all(model, [item])[0] for item in items]


# sha256 of the untaped (8, 3) logits `batch_logits` gives for the items of
# tests/fixtures/golden_items.jsonl, from each preset's fresh `build_model`
# over their vocabulary: they pin the eval path of all three architectures
# bit for bit (with the one BLAS thread conftest.py pins).
PINNED_LOGITS = {
    "attn-mpe": "89dbbeac3374d80d249a0c8cb575d4520146606b6d8689597ba9ed0d419667ea",
    "lstm-mpe": "089a8aebf18806e92bccbd5a5cad59bfed8e87e40a2d8aff7a4c6407e31a6a7e",
    "se-mpe": "4ded9bc5d15e6f2838e55601676afed5b2f694e1f48ada871a09f9ffdb8ccc1f",
}


@pytest.mark.parametrize("preset", sorted(PINNED_LOGITS))
def test_golden_items_logits_pinned(preset):
    items = load_items(Path(__file__).parent / "fixtures" / "golden_items.jsonl")
    model = build_model(PRESETS[preset], vocabulary_from_items(items))
    logits = batch_logits(model, items).values
    assert logits.shape == (len(items), 3)
    assert hashlib.sha256(logits.tobytes()).hexdigest() == PINNED_LOGITS[preset]


# sha256 of one full eval chunk at each preset's size: the untaped (32, 3)
# logits of `ragged_items(EVAL_CHUNK)`, and every parameter's gradient (name,
# then bytes, in `params()` order) after one taped, undropped cross-entropy
# batch over them. Ragged premises freeze rows mid-read, so both the forward
# and the backward step loops run their padded branches.
PINNED_CHUNK = {
    "attn-mpe": (
        "1c275462b69945078a1657038146473854acfc645145ed5d5469f3e6ab8b940a",
        "975824b9e22f111869c8f16989cfb62384e10981ea76ddc7f73b2c7020c81a47",
    ),
    "lstm-mpe": (
        "491803575a2ea1df6284799af187512a76fa1a0ebf9aca96395b15139ae194a0",
        "b2195cbc4f0f867246f51c23349a4fedf32d8241d4b18adfe6d88d21f6a57e0e",
    ),
    "se-mpe": (
        "dbbac67061b9a61ea643e18322d46f126e2eb3d984c8f437ecf5efcc2d215e03",
        "c60695b50a4f7ac98f98b759b6c05cf750221f871151131c0d5c4d8118110738",
    ),
}


@pytest.mark.parametrize("preset", sorted(PINNED_CHUNK))
def test_eval_chunk_logits_and_gradients_pinned(preset):
    items = ragged_items(EVAL_CHUNK)
    model = build_model(PRESETS[preset], vocabulary_from_items(items))
    untaped = batch_logits(model, items).values
    assert untaped.shape == (EVAL_CHUNK, 3)
    zero_grad(model.params())
    with Tape() as tape:
        loss = tensor_sum(cross_entropy(batch_logits(model, items), labels_of(items)))
    tape.backward(loss)
    grads = hashlib.sha256()
    for p in model.params():
        grads.update(p.name.encode() + p.grad.tobytes())
    pinned_logits, pinned_grads = PINNED_CHUNK[preset]
    assert hashlib.sha256(untaped.tobytes()).hexdigest() == pinned_logits
    assert grads.hexdigest() == pinned_grads


class TestReportRendering:
    def test_text_table_sections(self):
        items = synth_items(9, with_pairs=True, with_tags=True)
        model = build_model(tiny_config(seed=2), vocabulary_from_items(items))
        text = format_eval_report(evaluate(model, items))
        for fragment in ("accuracy:", "per class:", "pair-agreement", "confusion"):
            assert fragment in text
        assert "tag0" in text and "tag1" in text

    def test_skipped_sections_are_marked(self):
        items = synth_items(6)
        model = build_model(tiny_config(seed=2), vocabulary_from_items(items))
        text = format_eval_report(evaluate(model, items))
        assert "(skipped)" in text
        assert "note:" in text

    def test_record_is_json_serializable(self):
        items = synth_items(6, with_pairs=True)
        model = build_model(tiny_config(seed=2), vocabulary_from_items(items))
        record = json.loads(json.dumps(evaluate(model, items).to_record()))
        assert record["labels"] == ["E", "N", "C"]
        assert record["n_items"] == 6
        assert record["by_category"] is not None
        assert 0.0 <= record["accuracy"] <= 1.0
