"""Aggregation, adjudication, item generation, statistics, and file formats."""

import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.dataset import (
    LABELS,
    EmptyCorpusError,
    GenerationConfig,
    Item,
    SpePair,
    UnknownItemError,
    adjudicate,
    aggregate_labels,
    attach_judgments,
    corpus_stats,
    flagged_items,
    generate_items,
    graph_captions,
    load_captions,
    load_decisions,
    load_examples,
    load_items,
    save_items,
)
from mpe.graph import PhraseGraph, build_graph, caption_closures
from mpe.models import load_pretrained_vectors
from mpe.text import _read_pairs, _read_word_list, normalize, word_overlap
from mpe.voting import load_pair_labels

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def corpus():
    return load_captions(FIXTURES / "captions.tsv")


@pytest.fixture(scope="module")
def graph(corpus):
    """The phrase graph, built only as an oracle for generated items."""
    return build_graph(graph_captions(corpus))


@pytest.fixture(scope="module")
def closures(corpus):
    return caption_closures(graph_captions(corpus))


@pytest.fixture(scope="module")
def generated(corpus, closures):
    return generate_items(corpus, closures, GenerationConfig(n_items=8, seed=42))


def with_field(path, save, record, key, value):
    """Save one record, then overwrite one field of it with a raw JSON value."""
    save([record], path)
    header, line = path.read_text().splitlines()
    fields = json.loads(line)
    fields[key] = value
    path.write_text(f"{header}\n{json.dumps(fields)}\n")
    return path


def mk_item(item_id="i0", gold=None, judgments=(), pair_labels=None, hypothesis=None):
    premises = tuple(
        normalize(t)
        for t in ("A dog runs.", "A cat sits.", "A bird sings.", "A fish swims.")
    )
    return Item(
        id=item_id,
        scene_group_id="gX",
        premises=premises,
        hypothesis=normalize(hypothesis or "an animal moves"),
        gold_label=gold,
        judgments=tuple(judgments),
        pair_labels=pair_labels,
    )


def old_rule(js):
    """The earlier aggregation rule, as (label, label_source): a leader of 3+
    votes is a 3-2 split when the runner-up pair is the other of E and C."""
    counts = tuple(js.count(label) for label in LABELS)
    top = max(counts)
    if top < 3:
        return None, None
    label = LABELS[counts.index(top)]
    runners = [l for l, c in zip(LABELS, counts) if c == 2]
    if top == 3 and runners and {label, runners[0]} == {"E", "C"}:
        return label, "majority-provisional"
    return label, "majority"


class TestAggregateLabels:
    def test_clear_majority(self):
        assert aggregate_labels(["E", "E", "E", "N", "C"]) == ("E", "majority")

    def test_two_two_one(self):
        assert aggregate_labels(["E", "E", "C", "C", "N"]) == (None, None)

    def test_three_two_entailment_contradiction(self):
        assert aggregate_labels(["E", "E", "E", "C", "C"]) == ("E", "majority-provisional")

    def test_three_two_contradiction_majority(self):
        assert aggregate_labels(["C", "C", "C", "E", "E"]) == ("C", "majority-provisional")

    def test_three_two_with_neutral_is_clear(self):
        assert aggregate_labels(["E", "E", "E", "N", "N"]) == ("E", "majority")
        assert aggregate_labels(["N", "N", "N", "C", "C"]) == ("N", "majority")

    def test_unanimous(self):
        assert aggregate_labels(["N"] * 5) == ("N", "majority")

    def test_four_one(self):
        assert aggregate_labels(["C", "C", "C", "C", "E"]) == ("C", "majority")

    # Judgments reach aggregation only on an `Item`, which checks them.
    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="exactly 5"):
            attach_judgments([mk_item()], {"i0": ("E", "E", "E", "E")})

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            attach_judgments([mk_item()], {"i0": ("E", "E", "E", "E", "X")})

    def test_exhaustive_against_count_pattern_oracle(self):
        for js in itertools.product(LABELS, repeat=5):
            label, source = aggregate_labels(js)
            counts = {label: js.count(label) for label in LABELS}
            top = max(counts.values())
            if top >= 3:
                assert label == max(LABELS, key=lambda l: counts[l])
                if sorted(counts.values()) == [0, 2, 3] and counts["N"] == 0:
                    assert source == "majority-provisional"
                else:
                    assert source == "majority"
            else:
                assert (label, source) == (None, None)

    def test_agrees_with_old_rule_on_all_patterns(self):
        patterns = list(itertools.product(LABELS, repeat=5))
        assert len(patterns) == 243
        for js in patterns:
            assert aggregate_labels(js) == old_rule(js), js

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(LABELS), min_size=5, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    def test_permutation_invariant(self, js, seed):
        shuffled = js[:]
        random.Random(seed).shuffle(shuffled)
        assert aggregate_labels(js) == aggregate_labels(shuffled)


class TestAttachJudgments:
    def test_majority_item_gets_label(self):
        items = attach_judgments([mk_item()], {"i0": ("E", "E", "E", "N", "C")})
        assert items[0].gold_label == "E"
        assert items[0].label_source == "majority"
        assert items[0].judgments == ("E", "E", "E", "N", "C")

    def test_provisional_label_for_three_two(self):
        items = attach_judgments([mk_item()], {"i0": ("E", "E", "E", "C", "C")})
        assert items[0].gold_label == "E"
        assert items[0].label_source == "majority-provisional"

    def test_two_two_one_left_unlabeled(self):
        items = attach_judgments([mk_item()], {"i0": ("E", "E", "N", "N", "C")})
        assert items[0].gold_label is None
        assert items[0].label_source is None
        assert items[0].judgments == ("E", "E", "N", "N", "C")

    def test_item_without_entry_untouched(self):
        item = mk_item()
        assert attach_judgments([item], {}) == [item]

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownItemError, match="ghost"):
            attach_judgments([mk_item()], {"ghost": ("E",) * 5})


class TestAdjudicate:
    def test_decision_applied(self):
        item = mk_item(judgments=("E", "E", "N", "N", "C"))
        out, unresolved = adjudicate([item], {"i0": "C"})
        assert out[0].gold_label == "C"
        assert out[0].label_source == "adjudicated"
        assert unresolved == []

    def test_missing_decision_reported(self):
        flagged = mk_item(judgments=("E", "E", "N", "N", "C"))
        out, unresolved = adjudicate([flagged], {})
        assert unresolved == ["i0"]
        assert out[0].gold_label is None

    def test_provisional_label_survives_missing_decision(self):
        item = mk_item(
            gold="E", judgments=("E", "E", "E", "C", "C"),
        )
        out, unresolved = adjudicate([item], {})
        assert out[0].gold_label == "E"
        assert unresolved == ["i0"]

    def test_unknown_decision_id_rejected(self):
        item = mk_item(judgments=("E", "E", "N", "N", "C"))
        with pytest.raises(UnknownItemError, match=r"unknown item ids: \['ghost'\]"):
            adjudicate([item], {"ghost": "E"})

    def test_unflagged_item_rejected(self):
        # A known item that aggregation does not flag: not an unknown id.
        item = mk_item(gold="E", judgments=("E", "E", "E", "E", "N"))
        with pytest.raises(ValueError, match=r"do not need adjudication: \['i0'\]") as exc:
            adjudicate([item], {"i0": "C"})
        assert not isinstance(exc.value, UnknownItemError)

    def test_whole_list_returned_in_order(self):
        items = [
            mk_item("a", gold="E", judgments=("E", "E", "E", "E", "N")),
            mk_item("b", judgments=("E", "E", "N", "N", "C")),
            mk_item("c"),
            mk_item("d", gold="C", judgments=("C", "C", "C", "E", "E")),
            mk_item("e", judgments=("N", "N", "C", "C", "E")),
        ]
        assert [item.id for item in flagged_items(items)] == ["b", "d", "e"]
        out, unresolved = adjudicate(items, {"e": "N"})
        assert [item.id for item in out] == ["a", "b", "c", "d", "e"]
        assert out[:4] == items[:4]
        assert out[4].gold_label == "N"
        assert out[4].label_source == "adjudicated"
        assert unresolved == ["b", "d"]

    def test_bad_decision_label_rejected(self):
        item = mk_item(judgments=("E", "E", "N", "N", "C"))
        with pytest.raises(ValueError, match="unknown label"):
            adjudicate([item], {"i0": "Q"})

    def test_adjudicated_item_never_flagged_again(self):
        items = attach_judgments(
            [mk_item("a"), mk_item("b")],
            {"a": ("E", "E", "N", "N", "C"), "b": ("C", "C", "C", "E", "E")},
        )
        out, unresolved = adjudicate(items, {"a": "N"})
        assert unresolved == ["b"]
        assert [item.id for item in flagged_items(out)] == ["b"]
        out, unresolved = adjudicate(out, {"b": "C"})
        assert unresolved == [] and flagged_items(out) == []
        with pytest.raises(ValueError, match=r"do not need adjudication: \['a'\]"):
            adjudicate(out, {"a": "E"})


class TestItemValidation:
    def test_wrong_premise_count(self):
        with pytest.raises(ValueError, match="4 premises"):
            Item(
                id="x",
                scene_group_id="g",
                premises=(normalize("A dog runs."),),
                hypothesis=normalize("dog"),
            )

    def test_wrong_judgment_count(self):
        with pytest.raises(ValueError, match="exactly 5"):
            mk_item(judgments=("E", "E"))

    def test_bad_gold_label(self):
        with pytest.raises(ValueError, match="unknown label"):
            mk_item(gold="X")

    def test_bad_split(self):
        with pytest.raises(ValueError, match="bad split"):
            Item(
                id="x",
                scene_group_id="g",
                premises=mk_item().premises,
                hypothesis=normalize("dog"),
                split="validation",
            )

    def test_wrong_pair_label_count(self):
        with pytest.raises(ValueError, match="exactly 4"):
            mk_item(pair_labels=("E", "N"))

    def test_bad_pair_label(self):
        with pytest.raises(ValueError, match="unknown label"):
            mk_item(pair_labels=("E", "E", "E", "Q"))


class TestGeneration:
    def test_requested_count_produced(self, generated):
        assert len(generated.items) == 8
        assert generated.diagnostics.shortfall == 0
        assert generated.diagnostics.related == 4
        assert generated.diagnostics.unrelated == 4

    def test_overlap_invariant_rechecked(self, generated):
        for item in generated.items:
            assert word_overlap(item.hypothesis, item.premises, "full") <= 0.5

    def test_boundary_overlap_is_accepted(self, generated):
        # The inclusive <= 0.5 ceiling: at least one survivor sits exactly on it.
        overlaps = [
            word_overlap(item.hypothesis, item.premises, "full")
            for item in generated.items
        ]
        assert any(o == 0.5 for o in overlaps)

    def test_hypothesis_not_ancestor_of_any_premise(self, generated, graph):
        for item in generated.items:
            hid = graph.node_id_for_phrase(tuple(item.hypothesis.lemmas))
            assert hid is not None
            for premise in item.premises:
                pid = graph.node_for_caption(premise)
                assert hid != pid
                assert hid not in graph.ancestors(pid)

    def test_support_threshold_rechecked(self, generated, graph):
        for item in generated.items:
            hid = graph.node_id_for_phrase(tuple(item.hypothesis.lemmas))
            _, _, caption_count = graph.nodes[hid]
            assert caption_count >= 2

    def test_one_item_per_group(self, generated):
        gids = [item.scene_group_id for item in generated.items]
        assert len(gids) == len(set(gids))

    def test_premises_are_first_four_captions(self, generated, corpus):
        by_gid = {g.gid: g for g in corpus}
        for item in generated.items:
            assert item.premises == by_gid[item.scene_group_id].captions[:4]

    def test_deterministic_under_seed(self, corpus, closures, tmp_path):
        a = generate_items(corpus, closures, GenerationConfig(n_items=8, seed=42))
        b = generate_items(corpus, closures, GenerationConfig(n_items=8, seed=42))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_items(a.items, pa)
        save_items(b.items, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_output(self, corpus, closures):
        a = generate_items(corpus, closures, GenerationConfig(n_items=8, seed=42))
        b = generate_items(corpus, closures, GenerationConfig(n_items=8, seed=43))
        assert [i.hypothesis.raw for i in a.items] != [
            i.hypothesis.raw for i in b.items
        ]

    def test_matches_golden_file(self, generated, tmp_path):
        out = tmp_path / "items.jsonl"
        save_items(generated.items, out)
        assert out.read_bytes() == (FIXTURES / "golden_items.jsonl").read_bytes()

    def test_shortfall_reported_not_raised(self, corpus, closures):
        result = generate_items(corpus, closures, GenerationConfig(n_items=50, seed=1))
        assert len(result.items) <= 12
        assert result.diagnostics.shortfall == 50 - len(result.items)

    def test_four_caption_group_hosts_unrelated_only(self, tmp_path):
        rows = []
        for i, text in enumerate(
            [
                "A small child is sprinting across the grass.",
                "A kid sprints over the lawn of a park.",
                "The young child races through a green field.",
                "A child in sneakers dashes past some trees.",
                "A girl runs.",
            ]
        ):
            rows.append(f"gA\t{i}\t{text}")
        for i, text in enumerate(
            [
                "A small boy splashes in a backyard pool.",
                "The boy paddles through the shallow water.",
                "A child floats near the edge of the pool.",
                "The young kid wades in the blue water.",
            ]
        ):
            rows.append(f"gB\t{i}\t{text}")
        path = tmp_path / "captions.tsv"
        path.write_text("\n".join(rows) + "\n")
        groups = load_captions(path)
        closures = caption_closures(graph_captions(groups))

        unrelated = generate_items(
            groups,
            closures,
            GenerationConfig(n_items=2, seed=0, related_fraction=0.0, min_support=1),
        )
        assert unrelated.diagnostics.produced == 2
        assert unrelated.diagnostics.unrelated == 2

        related = generate_items(
            groups,
            closures,
            GenerationConfig(n_items=2, seed=0, related_fraction=1.0, min_support=1),
        )
        # Only the five-caption group can host a related item.
        assert related.diagnostics.produced == 1
        assert related.diagnostics.shortfall == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_items"):
            GenerationConfig(n_items=0)
        with pytest.raises(ValueError, match="overlap_max"):
            GenerationConfig(n_items=1, overlap_max=1.5)
        with pytest.raises(ValueError, match="related_fraction"):
            GenerationConfig(n_items=1, related_fraction=-0.1)
        with pytest.raises(ValueError, match="min_support"):
            GenerationConfig(n_items=1, min_support=0)


class TestCorpusStats:
    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpusError):
            corpus_stats([])

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="without gold labels"):
            corpus_stats([mk_item()])

    def test_unanimous_agreement(self):
        report = corpus_stats([mk_item(gold="E", judgments=("E",) * 5)])
        assert report.agreement_overall == 1.0
        assert report.agreement_by_label["E"] == 1.0
        assert report.agreement_by_label["N"] is None

    def test_agreement_mixed(self):
        items = [
            mk_item("a", gold="E", judgments=("E", "E", "E", "N", "C")),
            mk_item("b", gold="N", judgments=("N", "N", "N", "N", "C")),
        ]
        report = corpus_stats(items)
        assert report.agreement_overall == pytest.approx(0.7)
        assert report.agreement_by_label["E"] == pytest.approx(0.6)
        assert report.agreement_by_label["N"] == pytest.approx(0.8)

    def test_label_distribution_sums_to_one(self):
        items = [
            mk_item("a", gold="E"),
            mk_item("b", gold="N"),
            mk_item("c", gold="C"),
        ]
        report = corpus_stats(items)
        assert sum(report.label_distribution.values()) == pytest.approx(1.0, abs=1e-9)
        assert report.label_distribution["E"] == pytest.approx(1 / 3)

    def test_counts_and_lengths(self):
        report = corpus_stats([mk_item(gold="E")])
        # Premises: "a dog runs" / "a cat sits" / "a bird sings" / "a fish swims",
        # hypothesis "an animal moves": 15 tokens, 12 distinct.
        assert report.token_count == 15
        assert report.type_count == 12
        assert report.premise_set_length.mean == 12.0
        assert report.premise_set_length.sd == 0.0
        assert report.hypothesis_length.mean == 3.0

    def test_overlap_matches_direct_computation(self):
        item = mk_item(gold="E", hypothesis="a dog sits")
        report = corpus_stats([item])
        assert report.overlap_full["all"].mean == pytest.approx(
            word_overlap(item.hypothesis, item.premises, "full")
        )
        assert report.overlap_lemma["all"].mean == pytest.approx(
            word_overlap(item.hypothesis, item.premises, "lemma")
        )
        assert report.overlap_full["N"] is None

    def test_duplication_leaves_means_unchanged(self):
        items = [
            mk_item("a", gold="E", judgments=("E", "E", "E", "N", "C")),
            mk_item("b", gold="C", judgments=("C", "C", "C", "C", "N")),
        ]
        one = corpus_stats(items)
        two = corpus_stats(items * 2)
        assert one.label_distribution == two.label_distribution
        assert one.premise_set_length == two.premise_set_length
        assert one.hypothesis_length == two.hypothesis_length
        assert one.overlap_full["all"] == two.overlap_full["all"]
        assert one.agreement_overall == two.agreement_overall

    def test_hypothesis_without_content_excluded_from_overlap(self):
        items = [
            mk_item("a", gold="E"),
            mk_item("b", gold="E", hypothesis="is the of"),
        ]
        report = corpus_stats(items)
        assert report.overlap_excluded == 1

    def test_generated_fixture_round(self, generated):
        labeled = [
            mk_item(item.id, gold="E", hypothesis=item.hypothesis.raw)
            for item in generated.items
        ]
        report = corpus_stats(labeled)
        assert report.item_count == 8
        assert report.label_distribution["E"] == 1.0


class TestItemsIO:
    def test_roundtrip_full_fields(self, tmp_path):
        items = [
            mk_item(
                "r0",
                gold="C",
                judgments=("C", "C", "C", "E", "N"),
                pair_labels=("N", "N", "C", "E"),
            ),
            mk_item("r1"),
        ]
        path = tmp_path / "items.jsonl"
        save_items(items, path)
        assert load_items(path) == items

    def test_phenomenon_tags_roundtrip(self, tmp_path):
        item = Item(
            id="t",
            scene_group_id="g",
            premises=mk_item().premises,
            hypothesis=normalize("dog"),
            gold_label="E",
            phenomenon_tags=frozenset({"coreference", "paraphrase"}),
        )
        path = tmp_path / "items.jsonl"
        save_items([item], path)
        assert load_items(path)[0].phenomenon_tags == item.phenomenon_tags

    def test_save_bytes_deterministic(self, tmp_path):
        items = [mk_item("a"), mk_item("b")]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_items(items, p1)
        save_items(items, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text('{"id": "x"}\n')
        with pytest.raises(ValueError, match="expected format"):
            load_items(path)

    def test_wrong_version_rejected(self, tmp_path):
        # JSON true and 1.0 compare equal to 1 in Python but are not version 1.
        path = tmp_path / "items.jsonl"
        for fmt, version in [
            ("mpe-items", "99"), ("mpe-items", "true"), ("mpe-items", "1.0"),
            ("mpe-spe-items", "true"), ("mpe-spe-items", "1.0"),
        ]:
            path.write_text(f'{{"format": "{fmt}", "version": {version}}}\n')
            with pytest.raises(ValueError, match=":1: unsupported version"):
                load_examples(path)

    def test_bad_record_has_line_number(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text(
            '{"format": "mpe-items", "version": 1}\n{"id": "broken"}\n'
        )
        with pytest.raises(ValueError, match=":2:"):
            load_items(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty items file"):
            load_items(path)

    @pytest.mark.parametrize("load", [load_items, load_examples])
    def test_raw_line_separator_inside_a_string(self, tmp_path, load):
        """JSON allows U+2028 unescaped in a string; it does not end a line."""
        item = mk_item("i0", hypothesis="a dog\u2028runs")
        path = tmp_path / "items.jsonl"
        save_items([item], path)
        path.write_text(
            path.read_text(encoding="utf-8").replace("\\u2028", "\u2028"),
            encoding="utf-8",
        )
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert load(path) == [item]

    def test_duplicate_id_located(self, tmp_path):
        path = tmp_path / "items.jsonl"
        save_items([mk_item("train-00000"), mk_item("train-00000")], path)
        with pytest.raises(ValueError, match=":3: duplicate item id 'train-00000'"):
            load_items(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("premises", "abcd"),
            ("premises", [1, 2, 3, 4]),
            ("hypothesis", 5),
            ("judgments", "EEENC"),
            ("pair_labels", "EENC"),
            ("phenomenon_tags", "count"),
            ("id", 7),
            ("scene_group_id", ["g1"]),
            ("gold_label", 1),
        ],
    )
    def test_wrong_json_type_located(self, tmp_path, key, value):
        item = mk_item(gold="E", judgments=("E",) * 5, pair_labels=("E",) * 4)
        path = with_field(tmp_path / "items.jsonl", save_items, item, key, value)
        with pytest.raises(ValueError, match=f":2: bad item record: '{key}' must be"):
            load_items(path)


SPE_HEADER = '{"format": "mpe-spe-items", "version": 1}\n'
SPE_RECORD = {"id": "x#0", "premise": "A dog runs.", "hypothesis": "dog", "label": "E"}


class TestSpeIO:
    """Single-premise pairs are written by outside tools in the documented
    JSONL format and read by `load_examples`."""

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            SPE_HEADER
            + json.dumps(SPE_RECORD)
            + "\n"
            + json.dumps({**SPE_RECORD, "id": "x#1", "label": "N"})
            + "\n"
        )
        pairs = load_examples(path)
        assert pairs == [
            SpePair("x#0", normalize("A dog runs."), normalize("dog"), "E"),
            SpePair("x#1", normalize("A dog runs."), normalize("dog"), "N"),
        ]

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(SPE_HEADER + json.dumps({**SPE_RECORD, "label": "Q"}) + "\n")
        with pytest.raises(ValueError, match=":2:"):
            load_examples(path)

    @pytest.mark.parametrize(
        "key, value", [("id", 7), ("premise", 5), ("hypothesis", ["dog"]), ("label", None)]
    )
    def test_wrong_json_type_located(self, tmp_path, key, value):
        path = tmp_path / "pairs.jsonl"
        path.write_text(SPE_HEADER + json.dumps({**SPE_RECORD, key: value}) + "\n")
        with pytest.raises(ValueError, match=f":2: bad pair record: '{key}' must be"):
            load_examples(path)


class TestJudgmentsIO:
    """Judgments travel inside the items file, the one file that carries them."""

    def test_roundtrip(self, tmp_path):
        items = [
            mk_item("i1", judgments=("E", "E", "N", "C", "C")),
            mk_item("i0", gold="N", judgments=("N",) * 5),
        ]
        path = tmp_path / "items.jsonl"
        save_items(items, path)
        assert [item.judgments for item in load_items(path)] == [
            ("E", "E", "N", "C", "C"),
            ("N",) * 5,
        ]

    def test_wrong_label_count_rejected(self, tmp_path):
        path = with_field(
            tmp_path / "items.jsonl", save_items, mk_item(), "judgments", ["E"] * 3
        )
        with pytest.raises(ValueError, match=":2: bad item record: .*exactly 5"):
            load_items(path)

    def test_bad_label_rejected(self, tmp_path):
        path = with_field(
            tmp_path / "items.jsonl", save_items, mk_item(), "judgments", ["E"] * 4 + ["Q"]
        )
        with pytest.raises(ValueError, match=":2: bad item record: unknown label 'Q'"):
            load_items(path)


class TestDecisionsIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "decisions.tsv"
        path.write_text("i1\tC\ni0\tE\n")
        assert load_decisions(path) == {"i1": "C", "i0": "E"}

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "decisions.tsv"
        path.write_text("i0\tX\n")
        with pytest.raises(ValueError, match="bad label"):
            load_decisions(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "decisions.tsv"
        path.write_text("i0\tE\ni0\tC\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_decisions(path)


class TestCaptionLoading:
    def test_groups_sorted_and_ordered(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text(
            "g2\t1\tA dog jumps high.\n"
            "g1\t0\tA girl runs.\n"
            "g2\t0\tA dog jumps.\n"
        )
        groups = load_captions(path)
        assert [g.gid for g in groups] == ["g1", "g2"]
        assert [c.raw for c in groups[1].captions] == [
            "A dog jumps.",
            "A dog jumps high.",
        ]

    def test_fixture_corpus_shape(self, corpus):
        assert len(corpus) == 12
        assert all(len(g.captions) >= 5 for g in corpus)
        assert len(graph_captions(corpus)) == 61

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text("g1\tA girl runs.\n")
        with pytest.raises(ValueError, match=":1:"):
            load_captions(path)

    def test_bad_index_rejected(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text("g1\tx\tA girl runs.\n")
        with pytest.raises(ValueError, match="bad caption index"):
            load_captions(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text("g1\t0\tA girl runs.\ng1\t0\tA boy runs.\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_captions(path)

    def test_empty_caption_rejected(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text("g1\t0\t...\n")
        with pytest.raises(ValueError, match=":1:"):
            load_captions(path)

    def test_empty_group_id_rejected(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text("g1\t0\tA girl runs.\n\t1\tA boy runs.\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: empty scene group id"):
            load_captions(path)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is reported as `path:line` in every text input."""

    def check(self, load, path, good: bytes, lineno: int):
        path.write_bytes(good + b"caf\xff\n")
        message = re.escape(f"{path}:{lineno}: byte 0xff is not UTF-8")
        with pytest.raises(ValueError, match=message):
            load(path)

    def test_captions(self, tmp_path):
        # CRLF and a lone CR end lines too, as in text mode.
        good = b"g1\t0\tA girl runs.\r\ng1\t1\tA boy runs.\rg1\t2\tA dog runs.\n"
        lf, mixed = tmp_path / "lf.tsv", tmp_path / "mixed.tsv"
        lf.write_bytes(good.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        mixed.write_bytes(good)
        assert load_captions(mixed) == load_captions(lf)
        self.check(load_captions, tmp_path / "captions.tsv", good, 4)

    @pytest.mark.parametrize("load", [load_items, load_examples])
    def test_items(self, tmp_path, generated, load):
        path = tmp_path / "items.jsonl"
        save_items(generated.items[:2], path)
        self.check(load, path, path.read_bytes(), 4)

    def test_label_table(self, tmp_path):
        self.check(load_pair_labels, tmp_path / "pairs.tsv", b"it-1\tE,E,N,C\n", 2)
        self.check(load_decisions, tmp_path / "decisions.tsv", b"it-1\tE\n", 2)

    def test_graph(self, tmp_path):
        good = b"mpe-graph\t1\r\nnode\t0\tdog\tg1\t1\rcaption\t0\tA dog.\n"
        lf, mixed = tmp_path / "lf.graph", tmp_path / "mixed.graph"
        lf.write_bytes(good.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        mixed.write_bytes(good)
        a, b = PhraseGraph.load(mixed), PhraseGraph.load(lf)
        assert (a.nodes, a.edges, a.caption_index) == (b.nodes, b.edges, b.caption_index)
        self.check(PhraseGraph.load, tmp_path / "fixture.graph", good, 4)

    @pytest.mark.parametrize(
        "read, good",
        [
            (_read_word_list, b"# comment\r\ncat\rdog\n"),
            (lambda path: _read_pairs(path, "entry"), b"# comment\r\ncat\tpet\rdog\tpet\n"),
        ],
        ids=["word-list", "pairs"],
    )
    def test_word_lists(self, tmp_path, read, good):
        lf, mixed = tmp_path / "lf.txt", tmp_path / "mixed.txt"
        lf.write_bytes(good.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        mixed.write_bytes(good)
        assert read(mixed) == read(lf)
        self.check(read, tmp_path / "words.txt", good, 4)

    def test_vectors(self, tmp_path):
        good = b"cat 1.0 2.0\r\ndog 3.5 -4.0\rcow 0.5 0.5\n"
        lf, mixed = tmp_path / "lf.txt", tmp_path / "mixed.txt"
        lf.write_bytes(good.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        mixed.write_bytes(good)
        as_lists = lambda path: {
            t: row.tolist() for t, row in load_pretrained_vectors(path).items()
        }
        assert as_lists(mixed) == as_lists(lf)
        self.check(load_pretrained_vectors, tmp_path / "vecs.txt", good, 4)
