"""Voting baselines: majority vote, E/C heuristic, agreement categories."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.dataset import LABELS, UnknownItemError
from mpe.voting import (
    attach_pair_labels,
    ec_heuristic,
    load_pair_labels,
    majority_vote,
    pair_agreement_category,
    score_baselines,
)

from test_dataset import mk_item

# (pair labels, gold): one row per agreement category.
CATEGORY_EXAMPLES = [
    (("N", "N", "N", "N"), "E"),
    (("N", "C", "N", "N"), "C"),
    (("E", "E", "N", "N"), "E"),
    (("N", "N", "E", "N"), "N"),
    (("C", "C", "C", "C"), "C"),
]

pair_sets = st.lists(st.sampled_from(LABELS), min_size=4, max_size=4)


class TestMajorityVote:
    def test_category_examples(self):
        votes = [majority_vote(pairs) for pairs, _ in CATEGORY_EXAMPLES]
        assert votes == ["N", "N", None, "N", "C"]

    def test_two_two_tie_has_no_majority(self):
        assert majority_vote(("E", "E", "N", "N")) is None

    def test_two_one_one_has_no_majority(self):
        assert majority_vote(("E", "E", "N", "C")) is None

    def test_unanimous(self):
        assert majority_vote(("C",) * 4) == "C"

    def test_three_of_four(self):
        assert majority_vote(("N", "E", "N", "N")) == "N"

    def test_brute_force_all_assignments(self):
        for pairs in itertools.product(LABELS, repeat=4):
            got = majority_vote(pairs)
            counts = {label: pairs.count(label) for label in LABELS}
            winners = [label for label, c in counts.items() if c >= 3]
            assert got == (winners[0] if winners else None)

    @settings(max_examples=100, deadline=None)
    @given(pair_sets, st.integers(0, 2**32 - 1))
    def test_permutation_invariant(self, pairs, seed):
        shuffled = pairs[:]
        random.Random(seed).shuffle(shuffled)
        assert majority_vote(pairs) == majority_vote(shuffled)


class TestEcHeuristic:
    def test_category_examples(self):
        predictions = [ec_heuristic(pairs) for pairs, _ in CATEGORY_EXAMPLES]
        assert predictions == ["N", "C", "E", "E", "C"]

    def test_single_contradiction_wins(self):
        assert ec_heuristic(("N", "C", "N", "N")) == "C"

    def test_single_entailment_overrules_neutral_majority(self):
        assert ec_heuristic(("N", "N", "E", "N")) == "E"

    def test_balanced_counts_give_neutral(self):
        assert ec_heuristic(("N", "N", "N", "N")) == "N"
        assert ec_heuristic(("E", "C", "N", "N")) == "N"
        assert ec_heuristic(("E", "E", "C", "C")) == "N"

    def test_brute_force_all_assignments(self):
        for pairs in itertools.product(LABELS, repeat=4):
            e, c = pairs.count("E"), pairs.count("C")
            expected = "E" if e > c else "C" if c > e else "N"
            assert ec_heuristic(pairs) == expected

    def test_never_neutral_when_counts_differ(self):
        for pairs in itertools.product(LABELS, repeat=4):
            if pairs.count("E") != pairs.count("C"):
                assert ec_heuristic(pairs) != "N"

    @settings(max_examples=100, deadline=None)
    @given(pair_sets, st.integers(0, 2**32 - 1))
    def test_permutation_invariant(self, pairs, seed):
        shuffled = pairs[:]
        random.Random(seed).shuffle(shuffled)
        assert ec_heuristic(pairs) == ec_heuristic(shuffled)


class TestAgreementCategory:
    def test_category_examples(self):
        categories = [
            pair_agreement_category(pairs, gold) for pairs, gold in CATEGORY_EXAMPLES
        ]
        assert categories == [0, 1, 2, 3, 4]

    def test_brute_force_all_assignments(self):
        for pairs in itertools.product(LABELS, repeat=4):
            for gold in LABELS:
                assert pair_agreement_category(pairs, gold) == sum(
                    p == gold for p in pairs
                )


def items_from(assignments):
    return [
        mk_item(f"i{k}", gold=gold, pair_labels=tuple(pairs))
        for k, (pairs, gold) in enumerate(assignments)
    ]


class TestScoreBaselines:
    def test_category_example_items(self):
        report = score_baselines(items_from(CATEGORY_EXAMPLES))
        assert report.n_scored == 5
        assert report.n_skipped == 0
        # Majority vote is right only on rows 3 and 4.
        assert report.majority_acc_strict == pytest.approx(0.4)
        # The heuristic is right on rows 1, 2, and 4.
        assert report.heuristic_acc == pytest.approx(0.6)
        assert report.category_histogram == pytest.approx((0.2,) * 5)

    def test_strict_accuracy_equals_categories_three_plus_four(self):
        rng = random.Random(7)
        assignments = [
            (tuple(rng.choice(LABELS) for _ in range(4)), rng.choice(LABELS))
            for _ in range(200)
        ]
        report = score_baselines(items_from(assignments))
        n = report.n_scored
        counts = [round(share * n) for share in report.category_histogram]
        assert report.majority_acc_strict == (counts[3] + counts[4]) / n

    def test_neutral_fallback_scores_ties_as_neutral(self):
        report = score_baselines(items_from([(("E", "E", "N", "N"), "N")]))
        assert report.majority_acc_strict == 0.0
        assert report.majority_acc_neutral_fallback == 1.0

    def test_items_without_pair_labels_skipped(self):
        items = items_from(CATEGORY_EXAMPLES) + [mk_item("bare", gold="E")]
        report = score_baselines(items)
        assert report.n_scored == 5
        assert report.n_skipped == 1

    def test_all_items_skipped_rejected(self):
        with pytest.raises(ValueError, match="no items"):
            score_baselines([mk_item("bare", gold="E")])

    def test_histogram_sums_to_one(self):
        report = score_baselines(items_from(CATEGORY_EXAMPLES))
        assert sum(report.category_histogram) == pytest.approx(1.0)


class TestPairLabelAttachment:
    def test_attach(self):
        items = [mk_item("a", gold="E"), mk_item("b", gold="C")]
        out = attach_pair_labels(items, {"a": ("E", "E", "N", "N")})
        assert out[0].pair_labels == ("E", "E", "N", "N")
        assert out[1].pair_labels is None

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownItemError, match="ghost"):
            attach_pair_labels([mk_item("a")], {"ghost": ("E",) * 4})

    @pytest.mark.parametrize(
        "labels, expected",
        [(("E", "E", "E"), "exactly 4"), (("E", "E", "E", "Q"), "unknown label")],
    )
    def test_bad_labels_rejected_by_item(self, labels, expected):
        with pytest.raises(ValueError, match=expected):
            attach_pair_labels([mk_item("a")], {"a": labels})


class TestPairLabelsIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("i1\tC,C,C,C\n\ni0\tE,N,C,N\n")
        assert load_pair_labels(path) == {"i1": ("C",) * 4, "i0": ("E", "N", "C", "N")}

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("i0\tE,E\n")
        with pytest.raises(ValueError, match=":1:"):
            load_pair_labels(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("i0\tE,E,E,Q\n")
        with pytest.raises(ValueError, match=":1:"):
            load_pair_labels(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("i0\tE,E,E,E\ni0\tC,C,C,C\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_pair_labels(path)
