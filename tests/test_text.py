"""Text normalization and word-overlap tests.

Expected values in TestNormalizeFixtures and TestOverlapFixtures were derived
by hand before the implementation and are frozen here.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.text import (
    EmptySentenceError,
    Lemmatizer,
    OverlapUndefinedError,
    Sentence,
    StopwordList,
    default_lemmatizer,
    default_stopwords,
    normalize,
    tokenize,
    word_overlap,
)


class TestTokenize:
    def test_lowercase_and_punctuation_stripped(self):
        assert tokenize("Two girls, sitting down.") == ("two", "girls", "sitting", "down")

    def test_possessive_dropped(self):
        assert tokenize("The man's hat") == ("the", "man", "hat")

    def test_hyphen_splits(self):
        assert tokenize("a t-shirt") == ("a", "t", "shirt")

    def test_digits_kept(self):
        assert tokenize("2 dogs") == ("2", "dogs")

    def test_empty(self):
        assert tokenize("...!!!") == ()


class TestLemmatizer:
    # (surface, lemma) pairs worked out by hand from the rule table.
    CASES = [
        ("girls", "girl"),
        ("sitting", "sit"),
        ("running", "run"),
        ("swimming", "swim"),
        ("walking", "walk"),
        ("smiling", "smile"),
        ("riding", "ride"),
        ("taking", "take"),
        ("making", "make"),
        ("racing", "race"),
        ("dancing", "dance"),
        ("juggling", "juggle"),
        ("paddling", "paddle"),
        ("curling", "curl"),
        ("crawling", "crawl"),
        ("falling", "fall"),
        ("passing", "pass"),
        ("sniffing", "sniff"),
        ("buzzing", "buzz"),
        ("skiing", "ski"),
        ("seeing", "see"),
        ("rowing", "row"),
        ("playing", "play"),
        ("eating", "eat"),
        ("opening", "open"),
        ("visiting", "visit"),
        ("galloping", "gallop"),
        ("dresses", "dress"),
        ("glasses", "glass"),
        ("boxes", "box"),
        ("watches", "watch"),
        ("dishes", "dish"),
        ("horses", "horse"),
        ("houses", "house"),
        ("causes", "cause"),
        ("sizes", "size"),
        ("ladies", "lady"),
        ("babies", "baby"),
        ("ties", "tie"),
        ("shoes", "shoe"),
        ("potatoes", "potato"),
        ("heroes", "hero"),
        ("dogs", "dog"),
        ("runs", "run"),
        ("gas", "gas"),
        ("bus", "bus"),
        ("this", "this"),
        ("grass", "grass"),
        ("smiled", "smile"),
        ("stopped", "stop"),
        ("dressed", "dress"),
        ("walked", "walk"),
        ("carried", "carry"),
        ("striped", "stripe"),
        ("opened", "open"),
        ("colored", "color"),
        ("watched", "watch"),
        ("climbed", "climb"),
        ("fixed", "fix"),
        ("played", "play"),
        ("snowed", "snow"),
        ("red", "red"),
        ("sled", "sled"),
        ("speed", "speed"),
        ("string", "string"),
        ("spring", "spring"),
        ("thing", "thing"),
        ("bring", "bring"),
        # exception table
        ("men", "man"),
        ("women", "woman"),
        ("children", "child"),
        ("people", "person"),
        ("buses", "bus"),
        ("canoes", "canoe"),
        ("movies", "movie"),
        ("goes", "go"),
        ("ran", "run"),
        ("sat", "sit"),
        ("wore", "wear"),
        ("morning", "morning"),
        ("building", "building"),
        ("painting", "painting"),
        ("wedding", "wed" + "ding"),
        ("left", "left"),
        ("rose", "rose"),
        ("saw", "saw"),
        # chained: plural of an -ing noun the rules would strip twice
        ("sittings", "sit"),
    ]

    @pytest.mark.parametrize("surface,lemma", CASES)
    def test_fixture(self, surface, lemma):
        assert default_lemmatizer().lemma(surface) == lemma

    def test_exception_values_are_fixpoints(self):
        lem = default_lemmatizer()
        for form, target in lem.exceptions.items():
            assert lem.lemma(target) == target, (form, target)

    def test_bad_exception_entry_located(self, tmp_path):
        path = tmp_path / "exceptions.txt"
        path.write_text("# form<TAB>lemma\nmice\tmouse\n\nbad\n")
        with pytest.raises(
            ValueError, match=re.escape(f"{path}:4: bad exception entry") + ".*'bad'"
        ):
            Lemmatizer.from_file(path)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=14))
    @settings(max_examples=400, deadline=None)
    def test_idempotent_on_arbitrary_strings(self, word):
        lem = default_lemmatizer()
        once = lem.lemma(word)
        assert lem.lemma(once) == once


class TestNormalizeFixtures:
    def test_two_girls_sitting_down(self):
        s = normalize("Two girls sitting down.")
        assert s.tokens == ("two", "girls", "sitting", "down")
        assert s.lemmas == ("two", "girl", "sit", "down")

    def test_custom_stopwords(self):
        s = normalize("A man runs", stopwords=StopwordList.from_words(["a"]))
        assert s.content_tokens == {"man", "runs"}

    def test_content_tokens_subset_of_tokens(self):
        s = normalize("The young boys are playing soccer near the old barn.")
        assert s.content_tokens <= set(s.tokens)

    def test_empty_raises(self):
        with pytest.raises(EmptySentenceError):
            normalize("  --- !!! ")

    def test_default_stopwords_nonempty_lowercase(self):
        sw = default_stopwords()
        assert len(sw) > 50
        assert "the" in sw and "a" in sw


def sent(raw, stop=None):
    return normalize(raw, stopwords=stop)


class TestOverlapFixtures:
    def test_half_overlap(self):
        # hypothesis content {woman, smile}; premises contain "woman" but
        # neither "smile" nor "smiling"
        h = sent("woman smile")
        premises = [
            sent("a woman sits on a bench"),
            sent("a woman reads a book"),
            sent("a lady near a tree"),
            sent("a person outdoors"),
        ]
        assert word_overlap(h, premises, "full") == 0.5
        assert word_overlap(h, premises, "lemma") == 0.5

    def test_lemma_mode_matches_inflection(self):
        h = sent("woman smile")
        premises = [sent("a woman smiling at the camera")]
        assert word_overlap(h, premises, "full") == 0.5
        assert word_overlap(h, premises, "lemma") == 1.0

    def test_duplicates_counted_once(self):
        h = sent("dog dog dog barks")
        premises = [sent("a dog in a yard")]
        # content types {dog, barks}: dog matched, barks not
        assert word_overlap(h, premises, "full") == 0.5

    def test_no_content_tokens_error(self):
        h = sent("the of and")
        with pytest.raises(OverlapUndefinedError):
            word_overlap(h, [sent("a man runs")], "full")

    def test_bad_mode(self):
        h = sent("a man runs")
        with pytest.raises(ValueError):
            word_overlap(h, [h], "chars")

    def test_no_premises(self):
        h = sent("a man runs")
        with pytest.raises(ValueError):
            word_overlap(h, [], "full")


WORDS = st.sampled_from(
    "man woman dog cat run walk smile park tree red blue ball girl boy "
    "jump play water grass street bench hat coat ride bike swim".split()
)
SENT_RAW = st.lists(WORDS, min_size=1, max_size=8).map(" ".join)


class TestOverlapProperties:
    @given(SENT_RAW, st.lists(SENT_RAW, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_lemma_monotonicity(self, h_raw, p_raws):
        h = sent(h_raw)
        premises = [sent(p) for p in p_raws]
        if not h.content_tokens:
            return
        full = word_overlap(h, premises, "full")
        lemma = word_overlap(h, premises, "lemma")
        assert 0.0 <= full <= 1.0
        assert 0.0 <= lemma <= 1.0
        assert lemma >= full

    @given(SENT_RAW, st.lists(SENT_RAW, min_size=2, max_size=4), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_premise_permutation_invariance(self, h_raw, p_raws, rnd):
        h = sent(h_raw)
        premises = [sent(p) for p in p_raws]
        if not h.content_tokens:
            return
        shuffled = list(premises)
        rnd.shuffle(shuffled)
        for mode in ("full", "lemma"):
            assert word_overlap(h, premises, mode) == word_overlap(h, shuffled, mode)

    @given(SENT_RAW, st.lists(SENT_RAW, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_premise_duplication_invariance(self, h_raw, p_raws):
        h = sent(h_raw)
        premises = [sent(p) for p in p_raws]
        if not h.content_tokens:
            return
        doubled = premises + premises
        for mode in ("full", "lemma"):
            assert word_overlap(h, premises, mode) == word_overlap(h, doubled, mode)

    @given(SENT_RAW)
    @settings(max_examples=50, deadline=None)
    def test_self_overlap_is_one(self, raw):
        h = sent(raw)
        if not h.content_tokens:
            return
        assert word_overlap(h, [h], "full") == 1.0
        assert word_overlap(h, [h], "lemma") == 1.0


class TestNormalizeDeterminism:
    def test_same_input_same_output(self):
        a = normalize("Three men are Fishing off a pier.")
        b = normalize("Three men are Fishing off a pier.")
        assert a == b

    def test_idempotent_at_lemma_level(self):
        s = normalize("The dogs were running across the fields.")
        again = normalize(" ".join(s.lemmas))
        assert again.lemmas == s.lemmas
