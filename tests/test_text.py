"""Text normalization and word-overlap tests.

Expected values in TestNormalizeFixtures and TestOverlapFixtures were derived
by hand before the implementation and are frozen here.
"""

import os
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpe.text
from mpe.text import (
    STOPWORDS,
    EmptySentenceError,
    OverlapUndefinedError,
    _LEMMA_EXCEPTIONS,
    _atomic_write,
    _lemma,
    _read_pairs,
    _read_word_list,
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
        assert _lemma(surface) == lemma

    def test_exception_values_are_fixpoints(self):
        for form, target in _LEMMA_EXCEPTIONS.items():
            assert _lemma(target) == target, (form, target)

    def test_bad_exception_entry_located(self, tmp_path):
        path = tmp_path / "exceptions.txt"
        path.write_text("# form<TAB>lemma\nmice\tmouse\n\nbad\n")
        with pytest.raises(
            ValueError, match=re.escape(f"{path}:4: bad exception entry") + ".*'bad'"
        ):
            _read_pairs(path, "exception entry (want form<TAB>lemma)")

    def test_long_bad_entry_is_quoted_short(self, tmp_path):
        path = tmp_path / "exceptions.txt"
        path.write_text("x" * 100_000 + "\n")
        with pytest.raises(ValueError) as info:
            _read_pairs(path, "exception entry")
        message = str(info.value)
        assert message.startswith(f"{path}:1: bad exception entry: 'xxx")
        assert message.endswith("... (100000 characters)") and len(message) < 1024

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=14))
    @settings(max_examples=400, deadline=None)
    def test_idempotent_on_arbitrary_strings(self, word):
        once = _lemma(word)
        assert _lemma(once) == once


class TestNormalizeFixtures:
    def test_two_girls_sitting_down(self):
        s = normalize("Two girls sitting down.")
        assert s.tokens == ("two", "girls", "sitting", "down")
        assert s.lemmas == ("two", "girl", "sit", "down")

    def test_stopwords_removed_from_content(self):
        # content {man, runs}: "a" is in the premise but counts for nothing
        s = normalize("A man runs")
        assert word_overlap(s, [normalize("a man sleeps")]) == 0.5

    def test_content_tokens_subset_of_tokens(self):
        s = normalize("The young boys are playing soccer near the old barn.")
        assert word_overlap(s, [s]) == 1.0
        content = normalize("young boys playing soccer near old barn")
        assert word_overlap(s, [content]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptySentenceError):
            normalize("  --- !!! ")

    def test_default_stopwords_nonempty_lowercase(self):
        assert len(STOPWORDS) > 50
        assert "the" in STOPWORDS and "a" in STOPWORDS
        assert all(w == w.lower() for w in STOPWORDS)


sent = normalize


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
        for mode in ("full", "lemma"):
            with pytest.raises(OverlapUndefinedError):
                word_overlap(h, [sent("the of and a man runs")], mode)

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
        try:
            full = word_overlap(h, premises, "full")
        except OverlapUndefinedError:
            return
        lemma = word_overlap(h, premises, "lemma")
        assert 0.0 <= full <= 1.0
        assert 0.0 <= lemma <= 1.0
        assert lemma >= full

    @given(SENT_RAW, st.lists(SENT_RAW, min_size=2, max_size=4), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_premise_permutation_invariance(self, h_raw, p_raws, rnd):
        h = sent(h_raw)
        premises = [sent(p) for p in p_raws]
        shuffled = list(premises)
        rnd.shuffle(shuffled)
        try:
            for mode in ("full", "lemma"):
                assert word_overlap(h, premises, mode) == word_overlap(h, shuffled, mode)
        except OverlapUndefinedError:
            return

    @given(SENT_RAW, st.lists(SENT_RAW, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_premise_duplication_invariance(self, h_raw, p_raws):
        h = sent(h_raw)
        premises = [sent(p) for p in p_raws]
        doubled = premises + premises
        try:
            for mode in ("full", "lemma"):
                assert word_overlap(h, premises, mode) == word_overlap(h, doubled, mode)
        except OverlapUndefinedError:
            return

    @given(SENT_RAW)
    @settings(max_examples=50, deadline=None)
    def test_self_overlap_is_one(self, raw):
        h = sent(raw)
        try:
            assert word_overlap(h, [h], "full") == 1.0
        except OverlapUndefinedError:
            return
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


class TestWordLists:
    """The bundled word lists: each entry is one token `tokenize` can produce
    and is listed once, and the reduction rules' lexicons hold lemmas only,
    because the rules match lemmas."""

    DATA = Path(mpe.text.__file__).parent / "data"
    TAB_FILES = ("hypernyms.txt", "lemma_exceptions.txt")
    RULE_LEXICONS = ("determiners.txt", "adjectives.txt", "prepositions.txt", "hypernyms.txt")

    def words(self, name):
        """The file's entries, each tab file's entries split into their columns."""
        path = self.DATA / name
        if name in self.TAB_FILES:
            return [w for pair in _read_pairs(path, "entry") for w in pair]
        return list(_read_word_list(path).values())

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.txt")))
    def test_entries_are_tokens_listed_once(self, name):
        assert [w for w in self.words(name) if tokenize(w) != (w,)] == []
        entries = list(_read_word_list(self.DATA / name).values())
        assert [e for e, n in Counter(entries).items() if n > 1] == []

    def test_lemma_exception_forms_listed_once(self):
        forms = [form for form, _ in _read_pairs(self.DATA / "lemma_exceptions.txt", "entry")]
        assert [f for f, n in Counter(forms).items() if n > 1] == []

    @pytest.mark.parametrize("name", RULE_LEXICONS)
    def test_rule_lexicon_entries_are_lemmas(self, name):
        assert [w for w in self.words(name) if _lemma(w) != w] == []


class TestAtomicWrite:
    """A replaced file ends with the mode a plain `open(path, "w")` leaves."""

    @pytest.fixture
    def umask(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_new_file_takes_umask_mode(self, tmp_path, umask):
        path = tmp_path / "new.txt"
        _atomic_write(path, "text\n")
        assert (path.stat().st_mode & 0o777, path.read_text()) == (0o644, "text\n")

    def test_replaced_file_keeps_its_mode(self, tmp_path, umask):
        path = tmp_path / "old.txt"
        path.write_text("old\n")
        path.chmod(0o640)
        _atomic_write(path, "new\n")
        assert (path.stat().st_mode & 0o777, path.read_text()) == (0o640, "new\n")
