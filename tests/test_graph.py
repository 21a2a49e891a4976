"""Reduction rules, closure, graph construction, and hypothesis candidates."""

import os
import random
import re
import tempfile
from collections.abc import Mapping
from dataclasses import fields
from functools import reduce
from graphlib import TopologicalSorter
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.graph import (
    _CONJUNCTIONS,
    LexiconCycleError,
    _load_hypernyms,
    PhraseGraph,
    ReductionRuleSet,
    UnknownCaptionError,
    _reduced_closure,
    apply_reductions,
    build_graph,
    caption_closures,
    simplify_hypothesis,
)
from mpe.dataset import Item, graph_captions, load_captions, load_items, save_items
from mpe.text import Sentence, normalize

# Characters at which str.splitlines breaks a line but "\n"-split file
# formats do not: VT, FF, FS, GS, RS, NEL, LINE and PARAGRAPH SEPARATOR.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def tiny_rules(**overrides):
    base = dict(
        determiners=frozenset({"a", "an", "the", "two"}),
        adjectives=frozenset({"red", "big", "blue", "young", "small"}),
        prepositions=frozenset({"in", "on", "with", "near"}),
        hypernyms={
            "girl": ("child",),
            "boy": ("child",),
            "child": ("person",),
            "man": ("person",),
            "dog": ("animal",),
        },
    )
    base.update(overrides)
    return ReductionRuleSet(**base)


def single_step(rules, phrase):
    """All phrases one rule application reaches: the rule pass run with the
    whole lexicon's substitutions."""
    return set(rules._step(phrase, rules.hypernyms))


def closure_of(phrase, rules):
    """Brute-force closure by repeated single steps (test-side oracle)."""
    seen = {tuple(phrase)}
    frontier = [tuple(phrase)]
    while frontier:
        nxt = set()
        for p in frontier:
            nxt |= single_step(rules, p)
        frontier = [p for p in nxt if p not in seen]
        seen |= set(frontier)
    return seen


class TestSingleStep:
    def test_drop_determiner(self):
        out = single_step(tiny_rules(), ("a", "dog", "run"))
        assert ("dog", "run") in out

    def test_lone_determiner_not_dropped_to_empty(self):
        out = single_step(tiny_rules(), ("the",))
        assert out == set()

    def test_drop_adjective_before_noun(self):
        out = single_step(tiny_rules(), ("big", "dog"))
        assert ("dog",) in out

    def test_drop_adjective_through_adjective_run(self):
        out = single_step(tiny_rules(), ("big", "red", "dog"))
        assert ("red", "dog") in out
        assert ("big", "dog") in out

    def test_trailing_adjective_kept(self):
        # Predicate position: no following noun to modify.
        out = single_step(tiny_rules(), ("dog", "is", "red"))
        assert ("dog", "is") not in out

    def test_adjective_before_conjunction_kept(self):
        out = single_step(tiny_rules(), ("red", "and", "blue"))
        assert ("and", "blue") not in out

    def test_drop_prepositional_phrase(self):
        out = single_step(tiny_rules(), ("dog", "run", "in", "the", "park"))
        assert ("dog", "run") in out

    def test_pp_chunk_includes_det_adj_run(self):
        out = single_step(tiny_rules(), ("man", "in", "a", "big", "red", "hat", "smile"))
        assert ("man", "smile") in out

    def test_pp_covering_whole_phrase_not_dropped(self):
        out = single_step(tiny_rules(), ("in", "the", "park"))
        assert () not in out
        assert all(p for p in out)

    def test_pp_chunk_stops_at_conjunction(self):
        out = single_step(tiny_rules(), ("look", "in", "and", "wave"))
        assert ("look", "and", "wave") in out

    def test_hypernym_substitution(self):
        out = single_step(tiny_rules(), ("girl", "run"))
        assert ("child", "run") in out

    def test_hypernym_substitutes_each_position(self):
        out = single_step(tiny_rules(), ("girl", "watch", "girl"))
        assert ("child", "watch", "girl") in out
        assert ("girl", "watch", "child") in out

    def test_noun_phrase_extraction(self):
        out = single_step(tiny_rules(), ("a", "dog", "in", "the", "park"))
        assert ("a", "dog") in out
        assert ("the", "park") in out

    def test_whole_phrase_chunk_not_reemitted(self):
        out = single_step(tiny_rules(), ("a", "dog"))
        assert ("a", "dog") not in out

    def test_chunk_without_content_not_emitted(self):
        out = single_step(tiny_rules(), ("the", "and", "red"))
        assert ("the",) not in out
        assert ("red",) not in out
        assert out == {("and", "red")}

    def test_conjunction_splits_chunks(self):
        out = single_step(tiny_rules(), ("dog", "and", "cat"))
        assert ("dog",) in out
        assert ("cat",) in out

    def test_results_never_longer(self):
        phrase = ("two", "young", "girl", "in", "a", "red", "dress", "dance")
        for p in single_step(tiny_rules(), phrase):
            assert 0 < len(p) <= len(phrase)

    def test_no_self_loop(self):
        phrase = ("girl", "run")
        assert phrase not in single_step(tiny_rules(), phrase)

    def test_spans_rebuild_each_result(self):
        # (lo, a, b, hi): phrase[lo:a], a substituted general if the result is
        # one longer, then phrase[b:hi].
        rules = tiny_rules()
        words = rule_vocabulary(rules)
        rng = random.Random("spans")
        for _ in range(300):
            phrase = tuple(rng.choice(words) for _ in range(rng.randint(1, 7)))
            for result, (lo, a, b, hi) in rules._step(phrase, rules.hypernyms).items():
                kept = phrase[lo:a] + phrase[b:hi]
                if len(result) == len(kept):
                    assert result == kept, (phrase, result)
                else:
                    assert len(result) == len(kept) + 1
                    assert result[a - lo] in rules.hypernyms[phrase[a]], (phrase, result)
                    assert result == phrase[lo:a] + result[a - lo:a - lo + 1] + phrase[b:hi]


def rule_vocabulary(rules):
    """Every closed-class and lexicon word of the rules, plus two content words."""
    words = {"run", "park"} | _CONJUNCTIONS
    words |= rules.determiners | rules.adjectives | rules.prepositions
    for specific, generals in rules.hypernyms.items():
        words |= {specific, *generals}
    return sorted(words)


DEFAULT_RULES = ReductionRuleSet.default()


def generality_key(rules):
    """(length, sum of hypernym depths) of a phrase (test side). A word's depth
    is 0 without a hypernym, else 1 + the largest depth among its hypernyms."""
    depths = {}
    for word in TopologicalSorter(rules.hypernyms).static_order():
        depths[word] = 1 + max((depths[g] for g in rules.hypernyms.get(word, ())), default=-1)
    return lambda phrase: (len(phrase), sum(depths.get(tok, 0) for tok in phrase))


class TestGenerality:
    """Every single step makes progress, which is why closures are acyclic."""

    @pytest.mark.parametrize("rules", [tiny_rules(), DEFAULT_RULES], ids=["tiny", "default"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_key_strictly_falls_along_every_step(self, rules, data):
        key = generality_key(rules)
        words = rule_vocabulary(rules)
        phrase = tuple(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=8)))
        for parent in single_step(rules, phrase):
            assert key(parent) < key(phrase), (phrase, parent)


class TestLexiconValidation:
    def test_cycle_rejected(self):
        with pytest.raises(LexiconCycleError):
            tiny_rules(hypernyms={"a": ("b",), "b": ("a",)})

    def test_self_loop_rejected(self):
        with pytest.raises(LexiconCycleError):
            tiny_rules(hypernyms={"dog": ("dog",)})

    def test_cycle_message_is_closed_specific_to_general_path(self):
        hypernyms = {"puppy": ("dog",), "dog": ("canine",), "canine": ("puppy",)}
        with pytest.raises(LexiconCycleError) as info:
            tiny_rules(hypernyms=hypernyms)
        path = str(info.value).split(" -> ")
        assert len(path) == 4 and path[0] == path[-1]
        for specific, general in zip(path, path[1:]):
            assert general in hypernyms[specific]

    def test_diamond_accepted(self):
        tiny_rules(hypernyms={"a": ("b", "c"), "b": ("d",), "c": ("d",)})

    def test_default_lexicons_load(self):
        rules = ReductionRuleSet.default()
        assert "the" in rules.determiners
        assert "in" in rules.prepositions
        assert rules.hypernyms["girl"] == ("child",)

    def test_bad_hypernym_entry_located(self, tmp_path):
        path = tmp_path / "hypernyms.txt"
        path.write_text("girl\tchild\n# comment\nboy child\n")
        with pytest.raises(
            ValueError, match=re.escape(f"{path}:3: bad hypernym entry") + ".*'boy child'"
        ):
            _load_hypernyms(path)


def mixed_flag_lexicon():
    """Overlapping flags, adjective -> content and content -> adjective
    chains, a diamond and chains four deep, over tiny lexicons."""
    rules = tiny_rules(
        determiners=frozenset({"a", "the", "two", "that"}),
        adjectives=frozenset({"red", "big", "two", "adult", "stone", "near", "old"}),
        prepositions=frozenset({"in", "on", "near", "that"}),
        hypernyms={
            "girl": ("child",),
            "child": ("kid",),
            "kid": ("person",),
            "adult": ("person",),  # adjective -> content
            "old": ("elder",),  # adjective -> content -> content
            "elder": ("person",),
            "rock": ("stone",),  # content -> adjective
            "boulder": ("rock",),  # content -> content -> adjective
            "puppy": ("dog", "pet"),  # a diamond
            "dog": ("animal",),
            "pet": ("animal",),
            "pair": ("two",),  # content -> determiner and adjective
            "crimson": ("red",),  # adjective -> adjective
        },
    )
    return rules, rule_vocabulary(rules)


def default_lexicon_mix():
    """The default lexicon's flag-changing words amid closed-class words."""
    words = "adult rock stone pebble boulder a the two red big young old in on with near and"
    return DEFAULT_RULES, words.split() + ["man", "dog", "park", "run", "person"]


ORACLE_LEXICONS = {
    "tiny": lambda: (tiny_rules(), rule_vocabulary(tiny_rules())),
    "mixed-flags": mixed_flag_lexicon,
    "default-mix": default_lexicon_mix,
}
ORACLE_PHRASES = 2000


class TestApplyReductions:
    def test_fixpoint_caption_closure_is_singleton(self):
        sent = normalize("Children sleep soundly.")
        rules = tiny_rules(hypernyms={})
        assert apply_reductions(sent, rules) == {tuple(sent.lemmas)}

    def test_closure_includes_start(self):
        sent = normalize("A girl runs.")
        assert tuple(sent.lemmas) in apply_reductions(sent, tiny_rules())

    def test_hand_enumerated_closure(self):
        sent = normalize("A girl runs.")
        got = apply_reductions(sent, tiny_rules())
        assert got == {
            ("a", "girl", "run"),
            ("girl", "run"),
            ("a", "child", "run"),
            ("child", "run"),
            ("a", "person", "run"),
            ("person", "run"),
        }

    def test_pp_drop_lineage(self):
        sent = normalize("a man in a red hat runs")
        got = apply_reductions(sent, ReductionRuleSet.default())
        assert ("a", "man", "run") in got
        assert ("man", "run") in got

    def test_hypernym_lineage(self):
        sent = normalize("girl in a blue sweater painting")
        got = apply_reductions(sent, ReductionRuleSet.default())
        assert ("child", "painting") in got

    def test_matches_breadth_first_oracle(self):
        rules = tiny_rules()
        for raw in [
            "Two young girls in red dresses dance on a stage.",
            "A man with a dog runs in the park.",
            "The small boy smiles.",
        ]:
            sent = normalize(raw)
            assert apply_reductions(sent, rules) == closure_of(sent.lemmas, rules)

    def test_fixture_captions_match_breadth_first_oracle(self):
        rules = ReductionRuleSet.default()
        fixture = Path(__file__).parent / "fixtures/captions.tsv"
        for _, sent in graph_captions(load_captions(fixture)):
            assert apply_reductions(sent, rules) == closure_of(sent.lemmas, rules), sent.raw

    @pytest.mark.parametrize("lexicon", sorted(ORACLE_LEXICONS))
    def test_random_phrases_match_breadth_first_oracle(self, lexicon):
        """Seeded phrases over lexicons whose hypernym chains keep, change
        and share closed-class flags, against the plain single-step walk."""
        rules, words = ORACLE_LEXICONS[lexicon]()
        rng = random.Random(f"oracle-{lexicon}")
        for _ in range(ORACLE_PHRASES):
            phrase = tuple(rng.choice(words) for _ in range(rng.randint(1, 7)))
            sent = Sentence(" ".join(phrase), phrase, phrase)
            assert apply_reductions(sent, rules) == closure_of(phrase, rules), phrase

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                "a the two red big girl boy dog park run smile in on and".split()
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_closure_phrases_nonempty_and_never_longer(self, tokens):
        rules = tiny_rules()
        sent = normalize(" ".join(tokens))
        for phrase in apply_reductions(sent, rules):
            assert 0 < len(phrase) <= len(sent.lemmas)


def reduced_closure(start, rules):
    """`_reduced_closure`'s closure and each phrase's kept parent indexes,
    in the order its edges list them."""
    phrases, children, parents = _reduced_closure(start, rules)
    kept_parents = [[] for _ in phrases]
    for child, parent in zip(children, parents):
        kept_parents[child].append(parent)
    return phrases, kept_parents


def kept_phrases(start, rules):
    """`_reduced_closure`'s kept parents of each closure phrase, as phrases."""
    phrases, kept_parents = reduced_closure(start, rules)
    return {phrase: {phrases[p] for p in kept} for phrase, kept in zip(phrases, kept_parents)}


REDUCTION_PHRASES = 400


class TestReducedClosure:
    """`_reduced_closure` against `apply_reductions` and `graphlib_reduction`."""

    LONG = "a young girl in a red dress runs with a small dog near the lake"  # 15 tokens
    # ROADMAP item 2's 20-token caption.
    ROADMAP = "a young girl in a red dress runs with a small dog near the big lake on a sunny day"

    def assert_matches_the_references(self, start, rules):
        phrases, kept_parents = reduced_closure(start, rules)
        assert phrases[-1] == start
        assert len(set(phrases)) == len(phrases)
        assert set(phrases) == apply_reductions(Sentence(" ".join(start), start, start), rules)
        assert len(kept_parents) == len(phrases)
        expected = graphlib_reduction(phrases, rules)
        for i, (phrase, kept) in enumerate(zip(phrases, kept_parents)):
            assert all(p < i for p in kept), phrase
            assert len(set(kept)) == len(kept), phrase
            assert {phrases[p] for p in kept} == expected[phrase], (start, phrase)

    @pytest.mark.parametrize("source", ["fixture", "long", "roadmap"])
    def test_closure_and_kept_parents_match_the_references(self, source):
        rules = ReductionRuleSet.default()
        if source == "fixture":
            fixture = Path(__file__).parent / "fixtures/captions.tsv"
            sentences = [sentence for _, sentence in graph_captions(load_captions(fixture))]
        else:
            sentences = [normalize(self.LONG if source == "long" else self.ROADMAP)]
            assert len(sentences[0].lemmas) >= (14 if source == "long" else 20)
        for sentence in sentences:
            self.assert_matches_the_references(tuple(sentence.lemmas), rules)

    @pytest.mark.parametrize("lexicon", sorted(ORACLE_LEXICONS))
    def test_random_phrases_match_graphlib_reduction(self, lexicon):
        """Seeded phrases over lexicons whose tokens repeat and share hypernym
        reach (`man ... man`, `adult ... girl`, `puppy ... dog`), so that one
        word is reached from two positions; and whose steps remove tokens that
        can still take a chain step."""
        rules, words = ORACLE_LEXICONS[lexicon]()
        rng = random.Random(f"reduction-{lexicon}")
        for _ in range(REDUCTION_PHRASES):
            phrase = tuple(rng.choice(words) for _ in range(rng.randint(1, 7)))
            self.assert_matches_the_references(phrase, rules)

    def test_repeated_token_keeps_one_edge(self):
        # Dropping either determiner gives ("a",): one parent, one edge.
        assert reduced_closure(("a", "a"), tiny_rules()) == ([("a",), ("a", "a")], [[], [0]])


def build_fixture_graph():
    captions = [
        ("g1", normalize("A girl runs.")),
        ("g1", normalize("A young girl is running.")),
        ("g2", normalize("A boy runs.")),
    ]
    return build_graph(captions, tiny_rules()), captions


@st.composite
def grouped_captions(draw):
    """(gid, caption) pairs over few texts and groups, so captions repeat,
    within a group and across groups."""
    words = "a the two red big young girl boy dog man park run in on with and".split()
    texts = draw(
        st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=6), min_size=1, max_size=5)
    )
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(["g1", "g2", "g3"]), st.sampled_from(texts)),
            min_size=1,
            max_size=8,
        )
    )
    return [(gid, normalize(" ".join(tokens))) for gid, tokens in pairs]


class TestBuildGraph:
    @settings(max_examples=80, deadline=None)
    @given(grouped_captions())
    def test_supports_and_counts_match_the_closures(self, captions):
        rules = tiny_rules()
        graph = build_graph(captions, rules)
        closures = [(gid, apply_reductions(sent, rules)) for gid, sent in captions]
        assert [phrase for phrase, _, _ in graph.nodes] == sorted(
            set().union(*(closure for _, closure in closures))
        )
        for phrase, support, caption_count in graph.nodes:
            holding = [gid for gid, closure in closures if phrase in closure]
            assert support == tuple(sorted(set(holding))), phrase
            assert caption_count == len(holding), phrase

    def test_single_fixpoint_caption(self):
        graph = build_graph(
            [("g1", normalize("Children sleep soundly."))], tiny_rules(hypernyms={})
        )
        assert len(graph) == 1
        assert graph.edges == []
        [(_, support, caption_count)] = graph.nodes
        assert support == ("g1",)
        assert caption_count == 1

    def test_node_set_is_union_of_closures(self):
        graph, captions = build_fixture_graph()
        rules = tiny_rules()
        expected = set()
        for _, sent in captions:
            expected |= closure_of(sent.lemmas, rules)
        assert {phrase for phrase, _, _ in graph.nodes} == expected

    def test_shared_ancestor_supports_both_groups(self):
        graph, _ = build_fixture_graph()
        nid = graph.node_id_for_phrase(("child", "run"))
        assert nid is not None
        _, support, caption_count = graph.nodes[nid]
        assert support == ("g1", "g2")
        # Reached by the girl-run and boy-run captions. The young-girl caption
        # keeps its copula token, so its reductions never hit this phrase.
        assert caption_count == 2

    def test_entry_node_counts_own_caption(self):
        graph, _ = build_fixture_graph()
        nid = graph.node_for_caption(normalize("A girl runs."))
        phrase, support, _ = graph.nodes[nid]
        assert phrase == ("a", "girl", "run")
        assert support == ("g1",)

    def test_caption_index_covers_all_captions(self):
        graph, captions = build_fixture_graph()
        assert set(graph.caption_index) == {sent.raw for _, sent in captions}

    def test_every_edge_derivable_by_one_step(self):
        graph, _ = build_fixture_graph()
        rules = tiny_rules()
        for parent, child in graph.edges:
            assert phrase_of(graph, parent) in single_step(rules, phrase_of(graph, child))

    def test_acyclic(self):
        graph, _ = build_fixture_graph()
        for nid in range(len(graph)):
            assert nid not in graph.ancestors(nid)

    def test_node_ids_independent_of_caption_order(self):
        captions = [
            ("g1", normalize("A girl runs.")),
            ("g1", normalize("A young girl is running.")),
            ("g2", normalize("A boy runs.")),
        ]
        g1 = build_graph(captions, tiny_rules())
        g2 = build_graph(list(reversed(captions)), tiny_rules())
        assert g1.nodes == g2.nodes
        assert g1.edges == g2.edges


def phrase_of(graph, nid):
    return graph.nodes[nid][0]


def brute_force_ancestors(graph, nid):
    out = set()
    stack = [nid]
    while stack:
        cur = stack.pop()
        for parent in graph.parents(cur):
            if parent not in out:
                out.add(parent)
                stack.append(parent)
    return out


class TestAncestors:
    def test_memoized_equals_brute_force(self):
        graph, _ = build_fixture_graph()
        for nid in range(len(graph)):
            assert graph.ancestors(nid) == brute_force_ancestors(graph, nid)

    def test_long_chain_ancestors_exact(self, tmp_path):
        n = 3000
        lines = ["mpe-graph\t1"]
        lines += [f"node\t{i}\tw{i}\tg1\t1" for i in range(n)]
        lines += [f"edge\t{i + 1}\t{i}" for i in range(n - 1)]
        path = tmp_path / "chain.graph"
        path.write_text("\n".join(lines) + "\n")
        graph = PhraseGraph.load(path)
        assert graph.ancestors(0) == frozenset(range(1, n))

    def test_never_contains_self(self):
        graph, _ = build_fixture_graph()
        for nid in range(len(graph)):
            assert nid not in graph.ancestors(nid)

    def test_transitive_reduction_preserves_reachability(self):
        captions = [
            ("g1", normalize("A girl runs.")),
            ("g1", normalize("A young girl is running.")),
            ("g2", normalize("A boy runs in the park.")),
        ]
        rules = tiny_rules()
        graph = build_graph(captions, rules)
        # Raw reachability: closure of single-step over each node's phrase.
        for nid, (phrase, _, _) in enumerate(graph.nodes):
            raw = closure_of(phrase, rules) - {phrase}
            via_edges = {phrase_of(graph, a) for a in graph.ancestors(nid)}
            assert via_edges == raw

    def test_no_redundant_edges(self):
        # "a dog runs in the park" has shortcuts: dropping the PP reaches
        # "a dog run" in one step and through "a dog run in park"; its 33
        # single steps reduce to 23 edges.
        _, captions = build_fixture_graph()
        rules = tiny_rules()
        graph = build_graph([*captions, ("g3", normalize("A dog runs in the park."))], rules)
        steps = sum(len(single_step(rules, phrase)) for phrase, _, _ in graph.nodes)
        assert len(graph.edges) < steps
        for parent, child in graph.edges:
            others = set(graph.parents(child)) - {parent}
            assert not any(parent in graph.ancestors(mid) for mid in others)


def graphlib_reduction(phrases, rules):
    """Parents per phrase of the single-step DAG's transitive reduction, with
    ancestors gathered in graphlib's parents-first order, as int bitsets over
    that order (test-side oracle)."""
    steps = {phrase: single_step(rules, phrase) for phrase in phrases}
    bit, ancestors = {}, {}
    for phrase in TopologicalSorter(steps).static_order():
        bit[phrase] = 1 << len(bit)
        ancestors[phrase] = reduce(or_, [ancestors[p] | bit[p] for p in steps[phrase]], 0)
    kept = {}
    for phrase, direct in steps.items():
        implied = reduce(or_, [ancestors[p] for p in direct], 0)
        kept[phrase] = {p for p in direct if not implied & bit[p]}
    return kept


class TestReductionOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    "a the two red big young girl boy dog man park run in on with and".split()
                ),
                min_size=1,
                max_size=7,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_parents_equal_graphlib_ordered_reduction(self, token_lists):
        rules = tiny_rules()
        captions = [(f"g{i}", normalize(" ".join(t))) for i, t in enumerate(token_lists)]
        graph = build_graph(captions, rules)
        expected = graphlib_reduction([phrase for phrase, _, _ in graph.nodes], rules)
        for nid, (phrase, _, _) in enumerate(graph.nodes):
            got = {phrase_of(graph, p) for p in graph.parents(nid)}
            assert got == expected[phrase], phrase
            assert list(graph.parents(nid)) == sorted(graph.parents(nid))


def ladder_rules(n=3000):
    """w_i has hypernyms w_{i+1} and w_{i+2}: one chain, n words deep."""
    hypernyms = {f"w{i}": (f"w{i + 1}", f"w{i + 2}") for i in range(n - 2)}
    hypernyms[f"w{n - 2}"] = (f"w{n - 1}",)
    return tiny_rules(hypernyms=hypernyms)


class TestTransitiveReduction:
    def test_ladder_keeps_only_the_next_rung(self):
        # The hypernym to w_{i+2} is implied via w_{i+1}. The walk is 3,000
        # phrases deep.
        n = 3000
        got = kept_phrases(("w0",), ladder_rules(n))
        expected = {(f"w{i}",): {(f"w{i + 1}",)} for i in range(n - 1)}
        assert got == {**expected, (f"w{n - 1}",): set()}

    def test_ladder_chain_built_on_first_use(self):
        # Deeper than the recursion limit; only the word a walk meets gets a chain.
        n = 3000
        rules = ladder_rules(n)
        assert rules._chains == {}
        closure = apply_reductions(Sentence("w0", ("w0",), ("w0",)), rules)
        assert closure == {(f"w{i}",) for i in range(n)}
        assert list(rules._chains) == ["w0"]

    def test_diamond_shortcut_dropped(self):
        # w0 -> {w1, w2} -> w3 plus the shortcut w0 -> w3.
        hypernyms = {"w0": ("w1", "w2", "w3"), "w1": ("w3",), "w2": ("w3",)}
        got = kept_phrases(("w0",), tiny_rules(hypernyms=hypernyms))
        assert got == {
            ("w0",): {("w1",), ("w2",)},
            ("w1",): {("w3",)},
            ("w2",): {("w3",)},
            ("w3",): set(),
        }


def fixture_closures():
    _, captions = build_fixture_graph()
    return caption_closures(captions, tiny_rules())


def graph_simplify(source, premises, graph):
    """simplify_hypothesis read off the phrase graph's edges (test-side oracle)."""
    candidates = set(graph.ancestors(graph.node_for_caption(normalize(source))))
    for premise in premises:
        candidates -= graph.ancestors(graph.node_for_caption(normalize(premise)))
    return sorted(phrase_of(graph, nid) for nid in candidates)


def simplify(source, premises, closures):
    """simplify_hypothesis on caption texts, normalized first."""
    return simplify_hypothesis(normalize(source), [normalize(p) for p in premises], closures)


class TestSimplifyHypothesis:
    def test_premise_ancestors_excluded(self):
        got = simplify("A girl runs.", ["A boy runs."], fixture_closures())
        # Shared generalizations (child run / person run lineages) are excluded;
        # girl-specific ones survive.
        assert ("girl", "run") in got
        assert ("child", "run") not in got
        assert ("person", "run") not in got
        assert all("boy" not in p for p in got)

    def test_source_itself_never_returned(self):
        got = simplify("A girl runs.", [], fixture_closures())
        assert ("a", "girl", "run") not in got

    def test_no_premises_returns_all_ancestors(self):
        graph, _ = build_fixture_graph()
        got = simplify("A girl runs.", [], fixture_closures())
        nid = graph.node_for_caption(normalize("A girl runs."))
        assert set(got) == {phrase_of(graph, a) for a in graph.ancestors(nid)}

    def test_full_exclusion_yields_empty(self):
        got = simplify(
            "A girl runs.", ["A girl runs.", "A boy runs."], fixture_closures()
        )
        # The identical premise removes every shared ancestor.
        assert got == []

    def test_premise_phrase_kept_unless_another_premise_reaches_it(self):
        closures = caption_closures(
            [("g1", normalize("A girl runs.")), ("g2", normalize("Girl runs."))],
            tiny_rules(),
        )
        # "girl run" is the second caption's own phrase: it stays a candidate
        # until a premise that generalizes to it is added.
        assert ("girl", "run") in simplify("A girl runs.", ["Girl runs."], closures)
        got = simplify("A girl runs.", ["Girl runs.", "A girl runs."], closures)
        assert ("girl", "run") not in got

    def test_candidates_not_ancestors_of_any_premise(self):
        graph, _ = build_fixture_graph()
        premises = ["A boy runs.", "A young girl is running."]
        got = simplify("A girl runs.", premises, fixture_closures())
        for premise in premises:
            pid = graph.node_for_caption(normalize(premise))
            ancestor_phrases = {phrase_of(graph, a) for a in graph.ancestors(pid)}
            assert not set(got) & ancestor_phrases

    def test_accepts_sentence_objects(self):
        graph, _ = build_fixture_graph()
        got = simplify_hypothesis(
            normalize("A girl runs."), [normalize("A boy runs.")], fixture_closures()
        )
        assert got == graph_simplify("A girl runs.", ["A boy runs."], graph)

    def test_unknown_caption_raises(self):
        closures = fixture_closures()
        with pytest.raises(UnknownCaptionError):
            simplify("Never indexed.", [], closures)
        with pytest.raises(UnknownCaptionError):
            simplify("A girl runs.", ["Never indexed."], closures)

    def test_sorted_and_duplicate_free(self):
        got = simplify(
            "A young girl is running.", ["A boy runs."], fixture_closures()
        )
        assert got == sorted(set(got))


class TestCaptionClosures:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    "a the two red big young girl boy dog man park run in on with and".split()
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
        st.data(),
    )
    def test_closure_identities_match_graph(self, token_lists, data):
        rules = tiny_rules()
        captions = [(f"g{i}", normalize(" ".join(t))) for i, t in enumerate(token_lists)]
        # One caption text repeated in a group of its own.
        captions.append(("g-repeat", data.draw(st.sampled_from(captions))[1]))
        graph = build_graph(captions, rules)
        closures = caption_closures(captions, rules)
        raws = sorted({sent.raw for _, sent in captions})
        assert sorted(closures.ancestors) == raws
        for raw in raws:
            nid = graph.node_for_caption(normalize(raw))
            assert closures.ancestors[raw] == {phrase_of(graph, a) for a in graph.ancestors(nid)}
        assert closures.caption_counts == {
            phrase: caption_count for phrase, _, caption_count in graph.nodes
        }
        source = data.draw(st.sampled_from(raws))
        premises = data.draw(st.lists(st.sampled_from(raws), max_size=4))
        assert simplify(source, premises, closures) == graph_simplify(
            source, premises, graph
        )

    def test_rule_set_keeps_no_per_phrase_state(self):
        """Closing a corpus leaves the rule set no larger than its vocabulary:
        no phrase-keyed cache outlives the caption whose walk filled it."""
        rules = ReductionRuleSet.default()
        captions = graph_captions(load_captions(Path(__file__).parent / "fixtures/captions.tsv"))
        closures = caption_closures(captions, rules)
        build_graph(captions, rules)
        tokens = {tok for _, sent in captions for tok in sent.lemmas}
        lexicon = rules.determiners | rules.adjectives | rules.prepositions
        for specific, generals in rules.hypernyms.items():
            lexicon |= {specific, *generals}
        bound = len(tokens | lexicon)
        assert sum(map(len, closures.ancestors.values())) > bound  # the corpus is not trivial
        for f in fields(rules):
            held = getattr(rules, f.name)
            if isinstance(held, Mapping):
                assert len(held) <= bound, (f.name, len(held), bound)


def reference_save_bytes(graph):
    """Test-side writer: the header, one f-string per node, one per edge of
    the sorted `graph.edges` list, then captions sorted by text."""
    lines = ["mpe-graph\t1\n"]
    lines += [
        f"node\t{nid}\t{' '.join(phrase)}\t{','.join(support)}\t{count}\n"
        for nid, (phrase, support, count) in enumerate(graph.nodes)
    ]
    lines += [f"edge\t{p}\t{c}\n" for p, c in sorted(graph.edges)]
    index = graph.caption_index
    lines += [f"caption\t{index[raw]}\t{raw}\n" for raw in sorted(index)]
    return "".join(lines).encode("utf-8")


class TestSerialization:
    @settings(max_examples=80, deadline=None)
    @given(grouped_captions())
    def test_save_matches_the_reference_writer(self, captions):
        # "Sky." reduces to nothing and no drawn caption reduces to it: a node with
        # neither parents nor children.
        graph = build_graph([*captions, ("g1", normalize("Sky."))], tiny_rules())
        has_parent = {c for _, c in graph.edges}
        has_child = {p for p, _ in graph.edges}
        assert graph.node_id_for_phrase(("sky",)) not in has_parent | has_child
        assert len(has_parent) < len(graph) and len(has_child) < len(graph)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.txt"
            graph.save(path)
            assert path.read_bytes() == reference_save_bytes(graph)

    def test_roundtrip(self, tmp_path):
        graph, _ = build_fixture_graph()
        path = tmp_path / "fixture.graph"
        graph.save(path)
        loaded = PhraseGraph.load(path)
        assert loaded.nodes == graph.nodes
        assert loaded.edges == graph.edges
        assert loaded.caption_index == graph.caption_index

    def test_saved_bytes_deterministic(self, tmp_path):
        g1, _ = build_fixture_graph()
        g2, _ = build_fixture_graph()
        p1, p2 = tmp_path / "a.graph", tmp_path / "b.graph"
        g1.save(p1)
        g2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("something-else\t1\n")
        with pytest.raises(ValueError, match="bad header"):
            PhraseGraph.load(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty graph file")):
            PhraseGraph.load(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("mpe-graph\t99\n")
        with pytest.raises(ValueError, match="version"):
            PhraseGraph.load(path)

    def test_dangling_edge_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text(
            "mpe-graph\t1\nnode\t0\tdog run\tg1\t1\nedge\t5\t0\n"
        )
        with pytest.raises(ValueError, match="unknown node"):
            PhraseGraph.load(path)

    def test_cyclic_file_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text(
            "mpe-graph\t1\n"
            "node\t0\tdog run\tg1\t1\n"
            "node\t1\tanimal run\tg1\t1\n"
            "edge\t1\t0\nedge\t0\t1\n"
        )
        with pytest.raises(ValueError, match="cycle"):
            PhraseGraph.load(path)

    def test_cycle_message_is_closed_child_to_parent_path(self, tmp_path):
        path = tmp_path / "bad.graph"
        edges = {(1, 0), (2, 1), (0, 2), (2, 3)}  # (parent, child); 3 is off the cycle
        path.write_text(
            "mpe-graph\t1\n"
            + "".join(f"node\t{i}\tw{i}\tg1\t1\n" for i in range(4))
            + "".join(f"edge\t{p}\t{c}\n" for p, c in sorted(edges))
        )
        with pytest.raises(ValueError, match="cycle: ") as info:
            PhraseGraph.load(path)
        cycle = [int(t) for t in str(info.value).split("cycle: ")[1].split(" -> ")]
        assert len(cycle) == 4 and cycle[0] == cycle[-1]
        for child, parent in zip(cycle, cycle[1:]):
            assert (parent, child) in edges

    def test_repeated_edge_located(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text(
            "mpe-graph\t1\nnode\t0\tdog\tg1\t1\nnode\t1\tanimal\tg1\t1\n"
            "edge\t1\t0\nedge\t1\t0\n"
        )
        with pytest.raises(
            ValueError,
            match=re.escape(f"{path}:5: bad 'edge' record: duplicate edge 1 -> 0"),
        ):
            PhraseGraph.load(path)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["g1", "g2"]),
                st.lists(
                    st.tuples(
                        st.sampled_from(" " + SPLITLINES_ONLY),
                        st.sampled_from("a the girl boy dog red in park run".split()),
                    ),
                    min_size=1,
                    max_size=5,
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_splitlines_only_separators_round_trip(self, captions):
        """Captions holding characters that only str.splitlines treats as line
        ends: the graph and items files still round-trip byte for byte."""
        raws = [
            (gid, "".join(sep + word for sep, word in words)[1:]) for gid, words in captions
        ]
        graph = build_graph([(gid, normalize(raw)) for gid, raw in raws], tiny_rules())
        sentences = [normalize(raw) for _, raw in raws]
        item = Item(
            id="i0",
            scene_group_id="g1",
            premises=tuple(sentences[i % len(sentences)] for i in range(4)),
            hypothesis=sentences[-1],
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.graph", Path(tmp) / "b.graph"
            graph.save(first)
            loaded = PhraseGraph.load(first)
            assert loaded.nodes == graph.nodes
            assert loaded.edges == graph.edges
            assert loaded.caption_index == graph.caption_index
            loaded.save(second)
            assert second.read_bytes() == first.read_bytes()
            items_path = Path(tmp) / "items.jsonl"
            save_items([item], items_path)
            assert load_items(items_path) == [item]

    def test_long_chain_loads(self, tmp_path):
        n = 3000
        lines = ["mpe-graph\t1"]
        lines += [f"node\t{i}\tw{i}\tg1\t1" for i in range(n)]
        # Node i's parent is i + 1, so the walk from node 0 is n deep.
        lines += [f"edge\t{i + 1}\t{i}" for i in range(n - 1)]
        path = tmp_path / "chain.graph"
        path.write_text("\n".join(lines) + "\n")
        graph = PhraseGraph.load(path)
        assert len(graph) == n and graph.parents(0) == (1,)

    @pytest.mark.parametrize(
        "record",
        [
            "node\t0\tdog run\tg1",
            "edge\t0",
            "node\tx\tdog run\tg1\t1",
            "caption\t0",
            "caption\t0\t",
        ],
        ids=[
            "node-3-fields",
            "edge-1-field",
            "node-id-not-int",
            "caption-no-text",
            "caption-empty-text",
        ],
    )
    def test_malformed_record_located(self, tmp_path, record):
        path = tmp_path / "bad.graph"
        path.write_text(f"mpe-graph\t1\nnode\t1\tdog\tg1\t1\n{record}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            PhraseGraph.load(path)

    def test_caption_for_unknown_node_located(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text(
            "mpe-graph\t1\nnode\t0\tdog\tg1\t1\ncaption\t0\tA dog.\n"
            "caption\t7\tA cat.\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:4:") + ".*node 7"):
            PhraseGraph.load(path)

    def test_duplicate_node_id_located(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("mpe-graph\t1\nnode\t0\tdog\tg1\t1\nnode\t0\tcat\tg1\t1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:") + ".*node id 0"):
            PhraseGraph.load(path)

    def test_undecodable_byte_located(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"mpe-graph\t1\nnode\t0\tdog\tg1\t1\ncaption\t0\tA d\xffg.\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: byte 0xff is not UTF-8")):
            PhraseGraph.load(path)

    def test_duplicate_caption_located(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text(
            "mpe-graph\t1\nnode\t0\tdog\tg1\t1\nnode\t1\tcat\tg1\t1\n"
            "caption\t0\tA dog.\ncaption\t1\tA dog.\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:5:") + ".*'A dog.'"):
            PhraseGraph.load(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        graph, _ = build_fixture_graph()
        path = tmp_path / "fixture.graph"
        path.write_text("previous contents\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            graph.save(path)
        assert path.read_text() == "previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fixture.graph"]


class TestNodeRecordValidation:
    """`load` checks every node row; `build_graph` meets the same checks by
    construction (TestBuildGraphRows)."""

    @pytest.mark.parametrize(
        "record, message",
        [
            ("node\t1\t\tg1\t1", "empty phrase"),
            ("node\t1\tcat\t\t1", "empty support"),
            ("node\t1\tcat\tg1,g2\t1", "caption_count 1 < 2 supporting groups"),
            ("node\t1\tcat  run\tg1\t1", "empty token in phrase 'cat  run'"),
            ("node\t1\tcat\tg1,\t2", "empty group id in support 'g1,'"),
            ("node\t1\tcat\tg1,g1\t2", "repeated group id in support 'g1,g1'"),
            ("node\t1\tdog\tg2\t1", "phrase 'dog' already held by node 0"),
        ],
        ids=[
            "empty-phrase",
            "empty-support",
            "count-below-groups",
            "empty-token",
            "empty-group-id",
            "repeated-group-id",
            "duplicate-phrase",
        ],
    )
    def test_bad_node_record_located(self, tmp_path, record, message):
        path = tmp_path / "bad.graph"
        path.write_text(f"mpe-graph\t1\nnode\t0\tdog\tg1\t1\n{record}\n")
        prefix = re.escape(f"{path}:3: bad 'node' record: ")
        with pytest.raises(ValueError, match=prefix + re.escape(message)):
            PhraseGraph.load(path)

    def test_sparse_node_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text(
            "mpe-graph\t1\nnode\t0\tdog\tg1\t1\nnode\t1\tcat\tg1\t1\n"
            "node\t5\tcow\tg1\t1\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: node ids [5] are not in 0..2")):
            PhraseGraph.load(path)


class TestBuildGraphRows:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["g1", "g2", "g3"]),
                st.lists(
                    st.sampled_from(
                        "a the two red big young girl boy dog man park run in on with and".split()
                    ),
                    min_size=1,
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_rows_meet_load_invariants(self, captions):
        graph = build_graph(
            [(gid, normalize(" ".join(tokens))) for gid, tokens in captions], tiny_rules()
        )
        phrases = [phrase for phrase, _, _ in graph.nodes]
        assert phrases == sorted(set(phrases))  # ids are dense in sorted-phrase order
        for phrase, support, caption_count in graph.nodes:
            assert phrase and all(phrase)
            assert support and all(support) and list(support) == sorted(set(support))
            assert caption_count >= len(support)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.txt"
            graph.save(path)
            assert PhraseGraph.load(path).nodes == graph.nodes
