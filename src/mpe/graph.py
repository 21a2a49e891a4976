"""Caption subsumption graph built from shallow reduction rules.

Every caption is lemmatized and expanded into its closure under six
reduction rules (drop determiner, drop adjectival modifier, drop
prepositional phrase, hypernym substitution, noun-phrase extraction; the
lemmatization itself is the entry step). Each rule application yields a
strictly more generic phrase, so closures are finite DAGs: ancestors of a
phrase are its generalizations.

`simplify_hypothesis` returns the generalizations of a source caption that
cannot be reached from any premise, which is the candidate pool for
hypothesis generation. It reads a `CaptionClosures` index: a caption's
ancestors are its closure minus its own lemma tuple, and a phrase's caption
count is the number of caption closures that hold it. Both identities follow
from the stored reduction keeping reachability, so item generation needs no
edges, and `build_graph` is the only producer of them.

One stack walk, `_reachable`, serves both directions of use: the closure
follows single rule steps from a caption, and `PhraseGraph.ancestors` follows
stored parent edges from a node. A rule step reads the closed-class flags
the rule set fixes per lexicon word when it is built. A phrase seldom
recurs across captions, and within one closure walk each phrase is expanded
once, so a walk's successor sets live for one caption: `build_graph` hands
them to that caption's reduction and then drops them.

Only the transitive reduction of the single-step DAG is stored. Every step
shortens the phrase or swaps a word for its hypernym, so the generality key
(length, sum of hypernym depths) strictly falls along every edge and sorting
by it lists parents first. A phrase's ancestors all lie in the closure of any
caption that reaches it, so the reduction runs once per caption closure, with
each phrase's ancestors held as an int bitset over positions in that closure.
`graphlib` only checks for cycles (hypernym lexicon, graph files) and reports
the cycle specific -> general; its walk of the lexicon also yields each
word's hypernym depth.

The rules are shallow chunk patterns over closed-class lexicons, not a
parser; nodes are phrases in lemma space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .text import (
    Sentence,
    _atomic_write,
    _lines,
    _quote,
    _quote_list,
    _read_pairs,
    _read_word_list,
)

_DATA_DIR = Path(__file__).parent / "data"

Phrase = tuple[str, ...]
_Node = TypeVar("_Node")

# Small internal conjunction class: blocks modifier drops and bounds
# noun-phrase chunks, but is never dropped itself.
_CONJUNCTIONS = frozenset({"and", "or", "but", "nor", "while", "as", "then"})

# Closed-class flags of a token; a content word has none.
_DET, _ADJ, _PREP, _CONJ = 1, 2, 4, 8

GRAPH_FORMAT = "mpe-graph"
GRAPH_VERSION = 1


class UnknownCaptionError(KeyError):
    """Raised when a caption was never indexed into the graph."""


class LexiconCycleError(ValueError):
    """Raised when the hypernym lexicon contains a cycle."""


def _load_hypernyms(path: Path) -> dict[str, tuple[str, ...]]:
    table: dict[str, set[str]] = {}
    for specific, general in _read_pairs(path, "hypernym entry (want specific<TAB>general)"):
        table.setdefault(specific, set()).add(general)
    return {k: tuple(sorted(v)) for k, v in table.items()}


def _reachable(start: _Node, step: Callable[[_Node], Iterable[_Node]]) -> set[_Node]:
    """Every node reached from start by one or more steps.

    An explicit stack, so a deep chain cannot exhaust the interpreter's
    recursion limit; start itself is in the result only if a step returns to it.
    """
    seen: set[_Node] = set()
    stack = [start]
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True)
class ReductionRuleSet:
    """Closed-class lexicons driving the reduction rules."""

    determiners: frozenset[str]
    adjectives: frozenset[str]
    prepositions: frozenset[str]
    hypernyms: Mapping[str, tuple[str, ...]]
    # Closed-class flags of every lexicon word (and conjunction), filled once
    # in __post_init__; any other token is content, with no flag.
    _flags: dict[str, int] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )
    # Hypernym depth of every lexicon word; any other word has depth 0.
    _depths: dict[str, int] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        lexicons = self.determiners, self.adjectives, self.prepositions, _CONJUNCTIONS
        for flag, words in zip((_DET, _ADJ, _PREP, _CONJ), lexicons):
            for word in words:
                self._flags[word] = self._flags.get(word, 0) | flag
        try:
            # Generals come before their specifics, so each depth is known
            # by the time a more specific word needs it.
            for word in TopologicalSorter(self.hypernyms).static_order():
                self._depths[word] = 1 + max(
                    (self._depths[g] for g in self.hypernyms.get(word, ())), default=-1
                )
        except CycleError as exc:
            # graphlib lists the cycle general -> specific; report it the other way.
            raise LexiconCycleError(" -> ".join(reversed(exc.args[1]))) from None

    @classmethod
    def default(cls) -> "ReductionRuleSet":
        return cls(
            determiners=frozenset(_read_word_list(_DATA_DIR / "determiners.txt").values()),
            adjectives=frozenset(_read_word_list(_DATA_DIR / "adjectives.txt").values()),
            prepositions=frozenset(_read_word_list(_DATA_DIR / "prepositions.txt").values()),
            hypernyms=_load_hypernyms(_DATA_DIR / "hypernyms.txt"),
        )

    def generality(self, phrase: Phrase) -> tuple[int, int]:
        """(length, sum of hypernym depths), strictly lower for every single step.

        A word's depth is 0 without a hypernym and otherwise 1 + the largest
        depth among its hypernyms, so a substitution lowers the sum and every
        other rule shortens the phrase. Sorting by it lists parents first.
        """
        depths = self._depths
        return len(phrase), sum([depths.get(tok, 0) for tok in phrase])

    def single_step(self, phrase: Phrase) -> set[Phrase]:
        """All phrases reachable by one rule application.

        Every result is strictly shorter than `phrase` or an equal-length
        hypernym substitution, so repeated application terminates.

        One right-to-left pass; at token i the state describes phrase[i + 1:].
        A token is content when it has no closed-class flag. An adjective is
        dropped when the first non-adjective after its run is content; a
        prepositional phrase spans its determiner/adjective run and at most
        one content word after it; noun chunks are the runs between
        prepositions and conjunctions that hold a content word.
        """
        out: set[Phrase] = set()
        n = len(phrase)
        flags_of = self._flags
        adjective_droppable = False  # the first non-adjective is content
        pp_end = n  # where a prepositional phrase opening just before ends
        chunk_end = 0  # end of the open noun chunk; 0 when none is open
        chunk_content = False
        for i in range(n - 1, -1, -1):
            tok = phrase[i]
            flags = flags_of.get(tok, 0)
            if not flags:
                adjective_droppable = True
                pp_end = i + 1
                chunk_end = chunk_end or i + 1
                chunk_content = True
            else:
                if flags & _DET and n > 1 or flags & _ADJ and adjective_droppable:
                    out.add(phrase[:i] + phrase[i + 1:])
                if flags & _PREP and pp_end - i < n:
                    out.add(phrase[:i] + phrase[pp_end:])
                if flags & (_PREP | _CONJ):
                    if chunk_content:
                        out.add(phrase[i + 1:chunk_end])
                    chunk_end, chunk_content = 0, False
                else:
                    chunk_end = chunk_end or i + 1
                if not flags & _ADJ:
                    adjective_droppable = False
                if not flags & (_DET | _ADJ):
                    pp_end = i
            generals = self.hypernyms.get(tok)
            if generals:
                head, tail = phrase[:i], phrase[i + 1:]
                for general in generals:
                    out.add(head + (general,) + tail)
        if chunk_content and chunk_end < n:
            out.add(phrase[:chunk_end])
        return out


def apply_reductions(caption: Sentence, rules: ReductionRuleSet) -> set[Phrase]:
    """Closure of the lemmatized caption under the reduction rules."""
    start = tuple(caption.lemmas)
    closure = _reachable(start, rules.single_step)
    closure.add(start)
    return closure


def _closure_steps(start: Phrase, rules: ReductionRuleSet) -> dict[Phrase, set[Phrase]]:
    """The closure of start, each phrase mapped to its single-step successors.

    The walk expands each phrase once, so this is the same rule passes as
    `apply_reductions`, kept for the caller's transitive reduction.
    """
    steps: dict[Phrase, set[Phrase]] = {}

    def step(phrase: Phrase) -> set[Phrase]:
        found = steps[phrase] = rules.single_step(phrase)
        return found

    _reachable(start, step)
    return steps


NodeRow = tuple[Phrase, tuple[str, ...], int]  # (phrase, support, caption_count)


class PhraseGraph:
    """Subsumption DAG over caption phrases.

    `nodes[i]` is node i's `(phrase, support, caption_count)` row; ids are
    dense 0..n-1 in sorted-phrase order. support holds the sorted scene group
    ids whose captions reduce to the phrase; caption_count is the number of
    individual captions that do (a group contributes once per caption, so
    caption_count >= len(support)). Edges point parent -> child where the
    parent is strictly more generic; only the transitive reduction is stored.
    `ancestors` walks toward the generic end on every call; the graph keeps no
    derived reachability.
    """

    def __init__(
        self,
        nodes: list[NodeRow],
        parents: dict[int, tuple[int, ...]],
        caption_index: dict[str, int],
    ):
        self.nodes = nodes
        self._parents = parents
        self.caption_index = caption_index
        self._phrase_ids = {row[0]: nid for nid, row in enumerate(nodes)}

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted((p, child) for child, ps in self._parents.items() for p in ps)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._parents.values()))

    def parents(self, node_id: int) -> tuple[int, ...]:
        return self._parents.get(node_id, ())

    def node_id_for_phrase(self, phrase: Phrase) -> int | None:
        return self._phrase_ids.get(tuple(phrase))

    def node_for_caption(self, caption: Sentence) -> int:
        try:
            return self.caption_index[caption.raw]
        except KeyError:
            raise UnknownCaptionError(
                f"caption not indexed in graph: {_quote(caption.raw)}"
            ) from None

    def ancestors(self, node_id: int) -> frozenset[int]:
        """All strictly more generic nodes reachable from node_id.

        Walked afresh on each call: nothing is cached, so memory stays
        linear in the graph however deep it is.
        """
        return frozenset(_reachable(node_id, self.parents))

    def save(self, path: str | Path) -> None:
        index = self.caption_index
        lines = [f"{GRAPH_FORMAT}\t{GRAPH_VERSION}"]
        lines += [
            f"node\t{nid}\t{' '.join(phrase)}\t{','.join(support)}\t{count}"
            for nid, (phrase, support, count) in enumerate(self.nodes)
        ]
        lines += [f"edge\t{parent}\t{child}" for parent, child in self.edges]
        lines += [f"caption\t{index[raw]}\t{raw}" for raw in sorted(index)]
        _atomic_write(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PhraseGraph":
        """Read a `save`d file; this is where node rows are checked."""
        lines = _lines(path)
        _, first = next(lines, (1, None))
        if first is None:
            raise ValueError(f"{path}: empty graph file")
        header = first.split("\t")
        if len(header) != 2 or header[0] != GRAPH_FORMAT:
            raise ValueError(f"{path}:1: bad header {_quote(first)}")
        if header[1] != str(GRAPH_VERSION):
            raise ValueError(f"{path}:1: unsupported version {_quote(header[1])}")
        rows: dict[int, NodeRow] = {}
        phrase_ids: dict[Phrase, int] = {}
        parents: dict[int, set[int]] = {}
        caption_index: dict[str, int] = {}
        caption_lines: list[tuple[int, int]] = []  # (lineno, node id)
        for lineno, line in lines:
            if not line:
                continue
            kind, _, rest = line.partition("\t")
            try:
                if kind == "node":
                    nid_s, phrase_s, support_s, count_s = rest.split("\t")
                    nid = int(nid_s)
                    if nid in rows:
                        raise ValueError(f"duplicate node id {nid}")
                    row = rows[nid] = _node_row(phrase_s, support_s, int(count_s))
                    held = phrase_ids.setdefault(row[0], nid)
                    if held != nid:
                        raise ValueError(f"phrase {_quote(phrase_s)} already held by node {held}")
                elif kind == "edge":
                    parent_s, child_s = rest.split("\t")
                    parent, child = int(parent_s), int(child_s)
                    known = parents.setdefault(child, set())
                    if parent in known:
                        raise ValueError(f"duplicate edge {parent} -> {child}")
                    known.add(parent)
                elif kind == "caption":
                    nid_s, _, raw = rest.partition("\t")
                    if not raw:
                        raise ValueError("no caption text")
                    if raw in caption_index:
                        raise ValueError(f"duplicate caption {_quote(raw)}")
                    caption_index[raw] = int(nid_s)
                    caption_lines.append((lineno, caption_index[raw]))
                else:
                    raise ValueError("unknown record kind")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {_quote(kind)} record: {exc}") from None
        ids = range(len(rows))
        stray = sorted(nid for nid in rows if nid not in ids)
        if stray:
            raise ValueError(f"{path}: node ids {_quote_list(stray)} are not in 0..{len(ids) - 1}")
        for child, ps in parents.items():
            unknown = sorted(nid for nid in ps | {child} if nid not in ids)
            if unknown:
                raise ValueError(f"{path}: edge references unknown node {_quote_list(unknown)}")
        for lineno, nid in caption_lines:
            if nid not in ids:
                raise ValueError(f"{path}:{lineno}: caption references unknown node {nid}")
        try:
            TopologicalSorter(parents).prepare()
        except CycleError as exc:
            # graphlib lists the cycle parent -> child; report it child -> parent.
            cycle = " -> ".join(map(str, reversed(exc.args[1])))
            raise ValueError(f"{path}: graph contains a cycle: {cycle}") from None
        return cls(
            nodes=[rows[nid] for nid in ids],
            parents={c: tuple(sorted(p)) for c, p in parents.items()},
            caption_index=caption_index,
        )


def _node_row(phrase_s: str, support_s: str, caption_count: int) -> NodeRow:
    """A node row from its file fields; ValueError names the broken invariant."""
    if not phrase_s:
        raise ValueError("empty phrase")
    phrase = tuple(phrase_s.split(" "))
    if "" in phrase:
        raise ValueError(f"empty token in phrase {_quote(phrase_s)}")
    if not support_s:
        raise ValueError("empty support")
    groups = support_s.split(",")
    support = tuple(sorted(set(groups)))
    if "" in support:
        raise ValueError(f"empty group id in support {_quote(support_s)}")
    if len(support) < len(groups):
        raise ValueError(f"repeated group id in support {_quote(support_s)}")
    if caption_count < len(support):
        raise ValueError(
            f"caption_count {caption_count} < {len(support)} supporting groups"
        )
    return phrase, support, caption_count


def _transitive_reduction(
    order: Sequence[_Node], step: Callable[[_Node], Iterable[_Node]]
) -> dict[_Node, tuple[_Node, ...]]:
    """Drop edges implied by longer derivation paths (reachability preserved).

    `order` lists nodes parents first and `step(node)` gives a node's direct
    parents, all of them in `order`. Each node's ancestors are one int bitset
    over positions in `order`, the OR of its direct parents' sets plus the
    bits of the parents it keeps. A direct parent whose bit is already set in
    that OR is implied by a longer path and dropped. Returns the kept parents,
    in `order`, of every node that has any.
    """
    position = {node: i for i, node in enumerate(order)}
    ancestors: list[int] = []  # by position
    reduced: dict[_Node, tuple[_Node, ...]] = {}
    for node in order:
        direct = [position[p] for p in step(node)]
        implied = 0
        for i in direct:
            implied |= ancestors[i]
        kept = sorted([i for i in direct if not implied >> i & 1])
        if kept:
            reduced[node] = tuple([order[i] for i in kept])
        for i in kept:
            implied |= 1 << i
        ancestors.append(implied)
    return reduced


def build_graph(
    captions: Iterable[tuple[str, Sentence]],
    rules: ReductionRuleSet | None = None,
) -> PhraseGraph:
    """Union of reduction closures over (scene_group_id, caption) pairs.

    A node's support is the set of scene group ids whose captions reach it;
    caption_count is the number of captions (not groups) that reach it.
    Parents come from a transitive reduction of each caption's closure.
    """
    rules = rules if rules is not None else ReductionRuleSet.default()
    captions = list(captions)
    if not captions:
        raise ValueError("build_graph needs at least one caption")
    supports: dict[Phrase, set[str]] = {}
    caption_counts: dict[Phrase, int] = {}
    caption_starts: dict[str, Phrase] = {}
    reduced: dict[Phrase, tuple[Phrase, ...]] = {}

    for gid, sentence in captions:
        start = caption_starts[sentence.raw] = tuple(sentence.lemmas)
        steps = _closure_steps(start, rules)  # held for this caption only
        for phrase in steps:
            supports.setdefault(phrase, set()).add(gid)
            caption_counts[phrase] = caption_counts.get(phrase, 0) + 1
        order = sorted(steps, key=rules.generality)
        reduced.update(_transitive_reduction(order, steps.__getitem__))

    phrases = sorted(supports)
    phrase_ids = {phrase: nid for nid, phrase in enumerate(phrases)}
    nodes = [
        (phrase, tuple(sorted(supports[phrase])), caption_counts[phrase])
        for phrase in phrases
    ]
    caption_index = {raw: phrase_ids[start] for raw, start in caption_starts.items()}
    parents = {
        phrase_ids[phrase]: tuple(sorted([phrase_ids[p] for p in kept]))
        for phrase, kept in reduced.items()
    }
    return PhraseGraph(nodes=nodes, parents=parents, caption_index=caption_index)


@dataclass(frozen=True)
class CaptionClosures:
    """What item generation reads of a corpus: per-caption ancestors and
    per-phrase caption counts, straight from the reduction closures.

    ancestors maps raw caption text to the caption's closure minus its own
    lemma tuple, the phrases `PhraseGraph.ancestors` reaches from that
    caption's node. caption_counts counts each phrase once per corpus caption
    whose closure holds it, as a graph node's caption_count does, so a text
    repeated across groups counts once per occurrence.
    """

    ancestors: Mapping[str, frozenset[Phrase]]
    caption_counts: Counter[Phrase]

    def ancestors_of(self, caption: Sentence) -> frozenset[Phrase]:
        try:
            return self.ancestors[caption.raw]
        except KeyError:
            raise UnknownCaptionError(f"caption not indexed: {_quote(caption.raw)}") from None


def caption_closures(
    captions: Iterable[tuple[str, Sentence]],
    rules: ReductionRuleSet | None = None,
) -> CaptionClosures:
    """Each caption's closure, computed once, from the (scene_group_id,
    caption) pairs `build_graph` takes; no reduction, no nodes."""
    rules = rules if rules is not None else ReductionRuleSet.default()
    ancestors: dict[str, frozenset[Phrase]] = {}
    counts: Counter[Phrase] = Counter()
    for _, sentence in captions:
        closure = apply_reductions(sentence, rules)
        counts.update(closure)
        closure.discard(tuple(sentence.lemmas))
        ancestors[sentence.raw] = frozenset(closure)
    return CaptionClosures(ancestors=ancestors, caption_counts=counts)


def simplify_hypothesis(
    source_caption: Sentence,
    premises: Sequence[Sentence],
    closures: CaptionClosures,
) -> list[Phrase]:
    """Generalizations of the source that no premise also generalizes to.

    Returns ancestors(source) minus the union of every premise's ancestors:
    the candidate hypotheses that cannot be reproduced from a premise by the
    same reduction rules. A premise's own phrase is removed only when it is
    an ancestor of another premise. Never contains the source caption itself.
    Sorted (set semantics, stable order) for downstream sampling.
    """
    source = closures.ancestors_of(source_caption)
    return sorted(source.difference(*[closures.ancestors_of(p) for p in premises]))
