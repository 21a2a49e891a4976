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

One rule-step body, `ReductionRuleSet._step`, serves both stages; it reads
the closed-class flags the rule set fixes per lexicon word when it is built,
and takes the hypernym table whose substitutions it makes. `build_graph`
steps with the whole lexicon. `apply_reductions` closes a caption over its
skeleton, every step but the substitutions that keep closed-class flags,
then expands each skeleton phrase by the product of its tokens' hypernym
chains; the expansion is exact because those substitutions commute with
every other rule. One stack walk, `_reachable`, follows skeleton steps from
a caption and stored parent edges from a node (`PhraseGraph.ancestors`).

Only the transitive reduction of the single-step DAG is stored. A phrase's
ancestors all lie in the closure of any caption that reaches it, and phrases
seldom recur across captions, so `build_graph` reduces each caption's closure
on its own, in the depth-first walk that finds it (`_reduced_closure`). Every
step shortens the phrase or swaps a word for its hypernym, so the walk meets
no cycle and finishes each phrase after its successors; a phrase's ancestors
are the OR of theirs, as int bitsets over finishing indexes.

Ids flow as ints from the walk to the file. The walk looks each successor up
once and returns kept parents as closure indexes. `build_graph` hashes each
closure phrase once per caption into a first-seen id, and keeps supports,
caption counts and kept parents in lists by that id; one sort of the phrases
gives node ids, and one remap by list indexing moves parents and the caption
index onto them. A support is one group id until a second group reaches the
phrase. `save` formats each node id once and writes a parent's edge lines
with one join over its child list, so it sorts no edge list. `graphlib`
checks for cycles (hypernym lexicon, graph files), reported specific ->
general and child -> parent, and orders the lexicon generals first.

The rules are shallow chunk patterns over closed-class lexicons, not a
parser; nodes are phrases in lemma space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

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
    """Every node reached from start by one or more steps: a caption's
    skeleton closure (`apply_reductions`) or a node's ancestors.

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
    """Closed-class lexicons driving the reduction rules.

    Built with one pass over the hypernym lexicon in graphlib's topological
    order, generals first, which refuses a cycle and splits the lexicon's
    words in two. A word's chain is itself and every general it reaches. A
    word whose whole chain has its own closed-class flags goes into
    `_chains`, mapped to that chain (a word with no general, to itself); its
    substitutions commute with every other rule (see `apply_reductions`).
    Every other word keeps its generals as rule steps in `_steps`. The table
    holds each chain whole, so it grows with the sum of chain lengths:
    quadratic only in a lexicon of very deep chains.
    """

    determiners: frozenset[str]
    adjectives: frozenset[str]
    prepositions: frozenset[str]
    hypernyms: Mapping[str, tuple[str, ...]]
    # Closed-class flags of every lexicon word (and conjunction); any other
    # token is content, with no flag. These three are filled once in
    # __post_init__.
    _flags: dict[str, int] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )
    _chains: dict[str, tuple[str, ...]] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )
    _steps: dict[str, tuple[str, ...]] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        lexicons = self.determiners, self.adjectives, self.prepositions, _CONJUNCTIONS
        flags_of = self._flags
        for flag, words in zip((_DET, _ADJ, _PREP, _CONJ), lexicons):
            for word in words:
                flags_of[word] = flags_of.get(word, 0) | flag
        try:
            order = list(TopologicalSorter(self.hypernyms).static_order())
        except CycleError as exc:
            # graphlib lists the cycle general -> specific; report it the other way.
            raise LexiconCycleError(" -> ".join(reversed(exc.args[1]))) from None
        # Generals come first, so a word's generals are classed before it: it
        # keeps its flags along its whole chain when each general is a chain
        # word with the same flags, and its chain joins theirs.
        chains, steps = self._chains, self._steps
        for word in order:
            generals = self.hypernyms.get(word, ())
            flags = flags_of.get(word, 0)
            if all(g in chains and flags_of.get(g, 0) == flags for g in generals):
                chains[word] = (word, *{w: None for g in generals for w in chains[g]})
            else:
                steps[word] = generals

    @classmethod
    def default(cls) -> "ReductionRuleSet":
        return cls(
            determiners=frozenset(_read_word_list(_DATA_DIR / "determiners.txt").values()),
            adjectives=frozenset(_read_word_list(_DATA_DIR / "adjectives.txt").values()),
            prepositions=frozenset(_read_word_list(_DATA_DIR / "prepositions.txt").values()),
            hypernyms=_load_hypernyms(_DATA_DIR / "hypernyms.txt"),
        )

    def single_step(self, phrase: Phrase) -> set[Phrase]:
        """All phrases reachable by one rule application.

        Every result is strictly shorter than `phrase` or an equal-length
        hypernym substitution, so repeated application terminates.
        """
        return self._step(phrase, self.hypernyms)

    def _step(self, phrase: Phrase, hypernyms: Mapping[str, tuple[str, ...]]) -> set[Phrase]:
        """One rule application, with substitutions from `hypernyms` only.

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
            generals = hypernyms.get(tok)
            if generals:
                head, tail = phrase[:i], phrase[i + 1:]
                for general in generals:
                    out.add(head + (general,) + tail)
        if chunk_content and chunk_end < n:
            out.add(phrase[:chunk_end])
        return out


def apply_reductions(caption: Sentence, rules: ReductionRuleSet) -> set[Phrase]:
    """Closure of the lemmatized caption under the reduction rules.

    Walks the skeleton closure, under every rule step but the substitutions
    of `rules._chains` words, then expands each skeleton phrase by the
    product of its tokens' chains (a token with no chain stands for itself).
    This is the whole closure, because a substitution is legal at any
    position: one that keeps flags changes no closed-class flag and no
    length, every other rule reads only flags, positions and length, and no
    other substitution can replace a word of a flag-keeping chain; so in any
    derivation those substitutions can move to the end. A substitution that
    hung on context would break this, and its word would have to stay a
    skeleton step.
    """
    start = tuple(caption.lemmas)
    skeleton = _reachable(start, lambda phrase: rules._step(phrase, rules._steps))
    skeleton.add(start)
    chains = rules._chains
    closure: set[Phrase] = set()
    for phrase in skeleton:
        closure.update(product(*[chains.get(tok, (tok,)) for tok in phrase]))
    return closure


def _reduced_closure(
    start: Phrase, rules: ReductionRuleSet
) -> tuple[list[Phrase], list[list[int]]]:
    """The closure of start in finishing order, each phrase after its
    single-step successors (start last), and the indexes of the parents its
    transitive reduction keeps, each below its own.

    One depth-first walk on an explicit stack expands each phrase once and
    looks each successor up once: a finished one gives its index at once, a
    new one is pushed and, when it finishes, appends its index to the frame
    that pushed it. A finished phrase's ancestor bitset is the OR of its
    successors'; it keeps each successor whose bit that OR lacks. A phrase met
    again is finished, since one still on the stack would close a cycle.
    """
    index: dict[Phrase, int] = {}  # finished phrases, in finishing order
    ancestors: list[int] = []  # bitsets over finishing indexes
    kept_parents: list[list[int]] = []
    # (phrase, its successors not yet looked up, indexes of those finished)
    stack: list[tuple[Phrase, Iterator[Phrase], list[int]]] = [
        (start, iter(rules.single_step(start)), [])
    ]
    while stack:
        phrase, pending, direct = stack[-1]
        for nxt in pending:
            p = index.get(nxt)
            if p is None:
                stack.append((nxt, iter(rules.single_step(nxt)), []))
                break
            direct.append(p)
        else:
            stack.pop()
            implied = 0
            for p in direct:
                implied |= ancestors[p]
            kept = [p for p in direct if not implied >> p & 1]
            for p in kept:
                implied |= 1 << p
            done = index[phrase] = len(ancestors)
            ancestors.append(implied)
            kept_parents.append(kept)
            if stack:
                stack[-1][2].append(done)
    return list(index), kept_parents


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

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(p, child) for p, kids in enumerate(self._children()) for child in kids]

    def _children(self) -> list[list[int]]:
        """Each node's children, ascending, filled child by child: no edge sort."""
        children: list[list[int]] = [[] for _ in self.nodes]
        for child in range(len(self.nodes)):
            for p in self._parents.get(child, ()):
                children[p].append(child)
        return children

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._parents.values()))

    def parents(self, node_id: int) -> tuple[int, ...]:
        return self._parents.get(node_id, ())

    @cached_property
    def _phrase_ids(self) -> dict[Phrase, int]:
        return {row[0]: nid for nid, row in enumerate(self.nodes)}

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
        """Write the header, node rows, edges by parent then child, and
        captions by text. Each node id is formatted once; a parent's edge
        lines are one join over its children's ids."""
        index = self.caption_index
        ids = list(map(str, range(len(self.nodes))))
        lines = [f"{GRAPH_FORMAT}\t{GRAPH_VERSION}\n"]
        lines += [
            f"node\t{nid}\t{' '.join(phrase)}\t{','.join(support)}\t{count}\n"
            for nid, (phrase, support, count) in zip(ids, self.nodes)
        ]
        for p, kids in enumerate(self._children()):
            if kids:
                head = f"edge\t{ids[p]}\t"
                lines.append(head + f"\n{head}".join([ids[c] for c in kids]) + "\n")
        lines += [f"caption\t{index[raw]}\t{raw}\n" for raw in sorted(index)]
        text = "".join(lines)
        del lines  # freed before _atomic_write encodes
        _atomic_write(path, text)

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


def build_graph(
    captions: Iterable[tuple[str, Sentence]],
    rules: ReductionRuleSet | None = None,
) -> PhraseGraph:
    """Union of reduction closures over (scene_group_id, caption) pairs.

    A node's support is the set of scene group ids whose captions reach it;
    caption_count is the number of captions (not groups) that reach it.
    Parents are the ones `_reduced_closure` keeps while walking each
    caption's closure: no pass of its own, no sort of the closure.

    Each closure phrase is hashed once per caption, into the id it was first
    seen under; supports, counts and kept parents are lists by that id, and
    a phrase's kept parents are taken the first time it is seen, since its
    reduction is the same in every closure that holds it. The phrase table is
    freed before one sort of the phrases orders the node ids, and parents and
    the caption index are remapped onto them by list indexing.
    """
    rules = rules if rules is not None else ReductionRuleSet.default()
    captions = list(captions)
    if not captions:
        raise ValueError("build_graph needs at least one caption")
    first_seen: dict[Phrase, int] = {}  # phrase -> first-seen id
    # These three by first-seen id; a support is one gid until a second,
    # different group reaches the phrase, then a set.
    supports: list[str | set[str]] = []
    caption_counts: list[int] = []
    kept_parents: list[list[int]] = []
    caption_starts: dict[str, int] = {}  # raw caption -> first-seen id

    for gid, sentence in captions:
        closure, kept = _reduced_closure(tuple(sentence.lemmas), rules)  # this caption only
        seen = len(supports)
        # A new phrase takes the next id, so ids rise in closure order past seen.
        ids = [first_seen.setdefault(phrase, len(first_seen)) for phrase in closure]
        for pid, kept_here in zip(ids, kept):
            if pid < seen:
                support = supports[pid]
                if isinstance(support, set):
                    support.add(gid)
                elif support != gid:
                    supports[pid] = {support, gid}
                caption_counts[pid] += 1
            else:
                supports.append(gid)
                caption_counts.append(1)
                kept_parents.append([ids[p] for p in kept_here])
        caption_starts[sentence.raw] = ids[-1]

    phrases = list(first_seen)
    del first_seen
    order = sorted(range(len(phrases)), key=phrases.__getitem__)  # node id -> first-seen id
    node_id = [0] * len(order)
    for nid, pid in enumerate(order):
        node_id[pid] = nid
    nodes = [
        (phrases[pid], tuple(sorted(s)) if isinstance(s := supports[pid], set) else (s,),
         caption_counts[pid])
        for pid in order
    ]
    del phrases, supports, caption_counts, order
    parents = {
        node_id[pid]: tuple(sorted([node_id[p] for p in kept]))
        for pid, kept in enumerate(kept_parents)
        if kept
    }
    caption_index = {raw: node_id[pid] for raw, pid in caption_starts.items()}
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
