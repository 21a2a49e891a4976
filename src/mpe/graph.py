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
takes the hypernym table whose substitutions it makes, and returns each
result with the span of the phrase it keeps. Both stages walk a caption's
skeleton, every step but the substitutions that keep closed-class flags (the
chain steps), and take the product of each skeleton phrase's hypernym
chains; the expansion is exact because chain steps commute with every other
rule. One stack walk, `_reachable`, follows skeleton steps from a caption
(`apply_reductions`) and stored parent edges from a node
(`PhraseGraph.ancestors`).

Only the transitive reduction of the single-step DAG is stored. A phrase's
ancestors all lie in the closure of any caption that reaches it, and phrases
seldom recur across captions, so `build_graph` reduces each caption's closure
on its own (`_reduced_closure`), and of it only the skeleton: a depth-first
walk that finishes each skeleton phrase after its successors keeps ancestor
bitsets over finishing indexes. Each skeleton phrase's chain product is then
one mixed-radix block of closure indexes, a digit per token, generals first,
so the block ends with the skeleton phrase and the caption's block ends the
closure. Kept edges are integer arithmetic on blocks: a chain step to each
direct general, and each kept skeleton edge lifted to the same choices unless
a token it removes can still take a chain step. This is exact when no phrase
has two origins, so a word reached from two positions of the caption, or
along two hypernym edges from one (`man ... man`, `adult ... girl`, a
lexicon shortcut), and every word whose chain holds it, are walked as
skeleton steps instead (`_walked_words`).

Ids flow as ints from the walk to the file. `build_graph` hashes each
closure phrase once per caption into a first-seen id, keeps supports and
caption counts in lists by that id, and maps each caption's kept edges onto
those ids as arrays, keeping the edges of phrases new to the caption; one
sort of the phrases gives node ids, and one lexsort of the remapped edges
groups each node's parents. A support is one group id until a second group
reaches the phrase. `save` formats each node id once and writes a parent's
edge lines with one join over its child list, so it sorts no edge list.
`graphlib` checks for cycles (hypernym lexicon, graph files), reported
specific -> general and child -> parent, and orders the lexicon generals
first.

The rules are shallow chunk patterns over closed-class lexicons, not a
parser; nodes are phrases in lemma space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

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


Span = tuple[int, int, int, int]  # (lo, a, b, hi): see ReductionRuleSet._step


@dataclass(frozen=True)
class ReductionRuleSet:
    """Closed-class lexicons driving the reduction rules.

    Built with one pass over the hypernym lexicon in graphlib's topological
    order, generals first, which refuses a cycle and splits the lexicon's
    words in two. A word whose generals are all chain words with its own
    closed-class flags is a chain word, and so is a word with no general;
    its substitutions commute with every other rule (see `apply_reductions`).
    Every other word keeps its generals as rule steps in `_steps`.

    A chain word's chain is itself and every general it reaches. `_chain`
    builds it, and its table of general digits, the first time a walk meets
    the word, with an explicit stack, so the rule set grows with the words
    its walks meet and never holds a deep lexicon's chains all at once.
    """

    determiners: frozenset[str]
    adjectives: frozenset[str]
    prepositions: frozenset[str]
    hypernyms: Mapping[str, tuple[str, ...]]
    # Closed-class flags of every lexicon word (and conjunction); any other
    # token is content, with no flag. `_flags` and `_steps` are filled once
    # in __post_init__, `_chains` by `_chain`.
    _flags: dict[str, int] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )
    _chains: dict[str, tuple[Phrase, tuple[tuple[int, ...], ...]]] = field(
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
        # Generals come first, so a word's generals are classed before it.
        steps = self._steps
        for word in order:
            generals = self.hypernyms.get(word, ())
            flags = flags_of.get(word, 0)
            if not all(g not in steps and flags_of.get(g, 0) == flags for g in generals):
                steps[word] = generals

    @classmethod
    def default(cls) -> "ReductionRuleSet":
        return cls(
            determiners=frozenset(_read_word_list(_DATA_DIR / "determiners.txt").values()),
            adjectives=frozenset(_read_word_list(_DATA_DIR / "adjectives.txt").values()),
            prepositions=frozenset(_read_word_list(_DATA_DIR / "prepositions.txt").values()),
            hypernyms=_load_hypernyms(_DATA_DIR / "hypernyms.txt"),
        )

    def _chain(self, word: str) -> tuple[Phrase, tuple[tuple[int, ...], ...]]:
        """word's chain, generals first and word last, and each chain word's
        generals as their digits (positions) in it; `(word,)` alone for a word
        with no general or with rule steps.

        The chain is the depth-first finishing order of the walk from word, so
        each word comes after its generals. It is kept for later calls, so the
        table holds only the words walks have met.
        """
        table = self._chains.get(word)
        if table is not None:
            return table
        hypernyms = self.hypernyms
        if word in self._steps or word not in hypernyms:
            table = self._chains[word] = (word,), ((),)
            return table
        chain: list[str] = []
        seen = {word}
        stack = [(word, iter(hypernyms[word]))]
        while stack:
            current, generals = stack[-1]
            for general in generals:
                if general not in seen:
                    seen.add(general)
                    stack.append((general, iter(hypernyms.get(general, ()))))
                    break
            else:
                stack.pop()
                chain.append(current)
        digit = {w: d for d, w in enumerate(chain)}
        gens = tuple(tuple(digit[g] for g in hypernyms.get(w, ())) for w in chain)
        table = self._chains[word] = (tuple(chain), gens)
        return table

    def _step(self, phrase: Phrase, hypernyms: Mapping[str, tuple[str, ...]]) -> dict[Phrase, Span]:
        """One rule application, with substitutions from `hypernyms` only:
        each result phrase with the span of phrase it keeps.

        A span `(lo, a, b, hi)` says the result is `phrase[lo:a]`, then the
        general of a substitution if the result is one longer, then
        `phrase[b:hi]`. Two applications with one result keep the last span.

        One right-to-left pass; at token i the state describes phrase[i + 1:].
        A token is content when it has no closed-class flag. An adjective is
        dropped when the first non-adjective after its run is content; a
        prepositional phrase spans its determiner/adjective run and at most
        one content word after it; noun chunks are the runs between
        prepositions and conjunctions that hold a content word. Every result
        is shorter than phrase or an equal-length substitution, so repeated
        steps end.
        """
        out: dict[Phrase, Span] = {}
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
                    out[phrase[:i] + phrase[i + 1:]] = (0, i, i + 1, n)
                if flags & _PREP and pp_end - i < n:
                    out[phrase[:i] + phrase[pp_end:]] = (0, i, pp_end, n)
                if flags & (_PREP | _CONJ):
                    if chunk_content:
                        out[phrase[i + 1:chunk_end]] = (i + 1, chunk_end, n, n)
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
                    out[head + (general,) + tail] = (0, i, i + 1, n)
        if chunk_content and chunk_end < n:
            out[phrase[:chunk_end]] = (0, chunk_end, n, n)
        return out


def apply_reductions(caption: Sentence, rules: ReductionRuleSet) -> set[Phrase]:
    """Closure of the lemmatized caption under the reduction rules.

    Walks the skeleton closure, under every rule step but the substitutions
    of chain words, then expands each skeleton phrase by the product of its
    tokens' chains (`ReductionRuleSet._chain`). This is the whole closure,
    because a substitution is legal at any position: one that keeps flags
    changes no closed-class flag and no length, every other rule reads only
    flags, positions and length, and no other substitution can replace a word
    of a flag-keeping chain; so in any derivation those substitutions can move
    to the end. A substitution that hung on context would break this, and its
    word would have to stay a skeleton step.
    """
    start = tuple(caption.lemmas)
    skeleton = _reachable(start, lambda phrase: rules._step(phrase, rules._steps))
    skeleton.add(start)
    known = rules._chains
    closure: set[Phrase] = set()
    for phrase in skeleton:
        closure.update(product(*[(known.get(tok) or rules._chain(tok))[0] for tok in phrase]))
    return closure


def _walked_words(
    start: Phrase, hypernyms: Mapping[str, tuple[str, ...]]
) -> dict[str, tuple[str, ...]]:
    """The words of start's hypernym reach that `_reduced_closure` walks as
    skeleton steps, with their generals: each word whose reach, itself
    included, holds a word reached from two positions of start, or along two
    hypernym edges from one.

    One explicit-stack walk from every position counts how often each word is
    reached (a repeated token, and each edge from a word already expanded,
    counts again), and lists the words generals first.
    """
    reached: dict[str, int] = {}
    order: list[str] = []  # generals before the words that reach them
    for tok in start:
        if tok in reached:
            reached[tok] += 1
            continue
        reached[tok] = 1
        stack = [(tok, iter(hypernyms.get(tok, ())))]
        while stack:
            word, generals = stack[-1]
            for general in generals:
                if general in reached:
                    reached[general] += 1
                else:
                    reached[general] = 1
                    stack.append((general, iter(hypernyms.get(general, ()))))
                    break
            else:
                stack.pop()
                order.append(word)
    # A word reached twice passes it on to its generals ...
    shared = {word for word in order if reached[word] > 1}
    stack = list(shared)
    while stack:
        for general in hypernyms.get(stack.pop(), ()):
            if general not in shared:
                shared.add(general)
                stack.append(general)
    # ... and every word that reaches one is walked.
    walked: dict[str, tuple[str, ...]] = {}
    for word in order:
        generals = hypernyms.get(word, ())
        if word in shared or any(g in walked for g in generals):
            walked[word] = generals
    return walked


def _reduced_closure(
    start: Phrase, rules: ReductionRuleSet
) -> tuple[list[Phrase], list[int], list[int]]:
    """The closure of start, each phrase after its single-step successors
    (start last), and the edges its transitive reduction keeps, as (child,
    parent) closure indexes in two lists, each parent below its child.

    Only the skeleton is reduced, by a depth-first walk on an explicit stack
    that steps each phrase once with `_steps` and `_walked_words` and looks
    each successor up once. A finished phrase's ancestor bitset, over
    finishing indexes, is the OR of its successors'; it keeps each successor
    whose bit that OR lacks, with the span of the step. A phrase met again is
    finished, since one still on the stack would close a cycle.

    Each skeleton phrase s, in finishing order, then lays out its chain
    product as one mixed-radix block of closure indexes. A token's digit is
    its choice's place in its chain, generals first, so the block's last index
    is s itself and every chain step goes down. No chain word is reached twice
    (`_walked_words`), so no closure phrase has two origins, and s's kept
    edges are:
    - a chain step to each direct general (no chain holds a shortcut);
    - each kept skeleton edge s -> s', lifted to the same choices on the
      tokens its span keeps, unless a token it removes can still take a chain
      step: the path through that chain step makes the direct edge redundant.
    """
    walked = _walked_words(start, rules.hypernyms)
    steps = {**rules._steps, **walked} if walked else rules._steps
    index: dict[Phrase, int] = {}  # skeleton phrases, in finishing order
    ancestors: list[int] = []  # bitsets over finishing indexes
    kept_steps: list[list[tuple[int, Span]]] = []
    # (phrase, its successors and spans not yet looked up, (index, span) of
    # those finished, the span of the step that pushed it)
    stack: list[
        tuple[Phrase, Iterator[tuple[Phrase, Span]], list[tuple[int, Span]], Span | None]
    ] = [(start, iter(rules._step(start, steps).items()), [], None)]
    while stack:
        phrase, pending, direct, pushed_by = stack[-1]
        for nxt, span in pending:
            p = index.get(nxt)
            if p is None:
                stack.append((nxt, iter(rules._step(nxt, steps).items()), [], span))
                break
            direct.append((p, span))
        else:
            stack.pop()
            implied = 0
            for p, _ in direct:
                implied |= ancestors[p]
            kept = [(p, span) for p, span in direct if not implied >> p & 1]
            for p, _ in kept:
                implied |= 1 << p
            done = index[phrase] = len(ancestors)
            ancestors.append(implied)
            kept_steps.append(kept)
            if stack:
                stack[-1][2].append((done, pushed_by))
    del ancestors
    skeleton = list(index)
    chain_of = {
        tok: (tok,) if tok in walked else rules._chain(tok)[0] for tok in set().union(*skeleton)
    }
    choosy = {tok for tok, chain in chain_of.items() if len(chain) > 1}
    # Each skeleton phrase's block: its first closure index and its tokens
    # with more than one choice, which key its layout.
    layouts: dict[tuple[str, ...], tuple] = {}
    closure: list[Phrase] = []
    bases: list[int] = []
    keys: list[tuple[str, ...]] = []
    for phrase in skeleton:
        bases.append(len(closure))
        closure.extend(product(*map(chain_of.__getitem__, phrase)))
        key = tuple(filter(choosy.__contains__, phrase))
        keys.append(key)
        if key not in layouts:
            layouts[key] = _layout(tuple([rules._chain(tok)[1] for tok in key]))
    bases.append(len(closure))
    grids: dict[tuple[tuple[str, ...], tuple[int, ...]], list[int]] = {}
    children: list[int] = []
    parents: list[int] = []
    for k, (phrase, key, kept) in enumerate(zip(skeleton, keys, kept_steps)):
        base, end = bases[k], bases[k + 1]
        values, tops, moved_from, moved_to = layouts[key]
        if moved_from:
            children.extend(map(base.__add__, moved_from))
            parents.extend(map(base.__add__, moved_to))
        # A kept skeleton step keeps the digits of the tokens its span keeps,
        # in order, so its parents run through the target's block in order.
        for p, (lo, a, b, hi) in kept:
            target = range(bases[p], bases[p + 1])
            there = skeleton[p]
            if len(keys[p]) < len(key):
                # It removes a token with choices, which must be at a top
                # digit. Children list the removed tokens' digits first, so the
                # parents repeat once per choice of tops.
                at = [j for j, tok in enumerate(phrase) if tok in choosy]
                out = tuple([i for i, j in enumerate(at) if not (lo <= j < a or b <= j < hi)])
                grid = grids.get((key, out))
                if grid is None:
                    grid = grids[key, out] = list(map(sum, product(
                        *[tops[i] for i in out], *[v for i, v in enumerate(values) if i not in out]
                    )))
                children.extend(map(base.__add__, grid))
                for _ in range(len(grid) // len(target)):
                    parents.extend(target)
                continue
            if len(there) > a - lo + hi - b and there[a] in choosy:
                # A substitution's general is itself, its last digit.
                pin = sum(map(choosy.__contains__, there[:a]))
                digits = [v[-1:] if i == pin else v for i, v in enumerate(layouts[keys[p]][0])]
                target = list(map(sum, product((bases[p],), *digits)))
            children.extend(range(base, end))
            parents.extend(target)
    return closure, children, parents


@cache
def _layout(gens: tuple[tuple[tuple[int, ...], ...], ...]) -> tuple:
    """Mixed-radix layout of a block whose tokens with choices have these
    general digits, in order: each token's digit values (digit times stride,
    the last token's stride 1) and top digits' values (a top chain word has no
    general), and the block's chain steps as (child, parent) offsets. Cached:
    it depends only on the chains' shapes, which are few."""
    values: list[tuple[int, ...]] = []
    tops: list[tuple[int, ...]] = []
    size = 1
    for generals in reversed(gens):
        values.append(tuple(range(0, len(generals) * size, size)))
        tops.append(tuple([d * size for d, up in enumerate(generals) if not up]))
        size *= len(generals)
    values.reverse()
    tops.reverse()
    moved_from: list[int] = []
    moved_to: list[int] = []
    for i, generals in enumerate(gens):
        stride = values[i][1]
        for d, up in enumerate(generals):
            if up:
                at = list(map(sum, product(*values[:i], (d * stride,), *values[i + 1:])))
                for g in up:
                    moved_from += at
                    moved_to += map(((g - d) * stride).__add__, at)
    return tuple(values), tuple(tops), tuple(moved_from), tuple(moved_to)


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
    Parents are the ones `_reduced_closure` keeps for each caption's closure:
    no pass of its own, no sort of the closure.

    Each closure phrase is hashed once per caption, into the id it was first
    seen under; supports and counts are lists by that id. A caption's kept
    edges are mapped onto ids as arrays and kept for its new phrases only,
    since a phrase's reduction is the same in every closure that holds it.
    The phrase table is freed before one sort of the phrases orders the node
    ids; the edges are remapped onto them and grouped by child with one
    lexsort, each child's parents ascending.
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
    # Kept edges of each caption's new phrases, as (child, parent) id arrays.
    edge_children: list[np.ndarray] = []
    edge_parents: list[np.ndarray] = []
    caption_starts: dict[str, int] = {}  # raw caption -> first-seen id

    for gid, sentence in captions:
        closure, children, parents = _reduced_closure(tuple(sentence.lemmas), rules)
        seen = len(supports)
        # A new phrase takes the next id, so ids rise in closure order past seen.
        ids = [first_seen.setdefault(phrase, len(first_seen)) for phrase in closure]
        for pid in ids:
            if pid < seen:
                support = supports[pid]
                if isinstance(support, set):
                    support.add(gid)
                elif support != gid:
                    supports[pid] = {support, gid}
                caption_counts[pid] += 1
        fresh = len(first_seen) - seen
        supports += [gid] * fresh
        caption_counts += [1] * fresh
        ids_of = np.array(ids)
        child_ids = ids_of[children]
        new = child_ids >= seen
        edge_children.append(child_ids[new])
        edge_parents.append(ids_of[parents][new])
        caption_starts[sentence.raw] = ids[-1]

    phrases = list(first_seen)
    del first_seen
    order = sorted(range(len(phrases)), key=phrases.__getitem__)  # node id -> first-seen id
    node_id = np.empty(len(order), dtype=np.intp)
    node_id[order] = np.arange(len(order))
    nodes = [
        (phrases[pid], tuple(sorted(s)) if isinstance(s := supports[pid], set) else (s,),
         caption_counts[pid])
        for pid in order
    ]
    del phrases, supports, caption_counts, order
    child = node_id[np.concatenate(edge_children)]
    parent = node_id[np.concatenate(edge_parents)]
    by_child = np.lexsort((parent, child))
    child, parent = child[by_child], parent[by_child]
    starts = np.flatnonzero(np.diff(child, prepend=-1)).tolist()
    parent_list = parent.tolist()
    parents = {
        nid: tuple(parent_list[lo:hi])
        for nid, lo, hi in zip(child[starts].tolist(), starts, starts[1:] + [len(parent_list)])
    }
    node_of = node_id.tolist()
    caption_index = {raw: node_of[pid] for raw, pid in caption_starts.items()}
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
