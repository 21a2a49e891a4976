"""Deterministic text normalization and the word-overlap gate.

Tokenization, rule-based lemmatization, and word overlap are pinned artifacts
of this package: every consumer (graph construction, dataset generation,
statistics) goes through `normalize` so that the same raw string always maps
to the same Sentence. The word lists in `data/` are read once, when the
module is imported; `tests/test_text.py` checks them: one token per entry,
none listed twice, and every word of the rules' lexicons already a lemma.
"""

from __future__ import annotations

import os
import re
import stat
import tempfile
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Iterator, Sequence

_DATA_DIR = Path(__file__).parent / "data"

_APOSTROPHES = re.compile(r"[’']s\b")
_WORD = re.compile(r"[a-z0-9]+")

_VOWELS = frozenset("aeiouy")
# Consonants eligible for undoubling after -ing/-ed stripping. ll/ss/zz/ff
# stay doubled (falling -> fall, passing -> pass).
_UNDOUBLE = frozenset("bdgkmnprt")
# Stem endings that take a restored "e" regardless of syllable count
# (danc -> dance, argu -> argue, lov -> love).
_ALWAYS_E = frozenset("cuv")
# consonant+l endings that take a restored "e" (juggl -> juggle) but not
# r/w/l before the l (curl, crawl, fall stay bare).
_CL_BEFORE = frozenset("bcdfgkpstz")

OVERLAP_MODES = ("full", "lemma")


class EmptySentenceError(ValueError):
    """Raised when a raw string contains no alphanumeric token."""


class OverlapUndefinedError(ValueError):
    """Raised when a hypothesis has no content tokens to count."""


def _atomic_write(path: str | Path, content: str) -> None:
    """Replace path with content as UTF-8, through `_atomic_write_bytes`."""
    _atomic_write_bytes(path, content.encode("utf-8"))


def _atomic_write_bytes(path: str | Path, data: bytes | bytearray) -> None:
    """Replace path with data in one step; a failed write leaves the old
    file and no temp file behind. The file gets the mode a plain
    `open(path, "w")` would leave: the old file's, or 0o666 less the umask."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        try:
            mode = stat.S_IMODE(path.stat().st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.fchmod(fd, mode)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 file and its number, from 1, without its line
    end; LF, CRLF and a lone CR each end a line. A byte that is not UTF-8
    raises ValueError naming `path:lineno`.

    The file is read as a stream. On a decode error its bytes are scanned
    once more to place the bad byte: CR and LF never occur inside a
    multi-byte UTF-8 sequence, so its line is one more than the line ends
    before it.
    """
    try:
        with open(path, encoding="utf-8", newline=None) as fh:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(
                f"{path}:{lineno}: byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
            ) from None
        raise


def _quote(field: object) -> str:
    """`repr(field)`; a string past 80 characters as the repr of its first 80
    and its length, and any other value as its repr so cut, so one long input
    field cannot make as long an error message."""
    if not isinstance(field, str):
        shown = repr(field)
        return shown if len(shown) <= 80 else _quote(shown)
    if len(field) <= 80:
        return repr(field)
    return f"{field[:80]!r}... ({len(field)} characters)"


def _quote_list(fields: Sequence[object]) -> str:
    """The list's repr with each field `_quote`d; past 5 fields, the first 5
    and how many more."""
    shown = "[" + ", ".join(map(_quote, fields[:5])) + "]"
    return shown if len(fields) <= 5 else f"{shown} and {len(fields) - 5} more"


def _read_word_list(path: Path) -> dict[int, str]:
    """Each non-blank, non-comment line, stripped, by its line number."""
    words = {}
    for lineno, line in _lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            words[lineno] = line
    return words


def _read_pairs(path: Path, what: str) -> list[tuple[str, str]]:
    """The `a<TAB>b` entries of a word list, in file order; any other entry
    raises ValueError naming `path:lineno` as a bad `what`."""
    pairs = []
    for lineno, line in _read_word_list(path).items():
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: bad {what}: {_quote(line)}")
        pairs.append((parts[0], parts[1]))
    return pairs


# Function words removed before overlap counting.
STOPWORDS = frozenset(_read_word_list(_DATA_DIR / "stopwords.txt").values())
# Irregular and protected forms, consulted before every rule pass.
_LEMMA_EXCEPTIONS = dict(
    _read_pairs(_DATA_DIR / "lemma_exceptions.txt", "exception entry (want form<TAB>lemma)")
)


def _has_vowel(s: str) -> bool:
    return any(c in _VOWELS for c in s)


def _vowel_groups(s: str) -> int:
    groups = 0
    prev_vowel = False
    for c in s:
        is_vowel = c in _VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    return groups


def _cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    a, b, c = stem[-3], stem[-2], stem[-1]
    return a not in _VOWELS and b in _VOWELS and c not in _VOWELS and c not in "wxy"


def _repair_stem(stem: str) -> str:
    """Undouble or restore a final "e" after stripping -ing/-ed."""
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] in _UNDOUBLE:
        return stem[:-1]
    if stem[-1] in _ALWAYS_E:
        return stem + "e"
    if len(stem) >= 3 and stem[-1] == "l" and stem[-2] in _CL_BEFORE:
        return stem + "e"
    if _cvc(stem) and _vowel_groups(stem) == 1:
        return stem + "e"
    return stem


@cache
def _lemma(token: str) -> str:
    """The token's lemma: ordered suffix rules applied to a fixpoint.

    The exception table is consulted before every pass, so protected forms
    (identity entries) stop the rules cold. Each rewriting pass strictly
    shortens the token, so iteration terminates.
    """
    word = token
    while True:
        if word in _LEMMA_EXCEPTIONS:
            return _LEMMA_EXCEPTIONS[word]
        nxt = _rule_pass(word)
        if nxt == word:
            return nxt
        word = nxt


def _rule_pass(w: str) -> str:
    n = len(w)
    # plural / third-person -s
    if n >= 5 and w.endswith("sses"):
        return w[:-2]
    if n >= 5 and (w.endswith("shes") or w.endswith("ches")):
        return w[:-2]
    if n >= 5 and w.endswith("zzes"):
        return w[:-2]
    if n >= 4 and w.endswith("xes"):
        return w[:-2]
    if n >= 4 and w.endswith("zes"):
        return w[:-1]
    if n >= 5 and w.endswith("ies"):
        return w[:-3] + "y"
    if n >= 6 and w.endswith("oes"):
        return w[:-2]
    if n >= 5 and w.endswith("ses"):
        return w[:-1]
    if n >= 4 and w.endswith("s") and not w.endswith(("ss", "us", "is")):
        return w[:-1]
    # present participle
    if n >= 6 and w.endswith("ing"):
        stem = w[:-3]
        if _has_vowel(stem):
            return _repair_stem(stem)
    # past tense
    if n >= 5 and w.endswith("ied"):
        return w[:-3] + "y"
    if n >= 5 and w.endswith("ed") and not w.endswith("eed"):
        stem = w[:-2]
        if _has_vowel(stem):
            return _repair_stem(stem)
    return w


@dataclass(frozen=True)
class Sentence:
    """Normalized view of one raw caption or hypothesis string; `normalize`
    builds it, with at least one token and one lemma per token."""

    raw: str
    tokens: tuple[str, ...]
    lemmas: tuple[str, ...]


def tokenize(raw: str) -> tuple[str, ...]:
    """Lowercase, strip possessive 's, split on non-alphanumerics."""
    lowered = raw.lower()
    lowered = _APOSTROPHES.sub("", lowered)
    return tuple(_WORD.findall(lowered))


def normalize(raw: str) -> Sentence:
    """Tokenize and lemmatize one raw string."""
    tokens = tokenize(raw)
    if not tokens:
        raise EmptySentenceError(f"no alphanumeric content in {_quote(raw)}")
    return Sentence(raw, tokens, tuple(_lemma(t) for t in tokens))


def word_overlap(
    hypothesis: Sentence,
    premises: Sequence[Sentence],
    mode: str = "full",
) -> float:
    """Fraction of hypothesis content token types found in any premise.

    The content tokens are the hypothesis's token types less `STOPWORDS`.
    Set semantics over them in both modes; `lemma` mode tests membership of
    each content token's lemma in the premise lemma union, so the result is
    monotonically >= the `full` mode value.
    """
    if mode not in OVERLAP_MODES:
        raise ValueError(f"mode must be one of {OVERLAP_MODES}, got {mode!r}")
    if not premises:
        raise ValueError("need at least one premise")
    content = set(hypothesis.tokens) - STOPWORDS
    if not content:
        raise OverlapUndefinedError(
            f"hypothesis has no content tokens: {_quote(hypothesis.raw)}"
        )
    if mode == "full":
        union: set[str] = set()
        for p in premises:
            union.update(p.tokens)
        matched = sum(1 for t in content if t in union)
    else:
        union = set()
        for p in premises:
            union.update(p.lemmas)
        lemma_of = dict(zip(hypothesis.tokens, hypothesis.lemmas))
        matched = sum(1 for t in content if lemma_of[t] in union)
    return matched / len(content)
