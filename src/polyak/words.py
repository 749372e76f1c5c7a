"""Canonical Gauss words: representation, enumeration, and pattern scans.

A Gauss word is a finite sequence in which every letter occurs exactly
twice.  Words are kept in canonical form (letters renumbered 0, 1, 2, ...
in order of first occurrence), so every isomorphism class has exactly one
representative.  The text form uses uppercase letters, e.g. "ABACBC"; the
empty word is written "-".
"""

from __future__ import annotations

import re
from bisect import insort
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

EMPTY_TEXT = "-"
_A = ord("A")
_ADJACENT_PAIR = re.compile(rb"(.)\1", re.DOTALL)


class GaussWord:
    """An immutable canonical Gauss word.

    Letters are small nonnegative integers stored as bytes.  Two words
    compare equal iff their letter sequences match; ordering is rank-major,
    then lexicographic, which is the order used for generator tables.
    """

    __slots__ = ("_raw",)

    def __init__(self, letters: Iterable[int] = ()):
        raw = bytes(letters)
        _check_double_occurrence(raw)
        if raw != _canonical_bytes(raw):
            raise ValueError("letter sequence is not canonical; use canonicalize()")
        self._raw = raw

    @classmethod
    def _wrap(cls, raw: bytes) -> "GaussWord":
        # Internal: raw must already be canonical double-occurrence bytes.
        w = object.__new__(cls)
        w._raw = raw
        return w

    @classmethod
    def from_text(cls, text: str) -> "GaussWord":
        """Parse the uppercase text form ("-" denotes the empty word)."""
        return cls(_parse_text(text))

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(self._raw)

    @property
    def raw(self) -> bytes:
        return self._raw

    @property
    def rank(self) -> int:
        return len(self._raw) // 2

    def letter_set(self) -> range:
        """Letters occurring in this word (canonical words use 0..rank-1)."""
        return range(len(self._raw) // 2)

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[int]:
        return iter(self._raw)

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussWord) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def _key(self) -> tuple[int, bytes]:
        return (len(self._raw), self._raw)

    def __lt__(self, other: "GaussWord") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "GaussWord") -> bool:
        return self._key() <= other._key()

    def __str__(self) -> str:
        return format_text(self._raw)

    def __repr__(self) -> str:
        return f"GaussWord({str(self)!r})"


class PatternMatch2(NamedTuple):
    """An occurrence of the two-letter pattern xAByBAz (outer=A, inner=B)."""

    outer: int
    inner: int


class PatternMatch3(NamedTuple):
    """An occurrence of the three-letter pattern xAByACzBCt."""

    a: int
    b: int
    c: int


def format_text(letters: Sequence[int]) -> str:
    """Render a letter sequence in the uppercase text form."""
    if not letters:
        return EMPTY_TEXT
    if max(letters) > 25:
        raise ValueError("text form supports letters A..Z (rank <= 26) only")
    return "".join(chr(_A + b) for b in letters)


def _parse_text(text: str) -> bytes:
    if text in (EMPTY_TEXT, ""):
        return b""
    out = bytearray()
    for pos, ch in enumerate(text):
        v = ord(ch) - _A
        if not 0 <= v <= 25:
            raise ValueError(f"invalid letter {ch!r} at position {pos}")
        out.append(v)
    return bytes(out)


def _check_double_occurrence(raw: bytes) -> None:
    """Raise ValueError unless every letter occurs exactly twice.

    The message names a position: the third occurrence of a letter seen
    more than twice, else the lone occurrence of a letter seen once.
    """
    counts: dict[int, int] = {}
    for pos, b in enumerate(raw):
        c = counts.get(b, 0) + 1
        if c > 2:
            raise ValueError(f"letter {_name(b)} occurs a third time at position {pos}")
        counts[b] = c
    if 2 * len(counts) != len(raw):
        for pos, b in enumerate(raw):
            if counts[b] == 1:
                raise ValueError(f"letter {_name(b)} at position {pos} occurs only once")


def _name(letter: int) -> str:
    # Text-form name where one exists (the form words are typed in).
    return chr(_A + letter) if letter <= 25 else str(letter)


def _canonical_bytes(raw) -> bytes:
    """First-occurrence relabeling of a letter sequence (bytes in, bytes out)."""
    relabel: dict[int, int] = {}
    out = bytearray(len(raw))
    k = 0
    for pos, b in enumerate(raw):
        r = relabel.get(b)
        if r is None:
            relabel[b] = r = k
            k += 1
        out[pos] = r
    return bytes(out)


def canonicalize(seq) -> GaussWord:
    """Relabel a letter sequence to the canonical representative of its class.

    Accepts a GaussWord, a text form, or an iterable of letter indices.
    Raises ValueError for sequences where some letter occurs once or more
    than twice.
    """
    if isinstance(seq, GaussWord):
        return seq
    raw = _parse_text(seq) if isinstance(seq, str) else bytes(seq)
    _check_double_occurrence(raw)
    return GaussWord._wrap(_canonical_bytes(raw))


def _iter_canonical_bytes(rank: int) -> Iterator[bytes]:
    """Yield all canonical rank-`rank` words as bytes, in lexicographic order.

    Positions fill left to right; the candidates at a position are the open
    letters (closing one) plus at most one fresh letter, tried in increasing
    order, which makes the output stream lexicographic.
    """
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if rank == 0:
        yield b""
        return
    length = 2 * rank
    word = bytearray(length)
    open_letters: list[int] = []  # sorted
    cands: list[list[int] | None] = [None] * length
    nexti = [0] * length
    fresh = [False] * length
    used = 0
    pos = 0
    while True:
        if pos == length:
            yield bytes(word)
            pos -= 1
        cl = cands[pos]
        if cl is None:
            cl = open_letters.copy()
            if used < rank:
                cl.append(used)
            cands[pos] = cl
            nexti[pos] = 0
        i = nexti[pos]
        if i > 0:
            # Undo the previous placement at this position.  A fresh letter is
            # still the last open one here (deeper levels fully undo themselves).
            if fresh[pos]:
                open_letters.pop()
                used -= 1
            else:
                insort(open_letters, cl[i - 1])
        if i == len(cl):
            cands[pos] = None
            pos -= 1
            if pos < 0:
                return
            continue
        letter = cl[i]
        nexti[pos] = i + 1
        word[pos] = letter
        if letter == used:
            fresh[pos] = True
            used += 1
            open_letters.append(letter)
        else:
            fresh[pos] = False
            open_letters.remove(letter)
        pos += 1


def enumerate_canonical(rank: int) -> list[GaussWord]:
    """All canonical Gauss words of the given rank, lexicographically.

    The count is the double factorial (2*rank - 1)!!.
    """
    return [GaussWord._wrap(raw) for raw in _iter_canonical_bytes(rank)]


def _has_adjacent_double_bytes(raw: bytes) -> bool:
    return _ADJACENT_PAIR.search(raw) is not None


def has_adjacent_double(w: GaussWord) -> bool:
    """True iff some letter's two occurrences are adjacent (the form xAAy)."""
    return _ADJACENT_PAIR.search(w.raw) is not None


def delete_letters(w: GaussWord, letters: Iterable[int]) -> GaussWord:
    """Remove both occurrences of each listed letter, then canonicalize."""
    kill = set(letters)
    if not kill:
        return w
    present = set(w.raw)
    missing = kill - present
    if missing:
        raise ValueError(f"letters {sorted(missing)} do not occur in the word")
    remaining = w.raw.translate(None, delete=bytes(kill))
    return GaussWord._wrap(_canonical_bytes(remaining))


def angle_bracket(u: GaussWord, w: GaussWord) -> int:
    """Number of subwords of w isomorphic to u.

    Counts letter subsets S of w whose induced subword canonicalizes to u.
    Only subsets of exactly rank(u) letters can contribute, so only those
    are scanned.
    """
    k = u.rank
    if k > w.rank:
        return 0
    if k == 0:
        return 1
    target = u.raw
    raw = w.raw
    count = 0
    for subset in combinations(range(w.rank), k):
        chosen = frozenset(subset)
        induced = bytes(b for b in raw if b in chosen)
        if _canonical_bytes(induced) == target:
            count += 1
    return count


def _occurrence_tables(raw: bytes) -> tuple[list[int], list[int]]:
    """first[x], second[x] = the two positions of letter x (canonical input)."""
    r = len(raw) // 2
    first = [-1] * r
    second = [-1] * r
    for pos, b in enumerate(raw):
        if first[b] < 0:
            first[b] = pos
        else:
            second[b] = pos
    return first, second


def _match_h2_bytes(raw: bytes, first: list[int], second: list[int]):
    """Ordered pairs (A, B) with raw = xAByBAz, both pairs contiguous."""
    out = []
    n = len(raw)
    for a in range(len(first)):
        p = first[a] + 1
        if p >= n:
            continue
        b = raw[p]
        if first[b] == p and second[a] == second[b] + 1:
            out.append((a, b))
    return out


def _match_h3_bytes(raw: bytes, first: list[int], second: list[int]):
    """Ordered triples (A, B, C) with raw = xAByACzBCt, all pairs contiguous."""
    out = []
    n = len(raw)
    for a in range(len(first)):
        p = first[a] + 1
        if p >= n:
            continue
        b = raw[p]
        if first[b] != p:
            continue
        q = second[a] + 1
        if q >= n:
            continue
        c = raw[q]
        if first[c] != q:
            continue
        b2 = second[b]
        if b2 > q and second[c] == b2 + 1:
            out.append((a, b, c))
    return out


def match_h2(w: GaussWord) -> list[PatternMatch2]:
    """All pattern occurrences xAByBAz in w, as (outer, inner) letter pairs."""
    first, second = _occurrence_tables(w.raw)
    return [PatternMatch2(*m) for m in _match_h2_bytes(w.raw, first, second)]


def match_h3(w: GaussWord) -> list[PatternMatch3]:
    """All pattern occurrences xAByACzBCt in w, as (a, b, c) letter triples."""
    first, second = _occurrence_tables(w.raw)
    return [PatternMatch3(*m) for m in _match_h3_bytes(w.raw, first, second)]


EMPTY_WORD = GaussWord._wrap(b"")
