"""Generator tables and sparse relation sets for the truncated word algebra.

The degree-n group is presented by the irreducible canonical words of rank
1..n (generators) together with relation vectors harvested from pattern
occurrences in all canonical words of rank up to n+1:

  * each two-letter pattern xAByBAz contributes  [w] + 2[w minus B],
  * each three-letter pattern xAByACzBCt contributes the eight-term vector
    pairing w and its block-reversed partner with their three single-letter
    deletions.

Terms of rank above n, terms with an adjacent equal pair, and empty terms
are dropped; a match whose vector truncates to nothing is not tallied at
all (this is the convention that reproduces the published raw counts).
Vectors are sign-normalized and deduplicated, which makes every artifact
byte-reproducible.

The scan is batched: canonical words are held as uint8 matrices, one row
per word, and every step below is a whole-block array operation.  Three
facts about canonical words (labels 0, 1, ... in order of first
occurrence) keep it free of per-word relabelling:

  1. deleting letter x from a canonical word and decrementing every label
     above x leaves a canonical word;
  2. in every match of either pattern the inner letter B is A+1, because
     B's first occurrence directly follows A's;
  3. the canonical form of the block-reversed word is the swapped word with
     labels A and A+1 exchanged.

Image words are looked up by `np.searchsorted` on packed keys (length in
the high bits, then 3 bits per letter), which sort in generator-table
order, so the index of a hit is the generator id.  Relations are kept as
column-compressed arrays; `RelationVector` objects are made only on demand.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, TextIO

import numpy as np

from .words import GaussWord, _has_adjacent_double_bytes

Progress = Optional[Callable[[str], None]]

# Packed word keys hold up to 16 letters of 3 bits, so labels stay below 8:
# the scan looks up words of rank <= degree only, which bounds the degree.
MAX_DEGREE = 8
_LETTER_BITS = 3
_LENGTH_SHIFT = _LETTER_BITS * 2 * MAX_DEGREE

# About this many words are scanned per block (and per worker task).
_BLOCK_WORDS = 1 << 16


class GeneratorTable:
    """Indexed table of the irreducible canonical words of rank 1..degree.

    Index order is rank-major, then lexicographic, so generator ids are
    stable across runs.
    """

    __slots__ = ("degree", "words", "_index")

    def __init__(self, degree: int, words: list[GaussWord]):
        self.degree = degree
        self.words = tuple(words)
        self._index = {w.raw: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, gen_id: int) -> GaussWord:
        return self.words[gen_id]

    def id_of(self, w: GaussWord) -> int | None:
        return self._index.get(w.raw)

    def __repr__(self) -> str:
        return f"<GeneratorTable degree={self.degree} size={len(self.words)}>"


class RelationVector:
    """A sparse integer vector over generator ids.

    Stored as a tuple of (generator id, coefficient) pairs with ids
    ascending, no zero coefficients, and the lowest-id coefficient positive.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, int]]):
        items = sorted((g, c) for g, c in terms if c)
        if not items:
            raise ValueError("relation vector must have at least one term")
        ids = [g for g, _ in items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate generator id in relation vector")
        if items[0][1] < 0:
            items = [(g, -c) for g, c in items]
        self.terms = tuple(items)

    @classmethod
    def _wrap(cls, terms: tuple[tuple[int, int], ...]) -> "RelationVector":
        # Internal: terms must already be normalized.
        rv = object.__new__(cls)
        rv.terms = terms
        return rv

    def __eq__(self, other) -> bool:
        return isinstance(other, RelationVector) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __lt__(self, other: "RelationVector") -> bool:
        return self.terms < other.terms

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        body = " ".join(f"{g}:{c}" for g, c in self.terms)
        return f"RelationVector({body})"


class RelationList(Sequence):
    """Read-only sequence of relation vectors held as column-compressed arrays.

    Relation j has generator ids ``ids[indptr[j]:indptr[j + 1]]`` (ascending)
    with coefficients ``coefs[...]`` over the same range.  Indexing and
    iteration yield `RelationVector`s; the sequence compares equal to any
    sequence holding the same vectors.
    """

    __slots__ = ("indptr", "ids", "coefs")

    def __init__(self, indptr, ids, coefs):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.coefs = np.asarray(coefs, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("relation index out of range")
        a, b = self.indptr[k], self.indptr[k + 1]
        return RelationVector._wrap(tuple(zip(self.ids[a:b].tolist(), self.coefs[a:b].tolist())))

    def __iter__(self):
        ptr = self.indptr.tolist()
        ids = self.ids.tolist()
        coefs = self.coefs.tolist()
        for a, b in zip(ptr, ptr[1:]):
            yield RelationVector._wrap(tuple(zip(ids[a:b], coefs[a:b])))

    def __eq__(self, other) -> bool:
        if isinstance(other, RelationList):
            return (
                np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.ids, other.ids)
                and np.array_equal(self.coefs, other.coefs)
            )
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<RelationList {len(self)} relations, {len(self.ids)} terms>"


@dataclass
class Presentation:
    """Generators plus the deduplicated union of both relation families."""

    degree: int
    generators: GeneratorTable
    relations: RelationList
    raw_counts: tuple[int, int] | None  # (two-letter, three-letter) matches kept

    def matrix(self):
        """Relation matrix: one row per generator, one column per relation."""
        from .smith import SparseMatrix

        rels = self.relations
        return SparseMatrix.from_csc(len(self.generators), rels.indptr, rels.ids, rels.coefs)


class RelationCounts(NamedTuple):
    """Size summary of a presentation, computable without materializing it."""

    degree: int
    generators: int
    g2_raw: int
    g3_raw: int
    unique: int


def build_generators(n: int) -> GeneratorTable:
    """Table of all irreducible canonical words of rank 1..n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    words = []
    for block in _generator_blocks(n):
        raw = block.tobytes()
        width = block.shape[1]
        words.extend(GaussWord._wrap(raw[i : i + width]) for i in range(0, len(raw), width))
    return GeneratorTable(n, words)


def truncate_term(table: GeneratorTable, w: GaussWord) -> int | None:
    """Generator id of w, or None when the term truncates away.

    A term truncates when its rank exceeds the table degree, when it has an
    adjacent equal pair, or when it is empty.
    """
    if w.rank == 0 or w.rank > table.degree or _has_adjacent_double_bytes(w.raw):
        return None
    gen_id = table.id_of(w)
    if gen_id is None:
        raise RuntimeError(f"irreducible word {w} of rank <= degree missing from table")
    return gen_id


def _check_degree(n: int) -> None:
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} above {MAX_DEGREE} is not supported")


# ---------------------------------------------------------------------------
# Word blocks.  A block is a uint8 matrix of canonical words of one rank,
# one word per row.

def _word_blocks(n: int) -> list[np.ndarray]:
    """Blocks of all canonical words of rank 0..n, one block per rank."""
    _check_degree(n)
    blocks = [np.zeros((1, 0), dtype=np.uint8)]
    for rank in range(1, n + 1):
        blocks.append(_extend(blocks[-1], rank))
    return blocks


def _generator_blocks(n: int) -> list[np.ndarray]:
    """The irreducible words of each rank 1..n, in generator-table order."""
    out = []
    for words in _word_blocks(n)[1:]:
        words = words[(words[:, 1:] != words[:, :-1]).all(axis=1)]
        out.append(words[np.argsort(_word_keys(words))])
    return out


def _insert_start(parents: np.ndarray, rank: int) -> np.ndarray:
    """Per parent, the length of its prefix through its last first occurrence."""
    if rank == 1:
        return np.zeros(len(parents), dtype=np.int64)
    return (parents == rank - 2).argmax(axis=1) + 1


def _child_counts(parents: np.ndarray, rank: int) -> np.ndarray:
    tail = parents.shape[1] - _insert_start(parents, rank) + 1
    return tail * (tail + 1) // 2


def _extend(parents: np.ndarray, rank: int) -> np.ndarray:
    """All canonical rank-`rank` words whose letters below rank-1 form a parent.

    Each child inserts the new letter rank-1 twice, both times after the
    parent's last first occurrence (the first occurrence of rank-2).
    """
    m = parents.shape[1]
    new = rank - 1
    start = _insert_start(parents, rank)
    out = np.empty((int(_child_counts(parents, rank).sum()), m + 2), dtype=np.uint8)
    pos = 0
    for s in np.unique(start).tolist():
        group = parents[start == s]
        for i in range(s, m + 1):
            for j in range(i + 1, m + 2):
                child = out[pos : pos + len(group)]
                child[:, :i] = group[:, :i]
                child[:, i] = new
                child[:, i + 1 : j] = group[:, i : j - 1]
                child[:, j] = new
                child[:, j + 1 :] = group[:, j - 1 :]
                pos += len(group)
    return out


def _word_keys(words: np.ndarray) -> np.ndarray:
    """Packed int64 keys; they order words rank-major, then lexicographically."""
    length = words.shape[1]
    keys = np.full(len(words), length, dtype=np.int64)
    for t in range(length):
        keys <<= _LETTER_BITS
        keys |= words[:, t]
    return keys << (_LENGTH_SHIFT - _LETTER_BITS * length)


def _lookup(gen_keys: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Generator id of each word, or -1 where the word is not a generator."""
    if not len(gen_keys):
        return np.full(len(words), -1, dtype=np.int64)
    keys = _word_keys(words)
    idx = np.searchsorted(gen_keys, keys)
    idx[idx == len(gen_keys)] = 0
    return np.where(gen_keys[idx] == keys, idx, -1)


def _delete(words: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Canonical words with letter letters[k] removed from row k."""
    col = letters[:, None]
    rest = words[words != col].reshape(len(words), words.shape[1] - 2)
    return rest - (rest > col)


def _gen_keys(table: GeneratorTable) -> np.ndarray:
    """Sorted packed keys of the table's words, so key index = generator id."""
    parts = [np.empty(0, dtype=np.int64)]
    for length, group in groupby(table.words, len):
        group = list(group)
        block = np.frombuffer(b"".join(w.raw for w in group), dtype=np.uint8)
        parts.append(_word_keys(block.reshape(len(group), length)))
    keys = np.concatenate(parts)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("generator table is not in rank-major lexicographic order")
    return keys


# ---------------------------------------------------------------------------
# Relation codes.  A term (g, c) is the int64 code ((g + 1) << 4) | (c + 8),
# which orders like the pair (scan coefficients lie in -4..4, and ids stay
# far below 2^27); two terms share an int64 (the earlier in the high half)
# and 0 pads.  A relation is then a row of int64s whose lexicographic order
# is the order of the term tuples.

_COEF_BIAS = 8
_LAST = np.iinfo(np.int64).max
_G3_SIGNS = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int64)


def _term_code(ids: np.ndarray, coef) -> np.ndarray:
    return np.where(ids >= 0, ((ids + 1) << 4) | (coef + _COEF_BIAS), 0)


def _pair_terms(codes: np.ndarray) -> np.ndarray:
    return (codes[:, 0::2] << 32) | codes[:, 1::2]


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order."""
    if rows.shape[1] == 1:
        return np.unique(rows).reshape(-1, 1)
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _relation_list(rows: np.ndarray) -> RelationList:
    codes = np.empty((len(rows), 2 * rows.shape[1]), dtype=np.int64)
    codes[:, 0::2] = rows >> 32
    codes[:, 1::2] = rows & 0xFFFFFFFF
    present = codes != 0
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    codes = codes[present]
    return RelationList(indptr, (codes >> 4) - 1, (codes & 15) - _COEF_BIAS)


# ---------------------------------------------------------------------------
# Relation scan.  This is the hot path: it touches every canonical word of
# rank <= n+1, so each task extends a slice of rank-(R-1) parents to a block
# of about _BLOCK_WORDS rank-R words and scans it with whole-block array
# operations only.

def _scan_block(words, n, gen_keys, want_g2, want_g3):
    """Harvest relations from one block of canonical words of one rank.

    Returns (g2_raw, g3_raw, g2 rows (k x 1), g3 rows (k x 4)).
    """
    count, length = words.shape
    rank = length // 2
    g2 = np.empty((0, 1), dtype=np.int64)
    g3 = np.empty((0, 4), dtype=np.int64)
    if rank < 2 or not count:
        return 0, 0, g2, g3
    # Sorting letter * length + position lists each letter's two positions
    # in order, letter by letter (the sum fits a byte for rank <= 11).
    order = np.sort(words * np.uint8(length) + np.arange(length, dtype=np.uint8), axis=1)
    order = (order % np.uint8(length)).astype(np.int8)
    first, second = order[:, 0::2], order[:, 1::2]
    wid = _lookup(gen_keys, words) if rank <= n else np.full(count, -1)
    # A's first occurrence directly followed by B = A+1's.
    adjacent = first[:, 1:] == first[:, :-1] + 1
    raw2 = raw3 = 0

    if want_g2:
        # xAByBAz: [w] + 2[w minus B]
        k, a = np.nonzero(adjacent & (second[:, :-1] == second[:, 1:] + 1))
        tid = _lookup(gen_keys, _delete(words[k], a + 1))
        t_img = _term_code(tid, 2)
        t_w = _term_code(wid[k], 1)
        # The image has the lower rank, so its term leads when it survives.
        lead = np.where(t_img != 0, t_img, t_w)
        codes = (lead << 32) | np.where(t_img != 0, t_w, 0)
        g2 = codes[lead != 0].reshape(-1, 1)
        raw2 = len(g2)

    if want_g3 and rank >= 3:
        # xAByACzBCt: C's first occurrence directly follows A's second, and
        # C's second directly follows B's.
        q = second[:, :-1] + 1
        k, a = np.nonzero(adjacent & (q < length))
        q = q[k, a]
        c = words[k, q].astype(np.int64)
        b2 = second[k, a + 1]
        hit = (first[k, c] == q) & (b2 > q) & (second[k, c] == b2 + 1)
        k, a, c, q, b2 = k[hit], a[hit], c[hit], q[hit], b2[hit]
        w = words[k]
        b = a + 1
        # The block-reversed word, canonical once labels A and B trade places.
        rows = np.arange(len(k))
        wp = w.copy()
        for i, j in ((first[k, a], first[k, a] + 1), (q - 1, q), (b2, b2 + 1)):
            wp[rows, i] = w[rows, j]
            wp[rows, j] = w[rows, i]
        wa, wb = wp == a[:, None], wp == b[:, None]
        wp[wa] += 1
        wp[wb] -= 1
        ids = np.stack(
            [
                wid[k],
                _lookup(gen_keys, _delete(w, c)),
                _lookup(gen_keys, _delete(w, b)),
                _lookup(gen_keys, _delete(w, a)),
                _lookup(gen_keys, wp) if rank <= n else np.full(len(k), -1),
                _lookup(gen_keys, _delete(wp, c)),
                _lookup(gen_keys, _delete(wp, b)),
                _lookup(gen_keys, _delete(wp, a)),
            ],
            axis=1,
        )
        order = np.argsort(ids, axis=1)
        ids = np.take_along_axis(ids, order, axis=1)
        coef = _G3_SIGNS[order]
        # Fold each run of equal ids into its last entry.
        for j in range(1, ids.shape[1]):
            same = ids[:, j] == ids[:, j - 1]
            coef[same, j] += coef[same, j - 1]
            coef[same, j - 1] = 0
        ids[coef == 0] = -1
        # Pack the surviving terms to the front, in id order.
        codes = _term_code(ids, coef)
        codes = np.sort(np.where(codes == 0, _LAST, codes), axis=1)
        codes[codes == _LAST] = 0
        codes = codes[codes[:, 0] != 0]
        # Sign-normalize: the lowest-id coefficient must be positive.
        flip = (codes[:, :1] & 15) < _COEF_BIAS
        flipped = (codes & ~15) | (2 * _COEF_BIAS - (codes & 15))
        codes = np.where(flip & (codes != 0), flipped, codes)
        g3 = _pair_terms(codes)
        raw3 = len(g3)
    return raw2, raw3, g2, g3


# Module-level state handed to forked scan workers (set before the pool
# forks; children inherit it read-only).
_SCAN_STATE: tuple | None = None


def _scan_task(task):
    rank, start, stop = task
    n, gen_keys, parents, want_g2, want_g3 = _SCAN_STATE
    words = _extend(parents[rank - 1][start:stop], rank)
    return rank, _scan_block(words, n, gen_keys, want_g2, want_g3)


def _run_scan(
    n: int,
    gen_keys: np.ndarray,
    want_g2: bool = True,
    want_g3: bool = True,
    workers: int = 1,
    progress: Progress = None,
):
    """Scan every canonical word of rank 1..n+1.

    Returns (g2_raw, g3_raw, distinct g2 rows, distinct g3 rows).  Tasks
    are blocks of rank-(R-1) parent rows; each extends its block to rank R
    and scans it, in this process or in forked workers.
    """
    global _SCAN_STATE
    parents = _word_blocks(n)
    tasks = []
    for rank in range(1, n + 2):
        ends = np.cumsum(_child_counts(parents[rank - 1], rank))
        cuts = np.searchsorted(ends, np.arange(_BLOCK_WORDS, ends[-1], _BLOCK_WORDS), "right")
        bounds = np.unique(np.concatenate([[0], cuts, [len(ends)]])).tolist()
        tasks.extend((rank, a, b) for a, b in zip(bounds, bounds[1:]))
    _SCAN_STATE = (n, gen_keys, parents, want_g2, want_g3)
    try:
        if workers <= 1:
            merged = _merge(map(_scan_task, tasks), tasks, progress)
        else:
            with get_context("fork").Pool(workers) as pool:
                merged = _merge(pool.imap(_scan_task, tasks), tasks, progress)
    finally:
        _SCAN_STATE = None
    return merged


def _merge(results, tasks, progress: Progress):
    raw2 = raw3 = 0
    g2_parts = [np.empty((0, 1), dtype=np.int64)]
    g3_parts = [np.empty((0, 4), dtype=np.int64)]
    for i, (rank, (r2, r3, g2, g3)) in enumerate(results):
        raw2 += r2
        raw3 += r3
        g2_parts.append(g2)
        g3_parts.append(g3)
        if progress is not None and (i + 1 == len(tasks) or tasks[i + 1][0] != rank):
            progress(f"rank {rank} done: raw {raw2}+{raw3}")
    return raw2, raw3, _unique_rows(np.concatenate(g2_parts)), _unique_rows(np.concatenate(g3_parts))


def _union(g2: np.ndarray, g3: np.ndarray) -> np.ndarray:
    """Distinct rows of both families, two-letter rows padded to four columns."""
    padded = np.zeros((len(g2), g3.shape[1]), dtype=np.int64)
    padded[:, :1] = g2
    return _unique_rows(np.concatenate([padded, g3]))


def g2_relations(
    n: int, table: GeneratorTable | None = None, workers: int = 1
) -> tuple[RelationList, int]:
    """Deduplicated two-letter-pattern relations and their raw match count."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if table is None:
        table = build_generators(n)
    raw2, _, g2, _ = _run_scan(n, _gen_keys(table), want_g2=True, want_g3=False, workers=workers)
    return _relation_list(g2), raw2


def g3_relations(
    n: int, table: GeneratorTable | None = None, workers: int = 1
) -> tuple[RelationList, int]:
    """Deduplicated three-letter-pattern relations and their raw match count."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if table is None:
        table = build_generators(n)
    _, raw3, _, g3 = _run_scan(n, _gen_keys(table), want_g2=False, want_g3=True, workers=workers)
    return _relation_list(g3), raw3


def build_presentation(
    n: int, *, workers: int = 1, progress: Progress = None
) -> Presentation:
    """Generators plus sign-normalized, deduplicated relations for degree n."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    table = build_generators(n)
    if progress is not None:
        progress(f"generators: {len(table)}")
    raw2, raw3, g2, g3 = _run_scan(n, _gen_keys(table), workers=workers, progress=progress)
    relations = _relation_list(_union(g2, g3))
    if progress is not None:
        progress(f"relations: {len(relations)} unique ({raw2} + {raw3} raw)")
    return Presentation(n, table, relations, (raw2, raw3))


def relation_counts(
    n: int, *, workers: int = 1, progress: Progress = None
) -> RelationCounts:
    """Presentation size summary without materializing relation vectors.

    This is the path for large degrees where only the counts are wanted: it
    builds no generator table, only the generators' packed keys.
    """
    keys = [_word_keys(block) for block in _generator_blocks(n)]
    gen_keys = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    if progress is not None:
        progress(f"generators: {len(gen_keys)}")
    raw2, raw3, g2, g3 = _run_scan(n, gen_keys, workers=workers, progress=progress)
    return RelationCounts(n, len(gen_keys), raw2, raw3, len(_union(g2, g3)))


# ---------------------------------------------------------------------------
# Text serialization.

_HEADER = "# polyak-presentation v1"


def save_presentation(pres: Presentation, dest) -> None:
    """Write the presentation text format to a path or text file object."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w") as fh:
            save_presentation(pres, fh)
        return
    fh: TextIO = dest
    fh.write(f"{_HEADER}\n")
    fh.write(f"degree {pres.degree}\n")
    fh.write(f"generators {len(pres.generators)}\n")
    for i, w in enumerate(pres.generators.words):
        fh.write(f"{i} {w}\n")
    fh.write(f"relations {len(pres.relations)}\n")
    for rel in pres.relations:
        fh.write(" ".join(f"{g}:{c}" for g, c in rel.terms) + "\n")


def load_presentation(src) -> Presentation:
    """Read the presentation text format, validating structure and ids.

    A malformed file raises ValueError naming the offending line number.
    """
    if isinstance(src, (str, Path)):
        with open(src) as fh:
            return load_presentation(fh)
    lines = iter(src)
    no = 0

    def next_line() -> str:
        nonlocal no
        no += 1
        line = next(lines, None)
        if line is None:
            raise ValueError("unexpected end of presentation file")
        return line.rstrip("\n")

    try:
        if next_line() != _HEADER:
            raise ValueError("bad presentation header")
        degree = int(_expect(next_line(), "degree"))
        count = int(_expect(next_line(), "generators"))
        words = []
        for i in range(count):
            fields = next_line().split()
            if len(fields) != 2:
                raise ValueError("expected '<id> <word>'")
            if int(fields[0]) != i:
                raise ValueError(f"generator ids out of order at {fields[0]}")
            words.append(GaussWord.from_text(fields[1]))
        table = GeneratorTable(degree, words)
        rel_count = int(_expect(next_line(), "relations"))
        indptr = [0]
        ids: list[int] = []
        coefs: list[int] = []
        for _ in range(rel_count):
            start = len(ids)
            for chunk in next_line().split():
                g, sep, c = chunk.partition(":")
                if not sep:
                    raise ValueError(f"malformed term {chunk!r}")
                g, c = int(g), int(c)
                if not 0 <= g < count:
                    raise ValueError(f"generator id {g} out of range 0..{count - 1}")
                if len(ids) > start and g <= ids[-1]:
                    raise ValueError("relation ids must be ascending")
                if not c:
                    raise ValueError(f"zero coefficient for generator {g}")
                ids.append(g)
                coefs.append(c)
            if len(ids) == start:
                raise ValueError("empty relation")
            if coefs[start] < 0:
                coefs[start:] = [-c for c in coefs[start:]]
            indptr.append(len(ids))
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    return Presentation(degree, table, RelationList(indptr, ids, coefs), None)


def _expect(line: str, key: str) -> str:
    head, _, value = line.partition(" ")
    if head != key:
        raise ValueError(f"expected '{key} ...' line, got {line!r}")
    return value
