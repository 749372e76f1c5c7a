"""The simplified universal finite type invariant: build, evaluate, persist.

A degree-n table pairs each generator word having nonzero image in the
torsion quotient with its value vector.  Values live in a direct sum of
cyclic 2-groups (the nontrivial elementary divisors, ascending); they are
plain tuples of ints, componentwise reduced.  Evaluating the invariant on a
word sums the value vectors of its canonical subwords with multiplicity, so
the whole subword count / truncation / basis-change pipeline collapses into
one dictionary pass.

The concrete component values depend on the row transformation chosen by
the elimination, so persisted tables are only comparable through
basis-independent features: which words are nonzero, which words share a
value, element orders, and linear relations among values.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import gcd, lcm
from pathlib import Path
from typing import Callable, Iterable, Optional, TextIO

from .presentation import build_presentation
from .smith import snf_sparse_mod2k, verify_cokernel_map
from .words import GaussWord, _canonical_bytes, _has_adjacent_double_bytes

Progress = Optional[Callable[[str], None]]

Value = tuple[int, ...]
# A linear combination is a sequence of (coefficient, word) pairs.
LinearCombination = Iterable[tuple[int, GaussWord]]


class InvariantTable:
    """Map from generator words to their nonzero value vectors."""

    __slots__ = ("degree", "moduli", "_raw")

    def __init__(self, degree: int, moduli: Iterable[int], entries):
        self.degree = degree
        self.moduli = tuple(moduli)
        if list(self.moduli) != sorted(self.moduli):
            raise ValueError("moduli must be ascending")
        for d in self.moduli:
            if d < 2 or d & (d - 1):
                raise ValueError(f"modulus {d} is not a power of 2 greater than 1")
        self._raw: dict[bytes, Value] = {}
        for w, vec in dict(entries).items():
            self._check_entry(w, vec)
            self._raw[w.raw] = tuple(vec)

    def _check_entry(self, w: GaussWord, vec) -> None:
        if not 2 <= w.rank <= self.degree:
            raise ValueError(f"stored word {w} has rank outside 2..{self.degree}")
        if _has_adjacent_double_bytes(w.raw):
            raise ValueError(f"stored word {w} is reducible")
        vec = tuple(vec)
        if len(vec) != len(self.moduli):
            raise ValueError(f"value for {w} has wrong length")
        if not any(vec):
            raise ValueError(f"value for {w} is zero; zero values are omitted")
        for c, d in zip(vec, self.moduli):
            if not 0 <= c < d:
                raise ValueError(f"component {c} of {w} not reduced mod {d}")
        bound = 1 << (self.degree - w.rank + 1)
        if element_order(vec, self.moduli) > bound:
            raise ValueError(f"value for {w} violates the 2-power torsion bound")

    def __len__(self) -> int:
        return len(self._raw)

    def __contains__(self, w: GaussWord) -> bool:
        return w.raw in self._raw

    def value(self, w: GaussWord) -> Value:
        """Stored vector of a generator word (zero vector if not stored)."""
        return self._raw.get(w.raw, self.zero())

    def zero(self) -> Value:
        return (0,) * len(self.moduli)

    def words(self) -> list[GaussWord]:
        return sorted(GaussWord._wrap(raw) for raw in self._raw)

    def items(self) -> list[tuple[GaussWord, Value]]:
        return [(w, self._raw[w.raw]) for w in self.words()]

    def __repr__(self) -> str:
        return (
            f"<InvariantTable degree={self.degree} moduli={self.moduli} "
            f"entries={len(self._raw)}>"
        )


def build_table(
    n: int,
    *,
    workers: int = 1,
    progress: Progress = None,
) -> InvariantTable:
    """Build the degree-n invariant table from scratch.

    Builds the presentation, runs the sparse Smith normal form mod 2^(n-1),
    checks the induced quotient map on every relation column, and keeps the
    generators whose transformed coordinates are nonzero.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    pres = build_presentation(n, workers=workers, progress=progress)
    if n == 1:
        return InvariantTable(n, (), {})
    A = pres.matrix()
    result = snf_sparse_mod2k(A, n - 1, progress=progress)
    if not verify_cokernel_map(A, result):
        raise RuntimeError("cokernel map verification failed after elimination")
    moduli = result.moduli
    entries: dict[GaussWord, Value] = {}
    if moduli:
        u = result.u_rows
        for i, w in enumerate(pres.generators.words):
            vec = tuple(int(c) % d for c, d in zip(u[:, i], moduli))
            if any(vec):
                entries[w] = vec
    if progress is not None:
        progress(f"table: {len(entries)} nonzero words, moduli {tuple(moduli)}")
    return InvariantTable(n, moduli, entries)


def evaluate(table: InvariantTable, p: GaussWord) -> Value:
    """Value of the degree-n invariant on a canonical word.

    Sums value vectors over all letter subsets of p whose induced subword is
    stored, i.e. the subword-count pairing pushed through the quotient.
    """
    moduli = table.moduli
    if not moduli:
        return ()
    r = p.rank
    hi = min(table.degree, r)
    acc = [0] * len(moduli)
    raw = p.raw
    lookup = table._raw
    if r > 8:
        # Long inputs repeat many canonical subwords; count them first.
        counts: Counter[bytes] = Counter()
        for k in range(2, hi + 1):
            for subset in combinations(range(r), k):
                chosen = frozenset(subset)
                counts[_canonical_bytes(bytes(b for b in raw if b in chosen))] += 1
        for sub, cnt in counts.items():
            vec = lookup.get(sub)
            if vec is not None:
                for t, c in enumerate(vec):
                    acc[t] += cnt * c
    else:
        for k in range(2, hi + 1):
            for subset in combinations(range(r), k):
                chosen = frozenset(subset)
                vec = lookup.get(_canonical_bytes(bytes(b for b in raw if b in chosen)))
                if vec is not None:
                    for t, c in enumerate(vec):
                        acc[t] += c
    return tuple(a % d for a, d in zip(acc, moduli))


def evaluate_combination(
    table: InvariantTable, combination: LinearCombination
) -> tuple[int, Value]:
    """Coefficient sum (the free component) plus the linear value extension."""
    total = 0
    acc = [0] * len(table.moduli)
    for coef, w in combination:
        total += coef
        if coef:
            for t, c in enumerate(evaluate(table, w)):
                acc[t] += coef * c
    return total, tuple(a % d for a, d in zip(acc, table.moduli))


def element_order(value: Value, moduli: Iterable[int]) -> int:
    """Least positive multiple annihilating the value (1 for zero)."""
    order = 1
    for c, d in zip(value, moduli):
        if c % d:
            order = lcm(order, d // gcd(c, d))
    return order


def semiletter_resolution(
    w: GaussWord, marked: Iterable[int]
) -> list[tuple[int, GaussWord]]:
    """Expand marked letters into their deletion differences.

    Returns the signed sum over subsets T of the marked letters of the word
    with T deleted, coefficients merged, rank-descending order.
    """
    marks = sorted(set(marked))
    present = set(w.raw)
    missing = [x for x in marks if x not in present]
    if missing:
        raise ValueError(f"marked letters {missing} do not occur in the word")
    acc: dict[bytes, int] = {}
    for k in range(len(marks) + 1):
        sign = 1 if k % 2 == 0 else -1
        for subset in combinations(marks, k):
            t = _canonical_bytes(w.raw.translate(None, bytes(subset)))
            acc[t] = acc.get(t, 0) + sign
    terms = [(c, GaussWord._wrap(raw)) for raw, c in acc.items() if c]
    terms.sort(key=lambda term: (-term[1].rank, term[1].raw))
    return terms


# ---------------------------------------------------------------------------
# Text serialization.

_HEADER = "# ftiv-table v1"


def save_table(table: InvariantTable, dest) -> None:
    """Write the table text format to a path or text file object."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w") as fh:
            save_table(table, fh)
        return
    fh: TextIO = dest
    fh.write(f"{_HEADER}\n")
    fh.write(f"degree {table.degree}\n")
    fh.write(("moduli " + " ".join(map(str, table.moduli))).rstrip() + "\n")
    for w, vec in table.items():
        fh.write(f"{w} " + " ".join(map(str, vec)) + "\n")


def load_table(src) -> InvariantTable:
    """Read the table text format, validating every invariant.

    A malformed file raises ValueError naming the offending line number.
    """
    if isinstance(src, (str, Path)):
        with open(src) as fh:
            return load_table(fh)
    fh: TextIO = src
    lines = [(no, line.rstrip("\n")) for no, line in enumerate(fh, 1) if line.strip()]
    end = lines[-1][0] + 1 if lines else 1

    def header(idx: int, prefix: str, what: str) -> tuple[int, list[str]]:
        no, line = lines[idx] if idx < len(lines) else (end, "")
        if not line.startswith(prefix):
            raise ValueError(f"line {no}: missing {what}")
        return no, line.split()[1:]

    header(0, _HEADER, "table header")
    no, degree_fields = header(1, "degree ", "degree line")
    moduli_no, moduli_fields = header(2, "moduli", "moduli line")
    try:
        degree = int(" ".join(degree_fields))
        no = moduli_no
        table = InvariantTable(degree, map(int, moduli_fields), {})
        for no, line in lines[3:]:
            parts = line.split()
            w = GaussWord.from_text(parts[0])
            vec = tuple(int(x) for x in parts[1:])
            if w in table:
                raise ValueError(f"duplicate entry for {w}")
            table._check_entry(w, vec)
            table._raw[w.raw] = vec
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    return table
