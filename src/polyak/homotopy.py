"""Homotopy moves on canonical Gauss words and bounded equivalence search.

The three basic moves insert or delete an adjacent pair (xAAy <-> xy),
insert or delete an interleaved pair (xAByBAz <-> xyz), and exchange three
adjacent blocks (xAByACzBCt <-> xBAyCAzCBt).  Four derived moves are
first-class here as well: the parallel-pair deletion xAByABz <-> xyz and
the three remaining block-exchange orientations; they shrink search depth
without enlarging the reachable set.

Moves are recorded against the letters/positions of the word they apply
to; applying a move yields a canonical image plus enough information to
invert it, so every search trace replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .words import GaussWord, _canonical_bytes, _occurrence_tables

EXCHANGE_TAGS = ("H3", "H5", "H6", "H7")

# Block orientations per (tag, side): whether each of the three adjacent
# blocks is written (first-letter, second-letter) or reversed.  Side 1 of a
# tag is the complement of side 0, and exchanging flips every block.
_ORIENT = {
    ("H3", 0): (0, 0, 0),
    ("H3", 1): (1, 1, 1),
    ("H5", 0): (0, 1, 0),
    ("H5", 1): (1, 0, 1),
    ("H6", 0): (0, 1, 1),
    ("H6", 1): (1, 0, 0),
    ("H7", 0): (0, 0, 1),
    ("H7", 1): (1, 1, 0),
}


class MoveApplication(NamedTuple):
    tag: str        # H1..H7
    direction: str  # 'reduce' | 'expand' | 'exchange'
    data: tuple     # matched letters (reduce/exchange) or insertion points

    def __str__(self) -> str:
        return f"{self.tag} {self.direction} {','.join(map(str, self.data))}"


def _match_exchange(raw: bytes, first, second, orient) -> list[tuple[int, int, int]]:
    """Sites (a, b, c) of the three-block pattern with the given orientation."""
    o1, o2, o3 = orient
    out = []
    n = len(raw)
    for i in range(n - 1):
        x, y = raw[i], raw[i + 1]
        if x == y:
            continue
        a, b = (x, y) if o1 == 0 else (y, x)
        if first[a] != i + o1 or first[b] != i + 1 - o1:
            continue
        a2 = second[a]
        s2 = a2 - o2
        if not i + 1 < s2:
            continue
        if s2 + 1 >= n:
            continue
        c = raw[s2 + 1] if o2 == 0 else raw[s2]
        if c == a or c == b or first[c] != s2 + 1 - o2:
            continue
        b2 = second[b]
        c2 = second[c]
        if o3 == 0:
            if c2 != b2 + 1:
                continue
            s3 = b2
        else:
            if b2 != c2 + 1:
                continue
            s3 = c2
        if s2 + 1 < s3:
            out.append((a, b, c))
    return out


def _exchange_site(raw: bytes, first, second, orient, a, b, c):
    """Block start positions for a claimed exchange site, or None."""
    o1, o2, o3 = orient
    s1 = min(first[a], first[b])
    if first[a] != s1 + o1 or first[b] != s1 + 1 - o1:
        return None
    s2 = second[a] - o2
    if first[c] != s2 + 1 - o2:
        return None
    if o3 == 0:
        if second[c] != second[b] + 1:
            return None
        s3 = second[b]
    else:
        if second[b] != second[c] + 1:
            return None
        s3 = second[c]
    if not (s1 + 1 < s2 and s2 + 1 < s3):
        return None
    return s1, s2, s3


def _apply(w: GaussWord, move: MoveApplication) -> tuple[GaussWord, MoveApplication]:
    """Apply a move; returns the canonical image and the inverse application."""
    raw = w.raw
    n = len(raw)
    r = n // 2
    tag, direction, data = move
    if direction == "exchange":
        side, a, b, c = data
        first, second = _occurrence_tables(raw)
        site = _exchange_site(raw, first, second, _ORIENT[tag, side], a, b, c)
        if site is None:
            raise ValueError(f"word {w} does not admit {move}")
        s1, s2, s3 = site
        seq = bytearray(raw)
        for p in (s1, s2, s3):
            seq[p], seq[p + 1] = seq[p + 1], seq[p]
        out = _canonical_bytes(seq)
        # A letter's new label is the canonical label at its first occurrence.
        inverse = MoveApplication(
            tag,
            "exchange",
            (1 - side, out[seq.index(a)], out[seq.index(b)], out[seq.index(c)]),
        )
        return GaussWord._wrap(out), inverse

    if direction == "reduce":
        first, second = _occurrence_tables(raw)
        if tag == "H1":
            (a,) = data
            if not (0 <= a < r and second[a] == first[a] + 1):
                raise ValueError(f"word {w} does not admit {move}")
            p = first[a]
            out = _canonical_bytes(raw[:p] + raw[p + 2 :])
            return GaussWord._wrap(out), MoveApplication("H1", "expand", (p,))
        a, b = data
        a1 = first[a]
        if tag == "H2":
            ok = (
                0 <= a < r
                and 0 <= b < r
                and first[b] == a1 + 1
                and second[a] == second[b] + 1
            )
            cut = second[b]
        elif tag == "H4":
            ok = (
                0 <= a < r
                and 0 <= b < r
                and first[b] == a1 + 1
                and second[b] == second[a] + 1
            )
            cut = second[a]
        else:
            raise ValueError(f"unknown reduce tag {tag}")
        if not ok:
            raise ValueError(f"word {w} does not admit {move}")
        seq = bytearray(raw)
        del seq[cut : cut + 2]
        del seq[a1 : a1 + 2]
        out = _canonical_bytes(seq)
        return GaussWord._wrap(out), MoveApplication(tag, "expand", (a1, cut - 2))

    if direction == "expand":
        if tag == "H1":
            (p,) = data
            if not 0 <= p <= n:
                raise ValueError(f"insertion point {p} out of range")
            seq = raw[:p] + bytes((r, r)) + raw[p:]
            out = _canonical_bytes(seq)
            # The new letter first occurs at p.
            return GaussWord._wrap(out), MoveApplication("H1", "reduce", (out[p],))
        p, q = data
        if not 0 <= p <= q <= n:
            raise ValueError(f"insertion points {data} out of range")
        x, y = r, r + 1
        if tag == "H2":
            seq = raw[:p] + bytes((x, y)) + raw[p:q] + bytes((y, x)) + raw[q:]
        elif tag == "H4":
            seq = raw[:p] + bytes((x, y)) + raw[p:q] + bytes((x, y)) + raw[q:]
        else:
            raise ValueError(f"unknown expand tag {tag}")
        out = _canonical_bytes(seq)
        # The new letters x, y first occur at p, p + 1.
        return GaussWord._wrap(out), MoveApplication(
            tag, "reduce", (out[p], out[p + 1])
        )

    raise ValueError(f"unknown direction {direction}")


def apply_move(w: GaussWord, move: MoveApplication) -> GaussWord:
    """Canonical image of w under one move application."""
    return _apply(w, move)[0]


def invert_move(w: GaussWord, move: MoveApplication) -> MoveApplication:
    """The application that undoes `move`; valid at apply_move(w, move)."""
    return _apply(w, move)[1]


ALL_TAGS = frozenset({"H1", "H2", "H3", "H4", "H5", "H6", "H7"})


def neighbors(
    w: GaussWord, rank_cap: int, tags=ALL_TAGS
) -> list[tuple[GaussWord, MoveApplication]]:
    """All canonical words one move away from w.

    Reductions and exchanges are always generated; expansions only while
    the image rank stays within rank_cap.  Every matching site contributes,
    so the same image word may appear under several moves.  `tags` narrows
    the move set (e.g. to the three basic moves only).
    """
    raw = w.raw
    n = len(raw)
    r = n // 2
    if r > rank_cap:
        raise ValueError(f"rank {r} exceeds rank_cap {rank_cap}")
    first, second = _occurrence_tables(raw)
    out: list[tuple[GaussWord, MoveApplication]] = []

    def emit(move):
        out.append((_apply(w, move)[0], move))

    if "H1" in tags:
        for a in range(r):
            if second[a] == first[a] + 1:
                emit(MoveApplication("H1", "reduce", (a,)))
    for a in range(r):
        p = first[a] + 1
        if p >= n:
            continue
        b = raw[p]
        if first[b] != p:
            continue
        if "H2" in tags and second[a] == second[b] + 1:
            emit(MoveApplication("H2", "reduce", (a, b)))
        if "H4" in tags and second[b] == second[a] + 1:
            emit(MoveApplication("H4", "reduce", (a, b)))
    for tag in EXCHANGE_TAGS:
        if tag not in tags:
            continue
        for side in (0, 1):
            for site in _match_exchange(raw, first, second, _ORIENT[tag, side]):
                emit(MoveApplication(tag, "exchange", (side, *site)))
    if r + 1 <= rank_cap and "H1" in tags:
        for p in range(n + 1):
            emit(MoveApplication("H1", "expand", (p,)))
    if r + 2 <= rank_cap:
        for p in range(n + 1):
            for q in range(p, n + 1):
                if "H2" in tags:
                    emit(MoveApplication("H2", "expand", (p, q)))
                if "H4" in tags:
                    emit(MoveApplication("H4", "expand", (p, q)))
    return out


def reduce_with_trace(
    w: GaussWord,
) -> tuple[GaussWord, tuple[MoveApplication, ...]]:
    """Greedy closure of the shrinking moves (adjacent, interleaved, and
    parallel pair deletion), with the applied moves; the result admits no
    further reduction."""
    moves: list[MoveApplication] = []
    while True:
        raw = w.raw
        n = len(raw)
        first, second = _occurrence_tables(raw)
        move = None
        for a in range(n // 2):
            if second[a] == first[a] + 1:
                move = MoveApplication("H1", "reduce", (a,))
                break
            p = first[a] + 1
            if p < n:
                b = raw[p]
                if first[b] == p:
                    if second[a] == second[b] + 1:
                        move = MoveApplication("H2", "reduce", (a, b))
                        break
                    if second[b] == second[a] + 1:
                        move = MoveApplication("H4", "reduce", (a, b))
                        break
        if move is None:
            return w, tuple(moves)
        moves.append(move)
        w = _apply(w, move)[0]


def reduce_word(w: GaussWord) -> GaussWord:
    """The fully collapsed form of w under the shrinking moves."""
    return reduce_with_trace(w)[0]


@dataclass
class SearchOutcome:
    """Result of a bounded bidirectional search between two words."""

    status: str  # 'connected' | 'unknown'
    trace: list[MoveApplication] | None
    nodes_explored: int
    frontier_rank_cap: int

    @property
    def connected(self) -> bool:
        return self.status == "connected"


def search(
    w1: GaussWord,
    w2: GaussWord,
    rank_cap: int | None = None,
    node_budget: int = 10**6,
    tags=ALL_TAGS,
) -> SearchOutcome:
    """Bidirectional breadth-first search for a move path from w1 to w2.

    Returns 'connected' with a replayable forward trace, or 'unknown' when
    the node budget or the rank cap is exhausted; a negative answer is
    never claimed.
    """
    if rank_cap is None:
        rank_cap = max(w1.rank, w2.rank) + 2
    if rank_cap < max(w1.rank, w2.rank):
        raise ValueError("rank_cap below the rank of an endpoint")
    if w1 == w2:
        return SearchOutcome("connected", [], 1, rank_cap)
    # parent maps: word -> (parent, move applied at parent to reach word)
    fwd: dict[GaussWord, tuple | None] = {w1: None}
    bwd: dict[GaussWord, tuple | None] = {w2: None}
    frontier_f = [w1]
    frontier_b = [w2]
    nodes = 2

    def build_trace(meet: GaussWord) -> list[MoveApplication]:
        moves: list[MoveApplication] = []
        node = meet
        while fwd[node] is not None:
            parent, mv = fwd[node]
            moves.append(mv)
            node = parent
        moves.reverse()
        node = meet
        while bwd[node] is not None:
            parent, mv = bwd[node]
            # mv maps parent -> node; append its inverse to walk node -> parent
            moves.append(invert_move(parent, mv))
            node = parent
        return moves

    while frontier_f and frontier_b:
        if len(frontier_f) <= len(frontier_b):
            frontier, visited, other = frontier_f, fwd, bwd
            forward = True
        else:
            frontier, visited, other = frontier_b, bwd, fwd
            forward = False
        next_frontier: list[GaussWord] = []
        for u in frontier:
            for v, mv in neighbors(u, rank_cap, tags):
                if v in visited:
                    continue
                visited[v] = (u, mv)
                nodes += 1
                if v in other:
                    return SearchOutcome("connected", build_trace(v), nodes, rank_cap)
                next_frontier.append(v)
                if nodes > node_budget:
                    return SearchOutcome("unknown", None, nodes, rank_cap)
        if forward:
            frontier_f = next_frontier
        else:
            frontier_b = next_frontier
    return SearchOutcome("unknown", None, nodes, rank_cap)


def render_trace(source: GaussWord, moves: list[MoveApplication]) -> list[str]:
    """One line per move: `<tag> <direction> <word-after>`; replays the trace."""
    lines = []
    w = source
    for mv in moves:
        w = apply_move(w, mv)
        lines.append(f"{mv.tag} {mv.direction} {w}")
    return lines
