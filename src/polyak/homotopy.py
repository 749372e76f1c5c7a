"""Homotopy moves on canonical Gauss words and bounded equivalence search.

The three basic moves insert or delete an adjacent pair (xAAy <-> xy),
insert or delete an interleaved pair (xAByBAz <-> xyz), and exchange three
adjacent blocks (xAByACzBCt <-> xBAyCAzCBt).  Four derived moves are
first-class here as well: the parallel-pair deletion xAByABz <-> xyz and
the three remaining block-exchange orientations; they shrink search depth
without enlarging the reachable set.

One site enumerator, `_sites`, walks every move site of a canonical word in
a fixed order: adjacent-pair deletions, then interleaved and parallel pair
deletions, then the exchanges (orientation by orientation), then the
insertions.  It writes each image straight in canonical form, because every
move relabels in a known way:

- deleting the pair of letter a lowers every label above a by one;
  deleting a and a + 1 lowers every label above a + 1 by two;
- inserting new letters at position p, where k letters first occur before
  p, gives them labels k (and k + 1) and raises every later label >= k;
- an exchange swaps two first occurrences only in its first block, the
  letters L and L + 1, so the image is the block-swapped word with those
  two labels traded.

So an image is a few slices and one `bytes.translate`.  `neighbors`,
`reduce_with_trace` and `search` are views of the enumerator.  `_apply`
recomputes one move the checked way (it validates the site, canonicalizes
the result and builds the inverse); it serves `apply_move`/`invert_move`.

The search is bidirectional breadth-first over raw bytes and stores only
each word's parent.  Once the two sides meet, the move along each edge of
the path is found again by re-enumerating the parent's sites and taking the
first whose image is the child: that is the move the search reached the
child by, so the trace is exactly the one a search storing every move would
record, and it replays step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .words import GaussWord, _canonical_bytes

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
# Exchanges are emitted in this (tag, side) order; slot = index in it.
_SLOT_MOVE = tuple(_ORIENT)
_ORIENT_SLOT = {orient: slot for slot, orient in enumerate(_ORIENT.values())}


class MoveApplication(NamedTuple):
    tag: str        # H1..H7
    direction: str  # 'reduce' | 'expand' | 'exchange'
    data: tuple     # matched letters (reduce/exchange) or insertion points

    def __str__(self) -> str:
        return f"{self.tag} {self.direction} {','.join(map(str, self.data))}"


class _Tables(dict):
    """Translate tables made on first use: tables[k] == make(k)."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, k):
        table = self[k] = self.make(k)
        return table


_ID = bytes(range(256))
# Labels >= k raised by one or two, making room for new letters at k.
_RAISE1 = _Tables(lambda k: _ID[:k] + _ID[k + 1 :] + _ID[:1])
_RAISE2 = _Tables(lambda k: _ID[:k] + _ID[k + 2 :] + _ID[:2])
# Labels above a lowered by one (a deleted) or above a + 1 by two (both deleted).
_LOWER1 = _Tables(lambda a: _ID[: a + 1] + _ID[a:255])
_LOWER2 = _Tables(lambda a: _ID[: a + 2] + _ID[a:254])
# Labels L and L + 1 traded.
_SWAP = _Tables(lambda L: _ID[:L] + _ID[L + 1 : L + 2] + _ID[L : L + 1] + _ID[L + 2 :])


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


def _sites(raw: bytes, rank_cap: int, tags, moves: list | None = None) -> list[bytes]:
    """Canonical images of raw under every move site, in site order.

    Reductions and exchanges are always generated; expansions only while
    the image rank stays within rank_cap.  When `moves` is a list, the
    application producing each image is appended to it, so that
    moves[i] takes raw to the i-th image.
    """
    n = len(raw)
    r = n // 2
    first, second = _occurrence_tables(raw)
    out: list[bytes] = []
    append = out.append
    if "H1" in tags:
        for a in range(r):
            if second[a] == first[a] + 1:
                append(raw.translate(_LOWER1[a], _ID[a : a + 1]))
                if moves is not None:
                    moves.append(MoveApplication("H1", "reduce", (a,)))

    # One pass over the letters L, L + 1 whose first occurrences are
    # adjacent, at i and i + 1: these open every pair deletion and every
    # exchange (whose first block is that pair, in either order).
    scan_exchanges = not tags.isdisjoint(EXCHANGE_TAGS)
    exchanges = []
    for L in range(r - 1):
        i = first[L]
        if first[L + 1] != i + 1:
            continue
        # Second occurrences adjacent too: interleaved (H2) or parallel (H4).
        gap = second[L + 1] - second[L]
        tag = "H2" if gap == -1 else "H4" if gap == 1 else None
        if tag in tags:
            append(raw.translate(_LOWER2[L], _ID[L : L + 2]))
            if moves is not None:
                moves.append(MoveApplication(tag, "reduce", (L, L + 1)))
        if not scan_exchanges:
            continue
        for o1, a, b in ((0, L, L + 1), (1, L + 1, L)):
            a2 = second[a]
            b2 = second[b]
            for o2 in (0, 1):
                # Block 2 is a's second occurrence and c's first (o2 = 0),
                # or the reverse; block 3 is the second occurrences of b, c,
                # which both lie after block 2.
                s2 = a2 - o2
                cpos = s2 + 1 - o2
                if s2 <= i + 1 or cpos >= n:
                    continue
                c = raw[cpos]
                if first[c] != cpos:
                    continue
                c2 = second[c]
                if c2 == b2 + 1:
                    o3, s3 = 0, b2
                elif b2 == c2 + 1:
                    o3, s3 = 1, c2
                else:
                    continue
                slot = _ORIENT_SLOT[o1, o2, o3]
                if _SLOT_MOVE[slot][0] in tags:
                    exchanges.append((slot, L, (i, s2, s3), (a, b, c)))
    if exchanges:
        exchanges.sort(key=itemgetter(0))  # stable: by slot, then by L
        for slot, L, blocks, site in exchanges:
            seq = bytearray(raw)
            for p in blocks:
                seq[p], seq[p + 1] = seq[p + 1], seq[p]
            append(bytes(seq).translate(_SWAP[L]))
            if moves is not None:
                tag, side = _SLOT_MOVE[slot]
                moves.append(MoveApplication(tag, "exchange", (side, *site)))

    # Insertions at p: k letters first occur before p, so the new letters
    # are k (and k + 1) and raw[p:] shifts up past them.
    if r + 1 <= rank_cap and "H1" in tags:
        k = 0
        for p in range(n + 1):
            append(raw[:p] + _ID[k : k + 1] * 2 + raw[p:].translate(_RAISE1[k]))
            if p < n and raw[p] == k:
                k += 1
        if moves is not None:
            moves.extend(MoveApplication("H1", "expand", (p,)) for p in range(n + 1))
    h2 = "H2" in tags
    h4 = "H4" in tags
    if r + 2 <= rank_cap and (h2 or h4):
        k = 0
        for p in range(n + 1):
            xy = _ID[k : k + 2]
            yx = xy[::-1]
            head = raw[:p] + xy
            tail = raw[p:].translate(_RAISE2[k])
            for d in range(n - p + 1):
                pre = head + tail[:d]
                post = tail[d:]
                if h2:
                    append(pre + yx + post)
                if h4:
                    append(pre + xy + post)
            if moves is not None:
                expand_tags = [t for t in ("H2", "H4") if t in tags]
                moves.extend(
                    MoveApplication(tag, "expand", (p, q))
                    for q in range(p, n + 1)
                    for tag in expand_tags
                )
            if p < n and raw[p] == k:
                k += 1
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
# The shrinking moves: adjacent, interleaved and parallel pair deletion.
_SHRINK = frozenset({"H1", "H2", "H4"})


def neighbors(
    w: GaussWord, rank_cap: int, tags=ALL_TAGS
) -> list[tuple[GaussWord, MoveApplication]]:
    """All canonical words one move away from w.

    Reductions and exchanges are always generated; expansions only while
    the image rank stays within rank_cap.  Every matching site contributes,
    so the same image word may appear under several moves.  `tags` narrows
    the move set (e.g. to the three basic moves only).
    """
    if w.rank > rank_cap:
        raise ValueError(f"rank {w.rank} exceeds rank_cap {rank_cap}")
    moves: list[MoveApplication] = []
    images = _sites(w.raw, rank_cap, frozenset(tags), moves)
    return [(GaussWord._wrap(v), mv) for v, mv in zip(images, moves)]


def reduce_with_trace(
    w: GaussWord,
) -> tuple[GaussWord, tuple[MoveApplication, ...]]:
    """Greedy closure of the shrinking moves (adjacent, interleaved, and
    parallel pair deletion), with the applied moves; the result admits no
    further reduction.  Each step deletes at the smallest first letter that
    admits a deletion (at most one shrinking move applies per letter)."""
    raw = w.raw
    trace: list[MoveApplication] = []
    while True:
        moves: list[MoveApplication] = []
        images = _sites(raw, len(raw) // 2, _SHRINK, moves)
        if not images:
            return GaussWord._wrap(raw), tuple(trace)
        i = min(range(len(moves)), key=lambda j: moves[j].data[0])
        trace.append(moves[i])
        raw = images[i]


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
    # Why an 'unknown' search stopped: 'budget' (node_budget reached) or
    # 'exhausted' (a side ran out of words within the rank cap).
    reason: str | None = None

    @property
    def connected(self) -> bool:
        return self.status == "connected"


def _edge_move(parent: bytes, child: bytes, rank_cap: int, tags) -> MoveApplication:
    """The first move of parent's site order whose image is child."""
    moves: list[MoveApplication] = []
    images = _sites(parent, rank_cap, tags, moves)
    return moves[images.index(child)]


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
    tags = frozenset(tags)
    # word -> the word it was first reached from (None at an endpoint)
    fwd: dict[bytes, bytes | None] = {w1.raw: None}
    bwd: dict[bytes, bytes | None] = {w2.raw: None}
    frontier_f = [w1.raw]
    frontier_b = [w2.raw]
    nodes = 2

    def build_trace(meet: bytes) -> list[MoveApplication]:
        moves: list[MoveApplication] = []
        node = meet
        while (parent := fwd[node]) is not None:
            moves.append(_edge_move(parent, node, rank_cap, tags))
            node = parent
        moves.reverse()
        node = meet
        while (parent := bwd[node]) is not None:
            # The edge move maps parent -> node; its inverse walks node -> parent.
            mv = _edge_move(parent, node, rank_cap, tags)
            moves.append(invert_move(GaussWord._wrap(parent), mv))
            node = parent
        return moves

    while frontier_f and frontier_b:
        if len(frontier_f) <= len(frontier_b):
            frontier, visited, other = frontier_f, fwd, bwd
            forward = True
        else:
            frontier, visited, other = frontier_b, bwd, fwd
            forward = False
        next_frontier: list[bytes] = []
        for u in frontier:
            for v in _sites(u, rank_cap, tags):
                if v in visited:
                    continue
                visited[v] = u
                nodes += 1
                if v in other:
                    return SearchOutcome("connected", build_trace(v), nodes, rank_cap)
                next_frontier.append(v)
                if nodes > node_budget:
                    return SearchOutcome("unknown", None, nodes, rank_cap, "budget")
        if forward:
            frontier_f = next_frontier
        else:
            frontier_b = next_frontier
    return SearchOutcome("unknown", None, nodes, rank_cap, "exhausted")


def render_trace(source: GaussWord, moves: list[MoveApplication]) -> list[str]:
    """One line per move: `<tag> <direction> <word-after>`; replays the trace."""
    lines = []
    w = source
    for mv in moves:
        w = apply_move(w, mv)
        lines.append(f"{mv.tag} {mv.direction} {w}")
    return lines
