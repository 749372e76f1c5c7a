"""Per-word reference relation scan, kept as a test oracle.

This is the original word-at-a-time harvest: it walks every canonical word
of rank <= n+1 as bytes, finds the two- and three-letter patterns with
occurrence tables, canonicalizes each image with `_canonical_bytes` and
looks it up in the generator table's dict.  The batched numpy scan in
`polyak.presentation` must reproduce its raw counts and relations exactly.
"""

from __future__ import annotations

from polyak.presentation import (
    GeneratorTable,
    Presentation,
    RelationVector,
    build_generators,
)
from polyak.words import _canonical_bytes, _iter_canonical_bytes

_BYTE = [bytes([i]) for i in range(64)]


def _pack(items: list[tuple[int, int]]) -> bytes:
    return b"".join(g.to_bytes(4, "big") + bytes([c & 0xFF]) for g, c in items)


def _unpack(blob: bytes) -> tuple[tuple[int, int], ...]:
    out = []
    for i in range(0, len(blob), 5):
        g = int.from_bytes(blob[i : i + 4], "big")
        c = blob[i + 4]
        out.append((g, c - 256 if c >= 128 else c))
    return tuple(out)


def _scan_words(
    n: int,
    index: dict[bytes, int],
    rank: int,
    want_g2: bool = True,
    want_g3: bool = True,
):
    """Harvest relations from all canonical words of one rank.

    Returns (g2_raw, g3_raw, g2_packed_set, g3_packed_set).
    """
    raw2 = raw3 = 0
    rel2: set[bytes] = set()
    rel3: set[bytes] = set()
    get = index.get
    canon = _canonical_bytes
    for w in _iter_canonical_bytes(rank):
        L = len(w)
        r = L // 2
        first = [-1] * r
        second = [0] * r
        for pos in range(L):
            b = w[pos]
            if first[b] < 0:
                first[b] = pos
            else:
                second[b] = pos
        wid = get(w)
        for a in range(r):
            p = first[a] + 1
            if p >= L:
                continue
            b = w[p]
            if first[b] != p:
                continue
            if want_g2 and second[a] == second[b] + 1:
                # xAByBAz at (a, b): vector [w] + 2[w minus b]
                tid = get(canon(w.translate(None, _BYTE[b])))
                if tid is not None:
                    packed = _pack([(tid, 2)] if wid is None else [(tid, 2), (wid, 1)])
                elif wid is not None:
                    packed = _pack([(wid, 1)])
                else:
                    continue
                raw2 += 1
                rel2.add(packed)
            if not want_g3:
                continue
            a2 = second[a]
            q = a2 + 1
            if q >= L:
                continue
            c = w[q]
            if first[c] != q:
                continue
            b2 = second[b]
            if b2 <= q or second[c] != b2 + 1:
                continue
            # xAByACzBCt at (a, b, c): eight-term vector against the
            # block-reversed word.
            a1 = first[a]
            mb = bytearray(w)
            mb[a1], mb[a1 + 1] = mb[a1 + 1], mb[a1]
            mb[a2], mb[q] = mb[q], mb[a2]
            mb[b2], mb[b2 + 1] = mb[b2 + 1], mb[b2]
            wp = bytes(mb)
            acc: dict[int, int] = {}
            if wid is not None:
                acc[wid] = 1
            for kill in (c, b, a):
                t = get(canon(w.translate(None, _BYTE[kill])))
                if t is not None:
                    acc[t] = acc.get(t, 0) + 1
            t = get(canon(wp))
            if t is not None:
                acc[t] = acc.get(t, 0) - 1
            for kill in (c, b, a):
                t = get(canon(wp.translate(None, _BYTE[kill])))
                if t is not None:
                    acc[t] = acc.get(t, 0) - 1
            items = [(g, v) for g, v in acc.items() if v]
            if not items:
                continue
            items.sort()
            if items[0][1] < 0:
                items = [(g, -v) for g, v in items]
            raw3 += 1
            rel3.add(_pack(items))
    return raw2, raw3, rel2, rel3


def _materialize(packed) -> list[RelationVector]:
    out = []
    for terms in sorted(_unpack(blob) for blob in packed):
        rv = object.__new__(RelationVector)
        rv.terms = terms
        out.append(rv)
    return out


def reference_scan(n: int, table: GeneratorTable, want_g2: bool = True, want_g3: bool = True):
    """(g2_raw, g3_raw, g2 relations, g3 relations, union), each sorted."""
    raw2 = raw3 = 0
    rel2: set[bytes] = set()
    rel3: set[bytes] = set()
    for rank in range(1, n + 2):
        r2, r3, s2, s3 = _scan_words(n, table._index, rank, want_g2, want_g3)
        raw2 += r2
        raw3 += r3
        rel2 |= s2
        rel3 |= s3
    return raw2, raw3, _materialize(rel2), _materialize(rel3), _materialize(rel2 | rel3)


def reference_presentation(n: int) -> Presentation:
    """The presentation as the per-word scan builds it (relations as a tuple)."""
    table = build_generators(n)
    raw2, raw3, _, _, union = reference_scan(n, table)
    return Presentation(n, table, tuple(union), (raw2, raw3))
