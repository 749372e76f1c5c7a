import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyak.homotopy import (
    _ORIENT,
    ALL_TAGS,
    EXCHANGE_TAGS,
    MoveApplication,
    _apply,
    _exchange_site,
    _occurrence_tables,
    apply_move,
    invert_move,
    neighbors,
    reduce_word,
    render_trace,
    search,
)
from polyak.words import EMPTY_WORD, GaussWord, canonicalize, enumerate_canonical

W = GaussWord.from_text
BASIC = frozenset({"H1", "H2", "H3"})


class TestNeighbors:
    def test_h1_reduction(self):
        images = {str(v) for v, m in neighbors(W("ABBA"), 4) if m.tag == "H1"}
        assert "AA" in images

    def test_h4_reduction_to_empty(self):
        images = {str(v) for v, m in neighbors(W("ABAB"), 4) if m.tag == "H4"}
        assert "-" in images

    def test_h3_exchange(self):
        images = {
            str(v) for v, m in neighbors(W("ABACBC"), 3) if m.direction == "exchange"
        }
        assert "ABCBCA" in images

    def test_expansions_respect_cap(self):
        at_cap = neighbors(W("ABAB"), 2)
        assert all(v.rank <= 2 for v, _ in at_cap)
        roomy = neighbors(W("ABAB"), 4)
        assert any(v.rank == 3 for v, _ in roomy)
        assert any(v.rank == 4 for v, _ in roomy)

    def test_rank_above_cap_rejected(self):
        with pytest.raises(ValueError):
            neighbors(W("ABACBC"), 2)

    def test_empty_word_expansions(self):
        images = {str(v) for v, _ in neighbors(EMPTY_WORD, 2)}
        assert images == {"AA", "ABBA", "ABAB"}


class TestMoveApplication:
    def test_involution_everywhere(self):
        rng = random.Random(3)
        pool = enumerate_canonical(3) + rng.sample(enumerate_canonical(5), 60)
        for w in pool:
            for v, mv in neighbors(w, w.rank + 2):
                assert apply_move(w, mv) == v
                assert apply_move(v, invert_move(w, mv)) == w

    def test_invalid_application_rejected(self):
        with pytest.raises(ValueError):
            apply_move(W("ABAB"), MoveApplication("H1", "reduce", (0,)))

    def test_exchange_sites_match_brute_force(self):
        # Every exchange site, in emission order: orientation by orientation,
        # then by the position of the first block.
        rng = random.Random(41)
        pool = [w for r in range(5) for w in enumerate_canonical(r)]
        pool += rng.sample(enumerate_canonical(6), 100)
        found = 0
        for w in pool:
            first, second = _occurrence_tables(w.raw)
            expected = []
            for tag in EXCHANGE_TAGS:
                for side in (0, 1):
                    hits = []
                    for a, b, c in permutations(range(w.rank), 3):
                        site = _exchange_site(w.raw, first, second, _ORIENT[tag, side], a, b, c)
                        if site is not None:
                            hits.append((site[0], MoveApplication(tag, "exchange", (side, a, b, c))))
                    expected += [mv for _, mv in sorted(hits)]
            got = [mv for _, mv in neighbors(w, w.rank) if mv.direction == "exchange"]
            assert got == expected, str(w)
            found += len(got)
        assert found > 100

    def test_exchange_sides_are_mutual(self):
        w = W("ABACBC")
        (site,) = [m for _, m in neighbors(w, 3) if m.tag == "H3"]
        image = apply_move(w, site)
        back = invert_move(w, site)
        assert back.data[0] == 1 - site.data[0]
        assert apply_move(image, back) == w


class TestSearch:
    def test_trivial_pair(self):
        out = search(W("ABBA"), EMPTY_WORD)
        assert out.connected
        assert len(out.trace) >= 1

    def test_published_merge(self):
        out = search(W("ABACDCBD"), W("ABCBDACD"))
        assert out.connected and out.reason is None
        assert out.nodes_explored == 3  # pins the breadth-first order
        w = W("ABACDCBD")
        for mv in out.trace:
            w = apply_move(w, mv)
        assert w == W("ABCBDACD")

    def test_distinguished_pair_stays_unknown(self):
        out = search(W("ABACDCBD"), EMPTY_WORD, rank_cap=6, node_budget=10**6)
        assert out.status == "unknown"
        assert out.reason == "exhausted"
        assert out.nodes_explored == 3252  # pins the breadth-first order

    def test_budget_exhaustion_is_unknown(self):
        out = search(W("ABACDCBD"), EMPTY_WORD, rank_cap=8, node_budget=500)
        assert out.status == "unknown"
        assert out.reason == "budget"
        assert out.nodes_explored > 500

    def test_identical_endpoints(self):
        out = search(W("ABAB"), W("ABAB"))
        assert out.connected and out.trace == []

    def test_traces_stay_canonical(self):
        out = search(W("ABCBCA"), EMPTY_WORD)
        assert out.connected
        w = W("ABCBCA")
        for mv in out.trace:
            w = apply_move(w, mv)  # apply_move only produces canonical words
        assert w == EMPTY_WORD

    def test_render_trace(self):
        out = search(W("ABBA"), EMPTY_WORD)
        lines = render_trace(W("ABBA"), out.trace)
        assert lines[-1].endswith(" -")
        assert all(len(line.split()) == 3 for line in lines)


class TestDerivedMoves:
    def test_h4_to_h7_reachable_by_basic_moves(self):
        # Every derived-move hop must be reproducible with the three basic
        # moves given extra rank headroom.
        rng = random.Random(29)
        pool = enumerate_canonical(3) + rng.sample(enumerate_canonical(4), 30)
        checked = 0
        for w in pool:
            derived = [
                (v, m)
                for v, m in neighbors(w, w.rank + 2)
                if m.tag in ("H4", "H5", "H6", "H7") and m.direction != "expand"
            ]
            if not derived:
                continue
            v, m = rng.choice(derived)
            out = search(w, v, rank_cap=max(w.rank, v.rank) + 4, tags=BASIC)
            assert out.connected, (str(w), m, str(v))
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20


class TestSoundnessAgainstInvariant:
    def test_connected_endpoints_share_values(self, table4, table5):
        from polyak.invariant import evaluate

        rng = random.Random(61)
        pairs = []
        for w in rng.sample(enumerate_canonical(5), 25):
            pairs.append((w, reduce_word(w)))
        for w in rng.sample(enumerate_canonical(4), 15):
            outs = neighbors(w, w.rank + 1)
            pairs.append((w, rng.choice(outs)[0]))
        checked = 0
        for a, b in pairs:
            out = search(a, b, rank_cap=max(a.rank, b.rank) + 2, node_budget=20000)
            if out.connected:
                assert evaluate(table4, a) == evaluate(table4, b)
                assert evaluate(table5, a) == evaluate(table5, b)
                checked += 1
        assert checked >= 30


class TestReduce:
    def test_examples(self):
        assert reduce_word(W("ABBA")) == EMPTY_WORD
        assert reduce_word(W("ABAB")) == EMPTY_WORD
        assert reduce_word(W("ABACBC")) == W("ABACBC")

    def test_fixed_point(self):
        rng = random.Random(8)
        for w in rng.sample(enumerate_canonical(5), 40):
            core = reduce_word(w)
            assert reduce_word(core) == core
            assert core.rank <= w.rank


@st.composite
def canonical_words(draw, max_rank=9):
    rank = draw(st.integers(0, max_rank))
    return canonicalize(draw(st.permutations([x for x in range(rank) for _ in (0, 1)])))


# A word, the rank headroom above it, and a tag set; seeded, so reruns agree.
site_cases = given(canonical_words(), st.integers(0, 2), st.sampled_from([ALL_TAGS, BASIC]))
site_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestSiteEnumeratorProperties:
    """The enumerator's images against the checked path of `_apply`."""

    @site_settings
    @site_cases
    def test_images_match_checked_path(self, w, headroom, tags):
        pairs = neighbors(w, w.rank + headroom, tags)
        assert pairs == [(_apply(w, mv)[0], mv) for _, mv in pairs]

    @site_settings
    @site_cases
    def test_inverse_undoes_every_move(self, w, headroom, tags):
        for _, mv in neighbors(w, w.rank + headroom, tags):
            assert apply_move(apply_move(w, mv), invert_move(w, mv)) == w
