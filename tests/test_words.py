import random
from itertools import combinations, permutations
from math import comb

import pytest

from polyak.homotopy import neighbors
from polyak.words import (
    EMPTY_WORD,
    GaussWord,
    angle_bracket,
    canonicalize,
    delete_letters,
    enumerate_canonical,
    has_adjacent_double,
)

W = GaussWord.from_text


def match_h2(w):
    """Pairs (A, B) with w = xAByBAz: the interleaved-pair deletion sites."""
    return [m.data for _, m in neighbors(w, w.rank, {"H2"})]


def match_h3(w):
    """Triples (A, B, C) with w = xAByACzBCt: the side-0 H3 exchange sites."""
    return [m.data[1:] for _, m in neighbors(w, w.rank, {"H3"}) if m.data[0] == 0]


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def canonical_oracle(seq):
    """Independent canonicalization: the unique relabeling of the letter set
    whose first occurrences come in increasing order."""
    letters = sorted(set(seq))
    found = []
    for perm in permutations(range(len(letters))):
        relabel = dict(zip(letters, perm))
        image = [relabel[x] for x in seq]
        firsts = []
        for x in image:
            if x not in firsts:
                firsts.append(x)
        if firsts == sorted(firsts):
            found.append(tuple(image))
    assert len(set(found)) == 1
    return found[0]


class TestCanonicalize:
    def test_already_canonical(self):
        assert str(canonicalize("ABAB")) == "ABAB"

    def test_relabel(self):
        assert str(canonicalize("BAAB")) == "ABBA"

    def test_three_letter_relabel(self):
        assert str(canonicalize("BCACBA")) == "ABCBAC"
        assert canonicalize("BCACBA").letters == canonical_oracle(b"BCACBA")

    @pytest.mark.parametrize("bad", ["ABA", "AABBB", "ABC", "AAAB"])
    def test_rejects_wrong_multiplicity(self, bad):
        with pytest.raises(ValueError):
            canonicalize(bad)

    @pytest.mark.parametrize(
        "bad, pos",
        [("ABCA", 1), ("ABAAB", 3)],  # B occurs once; A's third occurrence
    )
    def test_wrong_multiplicity_names_position(self, bad, pos):
        with pytest.raises(ValueError, match=f"position {pos}"):
            canonicalize(bad)

    def test_idempotent_and_bijection_invariant(self):
        rng = random.Random(11)
        for w in enumerate_canonical(4):
            assert canonicalize(w.letters) == w
            perm = list(range(w.rank))
            rng.shuffle(perm)
            shuffled = [perm[x] for x in w.letters]
            assert canonicalize(shuffled) == w
            assert canonical_oracle(tuple(w.letters)) == w.letters

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            GaussWord([1, 0, 1, 0])

    def test_text_round_trip(self):
        assert str(W("-")) == "-"
        assert str(W("ABACBC")) == "ABACBC"
        with pytest.raises(ValueError):
            W("AB1B")


class TestEnumerate:
    @pytest.mark.parametrize("rank", range(6))
    def test_double_factorial_count(self, rank):
        assert len(enumerate_canonical(rank)) == double_factorial(2 * rank - 1)

    def test_rank0(self):
        assert enumerate_canonical(0) == [EMPTY_WORD]

    def test_sorted_canonical_distinct(self):
        for rank in range(5):
            words = enumerate_canonical(rank)
            raws = [w.raw for w in words]
            assert raws == sorted(raws)
            assert len(set(raws)) == len(raws)
            assert all(canonicalize(w.letters) == w for w in words)


class TestAdjacentDouble:
    def test_examples(self):
        assert has_adjacent_double(W("ABBA"))
        assert not has_adjacent_double(W("ABAB"))
        assert not has_adjacent_double(EMPTY_WORD)


class TestDeleteLetters:
    def test_single_deletion(self):
        assert str(delete_letters(W("ABACBC"), {1})) == "AABB"

    def test_delete_all(self):
        assert delete_letters(W("ABAB"), {0, 1}) == EMPTY_WORD
        for w in enumerate_canonical(3):
            assert delete_letters(w, set(w.letter_set())) == EMPTY_WORD

    def test_identity(self):
        assert delete_letters(W("ABACBC"), set()) == W("ABACBC")

    def test_missing_letter(self):
        with pytest.raises(ValueError):
            delete_letters(W("ABAB"), {5})


class TestAngleBracket:
    def test_self(self):
        assert angle_bracket(W("ABAB"), W("ABAB")) == 1

    def test_empty_subword(self):
        for w in [EMPTY_WORD, W("ABAB"), W("ABACBC")]:
            assert angle_bracket(EMPTY_WORD, w) == 1

    def test_derived_example(self):
        assert angle_bracket(W("ABAB"), W("ABCABC")) == 3

    def test_against_oracle(self):
        rng = random.Random(5)
        rank3 = enumerate_canonical(3)
        pool = enumerate_canonical(2) + rank3
        targets = rng.sample(enumerate_canonical(4), 12)
        for u in rng.sample(pool, 6):
            for w in targets:
                expected = sum(
                    1
                    for subset in combinations(range(w.rank), u.rank)
                    for induced in [[x for x in w.letters if x in set(subset)]]
                    if canonical_oracle(tuple(induced)) == u.letters
                )
                assert angle_bracket(u, w) == expected

    def test_isomorphism_invariance(self):
        rng = random.Random(17)
        for w in rng.sample(enumerate_canonical(4), 10):
            perm = list(range(w.rank))
            rng.shuffle(perm)
            relabeled = canonicalize([perm[x] for x in w.letters])
            for u in enumerate_canonical(2):
                assert angle_bracket(u, w) == angle_bracket(u, relabeled)

    def test_subset_partition_sum(self):
        # Every k-letter subset lands on exactly one canonical class.
        for w in [W("ABACBC"), W("ABCDBDAC"), W("ABCABC")]:
            for k in range(w.rank + 1):
                total = sum(angle_bracket(u, w) for u in enumerate_canonical(k))
                assert total == comb(w.rank, k)


def match_h2_oracle(w):
    out = []
    seq = w.letters
    n = len(seq)
    for a in sorted(set(seq)):
        for b in sorted(set(seq)):
            if a == b:
                continue
            pa = [i for i, x in enumerate(seq) if x == a]
            pb = [i for i, x in enumerate(seq) if x == b]
            if pb[0] == pa[0] + 1 and pa[1] == pb[1] + 1:
                out.append((a, b))
    return out


def match_h3_oracle(w):
    out = []
    seq = w.letters
    for a in sorted(set(seq)):
        for b in sorted(set(seq)):
            for c in sorted(set(seq)):
                if len({a, b, c}) != 3:
                    continue
                pa = [i for i, x in enumerate(seq) if x == a]
                pb = [i for i, x in enumerate(seq) if x == b]
                pc = [i for i, x in enumerate(seq) if x == c]
                if (
                    pb[0] == pa[0] + 1
                    and pc[0] == pa[1] + 1
                    and pc[1] == pb[1] + 1
                    and pb[0] < pa[1]
                    and pc[0] < pb[1]
                ):
                    out.append((a, b, c))
    return out


class TestPatternMatches:
    def test_h2_examples(self):
        assert [tuple(m) for m in match_h2(W("ABCACB"))] == [(1, 2)]
        assert match_h2(W("ABAB")) == []
        assert [tuple(m) for m in match_h2(W("ABBA"))] == [(0, 1)]

    def test_h3_examples(self):
        assert [tuple(m) for m in match_h3(W("ABACBC"))] == [(0, 1, 2)]
        assert match_h3(W("ABAB")) == []

    def test_h3_regression_fixture(self):
        # Frozen from the positional brute-force oracle: no site matches.
        w = W("ABCACDBD")
        assert match_h3_oracle(w) == []
        assert match_h3(w) == []
        # A word where the scan does fire, frozen the same way.
        w2 = W("ABCADCDEBE")
        assert [tuple(m) for m in match_h3(w2)] == match_h3_oracle(w2)

    def test_against_oracles_rank4(self):
        for w in enumerate_canonical(4):
            assert sorted(tuple(m) for m in match_h2(w)) == sorted(match_h2_oracle(w))
            assert sorted(tuple(m) for m in match_h3(w)) == sorted(match_h3_oracle(w))
