"""Acceptance suite: each numbered criterion runs at its stated tolerance
and prints one PASS line (visible with `pytest -s`).

The degree-7 group structure is a long-running extended target, not a gate;
set POLYAK_EXTENDED=1 to include it.
"""

import hashlib
import importlib
import io
import os
import random
import time

import pytest

from fixtures import (
    DEGREE4_NONZERO_WORDS,
    DEGREE5_VALUE_GROUPS,
    RANK5_CLASS_ROWS,
    UNRESOLVED_SETS,
)
from polyak.classify import classify, report
from polyak.homotopy import apply_move, neighbors, search
from polyak.invariant import (
    element_order,
    evaluate,
    evaluate_combination,
    semiletter_resolution,
)
from polyak.presentation import build_generators, build_presentation, relation_counts
from polyak.smith import (
    SparseMatrix,
    snf_dense_naive,
    snf_sparse_mod2k,
    verify_cokernel_map,
)
from polyak.words import EMPTY_WORD, GaussWord, enumerate_canonical
from polyak.words import _iter_canonical_bytes

W = GaussWord.from_text
DOUBLE_FACTORIALS = [1, 1, 3, 15, 105, 945, 10395, 135135]


def announce(cid: str, message: str) -> None:
    print(f"ACCEPTANCE {cid} PASS: {message}")


class TestCriterion1Enumeration:
    def test_counts_and_speed(self):
        t0 = time.monotonic()
        for rank in range(7):
            count = sum(1 for _ in _iter_canonical_bytes(rank))
            assert count == DOUBLE_FACTORIALS[rank], rank
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"rank <= 6 enumeration took {elapsed:.2f}s"
        count7 = sum(1 for _ in _iter_canonical_bytes(7))
        assert count7 == DOUBLE_FACTORIALS[7]
        announce("1", f"double-factorial counts r=0..7; r<=6 in {elapsed:.2f}s")


class TestCriterion2Table1:
    def test_degree4(self, pres4):
        assert len(pres4.generators) == 42
        assert len(pres4.relations) == 97
        assert pres4.raw_counts == (161, 62)
        announce("2a", "degree 4: 42 generators, raw 161+62, 97 unique")

    def test_degree5(self, pres5):
        assert len(pres5.generators) == 371
        assert len(pres5.relations) == 998
        assert pres5.raw_counts == (1806, 672)
        announce("2b", "degree 5: 371 generators, raw 1806+672, 998 unique")

    def test_degree6(self):
        t0 = time.monotonic()
        counts = relation_counts(6)
        elapsed = time.monotonic() - t0
        assert counts.generators == 4026
        assert (counts.g2_raw, counts.g3_raw) == (23736, 8652)
        assert counts.unique == 12287
        assert elapsed < 60, f"degree 6 scan took {elapsed:.1f}s"
        announce("2c", f"degree 6 counts exact in {elapsed:.1f}s")

    @pytest.mark.slow
    def test_degree7(self):
        t0 = time.monotonic()
        counts = relation_counts(7)
        elapsed = time.monotonic() - t0
        assert counts.generators == 51870
        assert (counts.g2_raw, counts.g3_raw) == (358644, 128926)
        assert counts.unique == 176591
        assert elapsed < 3600, f"degree 7 scan took {elapsed:.1f}s"
        announce("2d", f"degree 7 counts exact in {elapsed:.1f}s")

    @pytest.mark.slow
    def test_degree8_counts_only(self):
        t0 = time.monotonic()
        counts = relation_counts(8)
        elapsed = time.monotonic() - t0
        assert counts.generators == 773185
        assert counts.unique == 2900594
        announce("2e", f"degree 8 counts-only exact in {elapsed:.0f}s")


def _group_exponents(degree):
    pres = build_presentation(degree)
    if not pres.relations:
        return {}
    result = snf_sparse_mod2k(pres.matrix(), max(degree - 1, 1))
    assert verify_cokernel_map(pres.matrix(), result)
    powers: dict[int, int] = {}
    for d in result.divisors:
        if d > 1:
            powers[d] = powers.get(d, 0) + 1
    return powers


class TestCriterion3GroupStructures:
    def test_low_degrees_free(self):
        assert len(build_generators(0)) == 0
        for degree in (1, 2, 3):
            assert _group_exponents(degree) == {}
        announce("3a", "degrees 0..3 give the free group alone")

    def test_degree4(self):
        assert _group_exponents(4) == {2: 1}
        announce("3b", "degree 4 torsion is exactly Z/2")

    def test_degree5_under_one_second(self, pres5):
        t0 = time.monotonic()
        result = snf_sparse_mod2k(pres5.matrix(), 4)
        elapsed = time.monotonic() - t0
        powers = {}
        for d in result.divisors:
            if d > 1:
                powers[d] = powers.get(d, 0) + 1
        assert powers == {2: 6, 4: 1}
        assert elapsed < 1.0, f"degree 5 elimination took {elapsed:.2f}s"
        announce("3c", f"degree 5 torsion (Z/2)^6 + Z/4 in {elapsed:.2f}s")

    @pytest.mark.slow
    def test_degree6_under_five_minutes(self):
        t0 = time.monotonic()
        assert _group_exponents(6) == {2: 32, 4: 6, 8: 1}
        elapsed = time.monotonic() - t0
        assert elapsed < 300, f"degree 6 run took {elapsed:.1f}s"
        announce("3d", f"degree 6 torsion (Z/2)^32 + (Z/4)^6 + Z/8 in {elapsed:.1f}s")

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("POLYAK_EXTENDED"),
        reason="degree-7 group structure is an extended, non-gating target "
        "(hours of runtime); set POLYAK_EXTENDED=1 to run it",
    )
    def test_degree7_extended(self):
        assert _group_exponents(7) == {2: 188, 4: 32, 8: 6, 16: 1}
        announce("3e", "degree 7 torsion (Z/2)^188 + (Z/4)^32 + (Z/8)^6 + Z/16")


class TestCriterion4Degree4Invariant:
    def test_exact_table(self, table4):
        assert table4.moduli == (2,)
        assert sorted(str(w) for w in table4.words()) == DEGREE4_NONZERO_WORDS
        assert all(vec == (1,) for _, vec in table4.items())
        assert evaluate(table4, W("ABACDCBD")) == (1,)
        assert evaluate(table4, EMPTY_WORD) == (0,)
        announce("4", "degree-4 table holds exactly the six published words")


class TestCriterion5Degree5Invariant:
    def test_nonzero_word_set(self, table5):
        expected = {w for row in DEGREE5_VALUE_GROUPS for w in row}
        assert {str(w) for w in table5.words()} == expected
        announce("5a", f"degree-5 nonzero set matches all {len(expected)} words")

    def test_equality_partition(self, table5):
        groups = {}
        for w, vec in table5.items():
            groups.setdefault(vec, set()).add(str(w))
        ours = {frozenset(g) for g in groups.values()}
        published = {frozenset(row) for row in DEGREE5_VALUE_GROUPS}
        assert ours == published
        announce("5b", f"value-equality partition matches all {len(published)} groups")

    def test_element_orders(self, table5):
        order4_words = ["ABACDCBD", "ABCBDACD", "ABCDCADB",
                        "ABCACDBD", "ABCADBDC", "ABCDBDAC"]
        for w in order4_words:
            assert element_order(table5.value(W(w)), table5.moduli) == 4, w
        assert element_order(table5.value(W("ABACBDCD")), table5.moduli) == 2
        announce("5c", "element orders: 4 on both odd-final rows, 2 on ABACBDCD")

    def test_doubling_relation(self, table5):
        v1 = table5.value(W("ABACDCBD"))
        vp = table5.value(W("ABACDECBDE"))
        doubled = tuple(2 * c % d for c, d in zip(v1, table5.moduli))
        assert doubled == vp
        announce("5d", "2*v(ABACDCBD) = v(ABACDECBDE) in the torsion group")


class TestCriterion6Degree6Count:
    @pytest.mark.slow
    def test_nonzero_count(self, table6):
        assert len(table6) == 2545
        announce("6", "degree-6 table holds 2545 nonzero words")


class TestCriterion7Classification:
    def test_rank4_classes(self, table5):
        c = classify(4, table5)
        assert len(c.classes) == 4 and not c.unresolved
        member_sets = {frozenset(str(w) for w in cls.words) for cls in c.classes}
        assert frozenset({"ABACDCBD", "ABCBDACD", "ABCDCADB"}) in member_sets
        assert frozenset({"ABCACDBD", "ABCADBDC", "ABCDBDAC"}) in member_sets
        assert frozenset({"ABACBDCD"}) in member_sets
        for cls in c.classes:
            for w in cls.words:
                x = w
                for mv in c.trace(w):
                    x = apply_move(x, mv)
                assert x == cls.root
        announce("7a", "rank-4 words fall into the four published classes with traces")

    @pytest.mark.slow
    def test_rank5_partition(self, table6):
        c = classify(5, table6)
        word_class = {}
        for idx, cls in enumerate(c.classes):
            for w in cls.words:
                word_class[str(w)] = idx
        # 37 single rows + the split first row + the trivial class
        assert len(c.classes) == len(RANK5_CLASS_ROWS) + 2
        for row in RANK5_CLASS_ROWS[1:]:
            ids = {word_class[w] for w in row}
            assert len(ids) == 1, f"row {row} split across classes"
        distinct = [word_class[row[0]] for row in RANK5_CLASS_ROWS[1:]]
        assert len(set(distinct)) == len(distinct)
        set1, set2 = UNRESOLVED_SETS
        ids1 = {word_class[w] for w in set1}
        ids2 = {word_class[w] for w in set2}
        assert len(ids1) == 1 and len(ids2) == 1 and ids1 != ids2
        assert c.unresolved == [tuple(sorted(ids1 | ids2))]
        a, b = c.unresolved[0]
        assert c.classes[a].value == c.classes[b].value
        trivial = word_class["-"]
        assert not any(c.classes[trivial].value)
        # move traces replay inside the nontrivial classes
        for idx, cls in enumerate(c.classes):
            if idx == trivial:
                continue
            for w in cls.words:
                x = w
                for mv in c.trace(w):
                    x = apply_move(x, mv)
                assert x == cls.root
        announce(
            "7b",
            "rank-5 classification reproduces the published rows with one "
            "unresolved pair",
        )

    @pytest.mark.slow
    def test_rank6_classification_pinned(self, table6, monkeypatch):
        # Pinned output of classify(6, table6): the report, every word's
        # move trace, and the search effort.  The node total fixes the
        # breadth-first order of every search, so a change to the move
        # order fails here.
        nodes = []

        def counted(*args, **kwargs):
            out = search(*args, **kwargs)
            nodes.append(out.nodes_explored)
            return out

        monkeypatch.setattr(importlib.import_module("polyak.classify"), "search", counted)
        t0 = time.monotonic()
        c = classify(6, table6)
        elapsed = time.monotonic() - t0
        buf = io.StringIO()
        report(c, buf)
        assert (len(c.classes), len(c.unresolved)) == (512, 9)
        assert (
            hashlib.sha256(buf.getvalue().encode()).hexdigest()
            == "b8eac0c5c96c4e7b5fb37acee74fd2f6d54f79dc5068e23933de9827baa22935"
        )
        assert (len(nodes), sum(nodes)) == (823, 901326)
        traces = []
        for cls in c.classes:
            for w in cls.words:
                moves = c.trace(w)
                x = w
                for mv in moves:
                    x = apply_move(x, mv)
                assert x == cls.root
                traces.append((w, ";".join(map(str, moves))))
        text = "".join(f"{w} {moves}\n" for w, moves in sorted(traces))
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "efcdf33a177e2c690d3842609f4fdb70270e6806adfed74585fa23038dfe01de"
        )
        announce(
            "7d",
            f"rank <= 6: 512 classes, 9 unresolved pairs, pinned report, "
            f"every trace replays; classify took {elapsed:.1f}s",
        )

    def test_rank3_single_class(self, table5):
        c = classify(3, table5)
        assert len(c.classes) == 1 and not c.unresolved
        announce("7c", "all words of rank <= 3 collapse to the trivial class")


class TestCriterion8PropertySuites:
    def test_homotopy_invariance_fuzz(self, table4, table5):
        rng = random.Random(2024)
        basic = frozenset({"H1", "H2", "H3"})
        pool = (
            enumerate_canonical(3)
            + rng.sample(enumerate_canonical(4), 60)
            + rng.sample(enumerate_canonical(5), 120)
            + rng.sample(enumerate_canonical(6), 120)
        )
        applications = 0
        for w in pool:
            v4 = evaluate(table4, w)
            v5 = evaluate(table5, w)
            options = neighbors(w, w.rank + 2, tags=basic)
            picks = rng.sample(options, min(4, len(options)))
            for image, move in picks:
                assert evaluate(table4, image) == v4, (str(w), move)
                assert evaluate(table5, image) == v5, (str(w), move)
                applications += 1
        assert applications >= 1000
        announce("8a", f"invariance held across {applications} move applications")

    def test_semiletter_degree_bound(self, table4, table5):
        rng = random.Random(77)
        checked = 0
        for table, marks in ((table4, 5), (table5, 6)):
            for rank in (marks, marks + 1):
                for w in rng.sample(enumerate_canonical(rank), 25):
                    letters = rng.sample(list(w.letter_set()), marks)
                    total, value = evaluate_combination(
                        table, semiletter_resolution(w, letters)
                    )
                    assert total == 0
                    assert not any(value)
                    checked += 1
        announce("8b", f"degree bound: {checked} over-marked resolutions vanish")

    def test_relator_vanishing(self, pres4, pres5, table4, table5):
        # A relation vector lives over generator ids; it maps to the value
        # group through the stored vectors, and must land on zero there.
        for pres, table in ((pres4, table4), (pres5, table5)):
            for rel in pres.relations:
                acc = [0] * len(table.moduli)
                for gid, coef in rel.terms:
                    for t, comp in enumerate(table.value(pres.generators[gid])):
                        acc[t] += coef * comp
                assert not any(a % d for a, d in zip(acc, table.moduli)), rel
        announce("8c", "every degree-4/5 relation maps to zero value")

    def test_g2_relator_combination_example(self, table4, table5):
        combo = [(1, W("ABCACB")), (2, W("ABAB"))]
        for table in (table4, table5):
            total, value = evaluate_combination(table, combo)
            assert total == 3 and not any(value)
        announce("8c'", "the low-rank relator combination evaluates to zero")

    @pytest.mark.slow
    def test_relator_vanishing_degree6(self, table6):
        pres = build_presentation(6)
        for rel in pres.relations:
            acc = [0] * len(table6.moduli)
            for gid, coef in rel.terms:
                for t, comp in enumerate(table6.value(pres.generators[gid])):
                    acc[t] += coef * comp
            assert not any(a % d for a, d in zip(acc, table6.moduli)), rel
        announce("8d", "every degree-6 relation maps to zero value")

    def test_torsion_bound(self, table4, table5, table6):
        for table in (table4, table5, table6):
            for w, vec in table.items():
                bound = 1 << (table.degree - w.rank + 1)
                assert element_order(vec, table.moduli) <= bound
        announce("8e", "2-power torsion bound holds on every stored value")

    def test_snf_oracle_500(self):
        rng = random.Random(500)
        for _ in range(500):
            s = rng.randint(1, 10)
            t = rng.randint(1, 12)
            k = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(t)] for _ in range(s)]
            aug = [
                row + [(1 << k) if x == i else 0 for x in range(s)]
                for i, row in enumerate(A)
            ]
            dense_divisors, _, _ = snf_dense_naive(aug)
            sp = SparseMatrix.from_entries(
                s,
                t + s,
                ((i, j, v) for i, row in enumerate(aug) for j, v in enumerate(row) if v),
            )
            res = snf_sparse_mod2k(sp, k)
            assert list(res.divisors) == sorted(dense_divisors)
            assert verify_cokernel_map(sp, res)
        announce("8f", "sparse/dense divisors agree on 500 random matrices")

    def test_cokernel_map_on_production_runs(self, pres4, pres5):
        for pres, k in ((pres4, 3), (pres5, 4)):
            A = pres.matrix()
            res = snf_sparse_mod2k(A, k)
            assert verify_cokernel_map(A, res)
        announce("8g", "cokernel map verified on production eliminations")

    def test_column_shuffle_invariance(self, pres5):
        A = pres5.matrix()
        base = snf_sparse_mod2k(A, 4)
        rng = random.Random(8)
        cols = list(A.col_entries)
        rng.shuffle(cols)
        shuffled = SparseMatrix.from_columns(A.rows, [list(c.items()) for c in cols])
        other = snf_sparse_mod2k(shuffled, 4)
        assert base.divisors == other.divisors
        announce("8h", "divisor multiset is stable under column shuffling")
