import io
import random

import numpy as np
import pytest
from reference_scan import reference_presentation, reference_scan

from polyak.homotopy import neighbors
from polyak.presentation import (
    RelationList,
    RelationVector,
    _delete,
    build_generators,
    build_presentation,
    g2_relations,
    g3_relations,
    load_presentation,
    relation_counts,
    save_presentation,
    truncate_term,
)
from polyak.smith import SparseMatrix
from polyak.words import (
    GaussWord,
    _canonical_bytes,
    delete_letters,
    enumerate_canonical,
    has_adjacent_double,
)

W = GaussWord.from_text


class TestGeneratorTable:
    def test_degree2(self):
        table = build_generators(2)
        assert [str(w) for w in table.words] == ["ABAB"]

    def test_degree1_empty(self):
        assert len(build_generators(1)) == 0

    def test_counts(self):
        assert len(build_generators(4)) == 42
        assert len(build_generators(5)) == 371

    def test_rank_major_lexicographic(self):
        table = build_generators(4)
        keys = [(w.rank, w.raw) for w in table.words]
        assert keys == sorted(keys)
        assert all(not has_adjacent_double(w) for w in table.words)

    def test_index_round_trip(self):
        table = build_generators(4)
        for i, w in enumerate(table.words):
            assert table.id_of(w) == i


class TestTruncateTerm:
    def test_adjacent_double_drops(self):
        table = build_generators(4)
        assert truncate_term(table, W("AABB")) is None

    def test_rank_bound_drops(self):
        table = build_generators(4)
        rank5 = enumerate_canonical(5)[500]
        assert truncate_term(table, rank5) is None

    def test_empty_drops(self):
        table = build_generators(4)
        assert truncate_term(table, W("-")) is None

    def test_generator_id(self):
        table = build_generators(4)
        assert truncate_term(table, W("ABAB")) == table.id_of(W("ABAB"))


class TestRelationVector:
    def test_sign_normalization(self):
        assert RelationVector([(3, -1), (5, 2)]).terms == ((3, 1), (5, -2))

    def test_drops_zeros(self):
        assert RelationVector([(1, 0), (2, 1)]).terms == ((2, 1),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RelationVector([(1, 0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            RelationVector([(1, 1), (1, 1)])


class TestRelations:
    def test_g2_example_vector(self):
        table = build_generators(3)
        rels, raw = g2_relations(3, table)
        expected = RelationVector(
            [(table.id_of(W("ABCACB")), 1), (table.id_of(W("ABAB")), 2)]
        )
        assert expected in rels
        assert raw >= len(rels)

    def test_g2_degree4_raw_count(self):
        _, raw = g2_relations(4)
        assert raw == 161

    def test_g3_example_vector(self):
        # Expanding the eight terms at the unique site of ABACBC leaves
        # [ABACBC] + [ABAB] - [ABCBCA] after truncation and merging.
        table = build_generators(3)
        rels, raw = g3_relations(3, table)
        expected = RelationVector(
            [
                (table.id_of(W("ABACBC")), 1),
                (table.id_of(W("ABAB")), 1),
                (table.id_of(W("ABCBCA")), -1),
            ]
        )
        assert expected in rels

    def test_g3_degree4_raw_count(self):
        _, raw = g3_relations(4)
        assert raw == 62

    def test_coefficient_ranges_degree4(self, pres4):
        table = pres4.generators
        g2, _ = g2_relations(4, table)
        for rel in g2:
            assert set(c for _, c in rel.terms) <= {1, 2}
        g3, _ = g3_relations(4, table)
        for rel in g3:
            assert all(-2 <= c <= 2 and c != 0 for _, c in rel.terms)

    def test_valid_ids_and_distinct(self, pres5):
        seen = set()
        for rel in pres5.relations:
            assert rel.terms not in seen
            seen.add(rel.terms)
            for g, _ in rel.terms:
                assert 0 <= g < len(pres5.generators)


class TestBuildPresentation:
    def test_degree4(self, pres4):
        assert len(pres4.generators) == 42
        assert len(pres4.relations) == 97
        assert pres4.raw_counts == (161, 62)

    def test_degree5(self, pres5):
        assert len(pres5.generators) == 371
        assert len(pres5.relations) == 998
        assert pres5.raw_counts == (1806, 672)

    def test_degree1_trivial(self):
        pres = build_presentation(1)
        assert len(pres.generators) == 0
        assert pres.relations == ()

    def test_deterministic_serialization(self, pres4):
        again = build_presentation(4)
        a, b = io.StringIO(), io.StringIO()
        save_presentation(pres4, a)
        save_presentation(again, b)
        assert a.getvalue() == b.getvalue()

    def test_worker_fanout_matches_sequential(self, pres4):
        parallel = build_presentation(4, workers=2)
        a, b = io.StringIO(), io.StringIO()
        save_presentation(pres4, a)
        save_presentation(parallel, b)
        assert a.getvalue() == b.getvalue()


class TestSerialization:
    def test_round_trip(self, pres4):
        buf = io.StringIO()
        save_presentation(pres4, buf)
        buf.seek(0)
        loaded = load_presentation(buf)
        assert loaded.degree == pres4.degree
        assert loaded.generators.words == pres4.generators.words
        assert loaded.relations == pres4.relations

    def test_header_line(self, pres4):
        buf = io.StringIO()
        save_presentation(pres4, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# polyak-presentation v1"
        assert lines[1] == "degree 4"
        assert lines[2] == "generators 42"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            load_presentation(io.StringIO("# something else\n"))

    def test_bad_relation_id_rejected(self, pres4):
        buf = io.StringIO()
        save_presentation(pres4, buf)
        text = buf.getvalue().rstrip("\n").splitlines()
        text[-1] = "99999:1"
        with pytest.raises(ValueError):
            load_presentation(io.StringIO("\n".join(text) + "\n"))

    def test_negative_relation_id_names_line(self):
        buf = io.StringIO()
        save_presentation(build_presentation(3), buf)
        lines = buf.getvalue().splitlines()
        no = lines.index("relations 12") + 2
        lines[no - 1] = "-1:1"
        with pytest.raises(ValueError, match=rf"^line {no}: generator id -1 out of range"):
            load_presentation(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ls: ls[:-1], "unexpected end"),
            (lambda ls: ls[:-1] + ["3:1 2:1"], "ascending"),
            (lambda ls: ls[:-1] + ["3:1 3:1"], "ascending"),
            (lambda ls: ls[:-1] + ["3"], "malformed term"),
            (lambda ls: ls[:-1] + ["3:0"], "zero coefficient"),
            (lambda ls: ls[:-1] + [""], "empty relation"),
            (lambda ls: ls[:3] + ["0"] + ls[4:], "expected '<id> <word>'"),
        ],
    )
    def test_malformed_lines_name_their_number(self, edit, message):
        buf = io.StringIO()
        save_presentation(build_presentation(3), buf)
        lines = edit(buf.getvalue().splitlines())
        bad = 4 if message.startswith("expected") else len(buf.getvalue().splitlines())
        with pytest.raises(ValueError, match=rf"^line {bad}: .*{message}"):
            load_presentation(io.StringIO("\n".join(lines) + "\n"))

    def test_negative_leading_coefficient_is_normalized(self):
        loaded = load_presentation(io.StringIO(
            "# polyak-presentation v1\ndegree 3\ngenerators 1\n0 ABAB\nrelations 1\n0:-2\n"
        ))
        assert list(loaded.relations) == [RelationVector([(0, 2)])]


class TestRelationList:
    def test_sequence_protocol(self, pres4):
        rels = pres4.relations
        vectors = list(rels)
        assert len(vectors) == len(rels) == 97
        assert rels[0] == vectors[0] and rels[-1] == vectors[-1]
        assert rels[2:5] == tuple(vectors[2:5])
        assert vectors[7] in rels
        with pytest.raises(IndexError):
            rels[97]

    def test_equality_with_plain_sequences(self, pres4):
        vectors = list(pres4.relations)
        assert pres4.relations == vectors
        assert pres4.relations == tuple(vectors)
        assert pres4.relations != vectors[:-1]
        assert RelationList([0], [], []) == ()

    def test_matrix_matches_column_build(self, pres5):
        expected = SparseMatrix.from_columns(
            len(pres5.generators), (rel.terms for rel in pres5.relations)
        )
        assert pres5.matrix().col_entries == expected.col_entries

    def test_from_csc_rejects_out_of_range_rows(self):
        with pytest.raises(IndexError):
            SparseMatrix.from_csc(2, np.array([0, 1]), np.array([2]), np.array([1]))


class TestBatchedScanMatchesReference:
    """The batched numpy scan against the per-word reference scan."""

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_relations_and_counts(self, degree):
        table = build_generators(degree)
        raw2, raw3, rel2, rel3, union = reference_scan(degree, table)
        g2, got2 = g2_relations(degree, table)
        g3, got3 = g3_relations(degree, table)
        assert (got2, got3) == (raw2, raw3)
        assert list(g2) == rel2
        assert list(g3) == rel3
        pres = build_presentation(degree)
        assert pres.raw_counts == (raw2, raw3)
        assert list(pres.relations) == union
        counts = relation_counts(degree)
        assert (counts.g2_raw, counts.g3_raw, counts.unique) == (raw2, raw3, len(union))

    @pytest.mark.parametrize("degree, workers", [(2, 1), (3, 1), (4, 1), (5, 1), (5, 2), (6, 1)])
    def test_saved_bytes(self, degree, workers):
        a, b = io.StringIO(), io.StringIO()
        save_presentation(build_presentation(degree, workers=workers), a)
        save_presentation(reference_presentation(degree), b)
        assert a.getvalue() == b.getvalue()


def _random_word(rng, rank):
    letters = [x for x in range(rank) for _ in range(2)]
    rng.shuffle(letters)
    return _canonical_bytes(letters)


def test_canonical_image_identities():
    """The three facts the batched scan relies on, on seeded random words."""
    rng = random.Random(20240611)
    deletions = matches2 = matches3 = 0
    for rank in range(3, 13):
        for _ in range(300):
            raw = _random_word(rng, rank)
            w = GaussWord._wrap(raw)
            # 1. Deleting x is "drop both x, decrement every label above x".
            for x in range(rank):
                dropped = bytes(b - (b > x) for b in raw if b != x)
                assert delete_letters(w, [x]).raw == dropped
                deletions += 1
            # 2. The inner letter of every match is the outer letter plus one.
            # xAByBAz is an H2 deletion site, xAByACzBCt a side-0 H3 exchange.
            for _, m in neighbors(w, rank, {"H2"}):
                outer, inner = m.data
                assert inner == outer + 1
                matches2 += 1
            for _, m in neighbors(w, rank, {"H3"}):
                if m.data[0] != 0:
                    continue
                _, a, b, c = m.data
                assert b == a + 1
                matches3 += 1
                # 3. The block-reversed word is canonical once A and A+1 trade.
                pos = [i for i, x in enumerate(raw) if x in (a, b, c)]
                wp = bytearray(raw)
                for i, j in ((pos[0], pos[1]), (pos[2], pos[3]), (pos[4], pos[5])):
                    wp[i], wp[j] = wp[j], wp[i]
                swapped = bytes(a + 1 if x == a else a if x == a + 1 else x for x in wp)
                assert _canonical_bytes(wp) == swapped
    assert deletions == 300 * sum(range(3, 13))
    assert (matches2, matches3) == (1384, 394)


def test_batched_delete_matches_delete_letters():
    rng = random.Random(7)
    for rank in (3, 6, 8):
        raws = [_random_word(rng, rank) for _ in range(50)]
        letters = np.array([rng.randrange(rank) for _ in raws])
        block = np.frombuffer(b"".join(raws), dtype=np.uint8).reshape(50, 2 * rank)
        got = _delete(block, letters)
        for raw, x, row in zip(raws, letters.tolist(), got):
            assert bytes(row) == delete_letters(GaussWord._wrap(raw), [x]).raw
