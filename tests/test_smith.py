import io
import random

import numpy as np

from polyak.smith import (
    _OP_ADD,
    _OP_SCALE,
    RowOpLog,
    SparseMatrix,
    load_matrix_text,
    save_matrix_text,
    snf_dense_naive,
    snf_sparse_mod2k,
    u_rows_replay,
    verify_cokernel_map,
)


def random_augmented(rng, max_s=10, max_t=12):
    s = rng.randint(1, max_s)
    t = rng.randint(1, max_t)
    k = rng.randint(1, 4)
    A = [[rng.randint(-9, 9) for _ in range(t)] for _ in range(s)]
    aug = [row + [(1 << k) if x == i else 0 for x in range(s)] for i, row in enumerate(A)]
    sp = SparseMatrix.from_entries(
        s, t + s, ((i, j, v) for i, row in enumerate(aug) for j, v in enumerate(row) if v)
    )
    return aug, sp, k


def apply_log(log, x, m):
    """Apply the logged row operations, in order, to the rows of x mod m.

    On the identity this is the full transformation U; on a column vector v
    it is U v.
    """
    x = np.array(x, dtype=np.int64)
    for kind, a, b, c in log:
        if kind == _OP_ADD:
            x[b] = (x[b] + c * x[a]) % m
        elif kind == _OP_SCALE:
            x[a] = x[a] * b % m
        else:
            x[[a, b]] = x[[b, a]]
    return x


def undo_log(log, x, m):
    """Inverse of apply_log: the inverse operations in reverse order."""
    x = np.array(x, dtype=np.int64)
    for kind, a, b, c in reversed(list(log)):
        if kind == _OP_ADD:
            x[b] = (x[b] - c * x[a]) % m
        elif kind == _OP_SCALE:
            x[a] = x[a] * pow(b, -1, m) % m
        else:
            x[[a, b]] = x[[b, a]]
    return x


def forward_tail_rows(res, s):
    """u_rows recomputed by running the engine's log forward on np.eye(s)."""
    U = apply_log(res.log, np.eye(s, dtype=np.int64), res.modulus)
    return U[res.nontrivial_start :]


class TestDenseNaive:
    def test_identity(self):
        d, U, V = snf_dense_naive([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert d == [1, 1, 1]

    def test_two_by_two(self):
        # d1 = gcd of entries, d1*d2 = |det|
        d, U, V = snf_dense_naive([[2, 4], [6, 8]])
        assert d == [2, 4]

    def test_zero_matrix_free_quotient(self):
        d, U, V = snf_dense_naive([[0, 0, 0], [0, 0, 0]])
        assert d == [0, 0]

    def test_divisor_chain_random(self):
        rng = random.Random(23)
        for _ in range(50):
            s, t = rng.randint(1, 8), rng.randint(1, 8)
            A = [[rng.randint(-6, 6) for _ in range(t)] for _ in range(s)]
            d, U, V = snf_dense_naive(A)
            for a, b in zip(d, d[1:]):
                assert b == 0 or (a != 0 and b % a == 0)

    def test_unimodular_transforms(self):
        rng = random.Random(4)
        A = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        d, U, V = snf_dense_naive(A)
        assert round(abs(np.linalg.det(np.array(U, dtype=float)))) == 1
        assert round(abs(np.linalg.det(np.array(V, dtype=float)))) == 1


class TestSparseMod2k:
    def test_single_even_column(self):
        A = SparseMatrix.from_entries(1, 1, [(0, 0, 2)])
        res = snf_sparse_mod2k(A, 2)
        assert res.divisors == (2,)
        assert res.nontrivial_start == 0
        assert res.u_rows.tolist() == [[1]]

    def test_empty_matrix_reports_full_torsion(self):
        A = SparseMatrix(2, 1)
        res = snf_sparse_mod2k(A, 3)
        assert res.divisors == (8, 8)

    def test_oracle_equivalence(self):
        rng = random.Random(101)
        for _ in range(150):
            aug, sp, k = random_augmented(rng)
            dense_divisors, _, _ = snf_dense_naive(aug)
            res = snf_sparse_mod2k(sp, k)
            assert list(res.divisors) == sorted(dense_divisors)
            assert verify_cokernel_map(sp, res)

    def test_divisor_chain(self):
        rng = random.Random(55)
        for _ in range(40):
            _, sp, k = random_augmented(rng)
            res = snf_sparse_mod2k(sp, k)
            for a, b in zip(res.divisors, res.divisors[1:]):
                assert b % a == 0

    def test_column_shuffle_invariance(self):
        rng = random.Random(77)
        for _ in range(20):
            _, sp, k = random_augmented(rng)
            cols = list(sp.col_entries)
            rng.shuffle(cols)
            shuffled = SparseMatrix.from_columns(
                sp.rows, [list(c.items()) for c in cols]
            )
            a = snf_sparse_mod2k(sp, k)
            b = snf_sparse_mod2k(shuffled, k)
            assert a.divisors == b.divisors

    def test_replay_strategy_matches_dense(self):
        rng = random.Random(31)
        for _ in range(40):
            aug, sp, k = random_augmented(rng)
            res = snf_sparse_mod2k(sp, k)
            dense_divisors, _, _ = snf_dense_naive(aug)
            assert list(res.divisors) == sorted(dense_divisors)
            assert np.array_equal(
                forward_tail_rows(res, sp.rows), res.u_rows.astype(np.int64)
            )

    def test_replay_matches_dense_on_degree5(self, pres5):
        A = pres5.matrix()
        res = snf_sparse_mod2k(A, 4)
        assert sorted(d for d in res.divisors if d > 1) == [2] * 6 + [4]
        assert np.array_equal(
            forward_tail_rows(res, A.rows), res.u_rows.astype(np.int64)
        )

    def test_degree4_structure(self, pres4):
        res = snf_sparse_mod2k(pres4.matrix(), 3)
        assert sorted(d for d in res.divisors if d > 1) == [2]
        assert verify_cokernel_map(pres4.matrix(), res)

    def test_degree5_structure(self, pres5):
        res = snf_sparse_mod2k(pres5.matrix(), 4)
        assert sorted(d for d in res.divisors if d > 1) == [2] * 6 + [4]
        assert verify_cokernel_map(pres5.matrix(), res)


class TestRowOpLog:
    def test_replay_identity(self):
        log = RowOpLog()
        rows = u_rows_replay(log, [0, 2], 3, 8)
        assert rows.tolist() == [[1, 0, 0], [0, 0, 1]]

    def test_single_add(self):
        log = RowOpLog()
        log.add(0, 1, 3)
        rows = u_rows_replay(log, [1], 4, 16)
        assert rows.tolist() == [[3, 1, 0, 0]]

    def test_forward_then_inverse_restores_vector(self):
        rng = random.Random(9)
        m = 16
        for _ in range(30):
            log = RowOpLog()
            for _ in range(rng.randint(1, 25)):
                kind = rng.choice(("add", "scale", "swap"))
                if kind == "add":
                    src, dst = rng.sample(range(5), 2)
                    log.add(src, dst, rng.randrange(m))
                elif kind == "scale":
                    log.scale(rng.randrange(5), rng.choice((1, 3, 5, 7, 9, 11, 13, 15)))
                else:
                    log.swap(rng.randrange(5), rng.randrange(5))
            vec = [rng.randrange(m) for _ in range(5)]
            out = undo_log(log, apply_log(log, vec, m), m)
            assert out.tolist() == vec

    def test_engine_log_is_invertible(self):
        rng = random.Random(13)
        _, sp, k = random_augmented(rng)
        res = snf_sparse_mod2k(sp, k)
        m = 1 << k
        vec = [rng.randrange(m) for _ in range(sp.rows)]
        out = undo_log(res.log, apply_log(res.log, vec, m), m)
        assert out.tolist() == vec


class TestVerifyCokernelMap:
    def test_mutation_detected(self, pres4):
        A = pres4.matrix()
        res = snf_sparse_mod2k(A, 3)
        assert verify_cokernel_map(A, res)
        u = res.u_rows.copy()
        # Flip one coordinate that some relation column touches with an odd
        # coefficient; the parity of that column's image must break.
        target = None
        for col in A.col_entries:
            for i, v in col.items():
                if v % 2:
                    target = i
                    break
            if target is not None:
                break
        u[0, target] ^= 1
        corrupted = type(res)(
            res.modulus, res.divisors, res.nontrivial_start, u, res.log
        )
        assert not verify_cokernel_map(A, corrupted)


class TestMatrixText:
    def test_round_trip(self):
        A = SparseMatrix.from_entries(3, 4, [(0, 1, 5), (2, 3, -2), (1, 0, 7)])
        buf = io.StringIO()
        save_matrix_text(A, buf)
        buf.seek(0)
        B = load_matrix_text(buf)
        assert B.rows == 3 and B.cols == 4
        assert B.to_dense() == A.to_dense()

    def test_format(self):
        A = SparseMatrix.from_entries(2, 2, [(1, 0, 3)])
        buf = io.StringIO()
        save_matrix_text(A, buf)
        assert buf.getvalue() == "2 2\n1 0 3\n"
