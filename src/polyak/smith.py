"""Sparse Smith normal form over Z/2^k with row-operation tracking.

The production matrices here have 2-power-bounded cokernels, so all
arithmetic runs modulo 2^k: reducing mod 2^k is the same as appending the
columns 2^k*e_i, which kills the coefficient-growth problem of integer
elimination.  Pivots are taken unit (odd) first; once no odd entry remains
the minimal remaining 2-adic valuation is used, which keeps every quotient
exact.  Column operations are never tracked; row operations go to a
replayable log (`RowOpLog`), and only the few tail rows of the
transformation that the invariant needs are reconstructed from it
(`u_rows_replay`), so the full s x s transformation is never formed.

A naive dense integer engine with full U and V serves as the oracle.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, TextIO

import numpy as np

Progress = Optional[Callable[[str], None]]


class SparseMatrix:
    """Integer matrix stored as per-column maps.

    Rows index generators, columns index relations.  No zero entries are
    stored.
    """

    __slots__ = ("rows", "cols", "col_entries")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.col_entries: list[dict[int, int]] = [{} for _ in range(cols)]

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int, int]]):
        A = cls(rows, cols)
        for i, j, v in entries:
            A.set(i, j, A.get(i, j) + v)
        return A

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[Iterable[tuple[int, int]]]):
        cols = list(columns)
        A = cls(rows, len(cols))
        for j, col in enumerate(cols):
            for i, v in col:
                A.set(i, j, A.get(i, j) + v)
        return A

    @classmethod
    def from_csc(cls, rows: int, indptr, indices, data):
        """Matrix from column-compressed arrays.

        Column j holds rows ``indices[indptr[j]:indptr[j + 1]]``, which must
        be distinct, with the nonzero values ``data`` over the same range.
        """
        indices = np.asarray(indices)
        if len(indices) and not (0 <= indices.min() and indices.max() < rows):
            raise IndexError("row index out of range")
        ptr = np.asarray(indptr).tolist()
        idx = indices.tolist()
        vals = np.asarray(data).tolist()
        A = cls(rows, 0)
        A.col_entries = [dict(zip(idx[a:b], vals[a:b])) for a, b in zip(ptr, ptr[1:])]
        A.cols = len(A.col_entries)
        return A

    def set(self, i: int, j: int, v: int) -> None:
        if not 0 <= i < self.rows or not 0 <= j < self.cols:
            raise IndexError(f"entry ({i}, {j}) out of range")
        col = self.col_entries[j]
        if v:
            col[i] = v
        elif i in col:
            del col[i]

    def get(self, i: int, j: int) -> int:
        return self.col_entries[j].get(i, 0)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.col_entries)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.col_entries):
            for i, v in col.items():
                out[i][j] = v
        return out

    def copy(self) -> "SparseMatrix":
        A = SparseMatrix(self.rows, self.cols)
        A.col_entries = [dict(c) for c in self.col_entries]
        return A

    def __repr__(self) -> str:
        return f"<SparseMatrix {self.rows}x{self.cols} nnz={self.nnz}>"


_OP_SCALE = 1
_OP_ADD = 2
_OP_SWAP = 3


class RowOpLog:
    """Ordered, invertible record of elementary row operations.

    Operation kinds: scale(row, unit) -- unit must be invertible over the
    working ring (only -1 over the integers, any odd unit mod 2^k);
    add(src, dst, c) -- row dst += c * row src; swap(a, b).
    """

    __slots__ = ("kinds", "args")

    def __init__(self):
        self.kinds = bytearray()
        self.args = array("q")

    def scale(self, row: int, unit: int) -> None:
        self.kinds.append(_OP_SCALE)
        self.args.extend((row, unit, 0))

    def add(self, src: int, dst: int, coef: int) -> None:
        self.kinds.append(_OP_ADD)
        self.args.extend((src, dst, coef))

    def add_many(self, src: int, dsts, coefs) -> None:
        for dst, coef in zip(dsts, coefs):
            self.add(src, dst, coef)

    def swap(self, a: int, b: int) -> None:
        self.kinds.append(_OP_SWAP)
        self.args.extend((a, b, 0))

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        args = self.args
        for t, kind in enumerate(self.kinds):
            base = 3 * t
            yield kind, args[base], args[base + 1], args[base + 2]


def _mod_dtype(modulus: int):
    # Unsigned wraparound at a power of two >= modulus keeps arithmetic exact.
    if modulus <= 1 << 8:
        return np.uint8
    if modulus <= 1 << 16:
        return np.uint16
    if modulus <= 1 << 32:
        return np.uint32
    if modulus <= 1 << 64:
        return np.uint64
    raise ValueError("modulus above 2^64 is not supported")


def u_rows_replay(log: RowOpLog, rows: Iterable[int], s: int, modulus: int) -> np.ndarray:
    """Reconstruct the requested rows of the accumulated transformation.

    The transformation is op_m o ... o op_1 applied to the identity; a row
    of it is recovered by running the log backwards against unit vectors,
    without materializing the full s x s matrix.
    """
    idxs = list(rows)
    dtype = _mod_dtype(modulus)
    # Rt[i] holds component i of every requested row vector.
    Rt = np.zeros((s, len(idxs)), dtype=dtype)
    for t, r in enumerate(idxs):
        Rt[r, t] = 1
    kinds = log.kinds
    args = log.args
    for t in range(len(kinds) - 1, -1, -1):
        kind = kinds[t]
        base = 3 * t
        a, b, c = args[base], args[base + 1], args[base + 2]
        if kind == _OP_ADD:
            # v^T (I + c e_dst e_src^T): component src += c * component dst
            Rt[a] += Rt[b] * dtype(c % modulus)
        elif kind == _OP_SCALE:
            Rt[a] *= dtype(b % modulus)
        else:
            Rt[[a, b]] = Rt[[b, a]]
    out = Rt.T.copy()
    out %= dtype(modulus)
    return out


@dataclass
class SmithResult:
    """Elementary divisors plus the tail rows of the row transformation.

    divisors are ascending powers of 2 (a residue of 0 mod 2^k reports as
    exactly 2^k); u_rows holds the rows aligned with divisors > 1, reduced
    mod 2^k, as replayed from the elimination's row-operation log.
    """

    modulus: int
    divisors: tuple[int, ...]
    nontrivial_start: int
    u_rows: np.ndarray
    log: RowOpLog

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.divisors[self.nontrivial_start :]


class _SparseElimination:
    """Markowitz-pivoted elimination of a sparse matrix mod 2^k."""

    def __init__(self, A: SparseMatrix, k: int, track, progress: Progress = None):
        self.s = A.rows
        self.t = A.cols
        self.k = k
        self.m = 1 << k
        self.track = track
        self.progress = progress
        m = self.m
        self.col: list[dict[int, int]] = []
        self.rows: list[set[int]] = [set() for _ in range(self.s)]
        self.nnz = 0
        for j, src in enumerate(A.col_entries):
            d = {}
            for i, v in src.items():
                v %= m
                if v:
                    d[i] = v
                    self.rows[i].add(j)
                    self.nnz += 1
            self.col.append(d)
        self.col_active = [True] * self.t
        self.row_active = [True] * self.s
        self.divisor = [0] * self.s  # 0 marks "no pivot yet"
        self.col_buckets: dict[int, set[int]] = {}
        self.row_buckets: dict[int, set[int]] = {}
        for j in range(self.t):
            self.col_buckets.setdefault(len(self.col[j]), set()).add(j)
        for i in range(self.s):
            self.row_buckets.setdefault(len(self.rows[i]), set()).add(i)
        self.pivots_done = 0

    # -- bucket bookkeeping ------------------------------------------------

    def _col_resize(self, j: int, old: int, new: int) -> None:
        if old != new and self.col_active[j]:
            self.col_buckets[old].discard(j)
            self.col_buckets.setdefault(new, set()).add(j)

    def _row_resize(self, i: int, old: int, new: int) -> None:
        if old != new and self.row_active[i]:
            self.row_buckets[old].discard(i)
            self.row_buckets.setdefault(new, set()).add(i)

    # -- elementary steps ----------------------------------------------------

    def _col_axpy(self, dst: int, src: int, f: int) -> None:
        # column dst += f * column src (f already reduced mod m)
        cold = self.col[dst]
        before = len(cold)
        m = self.m
        rows = self.rows
        for i, v in self.col[src].items():
            x = cold.get(i)
            if x is None:
                nv = f * v % m
                if nv:
                    cold[i] = nv
                    r = rows[i]
                    self._row_resize(i, len(r), len(r) + 1)
                    r.add(dst)
                    self.nnz += 1
            else:
                nv = (x + f * v) % m
                if nv:
                    cold[i] = nv
                else:
                    del cold[i]
                    r = rows[i]
                    self._row_resize(i, len(r), len(r) - 1)
                    r.discard(dst)
                    self.nnz -= 1
        self._col_resize(dst, before, len(cold))

    def _eliminate(self, i: int, j: int) -> None:
        colj = self.col[j]
        a = colj[i]
        v = (a & -a).bit_length() - 1
        unit = a >> v
        m = self.m
        # Retire the pivot row and column from the search structures first,
        # so the resize helpers skip them during the updates below.
        self.row_buckets[len(self.rows[i])].discard(i)
        self.row_active[i] = False
        self.col_buckets[len(colj)].discard(j)
        self.col_active[j] = False
        if unit != 1:
            inv = pow(unit, -1, m)
            for j2 in self.rows[i]:
                d = self.col[j2]
                d[i] = d[i] * inv % m
            self.track.scale(i, inv)
        piv = 1 << v
        assert colj[i] == piv
        # Clear the pivot row with column operations (this is where fill
        # happens); afterwards row i lives only in column j.
        for j2 in list(self.rows[i]):
            if j2 != j:
                c = self.col[j2][i] >> v
                self._col_axpy(j2, j, (-c) % m)
        # Clear the pivot column with row operations; row i is a singleton
        # now, so the matrix only changes inside column j.
        rows = self.rows
        for i2 in list(colj):
            if i2 == i:
                continue
            c = colj[i2] >> v
            self.track.add(i, i2, (-c) % m)
            del colj[i2]
            r = rows[i2]
            self._row_resize(i2, len(r), len(r) - 1)
            r.discard(j)
            self.nnz -= 1
        del colj[i]
        self.nnz -= 1
        self.divisor[i] = piv
        self.rows[i].clear()
        self.pivots_done += 1
        if self.progress is not None and not self.pivots_done % 512:
            self.progress(
                f"snf: {self.pivots_done} pivots, nnz {self.nnz}"
            )

    # -- pivot search --------------------------------------------------------

    def _find_pivot(self, phase: int):
        """Best (score, j, i) among entries of 2-adic valuation == phase.

        Exact Markowitz search: buckets of equal occupancy are scanned in
        increasing size, alternating columns and rows; once the best found
        score beats anything a later bucket could hold, the scan stops.
        """
        lo = 1 << phase
        mask = (lo << 1) - 1
        best = None
        col = self.col
        rows = self.rows
        limit = 0
        if self.col_buckets:
            limit = max(limit, max(self.col_buckets))
        if self.row_buckets:
            limit = max(limit, max(self.row_buckets))
        c = 1
        while c <= limit:
            if best is not None and (c - 1) * (c - 1) > best[0]:
                break
            for j in self.col_buckets.get(c, ()):
                d = col[j]
                for i, v in d.items():
                    if v & mask == lo:
                        cand = ((len(rows[i]) - 1) * (c - 1), j, i)
                        if best is None or cand < best:
                            best = cand
            for i in self.row_buckets.get(c, ()):
                for j in rows[i]:
                    if col[j][i] & mask == lo:
                        cand = ((len(col[j]) - 1) * (c - 1), j, i)
                        if best is None or cand < best:
                            best = cand
            c += 1
        return best

    def _min_valuation(self) -> int | None:
        best = None
        for j in range(self.t):
            if not self.col_active[j]:
                continue
            for v in self.col[j].values():
                nv = (v & -v).bit_length() - 1
                if best is None or nv < best:
                    best = nv
                    if best == 0:
                        return 0
        return best

    # -- dense endgame -----------------------------------------------------

    ENDGAME_ROWS = 1024
    ENDGAME_DENSITY = 192  # switch when nnz exceeds this many per active row

    def _endgame_due(self) -> bool:
        active = self.s - self.pivots_done
        return (
            0 < active <= self.ENDGAME_ROWS
            and self.nnz > self.ENDGAME_DENSITY * active
        )

    def _dense_endgame(self) -> None:
        """Finish a small, dense tail with vectorized arithmetic.

        The remaining column span is first compressed (column operations
        only, so nothing is tracked) into at most one basis vector per lead
        row; the small dense block is then eliminated by minimal-valuation
        pivots with row operations forwarded to the tracker under global
        row indices.
        """
        m = self.m
        dtype = _mod_dtype(m)
        rows_global = [i for i in range(self.s) if self.row_active[i]]
        local = {g: l for l, g in enumerate(rows_global)}
        r = len(rows_global)
        basis: dict[int, np.ndarray] = {}
        for j in range(self.t):
            if not self.col_active[j] or not self.col[j]:
                continue
            v = np.zeros(r, dtype=dtype)
            for i, val in self.col[j].items():
                v[local[i]] = val
            self._absorb_column(basis, v)
        if self.progress is not None:
            self.progress(
                f"snf: endgame on {r} rows, {len(basis)} compressed columns"
            )
        B = (
            np.stack([basis[p] for p in sorted(basis)], axis=1)
            if basis
            else np.zeros((r, 0), dtype=dtype)
        )
        # Raw bytes may exceed the modulus after wraparound; every iteration
        # re-reduces through the mod-2^k mask, and retired rows/columns are
        # zeroed outright so no later quotient can touch them.
        while True:
            B &= dtype(m - 1)
            live = np.nonzero(B)
            if live[0].size == 0:
                break
            vals = B[live].astype(np.int64)
            valuations = np.zeros(vals.shape, dtype=np.int64)
            v = vals.copy()
            while True:
                even = (v & 1) == 0
                if not even.any():
                    break
                valuations[even] += 1
                v[even] >>= 1
            order = np.lexsort((live[0], live[1], valuations))
            pick = order[0]
            i_loc = int(live[0][pick])
            j_loc = int(live[1][pick])
            vpow = int(valuations[pick])
            gi = rows_global[i_loc]
            a = int(B[i_loc, j_loc])
            unit = a >> vpow
            if unit != 1:
                inv = pow(unit, -1, m)
                B[i_loc] *= dtype(inv)
                B[i_loc] &= dtype(m - 1)
                self.track.scale(gi, inv)
            piv = 1 << vpow
            # Clear the pivot row with (untracked) column operations.
            qrow = (B[i_loc].astype(np.int64) >> vpow).astype(dtype)
            qrow[j_loc] = 0
            B -= np.outer(B[:, j_loc], qrow)
            B &= dtype(m - 1)
            # Clear the pivot column with tracked row operations.
            qcol = (B[:, j_loc].astype(np.int64) >> vpow).astype(dtype)
            qcol[i_loc] = 0
            nz = np.nonzero(qcol)[0]
            if nz.size:
                coefs = [(-int(qcol[t])) % m for t in nz]
                self.track.add_many(gi, [rows_global[int(t)] for t in nz], coefs)
                B -= np.outer(qcol, B[i_loc])
            B[i_loc, :] = 0
            B[:, j_loc] = 0
            self.divisor[gi] = piv
            self.pivots_done += 1
        # All remaining state is consumed.
        for j in range(self.t):
            if self.col_active[j]:
                self.col[j].clear()
        self.nnz = 0

    def _absorb_column(self, basis: dict[int, np.ndarray], v: np.ndarray) -> None:
        m = self.m
        dtype = v.dtype.type
        while True:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return
            p = int(nz[0])
            a = int(v[p])
            va = (a & -a).bit_length() - 1
            b = basis.get(p)
            if b is None or (int(b[p]) & -int(b[p])).bit_length() - 1 > va:
                unit = a >> va
                if unit != 1:
                    v = v * dtype(pow(unit, -1, m))
                basis[p] = v
                if b is None:
                    return
                v = b
                continue
            e = (int(b[p]) & -int(b[p])).bit_length() - 1
            v = v - b * dtype(a >> e)

    # -- driver ----------------------------------------------------------------

    def run(self) -> list[int]:
        self._initial_sweep()
        phase = 0
        while self.nnz:
            if self._endgame_due():
                self._dense_endgame()
                break
            found = self._find_pivot(phase)
            if found is None:
                phase = self._min_valuation()
                assert phase is not None
                continue
            _, j, i = found
            self._eliminate(i, j)
        # Rows never pivoted have residue 0 mod 2^k: divisor exactly 2^k.
        for i in range(self.s):
            if self.divisor[i] == 0:
                self.divisor[i] = self.m
        return self.divisor

    def _initial_sweep(self) -> None:
        """Consume 1- and 2-entry relation columns first to delay fill-in.

        Only unit (odd) pivots are taken here; even small columns wait for
        the later valuation phases.
        """
        q = deque(j for j in range(self.t) if 1 <= len(self.col[j]) <= 2)
        self._sweep_queue = q
        while q:
            j = q.popleft()
            if not self.col_active[j]:
                continue
            d = self.col[j]
            if not 1 <= len(d) <= 2:
                continue
            best = None
            for i, v in d.items():
                if v & 1:
                    cand = (len(self.rows[i]), i)
                    if best is None or cand < best:
                        best = cand
            if best is None:
                continue
            self._eliminate_enqueue(best[1], j)
        self._sweep_queue = None

    def _eliminate_enqueue(self, i: int, j: int) -> None:
        # Columns of the pivot row are the ones whose sizes change; requeue
        # any that end up small (duplicates are filtered on pop).
        touched = list(self.rows[i])
        self._eliminate(i, j)
        q = self._sweep_queue
        for j2 in touched:
            if j2 != j and self.col_active[j2] and 1 <= len(self.col[j2]) <= 2:
                q.append(j2)


def snf_sparse_mod2k(
    A: SparseMatrix,
    k: int,
    progress: Progress = None,
) -> SmithResult:
    """Smith normal form of A with all arithmetic in Z/2^k.

    Requires the integer cokernel of A to be annihilated by 2^k (reducing
    mod 2^k implicitly appends the columns 2^k*e_i, so the divisors are then
    exact).  Returns ascending divisors, the transformation rows for the
    nontrivial ones, and the row-operation log they were replayed from.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = 1 << k
    s = A.rows
    log = RowOpLog()
    elim = _SparseElimination(A, k, log, progress)
    divisors = elim.run()

    order = sorted(range(s), key=lambda i: (divisors[i], i))
    # Realize the sort as row swaps so u_rows stay aligned with divisors.
    current = list(range(s))
    pos_of = list(range(s))
    for target_pos, row in enumerate(order):
        p = pos_of[row]
        if p != target_pos:
            other = current[target_pos]
            log.swap(target_pos, p)
            current[target_pos], current[p] = row, other
            pos_of[row], pos_of[other] = target_pos, p
    sorted_divisors = tuple(divisors[i] for i in order)
    k0 = 0
    while k0 < s and sorted_divisors[k0] == 1:
        k0 += 1
    u_rows = u_rows_replay(log, range(k0, s), s, m)
    if progress is not None:
        progress(f"snf: done, {s - k0} nontrivial divisors")
    return SmithResult(m, sorted_divisors, k0, u_rows, log)


def verify_cokernel_map(A: SparseMatrix, result: SmithResult) -> bool:
    """Check that every relation column maps to zero under the tail rows.

    Column c must satisfy u_rows . c == 0 componentwise modulo the matching
    divisor; this is the soundness of the induced quotient map.
    """
    moduli = np.array(result.moduli, dtype=np.int64)
    if len(moduli) == 0:
        return True
    urows = result.u_rows.astype(np.int64)
    for col in A.col_entries:
        if not col:
            continue
        y = np.zeros(len(moduli), dtype=np.int64)
        for i, v in col.items():
            y += urows[:, i] * v
        if np.any(y % moduli):
            return False
    return True


# ---------------------------------------------------------------------------
# Dense integer oracle.


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def snf_dense_naive(A) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Naive dense integer Smith normal form for small matrices.

    Accepts a SparseMatrix or a list of rows.  Returns (divisors, U, V)
    where U A V is diagonal with the divisors on the diagonal, each divisor
    divides the next, zeros come last, and U, V are unimodular.  The product
    identity is asserted internally.  Entries are combined with one-shot
    Bezout 2x2 transforms rather than repeated Euclidean swaps, which keeps
    coefficient growth in check at oracle scale.
    """
    if isinstance(A, SparseMatrix):
        dense = A.to_dense()
    else:
        dense = [list(row) for row in A]
    s = len(dense)
    t = len(dense[0]) if s else 0
    S = [row[:] for row in dense]
    U = [[int(i == j) for j in range(s)] for i in range(s)]
    V = [[int(i == j) for j in range(t)] for i in range(t)]

    def row_axpy(dst, src, c):
        Sd, Ss = S[dst], S[src]
        for j in range(t):
            Sd[j] += c * Ss[j]
        Ud, Us = U[dst], U[src]
        for j in range(s):
            Ud[j] += c * Us[j]

    def row_swap(a, b):
        if a != b:
            S[a], S[b] = S[b], S[a]
            U[a], U[b] = U[b], U[a]

    def col_swap(a, b):
        if a != b:
            for i in range(s):
                S[i][a], S[i][b] = S[i][b], S[i][a]
            for i in range(t):
                V[i][a], V[i][b] = V[i][b], V[i][a]

    def improve_rows(i1, i2, j):
        # Unimodular 2x2 on rows i1, i2: S[i1][j] <- gcd, S[i2][j] <- 0.
        a, b = S[i1][j], S[i2][j]
        if b == 0:
            return
        if a == 0:
            row_swap(i1, i2)
            return
        if b % a == 0:
            row_axpy(i2, i1, -(b // a))
            return
        x, y, g = _xgcd(a, b)
        mbg, ag = -(b // g), a // g
        R1, R2 = S[i1], S[i2]
        for jj in range(t):
            aa, bb = R1[jj], R2[jj]
            R1[jj] = x * aa + y * bb
            R2[jj] = mbg * aa + ag * bb
        R1, R2 = U[i1], U[i2]
        for jj in range(s):
            aa, bb = R1[jj], R2[jj]
            R1[jj] = x * aa + y * bb
            R2[jj] = mbg * aa + ag * bb

    def improve_cols(j1, j2, i):
        # Unimodular 2x2 on columns j1, j2: S[i][j1] <- gcd, S[i][j2] <- 0.
        a, b = S[i][j1], S[i][j2]
        if b == 0:
            return
        if a == 0:
            col_swap(j1, j2)
            return
        if b % a == 0:
            c = -(b // a)
            for ii in range(s):
                S[ii][j2] += c * S[ii][j1]
            for ii in range(t):
                V[ii][j2] += c * V[ii][j1]
            return
        x, y, g = _xgcd(a, b)
        mbg, ag = -(b // g), a // g
        for ii in range(s):
            aa, bb = S[ii][j1], S[ii][j2]
            S[ii][j1] = x * aa + y * bb
            S[ii][j2] = mbg * aa + ag * bb
        for ii in range(t):
            aa, bb = V[ii][j1], V[ii][j2]
            V[ii][j1] = x * aa + y * bb
            V[ii][j2] = mbg * aa + ag * bb

    r = min(s, t)
    for k in range(r):
        # Bring some nonzero of the trailing submatrix to the pivot seat.
        piv = None
        for i in range(k, s):
            Si = S[i]
            for j in range(k, t):
                if Si[j] and (piv is None or abs(Si[j]) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(k, piv[0])
        col_swap(k, piv[1])
        while True:
            for i in range(k + 1, s):
                improve_rows(k, i, k)
            if all(S[k][j] == 0 for j in range(k + 1, t)):
                break
            for j in range(k + 1, t):
                improve_cols(k, j, k)
            if all(S[i][k] == 0 for i in range(k + 1, s)):
                break
    # Enforce the divisibility chain on the diagonal with 2x2 block fixes.
    changed = True
    while changed:
        changed = False
        for p in range(r - 1):
            a = S[p][p]
            for q in range(p + 1, r):
                b = S[q][q]
                if a == 0 and b != 0:
                    row_swap(p, q)
                    col_swap(p, q)
                    a, b = S[p][p], 0
                    changed = True
                if a and b and b % a:
                    row_axpy(p, q, 1)          # block [[a, b], [0, b]]
                    improve_cols(p, q, p)      # block [[g, 0], [yb, lcm]]
                    extra = S[q][p]
                    improve_rows(p, q, p)      # clears the leftover below
                    assert extra % S[p][p] == 0
                    a = S[p][p]
                    changed = True
    for i in range(r):
        if S[i][i] < 0:
            for j in range(t):
                S[i][j] = -S[i][j]
            for j in range(s):
                U[i][j] = -U[i][j]
    # The pairwise fixes leave the diagonal chain-ordered (zeros last), so
    # no final permutation is needed.
    divisors = [S[i][i] for i in range(r)]
    _assert_product(dense, S, U, V)
    _assert_chain(divisors)
    return divisors, U, V


def _assert_chain(divisors):
    for a, b in zip(divisors, divisors[1:]):
        assert b == 0 or (a != 0 and b % a == 0), f"divisor chain broken: {divisors}"


def _assert_product(A, S, U, V):
    s = len(A)
    t = len(A[0]) if s else 0
    UA = [[sum(U[i][x] * A[x][j] for x in range(s)) for j in range(t)] for i in range(s)]
    UAV = [[sum(UA[i][x] * V[x][j] for x in range(t)) for j in range(t)] for i in range(s)]
    assert UAV == S, "internal: U A V != S"


# ---------------------------------------------------------------------------
# Matrix text format: first line "s t", then one "i j v" line per nonzero.


def save_matrix_text(A: SparseMatrix, dest) -> None:
    if isinstance(dest, (str, Path)):
        with open(dest, "w") as fh:
            save_matrix_text(A, fh)
        return
    fh: TextIO = dest
    fh.write(f"{A.rows} {A.cols}\n")
    entries = []
    for j, col in enumerate(A.col_entries):
        for i, v in col.items():
            entries.append((i, j, v))
    for i, j, v in sorted(entries):
        fh.write(f"{i} {j} {v}\n")


def load_matrix_text(src) -> SparseMatrix:
    """Read the matrix text format; errors name the offending line number."""
    if isinstance(src, (str, Path)):
        with open(src) as fh:
            return load_matrix_text(fh)
    fh: TextIO = src
    no = 1
    try:
        first = fh.readline().split()
        if len(first) != 2:
            raise ValueError("matrix file must start with 's t'")
        rows, cols = int(first[0]), int(first[1])
        A = SparseMatrix(rows, cols)
        for no, line in enumerate(fh, 2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise ValueError(f"expected 'i j v', got {line.strip()!r}")
            i, j, v = map(int, fields)
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside the {rows}x{cols} matrix")
            A.set(i, j, A.get(i, j) + v)
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    return A
