"""The batched good-umvirate partition against a scalar reference.

`reference_partition` is the per-fill construction: one loop step per
choice of the free entries, six scalar 3x3 inverses per piece (by rref
of [A | I]), the greedy leftmost-full-rank column pick, and 0/1
permutation matrices.  `globality.good_umvirate_partition` builds all
pieces in one pass from a closed-form factorization; both must give the
same pieces, in the same order, with the same (g, h) ordinals.
"""

import numpy as np
import pytest

from qharm.errors import ToolkitError
from qharm.fqlin import det, mat_mul, rank, rref
from qharm.globality import _rank_factor, cell_umvirate, good_umvirate_partition, umvirate_normal_form
from qharm.groups import get_group


def _inv_ref(field, a):
    n = a.shape[0]
    r, pivots = rref(field, np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1))
    assert pivots[:n] == list(range(n))
    return r[:, n:]


def _greedy_full_rank_cols(field, m, need):
    cols = []
    for j in range(m.shape[1]):
        trial = cols + [j]
        if rank(field, m[:, trial]) == len(trial):
            cols.append(j)
            if len(cols) == need:
                return cols
    raise ToolkitError("umvirate contains no invertible matrices")


def _piece_to_good_umvirate(group, d_mat, c_mat, kk, big_k, big_b, big_c):
    """(kk, g0, h0) of the piece {[[K, B'], [C', X]]}, or None when it misses G."""
    field = group.field
    n = group.n
    k_inv = _inv_ref(field, big_k)
    lft = np.eye(n, dtype=np.uint8)
    lft[:kk, :kk] = k_inv
    if kk < n:
        lft[kk:, :kk] = field.neg_table[mat_mul(field, big_c, k_inv)]
    rgt = np.eye(n, dtype=np.uint8)
    if kk < n:
        rgt[:kk, kk:] = field.neg_table[mat_mul(field, k_inv, big_b)]
    left = mat_mul(field, _inv_ref(field, d_mat), _inv_ref(field, lft))
    right = mat_mul(field, _inv_ref(field, rgt), _inv_ref(field, c_mat))
    delta = field.mul(field.inv(det(field, left)), field.inv(det(field, right)))
    if kk == n:
        if delta != 1:
            return None
        y0 = np.zeros((0, 0), dtype=np.uint8)
    else:
        y0 = np.eye(n - kk, dtype=np.uint8)
        y0[0, 0] = delta
    g0 = np.eye(n, dtype=np.uint8)
    g0[kk:, kk:] = y0
    g0 = mat_mul(field, left, g0)
    c_fix = np.eye(n, dtype=np.uint8)
    c_fix[0, 0] = det(field, right)
    g0 = mat_mul(field, g0, c_fix)
    h0 = mat_mul(field, _inv_ref(field, c_fix), right)
    g_ord, h_ord = group.ordinals_of(np.stack([g0, h0]))
    assert g_ord >= 0 and h_ord >= 0
    return (kk, int(g_ord), int(h_ord))


def reference_partition(group, u):
    """(k, g, h) of every piece, one fill of the free entries at a time."""
    field = group.field
    n = group.n
    nf = umvirate_normal_form(group, u)
    a, b, h = nf.a, nf.b, nf.h
    if a + b == 0:
        return [(0, group.identity, group.identity)]
    d_mat, c_mat = nf.d_mat.copy(), nf.c_mat.copy()
    fixed_rows, fixed_cols = nf.fixed_rows.copy(), nf.fixed_cols.copy()
    if a and b:
        e, f, _ = _rank_factor(field, fixed_rows[:, :a].copy())
        e_ext = np.eye(n, dtype=np.uint8)
        e_ext[:b, :b] = e
        f_ext = np.eye(n, dtype=np.uint8)
        f_ext[:a, :a] = f
        d_mat = mat_mul(field, e_ext, d_mat)
        c_mat = mat_mul(field, c_mat, f_ext)
        fixed_rows = mat_mul(field, mat_mul(field, e, fixed_rows), f_ext)
        fixed_cols = mat_mul(field, mat_mul(field, e_ext, fixed_cols), f)
    kk = a + b - h
    if kk > n:
        return []
    p2 = fixed_rows[h:b, a:]
    n2 = fixed_cols[b:, h:a]
    if p2.shape[0] and rank(field, p2) < p2.shape[0]:
        return []
    if n2.shape[1] and rank(field, n2.T.copy()) < n2.shape[1]:
        return []
    col_sel = _greedy_full_rank_cols(field, p2, b - h) if b - h else []
    row_sel = _greedy_full_rank_cols(field, n2.T.copy(), a - h) if a - h else []
    col_perm = list(range(a)) + [a + j for j in col_sel] + [a + j for j in range(n - a) if j not in col_sel]
    row_perm = list(range(b)) + [b + i for i in row_sel] + [b + i for i in range(n - b) if i not in row_sel]
    pc = np.zeros((n, n), dtype=np.uint8)
    for newpos, old in enumerate(col_perm):
        pc[old, newpos] = 1
    pr = np.zeros((n, n), dtype=np.uint8)
    for newpos, old in enumerate(row_perm):
        pr[newpos, old] = 1
    c_mat = mat_mul(field, c_mat, pc)
    d_mat = mat_mul(field, pr, d_mat)
    fixed_rows = mat_mul(field, fixed_rows, pc)
    fixed_cols = mat_mul(field, pr, fixed_cols)

    q = group.q
    n_col_free = (n - b) * (b - h)
    n_row_free = (a - h) * (n - kk)
    pieces = []
    for fill in range(q ** (n_col_free + n_row_free)):
        x = fill
        col_block = np.zeros((n - b, b - h), dtype=np.uint8)
        for pos in range(n_col_free):
            col_block[pos // (b - h), pos % (b - h)] = x % q
            x //= q
        row_block = np.zeros((a - h, n - kk), dtype=np.uint8)
        for pos in range(n_row_free):
            row_block[pos // (n - kk), pos % (n - kk)] = x % q
            x //= q
        full = np.zeros((n, n), dtype=np.uint8)
        full[:b, :] = fixed_rows
        full[:, :a] = fixed_cols
        full[b:, a: a + (b - h)] = col_block
        full[b: b + (a - h), a + (b - h):] = row_block
        assert det(field, full[:kk, :kk]) != 0
        piece = _piece_to_good_umvirate(
            group, d_mat, c_mat, kk, full[:kk, :kk].copy(), full[:kk, kk:].copy(), full[kk:, :kk].copy()
        )
        if piece is not None:
            pieces.append(piece)
    return pieces


@pytest.mark.parametrize("key, sample", [(("sl", 2, 3), None), (("sl", 3, 2), 300)],
                         ids=["sl2_f3_all_cells", "sl3_f2_300_cells"])
def test_batched_partition_matches_scalar_reference(key, sample):
    g = get_group(*key)
    tables = g.dictator_systems()
    cells = np.concatenate(tables.cells if sample is None else tables.cells[1:7])
    if sample is not None:
        cells = np.sort(np.random.default_rng(8).choice(cells, size=sample, replace=False))
    n_pieces = 0
    for cell in cells:
        u = cell_umvirate(g, cell)
        got = [(p.k, p.g, p.h) for p in good_umvirate_partition(g, u)]
        assert got == reference_partition(g, u), u.describe()
        n_pieces += len(got)
    assert n_pieces >= len(cells)  # every cell is nonempty, so it has a piece
