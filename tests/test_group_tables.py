"""Group tables by gathers against the per-element loops they replaced.

`GroupTable` takes every determinant with one broadcast Leibniz `det`,
inverses and products from gathers on the vector action, and the
dictator systems as the distinct action rows per subspace.  Each
reference below is the earlier loop: one elimination determinant and
one inverse per matrix, one product row per element, one vector per
action column, one mask per independent target tuple, and one matrix
per member of L_k and of a bump restriction.  Every table must equal
its reference exactly, dtype included.
"""

import numpy as np
import pytest

from qharm.errors import ToolkitError
from qharm.fqlin import IndexMap, decode_vector, det, encode_vector, enumerate_subspaces, inv_matrix, mat_mul, rank
from qharm.gf import get_field
from qharm.globality import _block_restriction, block_subgroup_members
from qharm.groups import get_group
from qharm.scheme import get_scheme

TABLE_GROUPS = [
    ("sl", 1, 2), ("sl", 1, 3),
    ("sl", 2, 2), ("sl", 2, 3), ("sl", 2, 4), ("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 2),
    ("gl", 2, 2), ("gl", 2, 3), ("gl", 2, 4), ("gl", 2, 5), ("gl", 3, 2),
]


def _group_id(key):
    return "%s-%d-%d" % key


def _det_elimination(ctx, a):
    """Determinant of one matrix over F_q by elimination."""
    m = np.array(a, dtype=np.uint8)
    n = m.shape[0]
    d = 1
    for col in range(n):
        found = -1
        for row in range(col, n):
            if m[row, col]:
                found = row
                break
        if found < 0:
            return 0
        if found != col:
            m[[col, found]] = m[[found, col]]
            d = ctx.neg(d)
        piv = int(m[col, col])
        d = ctx.mul(d, piv)
        piv_inv = ctx.inv(piv)
        m[col] = ctx.mul_table[m[col], piv_inv]
        for row in range(col + 1, n):
            if m[row, col]:
                m[row] = ctx.add_table[m[row], ctx.mul_table[m[col], ctx.neg(int(m[row, col]))]]
    return d


def _every_matrix(q, n):
    return IndexMap(get_field(q), n, n).digits_table().reshape(-1, n, n)


def _element_tables_ref(kind, n, q):
    """elements, dets, pos, mats, inv and identity, one matrix at a time."""
    field = get_field(q)
    di = get_scheme(q, n, n).domain_index
    dets = np.empty(di.size, dtype=np.uint8)
    for i in range(di.size):
        dets[i] = _det_elimination(field, di.to_matrix(i))
    keep = dets == 1 if kind == "sl" else dets != 0
    elements = np.flatnonzero(keep).astype(np.int64)
    pos = np.full(di.size, -1, dtype=np.int64)
    pos[elements] = np.arange(elements.size)
    mats = np.stack([di.to_matrix(i) for i in elements])
    inv = np.array([pos[di.to_index(inv_matrix(field, m))] for m in mats], dtype=np.int64)
    identity = int(pos[di.to_index(np.eye(n, dtype=np.uint8))])
    return {"elements": elements, "dets": dets[elements], "pos": pos, "mats": mats, "inv": inv}, identity


def _mul_row_ref(group, i):
    """Ordinals of mats[i] @ mats[j] for all j."""
    f, n = group.field, group.n
    a = group.mats[i]
    out = np.zeros((group.size, n, n), dtype=np.uint8)
    for r in range(n):
        for k in range(n):
            out[:, r, :] = f.add_table[out[:, r, :], f.mul_table[a[r, k], group.mats[:, k, :]]]
    flat = out.reshape(group.size, n * n).astype(np.int64)
    return group.pos[flat @ group.scheme.domain_index.powers]


def _vector_action_ref(group, transpose):
    """Encodings of g v (or g^T v), one vector index at a time."""
    f, n, q = group.field, group.n, group.q
    mats = np.transpose(group.mats, (0, 2, 1)) if transpose else group.mats
    out = np.empty((group.size, q**n), dtype=np.int64)
    for vi in range(q**n):
        v = decode_vector(vi, n, q)
        res = np.zeros((group.size, n), dtype=np.uint8)
        for k in range(n):
            res = f.add_table[res, f.mul_table[mats[:, :, k], v[k]]]
        out[:, vi] = res.astype(np.int64) @ (q ** np.arange(n, dtype=np.int64))
    return out


def _independent_tuples(field, n, vecs, size):
    """Ordered tuples of encoded vectors with linearly independent decodes,
    in lexicographic order."""
    q = field.q
    out = []

    def extend(prefix, rows):
        if len(prefix) == size:
            out.append(prefix)
            return
        for enc in vecs:
            if enc in prefix:
                continue
            v = decode_vector(enc, n, q)
            stacked = np.array(rows + [v], dtype=np.uint8)
            if rank(field, stacked) == len(rows) + 1:
                extend(prefix + (enc,), rows + [v])

    extend((), [])
    return out


def _dictator_family_ref(group, action):
    """Systems, masks and orders by the loop over every independent target
    tuple of every subspace, dropping the tuples no element meets."""
    nonzero = list(range(1, group.q**group.n))
    systems, masks, orders = [()], [np.ones(group.size, dtype=bool)], [0]
    for a in range(1, group.n + 1):
        targets = _independent_tuples(group.field, group.n, nonzero, a)
        for sub in enumerate_subspaces(group.field, group.n, a):
            v_encs = [encode_vector(row, group.q) for row in sub.basis]
            acts = action[:, v_encs]
            for us in targets:
                mask = np.all(acts == np.array(us)[None, :], axis=1)
                if mask.any():
                    systems.append(tuple(zip(v_encs, us)))
                    masks.append(mask)
                    orders.append(a)
    return systems, np.array(masks, dtype=np.uint8), np.array(orders, dtype=np.int64)


def _cells_ref(group, row_masks, func_masks, row_orders, func_orders):
    """The flat cells of each element, then the nonempty cells and their
    sizes per order, from the masks' incidences."""
    rows_of = np.nonzero(row_masks.T)[1].reshape(group.size, -1)
    funcs_of = np.nonzero(func_masks.T)[1].reshape(group.size, -1)
    width = func_masks.shape[0]
    flat = (rows_of[:, :, None] * width + funcs_of[:, None, :]).reshape(group.size, -1)
    cells, sizes = np.unique(flat, return_counts=True)
    orders = row_orders[cells // width] + func_orders[cells % width]
    return (flat, [cells[orders == d] for d in range(2 * group.n + 1)],
            [sizes[orders == d] for d in range(2 * group.n + 1)])


def _block_subgroup_ref(group, k):
    """Ordinals of diag(I_k, X), one X in SL_{n-k} at a time."""
    n = group.n
    if k == n:
        return np.array([group.identity], dtype=np.int64)
    mats = get_group("sl", n - k, group.q).mats if n - k >= 2 else [np.eye(n - k, dtype=np.uint8)]
    out = []
    for x in mats:
        m = np.eye(n, dtype=np.uint8)
        m[k:, k:] = x
        out.append(group.pos[group.scheme.domain_index.to_index(m)])
    return np.array(sorted(out), dtype=np.int64)


def _block_restriction_ref(group, in_set, g, h, k):
    """The X in SL_{n-k} with g diag(I_k, X) h in the set, one X at a time."""
    sub = get_group("sl", group.n - k, group.q)
    out = []
    for xo in range(sub.size):
        m = np.eye(group.n, dtype=np.uint8)
        m[k:, k:] = sub.mats[xo]
        prod = mat_mul(group.field, mat_mul(group.field, g, m), h)
        if in_set[group.pos[group.scheme.domain_index.to_index(prod)]]:
            out.append(xo)
    return np.array(out, dtype=np.int64)


def _assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in (1, 2)] + [(2, 3), (3, 3), (2, 4)])
def test_det_matches_elimination_on_every_matrix(q, n):
    field = get_field(q)
    every = _every_matrix(q, n)
    got = det(field, every)
    assert got.dtype == np.uint8 and got.shape == (every.shape[0],)
    assert got.tolist() == [_det_elimination(field, m) for m in every]


@pytest.mark.parametrize("q", [4, 5])
def test_det_matches_elimination_on_sampled_3x3(q):
    # every 3x3 matrix is checked for q = 2, 3 above; q^9 matrices are too many here
    field = get_field(q)
    every = _every_matrix(q, 3)
    sample = every[np.random.default_rng(q).choice(every.shape[0], size=3000, replace=False)]
    assert det(field, sample).tolist() == [_det_elimination(field, m) for m in sample]


def test_det_broadcasts_and_rejects_non_square():
    field = get_field(3)
    stack = _every_matrix(3, 2)[:12].reshape(3, 4, 2, 2)
    got = det(field, stack)
    assert got.shape == (3, 4)
    assert det(field, stack[1, 2]) == got[1, 2] == _det_elimination(field, stack[1, 2])
    assert det(field, np.zeros((0, 0), dtype=np.uint8)) == 1
    with pytest.raises(ToolkitError):
        det(field, np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("key", TABLE_GROUPS, ids=_group_id)
def test_element_tables_match_per_element_loops(key):
    g = get_group(*key)
    tables, identity = _element_tables_ref(*key)
    for name, want in tables.items():
        _assert_identical(getattr(g, name), want)
    assert g.identity == identity and g.size == tables["elements"].size
    for transpose in (False, True):
        _assert_identical(g.vector_action(transpose), _vector_action_ref(g, transpose))


@pytest.mark.parametrize("key", TABLE_GROUPS, ids=_group_id)
def test_mul_table_matches_row_loop(key):
    g = get_group(*key)
    want = np.stack([_mul_row_ref(g, i) for i in range(g.size)]).astype(np.int32)
    _assert_identical(g.mul_table(), want)


@pytest.mark.parametrize("key", TABLE_GROUPS, ids=_group_id)
def test_dictator_systems_match_target_loop(key):
    g = get_group(*key)
    systems = g.dictator_systems()
    rs, rm, ro = _dictator_family_ref(g, g.vector_action(False))
    fs, fm, fo = _dictator_family_ref(g, g.vector_action(True))
    assert systems.row_systems == rs and systems.func_systems == fs
    assert all(type(x) is int for s in systems.row_systems + systems.func_systems for pair in s for x in pair)
    _assert_identical(systems.row_orders, ro)
    _assert_identical(systems.func_orders, fo)
    # each reference mask is one system's comparison against its subspace's index column
    seen = []
    for column in systems.row_of.T:
        for k in np.unique(column):
            _assert_identical((column == k).astype(np.uint8), rm[k])
            seen.append(k)
    assert seen == list(range(len(rs)))
    flat, cells, sizes = _cells_ref(g, rm, fm, ro, fo)
    every_cell = np.sort(np.concatenate(systems.cells))
    _assert_identical(every_cell[systems.cell_of], flat)
    assert len(systems.cells) == len(systems.cell_sizes) == 2 * g.n + 1
    for d in range(2 * g.n + 1):
        _assert_identical(systems.cells[d], cells[d])
        _assert_identical(every_cell[systems.cell_orders == d], cells[d])
        _assert_identical(systems.cell_sizes[d], sizes[d])


@pytest.mark.parametrize("key", TABLE_GROUPS, ids=_group_id)
def test_block_subgroups_match_member_loop(key):
    g = get_group(*key)
    for k in range(g.n + 1):
        _assert_identical(block_subgroup_members(g, k), _block_subgroup_ref(g, k))


@pytest.mark.parametrize("key", [("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2), ("gl", 2, 3), ("gl", 3, 2)],
                         ids=_group_id)
def test_block_restriction_matches_member_loop(key):
    g = get_group(*key)
    rng = np.random.default_rng(11)
    for k in range(g.n):
        for density in (0.2, 0.6):
            in_set = rng.random(g.size) < density
            gp, hp = g.mats[rng.integers(g.size, size=2)]
            _assert_identical(_block_restriction(g, in_set, gp, hp, k), _block_restriction_ref(g, in_set, gp, hp, k))


def test_ordinals_of_maps_stacks_and_marks_non_members():
    g = get_group("sl", 2, 3)
    assert np.array_equal(g.ordinals_of(g.mats), np.arange(g.size))
    assert np.array_equal(g.ordinals_of(g.mats[[4, 9]].reshape(1, 2, 2, 2)), [[4, 9]])
    outside = np.array([[[1, 1], [1, 1]], [[2, 0], [0, 1]]], dtype=np.uint8)  # singular; det 2
    assert g.ordinals_of(outside).tolist() == [-1, -1]
    assert g.ordinals_of(np.eye(2, dtype=np.uint8)) == g.identity
    with pytest.raises(ToolkitError):
        g.ordinals_of(np.eye(3, dtype=np.uint8))
