"""Group tables by gathers against the per-element loops they replaced.

`GroupTable` takes every determinant with one broadcast Leibniz `det`,
inverses and products from gathers on the vector action, and the
dictator systems as the distinct action rows per subspace.  Each
reference in tests/oracles.py is the earlier loop: one elimination
determinant and one inverse per matrix, one product row per element,
one vector per action column, one mask per independent target tuple,
and one matrix per member of L_k and of a bump restriction (which src
reads from one `coset_rows` gather).  Every table must equal its
reference exactly, dtype included.
"""

import numpy as np
import pytest

from oracles import (
    block_restriction_ref,
    block_subgroup_ref,
    cells_ref,
    det_elimination,
    dictator_family_ref,
    element_tables_ref,
    mul_row_ref,
    vector_action_ref,
)
from qharm.errors import ToolkitError
from qharm.fqlin import IndexMap, det
from qharm.gf import get_field
from qharm.globality import block_subgroup_members, coset_rows
from qharm.groups import get_group

TABLE_GROUPS = [
    ("sl", 1, 2), ("sl", 1, 3),
    ("sl", 2, 2), ("sl", 2, 3), ("sl", 2, 4), ("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 2),
    ("gl", 2, 2), ("gl", 2, 3), ("gl", 2, 4), ("gl", 2, 5), ("gl", 3, 2),
]


def _group_id(key):
    return "%s-%d-%d" % key


def _every_matrix(q, n):
    return IndexMap(get_field(q), n, n).digits_table().reshape(-1, n, n)


def _assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in (1, 2)] + [(2, 3), (3, 3), (2, 4)])
def test_det_matches_elimination_on_every_matrix(q, n):
    field = get_field(q)
    every = _every_matrix(q, n)
    got = det(field, every)
    assert got.dtype == np.uint8 and got.shape == (every.shape[0],)
    assert got.tolist() == [det_elimination(field, m) for m in every]


@pytest.mark.parametrize("q", [4, 5])
def test_det_matches_elimination_on_sampled_3x3(q):
    # every 3x3 matrix is checked for q = 2, 3 above; q^9 matrices are too many here
    field = get_field(q)
    every = _every_matrix(q, 3)
    sample = every[np.random.default_rng(q).choice(every.shape[0], size=3000, replace=False)]
    assert det(field, sample).tolist() == [det_elimination(field, m) for m in sample]


def test_det_broadcasts_and_rejects_non_square():
    field = get_field(3)
    stack = _every_matrix(3, 2)[:12].reshape(3, 4, 2, 2)
    got = det(field, stack)
    assert got.shape == (3, 4)
    assert det(field, stack[1, 2]) == got[1, 2] == det_elimination(field, stack[1, 2])
    assert det(field, np.zeros((0, 0), dtype=np.uint8)) == 1
    with pytest.raises(ToolkitError):
        det(field, np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("key", TABLE_GROUPS, ids=_group_id)
def test_element_tables_match_per_element_loops(key):
    g = get_group(*key)
    tables, identity = element_tables_ref(*key)
    for name, want in tables.items():
        _assert_identical(getattr(g, name), want)
    assert g.identity == identity and g.size == tables["elements"].size
    for transpose in (False, True):
        _assert_identical(g.vector_action(transpose), vector_action_ref(g, transpose))


@pytest.mark.parametrize("key", TABLE_GROUPS, ids=_group_id)
def test_mul_table_matches_row_loop(key):
    g = get_group(*key)
    want = np.stack([mul_row_ref(g, i) for i in range(g.size)]).astype(np.int32)
    _assert_identical(g.mul_table(), want)


@pytest.mark.parametrize("key", TABLE_GROUPS, ids=_group_id)
def test_dictator_systems_match_target_loop(key):
    g = get_group(*key)
    systems = g.dictator_systems()
    rs, rm, ro = dictator_family_ref(g, g.vector_action(False))
    fs, fm, fo = dictator_family_ref(g, g.vector_action(True))
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
    flat, cells, sizes = cells_ref(g, rm, fm, ro, fo)
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
        _assert_identical(block_subgroup_members(g, k), block_subgroup_ref(g, k))


@pytest.mark.parametrize("key", [("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2), ("gl", 2, 3), ("gl", 3, 2)],
                         ids=_group_id)
def test_block_restriction_matches_member_loop(key):
    g = get_group(*key)
    rng = np.random.default_rng(11)
    for k in range(g.n):
        for density in (0.2, 0.6):
            in_set = rng.random(g.size) < density
            go, ho = rng.integers(g.size, size=2)
            restricted = np.flatnonzero(in_set[coset_rows(g, k, [go], [ho])[0]])
            _assert_identical(restricted, block_restriction_ref(g, in_set, g.mats[go], g.mats[ho], k))


def test_ordinals_of_maps_stacks_and_marks_non_members():
    g = get_group("sl", 2, 3)
    assert np.array_equal(g.ordinals_of(g.mats), np.arange(g.size))
    assert np.array_equal(g.ordinals_of(g.mats[[4, 9]].reshape(1, 2, 2, 2)), [[4, 9]])
    outside = np.array([[[1, 1], [1, 1]], [[2, 0], [0, 1]]], dtype=np.uint8)  # singular; det 2
    assert g.ordinals_of(outside).tolist() == [-1, -1]
    assert g.ordinals_of(np.eye(2, dtype=np.uint8)) == g.identity
    with pytest.raises(ToolkitError):
        g.ordinals_of(np.eye(3, dtype=np.uint8))
