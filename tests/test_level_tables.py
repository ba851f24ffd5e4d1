"""Level bases from the shared dictator-system table against the
generator stream they replaced.

The reference below enumerates, for each order s, every sorted tuple of
independent monic input vectors (so every basis of each subspace, up to
scaling) with every independent ordered target tuple, and re-walks all
lower orders for each d.  The table takes one echelon basis per
subspace.  For an s-dimensional subspace S the masks {g : g|_S = phi}
over all injective phi are the same set whichever basis of S is used,
so the spans, hence the dimensions and the cumulative projectors, must
agree; the orthonormal bases themselves differ.  The reference stream
with the functional (transpose-action) masks as well must span the
same levels as the row-only table build.
"""

import itertools

import numpy as np
import pytest

from qharm.errors import ToolkitError
from qharm.fqlin import decode_vector, rank
from qharm.groups import (
    _GramSchmidtRows,
    build_level_basis,
    get_group,
    get_isotypic,
    multiplicative_characters,
)


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


def _monic_vectors(field, n):
    """Encodings of one representative per projective class (first nonzero = 1)."""
    out = []
    for vi in range(1, field.q**n):
        v = decode_vector(vi, n, field.q)
        if v[np.flatnonzero(v)[0]] == 1:
            out.append(vi)
    return out


def _level_generator_masks(group, d, include_dual=False):
    """Indicator rows of all canonical <= d-umvirate products."""
    field, n, q = group.field, group.n, group.q
    monic = _monic_vectors(field, n)
    nonzero = list(range(1, q**n))
    rows = [np.ones(group.size, dtype=bool)]
    families = [group.vector_action(False)]
    if include_dual:
        families.append(group.vector_action(True))
    for s in range(1, d + 1):
        v_sets = [
            vs for vs in itertools.combinations(monic, s)
            if rank(field, np.array([decode_vector(v, n, q) for v in vs], dtype=np.uint8)) == s
        ]
        u_tuples = _independent_tuples(field, n, nonzero, s)
        for act in families:
            for vs in v_sets:
                sub_act = act[:, list(vs)]
                for us in u_tuples:
                    mask = np.all(sub_act == np.array(us)[None, :], axis=1)
                    if mask.any():
                        rows.append(mask)
    return np.array(rows, dtype=np.float64)


def _reference_levels(group, dmax, mode="strict", include_dual=False):
    chars = multiplicative_characters(group) if mode == "twisted" else np.ones((1, group.size))
    rows = _GramSchmidtRows(group.size)
    dims = []
    prev_gens = 0
    for d in range(dmax + 1):
        gens = _level_generator_masks(group, d, include_dual)
        for row in gens[prev_gens:]:
            for chi in chars:
                rows.extend(row * chi)
        prev_gens = gens.shape[0]
        dims.append(len(rows))
    return dims, rows.basis()


@pytest.mark.parametrize(
    "kind,n,q,mode,include_dual",
    [
        ("sl", 2, 3, "strict", False),
        ("sl", 2, 5, "strict", False),
        ("sl", 3, 2, "strict", False),
        ("sl", 2, 3, "strict", True),
        ("sl", 2, 5, "strict", True),
        ("sl", 3, 2, "strict", True),
        ("gl", 2, 3, "strict", True),
        ("gl", 2, 3, "twisted", False),
        ("gl", 2, 3, "twisted", True),
        ("gl", 2, 4, "twisted", False),
    ],
)
def test_levels_match_generator_stream_reference(kind, n, q, mode, include_dual):
    g = get_group(kind, n, q)
    levels = build_level_basis(g, n, mode=mode)
    ref_dims, ref_basis = _reference_levels(g, n, mode, include_dual)
    assert levels.dims == ref_dims
    for d in range(n + 1):
        b = levels.cum_basis(d)
        r = ref_basis[: ref_dims[d]]
        proj = b.conj().T @ b / g.size
        ref_proj = r.conj().T @ r / g.size
        assert np.max(np.abs(proj - ref_proj)) < 1e-12


def test_level_generators_are_one_basis_per_subspace():
    # the table holds each umvirate once: fewer generators, same span
    g = get_group("sl", 3, 2)
    systems = g.dictator_systems()
    assert len(systems.row_systems) == 512
    assert len(_level_generator_masks(g, 3)) == 5636
    masks = np.zeros((len(systems.row_systems), g.size), dtype=bool)
    masks[systems.row_of, np.arange(g.size)[:, None]] = True
    assert len({m.tobytes() for m in masks}) == len(masks)


def test_level_build_rejects_orders_outside_0_to_n():
    g = get_group("sl", 2, 3)
    for dmax in (-1, 3):
        with pytest.raises(ToolkitError, match="must lie in"):
            build_level_basis(g, dmax)


RECORDED_ISOTYPIC = {
    ("sl", 2, 3): ({0: [1], 1: [2, 2, 3], 2: [1, 1, 2]}, {0: 1, 1: 2, 2: 1}),
    ("sl", 2, 5): ({0: [1], 1: [3, 3, 5, 6], 2: [2, 2, 4, 4]}, {0: 1, 1: 3, 2: 2}),
    ("sl", 2, 7): ({0: [1], 1: [4, 4, 7, 8, 8], 2: [3, 3, 6, 6, 6]}, {0: 1, 1: 4, 2: 3}),
    ("sl", 3, 2): ({0: [1], 1: [6], 2: [7, 8], 3: [3, 3]}, {0: 1, 1: 6, 2: 7, 3: 3}),
    ("gl", 2, 3): ({0: [1], 1: [3, 4], 2: [1, 2, 2, 2, 3]}, {0: 1, 1: 3, 2: 1}),
}


@pytest.mark.parametrize("key", sorted(RECORDED_ISOTYPIC))
def test_isotypic_dims_match_recorded(key):
    rep = get_isotypic(get_group(*key))
    component_dims, m_d = RECORDED_ISOTYPIC[key]
    assert rep.component_dims == component_dims
    assert rep.m_d == m_d
