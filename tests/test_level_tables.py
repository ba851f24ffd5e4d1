"""Level projectors from the character table against the generator
stream of dictator products they replaced.

The reference (tests/oracles.py) enumerates, for each order s, every
sorted tuple of independent monic input vectors (so every basis of each
subspace, up to scaling) with every independent ordered target tuple,
re-walks all lower orders for each d, and runs Gram-Schmidt over the
indicators.  The table's levels are sums of isotypic components, each
projected onto by convolution with a class function, so one real kernel
K_d per strict level.  The dimensions and the cumulative projectors must
agree.  The reference stream with the functional (transpose-action)
masks as well must span the same levels.
"""

import numpy as np
import pytest

from oracles import level_generator_masks, reference_levels
from qharm.cli import main
from qharm.errors import RefinementError
from qharm.gf import get_field
from qharm.groups import GroupTable, get_group, get_isotypic, get_levels, level_kernel


LEVEL_CASES = [
    ("sl", 2, 3, False),
    ("sl", 2, 5, False),
    ("sl", 3, 2, False),
    ("sl", 2, 3, True),
    ("sl", 2, 5, True),
    ("sl", 3, 2, True),
    ("gl", 2, 3, True),
    ("gl", 2, 5, False),
]


# the ids name the levels checked: the strict dictator levels
@pytest.mark.parametrize("kind,n,q,include_dual", LEVEL_CASES,
                         ids=[f"{k}-{n}-{q}-strict-{dual}" for k, n, q, dual in LEVEL_CASES])
def test_levels_match_generator_stream_reference(kind, n, q, include_dual):
    g = get_group(kind, n, q)
    levels = get_levels(g)
    ref_dims, ref_basis = reference_levels(g, n, include_dual)
    assert levels.dims == ref_dims
    proj = np.zeros((g.size, g.size))
    for d in range(n + 1):
        proj += level_kernel(g, d)
        r = ref_basis[: ref_dims[d]]
        assert np.max(np.abs(proj - r.conj().T @ r / g.size)) < 1e-12


@pytest.mark.parametrize("kind,n,q,include_dual", LEVEL_CASES,
                         ids=[f"{k}-{n}-{q}-strict-{dual}" for k, n, q, dual in LEVEL_CASES])
def test_level_kernels_are_orthogonal_projectors_summing_to_the_identity(kind, n, q, include_dual):
    # each K_d is real, symmetric and idempotent, K_d K_e = 0 for d != e,
    # and the K_d sum to the identity
    g = get_group(kind, n, q)
    kernels = [level_kernel(g, d) for d in range(n + 1)]
    for d, kern in enumerate(kernels):
        assert kern.dtype == np.float64 and np.max(np.abs(kern - kern.T)) < 1e-15
        for e, other in enumerate(kernels):
            assert np.max(np.abs(kern @ other - (kern if d == e else 0))) < 1e-12
    assert np.max(np.abs(np.sum(kernels, axis=0) - np.eye(g.size))) < 1e-12


def test_levels_refuse_a_class_function_with_an_imaginary_part(monkeypatch):
    # a character table whose level-1 row is rotated off the reals breaks
    # the closure of a level under duals that makes each Psi_{=d} real
    import qharm.groups as groups

    build = groups._character_table

    def rotated(group):
        chars = build(group)
        chars.table[chars.levels == 1] *= 1j
        return chars

    monkeypatch.setattr(groups, "_character_table", rotated)
    with pytest.raises(RefinementError, match="imaginary part"):
        get_levels(GroupTable("sl", 2, get_field(3)))


def test_level_generators_are_one_basis_per_subspace():
    # the table holds each umvirate once: fewer generators, same span
    g = get_group("sl", 3, 2)
    systems = g.dictator_systems()
    assert len(systems.row_systems) == 512
    assert len(level_generator_masks(g, 3)) == 5636
    masks = np.zeros((len(systems.row_systems), g.size), dtype=bool)
    masks[systems.row_of, np.arange(g.size)[:, None]] = True
    assert len({m.tobytes() for m in masks}) == len(masks)


def test_level_build_rejects_orders_outside_0_to_n(tmp_path, capsys):
    # `qharm levels` refuses --dmax -1 and n + 1 with status 2 and writes nothing
    for dmax in (-1, 3):
        out = tmp_path / str(dmax)
        assert main(["levels", "--q", "3", "--n", "2", "--group", "sl", "--dmax", str(dmax), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dmax={dmax} must lie in [0, n=2]\n"
        assert not (out / "level_dims.csv").exists()


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
