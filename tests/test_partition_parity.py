"""The batched good-umvirate partition against a scalar reference.

`reference_partition` (tests/oracles.py) is the per-fill construction:
one loop step per choice of the free entries, six scalar 3x3 inverses
per piece (by rref of [A | I]), the greedy leftmost-full-rank column
pick, and 0/1 permutation matrices.  `globality.good_umvirate_partition`
builds all pieces in one pass from a closed-form factorization; both
must give the same pieces, in the same order, with the same (g, h)
ordinals.
"""

import numpy as np
import pytest

from oracles import reference_partition
from qharm.globality import Umvirate, good_umvirate_partition
from qharm.groups import get_group


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
        u = Umvirate(g, int(cell))
        got = [(p.k, p.g, p.h) for p in good_umvirate_partition(u)]
        assert got == reference_partition(u), u.describe()
        n_pieces += len(got)
    assert n_pieces >= len(cells)  # every cell is nonempty, so it has a piece
