"""The Bogolyubov pipeline against its per-groumvirate and per-piece loops.

Groumvirate enumeration takes one determinant of every (fixed subspace,
complement) pair, the containment search reads one (groumvirates, |L_k|)
gather per k, and the bump search reads one (pieces, |SL_{n-k}|) gather
per step and accumulates its coset as ordinals.  The references in
tests/oracles.py walk one pair, one groumvirate or one piece at a time
and accumulate n x n matrices; on seeded sets of seven groups every
output must be equal to theirs.
"""

import numpy as np
import pytest

from oracles import (
    density_bump_search_ref,
    first_contained_ref,
    groumvirate_enumerate_ref,
)
from qharm.bogolyubov import GroupSet, bogolyubov_search, density_bogolyubov, groumvirate_enumerate, quadruple_product
from qharm.errors import ToolkitError
from qharm.fqlin import mat_mul
from qharm.globality import GoodUmvirate, _block_ordinals, density_bump_search
from qharm.groups import get_group

GROUPS = [("sl", 2, 3), ("sl", 2, 4), ("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 2), ("gl", 2, 3), ("gl", 3, 2)]
IDS = [f"{kind}-{n}-{q}" for kind, n, q in GROUPS]


def _seeded_sets(group, seed, count=8):
    """Random sets, groumvirate cosets g L_k g^-1 h with a little noise, and
    near-full sets (dense enough that a mild audit passes them)."""
    rng = np.random.default_rng(seed)
    sets = [rng.choice(group.size, size=int(rng.integers(1, group.size)), replace=False) for _ in range(count)]
    for _ in range(count):
        k = int(rng.integers(0, group.n))
        g = int(rng.integers(group.size))
        gu = GoodUmvirate(group, k, g, int(group.mul_table()[group.inv[g], rng.integers(group.size)]))
        sets.append(np.concatenate([gu.members(), rng.choice(group.size, size=int(rng.integers(0, 6)), replace=False)]))
    for _ in range(count // 2):
        drop = rng.choice(group.size, size=int(rng.integers(1, max(2, group.size // 10))), replace=False)
        sets.append(np.setdiff1d(np.arange(group.size), drop))
    return [GroupSet(group, s) for s in sets]


def _umvirates(found):
    return [(u.k, u.g, u.h) for u in found]


def _bump(group, ordinals, zeta, search):
    """Every field of the bump result, or the refusal's type and message."""
    try:
        b = search(group, ordinals, zeta=zeta)
    except ToolkitError as e:
        return type(e), str(e)
    return (b.k, b.g, b.h, b.restricted_group, b.restricted_ordinals.tolist(), [vars(t) for t in b.trace], b.reason)


@pytest.mark.parametrize("key", GROUPS + [("sl", 3, 3)], ids=IDS + ["sl-3-3"])
def test_groumvirates_match_the_pair_loop(key):
    # SL_3(F_3) has pairs of determinant 2, to be scaled, not dropped
    group = get_group(*key)
    for k in range(group.n + 1):
        assert _umvirates(groumvirate_enumerate(group, k)) == _umvirates(groumvirate_enumerate_ref(group, k))


@pytest.mark.parametrize("key", GROUPS, ids=IDS)
def test_search_matches_the_groumvirate_scan(key):
    group = get_group(*key)
    ks = set()
    for a in _seeded_sets(group, 32):
        res = bogolyubov_search(a)
        ref = first_contained_ref(group, quadruple_product(a).mask())
        assert _umvirates([res.contained]) == _umvirates([ref])
        assert res.density == ref.density()
        ks.add(ref.k)
    assert len(ks) > 1


@pytest.mark.parametrize("key", GROUPS, ids=IDS)
def test_bump_search_matches_the_piece_loop(key):
    group = get_group(*key)
    reasons = set()
    for a in _seeded_sets(group, 33):
        for zeta in (0.01, 0.3, 1.0):
            got = _bump(group, a.ordinals, zeta, density_bump_search)
            assert got == _bump(group, a.ordinals, zeta, density_bump_search_ref)
            reasons.add(got[-1] if len(got) > 2 else "refused")
    # GL_2(F_3) has elements of determinant 2, so the search refuses it
    assert reasons == ({"refused"} if key == ("gl", 2, 3) else {"global", "trivial_group"})


@pytest.mark.parametrize("key", GROUPS[:5] + GROUPS[6:], ids=IDS[:5] + IDS[6:])
def test_density_step_matches_the_piece_loop(key):
    group = get_group(*key)
    for a in _seeded_sets(group, 34):
        res = density_bogolyubov(a)
        ref = density_bump_search_ref(group, a.ordinals)
        assert (res.bump.k, res.bump.g, res.bump.h) == (ref.k, ref.g, ref.h)
        assert _umvirates([res.groumvirate]) == [(ref.k, ref.g, int(group.inv[ref.g]))]


@pytest.mark.parametrize("key", GROUPS, ids=IDS)
def test_block_ordinals_compose_as_matrix_products(key):
    # the bump search's accumulated coset: g diag(I_k, Y) for Y in SL_{n-k}
    group = get_group(*key)
    rng = np.random.default_rng(35)
    m = group.mul_table()
    for k in range(group.n):
        sub = get_group("sl", group.n - k, group.q)
        for g, y in zip(rng.integers(group.size, size=6), rng.integers(sub.size, size=6)):
            block = np.eye(group.n, dtype=np.uint8)
            block[k:, k:] = sub.mats[y]
            assert m[g, _block_ordinals(group, k)[y]] == group.ordinals_of(mat_mul(group.field, group.mats[g], block))
            assert m[_block_ordinals(group, k)[y], g] == group.ordinals_of(mat_mul(group.field, block, group.mats[g]))
