"""The group set algebra against its per-element loops.

Easy-set covers, the meet check of the 0.99-density step, conjugation
orbit counts, junta tests and projections and product-free witnesses
each read one gather of the multiplication table.  The references in
tests/oracles.py walk one element (or one pair) at a time; on seeded sets
of SL_2(F_3), SL_2(F_5), SL_3(F_2) and GL_2(F_3) every output must be
equal to theirs, the junta projections bit for bit.
"""

import numpy as np
import pytest

from oracles import (
    brute_product,
    coset_representatives_ref,
    dense_sets_meet_ref,
    first_collision_ref,
    junta_project_ref,
    junta_test_ref,
    orbit_count_ref,
)
from qharm.bogolyubov import GroupSet, density_bogolyubov, easy_set_cover, groumvirate_orbit_count, inverse_set, product_set
from qharm.fqlin import enumerate_subspaces
from qharm.globality import GoodUmvirate
from qharm.groups import get_group, junta_project, junta_test
from qharm.spectra import product_free_witness

GROUPS = [("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2), ("gl", 2, 3)]
DET_ONE = GROUPS[:3]  # the density step partitions good umvirates, cosets of SL_{n-k}


def _ids(groups):
    return [f"{kind}-{n}-{q}" for kind, n, q in groups]


def _seeded_sets(group, seed, count=10):
    """Random sets of a few sizes, then groumvirate cosets g L_k g^-1 h with a little noise."""
    rng = np.random.default_rng(seed)
    sets = [GroupSet(group, rng.choice(group.size, size=int(rng.integers(1, group.size // 3)), replace=False))
            for _ in range(count)]
    for _ in range(count):
        k = int(rng.integers(0, group.n))
        g = int(rng.integers(group.size))
        gu = GoodUmvirate(group, k, g, int(group.mul_table()[group.inv[g], rng.integers(group.size)]))
        noise = rng.choice(group.size, size=int(rng.integers(0, 4)), replace=False)
        sets.append(GroupSet(group, np.concatenate([gu.members(), noise])))
    return sets


def _symmetric(a):
    return GroupSet(a.group, np.concatenate([a.ordinals, inverse_set(a).ordinals]))


@pytest.mark.parametrize("kind,n,q", GROUPS, ids=_ids(GROUPS))
def test_cover_representatives_match_the_coset_loop(kind, n, q):
    group = get_group(kind, n, q)
    counts = []
    for a in map(_symmetric, _seeded_sets(group, 26)):
        res = easy_set_cover(a)
        u = res.easy_set.umvirate.members()
        reps = coset_representatives_ref(group, a.ordinals, u)
        assert np.array_equal(res.easy_set.representatives, reps)
        assert res.coset_count == reps.size
        assert res.easy_set.members().tolist() == sorted(brute_product(group, reps, u))
        assert res.covers and res.inside_a5
        counts.append(res.coset_count)
    assert max(counts) > 1


@pytest.mark.parametrize("kind,n,q", DET_ONE, ids=_ids(DET_ONE))
def test_density_step_meets_as_the_per_element_loop(kind, n, q):
    group = get_group(kind, n, q)
    reached = 0
    for a in _seeded_sets(group, 27):
        res = density_bogolyubov(a)
        members = res.groumvirate.members()
        in_aai = np.isin(members, product_set(a, inverse_set(a)).ordinals)
        assert res.density_in_groumvirate == float(np.mean(in_aai))
        assert res.containment_verified == res.reached_099
        if res.reached_099:
            assert dense_sets_meet_ref(group, members, members[in_aai])
            reached += 1
    assert reached > 0


@pytest.mark.parametrize("kind,n,q", GROUPS, ids=_ids(GROUPS))
def test_meet_is_containment_in_t_t_inverse(kind, n, q):
    # x T meets T exactly when x lies in T T^-1, for sparse and dense T alike
    group = get_group(kind, n, q)
    rng = np.random.default_rng(28)
    outcomes = set()
    for k in range(n + 1):
        members = GoodUmvirate(group, k, group.identity, group.identity).members()
        for density in (0.05, 0.3, 0.99):
            t = members[rng.random(members.size) < density]
            t_set = GroupSet(group, t)
            meets = dense_sets_meet_ref(group, members, t)
            assert meets == bool(np.all(product_set(t_set, inverse_set(t_set)).mask()[members]))
            outcomes.add(meets)
    assert outcomes == {True, False}


@pytest.mark.parametrize("kind,n,q", GROUPS, ids=_ids(GROUPS))
def test_orbit_counts_match_the_frozenset_loop(kind, n, q):
    group = get_group(kind, n, q)
    for k in range(n + 1):
        assert groumvirate_orbit_count(group, k) == orbit_count_ref(group, k)


@pytest.mark.parametrize("kind,n,q", GROUPS, ids=_ids(GROUPS))
def test_juntas_match_the_stabilizer_loops(kind, n, q):
    group = get_group(kind, n, q)
    rng = np.random.default_rng(29)
    outcomes = set()
    for d in range(n + 1):
        for u in enumerate_subspaces(group.field, n, d):
            f = group.table(rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size))
            p = junta_project(f, u)
            assert np.array_equal(p.values, junta_project_ref(f, u))
            assert junta_test(f, u) == junta_test_ref(f, u)
            assert junta_test(p, u) and junta_test_ref(p, u)
            outcomes.add(junta_test(f, u))
    assert outcomes == {True, False}


@pytest.mark.parametrize("kind,n,q", GROUPS, ids=_ids(GROUPS))
def test_first_collision_matches_the_pair_loop(kind, n, q):
    group = get_group(kind, n, q)
    rng = np.random.default_rng(30)
    free = []
    for a in _seeded_sets(group, 31) + [GroupSet(group, rng.choice(group.size, size=3, replace=False))
                                         for _ in range(20)]:
        rep = product_free_witness(a)
        collision = first_collision_ref(group, a.ordinals)
        assert rep.witness_collision == collision
        assert rep.product_free == (collision is None)
        free.append(rep.product_free)
    assert set(free) == {True, False}
