"""Product-set algebra, groumvirate enumeration, the Bogolyubov containment
search, the 0.99-density step, and easy-set covers."""

import math

import numpy as np
import pytest

import qharm.bogolyubov as bogolyubov
from oracles import brute_product
from qharm.bogolyubov import (
    GroupSet,
    bogolyubov_search,
    density_bogolyubov,
    easy_set_cover,
    groumvirate_enumerate,
    groumvirate_orbit_count,
    pigeonhole_check,
    quadruple_product,
    inverse_set,
    product_set,
)
from qharm.errors import ConsistencyError, ToolkitError
from qharm.globality import GoodUmvirate, block_subgroup_members
from qharm.groups import get_group

RNG = np.random.default_rng(5150)


def test_set_algebra_identities():
    g = get_group("sl", 2, 3)
    a = GroupSet(g, RNG.choice(g.size, size=7, replace=False))
    e = GroupSet(g, [g.identity])
    assert np.array_equal(product_set(a, e).ordinals, a.ordinals)
    # a subgroup is closed under product and inverse
    lk = GroupSet(get_group("sl", 3, 2), block_subgroup_members(get_group("sl", 3, 2), 1))
    assert np.array_equal(product_set(lk, lk).ordinals, lk.ordinals)
    assert np.array_equal(inverse_set(lk).ordinals, lk.ordinals)


def test_product_set_matches_double_loop():
    g = get_group("sl", 2, 3)
    a = GroupSet(g, RNG.choice(g.size, size=5, replace=False))
    b = GroupSet(g, RNG.choice(g.size, size=6, replace=False))
    prod = product_set(a, b)
    assert set(prod.ordinals.tolist()) == brute_product(g, a.ordinals, b.ordinals)


def test_quadruple_product():
    g = get_group("sl", 2, 3)
    a = GroupSet(g, RNG.choice(g.size, size=4, replace=False))
    quad = quadruple_product(a)
    step = product_set(a, inverse_set(a))
    assert np.array_equal(quad.ordinals, product_set(step, step).ordinals)


def test_groumvirate_enumeration_counts():
    g = get_group("sl", 3, 2)
    assert len(groumvirate_enumerate(g, 0)) == 1
    conj = groumvirate_enumerate(g, 1)
    # parametrization: 7 fixed lines x 4 invariant complements
    assert len(conj) == 28
    orbit, by_normalizer = groumvirate_orbit_count(g, 1)
    assert orbit == 28 and by_normalizer == 28
    # all conjugates of L_1 have |SL_2(F_2)| = 6 elements and are subgroups
    m = g.mul_table()
    seen = set()
    for gu in conj:
        mem = gu.members()
        assert len(mem) == 6
        assert m[gu.g, gu.h] == g.identity
        prods = m[np.ix_(mem, mem)]
        assert set(np.unique(prods).tolist()) == set(mem.tolist())
        assert np.all(np.isin(g.inv[mem], mem))
        seen.add(frozenset(mem.tolist()))
    assert len(seen) == 28


def test_bogolyubov_search_full_group():
    g = get_group("sl", 3, 2)
    res = bogolyubov_search(GroupSet(g, np.arange(g.size)))
    assert res.contained.k == 0
    assert res.density == 1.0


def test_bogolyubov_search_good_umvirate_coset():
    g = get_group("sl", 3, 2)
    for _ in range(3):
        gu = GoodUmvirate(g, 1, int(RNG.integers(g.size)), int(RNG.integers(g.size)))
        a = GroupSet(g, gu.members())
        res = bogolyubov_search(a)
        # A A^{-1} = g L_1 g^{-1}, so that groumvirate is contained
        assert res.contained.k == 1
        assert abs(res.density - 6 / 168) < 1e-12
        expected = GoodUmvirate(g, 1, gu.g, int(g.inv[gu.g]))
        assert set(res.contained.members().tolist()) == set(expected.members().tolist())


def test_bogolyubov_search_dense_set_pigeonhole():
    g = get_group("sl", 2, 3)
    for _ in range(5):
        size = int(g.size // 2 + 1 + RNG.integers(0, 5))
        a = GroupSet(g, RNG.choice(g.size, size=size, replace=False))
        res = bogolyubov_search(a)
        assert res.product_set.size == g.size
        assert res.contained.k == 0
        out = pigeonhole_check(a)
        assert out["aainv_is_group"] and out["quad_is_group"]


def test_exponent_of_the_whole_group_is_plus_zero():
    # H = G has mu(H) = 1, so C = log 1 / log mu(A) is 0 with a positive sign
    g = get_group("sl", 2, 5)
    a = GroupSet(g, np.random.default_rng(6).choice(g.size, size=72, replace=False))  # density 0.6
    res = bogolyubov_search(a)
    assert res.density == 1.0 and a.mu == 0.6
    assert res.exponent == 0.0 and math.copysign(1, res.exponent) == 1


def test_pigeonhole_law_failure_raises_consistency_error(monkeypatch):
    g = get_group("sl", 2, 3)
    a = GroupSet(g, np.arange(13))  # mu(A) > 1/2
    assert pigeonhole_check(a)["aainv_is_group"]
    monkeypatch.setattr(bogolyubov, "product_set", lambda x, y: GroupSet(g, [g.identity]))
    with pytest.raises(ConsistencyError):
        pigeonhole_check(a)


def test_singleton_fallback():
    g = get_group("sl", 2, 3)
    a = GroupSet(g, [5])
    res = bogolyubov_search(a)
    # {e} is always contained; a singleton A gives exactly that
    assert res.contained.density() >= 1 / g.size - 1e-12


def test_density_bogolyubov_groumvirate_itself():
    g = get_group("sl", 3, 2)
    gu = GoodUmvirate(g, 1, 23, int(g.inv[23]))
    a = GroupSet(g, gu.members())
    res = density_bogolyubov(a)
    assert res.density_in_groumvirate == 1.0
    assert res.reached_099 and res.containment_verified
    assert set(res.groumvirate.members().tolist()) == set(a.ordinals.tolist())


def test_density_bogolyubov_very_dense_set():
    g = get_group("sl", 3, 2)
    drop = RNG.choice(g.size, size=0, replace=False)
    a = GroupSet(g, np.setdiff1d(np.arange(g.size), drop))
    res = density_bogolyubov(a)
    assert res.groumvirate.k == 0
    assert res.reached_099 and res.containment_verified


def test_density_bogolyubov_structured_set_recount():
    g = get_group("sl", 3, 2)
    gu = GoodUmvirate(g, 1, 40, int(g.inv[40]))
    noise = RNG.choice(g.size, size=4, replace=False)
    a = GroupSet(g, np.concatenate([gu.members(), noise]))
    res = density_bogolyubov(a)
    # recount the reported density directly
    aai = product_set(a, inverse_set(a))
    members = res.groumvirate.members()
    dens = np.mean(np.isin(members, aai.ordinals))
    assert res.density_in_groumvirate == pytest.approx(float(dens))


def test_easy_set_cover_subgroup():
    g = get_group("sl", 3, 2)
    lk = GroupSet(g, block_subgroup_members(g, 1))
    res = easy_set_cover(lk)
    assert res.k_ratio == 1.0
    assert res.covers and res.inside_a5
    assert set(res.easy_set.members().tolist()) >= set(lk.ordinals.tolist())


def test_easy_set_cover_full_group():
    g = get_group("sl", 3, 2)
    res = easy_set_cover(GroupSet(g, np.arange(g.size)))
    assert res.k_ratio == 1.0
    assert res.coset_count == 1


def test_easy_set_cover_three_cosets():
    g = get_group("sl", 3, 2)
    gu = GoodUmvirate(g, 1, g.identity, g.identity)
    u = gu.members()
    m = g.mul_table()
    x1, x2 = 7, 90
    a = set(u.tolist()) | set(m[x1, u].tolist()) | set(m[x2, u].tolist())
    a |= {int(g.inv[x]) for x in a}
    aset = GroupSet(g, np.array(sorted(a)))
    # symmetrize fully
    assert np.array_equal(inverse_set(aset).ordinals, aset.ordinals)
    res = easy_set_cover(aset)
    assert res.covers and res.inside_a5
    assert res.coset_count <= 9


def test_easy_set_cover_rejects_asymmetric():
    g = get_group("sl", 2, 3)
    # pick a non-symmetric set
    a = GroupSet(g, [1, 2, 3])
    if np.array_equal(inverse_set(a).ordinals, a.ordinals):
        a = GroupSet(g, [1, 2, 3, 4])
    with pytest.raises(ToolkitError):
        easy_set_cover(a)


def test_symmetric_set_contained_in_triple_product():
    g = get_group("sl", 2, 3)
    for _ in range(5):
        ords = RNG.choice(g.size, size=6, replace=False)
        sym = np.unique(np.concatenate([ords, g.inv[ords]]))
        a = GroupSet(g, sym)
        triple = product_set(product_set(a, inverse_set(a)), a)
        assert np.all(np.isin(a.ordinals, triple.ordinals))


def test_out_of_range_ordinals_are_rejected():
    g = get_group("sl", 2, 3)
    for bad in ([-1, 3], [24], [0, -24]):
        with pytest.raises(ToolkitError, match="ordinals must lie in"):
            GroupSet(g, bad)
        with pytest.raises(ToolkitError, match="ordinals must lie in"):
            g.indicator(bad)
    assert GroupSet(g, []).size == 0  # empty sets stay valid; the mixing functions reject them
    assert GroupSet(g, [23, 0, 23]).mask().nonzero()[0].tolist() == [0, 23]
