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

import oracles
from oracles import (
    density_bump_search_ref,
    first_contained_ref,
    groumvirate_enumerate_ref,
)
from qharm import globality
from qharm.bogolyubov import GroupSet, bogolyubov_search, density_bogolyubov, groumvirate_enumerate, quadruple_product
from qharm.errors import ToolkitError
from qharm.fqlin import mat_mul
from qharm.globality import (
    GoodUmvirate,
    SetAuditResult,
    Umvirate,
    _block_ordinals,
    density_bump_search,
    set_global_audit,
)
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


@pytest.mark.parametrize("key", [("sl", 2, 3), ("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 2), ("gl", 3, 2)],
                         ids=["sl-2-3", "sl-2-5", "sl-2-7", "sl-3-2", "gl-3-2"])
def test_bump_search_takes_one_step_when_one_over_mu_exceeds_r_to_the_2n(key):
    # each a in A is an order-2n cell {a} of ratio 1/mu, which no cell exceeds,
    # so the chosen violation lies in A, and so does the piece it steps into
    group = get_group(*key)
    checked = 0
    for a in _seeded_sets(group, 36):
        mu = a.ordinals.size / group.size
        for zeta in (0.0, 0.01, 0.1, 1.0, 3.0):
            r = float(group.q) ** (zeta * group.n / 2)
            if 1.0 / mu <= r ** (2 * group.n) + 1e-12:
                continue
            trace = density_bump_search(group, a.ordinals, zeta=zeta).trace
            assert len(trace) == 1
            assert trace[0].violation_ratio == 1.0 / mu
            assert trace[0].density_after == 1.0
            checked += 1
    assert checked >= 20


def _audit_reporting_at_second_call(cell):
    """set_global_audit, except that its second call reports the given cell
    of the restricted group as its one violation, at its true ratio."""
    calls = []

    def audit(group, ordinals, **kwargs):
        calls.append(group)
        res = set_global_audit(group, ordinals, **kwargs)
        if len(calls) != 2:
            return res
        u = Umvirate(group, cell)
        members = u.members()
        ratio = (np.count_nonzero(np.isin(members, ordinals)) / members.size) / (ordinals.size / group.size)
        return SetAuditResult(res.report, [{"order": u.order, "ratio": ratio, "umvirate": u}])

    return audit


def test_second_bump_step_accumulates_as_the_matrix_reference(monkeypatch):
    # no seeded search takes a second step (the density_bump_search docstring
    # proves one case), so the second audit is made to report a real cell of
    # SL_2(F_2): its pieces are then accumulated after a first step of k = 1
    group = get_group("sl", 3, 2)
    a = GoodUmvirate(group, 1, 17, 101).members()
    cells = np.concatenate(get_group("sl", 2, 2).dictator_systems().cells[1:3])
    reasons = set()
    for cell in cells:
        monkeypatch.setattr(globality, "set_global_audit", _audit_reporting_at_second_call(int(cell)))
        monkeypatch.setattr(oracles, "set_global_audit", _audit_reporting_at_second_call(int(cell)))
        got = _bump(group, a, 0.01, density_bump_search)
        assert got == _bump(group, a, 0.01, density_bump_search_ref)
        trace = got[5]
        assert len(trace) == 2 and trace[0]["piece_order"] == 2
        reasons.add((got[0], got[-1]))
    # order-1 cells step into SL_1, order-2 cells can end at k = n
    assert reasons == {(2, "trivial_group"), (3, "trivial_group")}


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
