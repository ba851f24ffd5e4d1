"""`set_global_audit` against a dense int64 reference.

The reference (tests/oracles.py) builds the indicator of every row and
functional system from the vector action, recomputes every row x
functional intersection size with int64 matrix products on each call,
re-sorts the violating cells to pick the violation witness and formats
each witness from the encoded systems.  The audit under test counts
|A & U| with one np.bincount over the group's cached cell index and
reads its witnesses as cell views; every report row and every violation
must be equal.  On GL_2(F_7), too big for the dense reference in a
quick test, each witness is recounted.  A cell view's members, read off
the table, equal the vector-action loop over its constraints.
"""

import numpy as np
import pytest

import qharm.globality as globality
from oracles import dictator_ratio, reference_set_global_audit, umvirate_members_ref
from qharm.errors import ToolkitError
from qharm.globality import GoodUmvirate, Umvirate, density_bump_search, set_global_audit
from qharm.groups import get_group


def _sets(g, rng):
    """A singleton, random sets of density 1/8 and 1/2, a set
    concentrated on a good umvirate, and G."""
    gu = GoodUmvirate(g, 1, int(rng.integers(g.size)), int(rng.integers(g.size))).members()
    noise = rng.choice(g.size, size=max(1, g.size // 16), replace=False)
    return [
        np.array([int(rng.integers(g.size))]),
        np.sort(rng.choice(g.size, size=g.size // 8, replace=False)),
        np.sort(rng.choice(g.size, size=g.size // 2, replace=False)),
        np.unique(np.concatenate([gu, noise])),
        np.arange(g.size),
    ]


@pytest.fixture
def r_below_one(monkeypatch):
    """set_global_audit with its refusal of r < 1 lifted: r = 0.5 makes every
    order >= 1 a violation, even of G, so each order's violation witness is
    compared.  The refusal itself is tested in tests/test_globality.py."""
    monkeypatch.setattr(globality, "check_threshold", lambda zeta=None, r=None: None)


def _assert_same(res, ref):
    assert res.report.kind == ref.report.kind
    assert res.report.rows == ref.report.rows
    assert res.violations == ref.violations


@pytest.mark.parametrize("kind,n,q", [("sl", 2, 3), ("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 2), ("gl", 2, 3)])
@pytest.mark.usefixtures("r_below_one")
def test_set_audit_equals_dense_reference(kind, n, q):
    g = get_group(kind, n, q)
    rng = np.random.default_rng(1000 * n + q)
    rmaxes = [0, 1, 2 * n, 2 * n + 2]
    for i, a in enumerate(_sets(g, rng)):
        rmax = rmaxes[i % len(rmaxes)]
        _assert_same(set_global_audit(g, a, rmax=rmax), reference_set_global_audit(g, a, rmax=rmax))
        # r < 1 makes every order >= 1 a violation, each with its own witness
        res = set_global_audit(g, a, rmax=2 * n + 2, r=0.5)
        _assert_same(res, reference_set_global_audit(g, a, rmax=2 * n + 2, r=0.5))
        assert [v["order"] for v in res.violations] == list(range(1, 2 * n + 1))
    assert len(res.report.rows) == 2 * n + 1


@pytest.mark.parametrize("kind,n,q", [("sl", 2, 3), ("sl", 3, 2)])
@pytest.mark.usefixtures("r_below_one")
def test_back_to_back_audits_keep_their_own_witnesses(kind, n, q):
    # witnesses are cell views read off the group's shared table: a second
    # audit of another set on the same group must not report the first one's
    g = get_group(kind, n, q)
    rng = np.random.default_rng(77 + n)
    first, second = (GoodUmvirate(g, 1, int(rng.integers(g.size)), int(rng.integers(g.size))).members()
                     for _ in range(2))
    results = [set_global_audit(g, a, r=0.5) for a in (first, second)]
    for a, res in zip((first, second), results):
        _assert_same(res, reference_set_global_audit(g, a, r=0.5))
    assert [row.witness for row in results[0].report.rows] != [row.witness for row in results[1].report.rows]


def test_set_audit_rejects_bad_ordinals():
    g = get_group("sl", 2, 3)
    # duplicates do not count twice towards mu(A)
    dup = set_global_audit(g, [0, 5, 7, 7, 7])
    assert dup.report.rows == set_global_audit(g, [0, 5, 7]).report.rows
    assert dup.report.value_at(0) == 1.0
    for bad in ([0, -1], [0, g.size], [g.size + 5]):
        with pytest.raises(ToolkitError, match="ordinals must lie in"):
            set_global_audit(g, bad)
        with pytest.raises(ToolkitError, match="ordinals must lie in"):
            density_bump_search(g, bad)
    with pytest.raises(ToolkitError, match="nonempty"):
        set_global_audit(g, [])
    with pytest.raises(ToolkitError, match="must be >= 0"):
        set_global_audit(g, [0, 1], rmax=-1)


def test_bump_search_ignores_duplicate_ordinals():
    g = get_group("sl", 3, 2)
    a = GoodUmvirate(g, 1, 17, 101).members()[:20]
    once = density_bump_search(g, a)
    twice = density_bump_search(g, np.concatenate([a, a[:5]]))
    assert [vars(t) for t in twice.trace] == [vars(t) for t in once.trace]
    assert twice.trace[0].density_before == a.size / g.size


@pytest.mark.usefixtures("r_below_one")
def test_set_audit_witnesses_recount_on_gl2_f7():
    g = get_group("gl", 2, 7)
    a = np.sort(np.random.default_rng(7).choice(g.size, size=g.size // 2, replace=False))
    in_a = np.zeros(g.size, dtype=bool)
    in_a[a] = True
    mu = a.size / g.size
    # r < 1 makes every order >= 1 a violation that carries its witness umvirate
    res = set_global_audit(g, a, r=0.5)
    witnesses = [Umvirate(g, 0)] + [v["umvirate"] for v in res.violations]
    assert [row.order for row in res.report.rows] == list(range(5))
    for row, u in zip(res.report.rows, witnesses, strict=True):
        assert u.describe() == row.witness
        members = umvirate_members_ref(g, u.rows, u.funcs)
        assert row.value == (np.count_nonzero(in_a[members]) / members.size) / mu
    assert res.report.value_at(1) == dictator_ratio(g, a)


@pytest.mark.parametrize("kind,n,q", [("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2), ("gl", 2, 3)])
def test_cell_members_match_the_vector_action_loop(kind, n, q):
    g = get_group(kind, n, q)
    tables = g.dictator_systems()
    for d, (cells, sizes) in enumerate(zip(tables.cells, tables.cell_sizes)):
        for cell, size in zip(cells, sizes):
            u = Umvirate(g, int(cell))
            rows, funcs = u.rows, u.funcs
            assert u.order == len(rows) + len(funcs) == d
            assert np.array_equal(u.members(), umvirate_members_ref(g, rows, funcs))
            assert u.members().size == size
