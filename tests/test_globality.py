"""Globalness audits against brute-force oracles, umvirate normal forms,
good-umvirate partitions, and the density-bump search."""

import json
import re

import numpy as np
import pytest

from oracles import (
    brute_force_global_audit,
    brute_force_set_ratios,
    influence,
    max_refining_restriction_ref,
    per_site_global_audit,
    per_site_influence_audit,
    per_site_lp_global_audit,
    umvirate_members_ref,
)
from qharm.calculus import RestrictionSite, annihilator_functional, direction_subspaces
from qharm.errors import ToolkitError
from qharm.globality import (
    GoodUmvirate,
    Umvirate,
    block_subgroup_members,
    check_threshold,
    density_bump_search,
    global_audit,
    good_umvirate_partition,
    influence_audit,
    lp_global_audit,
    max_refining_restriction,
    refining_maxima,
    restriction_audits,
    set_global_audit,
    umvirate_normal_form,
)
from qharm.groups import get_group
from qharm.scheme import get_scheme, random_table, restrict

RNG = np.random.default_rng(31337)


# ---------------------------------------------------------------------------
# scheme audits
# ---------------------------------------------------------------------------

def test_global_audit_constant():
    ctx = get_scheme(2, 2, 2)
    rep = global_audit(ctx.table(np.ones(ctx.size)), 2)
    for row in rep.rows:
        assert abs(row.value - 1.0) < 1e-12


def test_global_audit_order_zero_row_is_norm():
    ctx = get_scheme(3, 2, 2)
    f = random_table(ctx, RNG, "complex")
    rep = global_audit(f, 2)
    assert abs(rep.value_at(0) - f.norm2sq()) < 1e-12


@pytest.mark.parametrize("audit", [global_audit, influence_audit, lambda f, d: lp_global_audit(f, d, 2.0)])
def test_scheme_audits_reject_negative_order(audit):
    f = random_table(get_scheme(2, 2, 2), RNG, "complex")
    with pytest.raises(ToolkitError, match="must be >= 0"):
        audit(f, -1)


@pytest.mark.parametrize("audit", [global_audit, influence_audit, lambda f, d: lp_global_audit(f, d, 4.0 / 3.0)])
def test_scheme_audits_reject_orders_above_n_plus_m(audit):
    f = random_table(get_scheme(2, 2, 2), RNG, "complex")
    assert len(audit(f, 4).rows) == 5
    with pytest.raises(ToolkitError, match="dmax=5 too large"):
        audit(f, 5)


def test_global_audit_umvirate_indicator():
    # indicator of {A : A v = w} has a 1-restriction of full mass
    ctx = get_scheme(2, 2, 2)
    v = np.array([1, 0], dtype=np.uint8)
    w = np.array([1, 1], dtype=np.uint8)
    idx = []
    for i in range(ctx.size):
        a = ctx.domain_index.to_matrix(i)
        from qharm.fqlin import mat_vec

        if np.array_equal(mat_vec(ctx.field, a, v), w):
            idx.append(i)
    f = ctx.table(np.isin(np.arange(ctx.size), idx))
    assert abs(f.mean() - 1 / ctx.q**ctx.m) < 1e-12
    rep = global_audit(f, 1)
    assert abs(rep.value_at(1) - 1.0) < 1e-9


def test_global_audit_matches_brute_force():
    ctx = get_scheme(2, 2, 2)
    for _ in range(3):
        f = ctx.table((RNG.random(ctx.size) < 0.5).astype(float))
        rep = global_audit(f, 2)
        oracle = brute_force_global_audit(f, 2)
        for d in range(3):
            assert abs(rep.value_at(d) - oracle[d]) < 1e-12


def test_audit_witness_is_attained():
    ctx = get_scheme(3, 2, 2)
    f = random_table(ctx, RNG, "boolean")
    for rep, at_site in [
        (global_audit(f, 2), lambda vp, wp, t: restrict(f, vp, wp, t).norm2sq()),
        (influence_audit(f, 2), lambda vp, wp, t: influence(f, RestrictionSite(vp, wp, t))),
    ]:
        for row in rep.rows:
            # recompute at the named site and compare
            pair_idx = int(row.witness.split("#")[1].split("(")[0])
            t = int(row.witness.split("T=")[1])
            vp, wp = ctx.restriction_pairs(row.order)[pair_idx]
            assert abs(at_site(vp, wp, t) - row.value) < 1e-12


def test_restriction_monotonicity():
    # order-d max is at least the order-(d-1) max divided by the domain size
    ctx = get_scheme(2, 2, 2)
    for _ in range(5):
        f = random_table(ctx, RNG, "boolean")
        rep = global_audit(f, 2)
        for d in range(1, 3):
            assert rep.value_at(d) >= rep.value_at(d - 1) / ctx.size - 1e-12


def test_influence_audit_cases():
    ctx = get_scheme(2, 2, 2)
    c = ctx.table(np.full(ctx.size, 2.0))
    rep = influence_audit(c, 2)
    assert abs(rep.value_at(0) - c.norm2sq()) < 1e-12
    for d in (1, 2):
        assert rep.value_at(d) < 1e-12
    f = random_table(ctx, RNG, "complex")
    rep2 = influence_audit(f, 1)
    assert abs(rep2.value_at(0) - f.norm2sq()) < 1e-12


PARITY_DOMAINS = [(2, 2, 2), (3, 2, 2), (5, 2, 2), (2, 3, 3), (2, 2, 4)]


@pytest.mark.parametrize("small_batches", [False, True])
def test_batched_influence_audit_matches_per_site_oracle(monkeypatch, small_batches):
    import qharm.scheme as scheme

    for q, n, m in PARITY_DOMAINS:
        ctx = get_scheme(q, n, m)
        if small_batches:
            # two sites per batched inverse, so every order of size > 2 spans several batches
            monkeypatch.setattr(scheme, "_BATCH_ELEMENTS", 2 * ctx.size + 1)
        for kind in ("real", "boolean", "complex"):
            f = random_table(ctx, RNG, kind)
            assert influence_audit(f, n + m).rows == per_site_influence_audit(f, n + m).rows


@pytest.mark.parametrize("q, n, m", PARITY_DOMAINS)
def test_stacked_audits_match_per_site_oracles(q, n, m):
    ctx = get_scheme(q, n, m)
    top = n + m
    for kind in ("real", "boolean", "complex"):
        f = random_table(ctx, RNG, kind)
        assert global_audit(f, top).rows == per_site_global_audit(f, top).rows
        for ellp in (4.0 / 3.0, 2.0):
            assert lp_global_audit(f, top, ellp).rows == per_site_lp_global_audit(f, top, ellp).rows
        for u, side in direction_subspaces(ctx):
            for order in range(top + 1):
                assert max_refining_restriction(f, u, side, order) == max_refining_restriction_ref(f, u, side, order)


@pytest.mark.parametrize("small_batches", [False, True])
def test_mixed_restriction_audit_stack_matches_per_site_oracles(monkeypatch, small_batches):
    # L^2 masses and L^{ell'} norms in one stack, each function to its own order
    import qharm.scheme as scheme

    for q, n, m in PARITY_DOMAINS:
        ctx = get_scheme(q, n, m)
        if small_batches:
            # two (function, site) pairs per block, so blocks split the stack
            monkeypatch.setattr(scheme, "_BATCH_ELEMENTS", 2 * ctx.size + 1)
        fs = [random_table(ctx, RNG, kind) for kind in ("real", "boolean", "complex", "boolean")]
        ellps, tops = [4 / 3, None, 2.0, 8 / 7], [n + m, n + m - 1, 1, n + m]
        reports = restriction_audits(fs, [range(top + 1) for top in tops], ellps)
        for f, ellp, top, report in zip(fs, ellps, tops, reports):
            want = per_site_global_audit(f, top) if ellp is None else per_site_lp_global_audit(f, top, ellp)
            assert (report.kind, report.rows) == (want.kind, want.rows)


def test_audits_of_a_scaled_function_scale_with_the_same_witnesses():
    # a row takes the first exact maximum at any scale: every value of
    # 1e-9 f lies below 1e-15, under which an absolute margin keeps site 0;
    # pass flags are not compared, as audit_row allows 1e-12 over a threshold
    ctx = get_scheme(2, 2, 3)
    f = random_table(ctx, np.random.default_rng(11), "complex")
    small = ctx.table(1e-9 * f.values)
    for audit in (global_audit, influence_audit):
        got, want = audit(small, 5).rows, audit(f, 5).rows
        assert [(r.order, r.witness) for r in got] == [(r.order, r.witness) for r in want]
        for field in ("value", "threshold"):
            scaled = [1e-18 * getattr(r, field) for r in want]
            assert np.allclose([getattr(r, field) for r in got], scaled, rtol=1e-12, atol=0)


@pytest.mark.parametrize("q, n, m", [(2, 2, 2), (3, 2, 2), (2, 3, 3)])
def test_audit_rows_do_not_depend_on_dmax(q, n, m):
    # the instance checks audit once to their top order and read lower orders
    ctx = get_scheme(q, n, m)
    top = n + m
    for kind in ("boolean", "complex"):
        f = random_table(ctx, RNG, kind)
        for audit in (global_audit, influence_audit, lambda g, d: lp_global_audit(g, d, 4.0 / 3.0)):
            rows = audit(f, top).rows
            for d in range(top):
                assert audit(f, d).rows == rows[: d + 1]


@pytest.mark.parametrize("small_batches", [False, True])
def test_site_laplacians_equal_the_single_site_laplacian(monkeypatch, small_batches):
    # SchemeCtx.filtered under the Laplacian masks of an order, and
    # SchemeCtx.filter under rank, quotient and averaging factors: every row
    # equals one inverse of its spectrum times its factor, also when a bound
    # of two rows splits the pairs into many blocks
    import qharm.scheme as scheme
    from qharm.calculus import (dual_avg_factors, laplacian, laplacian_mask, laplacian_masks, quotient_mask,
                                vector_avg_factors)

    for (q, n, m) in [(2, 2, 2), (3, 2, 2), (2, 3, 3)]:
        ctx = get_scheme(q, n, m)
        if small_batches:
            monkeypatch.setattr(scheme, "_BATCH_ELEMENTS", 2 * ctx.size + 1)
        fs = [random_table(ctx, RNG, "complex") for _ in range(3)]
        spectra = ctx.fourier_forward(np.stack([f.values for f in fs]))
        live = [0, 2]
        for order in (1, 2):
            pairs = ctx.restriction_pairs(order)
            seen = []
            for funcs, sites, laps in ctx.filtered(spectra[live], laplacian_masks(ctx, order)):
                for i, row in zip(live[funcs], laps):
                    for (vp, wp), lap in zip(pairs[sites], row, strict=True):
                        seen.append((int(i), vp.key, wp.key))
                        assert np.array_equal(lap, laplacian(fs[i], vp, wp).values)
                        assert np.array_equal(lap, ctx.fourier_inverse(spectra[i] * laplacian_mask(ctx, vp, wp)))
            assert sorted(seen) == sorted((i, vp.key, wp.key) for i in (0, 2) for vp, wp in pairs)
        ranks = ctx.rank_table_dual()
        factors = [ranks == d for d in range(min(n, m) + 1)] + [ranks <= d for d in range(min(n, m) + 1)]
        factors += [quotient_mask(ctx, vp) for d in range(n + 1) for vp in ctx.subspaces("v", d)]
        factors += [vector_avg_factors(ctx, u.basis[0]) if side == "v" else dual_avg_factors(ctx, u)
                    for u, side in direction_subspaces(ctx)]
        rows = ctx.filter(spectra[1], factors)
        assert rows.shape == (len(factors), ctx.size)
        for factor, row in zip(factors, rows):
            assert np.array_equal(row, ctx.fourier_inverse(spectra[1] * factor))


def test_refining_pairs_match_contains_filter():
    for (q, n, m) in [(2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 3)]:
        ctx = get_scheme(q, n, m)
        for u, side in direction_subspaces(ctx):
            for order in range(n + m + 1):
                pairs = ctx.restriction_pairs(order)
                if side == "v":
                    expect = [i for i, (vp, wp) in enumerate(pairs) if vp.contains(ctx.field, u)]
                else:
                    expect = [i for i, (vp, wp) in enumerate(pairs) if u.contains(ctx.field, wp)]
                stacks = ctx.site_stacks(order)
                rows = ctx.refining_rows(u, side, order)
                assert len(rows) == len(stacks)
                assert sorted(p for s, r in zip(stacks, rows) for p in s.positions[r]) == expect
    with pytest.raises(ToolkitError):
        ctx.refining_rows(u, "x", 1)


@pytest.mark.parametrize("q, n, m", PARITY_DOMAINS)
def test_refining_maxima_match_the_per_site_oracle(monkeypatch, q, n, m):
    # each function read at the sites refining its own direction, at every
    # order, for the directions in order and reversed, and with one site a
    # block, so a direction's rows span several blocks
    import qharm.scheme as scheme

    ctx = get_scheme(q, n, m)
    dirs = direction_subspaces(ctx)
    fs = [random_table(ctx, RNG, ("real", "boolean", "complex")[i % 3]) for i in range(len(dirs))]
    for order in range(n + m + 1):
        for directions in (dirs, dirs[::-1]):
            want = [max_refining_restriction_ref(f, u, side, order) for f, (u, side) in zip(fs, directions)]
            assert refining_maxima(fs, directions, order).tolist() == want
            with monkeypatch.context() as patch:
                patch.setattr(scheme, "_BATCH_ELEMENTS", ctx.size)
                assert refining_maxima(fs, directions, order).tolist() == want


def test_shared_index_arrays_and_annihilators_are_read_only():
    ctx = get_scheme(2, 2, 3)
    arrays = [annihilator_functional(ctx, u) for u, side in direction_subspaces(ctx) if side == "w"]
    assert sum(a.size for a in arrays) > 0
    for a in arrays:
        with pytest.raises(ValueError):
            a[:1] = 1


def test_lp_audit_consistency_with_l2():
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "boolean")
    rep2 = global_audit(f, 2)
    repp = lp_global_audit(f, 2, 2.0)
    for d in range(3):
        assert abs(repp.value_at(d) ** 2 - rep2.value_at(d)) < 1e-9
    # Boolean: ell'-power of the norm is the restriction density
    repb = lp_global_audit(f, 1, 4.0 / 3.0)
    assert repb.value_at(0) == pytest.approx(f.mean().real ** (3.0 / 4.0), abs=1e-12)


# ---------------------------------------------------------------------------
# set audits on groups
# ---------------------------------------------------------------------------

def test_set_audit_full_group():
    g = get_group("sl", 2, 3)
    res = set_global_audit(g, np.arange(g.size))
    for row in res.report.rows:
        assert abs(row.value - 1.0) < 1e-12


def _cell(g, rows=(), funcs=()):
    """The cell of g's dictator-system table that meets the row system
    `rows` with the functional system `funcs`, each a tuple of (v, w)
    vector encodings."""
    tables = g.dictator_systems()
    u = Umvirate(g, tables.row_systems.index(rows) * len(tables.func_systems) + tables.func_systems.index(funcs))
    assert u.members().size, "the systems do not meet on G"
    return u


def test_set_audit_own_umvirate_ratio():
    g = get_group("sl", 2, 3)
    u = _cell(g, rows=((1, 1),))  # g e1 = e1
    members = u.members()
    res = set_global_audit(g, members)
    # at its own witness the ratio is |G| / |U & G|
    expected = g.size / members.size
    assert res.report.value_at(1) >= expected - 1e-9


def _witness_members(g, text):
    """Ordinals of the umvirate that `Umvirate.describe` printed as text,
    recounted from its constraints."""
    rows, funcs = re.fullmatch(r"rows\[(.*)\]funcs\[(.*)\]", text).groups()

    def pairs(part):
        return [tuple(np.array(json.loads(x), np.uint8) for x in p.split("->")) for p in part.split(";") if p]

    return umvirate_members_ref(g, pairs(rows), pairs(funcs))


def test_set_audit_matches_counting_oracle():
    for kind, n, q in [("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2), ("gl", 2, 3)]:
        g = get_group(kind, n, q)
        ordinals = np.sort(RNG.choice(g.size, size=g.size // 2, replace=False))
        res = set_global_audit(g, ordinals, rmax=2)
        oracle = brute_force_set_ratios(g, ordinals)
        mu = ordinals.size / g.size
        for d in (1, 2):
            assert res.report.value_at(d) == pytest.approx(oracle[d], abs=1e-9)
        # each witness, recounted from its own members, has the reported ratio
        for row in res.report.rows:
            members = _witness_members(g, row.witness)
            assert members.size > 0
            assert (np.count_nonzero(np.isin(members, ordinals)) / members.size) / mu == row.value


# ---------------------------------------------------------------------------
# umvirate normal forms and partitions
# ---------------------------------------------------------------------------

def _random_cell(g, n_rows, n_funcs, rng):
    """A random nonempty cell of n_rows row and n_funcs functional constraints."""
    tables = g.dictator_systems()
    cells = np.concatenate(tables.cells)
    width = len(tables.func_systems)
    cells = cells[(tables.row_orders[cells // width] == n_rows) & (tables.func_orders[cells % width] == n_funcs)]
    return Umvirate(g, int(rng.choice(cells)))


def test_normal_form_reproduces_member_set():
    g = get_group("sl", 3, 2)
    from qharm.fqlin import mat_mul

    for trial in range(8):
        u = _random_cell(g, (trial % 2) + 1, (trial // 2) % 2 + 1, RNG)
        nf = umvirate_normal_form(u)
        mask = np.zeros(g.size, dtype=bool)
        mask[umvirate_members_ref(g, u.rows, u.funcs)] = True
        for x in range(g.size):
            h = mat_mul(g.field, mat_mul(g.field, nf.d_mat, g.mats[x]), nf.c_mat)
            in_nf = np.array_equal(h[: nf.b, :], nf.fixed_rows) and np.array_equal(
                h[:, : nf.a], nf.fixed_cols
            )
            assert in_nf == bool(mask[x])


def test_block_subgroup_is_subgroup():
    g = get_group("sl", 3, 2)
    lk = block_subgroup_members(g, 1)
    assert len(lk) == 6  # SL_2(F_2)
    m = g.mul_table()
    prod = m[np.ix_(lk, lk)]
    assert set(np.unique(prod)) <= set(lk.tolist())
    assert np.all(np.isin(g.inv[lk], lk))
    assert len(block_subgroup_members(g, 0)) == g.size
    assert list(block_subgroup_members(g, 3)) == [g.identity]


def test_good_umvirate_members_match_blockform():
    g = get_group("sl", 3, 2)
    for _ in range(5):
        k = int(RNG.integers(0, 3))
        gu = GoodUmvirate(g, k, int(RNG.integers(0, g.size)), int(RNG.integers(0, g.size)))
        mem = gu.members()
        assert len(mem) == len(block_subgroup_members(g, k))
        # each member lies in g L_k h: g^-1 x h^-1 is in L_k
        m = g.mul_table()
        lk = block_subgroup_members(g, k)
        for x in mem[:4]:
            assert np.isin(m[m[g.inv[gu.g], x], g.inv[gu.h]], lk)


def test_partition_trivial_cases():
    g = get_group("sl", 3, 2)
    u_all = Umvirate(g, 0)
    parts = good_umvirate_partition(u_all)
    assert len(parts) == 1 and parts[0].k == 0
    assert len(parts[0].members()) == g.size


def test_partition_disjoint_covering_all_1_and_2_umvirates():
    g = get_group("sl", 3, 2)
    tables = g.dictator_systems()
    checked = 0
    for cell in np.concatenate(tables.cells[1:3]):
        u = Umvirate(g, int(cell))
        parts = good_umvirate_partition(u)
        union = np.concatenate([p.members() for p in parts]) if parts else np.array([], int)
        assert len(union) == len(np.unique(union)), "pieces overlap"
        assert set(union.tolist()) == set(umvirate_members_ref(g, u.rows, u.funcs).tolist()), "pieces miss"
        orders = {p.order for p in parts}
        assert len(orders) == 1
        assert orders.pop() <= 2 * u.order
        checked += 1
    # 98 order-1 systems plus the nonempty order-2 systems
    assert checked == 1911


def test_partition_of_good_umvirate_is_singleton():
    g = get_group("sl", 3, 2)
    # U = L_1 presented as a mixed 2-umvirate: g e1 = e1 and g^T e1 = e1
    u = _cell(g, rows=((1, 1),), funcs=((1, 1),))
    parts = good_umvirate_partition(u)
    assert len(parts) == 1
    assert parts[0].k == 1
    assert set(parts[0].members().tolist()) == set(umvirate_members_ref(g, u.rows, u.funcs).tolist())


def test_partition_and_bump_search_reject_gl_beyond_f2():
    # on GL_2(F_3) the determinant fix lands in SL, so pieces would miss U & G
    g = get_group("gl", 2, 3)
    u = _cell(g, rows=((1, 2),))  # g e1 = 2 e1
    with pytest.raises(ToolkitError, match="inside SL_n"):
        good_umvirate_partition(u)
    with pytest.raises(ToolkitError, match="inside SL_n"):
        density_bump_search(g, np.arange(5))


def test_partition_covers_gl3_f2():
    # GL_3(F_2) equals SL_3(F_2), so its partitions stay exact
    g = get_group("gl", 3, 2)
    u = _cell(g, rows=((1, 2),), funcs=((2, 1),))  # g e1 = e2, g^T e2 = e1
    parts = good_umvirate_partition(u)
    union = np.concatenate([p.members() for p in parts])
    assert sorted(union.tolist()) == umvirate_members_ref(g, u.rows, u.funcs).tolist()


# ---------------------------------------------------------------------------
# density bump search
# ---------------------------------------------------------------------------

def test_bump_search_global_set_zero_bumps():
    g = get_group("sl", 3, 2)
    # the full group is r-global for any r >= 1
    res = density_bump_search(g, np.arange(g.size))
    assert res.reason == "global"
    assert res.k == 0 and len(res.trace) == 0
    assert res.restricted_ordinals.size == g.size


def test_bump_search_umvirate_coset_lands_exactly():
    g = get_group("sl", 3, 2)
    for _ in range(3):
        gu = GoodUmvirate(g, 1, int(RNG.integers(0, g.size)), int(RNG.integers(0, g.size)))
        a = gu.members()
        res = density_bump_search(g, a)
        assert res.k >= 1
        dens = res.trace[-1].density_after
        assert abs(dens - 1.0) < 1e-12
        # final restricted set is everything
        assert res.restricted_ordinals.size == res.restricted_group.size
        # the found umvirate contains A
        found = GoodUmvirate(g, res.k, res.g, res.h)
        assert set(a.tolist()) <= set(found.members().tolist())


def test_bump_search_refuses_a_negative_zeta():
    # with zeta < 0, r < 1, so every order of SL_3(F_2) would violate and the
    # search would step from density 1.0 to 1.0
    g = get_group("sl", 3, 2)
    with pytest.raises(ToolkitError, match="zeta=-0.5 must be finite and >= 0"):
        density_bump_search(g, np.arange(0, g.size, 2), zeta=-0.5)


@pytest.mark.parametrize("zeta,r", [(float("nan"), None), (float("inf"), None), (-1e-9, None),
                                    (None, 0.5), (None, float("nan"))])
def test_audits_refuse_a_bad_zeta_or_r(zeta, r):
    threshold = {"r": r} if zeta is None else {"zeta": zeta}
    with pytest.raises(ToolkitError, match="must be"):
        check_threshold(**threshold)
    with pytest.raises(ToolkitError, match="must be"):
        set_global_audit(get_group("sl", 2, 3), np.arange(5), **threshold)
    if zeta is not None:
        f = random_table(get_scheme(2, 2, 2), np.random.default_rng(0))
        for audit in (global_audit, influence_audit):
            with pytest.raises(ToolkitError, match="must be"):
                audit(f, 1, zeta=zeta)
    check_threshold(0.0, 1.0)


def test_bump_search_trace_verified_by_counting():
    g = get_group("sl", 3, 2)
    gu = GoodUmvirate(g, 1, 17, 101)
    noise = RNG.choice(g.size, size=6, replace=False)
    a = np.unique(np.concatenate([gu.members(), noise]))
    res = density_bump_search(g, a)
    assert res.reason in ("global", "trivial_group")
    mu0 = a.size / g.size
    assert res.trace[0].density_before == pytest.approx(mu0)
    for t in res.trace:
        # the per-step guarantee r^s mu is certified by the recount
        assert t.density_after >= t.guarantee - 1e-12
        assert t.density_after >= t.density_before - 1e-12
    if res.reason == "global":
        final = set_global_audit(res.restricted_group, res.restricted_ordinals)
        assert not final.violations
