"""Operator identities: restriction of characters, degree shifts, composition,
averaging-operator equivalences, and the pure-degree Laplacian formulas."""

import numpy as np
import pytest

from oracles import bv_pairs_ref, char_restriction_dual_index, char_value, influence
from qharm.calculus import (
    BvDistribution,
    RestrictionSite,
    avg_dual,
    avg_for_direction,
    avg_quotient,
    avg_vector,
    conditional_distribution_check,
    derivative,
    direction_subspaces,
    laplacian,
    laplacian_masks,
    spectral_laplacian_line,
    t_operator,
)
from qharm.errors import ToolkitError
from qharm.fqlin import decode_vector, full_space, span_of, zero_space
from qharm.gf import get_field
from qharm.scheme import (
    degree_decompose,
    degree_project,
    get_scheme,
    random_table,
    restrict,
)

RNG = np.random.default_rng(99)


def test_laplacian_trivial_and_killing_cases():
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "complex")
    v0 = zero_space(ctx.field, 2)
    wf = full_space(ctx.field, 2)
    out = laplacian(f, v0, wf)
    assert np.max(np.abs(out.values - f.values)) < 1e-9
    v1 = span_of(ctx.field, [1, 0])
    ones = ctx.table(np.ones(ctx.size))
    assert laplacian(ones, v1, wf).norm2sq() < 1e-18
    # a character whose image misses V1 is annihilated
    for xi in range(ctx.size):
        x = ctx.dual_index.to_matrix(xi)
        img_contains = span_of(ctx.field, x.T.copy()).contains(ctx.field, v1)
        u = ctx.char_fn(xi)
        out = laplacian(u, v1, wf)
        if img_contains:
            assert abs(out.norm2sq() - 1.0) < 1e-9
        else:
            assert out.norm2sq() < 1e-18


def test_derivative_order_zero_and_constants():
    ctx = get_scheme(3, 2, 2)
    f = random_table(ctx, RNG, "complex")
    site0 = RestrictionSite(zero_space(ctx.field, 2), full_space(ctx.field, 2), 0)
    out = derivative(f, site0)
    assert np.max(np.abs(out.values - f.values)) < 1e-9
    site1 = RestrictionSite(span_of(ctx.field, [1, 0]), full_space(ctx.field, 2), 4)
    assert derivative(ctx.table(np.full(ctx.size, 2.0)), site1).norm2sq() < 1e-18


def test_derivative_of_character_is_scaled_character():
    ctx = get_scheme(2, 2, 2)
    v1 = span_of(ctx.field, [0, 1])
    w1 = span_of(ctx.field, [1, 0])
    sub, _ = ctx.restriction_embedding(v1, w1)
    mask_needed = None
    for xi in range(ctx.size):
        u = ctx.char_fn(xi)
        for t_idx in (0, 3, 7):
            site = RestrictionSite(v1, w1, t_idx)
            out = derivative(u, site)
            x = ctx.dual_index.to_matrix(xi)
            img = span_of(ctx.field, x.T.copy())
            admissible = img.contains(ctx.field, v1)
            if admissible:
                # X^{-1}(V1) <= W1 additionally required
                pass
            lap = laplacian(u, v1, w1)
            if lap.norm2sq() < 1e-18:
                assert out.norm2sq() < 1e-18
            else:
                y_idx = char_restriction_dual_index(ctx, v1, w1, xi)
                scale = char_value(ctx, x, ctx.domain_index.to_matrix(t_idx))
                expected = scale * sub.char_fn(y_idx).values
                assert np.max(np.abs(out.values - expected)) < 1e-9
                assert abs(influence(u, site) - 1.0) < 1e-9


def test_degree_shift_under_derivatives():
    # derivatives of order i send pure degree d to pure degree d - i
    for (q, n, m) in [(2, 2, 2), (3, 2, 2), (2, 3, 2)]:
        ctx = get_scheme(q, n, m)
        f = random_table(ctx, RNG, "complex")
        parts = degree_decompose(f)
        for order in (1, 2):
            for v1, w1 in ctx.restriction_pairs(order):
                reps, _ = ctx.site_cosets(v1, w1)
                t_idx = int(reps[min(1, len(reps) - 1)])
                site = RestrictionSite(v1, w1, t_idx)
                df = derivative(f, site)
                sub = df.domain
                for d, fd in enumerate(parts):
                    dfd = derivative(fd, site)
                    if d - order < 0 or d - order > min(sub.n, sub.m):
                        assert dfd.norm2sq() < 1e-16
                    else:
                        proj = degree_project(df, d - order, "pure")
                        assert np.max(np.abs(dfd.values - proj.values)) < 1e-8


def test_derivative_composition():
    # order-i then order-j derivative equals the order-(i+j) derivative
    ctx = get_scheme(2, 3, 2)
    field = ctx.field
    f = random_table(ctx, RNG, "complex")
    v2 = span_of(field, [1, 0, 0])
    v1 = span_of(field, [[1, 0, 0], [0, 1, 0]])
    w2 = full_space(field, 2)
    w1 = span_of(field, [0, 1])
    sub1, emb1 = ctx.restriction_embedding(v2, w2)

    t_idx = 11
    s_sub_idx = 5  # an element of L(V/V2, W2) in sub1's own enumeration
    s_idx = int(ctx.domain_index.add_indices(emb1[s_sub_idx], 0))

    # RHS: D_{V1, W1, T+S}
    ts_idx = int(ctx.domain_index.add_indices(t_idx, s_idx))
    rhs = derivative(f, RestrictionSite(v1, w1, ts_idx))
    _, emb_rhs = ctx.restriction_embedding(v1, w1)

    # LHS: first D_{V2, W2, T}, then the site (V1/V2, W1) at S
    g = derivative(f, RestrictionSite(v2, w2, t_idx))
    frame2 = ctx.quotient_frame(v2)
    from qharm.fqlin import mat_vec

    v1_in_quotient = span_of(
        field, [mat_vec(field, frame2.quotient_map, row) for row in v1.basis]
    )
    w2_pivots = [int(np.argmax(r != 0)) for r in w2.basis]
    w1_in_w2 = span_of(field, [row[w2_pivots] for row in w1.basis])
    lhs = derivative(g, RestrictionSite(v1_in_quotient, w1_in_w2, s_sub_idx))
    sub_site, emb_site = sub1.restriction_embedding(v1_in_quotient, w1_in_w2)

    # align through the embedded matrices in L(V, W)
    lhs_emb = emb1[emb_site]
    pos_rhs = {int(e): k for k, e in enumerate(emb_rhs)}
    assert sorted(map(int, lhs_emb)) == sorted(map(int, emb_rhs))
    for k_lhs, e in enumerate(lhs_emb):
        k_rhs = pos_rhs[int(e)]
        assert abs(lhs.values[k_lhs] - rhs.values[k_rhs]) < 1e-8


def test_avg_quotient_cases():
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "complex")
    # V' = V ranges B over {0}: identity
    out = avg_quotient(f, full_space(ctx.field, 2))
    assert np.max(np.abs(out.values - f.values)) < 1e-9
    # V' = {0}: full averaging
    out0 = avg_quotient(f, zero_space(ctx.field, 2))
    assert np.max(np.abs(out0.values - f.mean())) < 1e-9
    # character filter
    vp = span_of(ctx.field, [1, 1])
    for xi in range(ctx.size):
        x = ctx.dual_index.to_matrix(xi)
        img = span_of(ctx.field, x.T.copy())
        keeps = vp.contains(ctx.field, img)
        got = avg_quotient(ctx.char_fn(xi), vp)
        if keeps:
            assert abs(got.norm2sq() - 1.0) < 1e-9
        else:
            assert got.norm2sq() < 1e-18


def test_avg_vector_character_action():
    ctx = get_scheme(2, 1, 1)
    u1 = ctx.char_fn(1)
    out = avg_vector(u1, np.array([1], dtype=np.uint8))
    assert out.norm2sq() < 1e-18  # Im(X=1) contains v
    ones = ctx.table(np.ones(ctx.size))
    out1 = avg_vector(ones, np.array([1], dtype=np.uint8))
    assert np.max(np.abs(out1.values - 1.0)) < 1e-12

    ctx2 = get_scheme(3, 2, 2)
    v = np.array([1, 0], dtype=np.uint8)
    for xi in (0, 1, 5, 17):
        x = ctx2.dual_index.to_matrix(xi)
        img = span_of(ctx2.field, x.T.copy())
        r = int(ctx2.rank_table_dual()[xi])
        got = avg_vector(ctx2.char_fn(xi), v)
        if img.contains_vector(ctx2.field, v) and np.any(v):
            expected = 0.0 if r > 0 else 1.0
        if not img.contains_vector(ctx2.field, v):
            assert abs(got.norm2sq() - float(3.0 ** (-2 * r))) < 1e-9
        else:
            assert got.norm2sq() < 1e-18


def test_avg_vector_three_forms_agree_on_random():
    # the operator itself asserts agreement; exercise it across domains
    for (q, n, m) in [(2, 2, 2), (3, 2, 2), (2, 3, 2)]:
        ctx = get_scheme(q, n, m)
        for _ in range(5):
            f = random_table(ctx, RNG, "complex")
            v = np.zeros(n, dtype=np.uint8)
            while not np.any(v):
                v = RNG.integers(0, q, size=n).astype(np.uint8)
            avg_vector(f, v)


def test_bv_distribution_support_size():
    ctx = get_scheme(3, 2, 2)
    bv = BvDistribution(ctx, np.array([1, 2], dtype=np.uint8))
    assert len(bv.pairs) == ctx.q**ctx.m * ctx.q ** (ctx.n - 1)
    # every nonzero v on three domains: the pairs and indices of the scalar loop
    for q, n, m in [(3, 2, 2), (4, 2, 3), (2, 3, 2)]:
        ctx = get_scheme(q, n, m)
        for idx in range(1, q**n):
            bv = BvDistribution(ctx, decode_vector(idx, n, q))
            pairs, indices = bv_pairs_ref(ctx, decode_vector(idx, n, q))
            assert len(bv.pairs) == len(pairs) == q**m * q ** (n - 1)
            for (w, phi), (w_ref, phi_ref) in zip(bv.pairs, pairs):
                assert np.array_equal(w, w_ref) and np.array_equal(phi, phi_ref)
            assert bv.indices.dtype == np.int64 and list(bv.indices) == indices


def test_avg_dual_cases():
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "complex")
    wp = span_of(ctx.field, [1, 0])
    out = avg_dual(f, wp)  # internal cross-check runs
    ones = ctx.table(np.ones(ctx.size))
    assert np.max(np.abs(avg_dual(ones, wp).values - 1.0)) < 1e-9
    for xi in range(ctx.size):
        x = ctx.dual_index.to_matrix(xi)
        from qharm.fqlin import kernel_basis, rank as fq_rank

        ker = kernel_basis(ctx.field, x)
        stacked = np.concatenate([wp.basis, ker]) if ker.shape[0] else wp.basis
        spanning = fq_rank(ctx.field, stacked) == ctx.m
        r = int(ctx.rank_table_dual()[xi])
        got = avg_dual(ctx.char_fn(xi), wp)
        if spanning:
            assert abs(got.norm2sq() - float(2.0 ** (-2 * r))) < 1e-9
        else:
            assert got.norm2sq() < 1e-18


def test_avg_dual_wrong_codimension():
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "complex")
    with pytest.raises(Exception):
        avg_dual(f, full_space(ctx.field, 2))


def test_comb_laplacian_character_cases():
    # the combinatorial Laplacian f - E_U f
    ctx = get_scheme(3, 2, 2)
    v = np.array([0, 1], dtype=np.uint8)
    u_sub = span_of(ctx.field, v)

    def comb_laplacian_sq(f):
        return float(np.mean(np.abs(f.values - avg_for_direction(f, u_sub, "v").values) ** 2))

    assert comb_laplacian_sq(ctx.table(np.full(ctx.size, 5.0))) < 1e-18
    for xi in (1, 4, 9, 30):
        x = ctx.dual_index.to_matrix(xi)
        img = span_of(ctx.field, x.T.copy())
        r = int(ctx.rank_table_dual()[xi])
        got = comb_laplacian_sq(ctx.char_fn(xi))
        if img.contains_vector(ctx.field, v):
            assert abs(got - 1.0) < 1e-9
        else:
            assert abs(got - (1 - 3.0 ** (-r)) ** 2) < 1e-9


def test_pure_degree_laplacian_formula():
    # order-1 spectral Laplacian on pure degree i equals f^{=i} - q^i E_U f^{=i}
    for (q, n, m) in [(2, 2, 2), (3, 2, 2)]:
        ctx = get_scheme(q, n, m)
        f = random_table(ctx, RNG, "complex")
        parts = degree_decompose(f)
        for u, side in direction_subspaces(ctx):
            if side == "v":
                e_op = lambda g: avg_vector(g, u.basis[0])
            else:
                e_op = lambda g: avg_dual(g, u)
            for i, fi in enumerate(parts):
                lhs = spectral_laplacian_line(fi, u, side)
                rhs = fi.values - (q**i) * e_op(fi).values
                assert np.max(np.abs(lhs.values - rhs)) < 1e-8


def test_t_operator_projection_identities():
    # (T f)^{=i} and (T f)^{=i-1} recover the order-1 Laplacian of the parts
    for (q, n, m) in [(2, 2, 2), (3, 2, 2)]:
        ctx = get_scheme(q, n, m)
        for _ in range(3):
            f = random_table(ctx, RNG, "complex")
            for u, side in direction_subspaces(ctx):
                for i in (1, 2):
                    if i > min(n, m):
                        continue
                    tf = t_operator(f, i, u, side)
                    for d in (i, i - 1):
                        lhs = degree_project(tf, d, "pure")
                        rhs = spectral_laplacian_line(degree_project(f, d, "pure"), u, side)
                        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8


def test_t_operator_kills_constants():
    ctx = get_scheme(3, 2, 2)
    u = span_of(ctx.field, [1, 0])
    out = t_operator(ctx.table(np.ones(ctx.size)), 1, u, side="v")
    assert out.norm2sq() < 1e-18


def test_conditional_distribution_exhaustive():
    for q in (2, 3):
        ctx = get_scheme(q, 2, 2)
        v = np.array([1, 0], dtype=np.uint8)
        for vp_rows, wp_rows in [([[1, 0], [0, 1]], [[1, 0]]), ([[1, 0]], [[1, 0], [0, 1]]), ([[1, 0]], [[0, 1]])]:
            vp, wp = span_of(ctx.field, vp_rows), span_of(ctx.field, wp_rows)
            assert conditional_distribution_check(ctx, vp, wp, v)
        with pytest.raises(ToolkitError, match="must lie in V'"):
            conditional_distribution_check(ctx, span_of(ctx.field, [[0, 1]]), wp, v)


RANK_DOMAINS = [(2, 2, 2), (3, 2, 2), (5, 2, 2), (2, 3, 3), (2, 2, 4)]


@pytest.mark.parametrize("q, n, m", RANK_DOMAINS)
def test_order_o_laplacian_masks_keep_only_rank_at_least_o(q, n, m):
    # Im(X) >= V1 and X^{-1}(V1) <= W1 force rk X >= dim V1 + codim W1 = o;
    # the order-0 mask keeps every X, so the order-0 Laplacian is the identity
    ctx = get_scheme(q, n, m)
    ranks = ctx.rank_table_dual()
    for order in range(n + m + 1):
        masks = laplacian_masks(ctx, order)
        assert not np.any(masks[:, ranks < order]), order
    assert laplacian_masks(ctx, 0).all()


@pytest.mark.parametrize("q, n, m", RANK_DOMAINS)
def test_cumulative_laplacian_is_the_sum_of_pure_laplacians_from_its_order(q, n, m):
    # at an order-o site, L f^{<=D} = sum over e = o..D of L f^{=e}, each part
    # transformed on its own
    ctx = get_scheme(q, n, m)
    f = random_table(ctx, np.random.default_rng(q + 10 * n + 100 * m), "complex")
    tol = 1e-12 * np.sqrt(f.norm2sq())
    top = min(n, m)
    pure = [ctx.fourier_forward(degree_project(f, e, "pure").values) for e in range(top + 1)]
    for dmax in range(1, top + 1):
        cum = ctx.fourier_forward(degree_project(f, dmax, "cumulative").values)
        for order in range(dmax + 1):
            masks = laplacian_masks(ctx, order)
            want = ctx.fourier_inverse(cum * masks)
            got = sum(ctx.fourier_inverse(pure[e] * masks) for e in range(order, dmax + 1))
            assert np.max(np.abs(got - want)) <= tol, (dmax, order)
