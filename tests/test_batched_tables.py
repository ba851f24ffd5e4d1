"""Per-index scheme tables against scalar reference loops.

Rank tables, the four spectral masks, site cosets, restriction
embeddings and the character-restriction table are built by batched
elimination over every index at once.  Each reference below walks the
indices one at a time with the scalar `rref`; the batched tables must
equal them exactly.
"""

import numpy as np
import pytest

from qharm.calculus import (
    dual_avg_factors,
    laplacian_mask,
    quotient_mask,
    vector_avg_factors,
)
from qharm.fqlin import decode_vector, kernel_basis, mat_mul, rank, rref
from qharm.scheme import get_scheme

DOMAINS = [(2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3)]


def _image_row_basis(ctx, x):
    r, piv = rref(ctx.field, x.T.copy())
    return r[: len(piv)]


def _rank_table_ref(index_map):
    return np.array([rank(index_map.ctx, index_map.to_matrix(i)) for i in range(index_map.size)], dtype=np.int8)


def _laplacian_masks_ref(ctx, ranks, v1, w1s):
    """Laplacian masks of the sites (V1, W1) for every W1 in w1s."""
    field = ctx.field
    qmap = ctx.quotient_frame(v1).quotient_map
    masks = np.zeros((len(w1s), ctx.size), dtype=bool)
    for xi in range(ctx.size):
        if ranks[xi] < v1.dim:
            continue
        x = ctx.dual_index.to_matrix(xi)
        img = _image_row_basis(ctx, x)
        if v1.dim and rank(field, np.concatenate([img, v1.basis])) != ranks[xi]:
            continue
        # preimage of V1 under X is ker(quotient_map @ X)
        if qmap.shape[0]:
            pre = kernel_basis(field, mat_mul(field, qmap, x))
        else:
            pre = np.eye(ctx.m, dtype=np.uint8)
        for i, w1 in enumerate(w1s):
            if pre.shape[0]:
                if w1.dim == 0 or rank(field, np.concatenate([w1.basis, pre])) != w1.dim:
                    continue
            masks[i, xi] = True
    return masks


def _quotient_mask_ref(ctx, vp):
    mask = np.zeros(ctx.size, dtype=bool)
    for xi in range(ctx.size):
        img = _image_row_basis(ctx, ctx.dual_index.to_matrix(xi))
        if img.shape[0] == 0:
            mask[xi] = True
        elif vp.dim:
            mask[xi] = rank(ctx.field, np.concatenate([vp.basis, img])) == vp.dim
    return mask


def _vector_avg_factors_ref(ctx, ranks, v):
    fac = np.zeros(ctx.size, dtype=np.float64)
    for xi in range(ctx.size):
        img = _image_row_basis(ctx, ctx.dual_index.to_matrix(xi))
        if img.shape[0]:
            in_image = rank(ctx.field, np.concatenate([img, v.reshape(1, -1)])) == ranks[xi]
        else:
            in_image = not np.any(v)
        if not in_image:
            fac[xi] = float(ctx.q) ** (-int(ranks[xi]))
    return fac


def _dual_avg_factors_ref(ctx, ranks, wp):
    fac = np.zeros(ctx.size, dtype=np.float64)
    for xi in range(ctx.size):
        ker = kernel_basis(ctx.field, ctx.dual_index.to_matrix(xi))
        stacked = np.concatenate([wp.basis, ker]) if ker.shape[0] else wp.basis
        if rank(ctx.field, stacked) == ctx.m:
            fac[xi] = float(ctx.q) ** (-int(ranks[xi]))
    return fac


def _restriction_embedding_ref(ctx, vp, wp):
    sub = get_scheme(ctx.q, ctx.n - vp.dim, wp.dim)
    qmap = ctx.quotient_frame(vp).quotient_map
    cw_t = wp.basis.T.copy()
    emb = np.empty(sub.size, dtype=np.int64)
    for kk in range(sub.size):
        s_bar = sub.domain_index.to_matrix(kk)
        if s_bar.size:
            embedded = mat_mul(ctx.field, mat_mul(ctx.field, cw_t, s_bar), qmap)
        else:
            embedded = np.zeros((ctx.m, ctx.n), dtype=np.uint8)
        emb[kk] = ctx.domain_index.to_index(embedded)
    return emb


def _site_cosets_ref(ctx, emb):
    emb_sorted = np.sort(emb)
    visited = np.zeros(ctx.size, dtype=bool)
    reps, rows = [], []
    for idx in range(ctx.size):
        if visited[idx]:
            continue
        members = ctx.domain_index.add_indices(emb_sorted, idx)
        visited[members] = True
        reps.append(idx)
        rows.append(members)
    return np.array(reps, dtype=np.int64), np.array(rows, dtype=np.int64)


def _all_pairs(ctx):
    """Every restriction site (V', W'), all orders."""
    return [pair for order in range(ctx.n + ctx.m + 1) for pair in ctx.restriction_pairs(order)]


@pytest.mark.parametrize("domain", DOMAINS)
def test_rank_tables_match_scalar_loop(domain):
    ctx = get_scheme(*domain)
    ranks = ctx.rank_table_dual()
    assert ranks.dtype == np.int8
    assert np.array_equal(ranks, _rank_table_ref(ctx.dual_index))
    assert np.array_equal(ctx.domain_index.rank_table(), _rank_table_ref(ctx.domain_index))


@pytest.mark.parametrize("domain", DOMAINS)
def test_spectral_masks_match_scalar_loop(domain):
    ctx = get_scheme(*domain)
    ranks = _rank_table_ref(ctx.dual_index)
    w1s = [w1 for dim in range(ctx.m + 1) for w1 in ctx.subspaces("w", dim)]
    for dim in range(ctx.n + 1):
        for v1 in ctx.subspaces("v", dim):
            ref = _laplacian_masks_ref(ctx, ranks, v1, w1s)
            for w1, ref_mask in zip(w1s, ref):
                assert np.array_equal(laplacian_mask(ctx, v1, w1), ref_mask)
    for dim in range(ctx.n + 1):
        for vp in ctx.subspaces("v", dim):
            assert np.array_equal(quotient_mask(ctx, vp), _quotient_mask_ref(ctx, vp))
    # every vector (the zero vector lies in every image) and every W',
    # which covers the directions: lines in V and hyperplanes in W
    for idx in range(ctx.q**ctx.n):
        v = decode_vector(idx, ctx.n, ctx.q)
        assert np.array_equal(vector_avg_factors(ctx, v), _vector_avg_factors_ref(ctx, ranks, v))
    assert not np.any(vector_avg_factors(ctx, decode_vector(0, ctx.n, ctx.q)))
    for dim in range(ctx.m + 1):
        for wp in ctx.subspaces("w", dim):
            assert np.array_equal(dual_avg_factors(ctx, wp), _dual_avg_factors_ref(ctx, ranks, wp))


@pytest.mark.parametrize("domain", DOMAINS)
def test_embeddings_and_cosets_match_scalar_loop(domain):
    ctx = get_scheme(*domain)
    for vp, wp in _all_pairs(ctx):
        sub, emb = ctx.restriction_embedding(vp, wp)
        ref = _restriction_embedding_ref(ctx, vp, wp)
        assert emb.dtype == np.int64 and np.array_equal(emb, ref)
        reps, members = ctx.site_cosets(vp, wp)
        ref_reps, ref_members = _site_cosets_ref(ctx, ref)
        assert reps.dtype == members.dtype == np.int64
        assert np.array_equal(reps, ref_reps)
        assert np.array_equal(members, ref_members)


@pytest.mark.parametrize("domain", [(2, 2, 2), (4, 2, 2), (2, 3, 2)])
def test_char_restriction_table_matches_scalar_map(domain):
    ctx = get_scheme(*domain)
    for vp, wp in _all_pairs(ctx):
        table = ctx.char_restriction_table(vp, wp)
        ref = [ctx.char_restriction_dual_index(vp, wp, x) for x in range(ctx.size)]
        assert np.array_equal(table, ref)
