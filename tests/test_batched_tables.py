"""Per-index scheme tables against scalar reference loops.

Rank tables come from batched elimination over every index at once.  The
restriction embeddings, the character-restriction table and the four
spectral masks come from index tables of F_q-linear maps M -> L M R
(IndexMap.linear_image), the masks with rank lookups in the rank table of
each image's shape; the site stacks regroup the site cosets of each
order.  Each reference (tests/oracles.py) walks the indices one at a time
with the scalar `rref` and per-matrix products; the tables must equal
them exactly.
"""

import numpy as np
import pytest

from oracles import (
    char_restriction_dual_index,
    dual_avg_factors_ref,
    laplacian_masks_ref,
    quotient_mask_ref,
    rank_table_ref,
    restriction_embedding_ref,
    site_cosets_ref,
    vector_avg_factors_ref,
)
from qharm.calculus import (
    dual_avg_factors,
    laplacian_mask,
    quotient_mask,
    vector_avg_factors,
)
from qharm.fqlin import decode_vector
from qharm.scheme import get_scheme

DOMAINS = [(2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3)]


def _all_pairs(ctx):
    """Every restriction site (V', W'), all orders."""
    return [pair for order in range(ctx.n + ctx.m + 1) for pair in ctx.restriction_pairs(order)]


@pytest.mark.parametrize("domain", DOMAINS)
def test_rank_tables_match_scalar_loop(domain):
    ctx = get_scheme(*domain)
    ranks = ctx.rank_table_dual()
    assert ranks.dtype == np.int8
    assert np.array_equal(ranks, rank_table_ref(ctx.dual_index))
    assert np.array_equal(ctx.domain_index.rank_table(), rank_table_ref(ctx.domain_index))


@pytest.mark.parametrize("domain", DOMAINS)
def test_spectral_masks_match_scalar_loop(domain):
    ctx = get_scheme(*domain)
    ranks = rank_table_ref(ctx.dual_index)
    w1s = [w1 for dim in range(ctx.m + 1) for w1 in ctx.subspaces("w", dim)]
    for dim in range(ctx.n + 1):
        for v1 in ctx.subspaces("v", dim):
            ref = laplacian_masks_ref(ctx, ranks, v1, w1s)
            for w1, ref_mask in zip(w1s, ref):
                assert np.array_equal(laplacian_mask(ctx, v1, w1), ref_mask)
    for dim in range(ctx.n + 1):
        for vp in ctx.subspaces("v", dim):
            assert np.array_equal(quotient_mask(ctx, vp), quotient_mask_ref(ctx, vp))
    # every vector (the zero vector lies in every image) and every W',
    # which covers the directions: lines in V and hyperplanes in W
    for idx in range(ctx.q**ctx.n):
        v = decode_vector(idx, ctx.n, ctx.q)
        assert np.array_equal(vector_avg_factors(ctx, v), vector_avg_factors_ref(ctx, ranks, v))
    assert not np.any(vector_avg_factors(ctx, decode_vector(0, ctx.n, ctx.q)))
    for dim in range(ctx.m + 1):
        for wp in ctx.subspaces("w", dim):
            assert np.array_equal(dual_avg_factors(ctx, wp), dual_avg_factors_ref(ctx, ranks, wp))


@pytest.mark.parametrize("domain", DOMAINS)
def test_embeddings_and_cosets_match_scalar_loop(domain):
    ctx = get_scheme(*domain)
    for vp, wp in _all_pairs(ctx):
        sub, emb = ctx.restriction_embedding(vp, wp)
        ref = restriction_embedding_ref(ctx, vp, wp)
        assert emb.dtype == np.int64 and np.array_equal(emb, ref)
        reps, members = ctx.site_cosets(vp, wp)
        ref_reps, ref_members = site_cosets_ref(ctx, ref)
        assert reps.dtype == members.dtype == np.int64
        assert np.array_equal(reps, ref_reps)
        assert np.array_equal(members, ref_members)
        assert np.array_equal(members[:, 0], reps)
    for order in range(ctx.n + ctx.m + 1):
        pairs = ctx.restriction_pairs(order)
        stacks = ctx.site_stacks(order)
        assert sorted(p for s in stacks for p in s.positions) == list(range(len(pairs)))
        for s in stacks:
            assert s.members.flags.c_contiguous
            for pos, members in zip(s.positions, s.members):
                assert np.array_equal(members, ctx.site_cosets(*pairs[pos])[1])


@pytest.mark.parametrize("domain", [(2, 2, 2), (4, 2, 2), (2, 3, 2)])
def test_char_restriction_table_matches_scalar_map(domain):
    ctx = get_scheme(*domain)
    for vp, wp in _all_pairs(ctx):
        table = ctx.char_restriction_table(vp, wp)
        ref = [char_restriction_dual_index(ctx, vp, wp, x) for x in range(ctx.size)]
        assert np.array_equal(table, ref)
