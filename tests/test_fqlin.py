import numpy as np
import pytest

from oracles import brute_force_rank, field_mul, inv_by_rref, least_index_completion, subspace_vectors_ref, to_index
from qharm.errors import SizeCapError, ToolkitError
from qharm.fqlin import (
    IndexMap,
    QuotientFrame,
    Subspace,
    batched_rank,
    complete_basis,
    det,
    encode_vector,
    decode_vector,
    enumerate_subspaces,
    gaussian_binomial,
    inv_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    rref,
    span_of,
)
from qharm.gf import get_field


def canonicalize(ctx, a):
    """(rref, rank, kernel, image) of a matrix; kernel and image are Subspaces."""
    r, pivots = rref(ctx, a)
    return r, len(pivots), Subspace(ctx, a.shape[1], kernel_basis(ctx, a)), Subspace(ctx, a.shape[0], a.T.copy())


def test_canonicalize_identity_and_zero():
    ctx = get_field(3)
    ident = np.eye(3, dtype=np.uint8)
    r, rk, ker, img = canonicalize(ctx, ident)
    assert np.array_equal(r, ident) and rk == 3 and ker.dim == 0 and img.dim == 3
    z = np.zeros((3, 3), dtype=np.uint8)
    r, rk, ker, img = canonicalize(ctx, z)
    assert rk == 0 and ker.dim == 3 and img.dim == 0


def test_canonicalize_rank_one_over_f2():
    ctx = get_field(2)
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    r, rk, ker, img = canonicalize(ctx, a)
    assert rk == 1
    assert ker == span_of(ctx, [1, 1]) and img == span_of(ctx, [1, 1])


def test_rank_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for q in (2, 3, 4):
        ctx = get_field(q)
        for _ in range(25):
            a = rng.integers(0, q, size=(3, 3)).astype(np.uint8)
            assert rank(ctx, a) == brute_force_rank(ctx, a)


def test_rref_idempotent():
    rng = np.random.default_rng(11)
    for q in (2, 3, 5):
        ctx = get_field(q)
        for _ in range(20):
            a = rng.integers(0, q, size=(3, 4)).astype(np.uint8)
            r1, _ = rref(ctx, a)
            r2, _ = rref(ctx, r1)
            assert np.array_equal(r1, r2)


def test_det_multiplicative_and_inverse():
    rng = np.random.default_rng(3)
    for q in (2, 3, 4):
        ctx = get_field(q)
        for _ in range(20):
            a = rng.integers(0, q, size=(3, 3)).astype(np.uint8)
            b = rng.integers(0, q, size=(3, 3)).astype(np.uint8)
            assert det(ctx, mat_mul(ctx, a, b)) == field_mul(ctx, det(ctx, a), det(ctx, b))
            if det(ctx, a):
                ainv = inv_matrix(ctx, a)
                assert np.array_equal(mat_mul(ctx, a, ainv), np.eye(3, dtype=np.uint8))


def _invertible_stack(ctx, rng, shape, n):
    mats = rng.integers(0, ctx.q, size=(4 * np.prod(shape, dtype=int) + 64, n, n)).astype(np.uint8)
    mats = mats[det(ctx, mats) != 0][: np.prod(shape, dtype=int)]
    assert len(mats) == np.prod(shape, dtype=int)
    return mats.reshape(shape + (n, n))


@pytest.mark.parametrize("q", [4, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inv_matrix_stack_matches_rref_reference(q, n):
    ctx = get_field(q)
    rng = np.random.default_rng(10 * q + n)
    stack = _invertible_stack(ctx, rng, (3, 5), n)
    inv = inv_matrix(ctx, stack)
    assert inv.shape == stack.shape and inv.dtype == np.uint8
    eye = np.broadcast_to(np.eye(n, dtype=np.uint8), stack.shape)
    assert np.array_equal(mat_mul(ctx, stack, inv), eye)
    assert np.array_equal(mat_mul(ctx, inv, stack), eye)
    for idx in np.ndindex(3, 5):
        single = inv_matrix(ctx, stack[idx])
        assert single.shape == (n, n)
        assert np.array_equal(single, inv_by_rref(ctx, stack[idx]))
        assert np.array_equal(inv[idx], single)


@pytest.mark.parametrize("q", [4, 9])
def test_inv_matrix_stack_with_one_singular_member_raises(q):
    ctx = get_field(q)
    rng = np.random.default_rng(q)
    stack = _invertible_stack(ctx, rng, (6,), 3)
    for member in range(6):
        bad = stack.copy()
        bad[member, 2] = ctx.add_table[bad[member, 0], ctx.mul_table[bad[member, 1], 2]]  # row 2 = row 0 + c row 1, c = element 2
        assert det(ctx, bad[member]) == 0
        with pytest.raises(ToolkitError, match="singular"):
            inv_matrix(ctx, bad)
        with pytest.raises(ToolkitError, match="singular"):
            inv_by_rref(ctx, bad[member])
    with pytest.raises(ToolkitError):
        inv_matrix(ctx, np.zeros((2, 3), dtype=np.uint8))


def test_kernel_annihilates():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        ctx = get_field(q)
        for _ in range(15):
            a = rng.integers(0, q, size=(2, 4)).astype(np.uint8)
            kb = kernel_basis(ctx, a)
            assert kb.shape[0] + rank(ctx, a) == 4
            for v in kb:
                assert not np.any(mat_mul(ctx, a, v.reshape(-1, 1)))


def test_subspace_counts():
    assert len(enumerate_subspaces(get_field(2), 3, 1)) == 7
    assert len(enumerate_subspaces(get_field(3), 2, 1)) == 4
    assert len(enumerate_subspaces(get_field(2), 3, 0)) == 1


def test_subspace_counts_match_gaussian_binomial():
    # two independent computations: RREF enumeration vs the product formula
    for q in (2, 3, 5):
        ctx = get_field(q)
        for n in range(1, 5):
            for d in range(n + 1):
                subs = enumerate_subspaces(ctx, n, d)
                assert len(subs) == gaussian_binomial(n, d, q)
                assert len({s.key for s in subs}) == len(subs)


def test_subspace_vectors_match_the_coefficient_loop():
    for q in (2, 3, 4, 5):
        ctx = get_field(q)
        for n in (1, 2, 3):
            for d in range(n + 1):
                for sub in enumerate_subspaces(ctx, n, d):
                    vecs = sub.vectors(ctx)
                    assert vecs.dtype == np.uint8 and np.array_equal(vecs, subspace_vectors_ref(ctx, sub))


def test_subspace_canonical_equality():
    ctx = get_field(3)
    s1 = span_of(ctx, [[1, 2], [0, 0]])
    s2 = span_of(ctx, [[2, 1]])
    assert s1 == s2 and s1.dim == 1


def test_enumeration_cap():
    # both raise on the count alone, before enumerating anything
    with pytest.raises(SizeCapError):
        enumerate_subspaces(get_field(3), 8, 4)
    with pytest.raises(SizeCapError):
        IndexMap(get_field(2), 5, 5)


def test_quotient_frame_unique_decomposition():
    # every ambient vector splits uniquely into subspace part + lift part
    for q in (2, 3):
        ctx = get_field(q)
        for n in (2, 3):
            for dim in range(n + 1):
                for sub in enumerate_subspaces(ctx, n, dim):
                    frame = QuotientFrame(ctx, sub)
                    assert rank(ctx, frame.full_basis) == n
                    seen = set()
                    for idx in range(q**n):
                        v = decode_vector(idx, n, q)
                        c = mat_vec(ctx, frame.coord_matrix, v)
                        # reconstruct
                        rec = np.zeros(n, dtype=np.uint8)
                        for coeff, row in zip(c, frame.full_basis):
                            rec = ctx.add_table[rec, ctx.mul_table[row, int(coeff)]]
                        assert np.array_equal(rec, v)
                        seen.add(c.tobytes())
                    assert len(seen) == q**n


def test_complete_basis_keeps_rows_and_completes_the_empty_set_by_the_standard_basis():
    for q in (2, 3, 4, 5):
        ctx = get_field(q)
        for n in (1, 2, 3, 4):
            assert np.array_equal(complete_basis(ctx, [], n), np.eye(n, dtype=np.uint8))
    ctx = get_field(3)
    for sub in enumerate_subspaces(ctx, 3, 2):
        basis = complete_basis(ctx, sub.basis, 3)
        assert np.array_equal(basis[:2], sub.basis) and rank(ctx, basis) == 3
        assert np.array_equal(basis, QuotientFrame(ctx, sub).full_basis)


def test_complete_basis_matches_the_candidate_loop_on_random_rows():
    rng = np.random.default_rng(5)
    for q in (2, 3, 4, 5, 7):
        ctx = get_field(q)
        for n in (1, 2, 3, 4):
            for k in range(n + 1):
                for _ in range(12):
                    rows = rng.integers(0, q, size=(k, n)).astype(np.uint8)
                    if rank(ctx, rows) < k:
                        continue
                    got = complete_basis(ctx, rows, n)
                    assert got.dtype == np.uint8
                    assert np.array_equal(got, least_index_completion(ctx, rows, n))


def test_index_map_round_trip_and_examples():
    ctx = get_field(2)
    im = IndexMap(ctx, 1, 1)
    assert to_index(im, np.array([[0]])) == 0
    assert to_index(im, np.array([[1]])) == 1
    im22 = IndexMap(ctx, 2, 2)
    assert to_index(im22, np.array([[0, 1], [0, 0]])) == 2
    for i in range(im22.size):
        assert to_index(im22, im22.to_matrix(i)) == i


def test_index_addition_is_field_addition():
    ctx = get_field(4)
    im = IndexMap(ctx, 1, 2)
    a = np.array([[2, 3]], dtype=np.uint8)
    b = np.array([[3, 1]], dtype=np.uint8)
    s = ctx.add_table[a, b]
    assert im.add_indices(to_index(im, a), to_index(im, b)) == to_index(im, s)


def test_rank_table_counts():
    ctx = get_field(2)
    im = IndexMap(ctx, 1, 1)
    assert list(im.rank_table()) == [0, 1]
    im22 = IndexMap(ctx, 2, 2)
    ranks = im22.rank_table()
    hist = np.bincount(ranks, minlength=3)
    assert list(hist) == [1, 9, 6]
    assert int(np.sum(ranks == 0)) == 1


def test_batched_rank_matches_scalar_rank():
    rng = np.random.default_rng(11)
    for q in (2, 3, 4, 5):
        ctx = get_field(q)
        for rows, cols in [(0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (4, 3), (5, 5), (6, 2)]:
            stack = rng.integers(0, q, size=(60, rows, cols)).astype(np.uint8)
            # low-rank and repeated-row members exercise the pivot search
            stack[::3] = 0
            if rows >= 2:
                stack[1::3, 1] = stack[1::3, 0]
            got = batched_rank(ctx, stack)
            assert got.shape == (60,)
            assert list(got) == [rank(ctx, a) for a in stack]


def test_batched_mat_mul_matches_per_matrix_product():
    rng = np.random.default_rng(12)
    for q in (2, 3, 4):
        ctx = get_field(q)
        a = rng.integers(0, q, size=(7, 3, 4)).astype(np.uint8)
        b = rng.integers(0, q, size=(4, 2)).astype(np.uint8)
        got = mat_mul(ctx, a, b)
        assert np.array_equal(got, np.stack([mat_mul(ctx, x, b) for x in a]))
        c = rng.integers(0, q, size=(5, 3)).astype(np.uint8)
        assert np.array_equal(mat_mul(ctx, c, a), np.stack([mat_mul(ctx, c, x) for x in a]))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_linear_image_matches_per_matrix_product(q):
    # (rows, cols) of M, then rows of left and cols of right; a zero dimension
    # is the shape of a site with V' = V (no quotient rows) or W' = 0 (no
    # basis columns), or of a restricted scheme with no entries at all
    shapes = [(2, 2, 2, 2), (2, 2, 1, 3), (1, 3, 2, 2), (3, 1, 3, 1), (2, 2, 0, 2), (2, 2, 2, 0),
              (0, 2, 2, 2), (2, 0, 2, 1), (0, 0, 1, 1)]
    ctx = get_field(q)
    rng = np.random.default_rng(13 + q)
    for rows, cols, out_rows, out_cols in shapes:
        src, dst = IndexMap(ctx, rows, cols), IndexMap(ctx, out_rows, out_cols)
        for _ in range(2):
            left = rng.integers(0, q, size=(out_rows, rows)).astype(np.uint8)
            right = rng.integers(0, q, size=(cols, out_cols)).astype(np.uint8)
            table = src.linear_image(left, right, dst)
            ref = [to_index(dst, mat_mul(ctx, mat_mul(ctx, left, src.to_matrix(i)), right)) for i in range(src.size)]
            assert table.dtype == np.int64 and np.array_equal(table, ref)
    with pytest.raises(ToolkitError):
        IndexMap(ctx, 2, 2).linear_image(np.eye(2, dtype=np.uint8), np.eye(3, dtype=np.uint8), IndexMap(ctx, 2, 3))


def test_vector_encoding_round_trip():
    for q in (2, 3, 4):
        for n in (1, 2, 3):
            for idx in range(q**n):
                assert encode_vector(decode_vector(idx, n, q), q) == idx
