import numpy as np
import pytest

from oracles import (
    char_restriction_dual_index,
    char_value,
    dualize_perm_ref,
    fourier_inverse_naive,
    moveaxis_transform,
)
from qharm.fqlin import span_of, zero_space, full_space
from qharm.scheme import (
    FnTable,
    degree_decompose,
    degree_project,
    dualize,
    fourier_forward,
    get_scheme,
    random_table,
    restrict,
)

RNG = np.random.default_rng(2024)


def test_char_value_examples():
    ctx = get_scheme(2, 1, 1)
    assert abs(char_value(ctx, [[0]], [[0]]) - 1) < 1e-12
    assert abs(char_value(ctx, [[1]], [[1]]) + 1) < 1e-12
    ctx22 = get_scheme(2, 2, 2)
    ident = np.eye(2, dtype=np.uint8)
    # tr(I*I) = 1 + 1 = 0 in characteristic 2
    assert abs(char_value(ctx22, ident, ident) - 1) < 1e-12
    # every entry of the character matrix, and its row blocks, against the scalar trace
    for (q, n, m) in [(2, 2, 2), (3, 2, 1), (4, 1, 2)]:
        ctx = get_scheme(q, n, m)
        c = ctx.char_matrix()
        for x in range(ctx.size):
            xm = ctx.dual_index.to_matrix(x)
            assert c[x].tolist() == [char_value(ctx, xm, ctx.domain_index.to_matrix(a)) for a in range(ctx.size)]
        assert np.array_equal(ctx.char_rows(3, 7), c[3:7])


def test_char_multiplicative_in_argument():
    ctx = get_scheme(3, 2, 1)
    for _ in range(20):
        x = RNG.integers(0, 3, size=(2, 1)).astype(np.uint8)
        a = RNG.integers(0, 3, size=(1, 2)).astype(np.uint8)
        b = RNG.integers(0, 3, size=(1, 2)).astype(np.uint8)
        ab = ctx.field.add_table[a, b]
        lhs = char_value(ctx, x, ab)
        rhs = char_value(ctx, x, a) * char_value(ctx, x, b)
        assert abs(lhs - rhs) < 1e-12


def test_forward_constant_and_characters():
    for (q, n, m) in [(2, 1, 1), (2, 2, 2), (3, 1, 2), (4, 1, 1)]:
        ctx = get_scheme(q, n, m)
        s = fourier_forward(ctx.table(np.ones(ctx.size)))
        assert abs(s.coefficients[0] - 1) < 1e-12
        assert np.max(np.abs(s.coefficients[1:])) < 1e-12
        y = min(3, ctx.size - 1)
        s2 = fourier_forward(ctx.char_fn(y))
        expected = np.zeros(ctx.size)
        expected[y] = 1
        assert np.max(np.abs(s2.coefficients - expected)) < 1e-12


def test_point_indicator_flat_spectrum():
    ctx = get_scheme(3, 1, 2)
    s = fourier_forward(ctx.table(np.eye(1, ctx.size)[0]))
    assert np.max(np.abs(s.coefficients - 1 / ctx.size)) < 1e-12


def test_fast_transform_matches_naive():
    for (q, n, m) in [(2, 2, 2), (3, 2, 1), (4, 1, 2), (5, 1, 1), (2, 3, 2)]:
        ctx = get_scheme(q, n, m)
        f = RNG.standard_normal(ctx.size) + 1j * RNG.standard_normal(ctx.size)
        fast = ctx.fourier_forward(f)
        naive = ctx.fourier_forward_naive(f)
        assert np.max(np.abs(fast - naive)) < 1e-10
        back_fast = ctx.fourier_inverse(fast)
        back_naive = fourier_inverse_naive(ctx, naive)
        assert np.max(np.abs(back_fast - f)) < 1e-10
        assert np.max(np.abs(back_naive - f)) < 1e-10


def test_transform_bit_identical_to_moveaxis_reference():
    for (q, n, m) in [(2, 2, 2), (3, 2, 2), (5, 2, 2), (2, 3, 3), (3, 3, 3), (4, 2, 1), (2, 1, 3), (2, 4, 4)]:
        ctx = get_scheme(q, n, m)
        batches = [()] if ctx.size > 20000 else [(), (3,), (2, 3)]
        for batch in batches:
            shape = batch + (ctx.size,)
            v = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
            fwd = ctx.fourier_forward(v)
            assert fwd.shape == shape
            assert np.array_equal(fwd, moveaxis_transform(ctx, v, ctx._kernel_fwd, ctx._perm_fwd))
            inv = ctx.fourier_inverse(v)
            assert inv.shape == shape
            assert np.array_equal(inv, moveaxis_transform(ctx, v, ctx._kernel_inv, ctx._perm_inv))
        if batches[-1]:
            # each row of a batched transform equals its unbatched transform
            assert np.array_equal(fwd[1, 2], ctx.fourier_forward(v[1, 2]))


def test_parseval_and_roundtrip_random():
    for (q, n, m) in [(2, 2, 2), (3, 2, 2), (4, 1, 2)]:
        ctx = get_scheme(q, n, m)
        for _ in range(10):
            f = random_table(ctx, RNG, "complex")
            s = fourier_forward(f)
            assert abs(np.sum(np.abs(s.coefficients) ** 2) - f.norm2sq()) < 1e-9
            g = ctx.fourier_inverse(s.coefficients)
            assert np.max(np.abs(g - f.values)) < 1e-9


def test_orthonormality_via_character_sums():
    # <u_X, u_Y> = delta_{XY} reduces to sums of u_Z over the domain
    for (q, n, m) in [(2, 2, 2), (3, 1, 2)]:
        ctx = get_scheme(q, n, m)
        c = ctx.char_matrix()
        gram = c.conj() @ c.T / ctx.size
        assert np.max(np.abs(gram - np.eye(ctx.size))) < 1e-9


def test_degree_project_examples():
    ctx = get_scheme(2, 1, 1)
    f = ctx.table([1.0, 0.0])
    f0 = degree_project(f, 0)
    f1 = degree_project(f, 1)
    assert np.max(np.abs(f0.values - 0.5)) < 1e-12
    assert abs(f1.values[0] - 0.5) < 1e-12
    assert abs(f1.values[1] + 0.5) < 1e-12

    ctx22 = get_scheme(3, 2, 2)
    c = ctx22.table(np.full(ctx22.size, 2.5))
    assert np.max(np.abs(degree_project(c, 0).values - c.values)) < 1e-12
    for d in (1, 2):
        assert np.max(np.abs(degree_project(c, d).values)) < 1e-12


def test_degree_parts_sum_and_orthogonal():
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "complex")
    parts = degree_decompose(f)
    total = np.sum([p.values for p in parts], axis=0)
    assert np.max(np.abs(total - f.values)) < 1e-9
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert abs(parts[i].inner(parts[j])) < 1e-9
    # character of rank r lands purely in degree r
    y = 5
    r = int(ctx.rank_table_dual()[y])
    u = ctx.char_fn(y)
    assert np.max(np.abs(degree_project(u, r).values - u.values)) < 1e-9


def test_cumulative_equals_partial_sums():
    ctx = get_scheme(3, 2, 1)
    f = random_table(ctx, RNG, "complex")
    parts = degree_decompose(f)
    for d in range(min(ctx.n, ctx.m) + 1):
        cum = degree_project(f, d, "cumulative")
        s = np.sum([p.values for p in parts[: d + 1]], axis=0)
        assert np.max(np.abs(cum.values - s)) < 1e-9


def test_restriction_identity_cases():
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "complex")
    v0 = zero_space(ctx.field, 2)
    wfull = full_space(ctx.field, 2)
    r = restrict(f, v0, wfull, 0)
    assert np.max(np.abs(r.values - f.values)) < 1e-12
    ones = ctx.table(np.ones(ctx.size))
    vp = span_of(ctx.field, [1, 0])
    wp = span_of(ctx.field, [0, 1])
    r2 = restrict(ones, vp, wp, 3)
    assert np.max(np.abs(r2.values - 1.0)) < 1e-12


def test_restriction_of_character_scales():
    # u_X restricted is u_X(T) times the restricted character u_Y
    for (q, n, m) in [(2, 2, 2), (3, 2, 2)]:
        ctx = get_scheme(q, n, m)
        for vp in ctx.subspaces("v", 1):
            for wp in ctx.subspaces("w", m - 1):
                sub, _ = ctx.restriction_embedding(vp, wp)
                for x_idx in RNG.choice(ctx.size, size=5, replace=False):
                    u = ctx.char_fn(int(x_idx))
                    t_idx = int(RNG.integers(0, ctx.size))
                    got = restrict(u, vp, wp, t_idx)
                    y_idx = char_restriction_dual_index(ctx, vp, wp, int(x_idx))
                    scale = char_value(
                        ctx, ctx.dual_index.to_matrix(int(x_idx)), ctx.domain_index.to_matrix(t_idx)
                    )
                    expected = scale * sub.char_fn(y_idx).values
                    assert np.max(np.abs(got.values - expected)) < 1e-9


def test_restriction_total_expectation():
    # ||f||^2 = E over cosets of ||restriction||^2, orders 1 and 2
    for (q, n, m) in [(2, 2, 2), (3, 2, 1), (2, 3, 3), (4, 1, 2), (5, 2, 2)]:
        ctx = get_scheme(q, n, m)
        f = random_table(ctx, RNG, "complex")
        for order in (1, 2):
            for vp, wp in ctx.restriction_pairs(order):
                reps, members = ctx.site_cosets(vp, wp)
                norms = np.mean(np.abs(f.values[members]) ** 2, axis=1)
                # weights: each coset has the same size
                assert abs(np.mean(norms) - f.norm2sq()) < 1e-9


def test_site_cosets_partition():
    ctx = get_scheme(2, 2, 2)
    for vp, wp in ctx.restriction_pairs(1):
        reps, members = ctx.site_cosets(vp, wp)
        flat = members.reshape(-1)
        assert len(np.unique(flat)) == ctx.size
        assert np.array_equal(reps, members.min(axis=1))


def test_convolution_diagonalizes():
    # the transform of the abelian convolution (f*g)(A) = E_B f(A-B) g(B),
    # by a double loop, is the product of the transforms
    ctx = get_scheme(2, 2, 2)
    f = random_table(ctx, RNG, "complex")
    g = random_table(ctx, RNG, "complex")
    brute = np.zeros(ctx.size, dtype=np.complex128)
    for a in range(ctx.size):
        for b in range(ctx.size):
            amb = ctx.domain_index.add_indices(a, ctx.domain_index.neg_index(b))
            brute[a] += f.values[amb] * g.values[b]
    brute /= ctx.size
    lhs = ctx.fourier_forward(brute)
    rhs = ctx.fourier_forward(f.values) * ctx.fourier_forward(g.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_dualize_involution_and_norm():
    ctx = get_scheme(3, 2, 1)
    f = random_table(ctx, RNG, "complex")
    d = dualize(f)
    assert d.domain.n == 1 and d.domain.m == 2
    dd = dualize(d)
    assert np.max(np.abs(dd.values - f.values)) < 1e-12
    assert abs(d.norm2sq() - f.norm2sq()) < 1e-12


@pytest.mark.parametrize("q,n,m", [(2, 2, 3), (3, 2, 2), (2, 3, 3), (4, 2, 2), (2, 1, 4), (3, 3, 3)])
def test_dualize_matches_the_per_element_transpose(q, n, m):
    ctx = get_scheme(q, n, m)
    perm = dualize_perm_ref(ctx)
    f = FnTable(ctx, np.arange(ctx.size, dtype=np.complex128))
    assert np.array_equal(dualize(f).values, f.values[perm])


def _conj_product(f, g):
    # written as in FnTable.inner: from 2^14 complex entries numpy multiplies
    # into the temporary conj(g) in place, which rounds differently from a
    # product into a new array, and pytest's rewritten asserts hold on to
    # their intermediate values, so no temporary is reused inside one
    return f.values * np.conj(g.values)


@pytest.mark.parametrize("q,n,m", [(2, 1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3), (5, 2, 2), (2, 4, 4)])
def test_fn_table_expectations_equal_their_np_mean_form(q, n, m):
    ctx = get_scheme(q, n, m)
    for kind in ("real", "complex", "boolean"):
        f, g = random_table(ctx, RNG, kind), random_table(ctx, RNG, kind)
        assert f.mean() == complex(np.mean(f.values))
        assert f.norm2sq() == float(np.mean(np.abs(f.values) ** 2))
        assert f.inner(g) == complex(np.mean(_conj_product(f, g)))
        for p in (1.0, 1.5, 4.0):
            assert f.lp_power(p) == float(np.mean(np.abs(f.values) ** p))
            assert f.lp_norm(p) == float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))
