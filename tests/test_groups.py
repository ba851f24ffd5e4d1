"""Group enumeration, transfer maps, convolution, level filtration, juntas,
and the isotypic eigen-refinement."""

import numpy as np
import pytest

from oracles import brute_convolution
from qharm.errors import RefinementError, ToolkitError
from qharm.fqlin import span_of
from qharm.groups import (
    build_level_basis,
    convolve,
    get_group,
    get_irreducibles,
    get_isotypic,
    get_levels,
    isotypic_blocks,
    junta_project,
    junta_test,
    level_lower_check,
    level_project,
    level_project_eq,
    pointwise_stabilizer,
    random_group_table,
    transfer,
    transfer_to_group,
)

RNG = np.random.default_rng(404)


def test_group_orders():
    assert get_group("sl", 2, 2).size == 6
    assert get_group("sl", 2, 3).size == 24
    assert get_group("gl", 2, 2).size == 6
    assert get_group("gl", 2, 3).size == 48
    assert get_group("sl", 3, 2).size == 168
    assert get_group("sl", 2, 5).size == 120


def test_sl_gl_order_relation():
    for (n, q) in [(2, 2), (2, 3), (2, 4), (2, 5)]:
        sl = get_group("sl", n, q)
        gl = get_group("gl", n, q)
        assert sl.size * (q - 1) == gl.size


def test_inverses_and_identity():
    g = get_group("sl", 2, 3)
    m = g.mul_table()
    for x in range(g.size):
        assert m[x, g.inv[x]] == g.identity
        assert m[g.identity, x] == x


def test_closure_spot_check():
    g = get_group("sl", 3, 2)
    m = g.mul_table()
    sample = RNG.integers(0, g.size, size=200)
    assert np.all(m[sample, sample[::-1]] >= 0)


def test_transfer_round_trip_and_norm():
    g = get_group("sl", 2, 2)
    f = random_group_table(g, RNG, "complex")
    jf = transfer(f)
    assert abs(jf.mean() - f.mean() * g.size / jf.domain.size) < 1e-12
    back = transfer_to_group(jf, g)
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    ones = g.table(np.ones(g.size))
    assert abs(transfer(ones).mean() - 6 / 16) < 1e-12
    # norm transfer: ||j(f)||^2 = (|G|/q^{n^2}) ||f||^2
    assert abs(transfer(f).norm2sq() - f.norm2sq() * g.size / 16) < 1e-12


def test_convolution_identities_and_oracle():
    g = get_group("sl", 2, 3)
    ones = g.table(np.ones(g.size))
    c = convolve(ones, ones)
    assert np.max(np.abs(c.values - 1.0)) < 1e-12
    point = g.table(np.eye(1, g.size, g.identity)[0] * g.size)
    f = random_group_table(g, RNG, "complex")
    assert np.max(np.abs(convolve(point, f).values - f.values)) < 1e-10
    # O(|G|^2) double-loop oracle
    a = RNG.integers(0, g.size, size=10)
    b = RNG.integers(0, g.size, size=12)
    fa = g.indicator(np.unique(a))
    fb = g.indicator(np.unique(b))
    conv = convolve(fa, fb)
    brute = brute_convolution(g, np.unique(a), np.unique(b))
    assert np.max(np.abs(conv.values - brute)) < 1e-12
    # associativity and mean product
    fc = random_group_table(g, RNG, "complex")
    lhs = convolve(convolve(fa, fb), fc)
    rhs = convolve(fa, convolve(fb, fc))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10
    assert abs(convolve(fa, fb).mean() - fa.mean() * fb.mean()) < 1e-12


def test_level_dims_nested_and_saturating():
    for (n, q) in [(2, 2), (2, 3)]:
        g = get_group("sl", n, q)
        levels = get_levels(g)
        assert levels.dims[0] == 1
        assert all(levels.dims[d] <= levels.dims[d + 1] for d in range(n))
        assert levels.dims[n] == g.size
        # orthonormality of the basis
        b = levels.basis
        gram = b.conj() @ b.T / g.size
        assert np.max(np.abs(gram - np.eye(b.shape[0]))) < 1e-8


def test_level_dims_match_naive_generator_stream():
    # the reduced generator set spans the same filtration as the full
    # q^{2nd} stream of constraint tuples
    g = get_group("sl", 2, 2)
    levels = get_levels(g)
    q, n = g.q, g.n
    act = g.vector_action(False)
    from qharm.groups import _GramSchmidtRows

    rows = _GramSchmidtRows(g.size)
    dims = []
    for d in range(n + 1):
        if d == 0:
            rows.extend(np.ones(g.size))
        else:
            import itertools

            for tup in itertools.product(range(q**n), repeat=2 * d):
                mask = np.ones(g.size, dtype=bool)
                for t in range(d):
                    v, u = tup[2 * t], tup[2 * t + 1]
                    mask &= act[:, v] == u if v else np.full(g.size, u == 0)
                if mask.any():
                    rows.extend(mask.astype(float))
        dims.append(len(rows))
    assert dims == levels.dims


def test_level_projection_examples():
    g = get_group("sl", 2, 3)
    c = g.table(np.full(g.size, 3.0))
    assert np.max(np.abs(level_project_eq(c, 0).values - c.values)) < 1e-9
    for d in (1, 2):
        assert level_project_eq(c, d).norm2sq() < 1e-16
    # a dictator indicator lies in level <= 1
    mask = g.vector_action(False)[:, 1] == 1
    f = g.table(mask.astype(float))
    assert np.max(np.abs(level_project(f, 1).values - f.values)) < 1e-9
    # Parseval across the filtration
    f = random_group_table(g, RNG, "complex")
    parts = [level_project_eq(f, d) for d in range(g.n + 1)]
    assert abs(sum(p.norm2sq() for p in parts) - f.norm2sq()) < 1e-9
    total = np.sum([p.values for p in parts], axis=0)
    assert np.max(np.abs(total - f.values)) < 1e-9


def test_convolution_preserves_levels():
    g = get_group("sl", 2, 3)
    f = random_group_table(g, RNG, "complex")
    h = random_group_table(g, RNG, "complex")
    fparts = [level_project_eq(f, d) for d in range(g.n + 1)]
    hparts = [level_project_eq(h, d) for d in range(g.n + 1)]
    for d, fd in enumerate(fparts):
        conv = convolve(fd, h)
        for dp in range(g.n + 1):
            part = level_project_eq(conv, dp)
            if dp != d:
                assert part.norm2sq() < 1e-16
    full = convolve(f, h)
    diag = np.sum([convolve(fparts[d], hparts[d]).values for d in range(g.n + 1)], axis=0)
    assert np.max(np.abs(full.values - diag)) < 1e-9


def test_junta_stabilizer_equivalence_exhaustive():
    g = get_group("sl", 2, 3)
    u = span_of(g.field, [1, 0])
    h = pointwise_stabilizer(g, u)
    # signature of g|_U: encoded image of the basis vector
    act = g.vector_action(False)
    sig = act[:, 1]
    # H-invariant functions are exactly the signature-measurable ones
    f = random_group_table(g, RNG, "real")
    p = junta_project(f, u)
    assert junta_test(p, u)
    for s in np.unique(sig):
        vals = p.values[sig == s]
        assert np.max(np.abs(vals - vals[0])) < 1e-9
    # any signature-measurable function passes the test
    lookup = RNG.standard_normal(int(sig.max()) + 1)
    f2 = g.table(lookup[sig])
    assert junta_test(f2, u)
    assert not junta_test(random_group_table(g, RNG, "real"), u)
    # constants are 0-juntas; dictators are 1-juntas
    from qharm.fqlin import zero_space

    assert junta_test(g.table(np.full(g.size, 2.0)), zero_space(g.field, 2))
    assert junta_test(g.table((g.vector_action(False)[:, 1] == 2).astype(float)), u)


def test_junta_project_idempotent_and_contractive():
    g = get_group("sl", 2, 3)
    u = span_of(g.field, [0, 1])
    for _ in range(5):
        f = random_group_table(g, RNG, "complex")
        p = junta_project(f, u)
        pp = junta_project(p, u)
        assert np.max(np.abs(pp.values - p.values)) < 1e-10
        assert p.norm2sq() <= f.norm2sq() + 1e-12


def test_level_lower_check_random():
    for (n, q) in [(2, 3), (2, 5), (3, 2)]:
        g = get_group("sl", n, q)
        bound = g.size / float(q) ** (n * n)
        assert bound > 1 / (4 * q)
        for d in range(n + 1):
            for _ in range(5):
                f = random_group_table(g, RNG, "complex")
                try:
                    res = level_lower_check(f, d)
                except ToolkitError:
                    continue
                assert res["ok"], res


def test_level_lower_check_constant():
    g = get_group("sl", 2, 3)
    res = level_lower_check(g.table(np.ones(g.size)), 0)
    # j(1_G)^{=0} has scheme norm^2 (|G|/N)^2; the ratio is exactly |G|/N
    assert abs(res["ratio_j"] - 24 / 81) < 1e-9
    assert res["ok"]


def test_conjugacy_class_counts():
    g6 = get_group("sl", 2, 2)
    cls = g6.conjugacy_classes()
    sizes = sorted(np.bincount(cls).tolist())
    assert sizes == [1, 2, 3]
    assert get_group("sl", 2, 3).class_count() == 7
    assert get_group("sl", 3, 2).class_count() == 6
    for g in (g6, get_group("sl", 2, 3)):
        assert np.bincount(g.conjugacy_classes())[g.conjugacy_classes()[g.identity]] == 1


def test_isotypic_refinement_consistency():
    for (n, q) in [(2, 2), (2, 3), (3, 2)]:
        g = get_group("sl", n, q)
        rep = get_isotypic(g)
        assert rep.sum_of_squares() == g.size
        assert rep.total_blocks() == g.class_count()
        for d, dims in rep.component_dims.items():
            assert all(isinstance(x, int) and x >= 1 for x in dims)


def test_isotypic_sl2_f2_dims():
    # SL_2(F_2) is S_3: irreducibles of dimension 1, 1, 2
    rep = get_isotypic(get_group("sl", 2, 2))
    alldims = sorted(x for v in rep.component_dims.values() for x in v)
    assert alldims == [1, 1, 2]
    assert rep.component_dims[0] == [1]


@pytest.mark.parametrize("kind,n,q,pairs", [
    ("sl", 2, 2, None), ("sl", 2, 3, None), ("sl", 2, 5, 400), ("sl", 3, 2, 400), ("gl", 2, 3, 400),
])
def test_irreducible_tables_are_unitary_homomorphisms(kind, n, q, pairs):
    # rho(gh) = rho(g) rho(h) on every pair (or `pairs` seeded ones), each
    # rho(z) unitary, sum_z |tr rho(z)|^2 = |G| (rho irreducible), its
    # character that of its block Q, tr rho(z) = sum_i conj(q_i(z)) q_i(1) / d_rho
    # (Q's projection is convolution by d_rho conj(chi)), and the degrees per
    # level are the isotypic report's
    g = get_group(kind, n, q)
    irreducibles = get_irreducibles(g)
    blocks = isotypic_blocks(g)
    if pairs is None:
        x, y = (a.reshape(-1) for a in np.meshgrid(np.arange(g.size), np.arange(g.size), indexing="ij"))
    else:
        x, y = np.random.default_rng(7).integers(g.size, size=(2, pairs))
    prod = g.mul_table()[x, y]
    for d, irrs in irreducibles.items():
        assert sorted(irr.degree for irr in irrs) == get_isotypic(g).component_dims[d]
        for irr, qb in zip(irrs, blocks[d]):
            k = irr.degree
            rho = irr.table.reshape(g.size, k, k)
            chi = np.trace(rho, axis1=1, axis2=2)
            assert np.max(np.abs(rho[prod] - rho[x] @ rho[y])) < 1e-10
            assert np.max(np.abs(rho @ np.conj(np.swapaxes(rho, 1, 2)) - np.eye(k))) < 1e-10
            assert abs(np.sum(np.abs(chi) ** 2) - g.size) < 1e-8
            assert np.max(np.abs(chi - qb.conj().T @ qb[:, g.identity] / k)) < 1e-10


def test_irreducibles_refuse_a_zero_eigen_gap(monkeypatch):
    # zero weights make the right-translation operator 0 on every block, so
    # no degree >= 2 block has a gap below its top eigenvalues
    import qharm.groups as groups
    from qharm.gf import get_field

    monkeypatch.setattr(groups, "_translation_weights", lambda rng, count: np.zeros(count))
    with pytest.raises(RefinementError, match="eigen-gap"):
        get_irreducibles(groups.GroupTable("sl", 2, get_field(3)))


def test_glt_growth_report_shape():
    from qharm.groups import glt_growth_report

    g = get_group("sl", 2, 3)
    rep = get_isotypic(g)
    out = glt_growth_report(g, rep)
    assert "nondecreasing" in out and out["m_1"] >= 1
    assert out["reference_scale"] == (3**2 - 1) // 2 - 1


def test_level_spaces_spanned_by_juntas():
    # each strict level-d space is inside the span of d-junta projections
    g = get_group("sl", 2, 3)
    levels = get_levels(g)
    from qharm.fqlin import enumerate_subspaces

    for d in (1, 2):
        gen_rows = []
        for u in enumerate_subspaces(g.field, g.n, d):
            h = pointwise_stabilizer(g, u)
            m = g.mul_table()
            for x in range(g.size):
                row = np.zeros(g.size)
                row[m[x, h]] = 1.0 / len(h)
                gen_rows.append(row)
        gen = np.array(gen_rows)
        # project the =d basis onto the junta span and check zero residual
        u_, s_, vh = np.linalg.svd(gen, full_matrices=False)
        keep = s_ > 1e-8
        qrows = vh[keep]
        eq = levels.eq_basis(d)
        coeffs = eq @ qrows.conj().T
        recon = coeffs @ qrows
        assert np.max(np.abs(recon - eq)) < 1e-8


def test_random_group_table_draws_like_scheme_tables_and_rejects_unknown_kinds():
    from qharm.scheme import random_table

    g = get_group("sl", 2, 3)
    for kind in ("boolean", "real", "complex"):
        got = random_group_table(g, np.random.default_rng(7), kind)
        want = random_table(g, np.random.default_rng(7), kind)
        assert got.domain is g and np.array_equal(got.values, want.values)
    with pytest.raises(ToolkitError, match="unknown random table kind"):
        random_group_table(g, np.random.default_rng(7), "bool")
