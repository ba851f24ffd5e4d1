"""Operator norms on levels, the trace identity, mixing decompositions,
product-free witnesses, and spot checks of the inequality batteries."""

import dataclasses

import numpy as np
import pytest

import qharm.spectra as spectra
from oracles import (
    PerFunctionSchemeChecks,
    avg_for_direction_ref,
    brute_convolution,
    conv_operator_matrix,
    max_refining_restriction_ref,
    mixing_terms_ref,
    per_function_global_audit,
    per_function_influence_audit,
    per_function_lp_global_audit,
    per_site_influence_audit,
    sarnak_xue_ref,
)
from qharm.calculus import avg_for_direction, avg_for_directions, direction_subspaces
from qharm.globality import GlobalnessReport, ReportRow, refining_maxima
from qharm.bogolyubov import GroupSet
from qharm.errors import ConsistencyError, ToolkitError
from qharm.groups import (
    convolve,
    get_characters,
    get_group,
    get_levels,
    isotypic_projector,
    level_project,
    level_project_eq,
    random_group_table,
    transfer,
)
from qharm.spectra import (
    GroupInstanceChecks,
    SchemeInstanceChecks,
    bonami_isotypic_rows,
    level_invariance_residual,
    mixing_experiment,
    product_free_witness,
    product_mixing,
    sarnak_xue_check,
    violations,
)
from qharm.scheme import SchemeCtx, degree_project, get_scheme, random_table

RNG = np.random.default_rng(777)


def test_operator_norm_constant_function():
    g = get_group("sl", 2, 3)
    ones = g.table(np.ones(g.size))
    for d in (1, 2):
        assert sarnak_xue_check(ones, d).norm < 1e-10


def test_operator_norm_point_mass_identity():
    g = get_group("sl", 2, 3)
    point = g.table(np.eye(1, g.size, g.identity)[0] * g.size)
    dims = [0] + get_levels(g).dims
    for d in range(g.n + 1):
        if dims[d + 1] > dims[d]:
            assert abs(sarnak_xue_check(point, d).norm - 1.0) < 1e-9


def test_trace_identity_and_sx_bound():
    for kind, n, q in [("sl", 2, 2), ("sl", 2, 3), ("sl", 3, 2)]:
        g = get_group(kind, n, q)
        for _ in range(3):
            f = random_group_table(g, RNG, "real")
            for d in range(n + 1):
                row = sarnak_xue_check(f, d)
                assert abs(row.trace_matrix - row.trace_direct) < 1e-8
                assert row.sx_holds


def _close(got, want):
    """Equal, or within 1e-12 relative (1e-12 absolute where |want| < 1e-12)."""
    return got == want or abs(got - want) <= 1e-12 * (abs(want) if abs(want) >= 1e-12 else 1.0)


@pytest.mark.parametrize("kind,n,q", [("sl", 2, 3), ("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 2), ("gl", 2, 3)])
def test_sarnak_xue_matches_two_matrix_reference(kind, n, q):
    # the norm and the trace side come from one rho_hat(f) per irreducible,
    # the reference's from the SVD and the Frobenius^2 of |V_=d|^2 matrices:
    # those three fields agree to rounding, every other field exactly
    g = get_group(kind, n, q)
    rng = np.random.default_rng(100 * n + q)
    fs = [random_group_table(g, rng, "real"), random_group_table(g, rng, "complex"),
          g.indicator(rng.choice(g.size, size=g.size // 3, replace=False)),
          g.table(np.ones(g.size)), g.table(np.eye(1, g.size, g.identity)[0] * g.size)]
    rounded = ("norm", "trace_matrix", "empirical_c")
    for f in fs:
        for d in range(n + 1):
            got, want = sarnak_xue_check(f, d), sarnak_xue_ref(f, d)
            for field in rounded:
                assert _close(getattr(got, field), getattr(want, field)), (field, d)
            assert dataclasses.replace(got, **{k: getattr(want, k) for k in rounded}) == want


def test_trace_identity_point_mass():
    g = get_group("sl", 2, 3)
    point = g.table(np.eye(1, g.size, g.identity)[0] * g.size)
    total = 0.0
    for d in range(g.n + 1):
        row = sarnak_xue_check(point, d)
        total += row.trace_direct
    assert abs(total - point.norm2sq()) < 1e-8
    assert abs(point.norm2sq() - g.size) < 1e-9


def test_operator_preserves_levels():
    g = get_group("sl", 2, 3)
    f = random_group_table(g, RNG, "real")
    for d in range(1, g.n + 1):
        assert level_invariance_residual(f, d, RNG) < 1e-9


def test_operator_agrees_with_pure_part():
    # T_f and T_{f_{=d}} agree on V_{=d}
    g = get_group("sl", 2, 3)
    f = random_group_table(g, RNG, "real")
    for d in range(1, g.n + 1):
        m_full = conv_operator_matrix(f, d)
        m_pure = conv_operator_matrix(level_project_eq(f, d), d)
        if m_full.size:
            assert np.max(np.abs(m_full - m_pure)) < 1e-9


def test_mixing_full_group_and_absorbing():
    g = get_group("sl", 2, 3)
    full = GroupSet(g, np.arange(g.size))
    rep = mixing_experiment(full, full)
    assert rep.deviation < 1e-12
    a = GroupSet(g, RNG.choice(g.size, size=9, replace=False))
    rep2 = mixing_experiment(a, full)
    assert rep2.deviation < 1e-12


def test_mixing_decomposition_and_oracle():
    g = get_group("sl", 2, 3)
    for _ in range(5):
        a = GroupSet(g, RNG.choice(g.size, size=int(RNG.integers(4, 20)), replace=False))
        b = GroupSet(g, RNG.choice(g.size, size=int(RNG.integers(4, 20)), replace=False))
        rep = mixing_experiment(a, b)
        assert rep.decomposition_residual < 1e-8
        # double-loop convolution oracle
        f = g.indicator(a.ordinals)
        h = g.indicator(b.ordinals)
        brute = brute_convolution(g, a.ordinals, b.ordinals)
        conv = convolve(f, h)
        assert np.max(np.abs(conv.values - brute)) < 1e-12
        dev = np.sqrt(np.mean(np.abs(brute - a.mu * b.mu) ** 2))
        assert rep.deviation == pytest.approx(float(dev), abs=1e-12)


@pytest.mark.parametrize("kind,n,q", [("sl", 2, 3), ("sl", 3, 2)])
def test_mixing_terms_match_one_convolution_per_term(kind, n, q):
    # both experiments project the one convolution f*g; each level term must
    # still be the one that a separate convolution of f with g_{=d} gives, to
    # rounding (they differ in the last bits)
    g = get_group(kind, n, q)
    rng = np.random.default_rng(31 + n)
    for _ in range(3):
        a, b, c = (np.sort(rng.choice(g.size, size=int(rng.integers(3, g.size // 2)), replace=False))
                   for _ in range(3))
        want = mixing_terms_ref(g, a, b, c)
        mix = mixing_experiment(GroupSet(g, a), GroupSet(g, b))
        triple = product_mixing(GroupSet(g, a), GroupSet(g, b), GroupSet(g, c))
        np.testing.assert_allclose(mix.per_level, [norm for norm, _ in want], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(triple.per_level, [term for _, term in want], rtol=1e-12, atol=1e-14)
        fa, fb = g.indicator(a), g.indicator(b)
        conv = convolve(fa, fb)
        assert mix.deviation == float(np.sqrt(np.mean(np.abs(conv.values - fa.mean().real * fb.mean().real) ** 2)))
        assert triple.triple == float(conv.inner(g.indicator(c)).real)


def test_product_mixing_cases():
    g = get_group("sl", 2, 3)
    full = GroupSet(g, np.arange(g.size))
    rep = product_mixing(full, full, full)
    assert rep.triple == pytest.approx(1.0)
    assert rep.triple_deviation < 1e-12
    assert rep.covers
    # C disjoint from AB makes the triple correlation vanish
    a = GroupSet(g, [3])
    b = GroupSet(g, [5])
    from qharm.bogolyubov import product_set

    ab = product_set(a, b)
    rest = np.setdiff1d(np.arange(g.size), ab.ordinals)
    c = GroupSet(g, rest[:4])
    rep2 = product_mixing(a, b, c)
    assert abs(rep2.triple) < 1e-12
    assert rep2.decomposition_residual < 1e-8


def test_product_free_witness():
    g = get_group("sl", 2, 3)
    assert not product_free_witness(GroupSet(g, np.arange(g.size))).product_free
    # any non-identity element gives a product-free singleton
    x = 7
    assert x != g.identity
    rep = product_free_witness(GroupSet(g, [x]))
    assert rep.product_free
    assert rep.audit is not None and rep.best_bump_ratio >= 1.0


def test_product_free_structured_coset():
    # a coset of L_1 avoiding its own square is detected both ways
    g = get_group("sl", 3, 2)
    from qharm.globality import GoodUmvirate

    for shift in range(1, g.size):
        gu = GoodUmvirate(g, 1, shift, g.identity)
        a = GroupSet(g, gu.members())
        m = g.mul_table()
        prods = m[np.ix_(a.ordinals, a.ordinals)]
        brute_free = not np.any(np.isin(prods, a.ordinals))
        rep = product_free_witness(a)
        assert rep.product_free == brute_free
        if brute_free:
            break
    else:
        pytest.skip("no product-free coset found")


def test_scheme_checks_trivial_instances():
    ctx = get_scheme(2, 2, 2)
    ones = ctx.table(np.ones(ctx.size))
    checks = SchemeInstanceChecks("const", ones, 2, 2)
    r = checks.check_four_norm(1)
    assert r["holds"]
    point = ctx.table(np.eye(1, ctx.size)[0])
    checks2 = SchemeInstanceChecks("point", point, 2, 2)
    for d in (1, 2):
        for fn in (
            checks2.check_globalness_implies_small_influences,
            checks2.check_four_norm,
        ):
            assert fn(d)["holds"]
        assert checks2.check_level_weight(d, 4)["holds"]


def test_group_checks_small_instance():
    g = get_group("sl", 2, 3)
    a = g.indicator(RNG.choice(g.size, size=8, replace=False))
    checks = GroupInstanceChecks("inst", a, 2)
    for d in (1, 2):
        assert checks.check_strict_level_weight(d, 4)["holds"]
        assert checks.check_tensor_level_weight(d, 4)["holds"]
        r = checks.check_flexible_level_weight(d)
        assert r is None or r["holds"]


def test_instance_memo_matches_rebuilding_every_quantity(monkeypatch):
    """Criterion 3 and 4 rows with the per-instance memo equal the rows
    with every derived function and audit rebuilt at each use."""
    scheme_corpus, group_set_corpus = spectra.scheme_corpus, spectra.group_set_corpus
    # four Boolean instances (one umvirate-adversarial) and two degree ones per domain
    monkeypatch.setattr(spectra, "scheme_corpus", lambda ctx, rng, nb, nd: scheme_corpus(ctx, rng, 4, 2))
    monkeypatch.setattr(spectra, "group_set_corpus", lambda g, rng, n: group_set_corpus(g, rng, 6))

    def rows():
        return spectra.equivalence_suite(), spectra.scheme_inequality_suite(), spectra.group_inequality_suite()

    memo = rows()
    monkeypatch.setattr(spectra._InstanceChecks, "memo", lambda self, key, build: build())
    assert rows() == memo
    assert all(memo)


def test_group_suite_parts_draw_from_generators_of_their_own(monkeypatch):
    # one more value drawn ahead of SL_2(F_3)'s Bonami functions redraws
    # those rows alone: its set rows and every later group's rows stay ==
    group_set_corpus, bonami = spectra.group_set_corpus, spectra.bonami_isotypic_rows
    monkeypatch.setattr(spectra, "group_set_corpus", lambda g, rng, n: group_set_corpus(g, rng, 3))
    before = spectra.group_inequality_suite()
    first = get_group("sl", 2, 3)

    def shifted(group, rng):
        if group is first:
            rng.standard_normal()
        return bonami(group, rng)

    monkeypatch.setattr(spectra, "bonami_isotypic_rows", shifted)
    after = spectra.group_inequality_suite()
    assert [row["instance"] for row in after] == [row["instance"] for row in before]
    changed = {row["instance"] for row, old in zip(after, before) if row != old}
    assert changed and all(name.startswith(f"{first!r}:iso(") for name in changed)


def _scheme_rows(checks, family):
    """The criterion-3 (equivalence) or criterion-4 (inequality) rows of one
    instance, in the order the suites run them."""
    rows = []
    for d in range(1, checks.dmax + 1):
        if family == 3:
            rows.append(checks.check_globalness_implies_small_influences(d))
            rows += [checks.check_small_influences_imply_globalness(d, r) for r in range(d, min(checks.rmax, 3) + 1)]
            rows.append(checks.check_square_globalness(d))
            rows += [checks.check_derivative_globalness_composite(d, r) for r in range(1, min(checks.rmax, 3) + 1)]
        else:
            rows += [checks.check_four_norm(d), checks.check_level_weight_flexible(d)]
            for ell in (4, 8):
                rows += [checks.check_ell_norm(d, ell), checks.check_level_weight(d, ell),
                         checks.check_level_weight_from_pure_audit(d, ell), checks.check_influence_level_weight(d, ell),
                         checks.check_lp_global_influences(d, ell)]
    if family == 3:
        rows += [checks.check_averaging_preserves_globalness(r) for r in range(1, min(checks.rmax, 2) + 1)]
    return rows


def _assert_rows_close(got, want):
    """Criterion rows with the same keys, fields and verdicts; lhs and rhs
    agree by _close, and the margins within 1e-12 of the larger side."""
    assert (got is None) == (want is None)
    if got is None:
        return
    rounded = ("lhs", "rhs", "margin")
    assert {k: v for k, v in got.items() if k not in rounded} == {k: v for k, v in want.items() if k not in rounded}
    assert got.keys() == want.keys() and _close(got["lhs"], want["lhs"]) and _close(got["rhs"], want["rhs"]), (got, want)
    scale = max(abs(want["lhs"]), abs(want["rhs"]))
    assert got["margin"] == want["margin"] or abs(got["margin"] - want["margin"]) <= 1e-12 * scale, (got, want)


def _assert_influence_rows_close(got, want, scale):
    """Influence report rows of one part: order, threshold and verdict equal;
    the value within 1e-12 max(|ref|, scale), scale = ||f||_2^2 of the
    instance; the witness equal wherever the reference value exceeds
    1e-12 scale (below that, ties in rounding noise may pick another coset)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.order, g.threshold, g.passed) == (w.order, w.threshold, w.passed)
        assert abs(g.value - w.value) <= 1e-12 * max(abs(w.value), scale), (g, w)
        if w.value > 1e-12 * scale:
            assert g.witness == w.witness, (g, w)


@pytest.mark.parametrize("q, n, m", [(2, 2, 2), (3, 2, 2), (5, 2, 2), (2, 3, 3)])
def test_stacked_instance_checks_match_per_function_reference(q, n, m):
    """Stacked instance checks against the one-function-at-a-time path.  The
    parts, every global and L^{ell'} audit row, every E_U f and every
    refining max are equal bit for bit.  The influence audits and line
    Laplacians come from sums of transforms of f_hat's pure parts where the
    reference transforms each part, so they, and the criterion rows that
    read them, agree to rounding: rows by _assert_rows_close, influence rows
    by _assert_influence_rows_close, L_U f^{=d} within 1e-12
    max(max |ref|, ||f||_2)."""
    ctx = get_scheme(q, n, m)
    dirs = direction_subspaces(ctx)
    for name, f, _ in spectra.scheme_corpus(ctx, np.random.default_rng(q * n * m), 4, 2):
        scale = f.norm2sq()
        for family, dmax, rmax in ((3, min(3, n, m), 3), (4, 2, 2)):
            got, want = SchemeInstanceChecks(name, f, dmax, rmax), PerFunctionSchemeChecks(name, f, dmax, rmax)
            got_rows, want_rows = _scheme_rows(got, family), _scheme_rows(want, family)
            assert len(got_rows) == len(want_rows)
            for got_row, want_row in zip(got_rows, want_rows):
                _assert_rows_close(got_row, want_row)
            for key, g in got.functions.items():
                assert g.values.tobytes() == want.functions[key].values.tobytes()
                assert got._global(key).rows == per_function_global_audit(g, got.top).rows
                if key != "f":
                    _assert_influence_rows_close(got._influences(key).rows,
                                                 per_function_influence_audit(g, key[1]).rows, scale)
            for ellp in (4 / 3, 8 / 7):
                assert got._lp_global(ellp).rows == per_function_lp_global_audit(f, got.top, ellp).rows
            for d in range(1, got.dmax + 1):
                lines = want.line_laplacians(d)
                assert len(got._influence_stack()[1][d]) == len(lines)
                for lap, (_, _, ref) in zip(got._influence_stack()[1][d], lines):
                    assert np.max(np.abs(lap - ref)) <= 1e-12 * max(np.max(np.abs(ref)), np.sqrt(scale))
        averages = avg_for_directions(f, dirs)
        for (u, side), avg in zip(dirs, averages):
            ref = avg_for_direction_ref(f, u, side).tobytes()
            assert avg.values.tobytes() == ref and avg_for_direction(f, u, side).values.tobytes() == ref
        for order in range(n + m + 1):
            want = [max_refining_restriction_ref(avg, u, side, order) for avg, (u, side) in zip(averages, dirs)]
            assert refining_maxima(averages, dirs, order).tolist() == want


@pytest.mark.parametrize("q, n, m", [(2, 2, 2), (3, 2, 2)])
def test_criterion_3_instance_transforms_f_once(monkeypatch, q, n, m):
    # E_U f comes from the instance's f_hat: the criterion-3 rows transform f
    # once, and the averages equal avg_for_directions' own transform of f
    ctx = get_scheme(q, n, m)
    f = random_table(ctx, np.random.default_rng(q), "real")
    forward = SchemeCtx.fourier_forward
    transforms_of_f = []

    def counting(self, values):
        if self is ctx and np.asarray(values).tobytes() == f.values.tobytes():
            transforms_of_f.append(values)
        return forward(self, values)

    monkeypatch.setattr(SchemeCtx, "fourier_forward", counting)
    checks = SchemeInstanceChecks("f", f, 2, 3)
    assert any(row is not None for row in _scheme_rows(checks, 3))
    assert len(transforms_of_f) == 1
    monkeypatch.undo()
    for got, want in zip(checks.averages(), avg_for_directions(f, checks.directions), strict=True):
        assert got.values.tobytes() == want.values.tobytes()


def test_four_norm_row_reads_the_cumulative_influence_audit():
    # the row's epsilon is the influence audit of f^{<=d}, not of f^{=d}: with a
    # large mean, the order-0 row of f^{<=d} is the largest and f^{=d} lacks it
    ctx = get_scheme(3, 2, 2)
    f = ctx.table(4.0 + random_table(ctx, np.random.default_rng(8), "real").values)
    checks = SchemeInstanceChecks("f", f, 2, 2)
    for d in (1, 2):
        g = degree_project(f, d, "cumulative")
        ref = per_site_influence_audit(g, d)
        _assert_influence_rows_close(checks._influences(("cum", d)).rows, ref.rows, f.norm2sq())
        row = checks.check_four_norm(d)
        assert row["lhs"] == g.lp_power(4)
        assert _close(row["rhs"], float(ctx.q) ** (103 * d * d) * ref.max_upto(d) * g.norm2sq())


def test_influence_stack_splits_a_site_s_rows_within_the_element_bound(monkeypatch):
    # a bound of two rows splits each site's pure rows into chunks of one,
    # the running sum carried from chunk to chunk; every Laplacian batch
    # keeps the bound, and the audits agree with the unsplit ones
    import qharm.scheme as scheme

    ctx = get_scheme(2, 3, 3)
    f = random_table(ctx, np.random.default_rng(6), "complex")
    whole, whole_lines = SchemeInstanceChecks("f", f, 3, 3)._influence_stack()
    bound = 2 * ctx.size
    monkeypatch.setattr(scheme, "_BATCH_ELEMENTS", bound)
    sizes = []
    audits = spectra.laplacian_audits

    def recording(fs, orders, laplacians):
        def batches(d, live):
            for funcs, sites, laps in laplacians(d, live):
                sizes.append(laps.size)
                yield funcs, sites, laps
        return audits(fs, orders, batches)

    monkeypatch.setattr(spectra, "laplacian_audits", recording)
    split, lines = SchemeInstanceChecks("f", f, 3, 3)._influence_stack()
    assert max(sizes) == bound
    for key, report in split.items():
        _assert_influence_rows_close(report.rows, whole[key].rows, f.norm2sq())
    for d, lap in lines.items():
        assert lap.tobytes() == whole_lines[d].tobytes()


@pytest.mark.parametrize("q, n, m", [(3, 2, 2), (2, 3, 3)])
def test_order_0_influence_rows_are_the_parts_squared_norms(q, n, m):
    # the order-0 Laplacian is the identity, so each part's order-0 row is
    # read off the part's own values
    ctx = get_scheme(q, n, m)
    for name, f, _ in spectra.scheme_corpus(ctx, np.random.default_rng(4), 2, 2):
        checks = SchemeInstanceChecks(name, f, 3, 3)
        for key in checks.part_names:
            row = checks._influences(key).rows[0]
            assert (row.order, row.value) == (0, checks.functions[key].norm2sq())


def test_influence_level_weight_refuses_an_audit_below_the_squared_norm(monkeypatch):
    # beta >= 1 holds because the order-0 influence row is ||f^{=d}||^2; an
    # audit that breaks it raises, also under python -O
    ctx = get_scheme(2, 2, 2)
    checks = SchemeInstanceChecks("f", random_table(ctx, np.random.default_rng(5), "real"), 2, 2)
    assert checks.check_influence_level_weight(1, 4)["holds"]
    low = GlobalnessReport("influence", [ReportRow(0, 0.0, "", 0.0, True)])
    monkeypatch.setattr(SchemeInstanceChecks, "_influences", lambda self, key: low)
    with pytest.raises(ConsistencyError, match="beta"):
        checks.check_influence_level_weight(1, 4)


@pytest.mark.parametrize("key", [("sl", 2, 3), ("sl", 3, 2), ("gl", 2, 2)])
def test_tensor_level_check_reads_the_strict_levels_inside_sl(key):
    # every determinant is 1, so the tensor-rank levels are the strict ones
    g = get_group(*key)
    checks = GroupInstanceChecks("inst", g.indicator(np.arange(0, g.size, 3)), 1)
    strict = checks.check_strict_level_weight(1, 4)
    tensor = checks.check_tensor_level_weight(1, 4)
    assert tensor["lhs"] == strict["lhs"] == level_project(checks.f, 1).norm2sq()


@pytest.mark.parametrize("key", [("sl", 2, 3), ("sl", 3, 2)])
def test_group_checks_audit_jf_as_one_stack_equal_to_one_audit_each(key):
    # the L^2 mass and both L^{ell'} audits of jf come from one stack
    g = get_group(*key)
    checks = GroupInstanceChecks("inst", g.indicator(np.arange(0, g.size, 3)), 2)
    assert checks._global().rows == per_function_global_audit(checks.jf, checks.top).rows
    for ellp in (4 / 3, 8 / 7):
        assert checks._lp_global(ellp).rows == per_function_lp_global_audit(checks.jf, checks.top, ellp).rows


def test_tensor_level_check_refuses_a_determinant_other_than_1():
    g = get_group("gl", 2, 3)
    checks = GroupInstanceChecks("inst", g.indicator(np.arange(0, g.size, 3)), 1)
    with pytest.raises(ToolkitError, match="determinant != 1"):
        checks.check_tensor_level_weight(1, 4)


def test_bonami_isotypic_small_group():
    g = get_group("sl", 2, 2)
    rows = bonami_isotypic_rows(g, RNG)
    assert rows and not violations(rows)


@pytest.mark.parametrize("kind,n,q", [("sl", 2, 3), ("sl", 3, 2)])
def test_bonami_draws_lie_in_their_isotypic_components(kind, n, q, monkeypatch):
    # each row pair's function is P_rho r for its own irreducible rho of
    # level d >= 1, in character-table order, two draws per component:
    # nonzero and fixed by P_rho
    g = get_group(kind, n, q)
    drawn = []
    monkeypatch.setattr(spectra, "transfer", lambda f: drawn.append(f) or transfer(f))
    rows = bonami_isotypic_rows(g, np.random.default_rng(5))
    components = [i for i, level in enumerate(get_characters(g).levels) if level >= 1]
    assert len(drawn) == 2 * len(components) == len(rows) // 2
    for i, f in zip(np.repeat(components, 2), drawn):
        assert f.norm2sq() > 1e-3
        assert np.max(np.abs(isotypic_projector(g, i)(f.values) - f.values)) < 1e-12


def test_empirical_convolution_exponent_reported():
    g = get_group("sl", 2, 3)
    f = g.indicator(np.arange(12))
    row = sarnak_xue_check(f, 1, c_report=0.05)
    assert np.isfinite(row.empirical_c) or row.norm < 1e-14
