"""Slow references for the fast paths of qharm, in one place.

Every faster path in src is trusted because a test compares it with a
slow reference on small inputs.  The references walk one index, element,
site or fill at a time with the scalar `fqlin.rref`, or count by brute
force; the parity tests import them from here.  Where the reference is
itself in src (the scalar `rref`, the naive character matrix, the
per-matrix `mat_mul`), src keeps it because src or the benchmark runs it.

Fast path (src/qharm)                 Oracle                         Comparing test (tests/)
-----------------------------------   ----------------------------   ------------------------------------------------------------
fqlin.rref, fqlin.rank                brute_force_rank               test_fqlin::test_rank_matches_brute_force_random
fqlin.batched_rank                    fqlin.rank, one matrix a call  test_fqlin::test_batched_rank_matches_scalar_rank
fqlin.mat_mul over leading axes       fqlin.mat_mul, one matrix      test_fqlin::test_batched_mat_mul_matches_per_matrix_product
IndexMap.linear_image (doubling)      fqlin.mat_mul, one matrix      test_fqlin::test_linear_image_matches_per_matrix_product
fqlin.inv_matrix                      inv_by_rref                    test_fqlin::test_inv_matrix_stack_matches_rref_reference
Subspace.vectors                      subspace_vectors_ref           test_fqlin::test_subspace_vectors_match_the_coefficient_loop
fqlin.complete_basis                  least_index_completion         test_fqlin::test_complete_basis_matches_the_candidate_loop_on_random_rows
fqlin.det (Leibniz)                   det_elimination                test_group_tables::test_det_matches_elimination_on_every_matrix
IndexMap.rank_table                   rank_table_ref                 test_batched_tables::test_rank_tables_match_scalar_loop
SchemeCtx._transform                  moveaxis_transform             test_scheme::test_transform_bit_identical_to_moveaxis_reference
SchemeCtx.fourier_forward             fourier_forward_naive (src)    test_scheme::test_fast_transform_matches_naive
SchemeCtx.fourier_inverse             fourier_inverse_naive          test_scheme::test_fast_transform_matches_naive
SchemeCtx.char_rows, char_matrix      char_value                     test_scheme::test_char_value_examples
SchemeCtx.char_restriction_table      char_restriction_dual_index    test_batched_tables::test_char_restriction_table_matches_scalar_map
SchemeCtx.restriction_embedding       restriction_embedding_ref      test_batched_tables::test_embeddings_and_cosets_match_scalar_loop
SchemeCtx.site_cosets                 site_cosets_ref                test_batched_tables::test_embeddings_and_cosets_match_scalar_loop
SchemeCtx.site_stacks                 site_cosets, one site a row    test_batched_tables::test_embeddings_and_cosets_match_scalar_loop
calculus.BvDistribution               bv_pairs_ref                   test_calculus::test_bv_distribution_support_size
scheme.dualize                        dualize_perm_ref               test_scheme::test_dualize_matches_the_per_element_transpose
calculus.laplacian_mask               laplacian_masks_ref            test_batched_tables::test_spectral_masks_match_scalar_loop
  (a view of its row of the one       its row of laplacian_masks     test_tracing_targets::test_laplacian_mask_is_a_view_of_its_order_stack
  laplacian_masks stack per order)
fqlin.Memo.memo (each table once)     a second call, compared by is  test_tracing_targets::test_builder_returns_its_table_again
calculus.quotient_mask                quotient_mask_ref              test_batched_tables::test_spectral_masks_match_scalar_loop
calculus.vector_avg_factors           vector_avg_factors_ref         test_batched_tables::test_spectral_masks_match_scalar_loop
calculus.dual_avg_factors             dual_avg_factors_ref           test_batched_tables::test_spectral_masks_match_scalar_loop
globality.global_audit                brute_force_global_audit       test_globality::test_global_audit_matches_brute_force
  (stacked coset means)               per_site_global_audit          test_globality::test_stacked_audits_match_per_site_oracles
globality.lp_global_audit             per_site_lp_global_audit       test_globality::test_stacked_audits_match_per_site_oracles
globality.max_refining_restriction    max_refining_restriction_ref   test_globality::test_stacked_audits_match_per_site_oracles
globality.influence_audit             per_site_influence_audit       test_globality::test_batched_influence_audit_matches_per_site_oracle
  (laplacian_batches)                 influence (the witness site)   test_globality::test_audit_witness_is_attained
globality.global_audits (stacked)     per_function_global_audit      test_spectra::test_stacked_instance_checks_match_per_function_reference
globality.lp_global_audit             per_function_lp_global_audit   test_spectra::test_stacked_instance_checks_match_per_function_reference
globality.laplacian_audits (stacked)  per_function_influence_audit   test_spectra::test_stacked_instance_checks_match_per_function_reference
globality.refining_maxima (stacked)   per_function_refining_max      test_spectra::test_stacked_instance_checks_match_per_function_reference
calculus.avg_for_directions           avg_for_direction_ref          test_spectra::test_stacked_instance_checks_match_per_function_reference
spectra.SchemeInstanceChecks (stacks) PerFunctionSchemeChecks        test_spectra::test_stacked_instance_checks_match_per_function_reference
globality.set_global_audit            reference_set_global_audit     test_set_audit_parity::test_set_audit_equals_dense_reference
  (witnesses memoized per cell)       reference_set_global_audit     test_set_audit_parity::test_back_to_back_audits_keep_their_own_witnesses
                                      brute_force_set_ratios         test_globality::test_set_audit_matches_counting_oracle
                                      dictator_ratio                 test_set_audit_parity::test_set_audit_witnesses_recount_on_gl2_f7
globality.good_umvirate_partition     reference_partition            test_partition_parity::test_batched_partition_matches_scalar_reference
globality.block_subgroup_members      block_subgroup_ref             test_group_tables::test_block_subgroups_match_member_loop
globality._block_restriction          block_restriction_ref          test_group_tables::test_block_restriction_matches_member_loop
GroupTable elements, dets, inv, ...   element_tables_ref             test_group_tables::test_element_tables_match_per_element_loops
GroupTable.vector_action              vector_action_ref              test_group_tables::test_element_tables_match_per_element_loops
GroupTable.mul_table                  mul_row_ref                    test_group_tables::test_mul_table_matches_row_loop
groups.DictatorSystems                dictator_family_ref, cells_ref test_group_tables::test_dictator_systems_match_target_loop
groups.build_level_basis              reference_levels               test_level_tables::test_levels_match_generator_stream_reference
groups.convolve                       brute_convolution              test_groups::test_convolution_identities_and_oracle
  (one gather per mixing run)         mixing_terms_ref               test_spectra::test_mixing_terms_match_one_convolution_per_term
spectra.sarnak_xue_check              sarnak_xue_ref (two matrices)  test_spectra::test_sarnak_xue_matches_two_matrix_reference
  (one rho_hat(f) per irreducible)    (SVDs of conv_operator_matrix)
groups.get_irreducibles               mul_table, isotypic_blocks     test_groups::test_irreducible_tables_are_unitary_homomorphisms
bogolyubov.product_set (mask)         brute_product                  test_bogolyubov::test_product_set_matches_double_loop
cli.read_function_csv (numpy parser)  read_function_csv_ref          test_cli::test_function_csv_reader_matches_per_line_reference
  (2-column files)                    read_function_csv_ref          test_cli::test_two_column_function_csv_takes_the_numpy_path
                                      read_function_csv_ref          test_cli::test_function_csv_reader_matches_reference_on_random_text
cli.write_function_csv (row blocks)   write_function_csv_ref         test_cli::test_function_csv_writer_is_byte_identical_to_reference

`python tests/mutations.py` breaks one fast path at a time and checks
that its comparing test fails.
"""

import itertools

import numpy as np

from qharm.calculus import derivative, direction_subspaces, dual_avg_factors, laplacian, laplacian_mask, vector_avg_factors
from qharm.errors import InputFormatError, ToolkitError
from qharm.fqlin import decode_vector, det, encode_vector, enumerate_subspaces, kernel_basis, mat_mul, rank, rref
from qharm.gf import get_field
from qharm.globality import (
    DEFAULT_ZETA,
    GlobalnessReport,
    ReportRow,
    SetAuditResult,
    Umvirate,
    _rank_factor,
    umvirate_normal_form,
)
from qharm.groups import _GramSchmidtRows, convolve, convolve_batch, get_group, get_isotypic, get_levels, level_project_eq
from qharm.scheme import FnTable, degree_decompose, degree_project, get_scheme, restrict
from qharm.spectra import OperatorNormRow, SchemeInstanceChecks


# ---------------------------------------------------------------------------
# F_q linear algebra
# ---------------------------------------------------------------------------

def brute_force_rank(ctx, a):
    """Dimension of the row span, counted by enumerating all row combinations."""
    rows = a.shape[0]
    q = ctx.q
    seen = set()
    for coeffs in range(q**rows):
        v = np.zeros(a.shape[1], dtype=np.uint8)
        x = coeffs
        for r in range(rows):
            c = x % q
            x //= q
            v = ctx.add_table[v, ctx.mul_table[a[r], c]]
        seen.add(v.tobytes())
    span_size = len(seen)
    d = 0
    while q**d < span_size:
        d += 1
    return d


def subspace_vectors_ref(ctx, sub):
    """The q^dim member vectors of sub, row i the combination of the basis
    rows with the base-q digits of i as coefficients, by scalar loops."""
    q = ctx.q
    out = np.zeros((q**sub.dim, sub.ambient), dtype=np.uint8)
    for i in range(q**sub.dim):
        for j, row in enumerate(sub.basis):
            out[i] = ctx.add_table[out[i], ctx.mul_table[row, (i // q**j) % q]]
    return out


def inv_by_rref(ctx, a):
    """The scalar inverse: rref of [A | I]."""
    n = a.shape[0]
    r, pivots = rref(ctx, np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1))
    if pivots[:n] != list(range(n)):
        raise ToolkitError("matrix is singular")
    return r[:, n:]


def least_index_completion(ctx, rows, n):
    """Complete rows to a basis by testing the vectors of index 1, 2, ... one at a time."""
    basis = [np.asarray(row, dtype=np.uint8) for row in rows]
    idx = 1
    while len(basis) < n:
        v = decode_vector(idx, n, ctx.q)
        if rank(ctx, np.array(basis + [v], dtype=np.uint8)) == len(basis) + 1:
            basis.append(v)
        idx += 1
    return np.array(basis, dtype=np.uint8).reshape(n, n)


def det_elimination(ctx, a):
    """Determinant of one matrix over F_q by elimination."""
    m = np.array(a, dtype=np.uint8)
    n = m.shape[0]
    d = 1
    for col in range(n):
        found = -1
        for row in range(col, n):
            if m[row, col]:
                found = row
                break
        if found < 0:
            return 0
        if found != col:
            m[[col, found]] = m[[found, col]]
            d = ctx.neg(d)
        piv = int(m[col, col])
        d = ctx.mul(d, piv)
        piv_inv = ctx.inv(piv)
        m[col] = ctx.mul_table[m[col], piv_inv]
        for row in range(col + 1, n):
            if m[row, col]:
                m[row] = ctx.add_table[m[row], ctx.mul_table[m[col], ctx.neg(int(m[row, col]))]]
    return d


def _independent_tuples(field, n, vecs, size):
    """Ordered tuples of encoded vectors with linearly independent decodes,
    in lexicographic order."""
    q = field.q
    out = []

    def extend(prefix, rows):
        if len(prefix) == size:
            out.append(prefix)
            return
        for enc in vecs:
            if enc in prefix:
                continue
            v = decode_vector(enc, n, q)
            stacked = np.array(rows + [v], dtype=np.uint8)
            if rank(field, stacked) == len(rows) + 1:
                extend(prefix + (enc,), rows + [v])

    extend((), [])
    return out


# ---------------------------------------------------------------------------
# the scheme L(V, W): characters, transforms, per-index tables
# ---------------------------------------------------------------------------

def char_value(ctx, x, a):
    """u_X(A) = phi(tr(X A)) by the scalar trace loop; X is (n, m), A is (m, n)."""
    x = np.asarray(x, dtype=np.uint8)
    a = np.asarray(a, dtype=np.uint8)
    if x.shape != (ctx.n, ctx.m) or a.shape != (ctx.m, ctx.n):
        raise ToolkitError(f"shape mismatch: X{x.shape} A{a.shape} on {ctx!r}")
    f = ctx.field
    acc = 0
    for i in range(ctx.n):
        for j in range(ctx.m):
            acc = f.add(acc, f.mul(int(x[i, j]), int(a[j, i])))
    return complex(f.char_table[acc])


def fourier_inverse_naive(ctx, coeffs):
    """Inverse transform as a product with the full character matrix."""
    return np.asarray(coeffs, dtype=np.complex128) @ ctx.char_matrix()


def moveaxis_transform(ctx, values, kernel, perm):
    """The q-point kernel applied axis by axis via np.moveaxis."""
    values = np.asarray(values, dtype=np.complex128)
    batch = values.shape[:-1]
    nb = len(batch)
    t = values.reshape(batch + (ctx.q,) * ctx.k)
    for ax in range(nb, nb + ctx.k):
        t = np.moveaxis(np.moveaxis(t, ax, -1) @ kernel.T, -1, ax)
    t = np.transpose(t, tuple(range(nb)) + tuple(nb + perm))
    return t.reshape(batch + (ctx.size,))


def char_restriction_dual_index(ctx, vp, wp, x_index):
    """Dual index of Y = Q X Cw^T in the restricted scheme, for one X."""
    sub, _ = ctx.restriction_embedding(vp, wp)
    frame = ctx.quotient_frame(vp)
    x = ctx.dual_index.to_matrix(x_index)
    y = mat_mul(ctx.field, mat_mul(ctx.field, frame.quotient_map, x), wp.basis.T.copy())
    return sub.dual_index.to_index(y)


def bv_pairs_ref(ctx, v):
    """The (w, phi) pairs of B_v, w outer and phi inner, each in index order,
    and the domain index of each map w (x) phi, by scalar dot products."""
    field = ctx.field
    phis = []
    for idx in range(ctx.q**ctx.n):
        phi = decode_vector(idx, ctx.n, ctx.q)
        acc = 0
        for a, b in zip(phi, v):
            acc = field.add(acc, field.mul(int(a), int(b)))
        if acc == 1:
            phis.append(phi)
    pairs = [(decode_vector(w, ctx.m, ctx.q), phi) for w in range(ctx.q**ctx.m) for phi in phis]
    return pairs, [ctx.domain_index.to_index(field.mul_table[w[:, None], phi[None, :]]) for w, phi in pairs]


def dualize_perm_ref(ctx):
    """Entry idx: the index in ctx of B^T, B the matrix of index idx in the dual scheme."""
    dual = get_scheme(ctx.q, ctx.m, ctx.n)
    return np.array([ctx.domain_index.to_index(dual.domain_index.to_matrix(idx).T.copy())
                     for idx in range(dual.size)])


def _image_row_basis(ctx, x):
    r, piv = rref(ctx.field, x.T.copy())
    return r[: len(piv)]


def rank_table_ref(index_map):
    return np.array([rank(index_map.ctx, index_map.to_matrix(i)) for i in range(index_map.size)], dtype=np.int8)


def laplacian_masks_ref(ctx, ranks, v1, w1s):
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


def quotient_mask_ref(ctx, vp):
    mask = np.zeros(ctx.size, dtype=bool)
    for xi in range(ctx.size):
        img = _image_row_basis(ctx, ctx.dual_index.to_matrix(xi))
        if img.shape[0] == 0:
            mask[xi] = True
        elif vp.dim:
            mask[xi] = rank(ctx.field, np.concatenate([vp.basis, img])) == vp.dim
    return mask


def vector_avg_factors_ref(ctx, ranks, v):
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


def dual_avg_factors_ref(ctx, ranks, wp):
    fac = np.zeros(ctx.size, dtype=np.float64)
    for xi in range(ctx.size):
        ker = kernel_basis(ctx.field, ctx.dual_index.to_matrix(xi))
        stacked = np.concatenate([wp.basis, ker]) if ker.shape[0] else wp.basis
        if rank(ctx.field, stacked) == ctx.m:
            fac[xi] = float(ctx.q) ** (-int(ranks[xi]))
    return fac


def restriction_embedding_ref(ctx, vp, wp):
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


def site_cosets_ref(ctx, emb):
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


# ---------------------------------------------------------------------------
# scheme audits
# ---------------------------------------------------------------------------

def brute_force_global_audit(f, dmax):
    """Max restriction mass per order, enumerating every (V', W', all T) via restrict()."""
    ctx = f.domain
    out = {}
    for d in range(dmax + 1):
        best = -1.0
        for vp, wp in ctx.restriction_pairs(d):
            for t in range(ctx.size):
                r = restrict(f, vp, wp, t)
                best = max(best, r.norm2sq())
        out[d] = best
    return out


def influence(f, site):
    """Generalized influence at one site: squared 2-norm of the derivative."""
    return derivative(f, site).norm2sq()


def per_site_audit_rows(f, dmax, order_values, zeta, kind):
    """A scheme audit report scanned one site at a time.

    order_values(d) yields (coset reps, value per rep) for each pair of
    restriction_pairs(d), in that order; the row keeps the first site max
    that beats every earlier one by more than 1e-15.
    """
    ctx = f.domain
    base = f.norm2sq()
    rows = []
    for d in range(dmax + 1):
        best = -1.0
        witness = ""
        pairs = ctx.restriction_pairs(d)
        for pair_idx, ((vp, wp), (reps, vals)) in enumerate(zip(pairs, order_values(d), strict=True)):
            j = int(np.argmax(vals))
            if vals[j] > best + 1e-15:
                best = float(vals[j])
                witness = f"site#{pair_idx}(dimV'={vp.dim},dimW'={wp.dim})@T={int(reps[j])}"
        thr = float("inf") if zeta is None else float(ctx.q) ** (zeta * d * ctx.n) * base
        rows.append(ReportRow(d, best, witness, thr, bool(best <= thr + 1e-12)))
    return GlobalnessReport(kind, rows)


def coset_means(ctx, values):
    """order_values of the coset means of `values`, one np.mean per site."""

    def order_values(d):
        for vp, wp in ctx.restriction_pairs(d):
            reps, members = ctx.site_cosets(vp, wp)
            yield reps, np.mean(values[members], axis=1)

    return order_values


def per_site_global_audit(f, dmax, zeta=DEFAULT_ZETA):
    return per_site_audit_rows(f, dmax, coset_means(f.domain, np.abs(f.values) ** 2), zeta, "restriction-norm2")


def per_site_lp_global_audit(f, rmax, ellp):
    means = coset_means(f.domain, np.abs(f.values) ** ellp)

    def order_values(d):
        for reps, vals in means(d):
            yield reps, vals ** (1.0 / ellp)

    return per_site_audit_rows(f, rmax, order_values, None, f"restriction-L{ellp}")


def influence_per_rep(f, v1, w1):
    """(coset reps, influence at each rep) for all distinct T at a site."""
    ctx = f.domain
    lap = laplacian(f, v1, w1)
    reps, members = ctx.site_cosets(v1, w1)
    return reps, np.mean(np.abs(lap.values[members]) ** 2, axis=1)


def per_site_influence_audit(f, dmax, zeta=DEFAULT_ZETA):
    """The influence audit from influence_per_rep at each site."""
    ctx = f.domain

    def order_values(d):
        for vp, wp in ctx.restriction_pairs(d):
            yield influence_per_rep(f, vp, wp)

    return per_site_audit_rows(f, dmax, order_values, zeta, "influence")


def max_refining_restriction_ref(f, u, side, order):
    """Max restriction mass over the order-`order` sites with V' >= U (side
    'v') or W' <= U (side 'w'), one site at a time; -1.0 when none refines U."""
    ctx = f.domain
    ab = np.abs(f.values) ** 2
    best = -1.0
    for vp, wp in ctx.restriction_pairs(order):
        if vp.contains(ctx.field, u) if side == "v" else u.contains(ctx.field, wp):
            _, members = ctx.site_cosets(vp, wp)
            best = max(best, float(np.max(np.mean(ab[members], axis=1))))
    return best


# ---------------------------------------------------------------------------
# one function and one direction at a time: the path of the scheme instance
# checks before they were stacked
# ---------------------------------------------------------------------------

def per_function_audit_rows(f, dmax, order_chunks, zeta, kind):
    """An audit of one function.  order_chunks(d) yields (positions, members,
    values) per stack of site_stacks(d), values (S, R) the value at each
    coset; the row rule is the one of per_site_audit_rows."""
    ctx = f.domain
    base = f.norm2sq()
    rows = []
    for d in range(dmax + 1):
        pairs = ctx.restriction_pairs(d)
        maxima = np.empty(len(pairs))
        reps = np.empty(len(pairs), dtype=np.int64)
        for positions, members, values in order_chunks(d):
            sites = np.arange(len(positions))
            j = np.argmax(values, axis=1)
            maxima[positions] = values[sites, j]
            reps[positions] = members[sites, j, 0]
        best = -1.0
        at = None
        for pair_idx, value in enumerate(maxima.tolist()):
            if value > best + 1e-15:
                best = value
                at = pair_idx
        witness = "" if at is None else f"site#{at}(dimV'={pairs[at][0].dim},dimW'={pairs[at][1].dim})@T={int(reps[at])}"
        thr = float("inf") if zeta is None else float(ctx.q) ** (zeta * d * ctx.n) * base
        rows.append(ReportRow(d, best, witness, thr, bool(best <= thr + 1e-12)))
    return GlobalnessReport(kind, rows)


def per_function_coset_means(ctx, values, exponent=1.0):
    """order_chunks of the coset means of one function's `values`, each raised
    to `exponent`: one gather and mean per stack."""

    def order_chunks(d):
        for stack in ctx.site_stacks(d):
            yield stack.positions, stack.members, np.mean(values[stack.members], axis=-1) ** exponent

    return order_chunks


def per_function_global_audit(f, dmax, zeta=DEFAULT_ZETA):
    means = per_function_coset_means(f.domain, np.abs(f.values) ** 2)
    return per_function_audit_rows(f, dmax, means, zeta, "restriction-norm2")


def per_function_lp_global_audit(f, rmax, ellp):
    means = per_function_coset_means(f.domain, np.abs(f.values) ** ellp, 1.0 / ellp)
    return per_function_audit_rows(f, rmax, means, None, f"restriction-L{ellp}")


def per_function_site_laplacians(ctx, spectrum, order):
    """((V', W'), L_{V',W'} f) for each pair of restriction_pairs(order), from
    one batched inverse of the spectrum of f under every mask of the order."""
    pairs = ctx.restriction_pairs(order)
    if not pairs:
        return []
    laps = ctx.fourier_inverse(spectrum * np.stack([laplacian_mask(ctx, vp, wp) for vp, wp in pairs]))
    return list(zip(pairs, laps))


def per_function_influence_audit(f, dmax, zeta=DEFAULT_ZETA):
    """f transformed once; per order, its Laplacians at every site and one
    gather and mean per stack."""
    ctx = f.domain
    spectrum = ctx.fourier_forward(f.values)

    def order_chunks(d):
        laps = np.array([lap for _, lap in per_function_site_laplacians(ctx, spectrum, d)])
        for stack in ctx.site_stacks(d):
            yield stack.positions, stack.members, np.mean(
                np.abs(laps[stack.positions[:, None, None], stack.members]) ** 2, axis=-1)

    return per_function_audit_rows(f, dmax, order_chunks, zeta, "influence")


def per_function_refining_max(f, u, side, order):
    """Max restriction mass of one function over the order-`order` sites
    refining U, per stack through SchemeCtx.refining_rows; -1.0 when none does."""
    ctx = f.domain
    ab = np.abs(f.values) ** 2
    best = -1.0
    for stack, rows in zip(ctx.site_stacks(order), ctx.refining_rows(u, side, order)):
        if rows.size:
            best = max(best, float(np.max(np.mean(ab[stack.members[rows]], axis=-1))))
    return best


def avg_for_direction_ref(f, u, side):
    """The spectral form of E_U f for one direction, from its own forward transform."""
    ctx = f.domain
    factors = vector_avg_factors(ctx, u.basis[0]) if side == "v" else dual_avg_factors(ctx, u)
    return ctx.fourier_inverse(ctx.fourier_forward(f.values) * factors)


class PerFunctionSchemeChecks(SchemeInstanceChecks):
    """SchemeInstanceChecks with every part, audit, average and refining max
    built for one function and one direction at a time: f^{=d} from
    degree_decompose, f^{<=d} from degree_project, E_U f one direction a
    call, and L_U f^{=d} from a forward transform of f^{=d}."""

    def __init__(self, name, f, dmax, rmax):
        super().__init__(name, f, dmax, rmax)
        parts = degree_decompose(f)
        self.functions = {"f": f}
        for d in range(1, self.dmax + 1):
            self.functions[("pure", d)] = parts[d]
            self.functions[("cum", d)] = degree_project(f, d, "cumulative")

    def _global(self, key):
        return self.memo(("global", key), lambda: per_function_global_audit(self.functions[key], self.top))

    def _lp_global(self, key, g, ellp):
        return self.memo(("lp", key, ellp), lambda: per_function_lp_global_audit(g, self.top, ellp))

    def _square_global(self, d):
        g = self.cum(d)
        return per_function_global_audit(FnTable(self.ctx, g.values * g.values), 2 * d)

    def _influences(self, key):
        return self.memo(("influence", key), lambda: per_function_influence_audit(self.functions[key], key[1]))

    def line_laplacians(self, d):
        """(U, side, L_U f^{=d}) for the direction of each order-1 site."""
        ctx = self.ctx
        return [(vp, "v", lap) if vp.dim == 1 else (wp, "w", lap)
                for (vp, wp), lap in per_function_site_laplacians(ctx, ctx.fourier_forward(self.pure(d).values), 1)]

    def _averaged_refining_max(self, order):
        worst = -1.0
        for u, side in direction_subspaces(self.ctx):
            ef = FnTable(self.ctx, avg_for_direction_ref(self.f, u, side))
            worst = max(worst, per_function_refining_max(ef, u, side, order))
        return worst

    def _line_refining_max(self, d, order):
        eps1 = 0.0
        for u, side, lap in self.line_laplacians(d):
            eps1 = max(eps1, per_function_refining_max(FnTable(self.ctx, lap), u, side, order))
        return eps1


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------

def element_tables_ref(kind, n, q):
    """elements, dets, pos, mats, inv and identity, one matrix at a time."""
    field = get_field(q)
    di = get_scheme(q, n, n).domain_index
    dets = np.empty(di.size, dtype=np.uint8)
    for i in range(di.size):
        dets[i] = det_elimination(field, di.to_matrix(i))
    keep = dets == 1 if kind == "sl" else dets != 0
    elements = np.flatnonzero(keep).astype(np.int64)
    pos = np.full(di.size, -1, dtype=np.int64)
    pos[elements] = np.arange(elements.size)
    mats = np.stack([di.to_matrix(i) for i in elements])
    inv = np.array([pos[di.to_index(inv_by_rref(field, m))] for m in mats], dtype=np.int64)
    identity = int(pos[di.to_index(np.eye(n, dtype=np.uint8))])
    return {"elements": elements, "dets": dets[elements], "pos": pos, "mats": mats, "inv": inv}, identity


def mul_row_ref(group, i):
    """Ordinals of mats[i] @ mats[j] for all j."""
    f, n = group.field, group.n
    a = group.mats[i]
    out = np.zeros((group.size, n, n), dtype=np.uint8)
    for r in range(n):
        for k in range(n):
            out[:, r, :] = f.add_table[out[:, r, :], f.mul_table[a[r, k], group.mats[:, k, :]]]
    flat = out.reshape(group.size, n * n).astype(np.int64)
    return group.pos[flat @ group.scheme.domain_index.powers]


def vector_action_ref(group, transpose):
    """Encodings of g v (or g^T v), one vector index at a time."""
    f, n, q = group.field, group.n, group.q
    mats = np.transpose(group.mats, (0, 2, 1)) if transpose else group.mats
    out = np.empty((group.size, q**n), dtype=np.int64)
    for vi in range(q**n):
        v = decode_vector(vi, n, q)
        res = np.zeros((group.size, n), dtype=np.uint8)
        for k in range(n):
            res = f.add_table[res, f.mul_table[mats[:, :, k], v[k]]]
        out[:, vi] = res.astype(np.int64) @ (q ** np.arange(n, dtype=np.int64))
    return out


def dictator_family_ref(group, action):
    """Systems, masks and orders by the loop over every independent target
    tuple of every subspace, dropping the tuples no element meets."""
    nonzero = list(range(1, group.q**group.n))
    systems, masks, orders = [()], [np.ones(group.size, dtype=bool)], [0]
    for a in range(1, group.n + 1):
        targets = _independent_tuples(group.field, group.n, nonzero, a)
        for sub in enumerate_subspaces(group.field, group.n, a):
            v_encs = [encode_vector(row, group.q) for row in sub.basis]
            acts = action[:, v_encs]
            for us in targets:
                mask = np.all(acts == np.array(us)[None, :], axis=1)
                if mask.any():
                    systems.append(tuple(zip(v_encs, us)))
                    masks.append(mask)
                    orders.append(a)
    return systems, np.array(masks, dtype=np.uint8), np.array(orders, dtype=np.int64)


def cells_ref(group, row_masks, func_masks, row_orders, func_orders):
    """The flat cells of each element, then the nonempty cells and their
    sizes per order, from the masks' incidences."""
    rows_of = np.nonzero(row_masks.T)[1].reshape(group.size, -1)
    funcs_of = np.nonzero(func_masks.T)[1].reshape(group.size, -1)
    width = func_masks.shape[0]
    flat = (rows_of[:, :, None] * width + funcs_of[:, None, :]).reshape(group.size, -1)
    cells, sizes = np.unique(flat, return_counts=True)
    orders = row_orders[cells // width] + func_orders[cells % width]
    return (flat, [cells[orders == d] for d in range(2 * group.n + 1)],
            [sizes[orders == d] for d in range(2 * group.n + 1)])


def block_subgroup_ref(group, k):
    """Ordinals of diag(I_k, X), one X in SL_{n-k} at a time."""
    n = group.n
    if k == n:
        return np.array([group.identity], dtype=np.int64)
    mats = get_group("sl", n - k, group.q).mats if n - k >= 2 else [np.eye(n - k, dtype=np.uint8)]
    out = []
    for x in mats:
        m = np.eye(n, dtype=np.uint8)
        m[k:, k:] = x
        out.append(group.pos[group.scheme.domain_index.to_index(m)])
    return np.array(sorted(out), dtype=np.int64)


def block_restriction_ref(group, in_set, g, h, k):
    """The X in SL_{n-k} with g diag(I_k, X) h in the set, one X at a time."""
    sub = get_group("sl", group.n - k, group.q)
    out = []
    for xo in range(sub.size):
        m = np.eye(group.n, dtype=np.uint8)
        m[k:, k:] = sub.mats[xo]
        prod = mat_mul(group.field, mat_mul(group.field, g, m), h)
        if in_set[group.pos[group.scheme.domain_index.to_index(prod)]]:
            out.append(xo)
    return np.array(out, dtype=np.int64)


def brute_convolution(group, a, b):
    """(1_A * 1_B)(x) = |{(z, y) in A x B : z y = x}| / |G| by a double loop."""
    m = group.mul_table()
    out = np.zeros(group.size)
    for z in a:
        for y in b:
            out[m[z, y]] += 1
    return out / group.size


def brute_product(group, a, b):
    """The product set {x y : x in A, y in B} by a double loop, as a Python set."""
    m = group.mul_table()
    return {int(m[x, y]) for x in a for y in b}


# ---------------------------------------------------------------------------
# convolution operators and mixing
# ---------------------------------------------------------------------------

def conv_operator_matrix(f, d):
    """Matrix of T_f on the orthonormal Gram-Schmidt basis of V_{=d}, from
    one convolution per basis row: [i, j] = <f*b_j, b_i>."""
    group = f.domain
    b = get_levels(group).eq_basis(d)
    if b.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    convs = convolve_batch(f.values, b, group)  # rows: f * b_i
    return b.conj() @ convs.T / group.size


def sarnak_xue_ref(f, d, c_report=0.05):
    """The Sarnak-Xue row from two |V_{=d}| x |V_{=d}| operator matrices:
    the trace side from the matrix of T_{f_{=d}} on V_{=d}, the norm from
    the SVD of that of T_f."""
    group = f.domain
    fd = level_project_eq(f, d)
    trace_matrix = float(np.sum(np.abs(conv_operator_matrix(fd, d)) ** 2))
    trace_direct = fd.norm2sq()
    m = conv_operator_matrix(f, d)
    norm = float(np.linalg.norm(m, 2)) if m.size else 0.0
    m_d = get_isotypic(group).m_d.get(d, 0)
    sx_bound = float(np.sqrt(trace_direct / m_d)) if m_d else float("inf")
    mean = abs(f.mean())
    target = float(group.q) ** (-c_report * d * group.n) * mean
    if norm > 1e-14 and mean > 1e-14 and d >= 1:
        emp_c = float(-np.log(norm / mean) / (np.log(group.q) * d * group.n))
    else:
        emp_c = float("inf")
    return OperatorNormRow(d, norm, trace_matrix, trace_direct, sx_bound, m_d,
                           bool(norm <= sx_bound + 1e-9), c_report, target, emp_c)


def mixing_terms_ref(group, a, b, c):
    """(||f*g_{=d}||_2, <f*g_{=d}, h_{=d}>) for d = 1..n, with f, g, h the
    indicators of A, B, C and one `convolve` call, so one kernel gather, per term."""
    f, g, h = (group.indicator(s) for s in (a, b, c))
    out = []
    for d in range(1, group.n + 1):
        conv = convolve(f, level_project_eq(g, d))
        out.append((float(np.sqrt(conv.norm2sq())), float(conv.inner(level_project_eq(h, d)).real)))
    return out


# ---------------------------------------------------------------------------
# tensor-rank levels
# ---------------------------------------------------------------------------

def _monic_vectors(field, n):
    """Encodings of one representative per projective class (first nonzero = 1)."""
    out = []
    for vi in range(1, field.q**n):
        v = decode_vector(vi, n, field.q)
        if v[np.flatnonzero(v)[0]] == 1:
            out.append(vi)
    return out


def level_generator_masks(group, d, include_dual=False):
    """Indicator rows of all canonical <= d-umvirate products: every sorted
    tuple of independent monic input vectors with every independent ordered
    target tuple, with the functional (transpose-action) masks as well when
    include_dual is set."""
    field, n, q = group.field, group.n, group.q
    monic = _monic_vectors(field, n)
    nonzero = list(range(1, q**n))
    rows = [np.ones(group.size, dtype=bool)]
    families = [group.vector_action(False)]
    if include_dual:
        families.append(group.vector_action(True))
    for s in range(1, d + 1):
        v_sets = [
            vs for vs in itertools.combinations(monic, s)
            if rank(field, np.array([decode_vector(v, n, q) for v in vs], dtype=np.uint8)) == s
        ]
        u_tuples = _independent_tuples(field, n, nonzero, s)
        for act in families:
            for vs in v_sets:
                sub_act = act[:, list(vs)]
                for us in u_tuples:
                    mask = np.all(sub_act == np.array(us)[None, :], axis=1)
                    if mask.any():
                        rows.append(mask)
    return np.array(rows, dtype=np.float64)


def reference_levels(group, dmax, include_dual=False):
    """(dims, basis) of the levels by Gram-Schmidt over the generator stream,
    re-walking all lower orders for each d."""
    rows = _GramSchmidtRows(group.size)
    dims = []
    prev_gens = 0
    for d in range(dmax + 1):
        gens = level_generator_masks(group, d, include_dual)
        for row in gens[prev_gens:]:
            rows.extend(row)
        prev_gens = gens.shape[0]
        dims.append(len(rows))
    return dims, rows.basis()


# ---------------------------------------------------------------------------
# set audits
# ---------------------------------------------------------------------------

def _system_masks(group, systems, transpose):
    """uint8 indicator rows of dictator systems, read off the vector action."""
    act = group.vector_action(transpose)
    return np.array([np.all(act[:, [v for v, _ in s]] == [u for _, u in s], axis=1) for s in systems], dtype=np.uint8)


def _system_umvirate(group, row_system, func_system):
    n, q = group.n, group.q
    row, func = ([(decode_vector(v, n, q), decode_vector(w, n, q)) for v, w in s] for s in (row_system, func_system))
    return Umvirate(group.field, n, row, func)


def reference_set_global_audit(group, ordinals, rmax=None, r=None, zeta=DEFAULT_ZETA):
    """The dense int64 set audit: every row x functional intersection size
    recounted by matrix products, violations re-sorted for the witness."""
    ordinals = np.asarray(ordinals, dtype=np.int64)
    if ordinals.size == 0:
        raise ToolkitError("set audit requires a nonempty set")
    tables = group.dictator_systems()
    rmax = 2 * group.n if rmax is None else rmax
    r = float(group.q) ** (zeta * group.n / 2) if r is None else r
    mu = ordinals.size / group.size

    amask = np.zeros(group.size, dtype=np.uint8)
    amask[ordinals] = 1
    rm, fm = _system_masks(group, tables.row_systems, False), _system_masks(group, tables.func_systems, True)
    u_counts = rm.astype(np.int64) @ fm.T.astype(np.int64)
    a_counts = (rm * amask[None, :]).astype(np.int64) @ fm.T.astype(np.int64)
    orders = tables.row_orders[:, None] + tables.func_orders[None, :]

    rows = []
    violations = []
    for d in range(rmax + 1):
        sel = (orders == d) & (u_counts > 0)
        if not sel.any():
            if d == 0:
                rows.append(ReportRow(0, 1.0, "G", r**0, True))
            continue
        ratios = np.zeros_like(u_counts, dtype=np.float64)
        ratios[sel] = (a_counts[sel] / u_counts[sel]) / mu
        flat = int(np.argmax(np.where(sel, ratios, -1.0)))
        i, j = divmod(flat, ratios.shape[1])
        best = float(ratios[i, j])
        thr = r**d
        u = _system_umvirate(group, tables.row_systems[i], tables.func_systems[j])
        rows.append(ReportRow(d, best, u.describe(), float(thr), bool(best <= thr + 1e-12)))
        if best > thr + 1e-12:
            vi, vj = np.nonzero(sel & (ratios > thr + 1e-12))
            order_pairs = sorted(zip(vi, vj), key=lambda p: -ratios[p[0], p[1]])
            bi, bj = order_pairs[0]
            uv = _system_umvirate(group, tables.row_systems[bi], tables.func_systems[bj])
            violations.append({"order": d, "ratio": float(ratios[bi, bj]), "umvirate": uv})
    return SetAuditResult(GlobalnessReport("set-umvirate-density", rows), violations)


def brute_force_set_ratios(g, ordinals):
    """Counting oracle over all 1- and 2-umvirates, including scaled and
    redundant presentations: every single dictator, and every pair of
    them whose constraint vectors are independent within a family."""
    q, n = g.q, g.n
    amask = np.zeros(g.size, dtype=bool)
    amask[ordinals] = True
    mu = len(ordinals) / g.size
    # line[v]: the least encoding on the projective line of v
    line = [min(encode_vector(g.field.mul_table[c, decode_vector(v, n, q)], q) for c in range(1, q)) for v in range(q**n)]
    masks, kinds, lines = [], [], []
    for kind, act in enumerate((g.vector_action(False), g.vector_action(True))):
        for v in range(1, q**n):
            for w in range(1, q**n):
                m = act[:, v] == w
                if m.any():
                    masks.append(m)
                    kinds.append(kind)
                    lines.append(line[v])
    masks, kinds, lines = np.array(masks), np.array(kinds), np.array(lines)
    best = {0: 1.0, 1: float(np.max((masks & amask).sum(1) / masks.sum(1) / mu)), 2: -1.0}
    for i in range(len(masks)):
        m = masks[i] & masks[i + 1:]
        sizes = m.sum(1)
        keep = ((kinds[i + 1:] != kinds[i]) | (lines[i + 1:] != lines[i])) & (sizes > 0)
        if keep.any():
            best[2] = max(best[2], float(np.max((m & amask)[keep].sum(1) / sizes[keep] / mu)))
    return best


def dictator_ratio(g, a):
    """Largest (|A & U| / |U|) / mu(A) over single dictators U = {x v = w}
    and {x^T v = w}, each counted by np.bincount over one action column."""
    best = 0.0
    for transpose in (False, True):
        act = g.vector_action(transpose)
        for v in range(1, act.shape[1]):
            total = np.bincount(act[:, v], minlength=act.shape[1])
            inside = np.bincount(act[a, v], minlength=act.shape[1])
            hit = total > 0
            best = max(best, float(np.max(inside[hit] / total[hit])))
    return best / (a.size / g.size)


# ---------------------------------------------------------------------------
# good-umvirate partitions
# ---------------------------------------------------------------------------

def _greedy_full_rank_cols(field, m, need):
    cols = []
    for j in range(m.shape[1]):
        trial = cols + [j]
        if rank(field, m[:, trial]) == len(trial):
            cols.append(j)
            if len(cols) == need:
                return cols
    raise ToolkitError("umvirate contains no invertible matrices")


def _piece_to_good_umvirate(group, d_mat, c_mat, kk, big_k, big_b, big_c):
    """(kk, g0, h0) of the piece {[[K, B'], [C', X]]}, or None when it misses G."""
    field = group.field
    n = group.n
    k_inv = inv_by_rref(field, big_k)
    lft = np.eye(n, dtype=np.uint8)
    lft[:kk, :kk] = k_inv
    if kk < n:
        lft[kk:, :kk] = field.neg_table[mat_mul(field, big_c, k_inv)]
    rgt = np.eye(n, dtype=np.uint8)
    if kk < n:
        rgt[:kk, kk:] = field.neg_table[mat_mul(field, k_inv, big_b)]
    left = mat_mul(field, inv_by_rref(field, d_mat), inv_by_rref(field, lft))
    right = mat_mul(field, inv_by_rref(field, rgt), inv_by_rref(field, c_mat))
    delta = field.mul(field.inv(det(field, left)), field.inv(det(field, right)))
    if kk == n:
        if delta != 1:
            return None
        y0 = np.zeros((0, 0), dtype=np.uint8)
    else:
        y0 = np.eye(n - kk, dtype=np.uint8)
        y0[0, 0] = delta
    g0 = np.eye(n, dtype=np.uint8)
    g0[kk:, kk:] = y0
    g0 = mat_mul(field, left, g0)
    c_fix = np.eye(n, dtype=np.uint8)
    c_fix[0, 0] = det(field, right)
    g0 = mat_mul(field, g0, c_fix)
    h0 = mat_mul(field, inv_by_rref(field, c_fix), right)
    g_ord, h_ord = group.ordinals_of(np.stack([g0, h0]))
    assert g_ord >= 0 and h_ord >= 0
    return (kk, int(g_ord), int(h_ord))


def reference_partition(group, u):
    """(k, g, h) of every piece, one fill of the free entries at a time:
    six scalar inverses per piece, the greedy leftmost-full-rank column
    pick and 0/1 permutation matrices."""
    field = group.field
    n = group.n
    nf = umvirate_normal_form(group, u)
    a, b, h = nf.a, nf.b, nf.h
    if a + b == 0:
        return [(0, group.identity, group.identity)]
    d_mat, c_mat = nf.d_mat.copy(), nf.c_mat.copy()
    fixed_rows, fixed_cols = nf.fixed_rows.copy(), nf.fixed_cols.copy()
    if a and b:
        e, f, _ = _rank_factor(field, fixed_rows[:, :a].copy())
        e_ext = np.eye(n, dtype=np.uint8)
        e_ext[:b, :b] = e
        f_ext = np.eye(n, dtype=np.uint8)
        f_ext[:a, :a] = f
        d_mat = mat_mul(field, e_ext, d_mat)
        c_mat = mat_mul(field, c_mat, f_ext)
        fixed_rows = mat_mul(field, mat_mul(field, e, fixed_rows), f_ext)
        fixed_cols = mat_mul(field, mat_mul(field, e_ext, fixed_cols), f)
    kk = a + b - h
    if kk > n:
        return []
    p2 = fixed_rows[h:b, a:]
    n2 = fixed_cols[b:, h:a]
    if p2.shape[0] and rank(field, p2) < p2.shape[0]:
        return []
    if n2.shape[1] and rank(field, n2.T.copy()) < n2.shape[1]:
        return []
    col_sel = _greedy_full_rank_cols(field, p2, b - h) if b - h else []
    row_sel = _greedy_full_rank_cols(field, n2.T.copy(), a - h) if a - h else []
    col_perm = list(range(a)) + [a + j for j in col_sel] + [a + j for j in range(n - a) if j not in col_sel]
    row_perm = list(range(b)) + [b + i for i in row_sel] + [b + i for i in range(n - b) if i not in row_sel]
    pc = np.zeros((n, n), dtype=np.uint8)
    for newpos, old in enumerate(col_perm):
        pc[old, newpos] = 1
    pr = np.zeros((n, n), dtype=np.uint8)
    for newpos, old in enumerate(row_perm):
        pr[newpos, old] = 1
    c_mat = mat_mul(field, c_mat, pc)
    d_mat = mat_mul(field, pr, d_mat)
    fixed_rows = mat_mul(field, fixed_rows, pc)
    fixed_cols = mat_mul(field, pr, fixed_cols)

    q = group.q
    n_col_free = (n - b) * (b - h)
    n_row_free = (a - h) * (n - kk)
    pieces = []
    for fill in range(q ** (n_col_free + n_row_free)):
        x = fill
        col_block = np.zeros((n - b, b - h), dtype=np.uint8)
        for pos in range(n_col_free):
            col_block[pos // (b - h), pos % (b - h)] = x % q
            x //= q
        row_block = np.zeros((a - h, n - kk), dtype=np.uint8)
        for pos in range(n_row_free):
            row_block[pos // (n - kk), pos % (n - kk)] = x % q
            x //= q
        full = np.zeros((n, n), dtype=np.uint8)
        full[:b, :] = fixed_rows
        full[:, :a] = fixed_cols
        full[b:, a: a + (b - h)] = col_block
        full[b: b + (a - h), a + (b - h):] = row_block
        assert det(field, full[:kk, :kk]) != 0
        piece = _piece_to_good_umvirate(
            group, d_mat, c_mat, kk, full[:kk, :kk].copy(), full[:kk, kk:].copy(), full[kk:, :kk].copy()
        )
        if piece is not None:
            pieces.append(piece)
    return pieces


# ---------------------------------------------------------------------------
# CLI file formats
# ---------------------------------------------------------------------------

def read_function_csv_ref(path, size):
    """One line at a time: header on line 1 only, blank lines skipped, `im`
    optional, the later row wins for a repeated index."""
    values = np.zeros(size, dtype=np.complex128)
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or (ln == 1 and line.replace(" ", "") == "index,re,im"):
                continue
            parts = line.split(",")
            try:
                idx = int(parts[0])
                re = float(parts[1])
                im = float(parts[2]) if len(parts) > 2 else 0.0
            except (ValueError, IndexError) as e:
                raise InputFormatError(f"{path}:{ln}: malformed function row {line!r}") from e
            if not 0 <= idx < size:
                raise InputFormatError(f"{path}:{ln}: index {idx} out of range [0, {size})")
            values[idx] = complex(re, im)
    return values


def write_function_csv_ref(path, values):
    """One numpy scalar at a time, each part through float() and repr."""
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")
