"""Single-line mutations of the fast paths, each of which a test must kill.

    python tests/mutations.py

A mutation names a file, one exact source line of it (the anchor,
compared with its indentation stripped), the line that replaces it, and
the tests that must fail once it is in.  The script copies src/ and
tests/ to a temporary directory, checks that the listed tests pass on
the unmutated copy, then applies each mutation alone and runs its tests
there.  A mutant is killed when pytest reports a failing test (exit
status 1).  The script exits with status 1 if any anchor is missing or
repeated, or any mutant survives or errors.

pytest does not collect this file; tests/test_mutation_anchors.py
checks in tier-1 that every anchor still occurs exactly once, so the
list cannot rot silently.  The first nine mutations are the ones the
fast paths were first checked against by hand; the rest break, one at
a time, a fast path that a reference in tests/oracles.py checks.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


GT = "tests/test_group_tables.py::"
BT = "tests/test_batched_tables.py::"
SCH = "tests/test_scheme.py::"
GLO = "tests/test_globality.py::"
CLI = "tests/test_cli.py::"
SPE = "tests/test_spectra.py::"
GRP = "tests/test_groups.py::"
GSP = "tests/test_group_set_parity.py::"
BP = "tests/test_bogolyubov_parity.py::"

MUTATIONS = [
    Mutation("Leibniz sign", "src/qharm/fqlin.py",
             "if sum(i > j for i, j in combinations(perm, 2)) % 2:",
             "if not sum(i > j for i, j in combinations(perm, 2)) % 2:",
             (GT + "test_det_matches_elimination_on_every_matrix[3-2]",)),
    Mutation("swapped product columns", "src/qharm/groups.py",
             "m[g] = self.pos[placed[g][cols] @ self._units]",
             "m[g] = self.pos[placed[g][cols[:, ::-1]] @ self._units]",
             (GT + "test_mul_table_matches_row_loop[sl-2-3]",)),
    Mutation("inverse taken as the action itself", "src/qharm/groups.py",
             "preimages = np.argsort(self.vector_action(), axis=1)",
             "preimages = self.vector_action()",
             (GT + "test_element_tables_match_per_element_loops[sl-2-3]",)),
    Mutation("reversed system index", "src/qharm/groups.py",
             "system_of.append(len(systems) + which.reshape(-1))",
             "system_of.append(len(systems) + which.reshape(-1)[::-1])",
             (GT + "test_dictator_systems_match_target_loop[sl-2-3]",)),
    Mutation("transposed ordinal lookup", "src/qharm/groups.py",
             "return self.pos[mats.reshape(mats.shape[:-2] + (self.n * self.n,)) @ self.scheme.domain_index.powers]",
             "return self.pos[np.swapaxes(mats, -1, -2).reshape(mats.shape[:-2] + (self.n * self.n,))"
             " @ self.scheme.domain_index.powers]",
             (GT + "test_ordinals_of_maps_stacks_and_marks_non_members",)),
    Mutation("wrong L_k block", "src/qharm/globality.py",
             "out[:, k:, k:] = blocks",
             "out[:, : n - k, : n - k] = blocks",
             (GT + "test_block_subgroups_match_member_loop[sl-3-2]",)),
    Mutation("off-by-one range check", "src/qharm/groups.py",
             "if ordinals.size and (ordinals.min() < 0 or ordinals.max() >= self.size):",
             "if ordinals.size and (ordinals.min() < 0 or ordinals.max() > self.size):",
             ("tests/test_bogolyubov.py::test_out_of_range_ordinals_are_rejected",)),
    Mutation("kernel @ t operand order", "src/qharm/scheme.py",
             "t = (t.reshape(b, q, size // q).transpose(0, 2, 1) @ kernel_t).reshape(b, size)",
             "t = (kernel @ t.reshape(b, q, size // q)).transpose(0, 2, 1).reshape(b, size)",
             (SCH + "test_transform_bit_identical_to_moveaxis_reference",)),
    Mutation("four-norm influence memo keyed pure", "src/qharm/spectra.py",
             'eps = self._influences(("cum", d)).max_upto(d)',
             'eps = self._influences(("pure", d)).max_upto(d)',
             ("tests/test_spectra.py::test_four_norm_row_reads_the_cumulative_influence_audit",)),
    # -- one per reference in tests/oracles.py ---------------------------------
    Mutation("character rows pair X[i, j] with A[i, j]", "src/qharm/scheme.py",
             "acc = f.add_table[acc, f.mul_table[dx[:, p_x][:, None], da[:, p_a][None, :]]]",
             "acc = f.add_table[acc, f.mul_table[dx[:, p_a][:, None], da[:, p_a][None, :]]]",
             (SCH + "test_char_value_examples",)),
    Mutation("inverse kernel conjugated", "src/qharm/scheme.py",
             "self._kernel_inv = chars",
             "self._kernel_inv = np.conj(chars)",
             (SCH + "test_fast_transform_matches_naive",)),
    Mutation("character restriction with W' basis reversed", "src/qharm/scheme.py",
             "self.quotient_frame(vp).quotient_map, wp.basis.T, self.restriction_embedding(vp, wp)[0].dual_index))",
             "self.quotient_frame(vp).quotient_map, wp.basis.T[:, ::-1], self.restriction_embedding(vp, wp)[0].dual_index))",
             (BT + "test_char_restriction_table_matches_scalar_map[domain0]",)),
    Mutation("dualize without the transpose", "src/qharm/scheme.py",
             ".transpose(0, 2, 1).reshape(dual.size, ctx.k).astype(np.int64) @ ctx.domain_index.powers)",
             ".reshape(dual.size, ctx.k).astype(np.int64) @ ctx.domain_index.powers)",
             (SCH + "test_dualize_matches_the_per_element_transpose[2-2-3]",)),
    Mutation("rank table of the reshaped digits", "src/qharm/fqlin.py",
             "stack = self.digits_table().reshape(self.size, self.rows, self.cols)",
             "stack = self.digits_table().reshape(self.size, self.cols, self.rows)",
             (BT + "test_rank_tables_match_scalar_loop[domain3]",)),
    Mutation("Laplacian mask ignores W1", "src/qharm/calculus.py",
             "preimage_in_w1 = (ctx.m - w1.dim) + yb_ranks == sub.rank_table_dual()",
             "preimage_in_w1 = (ctx.m - w1.dim) + yb_ranks >= sub.rank_table_dual()",
             (BT + "test_spectral_masks_match_scalar_loop[domain0]",)),
    Mutation("quotient mask keeps every X", "src/qharm/calculus.py",
             'return ctx.memo(("quot", vp.key), lambda: _quotient_image(ctx, vp)[1] == 0)',
             'return ctx.memo(("quot", vp.key), lambda: _quotient_image(ctx, vp)[1] >= 0)',
             (BT + "test_spectral_masks_match_scalar_loop[domain0]",)),
    Mutation("E_v damps v in Im(X)", "src/qharm/calculus.py",
             "lambda: _damping(ctx, ~_quotient_image(ctx, span_of(ctx.field, v))[2]))",
             "lambda: _damping(ctx, _quotient_image(ctx, span_of(ctx.field, v))[2]))",
             (BT + "test_spectral_masks_match_scalar_loop[domain0]",)),
    Mutation("E_W' spanning test against dim W'", "src/qharm/calculus.py",
             "ctx, _image_ranks(ctx.dual_index, np.eye(ctx.n, dtype=np.uint8), wp.basis.T) == ctx.rank_table_dual()))",
             "ctx, _image_ranks(ctx.dual_index, np.eye(ctx.n, dtype=np.uint8), wp.basis.T) == wp.dim))",
             (BT + "test_spectral_masks_match_scalar_loop[domain0]",)),
    Mutation("restriction embedding read in reversed digits", "src/qharm/scheme.py",
             "return sub, sub.domain_index.linear_image(wp.basis.T, qmap, self.domain_index)",
             "return sub, sub.domain_index.linear_image(wp.basis.T[::-1], qmap[:, ::-1], self.domain_index)",
             (BT + "test_embeddings_and_cosets_match_scalar_loop[domain1]",)),
    Mutation("coset members in embedding order", "src/qharm/scheme.py",
             "return self.domain_index.add_indices(reps[:, None], np.sort(emb)[None, :])",
             "return self.domain_index.add_indices(reps[:, None], emb[None, :])",
             (BT + "test_embeddings_and_cosets_match_scalar_loop[domain1]",)),
    Mutation("restriction mass as a coset max", "src/qharm/globality.py",
             "means = mean_last_axis(rows[funcs].take(stack.members[sites], axis=1))",
             "means = rows[funcs].take(stack.members[sites], axis=1).max(axis=-1)",
             (GLO + "test_global_audit_matches_brute_force",)),
    Mutation("influence as the squared mean modulus", "src/qharm/globality.py",
             "influences = mean_last_axis(np.take(mass, members + (rows * ctx.size)[:, :, None, None]))",
             "influences = mean_last_axis(np.sqrt(np.take(mass, members + (rows * ctx.size)[:, :, None, None]))) ** 2",
             (GLO + "test_batched_influence_audit_matches_per_site_oracle[False]",)),
    Mutation("site Laplacians paired with reversed masks", "src/qharm/globality.py",
             "yield funcs, sites.start, ctx.fourier_inverse(spectra[live[funcs], None, :] * masks)",
             "yield funcs, sites.start, ctx.fourier_inverse(spectra[live[funcs], None, :] * masks[::-1])",
             (GLO + "test_audit_witness_is_attained",)),
    Mutation("refining rows ignored: max over every site of the order", "src/qharm/globality.py",
             "refining = [ctx.refining_rows(u, side, order) for u, side in directions]",
             "refining = [[np.arange(len(s.positions)) for s in ctx.site_stacks(order)] for _ in directions]",
             (GLO + "test_stacked_audits_match_per_site_oracles[2-2-2]",)),
    Mutation("refining maxima filed in reverse order", "src/qharm/globality.py",
             "return np.array([max(found) for found in maxima])",
             "return np.array([max(found) for found in maxima[::-1]])",
             (GLO + "test_refining_maxima_match_the_per_site_oracle[2-2-2]",)),
    Mutation("every direction read on the first function", "src/qharm/globality.py",
             "masses = np.abs(np.array([f.values for f in fs])) ** 2",
             "masses = np.abs(np.array([fs[0].values for f in fs])) ** 2",
             (GLO + "test_refining_maxima_match_the_per_site_oracle[2-2-2]",)),
    Mutation("refining rows past a direction's first block dropped", "src/qharm/globality.py",
             "for _, block in blocks(1, len(stack.positions), ctx.size):",
             "for _, block in list(blocks(1, len(stack.positions), ctx.size))[:1]:",
             (GLO + "test_refining_maxima_match_the_per_site_oracle[2-3-3]",)),
    Mutation("coset sums divided by the coset count, not the coset size", "src/qharm/globality.py",
             "found.append(sums.max() / stack.members.shape[-1])",
             "found.append(sums.max() / stack.members.shape[-2])",
             (SPE + "test_stacked_instance_checks_match_per_function_reference[2-2-2]",)),
    Mutation("stacked audit rows filed under the previous function", "src/qharm/globality.py",
             "reports[i].rows.append(audit_row(ctx, d, best, witness, bases[i], zetas[i]))",
             "reports[i - 1].rows.append(audit_row(ctx, d, best, witness, bases[i], zetas[i]))",
             (SPE + "test_stacked_instance_checks_match_per_function_reference[2-2-2]",)),
    Mutation("stacked coset gather written as values[:, members]", "src/qharm/globality.py",
             "means = mean_last_axis(rows[funcs].take(stack.members[sites], axis=1))",
             "means = mean_last_axis(rows[funcs][:, stack.members[sites]])",
             (SPE + "test_stacked_instance_checks_match_per_function_reference[2-3-3]",)),
    Mutation("line Laplacians kept from the cumulative parts", "src/qharm/spectra.py",
             "for d, lap in zip(degrees[rows], laps[:, 1]):",
             "for d, lap in zip(degrees[rows], laps[:, 0]):",
             (SPE + "test_stacked_instance_checks_match_per_function_reference[2-2-2]",)),
    Mutation("cumulative Laplacians summed from e = o + 1", "src/qharm/spectra.py",
             "np.cumsum(laps[:, 1], axis=0, out=laps[:, 0])",
             "np.cumsum(laps[:, 1], axis=0, out=laps[:, 0]); laps[:, 0] -= laps[:1, 1]",
             (SPE + "test_stacked_instance_checks_match_per_function_reference[2-2-2]",)),
    Mutation("running sum dropped between chunks of pure rows", "src/qharm/spectra.py",
             "laps[:, 0] += total",
             "laps[:, 0] += 0",
             (SPE + "test_influence_stack_splits_a_site_s_rows_within_the_element_bound",)),
    Mutation("order-0 influence rows read from f, not the part", "src/qharm/spectra.py",
             "yield funcs, 0, np.array([fs[i].values for i in live[funcs]])[:, None]",
             "yield funcs, 0, np.array([self.f.values for i in live[funcs]])[:, None]",
             (SPE + "test_order_0_influence_rows_are_the_parts_squared_norms[3-2-2]",)),
    Mutation("reused f^{<=o} row keeps the threshold of f^{=o}", "src/qharm/spectra.py",
             'reports[("cum", d)].rows.append(audit_row(ctx, d, row.value, row.witness, base, DEFAULT_ZETA))',
             'reports[("cum", d)].rows.append(row)',
             (SPE + "test_stacked_instance_checks_match_per_function_reference[2-2-2]",)),
    Mutation("pure spectra masked with rank <= d", "src/qharm/spectra.py",
             "self.pure_spectra = self.spectrum * np.stack(masks[:self.dmax])",
             "self.pure_spectra = self.spectrum * np.stack(masks[self.dmax:])",
             (SPE + "test_stacked_instance_checks_match_per_function_reference[2-2-2]",)),
    Mutation("L^{ell'} root applied to the mirrored row of a block", "src/qharm/globality.py",
             "for k, root in enumerate(live_roots[funcs]):",
             "for k, root in enumerate(live_roots[funcs][::-1]):",
             (GLO + "test_mixed_restriction_audit_stack_matches_per_site_oracles[False]",)),
    Mutation("E_v hyperplane average reuses the first plane", "src/qharm/calculus.py",
             "quotients[vp.key] = _avg_quotient_direct(f, vp)",
             "quotients[vp.key] = _avg_quotient_direct(f, planes[0])",
             ("tests/test_calculus.py::test_avg_vector_three_forms_agree_on_random",)),
    Mutation("2-column function CSVs read with a zero re column", "src/qharm/cli.py",
             "rows = _load_rows(fh, 2)",
             "rows = _load_rows(fh, 2)[:0]",
             (CLI + "test_function_csv_reader_matches_per_line_reference[2-column file]",)),
    Mutation("audit witness taken at the last tied site", "src/qharm/globality.py",
             "if value > best + 1e-15:",
             "if value >= best:",
             (GLO + "test_stacked_audits_match_per_site_oracles[2-2-2]",)),
    Mutation("Laplacian masks keep the first V1's quotient image", "src/qharm/calculus.py",
             "if vp is not v1:",
             "if v1 is None:",
             (BT + "test_spectral_masks_match_scalar_loop[domain0]",)),
    Mutation("set audit ratio without 1/mu", "src/qharm/globality.py",
             "ratios = (counts[tables.cell_orders == d] / tables.cell_sizes[d]) / mu",
             "ratios = counts[tables.cell_orders == d] / tables.cell_sizes[d]",
             ("tests/test_set_audit_parity.py::test_set_audit_equals_dense_reference[sl-2-3]",)),
    Mutation("set audit drops the first member", "src/qharm/globality.py",
             "counts = np.bincount(tables.cell_of[ordinals].ravel(), minlength=tables.cell_orders.size)",
             "counts = np.bincount(tables.cell_of[ordinals[1:]].ravel(), minlength=tables.cell_orders.size)",
             (GLO + "test_set_audit_matches_counting_oracle",)),
    Mutation("set audit takes the least ratio", "src/qharm/globality.py",
             "k = int(np.argmax(ratios))",
             "k = int(np.argmin(ratios))",
             ("tests/test_set_audit_parity.py::test_set_audit_witnesses_recount_on_gl2_f7",)),
    Mutation("partition determinant fix ignores the right factor", "src/qharm/globality.py",
             "delta = field.mul_table[field.inv_table[det_left], field.inv_table[det_right]]",
             "delta = field.inv_table[det_left]",
             ("tests/test_partition_parity.py::test_batched_partition_matches_scalar_reference[sl2_f3_all_cells]",)),
    Mutation("block restriction with g and h swapped", "src/qharm/globality.py",
             "return m[g[:, None], m[_block_ordinals(group, k)[None, :], h[:, None]]]",
             "return m[h[:, None], m[_block_ordinals(group, k)[None, :], g[:, None]]]",
             (GT + "test_block_restriction_matches_member_loop[sl-2-3]",)),
    Mutation("bump search takes the sparsest piece", "src/qharm/globality.py",
             "best = int(np.argmax(counts))  # the first densest piece",
             "best = int(np.argmin(counts))",
             (BP + "test_bump_search_matches_the_piece_loop[sl-3-2]",)),
    Mutation("groumvirate pairs kept only at det 1", "src/qharm/bogolyubov.py",
             "g, d = g[d != 0], d[d != 0]",
             "g, d = g[d == 1], d[d == 1]",
             (BP + "test_groumvirates_match_the_pair_loop[sl-3-3]",)),
    Mutation("containment scan accepts a groumvirate meeting A A^-1 A A^-1", "src/qharm/bogolyubov.py",
             "inside = np.all(smask[coset_rows(group, k, g, group.inv[g])], axis=1)",
             "inside = np.any(smask[coset_rows(group, k, g, group.inv[g])], axis=1)",
             (BP + "test_search_matches_the_groumvirate_scan[sl-3-2]",)),
    Mutation("exponent of H = G left as log 1 / log mu(A)", "src/qharm/bogolyubov.py",
             "exponent = 0.0 if mu_u == 1.0 else float(np.log(mu_u) / np.log(a.mu))",
             "exponent = float(np.log(mu_u) / np.log(a.mu))",
             ("tests/test_bogolyubov.py::test_exponent_of_the_whole_group_is_plus_zero",)),
    Mutation("vector actions swapped", "src/qharm/groups.py",
             "mats = np.swapaxes(self.mats, 1, 2) if transpose else self.mats",
             "mats = self.mats if transpose else np.swapaxes(self.mats, 1, 2)",
             (GT + "test_element_tables_match_per_element_loops[sl-2-3]",)),
    Mutation("cells filed one order up", "src/qharm/groups.py",
             "self.cells = [cells[self.cell_orders == d] for d in range(2 * group.n + 1)]",
             "self.cells = [cells[self.cell_orders == d] for d in range(1, 2 * group.n + 2)]",
             (GT + "test_dictator_systems_match_target_loop[sl-2-3]",)),
    Mutation("convolution through the transposed kernel", "src/qharm/groups.py",
             "return lambda values: kern @ values / group.size",
             "return lambda values: kern.T @ values / group.size",
             ("tests/test_groups.py::test_convolution_identities_and_oracle",)),
    Mutation("product set BA", "src/qharm/bogolyubov.py",
             "hit[group.mul_table()[np.ix_(a.ordinals, b.ordinals)]] = True",
             "hit[group.mul_table()[np.ix_(b.ordinals, a.ordinals)]] = True",
             ("tests/test_bogolyubov.py::test_product_set_matches_double_loop",)),
    Mutation("cover cosets labelled as right cosets U x", "src/qharm/bogolyubov.py",
             "labels = group.mul_table()[np.ix_(a.ordinals, u_members)].min(axis=1)",
             "labels = group.mul_table()[np.ix_(u_members, a.ordinals)].min(axis=0)",
             (GSP + "test_cover_representatives_match_the_coset_loop[sl-3-2]",)),
    Mutation("easy set J built as U X", "src/qharm/bogolyubov.py",
             "return product_set(GroupSet(group, self.representatives), GroupSet(group, self.umvirate.members())).ordinals",
             "return product_set(GroupSet(group, self.umvirate.members()), GroupSet(group, self.representatives)).ordinals",
             (GSP + "test_cover_representatives_match_the_coset_loop[sl-3-2]",)),
    Mutation("cover checked inside A^2, not A A^4", "src/qharm/bogolyubov.py",
             "inside = bool(np.all(product_set(a, found.product_set).mask()[j_members]))",
             "inside = bool(np.all(product_set(a, a).mask()[j_members]))",
             (GSP + "test_cover_representatives_match_the_coset_loop[sl-2-5]",)),
    Mutation("dense-set meet checked on the complement of T1", "src/qharm/bogolyubov.py",
             "t1 = GroupSet(group, members[aai_mask[members]])",
             "t1 = GroupSet(group, members[~aai_mask[members]])",
             (GSP + "test_density_step_meets_as_the_per_element_loop[sl-3-2]",)),
    Mutation("orbit rows g L_k without the inverse", "src/qharm/bogolyubov.py",
             "conj = np.sort(m[m[:, lk], group.inv[:, None]], axis=1)",
             "conj = np.sort(m[:, lk], axis=1)",
             (GSP + "test_orbit_counts_match_the_frozenset_loop[sl-2-3]",)),
    Mutation("stabilizer translates read as f(h g)", "src/qharm/groups.py",
             "return f.values[group.mul_table().T[pointwise_stabilizer(group, u)]]",
             "return f.values[group.mul_table()[pointwise_stabilizer(group, u)]]",
             (GSP + "test_juntas_match_the_stabilizer_loops[sl-2-3]",)),
    Mutation("first collision read from y x", "src/qharm/spectra.py",
             "hit = a.mask()[prods]",
             "hit = a.mask()[prods.T]",
             (GSP + "test_first_collision_matches_the_pair_loop[sl-2-3]",)),
    Mutation("set audit witness read at the order's first cell", "src/qharm/globality.py",
             "u = Umvirate(group, int(cells[k]))",
             "u = Umvirate(group, int(cells[0]))",
             ("tests/test_set_audit_parity.py::test_back_to_back_audits_keep_their_own_witnesses[sl-2-3]",)),
    Mutation("umvirate cell decoded with its row and functional systems swapped", "src/qharm/globality.py",
             "return divmod(self.cell, len(self.group.dictator_systems().func_systems))",
             "return divmod(self.cell, len(self.group.dictator_systems().func_systems))[::-1]",
             ("tests/test_set_audit_parity.py::test_set_audit_equals_dense_reference[sl-2-3]",)),
    Mutation("umvirate members read row_of for both families", "src/qharm/globality.py",
             "return np.flatnonzero((tables.row_of == i).any(1) & (tables.func_of == j).any(1))",
             "return np.flatnonzero((tables.row_of == i).any(1) & (tables.row_of == j).any(1))",
             ("tests/test_set_audit_parity.py::test_cell_members_match_the_vector_action_loop[sl-2-3]",)),
    Mutation("bump coset accumulated as diag(I, g') g_acc", "src/qharm/globality.py",
             "g_acc = int(m[g_acc, embed[g[best]]])",
             "g_acc = int(m[embed[g[best]], g_acc])",
             (BP + "test_second_bump_step_accumulates_as_the_matrix_reference",)),
    Mutation("Sarnak-Xue blocks taken on level d - 1", "src/qharm/spectra.py",
             "hats = [(irr.degree, irr.fourier(f.values)) for irr in get_irreducibles(group)[d]]",
             "hats = [(irr.degree, irr.fourier(f.values)) for irr in get_irreducibles(group)[d - 1]]",
             (SPE + "test_sarnak_xue_matches_two_matrix_reference[sl-2-3]",)),
    Mutation("Sarnak-Xue trace side weighted by 1, not d_rho", "src/qharm/spectra.py",
             "trace_matrix = float(sum(degree * np.sum(np.abs(hat) ** 2) for degree, hat in hats))",
             "trace_matrix = float(sum(np.sum(np.abs(hat) ** 2) for degree, hat in hats))",
             (SPE + "test_sarnak_xue_matches_two_matrix_reference[sl-2-3]",)),
    Mutation("Sarnak-Xue norm from the first irreducible, not the max", "src/qharm/spectra.py",
             "norm = float(max(norms, default=0.0))  # ||T_f|| on V_{=d}",
             "norm = float(norms[0] if norms else 0.0)",
             (SPE + "test_sarnak_xue_matches_two_matrix_reference[sl-2-5]",)),
    Mutation("level read from H_{d+1}", "src/qharm/groups.py",
             "stabilizers = np.stack([np.bincount(labels[np.all(act[:, units[:d]] == units[:d], axis=1)], minlength=k)",
             "stabilizers = np.stack([np.bincount(labels[np.all(act[:, units[:d + 1]] == units[:d + 1], axis=1)],"
             " minlength=k)",
             ("tests/test_level_tables.py::test_levels_match_generator_stream_reference[sl-2-3-strict-False]",)),
    Mutation("isotypic projector built from chi, not conj(chi)", "src/qharm/groups.py",
             "return convolver(group.table(chars.degrees[i] * np.conj(chars.values(i))))",
             "return convolver(group.table(chars.degrees[i] * chars.values(i)))",
             (GRP + "test_characters_match_irreducible_traces[sl-2-3]",)),
    Mutation("strict level kernel built from Psi_{<=d}", "src/qharm/groups.py",
             "psi = np.stack([weighted[chars.levels == d].sum(axis=0) for d in range(group.n + 1)])",
             "psi = np.stack([weighted[chars.levels <= d].sum(axis=0) for d in range(group.n + 1)])",
             ("tests/test_level_tables.py::test_level_kernels_are_orthogonal_projectors_summing_to_the_identity"
              "[sl-2-3-strict-False]",)),
    Mutation("level kernel gathered at x y, not x y^-1", "src/qharm/groups.py",
             "kern = get_levels(group).psi[d][group.xyinv_table()]",
             "kern = get_levels(group).psi[d][group.mul_table()]",
             ("tests/test_level_tables.py::test_levels_match_generator_stream_reference[sl-2-3-strict-False]",)),
    Mutation("level_project sums the strict levels e < d only", "src/qharm/groups.py",
             "return FnTable(group, sum(level_kernel(group, e) @ pairs for e in range(d + 1)).view(np.complex128).reshape(-1))",
             "return FnTable(group, sum(level_kernel(group, e) @ pairs for e in range(d)).view(np.complex128).reshape(-1))",
             (GRP + "test_level_projections_are_the_kernels_and_their_sums[sl-2-3]",)),
    Mutation("Bonami draw left unprojected", "src/qharm/spectra.py",
             "f = FnTable(group, project(rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)))",
             "f = FnTable(group, rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size))",
             (SPE + "test_bonami_draws_lie_in_their_isotypic_components[sl-2-3]",)),
    Mutation("character normalization without the class sizes", "src/qharm/groups.py",
             "chi *= np.sqrt(group.size / np.sum(sizes * np.abs(chi) ** 2, axis=1))[:, None]",
             "chi *= np.sqrt(group.size / np.sum(np.abs(chi) ** 2, axis=1))[:, None]",
             ("tests/test_level_tables.py::test_isotypic_dims_match_recorded[key1]",)),
    Mutation("generator's rho(s) built from s, not s^-1", "src/qharm/groups.py",
             "left_inv = mul[group.inv[gens]]  # h(s^-1 x)",
             "left_inv = mul[gens]  # h(s^-1 x)",
             (GRP + "test_irreducible_tables_are_unitary_homomorphisms[sl-3-2-400]",)),
    Mutation("mixing level term projects g, not f*g", "src/qharm/spectra.py",
             "per_level = [float(np.sqrt(level_project_eq(conv, d).norm2sq())) for d in range(1, group.n + 1)]",
             "per_level = [float(np.sqrt(level_project_eq(g, d).norm2sq())) for d in range(1, group.n + 1)]",
             ("tests/test_spectra.py::test_mixing_terms_match_one_convolution_per_term[sl-2-3]",)),
    Mutation("product-mixing level term paired with g, not h", "src/qharm/spectra.py",
             "per_level = [float(level_project_eq(conv, d).inner(h).real) for d in range(1, group.n + 1)]",
             "per_level = [float(level_project_eq(conv, d).inner(g).real) for d in range(1, group.n + 1)]",
             ("tests/test_spectra.py::test_mixing_terms_match_one_convolution_per_term[sl-2-3]",)),
    Mutation("inverse without the pivot row swap", "src/qharm/fqlin.py",
             "aug[lane, found] = aug[:, col]",
             "pass",
             ("tests/test_fqlin.py::test_inv_matrix_stack_matches_rref_reference[3-4]",)),
    Mutation("basis completion by unreversed pivots", "src/qharm/fqlin.py",
             "units = [k for k in range(n) if n - 1 - k not in pivots]",
             "units = [k for k in range(n) if k not in pivots]",
             ("tests/test_fqlin.py::test_complete_basis_matches_the_candidate_loop_on_random_rows",)),
    Mutation("rref skips the current row as pivot", "src/qharm/fqlin.py",
             "for row in range(pr, rows):",
             "for row in range(pr + 1, rows):",
             ("tests/test_fqlin.py::test_rank_matches_brute_force_random",)),
    Mutation("tensor check accepts a group with determinant != 1", "src/qharm/spectra.py",
             "if np.any(self.group.dets != 1):",
             "if False:",
             (SPE + "test_tensor_level_check_refuses_a_determinant_other_than_1",)),
    Mutation("audit order bound admits n + m + 1", "src/qharm/globality.py",
             "if top > ctx.n + ctx.m:",
             "if top > ctx.n + ctx.m + 1:",
             (GLO + "test_scheme_audits_reject_orders_above_n_plus_m[influence_audit]",
              CLI + "test_cli_audits_refuse_orders_above_n_plus_m_with_status_2")),
    Mutation("zero dimension accepted", "src/qharm/cli.py",
             "if n < 1 or m < 1:",
             "if n < 0 or m < 0:",
             (CLI + "test_cli_zero_dimension_exits_with_status_2[levels n=0]",)),
    Mutation("function CSV imaginary part read from the re column", "src/qharm/cli.py",
             'values.imag[idx] = rows["im"]',
             'values.imag[idx] = rows["re"]',
             (CLI + "test_function_csv_reader_matches_per_line_reference[plain]",)),
    Mutation("function CSV line 1 skipped whether or not it is the header", "src/qharm/cli.py",
             'if fh.readline().strip().replace(" ", "") != _FUNCTION_HEADER:',
             "if not fh.readline():",
             (CLI + "test_function_csv_reader_matches_per_line_reference[plain]",)),
    Mutation("function CSV read by numpy despite a separator", "src/qharm/cli.py",
             r'if any(sep in block for sep in "\x1c\x1d\x1e\x1f"):',
             "if False:",
             (CLI + "test_function_csv_reader_matches_per_line_reference[separator beside a value]",)),
    Mutation("function CSV read by numpy despite non-ASCII text", "src/qharm/cli.py",
             'with open(path, encoding="ascii") as fh:',
             "with open(path) as fh:",
             (CLI + "test_function_csv_reader_matches_per_line_reference[non-ASCII letter beside an index]",)),
    Mutation("function CSV row indices restart in each written block", "src/qharm/cli.py",
             'fh.write("".join([f"{i},{r!r},{m!r}\\n" for i, r, m in zip(range(start, start + len(re)), re, im)]))',
             'fh.write("".join([f"{i},{r!r},{m!r}\\n" for i, r, m in zip(range(len(re)), re, im)]))',
             (CLI + "test_function_csv_writer_is_byte_identical_to_reference[float64]",)),
    Mutation("char-2 index addition by OR", "src/qharm/fqlin.py",
             "return np.bitwise_xor(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))",
             "return np.bitwise_or(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))",
             ("tests/test_fqlin.py::test_linear_image_matches_per_matrix_product[4]",)),
    Mutation("linear image doubles by the unit image, not c times it", "src/qharm/fqlin.py",
             "multiples = field.mul_table[scalars, images].astype(np.int64) @ target.powers  # (q - 1, k)",
             "multiples = np.broadcast_to(images, (self.q - 1,) + images.shape).astype(np.int64) @ target.powers",
             ("tests/test_fqlin.py::test_linear_image_matches_per_matrix_product[3]",)),
    Mutation("memo rebuilds on every hit", "src/qharm/fqlin.py",
             "return self._memo[key]",
             "return build()",
             ("tests/test_tracing_targets.py::test_builder_returns_its_table_again[SchemeCtx.rank_table_dual]",)),
    Mutation("per-site mask copied out of its order stack", "src/qharm/calculus.py",
             "lambda: laplacian_masks(ctx, order)[ctx.restriction_pairs(order).index((v1, w1))])",
             "lambda: laplacian_masks(ctx, order)[ctx.restriction_pairs(order).index((v1, w1))].copy())",
             ("tests/test_tracing_targets.py::test_laplacian_mask_is_a_view_of_its_order_stack",)),
]


def anchor_lines(text: str, anchor: str) -> list[int]:
    """Indices of the lines of text that equal anchor once indentation is stripped."""
    return [i for i, line in enumerate(text.split("\n")) if line.strip() == anchor]


def mutate(text: str, mutation: Mutation) -> str:
    lines = text.split("\n")
    (i,) = anchor_lines(text, mutation.anchor)
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + mutation.replacement
    return "\n".join(lines)


def run_tests(copy: str, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=copy, env=env, capture_output=True, text=True)


def main() -> int:
    bad_anchors = []
    for m in MUTATIONS:
        with open(os.path.join(ROOT, m.path)) as fh:
            found = len(anchor_lines(fh.read(), m.anchor))
        if found != 1:
            bad_anchors.append(f"{m.name}: anchor found {found} times in {m.path}")
    if bad_anchors:
        print("\n".join(bad_anchors))
        return 1

    with tempfile.TemporaryDirectory(prefix="qharm-mutations-") as copy:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({t for m in MUTATIONS for t in m.tests})
        base = run_tests(copy, every_test)
        if base.returncode != 0:
            print("the listed tests do not pass on the unmutated copy:\n" + base.stdout[-3000:])
            return 1

        survivors = []
        for m in MUTATIONS:
            path = os.path.join(copy, m.path)
            with open(path) as fh:
                original = fh.read()
            with open(path, "w") as fh:
                fh.write(mutate(original, m))
            try:
                res = run_tests(copy, m.tests)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(res.returncode, f"ERROR (pytest exit {res.returncode})")
            print(f"{verdict:9} {m.name}")
            if res.returncode != 1:
                survivors.append(m.name)
                print(res.stdout[-2000:])
    print(f"{len(MUTATIONS) - len(survivors)} of {len(MUTATIONS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
