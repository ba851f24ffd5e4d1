"""scheme-battery: the criterion-3 and criterion-4 instance checks on L(V, W).

One op runs one seeded function through the ``SchemeInstanceChecks``
equivalence rows (criterion 3) or inequality rows (criterion 4) and
takes its spectrum.  The oracles are zero violations in the rows and
the naive character matrix for the spectrum.

The pass composition is fixed; only the functions change with the
seed.  Op times form one tight cluster per (domain, family), so the
counts put p50 on the criterion-4 (3,2,2) cluster and p90 on the
criterion-4 (2,3,3) cluster (ranks 10 and 18 of the 21 ops), never
between two clusters.  The (2,3,3) ops take about four fifths of a
pass of about 3 s, as (2,3,3) dominates criteria 3 and 4 in
``qharm verify``.
"""

from __future__ import annotations

import numpy as np

import qharm.calculus as calculus
import qharm.scheme as scheme
import qharm.spectra as spectra

from common import Op

# (q, n, m): (criterion-3 dmax, rmax), ops per pass for criterion 3, for criterion 4
DOMAINS = {
    (2, 2, 2): ((2, 3), 4, 4),
    (3, 2, 2): ((2, 3), 2, 4),
    (5, 2, 2): ((2, 3), 1, 2),
    (2, 3, 3): ((3, 3), 1, 3),
}
ELLS = (4, 8)
DENSITIES = (0.5, 0.25, 0.125)


def setup() -> None:
    """Build every cache the ops read, through qharm's public builders."""
    for (q, n, m), ((dmax3, _), _, _) in DOMAINS.items():
        ctx = scheme.get_scheme(q, n, m)
        ctx.rank_table_dual()
        lap_orders = max(dmax3, min(2, n, m))
        for order in range(n + m + 1):
            for vp, wp in ctx.restriction_pairs(order):
                ctx.site_cosets(vp, wp)
                if order <= lap_orders:
                    calculus.laplacian_mask(ctx, vp, wp)
        for u, side in calculus.direction_subspaces(ctx):
            if side == "v":
                calculus.vector_avg_factors(ctx, u.basis[0])
            else:
                calculus.dual_avg_factors(ctx, u)
                dual = scheme.get_scheme(q, m, n)
                calculus.vector_avg_factors(dual, calculus.annihilator_functional(ctx, u))


def _instance(ctx, rng, i: int):
    """Even i: Boolean at a density grid, every other one umvirate-adversarial
    (a 1-restriction coset forced to 1); odd i: a random degree-<=2 function."""
    if i % 2 == 0:
        vals = (rng.random(ctx.size) < DENSITIES[(i // 2) % 3]).astype(float)
        if i % 4 == 2:
            pairs = ctx.restriction_pairs(1)
            vp, wp = pairs[int(rng.integers(len(pairs)))]
            _, members = ctx.site_cosets(vp, wp)
            vals[members[int(rng.integers(members.shape[0]))]] = 1.0
        if not vals.any():
            vals[int(rng.integers(ctx.size))] = 1.0
        return f"bool{i}", scheme.FnTable(ctx, vals.astype(np.complex128))
    f = scheme.FnTable(ctx, rng.standard_normal(ctx.size).astype(np.complex128))
    return f"deg{i}", scheme.degree_project(f, min(2, ctx.n, ctx.m), "cumulative")


def equivalence_rows(checks: spectra.SchemeInstanceChecks) -> list:
    """The criterion-3 rows, in the order the acceptance suite runs them."""
    rows = []
    for d in range(1, checks.dmax + 1):
        rows.append(checks.check_globalness_implies_small_influences(d))
        for r in range(d, min(checks.rmax, 3) + 1):
            rows.append(checks.check_small_influences_imply_globalness(d, r))
        rows.append(checks.check_square_globalness(d))
        for r in range(1, min(checks.rmax, 3) + 1):
            rows.append(checks.check_derivative_globalness_composite(d, r))
    for r in range(1, min(checks.rmax, 2) + 1):
        rows.append(checks.check_averaging_preserves_globalness(r))
    return [r for r in rows if r is not None]


def inequality_rows(checks: spectra.SchemeInstanceChecks) -> list:
    """The criterion-4 scheme rows."""
    rows = []
    for d in range(1, checks.dmax + 1):
        rows.append(checks.check_four_norm(d))
        rows.append(checks.check_level_weight_flexible(d))
        for ell in ELLS:
            rows.append(checks.check_ell_norm(d, ell))
            rows.append(checks.check_level_weight(d, ell))
            rows.append(checks.check_level_weight_from_pure_audit(d, ell))
            rows.append(checks.check_influence_level_weight(d, ell))
            rows.append(checks.check_lp_global_influences(d, ell))
    return [r for r in rows if r is not None]


def check_output(f, out):
    """None if the rows hold and the spectrum matches the naive path."""
    rows, spectrum = out
    bad = [r for r in rows if not r["holds"]]
    if bad:
        return f"{len(bad)} violated rows, first {bad[0]['inequality']}"
    if not rows:
        return "no rows"
    naive = f.domain.fourier_forward_naive(f.values)  # every domain here has N <= 2048
    resid = float(np.max(np.abs(spectrum.coefficients - naive)))
    if not resid < 1e-9:
        return f"spectrum deviates from the character matrix by {resid:.2e}"
    return None


def make_op(name: str, f, family: str, dmax: int, rmax: int) -> Op:
    rows_fn = equivalence_rows if family == "c3" else inequality_rows

    def run():
        checks = spectra.SchemeInstanceChecks(name, f, dmax, rmax)
        return rows_fn(checks), scheme.fourier_forward(f)

    return Op(name, run, lambda out: check_output(f, out))


def build_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for (q, n, m), ((dmax3, rmax3), n_c3, n_c4) in DOMAINS.items():
        ctx = scheme.get_scheme(q, n, m)
        d4 = min(2, n, m)
        for family, count, dmax, rmax in (("c3", n_c3, dmax3, rmax3), ("c4", n_c4, d4, d4)):
            for i in range(count):
                label, f = _instance(ctx, rng, i)
                ops.append(make_op(f"{family}:({q},{n},{m}):{label}", f, family, dmax, rmax))
    return ops
