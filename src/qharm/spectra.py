"""Convolution operators on tensor-rank levels, spectral bounds, mixing
experiments, and the inequality falsification batteries.

The operator T_f on a level V_{=d} is never built: on the isotypic block
of each irreducible rho in the level it is d_rho copies of the Fourier
coefficient rho_hat(f) = E_z f(z) rho(z), so its norm and tr(T* T) come
from one d_rho x d_rho matrix per irreducible (`groups.get_irreducibles`).
No level basis is built either: f_{=d} is f convolved by the level's
class function (`groups.level_kernel`), and a random element of a level
or of an isotypic component is the projection of a random function.

Every inequality check computes its pseudorandomness parameter epsilon
from an exact audit of the instance at hand: nothing is assumed, so
each check is a statement-level test of the inequality rather than a
vacuous constant comparison.  An instance builds each derived function
and audit once and reuses it in every check; audits run to the top
order, since an audit's row at order d does not depend on how far it
goes.  A scheme instance works on stacks: f^{=d} and f^{<=d} come from
one spectrum f_hat of f, f and its parts are audited as one stack, and
the influence audits of the parts come from f_hat too: one inverse
transform per pure part and site, the cumulative parts' Laplacians as
running sums of the pure ones.  E_U f comes for every direction U from
f_hat as well, and its refining maxima read the sites refining U from
rows the scheme keeps per direction.  A group instance audits the L^2
mass and both L^{ell'} norms of its transfer jf as one stack.
Violations are findings, returned in the rows, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogolyubov import GroupSet, product_set
from .calculus import avg_for_directions, blocks, direction_subspaces, filtered_inverses, laplacian_masks
from .errors import ConsistencyError, ToolkitError
from .fqlin import Memo
from .globality import (
    DEFAULT_ZETA,
    GlobalnessReport,
    GoodUmvirate,
    audit_row,
    global_audit,
    global_audits,
    laplacian_audits,
    refining_maxima,
    restriction_audits,
    set_global_audit,
)
from .groups import (
    GroupTable,
    convolve,
    get_characters,
    get_group,
    get_irreducibles,
    get_isotypic,
    isotypic_projector,
    level_kernel,
    level_project,
    level_project_eq,
    transfer,
)
from .scheme import FnTable, SchemeCtx, degree_project, get_scheme


# ---------------------------------------------------------------------------
# operator norms on V_{=d}
# ---------------------------------------------------------------------------

@dataclass
class OperatorNormRow:
    d: int
    norm: float
    trace_matrix: float
    trace_direct: float
    sx_bound: float
    m_d: int
    sx_holds: bool
    target_c: float
    target_bound: float
    empirical_c: float


def sarnak_xue_check(f: FnTable, d: int, c_report: float = 0.05) -> OperatorNormRow:
    """Trace identity tr(T* T) = ||f_{=d}||_2^2 (two computations) and the
    spectral bound ||T_f||_{V_=d} <= ||f_{=d}||_2 / sqrt(m_d).

    V_{=d} is the sum of the isotypic blocks of its irreducibles rho, and
    on each block T_f is d_rho copies of rho_hat(f) = E_z f(z) rho(z)
    (`groups.get_irreducibles`).  So the norm is the max over the
    irreducibles of ||rho_hat(f)||_2, and the trace side tr(T* T) is
    sum d_rho ||rho_hat(f)||_F^2, read off the representation tables; the
    direct side ||f_{=d}||_2^2 is the projection of f by the level's kernel,
    convolution by the class function Psi_{=d} read off the characters."""
    group: GroupTable = f.domain
    hats = [(irr.degree, irr.fourier(f.values)) for irr in get_irreducibles(group)[d]]
    norms = [np.linalg.norm(hat, 2) for _, hat in hats]
    norm = float(max(norms, default=0.0))  # ||T_f|| on V_{=d}
    trace_matrix = float(sum(degree * np.sum(np.abs(hat) ** 2) for degree, hat in hats))
    trace_direct = level_project_eq(f, d).norm2sq()
    iso = get_isotypic(group)
    m_d = iso.m_d.get(d, 0)
    sx_bound = float(np.sqrt(trace_direct / m_d)) if m_d else float("inf")
    mean = abs(f.mean())
    n = group.n
    target = float(group.q) ** (-c_report * d * n) * mean
    if norm > 1e-14 and mean > 1e-14 and d >= 1:
        emp_c = float(-np.log(norm / mean) / (np.log(group.q) * d * n))
    else:
        emp_c = float("inf")
    return OperatorNormRow(
        d,
        norm,
        trace_matrix,
        trace_direct,
        sx_bound,
        m_d,
        bool(norm <= sx_bound + 1e-9),
        c_report,
        target,
        emp_c,
    )


def level_invariance_residual(f: FnTable, d: int, rng: np.random.Generator) -> float:
    """max ||(T_f h)_{=d'}|| over d' != d for h = K_d r in V_{=d}, r a
    random real function."""
    group: GroupTable = f.domain
    h = FnTable(group, level_kernel(group, d) @ rng.standard_normal(group.size))
    th = convolve(f, h)
    worst = 0.0
    for dp in range(group.n + 1):
        if dp == d:
            continue
        worst = max(worst, np.sqrt(level_project_eq(th, dp).norm2sq()))
    return float(worst)


# ---------------------------------------------------------------------------
# mixing experiments
# ---------------------------------------------------------------------------

@dataclass
class MixingReport:
    """Exact mixing quantities plus reported (never asserted) targets.

    The q^{-n/4} and q^{-n/5} deviation targets assume density
    hypotheses with unspecified constants that desk-scale n need not
    satisfy, so they appear here as ratios only; pass/fail rests on the
    exact decomposition identity.
    """

    deviation: float  # ||f*g - E[f]E[g]||_2
    per_level: list[float]  # ||T_f(g_{=d})||_2 for d >= 1
    decomposition_residual: float
    bound: float  # q^{-n/4} E[f] E[g], reported not asserted
    bound_ratio: float
    triple: float | None = None
    triple_deviation: float | None = None
    triple_bound: float | None = None
    covers: bool | None = None  # ABC = G (product mixing only)


def mixing_experiment(a: GroupSet, b: GroupSet) -> MixingReport:
    """Exact f*g against E[f]E[g] with the orthogonal level decomposition."""
    if a.size == 0 or b.size == 0:
        raise ToolkitError("mixing experiment requires nonempty sets")
    group = a.group
    f = group.indicator(a.ordinals)
    g = group.indicator(b.ordinals)
    conv = convolve(f, g)
    mean_term = f.mean().real * g.mean().real
    dev = float(np.sqrt(np.mean(np.abs(conv.values - mean_term) ** 2)))
    # f * g_{=d} = (f * g)_{=d}: the level projection is convolution by the
    # class function Psi_{=d}, which commutes with every convolution
    per_level = [float(np.sqrt(level_project_eq(conv, d).norm2sq())) for d in range(1, group.n + 1)]
    resid = abs(dev**2 - sum(x**2 for x in per_level))
    bound = float(group.q) ** (-group.n / 4) * mean_term
    return MixingReport(
        dev,
        per_level,
        float(resid),
        bound,
        float(dev / bound) if bound > 0 else float("inf"),
    )


def product_mixing(a: GroupSet, b: GroupSet, c: GroupSet) -> MixingReport:
    """Triple correlation <f*g, h> against E[f]E[g]E[h], with the level
    decomposition and the exact product-set covering verdict."""
    if min(a.size, b.size, c.size) == 0:
        raise ToolkitError("product mixing requires nonempty sets")
    group = a.group
    f = group.indicator(a.ordinals)
    g = group.indicator(b.ordinals)
    h = group.indicator(c.ordinals)
    conv = convolve(f, g)
    triple = float(conv.inner(h).real)
    means = f.mean().real * g.mean().real * h.mean().real
    dev = abs(triple - means)
    # <f * g_{=d}, h_{=d}> = <(f * g)_{=d}, h>: the level kernel K_d is a
    # self-adjoint idempotent
    per_level = [float(level_project_eq(conv, d).inner(h).real) for d in range(1, group.n + 1)]
    resid = abs(triple - (means + sum(per_level)))
    abc = product_set(product_set(a, b), c)
    bound = float(group.q) ** (-group.n / 5) * means
    return MixingReport(
        dev,
        per_level,
        float(resid),
        bound,
        float(dev / bound) if bound > 0 else float("inf"),
        triple=triple,
        triple_deviation=dev,
        triple_bound=bound,
        covers=bool(abc.size == group.size),
    )


@dataclass
class ProductFreeReport:
    product_free: bool
    witness_collision: tuple | None
    audit: GlobalnessReport | None
    best_bump_order: int | None
    best_bump_ratio: float | None


def product_free_witness(a: GroupSet) -> ProductFreeReport:
    """Exact product-freeness check; for product-free sets, the umvirate
    density audit locates where the set concentrates."""
    group = a.group
    prods = group.mul_table()[np.ix_(a.ordinals, a.ordinals)]
    hit = a.mask()[prods]
    if hit.any():
        # the first x y in A, x then y in increasing order
        i, j = np.unravel_index(np.argmax(hit), hit.shape)
        return ProductFreeReport(False, (int(a.ordinals[i]), int(a.ordinals[j]), int(prods[i, j])), None, None, None)
    res = set_global_audit(group, a.ordinals)
    best_order, best_ratio = 0, 1.0
    for row in res.report.rows:
        if row.order >= 1 and row.value > best_ratio:
            best_order, best_ratio = row.order, row.value
    return ProductFreeReport(True, None, res.report, best_order, best_ratio)


# ---------------------------------------------------------------------------
# inequality batteries
# ---------------------------------------------------------------------------

def _row(instance, name, lhs, rhs, **extra):
    # inf * 0 from an overflowed constant times a zero epsilon power means a
    # finite-but-huge bound on an identically-zero quantity: treat as 0.
    if np.isnan(rhs):
        rhs = 0.0
    margin = rhs - lhs
    return {
        "instance": instance,
        "inequality": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "margin": float(margin),
        "holds": bool(lhs <= rhs + 1e-9),
        **extra,
    }


def _qpow(q: float, e: float) -> float:
    # the stated constants overflow float64 long before they bind
    if e * np.log10(q) > 300:
        return float("inf")
    return float(q) ** e


# ell' = ell / (ell - 1) for the ell = 4 and 8 that the inequality batteries check
_LP_EXPONENTS = (4 / 3, 8 / 7)


class _InstanceChecks(Memo):
    """A function under test whose derived functions and audit reports are
    memo entries, each built once; audits run to the top order, self.top."""

    def __init__(self, name: str, f: FnTable):
        self.name = name
        self.f = f
        self.q = f.domain.q
        self.is_boolean = bool(
            np.all(np.abs(f.values.imag) < 1e-12)
            and np.all(np.abs(f.values.real * (f.values.real - 1)) < 1e-9)
        )

    def _lp_global(self, ellp: float) -> GlobalnessReport:
        """L^{ell'} audit to self.top for an ell' of _LP_EXPONENTS, read from
        the subclass's one stacked audit of every such ell', _lp_stack()."""
        return self._lp_stack()[ellp]


class SchemeInstanceChecks(_InstanceChecks):
    """All scheme-side inequality checks for one function, computed as stacks.

    The stacked functions are f and its parts ("pure", d) = f^{=d} and
    ("cum", d) = f^{<=d}, d = 1..dmax, which all come from the one spectrum
    f_hat of f and one batched inverse.  The first global audit audits f
    and every part as one stack, and the first L^{ell'} audit audits f for
    both ell' of _LP_EXPONENTS as a stack of two.  The influence audits of
    the parts come from f_hat as well, with one inverse transform per pure
    part and site (_influence_stack); the line Laplacians L_U f^{=d} are
    its order-1 Laplacians.  E_U f comes for every direction U at once
    from f_hat, which the instance keeps, and one spectrum of dualize(f)
    (calculus.avg_for_directions), so f is transformed once per instance.
    The refining maxima gather each direction's sites through the rows the
    scheme builds once per direction and order (globality.refining_maxima).
    The parts, the global and L^{ell'} audits, E_U f and the refining maxima
    equal, bit for bit, those of the per-function and per-site paths that
    tests/oracles.py keeps as the reference; the influence audits and line
    Laplacians agree with it to rounding.
    """

    def __init__(self, name: str, f: FnTable, dmax: int, rmax: int):
        super().__init__(name, f)
        self.ctx: SchemeCtx = f.domain
        self.dmax = min(dmax, self.ctx.n, self.ctx.m)
        self.rmax = min(rmax, self.ctx.n + self.ctx.m)
        self.top = max(self.dmax, self.rmax)
        self.directions = direction_subspaces(self.ctx)
        degrees = range(1, self.dmax + 1)
        self.part_names = [("pure", d) for d in degrees] + [("cum", d) for d in degrees]
        ranks = self.ctx.rank_table_dual()
        masks = [ranks == d for d in degrees] + [ranks <= d for d in degrees]
        self.spectrum = self.ctx.fourier_forward(f.values)
        parts = filtered_inverses(self.ctx, self.spectrum, masks)
        self.pure_spectra = self.spectrum * np.stack(masks[:self.dmax])
        self.functions = {"f": f, **{key: FnTable(self.ctx, part) for key, part in zip(self.part_names, parts)}}

    def pure(self, d: int) -> FnTable:
        return self.functions[("pure", d)]

    def cum(self, d: int) -> FnTable:
        return self.functions[("cum", d)]

    def _global(self, key) -> GlobalnessReport:
        """Global audit of the stacked function named key, to self.top."""
        names = ["f"] + self.part_names
        return self.memo("global", lambda: dict(zip(names, global_audits(
            [self.functions[k] for k in names], [range(self.top + 1)] * len(names)))))[key]

    def _lp_stack(self) -> dict:
        return self.memo("lp", lambda: dict(zip(_LP_EXPONENTS, restriction_audits(
            [self.f] * len(_LP_EXPONENTS), [range(self.top + 1)] * len(_LP_EXPONENTS), _LP_EXPONENTS))))

    def _square_global(self, d: int) -> GlobalnessReport:
        """Global audit of (f^{<=d})^2 at order 2d alone, for every d <= dmax
        with 2d <= n + m as one stack."""

        def build():
            ds = [e for e in range(1, self.dmax + 1) if 2 * e <= self.ctx.n + self.ctx.m]
            squares = [FnTable(self.ctx, self.cum(e).values * self.cum(e).values) for e in ds]
            return dict(zip(ds, global_audits(squares, [range(2 * e, 2 * e + 1) for e in ds])))

        return self.memo("square", build)[d]

    def _influence_stack(self):
        """(influence audit of each part to its own degree, by name; L_U f^{=d}
        for the direction U of each order-1 site, by d), from the pure
        parts' spectra f_hat [rank = d].

        An order-o Laplacian mask keeps only dual indices of rank >= o, so at
        an order-o site L f^{<=D} = sum over e = o..D of L f^{=e}.  Per block
        of sites, each f^{=e} with e >= o is inverse-transformed once per
        site, and the Laplacians of the f^{<=e} are the running sums of
        those pure ones in the same block.  The order-0 mask keeps every X,
        so the order-0 rows are read off the parts' values.  At order d,
        f^{<=d} has the Laplacians of f^{=d}, so its order-d row is f^{=d}'s
        value and witness with its own threshold.  The line Laplacians are
        the order-1 Laplacians of the pure parts."""

        def build():
            ctx = self.ctx
            degrees = range(1, self.dmax + 1)
            # f^{<=1}, f^{=1}, f^{<=2}, ...: f^{<=e} is audited to order e - 1,
            # so at order o the live parts are f^{=o}, f^{<=o+1}, f^{=o+1}, ...,
            # the order of a block's Laplacians with L f^{<=o} left out
            names = [(kind, d) for d in degrees for kind in ("cum", "pure")]
            fs = [self.functions[k] for k in names]
            lines = {d: np.empty((len(ctx.restriction_pairs(1)), ctx.size), dtype=np.complex128) for d in degrees}

            def laplacians(order, live):
                if order == 0:
                    for funcs, _ in blocks(len(live), 1, ctx.size):
                        yield funcs, 0, np.array([fs[i].values for i in live[funcs]])[:, None]
                    return
                masks = laplacian_masks(ctx, order)
                spectra = self.pure_spectra[order - 1:, None, :]
                for _, sites in blocks(1, len(masks), 2 * len(spectra) * ctx.size):
                    total = 0
                    # the pure rows split only when one site's rows pass the bound
                    for rows, _ in blocks(len(spectra), 1, 2 * len(masks[sites]) * ctx.size):
                        # laps[j] = (L f^{<=e}, L f^{=e}), e = order + rows.start + j
                        laps = np.empty((len(spectra[rows]), 2, len(masks[sites]), ctx.size), dtype=np.complex128)
                        laps[:, 1] = ctx.fourier_inverse(spectra[rows] * masks[sites])
                        np.cumsum(laps[:, 1], axis=0, out=laps[:, 0])
                        laps[:, 0] += total
                        total = laps[-1, 0]
                        if order == 1:
                            for d, lap in zip(degrees[rows], laps[:, 1]):
                                lines[d][sites] = lap
                        skip = int(rows.start == 0)  # f^{<=order}, not live
                        yield (slice(2 * rows.start - 1 + skip, 2 * rows.stop - 1), sites.start,
                               laps.reshape(-1, *laps.shape[2:])[skip:])

            orders = [range(d + 1) if kind == "pure" else range(d) for kind, d in names]
            reports = dict(zip(names, laplacian_audits(fs, orders, laplacians)))
            for d in degrees:
                row, base = reports[("pure", d)].rows[d], self.cum(d).norm2sq()
                reports[("cum", d)].rows.append(audit_row(ctx, d, row.value, row.witness, base, DEFAULT_ZETA))
            return reports, lines

        return self.memo("influence", build)

    def _influences(self, key) -> GlobalnessReport:
        """Influence audit of the part named ("cum", d) or ("pure", d), to order d."""
        return self._influence_stack()[0][key]

    def averages(self) -> list[FnTable]:
        """E_U f for each direction U of self.directions, from f_hat."""
        return self.memo("averages", lambda: avg_for_directions(self.f, self.directions, self.spectrum))

    def _averaged_refining_max(self, order: int) -> float:
        """Max over the directions U of the max restriction mass of E_U f over
        the order-`order` sites refining U."""
        return float(np.max(refining_maxima(self.averages(), self.directions, order), initial=-1.0))

    def _line_refining_max(self, d: int, order: int) -> float:
        """Max over the directions U of the max restriction mass of L_U f^{=d}
        over the order-`order` sites refining U, and at least 0.  The order-1
        sites are the lines V' with W' = W and the hyperplanes W' with V' = 0."""
        lines = [FnTable(self.ctx, lap) for lap in self._influence_stack()[1][d]]
        directions = [(vp, "v") if vp.dim == 1 else (wp, "w") for vp, wp in self.ctx.restriction_pairs(1)]
        return float(np.max(refining_maxima(lines, directions, order), initial=0.0))

    # -- criterion-3 family: influence/globalness equivalences ---------------

    def check_globalness_implies_small_influences(self, d: int):
        """(d,eps)-global f  =>  f^{=d} has (d, q^{10 d^2} eps)-small influences."""
        eps = self._global("f").value_at(d)
        inf = self._influences(("pure", d)).max_upto(d)
        return _row(self.name, f"global->influences(d={d})", inf, _qpow(self.q, 10 * d * d) * eps)

    def check_small_influences_imply_globalness(self, d: int, r: int):
        """degree-d with (d,eps)-small influences  =>  (r, q^{10 d r} eps)-global."""
        influences = self._influences(("cum", d))
        val = self._global(("cum", d)).value_at(r)
        return _row(self.name, f"influences->global(d={d},r={r})", val, _qpow(self.q, 10 * d * r) * influences.max_upto(d))

    def check_averaging_preserves_globalness(self, r: int):
        """E_U(f)_{U->T} stays (r, 2 eps)-global; the r-restrictions over all
        T are the order-(r+1) restrictions of E_U(f) refining U."""
        eps = self._global("f").value_at(r)
        worst = self._averaged_refining_max(r + 1)
        return _row(self.name, f"avg-restriction-global(r={r})", worst, 2 * eps)

    def check_derivative_globalness_composite(self, d: int, r: int):
        """pure degree d: r-globalness from (r-1)-globalness of f and its
        order-1 derivatives, with factor 2 eps1 + 4 q^{2d} eps2.

        The (r-1)-restrictions of D_{U,T}(f) over all T are the order-r
        restrictions of the Laplacian L_U(f) refining U."""
        fd = self.pure(d)
        if fd.norm2sq() < 1e-18:
            return None
        eps1 = self._line_refining_max(d, r)
        rep = self._global(("pure", d))
        eps2 = rep.value_at(r - 1)
        val = rep.value_at(r)
        rhs = 2 * eps1 + 4 * _qpow(self.q, 2 * d) * eps2
        return _row(self.name, f"derivative-global(d={d},r={r})", val, rhs)

    def check_square_globalness(self, d: int):
        """(d,eps)-global of degree d  =>  square is (2d, q^{144 d^2} eps^2)-global."""
        if 2 * d > self.ctx.n + self.ctx.m:
            return None
        eps = self._global(("cum", d)).value_at(d)
        val = self._square_global(d).value_at(2 * d)
        return _row(self.name, f"square-global(d={d})", val, _qpow(self.q, 144 * d * d) * eps**2)

    # -- criterion-4 family: hypercontractive and level inequalities ---------

    def check_four_norm(self, d: int):
        """degree <= d with (d,eps)-small influences: ||f||_4^4 <= q^{103 d^2} eps ||f||_2^2."""
        g = self.cum(d)
        eps = self._influences(("cum", d)).max_upto(d)
        return _row(
            self.name,
            f"four-norm(d={d})",
            g.lp_power(4),
            _qpow(self.q, 103 * d * d) * eps * g.norm2sq(),
        )

    def check_ell_norm(self, d: int, ell: int):
        """degree d, (d,eps)-global: ||f||_ell^ell <= q^{200 d^2 ell^2} ||f||_2^2 eps^{ell/2-1}."""
        g = self.cum(d)
        eps = self._global(("cum", d)).value_at(d)
        rhs = _qpow(self.q, 200 * d * d * ell * ell) * g.norm2sq() * eps ** (ell / 2 - 1)
        return _row(self.name, f"ell-norm(d={d},ell={ell})", g.lp_power(ell), rhs)

    def check_level_weight(self, d: int, ell: int):
        """Boolean (d,eps)-global: ||f^{=d}||_2^2 <= q^{460 d^2 ell} E[f] eps^{1-2/ell}."""
        if not self.is_boolean:
            return None
        eps = self._global("f").value_at(d)
        rhs = _qpow(self.q, 460 * d * d * ell) * self.f.mean().real * eps ** (1 - 2 / ell)
        return _row(self.name, f"level-weight(d={d},ell={ell})", self.pure(d).norm2sq(), rhs)

    def check_level_weight_from_pure_audit(self, d: int, ell: int):
        """f^{=d} (d,eps)-global: ||f^{=d}||_2^2 <= q^{300 d^2 ell} eps^{(ell-2)/(2ell-2)} ||f||_{l'}^{l'}."""
        fd = self.pure(d)
        eps = self._global(("pure", d)).value_at(d)
        ellp = ell / (ell - 1)
        rhs = (
            _qpow(self.q, 300 * d * d * ell)
            * eps ** ((ell - 2) / (2 * ell - 2))
            * self.f.lp_power(ellp)
        )
        return _row(self.name, f"level-weight-pure(d={d},ell={ell})", fd.norm2sq(), rhs)

    def check_level_weight_flexible(self, d: int):
        """Boolean (d,eps)-global with eps >= q^{-t^2}: ||f^{=d}||^2 <= q^{922 d t} eps E[f]."""
        if not self.is_boolean:
            return None
        eps = self._global("f").value_at(d)
        if eps <= 0:
            return None
        t = float(np.sqrt(max(np.log(1 / eps) / np.log(self.q), 0.0)))
        rhs = _qpow(self.q, 922 * d * t) * eps * self.f.mean().real
        return _row(self.name, f"level-weight-flex(d={d})", self.pure(d).norm2sq(), rhs, t=t)

    def check_influence_level_weight(self, d: int, ell: int):
        """f^{=d} with (d, beta ||f^{=d}||^2)-small influences:
        ||f^{=d}||^2 <= q^{420 d^2 ell} beta^{1-2/ell} ||f||_{l'}^2."""
        fd = self.pure(d)
        base = fd.norm2sq()
        if base < 1e-14:
            return None
        beta = self._influences(("pure", d)).max_upto(d) / base
        if beta < 1 - 1e-9:  # the order-0 row is ||f^{=d}||^2 itself
            raise ConsistencyError(f"influence audit of f^{{={d}}} below its squared norm: beta = {beta}")
        ellp = ell / (ell - 1)
        rhs = _qpow(self.q, 420 * d * d * ell) * beta ** (1 - 2 / ell) * self.f.lp_norm(ellp) ** 2
        return _row(self.name, f"influence-level(d={d},ell={ell})", base, rhs)

    def check_lp_global_influences(self, d: int, ell: int):
        """(d,eps,L^{l'})-global: f^{=d} has (d, q^{500 d^2 ell} eps^2)-small influences."""
        ellp = ell / (ell - 1)
        eps = self._lp_global(ellp).value_at(d)
        inf = self._influences(("pure", d)).max_upto(d)
        return _row(
            self.name,
            f"lp-global-influences(d={d},ell={ell})",
            inf,
            _qpow(self.q, 500 * d * d * ell) * eps**2,
        )


class GroupInstanceChecks(_InstanceChecks):
    """Tensor-rank level inequality checks for one function on SL/GL."""

    def __init__(self, name: str, f: FnTable, dmax: int):
        super().__init__(name, f)
        self.group: GroupTable = f.domain
        self.dmax = min(dmax, self.group.n)
        self.top = self.dmax
        self.jf = transfer(f)

    def _audits(self) -> dict:
        """jf's L^2 mass audit (key None) and its L^{ell'} audits for every
        ell' of _LP_EXPONENTS, to self.top, as one stack."""
        keys = (None, *_LP_EXPONENTS)
        return self.memo("audits", lambda: dict(zip(keys, restriction_audits(
            [self.jf] * len(keys), [range(self.top + 1)] * len(keys), keys))))

    def _global(self) -> GlobalnessReport:
        return self._audits()[None]

    def _lp_stack(self) -> dict:
        return self._audits()

    def _level(self, d: int) -> FnTable:
        """f_{<=d}, one projection for every check that reads it."""
        return self.memo(("level", d), lambda: level_project(self.f, d))

    def _level_weight_row(self, family: str, constant: int, d: int, ell: int):
        """(d,eps,L^{l'})-global on G: level weight bounded by
        q^{constant d^2 ell} ||f||_{l'}^{l'} eps^{(ell-2)/(ell-1)}."""
        ellp = ell / (ell - 1)
        eps = self._lp_global(ellp).value_at(d)
        rhs = _qpow(self.q, constant * d * d * ell) * self.f.lp_power(ellp) * eps ** ((ell - 2) / (ell - 1))
        return _row(self.name, f"{family}(d={d},ell={ell})", self._level(d).norm2sq(), rhs)

    def check_strict_level_weight(self, d: int, ell: int):
        """Strict-level weight with the constant 461."""
        return self._level_weight_row("strict-level-weight", 461, d, ell)

    def check_tensor_level_weight(self, d: int, ell: int):
        """Tensor-rank version with the q-1 character factor folded into 462.
        On a group inside SL_n every determinant character is trivial, so the
        tensor-rank levels are the strict ones; elsewhere they are not built."""
        if np.any(self.group.dets != 1):
            raise ToolkitError(f"tensor-rank levels are built only inside SL_n: {self.group!r} "
                               f"has elements of determinant != 1")
        return self._level_weight_row("tensor-level-weight", 462, d, ell)

    def check_flexible_level_weight(self, d: int):
        """Boolean global: ||f_{<=d}||^2 <= q^{926 d t} E[f] eps, eps >= q^{-t^2}."""
        if not self.is_boolean:
            return None
        eps = self._global().value_at(d)
        if eps <= 0:
            return None
        t = float(np.sqrt(max(np.log(1 / eps) / np.log(self.q), 0.0)))
        rhs = _qpow(self.q, 926 * d * t) * self.f.mean().real * eps
        return _row(self.name, f"flexible-level-weight(d={d})", self._level(d).norm2sq(), rhs, t=t)


def bonami_isotypic_rows(group: GroupTable, rng: np.random.Generator):
    """Bonami bound q^{1212 d^2 ell^2}, ell = 4 and 8, for two random
    functions inside each isotypic component of tensor rank d, with
    epsilon audited exactly.  Each function is P_rho r for a random complex
    r, P_rho the projector onto the component (`groups.isotypic_projector`)."""
    levels = get_characters(group).levels
    rows = []
    for d in range(1, group.n + 1):
        for bi, i in enumerate(np.flatnonzero(levels == d)):
            project = isotypic_projector(group, i)
            for rep in range(2):
                f = FnTable(group, project(rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)))
                jf = transfer(f)
                eps = global_audit(jf, d).value_at(d)
                for ell in (4, 8):
                    lhs = f.lp_power(ell)
                    rhs = _qpow(group.q, 1212 * d * d * ell * ell) * f.norm2sq() * eps ** (ell / 2 - 1)
                    rows.append(
                        _row(f"{group!r}:iso(d={d},block={bi},rep={rep})", f"bonami-isotypic(ell={ell})", lhs, rhs)
                    )
    return rows


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def scheme_corpus(ctx: SchemeCtx, rng: np.random.Generator, n_boolean: int, n_degree: int):
    """Named instances: Boolean at a density grid, umvirate-concentrated
    adversarial sets, and random functions projected to degree <= 2."""
    out = []
    densities = [0.5, 0.25, 0.125]
    for i in range(n_boolean):
        dens = densities[i % len(densities)]
        vals = (rng.random(ctx.size) < dens).astype(float)
        if i % 4 == 3:
            # adversarial: concentrate extra mass on a coset of a 1-restriction site
            vp, wp = ctx.restriction_pairs(1)[int(rng.integers(len(ctx.restriction_pairs(1))))]
            _, members = ctx.site_cosets(vp, wp)
            vals[members[int(rng.integers(members.shape[0]))]] = 1.0
        if not vals.any():
            vals[int(rng.integers(ctx.size))] = 1.0
        out.append((f"{ctx!r}:bool{i}(p={dens})", FnTable(ctx, vals.astype(np.complex128)), "boolean"))
    dmax = min(2, ctx.n, ctx.m)
    for i in range(n_degree):
        f = FnTable(ctx, rng.standard_normal(ctx.size).astype(np.complex128))
        g = degree_project(f, dmax, "cumulative")
        out.append((f"{ctx!r}:deg{i}(<= {dmax})", g, "degree"))
    return out


def group_set_corpus(group: GroupTable, rng: np.random.Generator, n_sets: int):
    """Boolean sets on a group: density grid plus umvirate-concentrated ones."""
    out = []
    densities = [0.5, 0.25, 0.125]
    for i in range(n_sets):
        dens = densities[i % len(densities)]
        mask = rng.random(group.size) < dens
        if i % 3 == 2 and group.n >= 2:
            k = 1
            gu = GoodUmvirate(group, k, int(rng.integers(group.size)), int(rng.integers(group.size)))
            mask[gu.members()] = True
        if not mask.any():
            mask[int(rng.integers(group.size))] = True
        out.append((f"{group!r}:set{i}(p={dens})", np.flatnonzero(mask)))
    return out


# ---------------------------------------------------------------------------
# suite drivers
# ---------------------------------------------------------------------------

def equivalence_suite() -> list[dict]:
    """Criterion family: influence/globalness equivalences on the scheme."""
    rng = np.random.default_rng(0)
    rows = []
    # (q, n, m, n_boolean, n_degree, dmax, rmax)
    for q, n, m, nb, nd, dmax, rmax in [(2, 2, 2, 120, 120, 2, 3), (3, 2, 2, 50, 50, 2, 3), (2, 3, 3, 30, 30, 3, 3)]:
        ctx = get_scheme(q, n, m)
        for name, f, kind in scheme_corpus(ctx, rng, nb, nd):
            checks = SchemeInstanceChecks(name, f, dmax, rmax)
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


def scheme_inequality_suite() -> list[dict]:
    """Criterion family: hypercontractivity and level inequalities on the scheme."""
    rng = np.random.default_rng(1)
    rows = []
    # (q, n, m, n_boolean, n_degree)
    for q, n, m, nb, nd in [(2, 2, 2, 80, 25), (3, 2, 2, 55, 15), (2, 3, 3, 35, 12), (5, 2, 2, 25, 8)]:
        ctx = get_scheme(q, n, m)
        for name, f, kind in scheme_corpus(ctx, rng, nb, nd):
            checks = SchemeInstanceChecks(name, f, min(2, n, m), min(2, n, m))
            for d in range(1, checks.dmax + 1):
                rows.append(checks.check_four_norm(d))
                rows.append(checks.check_level_weight_flexible(d))
                for ell in (4, 8):
                    rows.append(checks.check_ell_norm(d, ell))
                    rows.append(checks.check_level_weight(d, ell))
                    rows.append(checks.check_level_weight_from_pure_audit(d, ell))
                    rows.append(checks.check_influence_level_weight(d, ell))
                    rows.append(checks.check_lp_global_influences(d, ell))
    return [r for r in rows if r is not None]


def group_inequality_suite() -> list[dict]:
    """Criterion family: tensor-rank level inequalities on SL/GL.  Each
    group's set corpus and Bonami functions come from generators of their
    own, so a change to the draws of one leaves the rows of the others."""
    rows = []
    for i, (kind, n, q) in enumerate([("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2)]):
        group = get_group(kind, n, q)
        for name, ordinals in group_set_corpus(group, np.random.default_rng([2, i, 0]), 40):
            f = group.indicator(ordinals)
            checks = GroupInstanceChecks(name, f, 2)
            for d in range(1, checks.dmax + 1):
                rows.append(checks.check_flexible_level_weight(d))
                for ell in (4, 8):
                    rows.append(checks.check_strict_level_weight(d, ell))
                    rows.append(checks.check_tensor_level_weight(d, ell))
        rows.extend(bonami_isotypic_rows(group, np.random.default_rng([2, i, 1])))
    return [r for r in rows if r is not None]


def violations(rows: list[dict]) -> list[dict]:
    return [r for r in rows if not r["holds"]]
