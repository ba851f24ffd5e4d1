"""Globalness audits and the umvirate machinery.

Audits are exhaustive: every restriction site (scheme audits) or
constraint system (set audits on a group) at each order is enumerated,
the exact maximum is reported with a lexicographically-least witness,
and pass/fail is judged against a threshold set by zeta.  Scheme audits
run on stacks of functions of one scheme (restriction_audits, whose
rows may mix L^2 masses and L^{ell'} norms, and laplacian_audits, fed
the site Laplacians by SchemeCtx.filtered), each block of sites of one
coset shape gathered and averaged once for the whole stack; the
one-function entry points are the stacks of one, and a function's rows
never depend on the rest of its stack.  A row's witness is the first
site whose max is within a relative 1e-15 of the order's maximum, the
least of the sites that tie up to rounding.  refining_maxima reads each
function at the sites refining its own direction alone.
Index arrays that depend only on the scheme (site stacks, the refining
rows of a direction) are memo entries of the scheme, built once; a call
builds only its functions' values.

Set audits read the mixed umvirates as the cells of the group's
dictator-system table: a row system (g v = w) met with a functional
system (g^T phi = psi), each an echelon basis with independent
targets; redundant systems repeat a lower-order ratio against a weaker
threshold and can never be the binding case.  An `Umvirate` is the
view of one cell, and the only umvirate that the normal form, the
partition and the bump search take.

The second half implements the block normal form of umvirates, the
partition of an umvirate into good umvirates (cosets g L_k h of the
block subgroup L_k), and the density-bump search that restricts a set
inside good umvirates until it becomes global relative to one.  A bump
step reads all its pieces g_i L_k h_i from one gather of the
multiplication table (coset_rows) and accumulates its coset as ordinals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import laplacian_masks
from .errors import ConsistencyError, ToolkitError
from .fqlin import (
    IndexMap,
    Subspace,
    complete_basis,
    decode_vector,
    det,
    inv_matrix,
    mat_mul,
    rank,
    rref,
)
from .gf import FieldCtx
from .groups import GroupTable, get_group
from .scheme import FnTable, SchemeCtx, blocks, mean_last_axis, scheme_of

DEFAULT_ZETA = 0.01


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    order: int
    value: float
    witness: str
    threshold: float
    passed: bool


@dataclass
class GlobalnessReport:
    kind: str
    rows: list[ReportRow]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def value_at(self, order: int) -> float:
        for r in self.rows:
            if r.order == order:
                return r.value
        raise ToolkitError(f"no row at order {order}")

    def max_upto(self, order: int) -> float:
        vals = [r.value for r in self.rows if r.order <= order]
        if not vals:
            raise ToolkitError(f"no rows up to order {order}")
        return max(vals)

    def as_rows(self) -> list[dict]:
        return [
            {
                "order": r.order,
                "max": r.value,
                "witness": r.witness,
                "threshold": r.threshold,
                "pass": r.passed,
            }
            for r in self.rows
        ]


def _site_witness(pair_idx: int, vp: Subspace, wp: Subspace, rep: int) -> str:
    return f"site#{pair_idx}(dimV'={vp.dim},dimW'={wp.dim})@T={rep}"


def _orders(dmax: int) -> range:
    """Orders 0..dmax of an audit to order dmax."""
    if dmax < 0:
        raise ToolkitError(f"audit order dmax={dmax} must be >= 0")
    return range(dmax + 1)


def check_threshold(zeta: float | None = None, r: float | None = None) -> None:
    """Refuse a zeta that is not finite or is negative, and an r that is
    NaN or below 1; None is not checked.  A NaN threshold fails every
    order of an audit but passes every order of the bump search, and
    r < 1 makes even all of G violate, so the search would step with no
    gain."""
    if zeta is not None and not (math.isfinite(zeta) and zeta >= 0):
        raise ToolkitError(f"zeta={zeta} must be finite and >= 0")
    if r is not None and not r >= 1:
        raise ToolkitError(f"r={r} must be >= 1")


def audit_row(ctx: SchemeCtx, order: int, value: float, witness: str, base: float, zeta: float | None) -> ReportRow:
    """The row of a scheme audit at `order` whose value is `value`: the
    threshold is q^{zeta order n} base, base the squared 2-norm of the
    audited function, or inf when zeta is None."""
    thr = float("inf") if zeta is None else float(ctx.q) ** (zeta * order * ctx.n) * base
    return ReportRow(order, value, witness, thr, bool(value <= thr + 1e-12))


def _audit_rows(fs: list[FnTable], orders, order_chunks, zetas, kinds) -> list[GlobalnessReport]:
    """One report per function of fs, of kind kinds[i], with a row for each
    order of orders[i] for fs[i].

    order_chunks(d, live) covers the sites of restriction_pairs(d) for the
    functions fs[live], live the ascending list of the i with d in orders[i].
    It yields (funcs, positions, values): values (K, S, R) holds, for the
    functions fs[live[funcs]], the value at each coset of the sites at
    positions (S,), cosets in site_cosets order; together the chunks cover
    every (function, site) pair once.  A site's max is taken at its first
    argmax, and the row's witness is the first site, in restriction_pairs
    order, whose max is within a relative 1e-15 of the largest, so sites
    that tie up to rounding give the least one at any scale.
    The rows of fs[i] take the thresholds of zetas[i] (audit_row).  A row
    depends on its own function and order alone, so the first d + 1 rows of
    an audit to any order D >= d equal the rows of the audit to order d
    exactly, whatever else the stack holds."""
    ctx = scheme_of(fs[0])
    for zeta in zetas:
        check_threshold(zeta)
    all_orders = sorted(set().union(*orders))
    top = max(all_orders, default=0)
    if top > ctx.n + ctx.m:
        raise ToolkitError(f"dmax={top} too large for {ctx!r}")
    ctx.check_site_orders(all_orders)  # refuse an oversized order before any audit work
    reports = [GlobalnessReport(kind, []) for kind in kinds]
    bases = [f.norm2sq() for f in fs]
    for d in all_orders:
        live = [i for i, o in enumerate(orders) if d in o]
        pairs = ctx.restriction_pairs(d)
        maxima = np.empty((len(live), len(pairs)))
        cosets = np.empty((len(live), len(pairs)), dtype=np.int64)
        for funcs, positions, values in order_chunks(d, live):
            maxima[funcs, positions] = values.max(axis=-1)
            cosets[funcs, positions] = values.argmax(axis=-1)
        tops = maxima.max(axis=1, keepdims=True)
        ats = np.argmax(maxima >= tops - 1e-15 * tops, axis=1).tolist()
        for k, (i, at) in enumerate(zip(live, ats)):
            best = float(maxima[k, at])
            witness = _site_witness(at, *pairs[at], int(ctx.site_cosets(*pairs[at])[0][cosets[k, at]]))
            reports[i].rows.append(audit_row(ctx, d, best, witness, bases[i], zetas[i]))
    return reports


def restriction_audits(fs: list[FnTable], orders, ellps, zeta: float = DEFAULT_ZETA) -> list[GlobalnessReport]:
    """Restriction audits of the functions of fs, all on one scheme, fs[i] at
    the orders of orders[i], as one stack: each block of sites of one coset
    shape is gathered (np.take along axis 1, so it is C-contiguous and each
    mean is the one of a single site) and averaged once for the whole stack.

    fs[i] is audited for its masses ||f_{(V',W')->T}||_2^2 against the zeta
    thresholds when ellps[i] is None, and for its norms
    ||f_{(V',W')->T}||_{ell'} with no threshold (every row passes) when
    ellps[i] = ell' >= 1.  A report's rows equal the rows of that
    function's own global_audit or lp_global_audit at the same orders."""
    ctx = scheme_of(fs[0])
    if any(ellp is not None and ellp < 1 for ellp in ellps):
        raise ToolkitError("ell' must be >= 1")
    values = np.array([np.abs(f.values) ** (2 if ellp is None else ellp) for f, ellp in zip(fs, ellps)])
    roots = [None if ellp is None else 1.0 / ellp for ellp in ellps]

    def order_chunks(d, live):
        rows = values if len(live) == len(values) else values[live]
        live_roots = [roots[i] for i in live]
        for stack in ctx.site_stacks(d):
            for funcs, sites in blocks(len(live), len(stack.positions), ctx.size):
                means = mean_last_axis(rows[funcs].take(stack.members[sites], axis=1))
                for k, root in enumerate(live_roots[funcs]):
                    if root is not None:
                        means[k] **= root
                yield funcs, stack.positions[sites], means

    return _audit_rows(fs, orders, order_chunks, [zeta if ellp is None else None for ellp in ellps],
                       ["restriction-norm2" if ellp is None else f"restriction-L{ellp}" for ellp in ellps])


def global_audits(fs: list[FnTable], orders, zeta: float = DEFAULT_ZETA) -> list[GlobalnessReport]:
    """Restriction-mass audits of the functions of fs, fs[i] at the orders
    of orders[i]: the restriction_audits stack with every ell' None."""
    return restriction_audits(fs, orders, [None] * len(fs), zeta)


def global_audit(f: FnTable, dmax: int, zeta: float = DEFAULT_ZETA) -> GlobalnessReport:
    """Exact max of ||f_{(V',W')->T}||_2^2 over all d-restrictions, d <= dmax:
    the stack-of-one global_audits."""
    return global_audits([f], [_orders(dmax)], zeta)[0]


def laplacian_audits(fs: list[FnTable], orders, laplacians, zeta: float = DEFAULT_ZETA) -> list[GlobalnessReport]:
    """Influence audits of the functions of fs, all on one scheme, fs[i] at
    the orders of orders[i], from the Laplacian batches that
    laplacians(d, live) yields in the form SchemeCtx.filtered yields them
    for the spectra of fs[live] under laplacian_masks(ctx, d).

    The squared moduli of a batch are taken at once, and the sites of each
    stack of site_stacks(d) in the batch are gathered and averaged at once
    for every function of the batch.  From SchemeCtx.filtered, the values
    equal the per-site reference `influence_per_rep` in tests/oracles.py
    at every site bit for bit.
    """
    ctx = scheme_of(fs[0])

    def order_chunks(d, live):
        stacks = ctx.site_stacks(d)
        for funcs, sites, laps in laplacians(d, live):
            mass = (np.abs(laps) ** 2).reshape(-1)
            n_funcs, n_sites = laps.shape[:2]
            for stack in stacks:
                first, stop = np.searchsorted(stack.positions, (sites.start, sites.start + n_sites))
                if first < stop:
                    positions, members = stack.positions[first:stop], stack.members[first:stop]
                    rows = np.arange(n_funcs)[:, None] * n_sites + (positions - sites.start)
                    influences = mean_last_axis(np.take(mass, members + (rows * ctx.size)[:, :, None, None]))
                    yield funcs, positions, influences

    return _audit_rows(fs, orders, order_chunks, [zeta] * len(fs), ["influence"] * len(fs))


def influence_audit(f: FnTable, dmax: int, zeta: float = DEFAULT_ZETA) -> GlobalnessReport:
    """Exact max generalized influence over sites of each order <= dmax: the
    stack-of-one laplacian_audits, f transformed once.
    The (d, eps)-small-influences reading aggregates orders <= d; use
    report.max_upto(d) for that.
    """
    ctx = scheme_of(f)
    spectra = ctx.fourier_forward(f.values[None])
    return laplacian_audits([f], [_orders(dmax)], lambda d, live: ctx.filtered(spectra[live], laplacian_masks(ctx, d)), zeta)[0]


def refining_maxima(fs: list[FnTable], directions, order: int) -> np.ndarray:
    """For each i, the max restriction mass of fs[i] over the order-`order`
    sites refining the direction directions[i] = (U, side); -1.0 where no
    site refines U.

    Restrictions compose, so the r-restrictions of f_{U->T} over every T
    are exactly the (r+1)-restrictions of f at sites with V' >= U (side
    'v') or W' <= U (side 'w').  Those sites are the rows of the order's
    site stacks that SchemeCtx.refining_rows holds, built once per
    direction and order, so a call does no subspace containment tests.
    Per stack and block of its sites, each function's mass is gathered at
    the rows of its own direction that the block covers.  A block's max
    coset mean is its max coset sum over the coset size, bit for bit,
    since division by the size is monotone.
    """
    ctx = scheme_of(fs[0])
    masses = np.abs(np.array([f.values for f in fs])) ** 2
    refining = [ctx.refining_rows(u, side, order) for u, side in directions]
    maxima = [[-1.0] for _ in fs]
    for s, stack in enumerate(ctx.site_stacks(order)):
        for _, block in blocks(1, len(stack.positions), ctx.size):
            for mass, rows, found in zip(masses, refining, maxima):
                sites = rows[s][block]
                if sites.size:
                    sums = np.add.reduce(mass.take(stack.members.take(sites, axis=0)), axis=-1)
                    found.append(sums.max() / stack.members.shape[-1])
    return np.array([max(found) for found in maxima])


def max_refining_restriction(f: FnTable, u: Subspace, side: str, order: int) -> float:
    """Max restriction mass over order-`order` sites refining the direction U,
    -1.0 when no site refines U: the stack-of-one refining_maxima."""
    return float(refining_maxima([f], [(u, side)], order)[0])


def lp_global_audit(f: FnTable, rmax: int, ellp: float) -> GlobalnessReport:
    """Exact max of ||f_{(V',W')->T}||_{ell'} over r-restrictions; the
    report carries no threshold (every row passes): the stack-of-one
    restriction_audits."""
    return restriction_audits([f], [_orders(rmax)], [ellp])[0]


# ---------------------------------------------------------------------------
# umvirates on SL/GL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Umvirate:
    """The mixed umvirate at one cell of `group.dictator_systems()`: row
    system i met with functional system j, flat cell
    i * len(func_systems) + j.

    Row pairs (v, w) mean g v = w and functional pairs (phi, psi) mean
    g^T phi = psi; each family is an echelon basis with independent
    targets, decoded from the table on access.  Every nonempty umvirate
    of order <= 2n is exactly one cell.
    """

    group: GroupTable
    cell: int

    @property
    def systems(self) -> tuple[int, int]:
        """(i, j), the cell's row and functional system."""
        return divmod(self.cell, len(self.group.dictator_systems().func_systems))

    def _pairs(self, system) -> list[tuple[np.ndarray, np.ndarray]]:
        n, q = self.group.n, self.group.q
        return [(decode_vector(v, n, q), decode_vector(w, n, q)) for v, w in system]

    @property
    def rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self._pairs(self.group.dictator_systems().row_systems[self.systems[0]])

    @property
    def funcs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self._pairs(self.group.dictator_systems().func_systems[self.systems[1]])

    @property
    def order(self) -> int:
        tables = self.group.dictator_systems()
        i, j = self.systems
        return int(tables.row_orders[i] + tables.func_orders[j])

    def members(self) -> np.ndarray:
        """Sorted ordinals of U & G, read off the table: a system other than
        0 fills one column of row_of (func_of), and system 0 all of G."""
        tables = self.group.dictator_systems()
        i, j = self.systems
        return np.flatnonzero((tables.row_of == i).any(1) & (tables.func_of == j).any(1))

    def describe(self) -> str:
        rr, ff = (";".join(f"{v.tolist()}->{w.tolist()}" for v, w in pairs) for pairs in (self.rows, self.funcs))
        return f"rows[{rr}]funcs[{ff}]"


@dataclass
class SetAuditResult:
    report: GlobalnessReport
    violations: list[dict]  # each: order, ratio, umvirate


def _set_ordinals(group: GroupTable, ordinals, what: str) -> np.ndarray:
    """Sorted unique ordinals of a nonempty subset of G."""
    ordinals = np.unique(group.check_ordinals(ordinals, what))
    if ordinals.size == 0:
        raise ToolkitError(f"{what} requires a nonempty set")
    return ordinals


def set_global_audit(
    group: GroupTable,
    ordinals: np.ndarray,
    rmax: int | None = None,
    r: float | None = None,
    zeta: float = DEFAULT_ZETA,
) -> SetAuditResult:
    """Max umvirate density ratio per order d: (|A & U| / |U & G|) / mu(A).

    Umvirates mix row and functional dictators (the concatenated
    standard + dual action).  Pass threshold is r^d with the configured
    r (default q^{zeta n / 2}); |A & U| is one np.bincount of the cell
    index over A.  The witness of each order is its row-major first
    maximal cell, and also its violation above the threshold.  zeta and
    r are refused as check_threshold says.
    """
    check_threshold(zeta, r)
    ordinals = _set_ordinals(group, ordinals, "set audit")
    rmax = 2 * group.n if rmax is None else rmax
    if rmax < 0:
        raise ToolkitError(f"set audit order rmax={rmax} must be >= 0")
    tables = group.dictator_systems()
    r = float(group.q) ** (zeta * group.n / 2) if r is None else r
    mu = ordinals.size / group.size
    counts = np.bincount(tables.cell_of[ordinals].ravel(), minlength=tables.cell_orders.size)

    rows = []
    violations = []
    for d in range(min(rmax, 2 * group.n) + 1):
        cells = tables.cells[d]
        ratios = (counts[tables.cell_orders == d] / tables.cell_sizes[d]) / mu
        k = int(np.argmax(ratios))
        best = float(ratios[k])
        thr = float(r**d)
        u = Umvirate(group, int(cells[k]))
        rows.append(ReportRow(d, best, u.describe(), thr, bool(best <= thr + 1e-12)))
        if best > thr + 1e-12:
            violations.append({"order": d, "ratio": best, "umvirate": u})
    return SetAuditResult(GlobalnessReport("set-umvirate-density", rows), violations)


# ---------------------------------------------------------------------------
# good umvirates and normal forms
# ---------------------------------------------------------------------------

def _block_ordinals(group: GroupTable, k: int) -> np.ndarray:
    """Ordinals of diag(I_k, X) for every X in SL_{n-k}(F_q), in the ordinal order of SL_{n-k}."""

    def build():
        blocks = get_group("sl", group.n - k, group.q).mats if k < group.n else np.zeros((1, 0, 0), dtype=np.uint8)
        out = np.tile(np.eye(group.n, dtype=np.uint8), (len(blocks), 1, 1))
        out[:, k:, k:] = blocks
        return group.ordinals_of(out)

    return group.memo(("Lk-block", k), build)


def block_subgroup_members(group: GroupTable, k: int) -> np.ndarray:
    """Ordinals of L_k = {diag(I_k, X) : X in SL_{n-k}}."""
    if k < 0 or k > group.n:
        raise ToolkitError(f"invalid block size k={k}")
    return group.memo(("Lk", k), lambda: np.sort(_block_ordinals(group, k)))


def coset_rows(group: GroupTable, k: int, g, h) -> np.ndarray:
    """Row i, column X: the ordinal of g_i diag(I_k, X) h_i, X in SL_{n-k} in ordinal order."""
    m = group.mul_table()
    g, h = np.asarray(g), np.asarray(h)
    return m[g[:, None], m[_block_ordinals(group, k)[None, :], h[:, None]]]


@dataclass
class GoodUmvirate:
    """The coset g L_k h; a good groumvirate when h = g^{-1}."""

    group: GroupTable
    k: int
    g: int  # ordinal
    h: int  # ordinal

    @property
    def order(self) -> int:
        return 2 * self.k

    def members(self) -> np.ndarray:
        return np.sort(coset_rows(self.group, self.k, [self.g], [self.h])[0])

    def density(self) -> float:
        return len(block_subgroup_members(self.group, self.k)) / self.group.size

    def describe(self) -> str:
        return f"U_{self.k}^(g={self.g},h={self.h})"


def _rank_factor(field: FieldCtx, m: np.ndarray):
    """Invertible E, F with E m F = diag(I_h, 0); returns (E, F, h)."""
    b, a = m.shape
    e = np.eye(b, dtype=np.uint8)
    f = np.eye(a, dtype=np.uint8)
    work = m.copy()
    h = 0
    for _ in range(min(a, b)):
        piv = None
        for i in range(h, b):
            for j in range(h, a):
                if work[i, j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != h:
            work[[h, i]] = work[[i, h]]
            e[[h, i]] = e[[i, h]]
        if j != h:
            work[:, [h, j]] = work[:, [j, h]]
            f[:, [h, j]] = f[:, [j, h]]
        inv_piv = field.inv(int(work[h, h]))
        work[h] = field.mul_table[work[h], inv_piv]
        e[h] = field.mul_table[e[h], inv_piv]
        for i2 in range(b):
            if i2 != h and work[i2, h]:
                c = field.neg(int(work[i2, h]))
                work[i2] = field.add_table[work[i2], field.mul_table[work[h], c]]
                e[i2] = field.add_table[e[i2], field.mul_table[e[h], c]]
        for j2 in range(a):
            if j2 != h and work[h, j2]:
                c = field.neg(int(work[h, j2]))
                work[:, j2] = field.add_table[work[:, j2], field.mul_table[work[:, h], c]]
                f[:, j2] = field.add_table[f[:, j2], field.mul_table[f[:, h], c]]
        h += 1
    return e, f, h


@dataclass
class UmvirateNormalForm:
    """Coordinates D g C with the first rows/columns of the image fixed.

    For g in the umvirate, (D g C) has its first `b` rows equal to
    fixed_rows and its first `a` columns equal to fixed_cols; the
    overlap block M = fixed_rows[:, :a] has rank h.
    """

    d_mat: np.ndarray
    c_mat: np.ndarray
    fixed_rows: np.ndarray
    fixed_cols: np.ndarray
    a: int
    b: int
    h: int


def umvirate_normal_form(u: Umvirate) -> UmvirateNormalForm:
    field = u.group.field
    n = u.group.n
    a = len(u.rows)
    b = len(u.funcs)
    c_mat = complete_basis(field, [v for v, _ in u.rows], n).T.copy()
    d_mat = complete_basis(field, [phi for phi, _ in u.funcs], n)
    # fixed data of h = D g C
    w_cols = np.array([w for _, w in u.rows], dtype=np.uint8).reshape(a, n).T if a else np.zeros((n, 0), dtype=np.uint8)
    psi_rows = np.array([psi for _, psi in u.funcs], dtype=np.uint8).reshape(b, n) if b else np.zeros((0, n), dtype=np.uint8)
    fixed_cols = mat_mul(field, d_mat, w_cols) if a else np.zeros((n, 0), dtype=np.uint8)
    fixed_rows = mat_mul(field, psi_rows, c_mat) if b else np.zeros((0, n), dtype=np.uint8)
    if a and b and not np.array_equal(fixed_rows[:, :a], fixed_cols[:b, :]):
        raise ConsistencyError("the row and column constraints disagree on their overlap block")
    m_block = fixed_rows[:, :a].copy() if (a and b) else np.zeros((b, a), dtype=np.uint8)
    h = rank(field, m_block) if (a and b) else 0
    return UmvirateNormalForm(d_mat, c_mat, fixed_rows, fixed_cols, a, b, h)


def _require_det_one(group: GroupTable, what: str) -> None:
    """Good umvirates are cosets of L_k = SL_{n-k}, so they cover only
    groups inside SL_n (GL_n(F_2) is SL_n(F_2))."""
    if np.any(group.dets != 1):
        raise ToolkitError(f"{what} needs a group inside SL_n: good umvirates are cosets of "
                           f"L_k = SL_(n-k), and {group!r} has elements of determinant != 1")


def good_umvirate_partition(u: Umvirate) -> list[GoodUmvirate]:
    """Partition U & G into disjoint good k*-umvirates, k* = order - rank(M).

    The common umvirate order of the pieces is 2 k* <= 2 * order(U), and
    G must lie inside SL_n.  In D g C coordinates a piece fixes the
    leading kk x kk block K (invertible), B' and C', and leaves X free.
    All pieces come from one batched pass over the identity

        [[K, B'], [C', X]] = [[K, 0], [C', I]] diag(I, Y) [[I, K^-1 B'], [0, I]],

    Y = X - C' K^-1 B'.  With left = D^-1 [[K, 0], [C', I]] and
    right = [[I, K^-1 B'], [0, I]] C^-1, the piece is g0 L_kk h0 for
    g0 = left diag(I, delta, 1, ...) c_fix and h0 = c_fix^-1 right, where
    delta = (det left det right)^-1 and c_fix = diag(det right, 1, ...)
    put both factors in SL.  K^-1 is the only per-piece inverse.
    """
    group = u.group
    _require_det_one(group, "umvirate partition")
    field = group.field
    n = group.n
    nf = umvirate_normal_form(u)
    a, b, h = nf.a, nf.b, nf.h
    if a + b == 0:
        return [GoodUmvirate(group, 0, group.identity, group.identity)]
    d_mat, c_mat = nf.d_mat, nf.c_mat
    fixed_rows, fixed_cols = nf.fixed_rows, nf.fixed_cols

    if a and b:
        e, f, h2 = _rank_factor(field, fixed_rows[:, :a].copy())
        if h2 != h:
            raise ConsistencyError(f"rank factorization found rank {h2}, elimination {h}")
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

    # P2: lower fixed rows on the free columns; N2: right fixed columns on the
    # free rows.  U & G is empty unless both have full rank; their leftmost
    # independent columns (rows) are the rref pivots.
    col_sel = rref(field, fixed_rows[h:b, a:])[1]
    row_sel = rref(field, fixed_cols[b:, h:a].T)[1]
    if len(col_sel) < b - h or len(row_sel) < a - h:
        return []
    # permute selected free columns/rows next to the fixed block
    col_perm = list(range(a)) + [a + j for j in col_sel] + [a + j for j in range(n - a) if j not in col_sel]
    row_perm = list(range(b)) + [b + i for i in row_sel] + [b + i for i in range(n - b) if i not in row_sel]
    c_mat, fixed_rows = c_mat[:, col_perm], fixed_rows[:, col_perm]
    d_mat, fixed_cols = d_mat[row_perm], fixed_cols[row_perm]

    # one fill of the free entries per piece, digit 0 first: full columns
    # a..kk on rows b..n, then full rows b..b+(a-h) on columns kk..n
    n_col_free = (n - b) * (b - h)
    digits = IndexMap(field, 1, n_col_free + (a - h) * (n - kk)).digits_table()
    n_fills = len(digits)
    full = np.zeros((n_fills, n, n), dtype=np.uint8)
    full[:, :b] = fixed_rows
    full[:, :, :a] = fixed_cols
    full[:, b:, a:kk] = digits[:, :n_col_free].reshape(n_fills, n - b, b - h)
    full[:, b: b + a - h, kk:] = digits[:, n_col_free:].reshape(n_fills, a - h, n - kk)

    lft_inv = full.copy()  # [[K, 0], [C', I]]
    lft_inv[:, :kk, kk:] = 0
    lft_inv[:, kk:, kk:] = np.eye(n - kk, dtype=np.uint8)
    rgt_inv = np.tile(np.eye(n, dtype=np.uint8), (n_fills, 1, 1))  # [[I, K^-1 B'], [0, I]]
    rgt_inv[:, :kk, kk:] = mat_mul(field, inv_matrix(field, full[:, :kk, :kk]), full[:, :kk, kk:])
    d_inv, c_inv = inv_matrix(field, np.stack([d_mat, c_mat]))
    left = mat_mul(field, d_inv, lft_inv)
    right = mat_mul(field, rgt_inv, c_inv)
    det_left, det_right = det(field, np.stack([left, right]))
    delta = field.mul_table[field.inv_table[det_left], field.inv_table[det_right]]
    if kk < n:
        left[:, :, kk] = field.mul_table[left[:, :, kk], delta[:, None]]
        keep = slice(None)
    else:
        keep = delta == 1  # a singleton piece lies in G only when det = 1
    # right-multiplying by c_fix scales column 0; left-multiplying by c_fix^-1 scales row 0
    left[:, :, 0] = field.mul_table[left[:, :, 0], det_right[:, None]]
    right[:, 0] = field.mul_table[right[:, 0], field.inv_table[det_right][:, None]]
    ords = group.ordinals_of(np.stack([left[keep], right[keep]]))
    if (ords < 0).any():
        raise ToolkitError("normal-form factors left the group")  # pragma: no cover
    return [GoodUmvirate(group, kk, int(g), int(h)) for g, h in zip(*ords)]


# ---------------------------------------------------------------------------
# density-bump search
# ---------------------------------------------------------------------------

@dataclass
class BumpTrace:
    violation_order: int
    violation_ratio: float
    piece_order: int
    density_before: float
    density_after: float
    guarantee: float  # r^s with s the violating order


@dataclass
class BumpResult:
    k: int
    g: int  # ordinal in the original group
    h: int
    restricted_group: GroupTable
    restricted_ordinals: np.ndarray
    trace: list[BumpTrace]
    reason: str  # "global" | "trivial_group"


def density_bump_search(group: GroupTable, ordinals: np.ndarray, zeta: float = DEFAULT_ZETA) -> BumpResult:
    """Restrict A inside good umvirates until it is r-global relative to one,
    r = q^{zeta n / 2} for the n of the given group.

    Each step audits the current restriction, picks the largest-ratio
    violating umvirate, partitions it into good umvirates, and recurses
    into the densest piece.  Density never decreases by construction;
    the trace certifies each step's gain against the proof's r^s bound.
    A step lowers n by the piece's k >= 1 and the search stops below
    n = 2, so the loop always ends at a break within n steps.

    When 1/mu(A) > r^{2n} (beyond the audit's 1e-12) and zeta >= 0, the
    search takes exactly one step.  Each a in A is an order-2n cell {a}
    of ratio 1/mu, so order 2n violates, and no cell's ratio
    (|A & U| / |U|) / mu exceeds 1/mu.  The chosen violation therefore
    has ratio 1/mu, that is U & G <= A: every piece lies in A, and the
    first one is taken with density 1.  The next audit sees all of
    SL_{n-k}, where every ratio is 1 <= r^d, or the group is trivial.
    """
    _require_det_one(group, "bump search")
    check_threshold(zeta)
    ordinals = _set_ordinals(group, ordinals, "bump search")
    r = float(group.q) ** (zeta * group.n / 2)

    m = group.mul_table()
    cur_group = group
    cur_ordinals = ordinals
    g_acc = h_acc = group.identity
    k_acc = 0
    trace: list[BumpTrace] = []

    for _ in range(group.n):
        if cur_group.n < 2:
            reason = "trivial_group"
            break
        audit = set_global_audit(cur_group, cur_ordinals, r=r)
        if not audit.violations:
            reason = "global"
            break
        worst = max(audit.violations, key=lambda v: v["ratio"])
        pieces = good_umvirate_partition(worst["umvirate"])
        if not pieces:
            raise ToolkitError("violating umvirate has no good partition")  # pragma: no cover
        mu_before = cur_ordinals.size / cur_group.size
        # every piece shares k; row i, column X is g_i diag(I_k, X) h_i
        k_step = pieces[0].k
        g, h = np.array([(p.g, p.h) for p in pieces]).T
        rows = coset_rows(cur_group, k_step, g, h)
        inside = np.isin(rows, cur_ordinals)
        counts = inside.sum(axis=1)
        best = int(np.argmax(counts))  # the first densest piece
        trace.append(
            BumpTrace(
                violation_order=worst["order"],
                violation_ratio=worst["ratio"],
                piece_order=pieces[best].order,
                density_before=mu_before,
                density_after=float(counts[best] / rows.shape[1]),
                guarantee=r ** worst["order"] * mu_before,
            )
        )
        # accumulate in G: g_acc diag(I, g') and diag(I, h') h_acc.  cur_group is
        # SL_{n - k_acc} (a group inside SL_n has the ordinals of SL_n)
        embed = _block_ordinals(group, k_acc)
        g_acc = int(m[g_acc, embed[g[best]]])
        h_acc = int(m[embed[h[best]], h_acc])
        k_acc += k_step
        if k_acc == group.n:
            reason = "trivial_group"
            cur_group, cur_ordinals = group, np.array([], dtype=np.int64)
            break
        # translate: S <- {X in SL_{n-k}: g' diag(I, X) h' in S}
        cur_group = get_group("sl", group.n - k_acc, group.q)
        cur_ordinals = np.flatnonzero(inside[best])
        if cur_ordinals.size == 0:  # pragma: no cover - densities only grow
            raise ToolkitError("restriction emptied the set")

    return BumpResult(k_acc, g_acc, h_acc, cur_group, cur_ordinals, trace, reason)
