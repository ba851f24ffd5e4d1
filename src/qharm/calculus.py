"""Laplacians, derivatives and averaging operators on L(V, W).

Every operator that has both a spectral and a combinatorial definition
computes both realizations and cross-asserts them within tolerance
before returning; a disagreement raises ConsistencyError.  This makes
the equivalences first-class runtime checks instead of trusted code
paths.

Spectral conventions (X ranges over the dual index L(W, V); the averages
of many directions take their rows from one SchemeCtx.filter):

    laplacian L_{V1,W1}   keeps X with Im(X) >= V1 and X^{-1}(V1) <= W1
    avg_quotient e_{V/V'} keeps X with Im(X) <= V'
    avg_vector  E_v       damps X with v not in Im(X) by q^{-rank(X)}
    avg_dual    E_{W'}    damps X with Ker(X) + W' = W by q^{-rank(X)}

The derivative D_{V1,W1,T} is the (V1, W1) -> T restriction of the
Laplacian, and the influence at a site is its squared 2-norm (audited
by globality.influence_audit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ToolkitError
from .fqlin import (
    IndexMap,
    Memo,
    Subspace,
    encode_vector,
    full_space,
    kernel_basis,
    mat_mul,
    mat_vec,
    rref,  # not called here; perfbench wraps and restores calculus.rref by name
    span_of,
    zero_space,
)
from .scheme import FnTable, SchemeCtx, dualize, get_scheme, restrict, scheme_of


@dataclass(frozen=True)
class RestrictionSite:
    """A restriction site (V1, W1, T); T is a domain index."""

    v1: Subspace
    w1: Subspace
    t_index: int = 0


# ---------------------------------------------------------------------------
# spectral masks, each a memo entry of its context, held once
#
# The Laplacian masks of one order are the rows of one (pairs x N) stack,
# and laplacian_mask hands out a view of its row.  Each mask compares ranks
# of linear images L X R of the dual matrices X: IndexMap.linear_image
# tabulates the images, and their ranks are read from
# get_scheme(q, rows, cols).rank_table_dual() of the image's shape.  Q_U is
# the quotient map of U <= V (ker Q_U = U), B_U a column basis of U <= W:
#
#   Im(X) >= V1             iff dim V1 + rk(Q_V1 X) = rk X
#   X^{-1}(V1) <= W1        iff (m - dim W1) + rk(Q_V1 X B_W1) = rk(Q_V1 X),
#                           since X^{-1}(V1) = ker(Q_V1 X)
#   Im(X) <= V'             iff Q_V' X = 0
#   v not in Im(X)          iff dim span(v) + rk(Q_span(v) X) != rk X,
#                           which no X satisfies for v = 0
#   Ker(X) + W' = W         iff rk(X B_W') = rk X
# ---------------------------------------------------------------------------

def _image_ranks(index_map: IndexMap, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """rk(left M right) for the matrix M of every index of index_map."""
    image = get_scheme(index_map.q, left.shape[0], right.shape[1])
    return image.rank_table_dual()[index_map.linear_image(left, right, image.dual_index)]


def _damping(ctx: SchemeCtx, keep: np.ndarray) -> np.ndarray:
    """q^{-rank(X)} where keep holds, else 0."""
    ranks = ctx.rank_table_dual()
    scale = np.array([float(ctx.q) ** (-r) for r in range(int(ranks.max()) + 1)])
    return np.where(keep, scale[ranks], 0.0)


def _quotient_image(ctx: SchemeCtx, v1: Subspace) -> tuple[SchemeCtx, np.ndarray, np.ndarray]:
    """(sub, qx, Im(X) >= V1) over dual indices: qx is the index of Q X in
    sub.dual_index, Q the quotient map of V1."""
    sub = get_scheme(ctx.q, ctx.n - v1.dim, ctx.m)
    qmap = ctx.quotient_frame(v1).quotient_map
    qx = ctx.dual_index.linear_image(qmap, np.eye(ctx.m, dtype=np.uint8), sub.dual_index)
    return sub, qx, v1.dim + sub.rank_table_dual()[qx] == ctx.rank_table_dual()


def laplacian_mask(ctx: SchemeCtx, v1: Subspace, w1: Subspace) -> np.ndarray:
    """Boolean mask over dual indices: Im(X) >= V1 and X^{-1}(V1) <= W1.

    A view of the site's row of laplacian_masks, which the first call for a
    site of an order builds for the whole order; every later call returns
    the same object."""
    order = v1.dim + ctx.m - w1.dim
    return ctx.memo(("lap", v1.key, w1.key),
                    lambda: laplacian_masks(ctx, order)[ctx.restriction_pairs(order).index((v1, w1))])


def laplacian_masks(ctx: SchemeCtx, order: int) -> np.ndarray:
    """laplacian_mask of every pair of restriction_pairs(order), one row each
    (order must have a pair), built row by row; above _SITE_STACK_CAP
    entries it raises SizeCapError.  The pairs of one V1 are consecutive,
    so the quotient image of each V1 is built once and dropped after its
    last pair."""

    def build():
        ctx.check_site_orders([order])
        pairs = ctx.restriction_pairs(order)
        out = np.empty((len(pairs), ctx.size), dtype=bool)
        v1 = None
        for row, (vp, w1) in zip(out, pairs):
            if vp is not v1:
                v1 = vp
                sub, qx, contains_v1 = _quotient_image(ctx, v1)
            # the W1 test on every Y = Q X of sub, then read at each X
            yb_ranks = _image_ranks(sub.dual_index, np.eye(sub.n, dtype=np.uint8), w1.basis.T)
            preimage_in_w1 = (ctx.m - w1.dim) + yb_ranks == sub.rank_table_dual()
            np.logical_and(contains_v1, preimage_in_w1[qx], out=row)
        return out

    return ctx.memo(("lap_stack", order), build)


def quotient_mask(ctx: SchemeCtx, vp: Subspace) -> np.ndarray:
    """Boolean mask over dual indices: Im(X) <= V'."""
    return ctx.memo(("quot", vp.key), lambda: _quotient_image(ctx, vp)[1] == 0)


def vector_avg_factors(ctx: SchemeCtx, v: np.ndarray) -> np.ndarray:
    """Spectral multipliers of E_v: q^{-rank(X)} if v not in Im(X), else 0."""
    return ctx.memo(("eav", encode_vector(v, ctx.q)),
                    lambda: _damping(ctx, ~_quotient_image(ctx, span_of(ctx.field, v))[2]))


def dual_avg_factors(ctx: SchemeCtx, wp: Subspace) -> np.ndarray:
    """Spectral multipliers of E_{W'}: q^{-rank(X)} if Ker(X) + W' = W."""
    return ctx.memo(("edu", wp.key), lambda: _damping(
        ctx, _image_ranks(ctx.dual_index, np.eye(ctx.n, dtype=np.uint8), wp.basis.T) == ctx.rank_table_dual()))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def laplacian(f: FnTable, v1: Subspace, w1: Subspace) -> FnTable:
    """Spectral projection onto characters admissible for (V1, W1)."""
    ctx = scheme_of(f)
    return FnTable(ctx, ctx.fourier_inverse(ctx.fourier_forward(f.values) * laplacian_mask(ctx, v1, w1)))


def derivative(f: FnTable, site: RestrictionSite) -> FnTable:
    """D_{V1,W1,T}(f): the (V1,W1) -> T restriction of the Laplacian."""
    ctx = scheme_of(f)
    lap = laplacian(f, site.v1, site.w1)
    return restrict(lap, site.v1, site.w1, site.t_index)


def _avg_quotient_direct(f: FnTable, vp: Subspace) -> np.ndarray:
    ctx = scheme_of(f)
    (wfull,) = ctx.subspaces("w", ctx.m)
    _, members = ctx.site_cosets(vp, wfull)
    out = np.empty_like(f.values)
    out[members] = np.mean(f.values[members], axis=1)[:, None]
    return out


def avg_quotient(f: FnTable, vp: Subspace) -> FnTable:
    """e_{V/V'}: average over cosets of the copy of L(V/V', W).

    Computes the direct coset average and the spectral filter and
    asserts they agree.
    """
    ctx = scheme_of(f)
    spectral = ctx.fourier_inverse(ctx.fourier_forward(f.values) * quotient_mask(ctx, vp))
    direct = _avg_quotient_direct(f, vp)
    err = float(np.max(np.abs(spectral - direct)))
    if err > 1e-8:
        raise ConsistencyError(f"avg_quotient realizations disagree by {err}")
    return FnTable(ctx, spectral)


class BvDistribution(Memo):
    """Uniform distribution over rank <= 1 maps w (x) phi with phi(v) = 1."""

    def __init__(self, ctx: SchemeCtx, v: np.ndarray):
        v = np.asarray(v, dtype=np.uint8).reshape(-1)
        if not np.any(v):
            raise ToolkitError("B_v requires a nonzero vector")
        self.ctx = ctx
        self.v = v
        field = ctx.field
        vectors = IndexMap(field, ctx.n, 1).digits_table()  # F_q^n, in index order
        phis = vectors[mat_vec(field, vectors, v) == 1]
        if len(phis) != ctx.q ** (ctx.n - 1):
            raise ConsistencyError(f"{len(phis)} functionals take the value 1 at v, not q^(n-1)")
        ws = IndexMap(field, ctx.m, 1).digits_table()
        self.pairs = [(w, phi) for w in ws for phi in phis]
        maps = field.mul_table[ws[:, None, :, None], phis[None, :, None, :]]  # (m, n) rank <= 1 maps
        self.indices = maps.reshape(-1, ctx.k).astype(np.int64) @ ctx.domain_index.powers

    def average(self, values: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        shift = self.memo("shift", lambda: ctx.domain_index.add_indices(
            np.arange(ctx.size, dtype=np.int64)[:, None], self.indices[None, :]))
        return np.mean(np.asarray(values)[shift], axis=1)


def _bv_cached(ctx: SchemeCtx, v: np.ndarray) -> BvDistribution:
    return ctx.memo(("bv", encode_vector(v, ctx.q)), lambda: BvDistribution(ctx, v))


def _planes_avoiding(ctx: SchemeCtx, v: np.ndarray) -> list[Subspace]:
    """The hyperplanes V' of V that do not contain v, in `ctx.subspaces` order."""

    def build():
        planes = [s for s in ctx.subspaces("v", ctx.n - 1) if not s.contains_vector(ctx.field, v)]
        if len(planes) != ctx.q ** (ctx.n - 1):
            raise ConsistencyError(f"{len(planes)} hyperplanes avoid v, not q^(n-1)")
        return planes

    return ctx.memo(("planes_avoiding", encode_vector(v, ctx.q)), build)


def _direction_averages(f: FnTable, vs: list[np.ndarray], wps: list[Subspace],
                        spectrum: np.ndarray | None = None) -> np.ndarray:
    """E_v f for each nonzero vector v of vs, then E_{W'} f for each
    hyperplane W' of wps, as the rows of one array.

    All of them come from the one spectrum of f (fourier_forward(f.values),
    transformed here unless the caller passes it), and the E_{W'} composites
    from the one spectrum of dualize(f).  Each direction keeps its own
    cross-checks: E_v against the rank-one resampling distribution B_v and
    against the hyperplane average of e_{V/V'} (each e_{V/V'} f is built once
    and summed in the same order for every v), E_{W'} against
    dualize -> E_phi -> dualize.
    """
    ctx = scheme_of(f)
    if not all(np.any(v) for v in vs):
        raise ToolkitError("E_v requires a nonzero vector")
    phis = [annihilator_functional(ctx, wp) for wp in wps]
    if spectrum is None:
        spectrum = ctx.fourier_forward(f.values)
    out = ctx.filter(spectrum, [vector_avg_factors(ctx, v) for v in vs] + [dual_avg_factors(ctx, wp) for wp in wps])
    quotients: dict = {}
    for v, spectral in zip(vs, out):
        via_bv = _bv_cached(ctx, v).average(f.values)
        err = float(np.max(np.abs(spectral - via_bv)))
        if err > 1e-8:
            raise ConsistencyError(f"E_v spectral vs B_v forms disagree by {err}")
        planes = _planes_avoiding(ctx, v)
        acc = np.zeros_like(f.values)
        for vp in planes:
            if vp.key not in quotients:
                quotients[vp.key] = _avg_quotient_direct(f, vp)
            acc += quotients[vp.key]
        acc /= len(planes)
        err2 = float(np.max(np.abs(spectral - acc)))
        if err2 > 1e-8:
            raise ConsistencyError(f"E_v spectral vs hyperplane forms disagree by {err2}")
    if wps:
        fd = dualize(f)
        dual = fd.domain
        composites = dual.filter(dual.fourier_forward(fd.values), [vector_avg_factors(dual, phi) for phi in phis])
        for spectral, composite in zip(out[len(vs):], composites):
            err = float(np.max(np.abs(spectral - dualize(FnTable(dual, composite)).values)))
            if err > 1e-8:
                raise ConsistencyError(f"E_W' realizations disagree by {err}")
    return out


def avg_vector(f: FnTable, v: np.ndarray) -> FnTable:
    """E_v: all three realizations (hyperplane average of e_{V/V'}, the
    spectral form, and the rank-one resampling distribution B_v) are
    computed and cross-asserted."""
    return FnTable(f.domain, _direction_averages(f, [np.asarray(v, dtype=np.uint8).reshape(-1)], [])[0])


def annihilator_functional(ctx: SchemeCtx, wp: Subspace) -> np.ndarray:
    """Canonical nonzero functional vanishing on a codimension-1 subspace: a
    memo entry of ctx per W', read-only."""
    if wp.dim != ctx.m - 1:
        raise ToolkitError("expected a codimension-1 subspace of W")

    def build():
        if wp.dim == 0:
            phi = np.zeros(ctx.m, dtype=np.uint8)
            phi[0] = 1
        else:
            ker = kernel_basis(ctx.field, wp.basis)
            if ker.shape[0] != 1:
                raise ConsistencyError(f"a codimension-1 subspace has a {ker.shape[0]}-dimensional annihilator")
            phi = ker[0].copy()
        phi.setflags(write=False)
        return phi

    return ctx.memo(("annihilator", wp.key), build)


def avg_dual(f: FnTable, wp: Subspace) -> FnTable:
    """E_{W'} for codim-1 W': dualize -> E_phi -> dualize, cross-checked
    against the dual spectral filter."""
    return FnTable(f.domain, _direction_averages(f, [], [wp])[0])


def avg_for_directions(f: FnTable, directions, spectrum: np.ndarray | None = None) -> list[FnTable]:
    """E_U f for each direction (U, side) of directions: a line U in V (side
    'v') or a hyperplane U in W (side 'w').  One spectrum of f (and one of
    dualize(f) when a hyperplane is present) serves every direction; a
    caller that holds f's spectrum, fourier_forward(f.values), passes it
    and f is not transformed again.  Each E_U f equals
    avg_for_direction(f, U, side) bit for bit."""
    vs, wps = [], []
    for u, side in directions:
        if side == "v":
            if u.dim != 1:
                raise ToolkitError("side 'v' needs a 1-dimensional subspace of V")
            vs.append(u.basis[0])
        elif side == "w":
            wps.append(u)
        else:
            raise ToolkitError(f"unknown side {side!r}")
    rows = _direction_averages(f, vs, wps, spectrum)
    v_rows, w_rows = iter(rows[: len(vs)]), iter(rows[len(vs):])
    return [FnTable(f.domain, next(v_rows if side == "v" else w_rows)) for _, side in directions]


def avg_for_direction(f: FnTable, u: Subspace, side: str) -> FnTable:
    """E_U f for a line U in V (side 'v') or a hyperplane U in W (side 'w'):
    the stack-of-one avg_for_directions."""
    return avg_for_directions(f, [(u, side)])[0]


def t_operator(f: FnTable, i: int, u: Subspace, side: str) -> FnTable:
    """f - (q^i + q^{i-1}) E_U f + q^{2i-1} E_U^2 f."""
    if i < 1:
        raise ToolkitError("t_operator needs order i >= 1")
    ctx = scheme_of(f)
    q = float(ctx.q)
    e1 = avg_for_direction(f, u, side)
    e2 = avg_for_direction(e1, u, side)
    vals = f.values - (q**i + q ** (i - 1)) * e1.values + q ** (2 * i - 1) * e2.values
    return FnTable(ctx, vals)


def spectral_laplacian_line(f: FnTable, u: Subspace, side: str) -> FnTable:
    """The order-1 spectral Laplacian for a line in V or hyperplane in W."""
    ctx = scheme_of(f)
    if side == "v":
        return laplacian(f, u, full_space(ctx.field, ctx.m))
    return laplacian(f, zero_space(ctx.field, ctx.n), u)


def direction_subspaces(ctx: SchemeCtx) -> list[tuple[Subspace, str]]:
    """All (U, side) directions: lines in V and hyperplanes in W."""
    out = [(u, "v") for u in ctx.subspaces("v", 1)]
    out += [(u, "w") for u in ctx.subspaces("w", ctx.m - 1)]
    return out


def conditional_distribution_check(ctx: SchemeCtx, vp: Subspace, wp: Subspace, v: np.ndarray) -> bool:
    """Exhaustive joint-law check for A + w(x)phi conditioned on (V'', W'').

    A is uniform on the copy of L(V/V', W'), w(x)phi is drawn from B_v
    with v in V'; conditioning on V'' = ker(phi|_{V'}) and W'' = W' +
    span(w), the sum must be uniform on the copy of L(V/V'', W'') when
    W'' = W', and uniform on the maps sending v outside W' otherwise.
    Raises ConsistencyError on any mismatch.
    """
    field = ctx.field
    v = np.asarray(v, dtype=np.uint8).reshape(-1)
    if not vp.contains_vector(field, v):
        raise ToolkitError("the direction vector must lie in V'")
    _, emb = ctx.restriction_embedding(vp, wp)
    bv = _bv_cached(ctx, v)
    vecs = vp.vectors(field)
    # (V'', W'') of each draw w (x) phi of B_v, whatever A is
    conditions = [(span_of(field, vecs[mat_vec(field, vecs, phi) == 0]), span_of(field, np.vstack([wp.basis, w])))
                  for w, phi in bv.pairs]
    buckets: dict = {}
    for a_idx in emb:
        for (vpp, wpp), b_idx in zip(conditions, bv.indices):
            m_idx = int(ctx.domain_index.add_indices(int(a_idx), int(b_idx)))
            entry = buckets.setdefault((vpp.key, wpp.key), {"vpp": vpp, "wpp": wpp, "counts": {}})
            entry["counts"][m_idx] = entry["counts"].get(m_idx, 0) + 1
    for entry in buckets.values():
        vpp, wpp, counts = entry["vpp"], entry["wpp"], entry["counts"]
        _, emb_pp = ctx.restriction_embedding(vpp, wpp)
        if wpp == wp:
            expected = set(map(int, emb_pp))
        else:
            expected = set()
            for e in map(int, emb_pp):
                mat = ctx.domain_index.to_matrix(e)
                img_v = mat_mul(field, mat, v.reshape(-1, 1))[:, 0]
                if not wp.contains_vector(field, img_v):
                    expected.add(e)
        if set(counts) != expected:
            raise ConsistencyError("conditional support mismatch in the distribution check")
        if len(set(counts.values())) != 1:
            raise ConsistencyError("conditional law is not uniform")
    return True
