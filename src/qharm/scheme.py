"""Fourier calculus on the bilinear scheme L(V, W).

V = F_q^n and W = F_q^m.  A map A in L(V, W) is stored as an (m, n)
matrix acting on column vectors; the dual index X in L(W, V) is an
(n, m) matrix.  The characters are

    u_X(A) = phi(tr(X A)),

an orthonormal basis of L^2(L(V, W)) under the expectation inner
product <f, g> = E_A[f(A) conj(g(A))].  Spectra are always indexed over
the dual space with its own IndexMap; the two index spaces are never
conflated.

tr(X A) pairs entry X[i, j] with A[j, i], so the transform factorizes
into one q-point kernel per matrix entry followed by a digit
permutation.  The kernels are applied in a single pass over the
flattened table (Good's interaction algorithm): each step views the
table as (batch, q, rest), contracts the leading digit with the kernel
and moves it to the back, so after k = nm steps the digits are back in
order and one transpose applies the permutation.  That is the only
fast path; the naive character matrix is kept for cross-checks on
small domains.  The slow references the tests compare these paths with
(the scalar character value, the naive inverse transform, the per-index
character restriction) live in tests/oracles.py.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SizeCapError, ToolkitError
from .fqlin import (
    IndexMap,
    Memo,
    QuotientFrame,
    Subspace,
    enumerate_subspaces,
    rref,
)
from .gf import FieldCtx, get_field

_NAIVE_CAP = 2048  # full character matrix only below this domain size
# indices in the site stacks of one order, N per site (int64: 1 GiB); at
# (2,5,4), N = 2^20, order 1 (47 sites) fits and order 2 (655 sites) does not
_SITE_STACK_CAP = 2**27


class SiteStack(NamedTuple):
    """Restriction sites of one order whose coset partitions have one shape.

    members[s] is the site_cosets members table of the site at
    positions[s], so members[s, :, 0] are its coset reps.
    """

    positions: np.ndarray  # (S,) positions in restriction_pairs(order), ascending
    members: np.ndarray  # (S, R, M), C-contiguous


class SchemeCtx(Memo):
    """Enumerated domain L(V, W) with its dual index and transform kernels.

    Its derived tables (rank table, subspaces, restriction pairs, frames,
    embeddings, site stacks, spectral masks) are memo entries, each held once.
    """

    def __init__(self, field: FieldCtx, n: int, m: int):
        self.field = field
        self.n = n
        self.m = m
        self.domain_index = IndexMap(field, m, n)
        self.dual_index = IndexMap(field, n, m)
        self.size = self.domain_index.size
        k = n * m
        self.k = k

        # A position j*n+i pairs with X position i*m+j.
        pair = np.empty(k, dtype=np.int64)
        for j in range(m):
            for i in range(n):
                pair[j * n + i] = i * m + j
        pair_inv = np.empty(k, dtype=np.int64)
        pair_inv[pair] = np.arange(k)
        self._pair = pair
        self._pair_inv = pair_inv
        # tensor axis t holds digit position k-1-t
        self._perm_fwd = np.array([k - 1 - pair_inv[k - 1 - s] for s in range(k)], dtype=np.int64)
        self._perm_inv = np.array([k - 1 - pair[k - 1 - s] for s in range(k)], dtype=np.int64)

        q = field.q
        prods = field.mul_table  # (q, q) field products
        chars = field.char_table[prods]  # phi(x*a)
        self._kernel_fwd = np.conj(chars) / q
        self._kernel_inv = chars

    # -- bookkeeping --------------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    def __repr__(self) -> str:
        return f"SchemeCtx(q={self.q}, n={self.n}, m={self.m})"

    def rank_table_dual(self) -> np.ndarray:
        """rank(X) for every dual index."""
        return self.memo("rank_dual", self.dual_index.rank_table)

    def subspaces(self, side: str, dim: int) -> list[Subspace]:
        """The dim-dimensional subspaces of side 'v' (F_q^n) or 'w' (F_q^m)."""
        ambient = self.n if side == "v" else self.m
        return self.memo(("subspaces", side, dim), lambda: enumerate_subspaces(self.field, ambient, dim))

    def restriction_pairs(self, order: int) -> list[tuple[Subspace, Subspace]]:
        """All (V', W') with dim V' + codim W' = order, in canonical order:
        the pairs of one V' are consecutive."""

        def build():
            pairs = []
            for dv in range(order + 1):
                cw = order - dv
                if dv > self.n or cw > self.m:
                    continue
                for vp in self.subspaces("v", dv):
                    for wp in self.subspaces("w", self.m - cw):
                        pairs.append((vp, wp))
            return pairs

        return self.memo(("pairs", order), build)

    def check_site_orders(self, orders) -> None:
        """Raise SizeCapError if a table with one N-entry row per site, such as
        the site stacks or the Laplacian masks, would pass _SITE_STACK_CAP
        entries at some order of orders."""
        for order in orders:
            n_sites = len(self.restriction_pairs(order))
            if n_sites * self.size > _SITE_STACK_CAP:
                raise SizeCapError(f"the order-{order} site stacks of {self!r} would hold "
                                   f"{n_sites} x {self.size} indices > cap {_SITE_STACK_CAP}")

    def site_stacks(self, order: int) -> list[SiteStack]:
        """The sites of restriction_pairs(order) grouped by the shape of their
        site_cosets members, one SiteStack per shape in order of first
        appearance; each stack keeps restriction_pairs order.

        Members are stacked along a new leading axis, so a gather
        values[stack.members] is C-contiguous and its mean over the last
        axis is, row for row, the mean of values[members] of one site.  The
        stacks hold the only copy of the members, each site's coset table
        built straight into its row; site_cosets hands out views of the
        rows.  Stacks over _SITE_STACK_CAP indices raise SizeCapError.
        """

        def build():
            self.check_site_orders([order])
            pairs = self.restriction_pairs(order)
            by_shape: dict = {}
            for i, (vp, wp) in enumerate(pairs):
                sub_size = self.q ** ((self.n - vp.dim) * wp.dim)
                by_shape.setdefault((self.size // sub_size, sub_size), []).append(i)
            stacks = []
            for shape, positions in by_shape.items():
                stack = SiteStack(np.array(positions, dtype=np.int64), np.empty((len(positions),) + shape, dtype=np.int64))
                for members, i in zip(stack.members, positions):
                    members[:] = self._coset_members(*pairs[i])
                stacks.append(stack)
            return stacks

        return self.memo(("stacks", order), build)

    def refining_rows(self, u: Subspace, side: str, order: int) -> list[np.ndarray]:
        """For each stack of site_stacks(order), the rows of its sites that
        refine the direction U.

        Side 'v' keeps the sites with V' >= U, side 'w' those with W' <= U.
        """

        def build():
            pairs = self.restriction_pairs(order)
            if side == "v":
                keep = np.array([vp.contains(self.field, u) for vp, _ in pairs], dtype=bool)
            elif side == "w":
                keep = np.array([u.contains(self.field, wp) for _, wp in pairs], dtype=bool)
            else:
                raise ToolkitError(f"unknown side {side!r}")
            return [np.flatnonzero(keep[s.positions]) for s in self.site_stacks(order)]

        return self.memo(("refining", u.key, side, order), build)

    # -- characters and transforms -------------------------------------------

    def _transform(self, values: np.ndarray, kernel: np.ndarray, perm: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        if self.k == 0:
            return values.copy()
        batch = values.shape[:-1]
        q, size = self.q, self.size
        b = int(np.prod(batch, dtype=np.int64))
        t = values.reshape(b, size)
        kernel_t = kernel.T
        # Contract the leading digit and rotate it to the back; after k
        # steps the digits are in their original order again.  Keep this
        # operand order: `kernel @ t` rounds differently in the last bits
        # and would change every written spectrum.
        for _ in range(self.k):
            t = (t.reshape(b, q, size // q).transpose(0, 2, 1) @ kernel_t).reshape(b, size)
        t = t.reshape((b,) + (q,) * self.k).transpose((0,) + tuple(1 + perm))
        return t.reshape(batch + (size,))

    def fourier_forward(self, values: np.ndarray) -> np.ndarray:
        """Spectrum over the dual index; supports batched (..., N) input."""
        return self._transform(values, self._kernel_fwd, self._perm_fwd)

    def fourier_inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return self._transform(coeffs, self._kernel_inv, self._perm_inv)

    def char_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of the character matrix: u_X(A) for the dual
        indices X in [lo, hi) and every domain index A."""
        dx = self.dual_index.digits_table()[lo:hi]
        da = self.domain_index.digits_table()
        f = self.field
        acc = np.zeros((dx.shape[0], self.size), dtype=np.uint8)
        for p_a in range(self.k):
            p_x = int(self._pair[p_a])
            acc = f.add_table[acc, f.mul_table[dx[:, p_x][:, None], da[:, p_a][None, :]]]
        return f.char_table[acc]

    def char_matrix(self) -> np.ndarray:
        """Full (N_dual, N) character matrix, for naive-path cross-checks."""
        if self.size > _NAIVE_CAP:
            raise SizeCapError(f"naive character matrix refused for N={self.size}")
        return self.memo("char_matrix", lambda: self.char_rows(0, self.size))

    def fourier_forward_naive(self, values: np.ndarray) -> np.ndarray:
        c = self.char_matrix()
        return np.asarray(values, dtype=np.complex128) @ c.conj().T / self.size

    # -- restrictions ---------------------------------------------------------

    def quotient_frame(self, vp: Subspace) -> QuotientFrame:
        return self.memo(("frame", vp.key), lambda: QuotientFrame(self.field, vp))

    def restriction_embedding(self, vp: Subspace, wp: Subspace):
        """(sub_ctx, embedded domain indices aligned with sub enumeration).

        The embedded copy of L(V/V', W') is the set of maps with V' in
        the kernel and image inside W'; the identification goes through
        the deterministic quotient frame of V': S maps to Cw^T S Q, with
        Cw the basis of W' and Q the quotient map of V'.
        """

        def build():
            sub = get_scheme(self.q, self.n - vp.dim, wp.dim)
            qmap = self.quotient_frame(vp).quotient_map
            return sub, sub.domain_index.linear_image(wp.basis.T, qmap, self.domain_index)

        return self.memo(("embedding", vp.key, wp.key), build)

    def restrict_values(self, values: np.ndarray, vp: Subspace, wp: Subspace, t_index: int) -> np.ndarray:
        sub, emb = self.restriction_embedding(vp, wp)
        idx = self.domain_index.add_indices(emb, t_index)
        return np.asarray(values)[..., idx]

    def char_restriction_table(self, vp: Subspace, wp: Subspace) -> np.ndarray:
        """Dual index of Y = Q X Cw^T in the restricted scheme, for every X,
        with Q the quotient map of V' and Cw the basis of W'."""
        return self.memo(("char_restriction", vp.key, wp.key), lambda: self.dual_index.linear_image(
            self.quotient_frame(vp).quotient_map, wp.basis.T, self.restriction_embedding(vp, wp)[0].dual_index))

    def site_cosets(self, vp: Subspace, wp: Subspace):
        """(reps, members) for the coset partition of L(V,W) by the embedded
        copy of L(V/V', W'); reps are least-index, ascending; members is
        (n_reps, subgroup_size) of domain indices.  Row t adds each embedded
        index, in ascending order, to reps[t]; the least is the zero map, so
        members[:, 0] == reps.  Both are views of the site's row of
        site_stacks, which the first call for a site of an order builds for
        the whole order; every later call returns the same objects.
        """

        def build():
            order = vp.dim + self.m - wp.dim
            i = self.restriction_pairs(order).index((vp, wp))
            stack = next(s for s in self.site_stacks(order) if i in s.positions)
            members = stack.members[np.searchsorted(stack.positions, i)]
            return members[:, 0], members

        return self.memo(("cosets", vp.key, wp.key), build)

    def _coset_members(self, vp: Subspace, wp: Subspace) -> np.ndarray:
        """The members table of site_cosets(vp, wp), built.

        The embedded copy E is an F_q-subspace of the digit vectors.  Take
        an echelon basis of E with its pivots on the most significant
        digits.  A member of E is fixed by its pivot digits, so each coset
        T + E has exactly one member whose pivot digits are all zero, and
        it is the least: adding a nonzero element of E makes the highest
        pivot it touches nonzero and leaves the digits above unchanged.
        """
        sub, emb = self.restriction_embedding(vp, wp)
        digits = self.domain_index.digits_table()
        # images of the sub-domain unit matrices span E; pivots on reversed digits
        gens = digits[emb[sub.domain_index.powers]][:, ::-1]
        pivot_digits = self.k - 1 - np.array(rref(self.field, gens)[1], dtype=np.int64)
        reps = np.flatnonzero(~digits[:, pivot_digits].any(axis=1))
        return self.domain_index.add_indices(reps[:, None], np.sort(emb)[None, :])

    # -- constructors ---------------------------------------------------------

    def table(self, values) -> "FnTable":
        v = np.asarray(values, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.size:
            raise ToolkitError(f"expected {self.size} values, got {v.shape[0]}")
        return FnTable(self, v)

    def char_fn(self, x_index: int) -> "FnTable":
        """u_X as a function table."""
        coeffs = np.zeros(self.size, dtype=np.complex128)
        coeffs[x_index] = 1.0
        return FnTable(self, self.fourier_inverse(coeffs))


class FnTable:
    """A dense complex function on an enumerated domain (scheme or group).

    Norms and inner products use the uniform-measure expectation:
    <f, g> = E[f conj(g)].
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain, values: np.ndarray):
        self.domain = domain
        self.values = np.asarray(values, dtype=np.complex128)

    def mean(self) -> complex:
        return complex(mean_last_axis(self.values))

    def norm2sq(self) -> float:
        return float(mean_last_axis(np.abs(self.values) ** 2))

    def inner(self, other: "FnTable") -> complex:
        return complex(mean_last_axis(self.values * np.conj(other.values)))

    def lp_norm(self, p: float) -> float:
        return float(mean_last_axis(np.abs(self.values) ** p) ** (1.0 / p))

    def lp_power(self, p: float) -> float:
        """E|f|^p (the p-th power of the p-norm)."""
        return float(mean_last_axis(np.abs(self.values) ** p))


def mean_last_axis(values: np.ndarray):
    """np.mean(values, axis=-1) bit for bit (the same pairwise sum, then one
    division by the count) without np.mean's per-call overhead, which
    dominates on the small tables and stacks of small domains."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


class SpectrumTable:
    """Fourier coefficients over the dual index of a scheme."""

    __slots__ = ("ctx", "coefficients")

    def __init__(self, ctx: SchemeCtx, coefficients: np.ndarray):
        self.ctx = ctx
        self.coefficients = np.asarray(coefficients, dtype=np.complex128)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

_SCHEME_CACHE: dict[tuple[int, int, int], SchemeCtx] = {}


def get_scheme(q: int, n: int, m: int) -> SchemeCtx:
    key = (q, n, m)
    if key not in _SCHEME_CACHE:
        _SCHEME_CACHE[key] = SchemeCtx(get_field(q), n, m)
    return _SCHEME_CACHE[key]


def _scheme_of(f: FnTable) -> SchemeCtx:
    if not isinstance(f.domain, SchemeCtx):
        raise ToolkitError("operation requires a scheme-domain function")
    return f.domain


def fourier_forward(f: FnTable) -> SpectrumTable:
    ctx = _scheme_of(f)
    return SpectrumTable(ctx, ctx.fourier_forward(f.values))


def degree_project(f: FnTable, d: int, mode: str = "pure") -> FnTable:
    """f^{=d} (pure) or f^{<=d} (cumulative): spectral mass at rank(X) = d or <= d."""
    ctx = _scheme_of(f)
    if not 0 <= d <= min(ctx.n, ctx.m):
        raise ToolkitError(f"degree {d} out of range for {ctx!r}")
    ranks = ctx.rank_table_dual()
    mask = (ranks == d) if mode == "pure" else (ranks <= d)
    coeffs = ctx.fourier_forward(f.values) * mask
    return FnTable(ctx, ctx.fourier_inverse(coeffs))


def degree_decompose(f: FnTable) -> list[FnTable]:
    """All pure parts f^{=0..dmax} in one pass."""
    ctx = _scheme_of(f)
    ranks = ctx.rank_table_dual()
    coeffs = ctx.fourier_forward(f.values)
    parts = []
    for d in range(min(ctx.n, ctx.m) + 1):
        parts.append(FnTable(ctx, ctx.fourier_inverse(coeffs * (ranks == d))))
    return parts


def restrict(f: FnTable, vp: Subspace, wp: Subspace, t_index: int) -> FnTable:
    """f_{(V',W')->T}(S) = f(S + T) on the identified copy of L(V/V', W'),
    T given by its domain index."""
    ctx = _scheme_of(f)
    sub, _ = ctx.restriction_embedding(vp, wp)
    return FnTable(sub, ctx.restrict_values(f.values, vp, wp, int(t_index)))


def dualize(f: FnTable) -> FnTable:
    """f*(A) = f(A^T): moves f to the scheme with V and W swapped."""
    ctx = _scheme_of(f)
    dual = get_scheme(ctx.q, ctx.m, ctx.n)
    # entry idx is the index in ctx of B^T, B the (n, m) matrix of dual index idx
    perm = ctx.memo("dual_perm", lambda: dual.domain_index.digits_table().reshape(dual.size, ctx.n, ctx.m)
                    .transpose(0, 2, 1).reshape(dual.size, ctx.k).astype(np.int64) @ ctx.domain_index.powers)
    return FnTable(dual, f.values[perm])


def random_table(ctx: SchemeCtx, rng: np.random.Generator, kind: str = "real") -> FnTable:
    if kind == "boolean":
        vals = (rng.random(ctx.size) < 0.5).astype(np.complex128)
    elif kind == "real":
        vals = rng.standard_normal(ctx.size).astype(np.complex128)
    elif kind == "complex":
        vals = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
    else:
        raise ToolkitError(f"unknown random table kind {kind!r}")
    return FnTable(ctx, vals)
