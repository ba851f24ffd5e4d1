"""Dense linear algebra over F_q at desk scale.

Matrices are numpy uint8 arrays with entries in [0, q); all arithmetic
goes through the FieldCtx tables, so q may be a proper prime power.
Gaussian elimination is used throughout (domains are small enough that
asymptotically faster algorithms would be noise): the scalar `rref`
serves single matrices and is the reference; `batched_rank` eliminates
a (B, r, c) stack at once, one Python step per column, for
`IndexMap.rank_table`.  `mat_mul`, `inv_matrix` (Gauss-Jordan) and `det`
(the Leibniz expansion) broadcast over leading axes.  Per-index tables
are not built from a stack of every matrix: restriction embeddings,
character restrictions and spectral masks are index tables of F_q-linear
maps M -> L M R, which `IndexMap.linear_image` builds by doubling over
the digits, and a rank of an image is a lookup in the rank table of its
shape.  Every derived table in qharm is held by its owner through one
helper, `Memo.memo`, which builds it on first use and hands back that
same object on every later call.

Canonical conventions, fixed once so that enumerations and audits are
bit-reproducible:

  * subspaces are stored as reduced row-echelon bases with strictly
    increasing pivot columns, one basis vector per row;
  * bases are completed by the least-index vectors (vector index =
    sum of v_i * q^i), in quotient lifts and umvirate normal forms alike.
    In closed form the completion is the unit vectors e_k, k ascending,
    for which column n-1-k is not a pivot of rref(rows[:, ::-1]);
    `complete_basis` gives the argument;
  * matrix <-> integer index maps are row-major base q, entry (i, j) of
    an r x c matrix contributing digit i*c + j.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations, product
from math import prod

import numpy as np

from .errors import ConsistencyError, SizeCapError, ToolkitError
from .gf import FieldCtx

DEFAULT_MAX_DOMAIN = 2**24
DEFAULT_MAX_SUBSPACES = 2**20


class Memo:
    """An owner of derived tables: memo(key, build) returns build() on the
    first call with key and that same object on every later one, so a hit
    costs one dict lookup.  A build that raises stores nothing."""

    def memo(self, key, build):
        try:
            return self._memo[key]
        except KeyError:
            pass
        except AttributeError:  # the first table of this owner
            self._memo = {}
        value = self._memo[key] = build()
        return value


# ---------------------------------------------------------------------------
# matrix arithmetic
# ---------------------------------------------------------------------------

def mat_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F_q; leading axes broadcast like numpy's matmul."""
    if a.shape[-1] != b.shape[-2]:
        raise ToolkitError(f"shape mismatch {a.shape} @ {b.shape}")
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.zeros(shape, dtype=np.uint8)
    for k in range(a.shape[-1]):
        out = ctx.add_table[out, ctx.mul_table[a[..., :, k, None], b[..., None, k, :]]]
    return out


def mat_vec(ctx: FieldCtx, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return mat_mul(ctx, a, np.asarray(v, dtype=np.uint8).reshape(-1, 1))[:, 0]


def rref(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form with unit pivots; returns (R, pivot columns)."""
    r = np.array(a, dtype=np.uint8)
    rows, cols = r.shape
    pivots: list[int] = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        found = -1
        for row in range(pr, rows):
            if r[row, col]:
                found = row
                break
        if found < 0:
            continue
        if found != pr:
            r[[pr, found]] = r[[found, pr]]
        piv_inv = ctx.inv(int(r[pr, col]))
        r[pr] = ctx.mul_table[r[pr], piv_inv]
        for row in range(rows):
            if row != pr and r[row, col]:
                factor = int(r[row, col])
                r[row] = ctx.add_table[r[row], ctx.mul_table[r[pr], ctx.neg(factor)]]
        pivots.append(col)
        pr += 1
    return r, pivots


def rank(ctx: FieldCtx, a: np.ndarray) -> int:
    return len(rref(ctx, a)[1])


def batched_rank(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """rank of every matrix in a (B, r, c) stack, as a (B,) int64 array.

    Elimination on all B matrices at once, one Python step per column.
    In every matrix whose column is nonzero, the step takes the first row
    with a nonzero entry there as pivot and subtracts multiples of it from
    every row with a nonzero entry, the pivot row included, so the pivot
    row drops out as zero.  The rank is the number of columns that had a
    pivot.  No row is swapped or scaled, and only the columns to the
    right of the current one are updated.
    """
    a = np.array(stack, dtype=np.uint8)
    if a.ndim != 3:
        raise ToolkitError(f"expected a (B, r, c) stack, got shape {a.shape}")
    n_mats, rows, cols = a.shape
    ranks = np.zeros(n_mats, dtype=np.int64)
    lane = np.arange(n_mats)
    for col in range(cols):
        column = a[:, :, col]
        nonzero = column != 0
        has = nonzero.any(axis=1)
        ranks += has
        if col + 1 == cols or not has.any():
            continue
        found = nonzero.argmax(axis=1)  # row 0 where the column is zero: every factor is 0
        factors = ctx.mul_table[ctx.neg_table[column], ctx.inv_table[column[lane, found]][:, None]]
        pivot_row = a[lane, found, col + 1:]
        a[:, :, col + 1:] = ctx.add_table[
            a[:, :, col + 1:], ctx.mul_table[factors[:, :, None], pivot_row[:, None, :]]
        ]
    return ranks


def det(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    """Determinant over F_q of every matrix in a (..., n, n) stack.

    The Leibniz expansion: one signed product of n table gathers per
    permutation of the columns, summed over all n! permutations.  Leading
    axes broadcast as in `mat_mul`; a single matrix gives a scalar.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ToolkitError("determinant of a non-square matrix")
    n = a.shape[-1]
    out = np.zeros(a.shape[:-2], dtype=np.uint8)
    for perm in permutations(range(n)):
        term = np.ones(a.shape[:-2], dtype=np.uint8)
        for row, col in enumerate(perm):
            term = ctx.mul_table[term, a[..., row, col]]
        if sum(i > j for i, j in combinations(perm, 2)) % 2:
            term = ctx.neg_table[term]
        out = ctx.add_table[out, term]
    return out[()]


def inv_matrix(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    """Inverse over F_q of every matrix in a (..., n, n) stack.

    Gauss-Jordan on [A | I] for the whole stack, one Python step per
    column: each matrix swaps its first row with a nonzero entry in the
    column (at or below the diagonal) into the pivot row, scales it to a
    unit pivot and clears the column in every other row.  Leading axes
    are kept; a singular member raises ToolkitError.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ToolkitError("inverse of a non-square matrix")
    n = a.shape[-1]
    aug = np.zeros((prod(a.shape[:-2]), n, 2 * n), dtype=np.uint8)
    aug[:, :, :n] = a.reshape(aug.shape[0], n, n)
    aug[:, :, n:] = np.eye(n, dtype=np.uint8)
    lane = np.arange(aug.shape[0])
    for col in range(n):
        found = col + (aug[:, col:, col] != 0).argmax(axis=1)
        pivot = aug[lane, found]
        if not pivot[:, col].all():
            raise ToolkitError("matrix is singular")
        aug[lane, found] = aug[:, col]
        pivot = ctx.mul_table[pivot, ctx.inv_table[pivot[:, col, None]]]
        aug = ctx.add_table[aug, ctx.mul_table[ctx.neg_table[aug[:, :, col, None]], pivot[:, None, :]]]
        aug[:, col] = pivot
    return aug[:, :, n:].reshape(a.shape)


def kernel_basis(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    """Canonical (RREF) basis of the right kernel {x : a x = 0}."""
    r, pivots = rref(ctx, a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.uint8)
    vecs = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        vecs[i, fc] = 1
        for pr, pc in enumerate(pivots):
            vecs[i, pc] = ctx.neg(int(r[pr, fc]))
    return rref(ctx, vecs)[0][: len(free)]


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of F_q^n held as a canonical RREF basis.

    Equality is a byte compare of the basis, so two equal subspaces have
    identical representations regardless of how they were produced.
    """

    __slots__ = ("ambient", "dim", "basis", "_key")

    def __init__(self, ctx: FieldCtx, ambient: int, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.uint8).reshape(-1, ambient)
        r, pivots = rref(ctx, rows)
        self.ambient = ambient
        self.dim = len(pivots)
        self.basis = r[: self.dim].copy()
        self.basis.setflags(write=False)
        self._key = (ambient, self.basis.tobytes())

    @property
    def key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Subspace(n={self.ambient}, dim={self.dim})"

    def contains_vector(self, ctx: FieldCtx, v: np.ndarray) -> bool:
        if not np.any(v):
            return True
        stacked = np.concatenate([self.basis, np.asarray(v, dtype=np.uint8).reshape(1, -1)])
        return rank(ctx, stacked) == self.dim

    def contains(self, ctx: FieldCtx, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        stacked = np.concatenate([self.basis, other.basis])
        return rank(ctx, stacked) == self.dim

    def vectors(self, ctx: FieldCtx) -> np.ndarray:
        """All q^dim member vectors, one per row: row i is c @ basis, c the
        coefficient row of index i."""
        ambient = IndexMap(ctx, 1, self.ambient)
        coeffs = IndexMap(ctx, 1, self.dim)
        return ambient.digits_table()[coeffs.linear_image(np.eye(1, dtype=np.uint8), self.basis, ambient)]


def zero_space(ctx: FieldCtx, n: int) -> Subspace:
    return Subspace(ctx, n, np.zeros((0, n), dtype=np.uint8))


def full_space(ctx: FieldCtx, n: int) -> Subspace:
    return Subspace(ctx, n, np.eye(n, dtype=np.uint8))


def span_of(ctx: FieldCtx, rows) -> Subspace:
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    return Subspace(ctx, rows.shape[1], rows)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = reduce(lambda a, b: a * b, [q**(n - i) - 1 for i in range(k)], 1)
    den = reduce(lambda a, b: a * b, [q**(k - i) - 1 for i in range(k)], 1)
    if num % den:
        raise ConsistencyError(f"Gaussian binomial [{n} choose {k}]_{q} is not an integer")
    return num // den


def enumerate_subspaces(ctx: FieldCtx, n: int, dim: int) -> list[Subspace]:
    """Every dim-dimensional subspace of F_q^n exactly once, canonical order.

    Generation walks RREF shapes directly (pivot columns, then free
    entries), so no dedup pass is needed; the result is sorted by basis
    bytes for a stable order.
    """
    if dim < 0 or dim > n:
        raise ToolkitError(f"dim={dim} out of range for n={n}")
    count = gaussian_binomial(n, dim, ctx.q)
    if count > DEFAULT_MAX_SUBSPACES:
        raise SizeCapError(f"subspace enumeration would produce {count} > cap {DEFAULT_MAX_SUBSPACES}")
    if dim == 0:
        return [zero_space(ctx, n)]
    out: list[Subspace] = []
    for pivots in combinations(range(n), dim):
        free_pos = [
            (r, c)
            for r in range(dim)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        base = np.zeros((dim, n), dtype=np.uint8)
        for r, pc in enumerate(pivots):
            base[r, pc] = 1
        for entries in product(range(ctx.q), repeat=len(free_pos)):
            m = base.copy()
            for (r, c), x in zip(free_pos, entries):
                m[r, c] = x
            out.append(Subspace(ctx, n, m))
    out.sort(key=lambda s: s.key)
    if len(out) != count:
        raise ConsistencyError(f"enumerated {len(out)} subspaces of dimension {dim}, not {count}")
    return out


# ---------------------------------------------------------------------------
# quotient frames
# ---------------------------------------------------------------------------

def complete_basis(ctx: FieldCtx, rows, n: int) -> np.ndarray:
    """(n, n) basis of F_q^n: the independent `rows` first, then the
    least-index vectors that complete them, in index order.

    Only unit vectors are ever taken.  The candidates of index below q^k
    are the vectors on e_0..e_{k-1}, and e_j (index q^j) is either taken
    or already in the span when it is reached, so every candidate
    between q^j and q^(j+1) is in the span by then.  Hence e_k is taken
    exactly when it is not in span(rows, e_0, ..., e_{k-1}).  Modulo
    e_0..e_{k-1} only coordinates k..n-1 count; they are the leading
    n-k columns of rows[:, ::-1], with e_k the last of them, so e_k is
    in that span exactly when column n-1-k is a pivot of the rref of
    the reversed rows.
    """
    rows = np.asarray(rows, dtype=np.uint8).reshape(-1, n)
    pivots = rref(ctx, rows[:, ::-1])[1]
    units = [k for k in range(n) if n - 1 - k not in pivots]
    return np.concatenate([rows, np.eye(n, dtype=np.uint8)[units]]).reshape(n, n)


class QuotientFrame:
    """A deterministic identification of V/V' with a complement of V'.

    full_basis holds the subspace basis followed by its least-index
    completion to a basis of F_q^n (the lifts).  coord_matrix maps a
    vector to its coordinates in that basis; quotient_map keeps only
    the lift coordinates.
    """

    def __init__(self, ctx: FieldCtx, subspace: Subspace):
        n = subspace.ambient
        k = subspace.dim
        self.subspace = subspace
        self.full_basis = complete_basis(ctx, subspace.basis, n)
        # coords c of v satisfy v = sum c_i * basis_row_i, i.e. c = (B^T)^{-1} v.
        self.coord_matrix = inv_matrix(ctx, self.full_basis.T.copy())
        self.quotient_map = self.coord_matrix[k:, :].copy()


# ---------------------------------------------------------------------------
# index maps
# ---------------------------------------------------------------------------

def encode_vector(v: np.ndarray, q: int) -> int:
    return int(sum(int(c) * q**i for i, c in enumerate(np.asarray(v).reshape(-1))))


def decode_vector(idx: int, n: int, q: int) -> np.ndarray:
    return np.array([(idx // q**i) % q for i in range(n)], dtype=np.uint8)


class IndexMap(Memo):
    """Bijection between r x c matrices over F_q and integers in [0, q^(r*c)).

    Entry (i, j) contributes digit i*c + j in base q; digit 0 is the
    least significant.  Index addition is field addition per digit.
    """

    def __init__(self, ctx: FieldCtx, rows: int, cols: int):
        self.ctx = ctx
        self.q = ctx.q
        self.rows = rows
        self.cols = cols
        self.k = rows * cols
        n_total = ctx.q**self.k
        if n_total > DEFAULT_MAX_DOMAIN:
            raise SizeCapError(f"domain size {n_total} exceeds cap {DEFAULT_MAX_DOMAIN}")
        self.size = n_total
        self.powers = np.array([self.q**i for i in range(self.k)], dtype=np.int64)

    def to_matrix(self, idx: int) -> np.ndarray:
        if not (0 <= idx < self.size):
            raise ToolkitError(f"index {idx} out of range [0, {self.size})")
        flat = (idx // self.powers) % self.q
        return flat.astype(np.uint8).reshape(self.rows, self.cols)

    def digits_table(self) -> np.ndarray:
        """(size, k) base-q digit decomposition of every index, read-only."""

        def build():
            idx = np.arange(self.size, dtype=np.int64)
            digits = ((idx[:, None] // self.powers[None, :]) % self.q).astype(np.uint8)
            digits.setflags(write=False)
            return digits

        return self.memo("digits", build)

    def add_indices(self, a, b):
        """Field addition of indices; broadcasts like numpy over a and b."""
        if self.ctx.p == 2:  # an element encodes its coefficient bits, so adding is XOR, digit or index
            return np.bitwise_xor(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        da = self.digits_table()[np.asarray(a, dtype=np.int64)]
        db = self.digits_table()[np.asarray(b, dtype=np.int64)]
        s = self.ctx.add_table[da, db].astype(np.int64)
        return s @ self.powers

    def neg_index(self, a):
        da = self.digits_table()[np.asarray(a, dtype=np.int64)]
        return self.ctx.neg_table[da].astype(np.int64) @ self.powers

    def rank_table(self) -> np.ndarray:
        """rank of the matrix of every index, as int8."""
        stack = self.digits_table().reshape(self.size, self.rows, self.cols)
        return batched_rank(self.ctx, stack).astype(np.int8)

    def linear_image(self, left: np.ndarray, right: np.ndarray, target: "IndexMap") -> np.ndarray:
        """Index in target of left @ M @ right for every index of M, as int64.

        The map is F_q-linear, so the table doubles digit by digit: the block
        of indices with digit d equal to c is the block below q^d plus c times
        the image of the unit matrix of digit d, one index addition an entry.
        """
        field = self.ctx
        left = np.asarray(left, dtype=np.uint8)
        right = np.asarray(right, dtype=np.uint8)
        if left.shape != (target.rows, self.rows) or right.shape != (self.cols, target.cols):
            raise ToolkitError(f"{left.shape} @ ({self.rows}, {self.cols}) @ {right.shape}"
                               f" is not {target.rows} x {target.cols}")
        # the unit matrix of digit i*cols + j maps to column i of left times row j of right
        images = field.mul_table[left.T[:, None, :, None], right[None, :, None, :]].reshape(self.k, target.k)
        scalars = np.arange(1, self.q, dtype=np.uint8)[:, None, None]
        multiples = field.mul_table[scalars, images].astype(np.int64) @ target.powers  # (q - 1, k)
        table = np.zeros(self.size, dtype=np.int64)
        step = 1
        for d in range(self.k):
            table[step: self.q * step] = target.add_indices(multiples[:, d, None], table[None, :step]).reshape(-1)
            step *= self.q
        return table
