"""SL_n(F_q) and GL_n(F_q) as subsets of the matrix scheme L(V, V).

The group is enumerated explicitly and every element is addressed both
by its scheme index and by its ordinal position (`GroupTable.ordinals_of`
maps a stack of matrices to ordinals).  The tables are gathers, with no
loop per element: one broadcast determinant over L(V, V) selects G, the
vector action is one broadcast product with every vector, and inverses
and products are read off it, since column k of g^-1 is the preimage of
e_k and column k of g h is g applied to column k of h.  L^2(G) is filtered by
the span of products of at most d dictator indicators 1[g v = u]; those
spans are the strict levels, which are the tensor-rank level spaces
wherever every determinant is 1 (SL_n, and GL_n(F_2)), and an
eigen-refinement of convolution by random class functions splits each
level into isotypic components, giving exact irreducible dimensions
without any character theory.  Each component then yields one unitary
irreducible representation, tabulated on every element, so an operator
T_f on a level reduces to one small Fourier coefficient per irreducible.

Conventions: levels and set audits share one table of dictator
systems per group (`GroupTable.dictator_systems`).  A system of order s
fixes the images of one basis of an s-dimensional subspace, with
independent targets; products with dependent constraints collapse to
shorter products or vanish on G, and for a fixed subspace every basis
gives the same set of masks, so one basis per subspace spans the same
levels.  The systems of a subspace with basis v are the distinct rows
of the action's columns v, in lexicographic order: the target tuples
that some element of G meets.  The table stores membership once: per
element, the system it lies in on each subspace.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import RefinementError, SizeCapError, ToolkitError
from .fqlin import IndexMap, Memo, Subspace, det, encode_vector, enumerate_subspaces, mat_mul
from .gf import FieldCtx, get_field
from .scheme import FnTable, degree_project, get_scheme, random_table

DEFAULT_GROUP_CAP = 10**5
_MUL_TABLE_CAP = 6000


class GroupTable(Memo):
    """Enumerated SL or GL with index maps, inverses, and class labels.

    Its derived tables (products, actions, classes, dictator systems, block
    subgroups, levels, isotypic blocks and report, irreducibles) are memo
    entries, each held once."""

    def __init__(self, kind: str, n: int, field: FieldCtx):
        if kind not in ("sl", "gl"):
            raise ToolkitError(f"unknown group kind {kind!r}")
        self.kind = kind
        self.n = n
        self.field = field
        self.scheme = get_scheme(field.q, n, n)
        every = self.scheme.domain_index.digits_table().reshape(-1, n, n)
        dets = det(field, every)
        keep = dets == 1 if kind == "sl" else dets != 0
        self.elements = np.flatnonzero(keep).astype(np.int64)
        self.size = int(self.elements.shape[0])
        if self.size > DEFAULT_GROUP_CAP:
            raise SizeCapError(f"group has {self.size} elements > cap {DEFAULT_GROUP_CAP}")
        self.dets = dets[self.elements]
        self.pos = np.full(self.scheme.size, -1, dtype=np.int64)
        self.pos[self.elements] = np.arange(self.size)
        self.mats = every[self.elements]
        self._vectors = IndexMap(field, n, 1).digits_table()  # F_q^n, one vector per row, in index order
        self._units = field.q ** np.arange(n, dtype=np.int64)  # encodings of e_0, ..., e_{n-1}
        # column k of g^-1 is the preimage of e_k under g; each action row is a permutation
        preimages = np.argsort(self.vector_action(), axis=1)
        self.inv = self.ordinals_of(np.swapaxes(self._vectors[preimages[:, self._units]], 1, 2))
        self.identity = int(self.ordinals_of(np.eye(n, dtype=np.uint8)))

    @property
    def q(self) -> int:
        return self.field.q

    def __repr__(self) -> str:
        return f"GroupTable({self.kind}_{self.n}(F_{self.q}), size={self.size})"

    # -- ordinals ---------------------------------------------------------------

    def ordinals_of(self, mats) -> np.ndarray:
        """Ordinals of a (..., n, n) stack of matrices, -1 where a matrix is not in G."""
        mats = np.asarray(mats, dtype=np.int64)
        if mats.shape[-2:] != (self.n, self.n):
            raise ToolkitError(f"expected ({self.n}, {self.n}) matrices, got shape {mats.shape}")
        return self.pos[mats.reshape(mats.shape[:-2] + (self.n * self.n,)) @ self.scheme.domain_index.powers]

    def check_ordinals(self, ordinals, what: str = "group set") -> np.ndarray:
        """The ordinals as int64, after checking that each one lies in [0, |G|)."""
        ordinals = np.asarray(ordinals, dtype=np.int64)
        if ordinals.size and (ordinals.min() < 0 or ordinals.max() >= self.size):
            raise ToolkitError(f"{what}: ordinals must lie in [0, {self.size})")
        return ordinals

    # -- multiplication -------------------------------------------------------

    def mul_table(self) -> np.ndarray:
        """Ordinals of g h in row g; column k of g h is g applied to column k of h."""

        def build():
            if self.size > _MUL_TABLE_CAP:
                raise SizeCapError(f"multiplication table refused for |G|={self.size}")
            act = self.vector_action()
            # a matrix's scheme index is the sum over k of q^k times that of its column k placed as column 0
            placed = (self._vectors.astype(np.int64) @ self.scheme.domain_index.powers[:: self.n])[act]
            cols = act[:, self._units]
            m = np.empty((self.size, self.size), dtype=np.int32)
            for g in range(self.size):
                m[g] = self.pos[placed[g][cols] @ self._units]
            return m

        return self.memo("mul", build)

    def xyinv_table(self) -> np.ndarray:
        """Table of x y^{-1} ordinals, the kernel of group convolution."""
        return self.memo("xyinv", lambda: self.mul_table()[:, self.inv])

    # -- actions ---------------------------------------------------------------

    def vector_action(self, transpose: bool = False) -> np.ndarray:
        """(size, q^n) encodings of g v (or g^T v) for every vector index."""

        def build():
            mats = np.swapaxes(self.mats, 1, 2) if transpose else self.mats
            return self._units @ mat_mul(self.field, mats, self._vectors.T).astype(np.int64)

        return self.memo(("vector_action", transpose), build)

    def dictator_systems(self) -> DictatorSystems:
        """The shared table of independent dictator systems, built on first use."""
        return self.memo("dictator_systems", lambda: DictatorSystems(self))

    # -- conjugacy classes -------------------------------------------------------

    def conjugacy_classes(self) -> np.ndarray:
        """Class label per ordinal; labels are assigned in orbit-discovery order."""

        def build():
            m = self.mul_table()
            labels = np.full(self.size, -1, dtype=np.int64)
            next_label = 0
            allg = np.arange(self.size)
            for x in range(self.size):
                if labels[x] >= 0:
                    continue
                orbit = np.unique(m[m[allg, x], self.inv[allg]])
                labels[orbit] = next_label
                next_label += 1
            return labels

        return self.memo("classes", build)

    def class_count(self) -> int:
        return int(self.conjugacy_classes().max()) + 1

    # -- function tables ---------------------------------------------------------

    def table(self, values) -> FnTable:
        v = np.asarray(values, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.size:
            raise ToolkitError(f"expected {self.size} values, got {v.shape[0]}")
        return FnTable(self, v)

    def indicator(self, ordinals) -> FnTable:
        v = np.zeros(self.size, dtype=np.complex128)
        v[self.check_ordinals(ordinals, "indicator")] = 1.0
        return FnTable(self, v)


_GROUP_CACHE: dict[tuple, GroupTable] = {}


def get_group(kind: str, n: int, q: int) -> GroupTable:
    key = (kind, n, q)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = GroupTable(kind, n, get_field(q))
    return _GROUP_CACHE[key]


def _group_of(f: FnTable) -> GroupTable:
    if not isinstance(f.domain, GroupTable):
        raise ToolkitError("operation requires a group-domain function")
    return f.domain


# ---------------------------------------------------------------------------
# transfer maps and convolution
# ---------------------------------------------------------------------------

def transfer(f: FnTable) -> FnTable:
    """The j transfer: extends f by zero from G to L(V,V)."""
    g = _group_of(f)
    vals = np.zeros(g.scheme.size, dtype=np.complex128)
    vals[g.elements] = f.values
    return FnTable(g.scheme, vals)


def transfer_to_group(f: FnTable, group: GroupTable) -> FnTable:
    """The i transfer: restricts a function on L(V,V) to G."""
    if f.domain is not group.scheme:
        raise ToolkitError("scheme/group mismatch in i-transfer")
    return FnTable(group, f.values[group.elements])


def convolver(f: FnTable) -> Callable[[np.ndarray], np.ndarray]:
    """The map from the values of g (or a (|G|, k) stack of them, one per
    column) to those of f * g.  f's kernel K[x, y] = f(x y^{-1}) is gathered
    once, and each call is K @ g / |G|: (f*g)(x) = E_y f(x y^{-1}) g(y)."""
    group = _group_of(f)
    kern = f.values[group.xyinv_table()]
    return lambda values: kern @ values / group.size


def convolve(f: FnTable, g: FnTable) -> FnTable:
    """(f*g)(x) = E_y f(x y^{-1}) g(y)."""
    gt = _group_of(f)
    if g.domain is not gt:
        raise ToolkitError("convolution requires a common group")
    return FnTable(gt, convolver(f)(g.values))


def convolve_batch(f_values: np.ndarray, basis: np.ndarray, group: GroupTable) -> np.ndarray:
    """f * b for every row b of basis; returns (n_rows, |G|).  No src path
    calls it; it stays because tests/oracles.py builds operator matrices
    with it and perfbench/tracing.py wraps it by name."""
    return convolver(FnTable(group, f_values))(basis.T).T


# ---------------------------------------------------------------------------
# tensor-rank level filtration
# ---------------------------------------------------------------------------

def _dictator_family(group: GroupTable, action: np.ndarray):
    """Systems and orders of one dictator family (one action), and the
    (|G|, 1 + #subspaces) index of the system each element lies in.

    Order by order and subspace by subspace (echelon basis v), the
    systems are the distinct rows of action[:, v] in lexicographic order:
    exactly the independent target tuples that some element of G meets.
    """
    systems: list[tuple] = [()]
    orders = [0]
    system_of = [np.zeros(group.size, dtype=np.int64)]
    for a in range(1, group.n + 1):
        for sub in enumerate_subspaces(group.field, group.n, a):
            v_encs = [encode_vector(row, group.q) for row in sub.basis]
            targets, which = np.unique(action[:, v_encs], axis=0, return_inverse=True)
            system_of.append(len(systems) + which.reshape(-1))
            systems.extend(tuple(zip(v_encs, us)) for us in targets.tolist())
            orders.extend([a] * len(targets))
    return systems, np.array(orders, dtype=np.int64), np.stack(system_of, axis=1)


class DictatorSystems(Memo):
    """Every independent dictator system of order <= n on G, held as one
    per-element index.

    A row system ((v_1, u_1), ..., (v_a, u_a)) is the umvirate
    {g : g v_i = u_i} for an echelon basis v of an a-dimensional
    subspace and independent targets u; a functional system is the same
    with g^T in place of g.  System k has order `row_orders[k]`
    (`func_orders[k]`), and index 0 is the empty system (all of G).  Each
    g lies in exactly one system per subspace, so row_of[g, s] names g's
    row system on subspace s, and system k is {g : row_of[g, s] == k}.

    The set audit's mixed umvirates are the cells U = row system i &
    functional system j, flat index i * len(func_systems) + j, of order
    row_orders[i] + func_orders[j].  cell_of[g] holds the positions of
    g's (#subspaces)^2 cells in the sorted list of nonempty cells, of
    orders `cell_orders`; `cells[d]` and `cell_sizes[d]` are the order-d
    cells, ascending, and their sizes |U & G|, the counts of cell_of over
    G.  A set audit counts |A & U| as np.bincount(cell_of[A]).  The flat
    cell keys are sorted as int32 while they fit, which halves the
    np.unique over them; the cells come out as int64 either way.
    The mixed umvirate of each flat cell that `globality.cell_umvirate` has
    built is a memo entry of the table.
    """

    def __init__(self, group: GroupTable):
        self.row_systems, self.row_orders, self.row_of = _dictator_family(group, group.vector_action(False))
        self.func_systems, self.func_orders, func_of = _dictator_family(group, group.vector_action(True))
        width = len(self.func_systems)
        key_type = np.int32 if len(self.row_systems) * width < 2**31 else np.int64
        keys = self.row_of.astype(key_type)[:, :, None] * width + func_of.astype(key_type)[:, None, :]
        cells, cell_of, sizes = np.unique(keys, return_inverse=True, return_counts=True)
        cells = cells.astype(np.int64)
        self.cell_of = cell_of.reshape(group.size, -1)
        self.cell_orders = self.row_orders[cells // width] + self.func_orders[cells % width]
        self.cells = [cells[self.cell_orders == d] for d in range(2 * group.n + 1)]
        self.cell_sizes = [sizes[self.cell_orders == d] for d in range(2 * group.n + 1)]


class _GramSchmidtRows:
    """Rows orthonormal under E_G, grown by modified Gram-Schmidt with one
    re-orthogonalization pass.

    The rows and their conjugates are kept in buffers that double when
    full, so extending never re-stacks or re-conjugates the basis.
    """

    def __init__(self, size: int):
        self.size = size
        self.count = 0
        self._rows = np.empty((min(16, size), size), dtype=np.complex128)
        self._conj = np.empty_like(self._rows)

    def __len__(self) -> int:
        return self.count

    def extend(self, gen: np.ndarray) -> bool:
        """Append the normalized residual of gen if its norm exceeds 1e-8."""
        r = gen.astype(np.complex128)
        if self.count:
            b = self._rows[: self.count]
            b_conj = self._conj[: self.count]
            for _ in range(2):
                coeffs = b_conj @ r / self.size
                r = r - coeffs @ b
        norm = np.sqrt(np.mean(np.abs(r) ** 2).real)
        if norm <= 1e-8:
            return False
        if self.count == len(self._rows):
            pad = np.empty((min(self.count, self.size - self.count), self.size), dtype=np.complex128)
            self._rows = np.concatenate([self._rows, pad])
            self._conj = np.concatenate([self._conj, pad])
        self._rows[self.count] = r / norm
        np.conj(self._rows[self.count], out=self._conj[self.count])
        self.count += 1
        return True

    def basis(self) -> np.ndarray:
        return self._rows[: self.count].copy()


@dataclass
class LevelBasisSet:
    """Nested orthonormal bases of L^2(G)_{<=d} from umvirate-indicator spans."""

    group: GroupTable
    dims: list[int]  # dims[d] = dim L^2(G)_{<=d}
    basis: np.ndarray  # (dims[-1], |G|), prefix-nested across levels

    def cum_basis(self, d: int) -> np.ndarray:
        return self.basis[: self.dims[d]]

    def eq_basis(self, d: int) -> np.ndarray:
        lo = self.dims[d - 1] if d > 0 else 0
        return self.basis[lo: self.dims[d]]

    def dmax(self) -> int:
        return len(self.dims) - 1


def build_level_basis(group: GroupTable, dmax: int) -> LevelBasisSet:
    """Gram-Schmidt over the order-d row dictator systems, d = 0..dmax, in
    table order.
    Functional systems span the same levels: tau(g) = g^-T maps them to row
    systems, and a level's central idempotent Psi is a GL_n class function
    equal to its complex conjugate, so Psi(tau g) = conj Psi(g^T) = Psi(g)."""
    if not 0 <= dmax <= group.n:
        raise ToolkitError(f"dmax={dmax} must lie in [0, n={group.n}]")
    systems = group.dictator_systems()
    column_orders = systems.row_orders[systems.row_of[0]]
    rows = _GramSchmidtRows(group.size)
    dims = []
    for d in range(dmax + 1):
        for column in systems.row_of.T[column_orders == d]:
            for k in np.unique(column):
                rows.extend(column == k)
        dims.append(len(rows))
    return LevelBasisSet(group, dims, rows.basis())


def get_levels(group: GroupTable) -> LevelBasisSet:
    """Every level of the group, a memo entry of the group."""
    return group.memo("levels", lambda: build_level_basis(group, group.n))


def level_project(f: FnTable, d: int) -> FnTable:
    """Orthogonal projection f_{<=d}; f_{=d} via level_project_eq."""
    group = _group_of(f)
    b = get_levels(group).cum_basis(d)
    coeffs = b.conj() @ f.values / group.size
    return FnTable(group, coeffs @ b)


def level_project_eq(f: FnTable, d: int) -> FnTable:
    """Orthogonal projection f_{=d} onto the strict level d."""
    group = _group_of(f)
    b = get_levels(group).eq_basis(d)
    if b.shape[0] == 0:
        return FnTable(group, np.zeros(group.size, dtype=np.complex128))
    coeffs = b.conj() @ f.values / group.size
    return FnTable(group, coeffs @ b)


# ---------------------------------------------------------------------------
# juntas
# ---------------------------------------------------------------------------

def pointwise_stabilizer(group: GroupTable, u: Subspace) -> np.ndarray:
    """Ordinals of elements fixing the subspace pointwise."""
    act = group.vector_action(False)
    mask = np.ones(group.size, dtype=bool)
    for row in u.basis:
        enc = encode_vector(row, group.q)
        mask &= act[:, enc] == enc
    return np.flatnonzero(mask)


def junta_test(f: FnTable, u: Subspace) -> bool:
    """True iff f is invariant under right multiplication by the stabilizer."""
    group = _group_of(f)
    h = pointwise_stabilizer(group, u)
    m = group.mul_table()
    for ho in h:
        if np.max(np.abs(f.values[m[:, ho]] - f.values)) > 1e-9:
            return False
    return True


def junta_project(f: FnTable, u: Subspace) -> FnTable:
    """Average over right cosets of the stabilizer: the nearest junta."""
    group = _group_of(f)
    h = pointwise_stabilizer(group, u)
    m = group.mul_table()
    acc = np.zeros(group.size, dtype=np.complex128)
    for ho in h:
        acc += f.values[m[:, ho]]
    return FnTable(group, acc / len(h))


# ---------------------------------------------------------------------------
# level lower bounds (abelian degree vs tensor-rank level)
# ---------------------------------------------------------------------------

def level_lower_check(f: FnTable, d: int) -> dict:
    """Ratios ||j(f)^{<=d}|| / ||f|| and ||T_d f|| / ||f|| for f in level d.

    Asserts both are >= |G| / q^{n^2} (and hence >= 1/(4q)).
    """
    group = _group_of(f)
    fd = level_project_eq(f, d)
    norm = np.sqrt(fd.norm2sq())
    if norm < 1e-9:
        raise ToolkitError("projection to the level is negligible")
    jf = transfer(fd)
    jcum = degree_project(jf, d, "cumulative")
    ratio_j = np.sqrt(jcum.norm2sq()) / norm
    td = transfer_to_group(jcum, group)
    ratio_t = np.sqrt(td.norm2sq()) / norm
    bound = group.size / float(group.q) ** (group.n**2)
    weak = 1.0 / (4 * group.q)
    ok = ratio_j >= bound - 1e-9 and ratio_t >= bound - 1e-9
    assert bound >= weak - 1e-12
    return {
        "ratio_j": float(ratio_j),
        "ratio_t": float(ratio_t),
        "bound": float(bound),
        "weak_bound": float(weak),
        "ok": bool(ok),
    }


# ---------------------------------------------------------------------------
# isotypic refinement
# ---------------------------------------------------------------------------

@dataclass
class IsotypicReport:
    group_size: int
    class_count: int
    component_dims: dict  # level d -> sorted list of irreducible dimensions
    m_d: dict  # level d -> minimal irreducible dimension (absent if empty)

    def total_blocks(self) -> int:
        return sum(len(v) for v in self.component_dims.values())

    def sum_of_squares(self) -> int:
        return int(sum(dim * dim for v in self.component_dims.values() for dim in v))


_ISOTYPIC_DRAWS = 3  # random class-function convolutions per level


def _cluster_eigvals(vals: np.ndarray) -> list[list[int]]:
    """Eigenvalue indices grouped by first-come representatives within 1e-6."""
    clusters: list[tuple[complex, list[int]]] = []
    for i, lam in enumerate(vals):
        placed = False
        for rep, members in clusters:
            if abs(lam - rep) <= 1e-6:
                members.append(i)
                placed = True
                break
        if not placed:
            clusters.append((lam, [i]))
    return [members for _, members in clusters]


def isotypic_blocks(group: GroupTable) -> dict[int, list[np.ndarray]]:
    """_refine_blocks(group), a memo entry of the group; callers must not
    mutate the blocks."""
    return group.memo("isotypic_blocks", lambda: _refine_blocks(group))


def _refine_blocks(group: GroupTable) -> dict[int, list[np.ndarray]]:
    """Orthonormal bases of the isotypic components inside each level.

    Convolution by a class function acts as a scalar on each isotypic
    bimodule, so clustered eigenspaces of a random class-function
    convolution are unions of components; intersecting the clusterings
    across `_ISOTYPIC_DRAWS` draws from default_rng(0) removes accidental
    collisions.
    """
    levels = get_levels(group)
    labels = group.conjugacy_classes()
    n_classes = group.class_count()
    rng = np.random.default_rng(0)

    out: dict[int, list[np.ndarray]] = {}
    for d in range(levels.dmax() + 1):
        eq = levels.eq_basis(d)
        if eq.shape[0] == 0:
            out[d] = []
            continue
        blocks = [eq]
        for _ in range(_ISOTYPIC_DRAWS):
            cvals = rng.standard_normal(n_classes)[labels].astype(np.complex128)
            conv_c = convolver(FnTable(group, cvals))
            new_blocks = []
            for qb in blocks:
                if qb.shape[0] == 1:
                    new_blocks.append(qb)
                    continue
                conv = conv_c(qb.T).T  # rows: c * q_i
                mat = qb.conj() @ conv.T / group.size  # mat[i,j] = <c*q_j, q_i>
                vals, vecs = np.linalg.eig(mat)
                for members in _cluster_eigvals(vals):
                    coeffs = vecs[:, members].T  # rows span the cluster in block coords
                    u, s, vh = np.linalg.svd(coeffs)
                    ortho = vh[: len(members)]
                    new_blocks.append(ortho @ qb)
            blocks = new_blocks
        out[d] = blocks
    return out


def isotypic_refine(group: GroupTable) -> IsotypicReport:
    """Infer irreducible dimensions per level from the eigen-refinement."""
    blocks = isotypic_blocks(group)
    n_classes = group.class_count()
    component_dims: dict[int, list[int]] = {}
    m_d: dict[int, int] = {}
    for d, blist in blocks.items():
        dims = []
        for qb in blist:
            k = qb.shape[0]
            root = np.sqrt(k)
            if abs(root - round(root)) > 1e-6:
                raise RefinementError(
                    f"block of dimension {k} at level {d} is not a perfect square"
                )
            dims.append(int(round(root)))
        component_dims[d] = sorted(dims)
        if dims:
            m_d[d] = min(dims)

    report = IsotypicReport(group.size, n_classes, component_dims, m_d)
    if report.sum_of_squares() != group.size:
        raise RefinementError(
            f"sum of squared dimensions {report.sum_of_squares()} != |G| = {group.size}"
        )
    return report


def glt_growth_report(group: GroupTable, report: IsotypicReport) -> dict:
    """Reported-only growth diagnostics for the minimal dimensions m_d.

    The dimension lower bound q^{c' d n} has an unspecified constant, so
    nothing here is asserted; the row records whether m_d is
    nondecreasing and how m_1 compares with (q^n - 1)/(q - 1) - 1.
    """
    q, n = group.q, group.n
    ds = sorted(report.m_d)
    seq = [report.m_d[d] for d in ds]
    ref = (q**n - 1) // (q - 1) - 1
    return {
        "m_d": dict(zip(ds, seq)),
        "nondecreasing": all(a <= b for a, b in zip(seq, seq[1:])),
        "m_1": report.m_d.get(1),
        "reference_scale": ref,
        "log_q_m_d_over_dn": {
            d: float(np.log(report.m_d[d]) / (np.log(q) * d * n)) for d in ds if d >= 1
        },
    }


def get_isotypic(group: GroupTable) -> IsotypicReport:
    """isotypic_refine(group), a memo entry of the group."""
    return group.memo("isotypic", lambda: isotypic_refine(group))


# ---------------------------------------------------------------------------
# irreducible representations, one per isotypic block
# ---------------------------------------------------------------------------

_IRREP_ELEMENTS = 3  # seeded elements of the right-translation operator, also the generators
_IRREP_GAP = 1e-6  # least gap below the top d_rho eigenvalues of that operator


def _translation_weights(rng: np.random.Generator, count: int) -> np.ndarray:
    """Complex weights w_k of the right-translation operator.  Real symmetric
    sums cannot split a 2-dimensional representation of determinant 1:
    there rho(s) + rho(s)^-1 is the scalar tr rho(s)."""
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


@dataclass
class Irreducible:
    """A unitary irreducible representation rho of G, realized on one
    minimal left ideal J of its isotypic block: rho(z)[i, j] = <L_z e_j, e_i>
    for the orthonormal basis e of J, with (L_z h)(x) = h(z^-1 x)."""

    degree: int
    table: np.ndarray  # (|G|, degree^2): row z is rho(z), row-major

    def fourier(self, values: np.ndarray) -> np.ndarray:
        """rho_hat(f) = E_z f(z) rho(z), the block of T_f on J."""
        return (values @ self.table / self.table.shape[0]).reshape(self.degree, self.degree)


def _generation_layers(group: GroupTable, gens: np.ndarray):
    """Breadth-first layers of G from the identity under right
    multiplication by gens: per layer (elements, parents, generator
    positions) with element = parent * gens[position], each element once.
    None if gens do not generate G."""
    mul = group.mul_table()
    seen = np.zeros(group.size, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    layers = []
    while frontier.size:
        reached = mul[frontier][:, gens].reshape(-1)
        parents = np.repeat(frontier, len(gens))
        positions = np.tile(np.arange(len(gens)), len(frontier))
        fresh = ~seen[reached]
        frontier, first = np.unique(reached[fresh], return_index=True)
        seen[frontier] = True
        layers.append((frontier, parents[fresh][first], positions[fresh][first]))
    return layers if seen.all() else None


def _build_irreducibles(group: GroupTable) -> dict[int, list[Irreducible]]:
    blocks = isotypic_blocks(group)
    mul = group.mul_table()
    rng = np.random.default_rng(0)
    gens = rng.choice(group.size, size=min(_IRREP_ELEMENTS, group.size), replace=False)
    while (layers := _generation_layers(group, gens)) is None:
        gens = np.append(gens, rng.integers(group.size))
    weights = _translation_weights(rng, len(gens))
    # h(x s) and h(x s^-1) as functions of x: gathers of h at these columns
    right, right_inv = mul[:, gens].T, mul[:, group.inv[gens]].T
    left_inv = mul[group.inv[gens]]  # h(s^-1 x)

    out: dict[int, list[Irreducible]] = {}
    for d, blist in blocks.items():
        out[d] = []
        for qb in blist:
            k = int(round(np.sqrt(qb.shape[0])))
            # A = sum_k conj(w_k) R_{s_k^-1} + w_k R_{s_k} on the block: I_k (x) B
            # for a generic Hermitian B, so its top eigenspace is a minimal left ideal
            moved = sum(w.conjugate() * qb[:, ri] + w * qb[:, r] for w, r, ri in zip(weights, right, right_inv))
            mat = qb.conj() @ moved.T / group.size  # mat[i, j] = <A q_j, q_i>
            vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
            if k > 1 and not vals[-k] - vals[-k - 1] > _IRREP_GAP:
                raise RefinementError(f"right-translation eigen-gap {vals[-k] - vals[-k - 1]:.2e} "
                                      f"at level {d} (degree {k}) is not above {_IRREP_GAP}")
            ideal = vecs[:, -k:].T @ qb  # (k, |G|), orthonormal under E_G
            gen_rho = np.stack([ideal.conj() @ ideal[:, li].T / group.size for li in left_inv])
            rho = np.empty((group.size, k, k), dtype=np.complex128)
            rho[group.identity] = np.eye(k)
            for elements, parents, positions in layers:
                rho[elements] = rho[parents] @ gen_rho[positions]
            out[d].append(Irreducible(k, rho.reshape(group.size, k * k)))
    return out


def get_irreducibles(group: GroupTable) -> dict[int, list[Irreducible]]:
    """Per level, one tabulated irreducible per isotypic block, in block
    order; a memo entry of the group, built on first use.

    In each block Q, the top d_rho eigenvectors of the self-adjoint
    right-translation operator h -> sum_k conj(w_k) h(. s_k^-1) + w_k h(. s_k)
    (complex weights w_k; three elements s_k from default_rng(0), and more
    until they generate G) span a minimal left ideal J.
    rho is computed on the generators s_k from J and multiplied along the
    breadth-first layers of right multiplication, rho(z s) = rho(z) rho(s).
    The tables hold |G|^2 complex entries over all levels.  Raises
    RefinementError when the eigen-gap below the top d_rho eigenvalues is
    not above 1e-6."""
    return group.memo("irreducibles", lambda: _build_irreducibles(group))


random_group_table = random_table  # seeded random functions on G draw as on a scheme
