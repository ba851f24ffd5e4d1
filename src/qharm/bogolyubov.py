"""Product-set algebra and the structure pipeline on SL_n(F_q).

Exact computations only: product sets by table lookup, groumvirate
enumeration by the (fixed subspace, invariant complement) parametrization
cross-checked against conjugation orbits, containment searches in
A A^{-1} A A^{-1}, the 0.99-density step through the density-bump
search, and easy-set covers for approximate subgroups.

Product sets, the dense-set meet check (U' <= T1 T1^{-1}), cover coset
labels and conjugation orbits are each one gather of the multiplication
table, and so is the containment scan, per k; groumvirates come from one
batched determinant.  The loops these replace are references in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ToolkitError
from .fqlin import det, enumerate_subspaces
from .globality import (
    DEFAULT_ZETA,
    BumpResult,
    GoodUmvirate,
    block_subgroup_members,
    coset_rows,
    density_bump_search,
)
from .groups import GroupTable


@dataclass(eq=False)
class GroupSet:
    """A subset of an enumerated group, held as sorted unique ordinals."""

    group: GroupTable
    ordinals: np.ndarray

    def __post_init__(self):
        self.ordinals = np.unique(self.group.check_ordinals(self.ordinals))

    @property
    def size(self) -> int:
        return int(self.ordinals.size)

    @property
    def mu(self) -> float:
        return self.size / self.group.size

    def mask(self) -> np.ndarray:
        m = np.zeros(self.group.size, dtype=bool)
        m[self.ordinals] = True
        return m


def product_set(a: GroupSet, b: GroupSet) -> GroupSet:
    """The exact product set {xy : x in A, y in B}, marked in a membership mask."""
    group = a.group
    if b.group is not group:
        raise ToolkitError("product requires two sets on the same group")
    hit = np.zeros(group.size, dtype=bool)
    hit[group.mul_table()[np.ix_(a.ordinals, b.ordinals)]] = True
    return GroupSet(group, np.flatnonzero(hit))


def inverse_set(a: GroupSet) -> GroupSet:
    """The inverse set {x^-1 : x in A}."""
    return GroupSet(a.group, a.group.inv[a.ordinals])


def quadruple_product(a: GroupSet) -> GroupSet:
    """A A^{-1} A A^{-1}."""
    ainv = inverse_set(a)
    aai = product_set(a, ainv)
    return product_set(aai, aai)


# ---------------------------------------------------------------------------
# groumvirates
# ---------------------------------------------------------------------------

def groumvirate_enumerate(group: GroupTable, k: int) -> list[GoodUmvirate]:
    """All distinct conjugates g L_k g^{-1}, one per (fixed subspace,
    invariant complement) pair."""
    n = group.n
    field = group.field
    if k == 0 or n - k <= 1:  # L_0 = G, or L_k = SL_{n-k} is trivial: one conjugate
        return [GoodUmvirate(group, k, group.identity, group.identity)]
    fixed, comps = (np.stack([s.basis for s in enumerate_subspaces(field, n, dim)]) for dim in (k, n - k))
    # columns: a fixed basis, then a complement basis, for every pair, fixed-major
    g = np.concatenate([fixed.repeat(len(comps), axis=0), np.tile(comps, (len(fixed), 1, 1))], axis=1).transpose(0, 2, 1)
    d = det(field, g)  # != 0 exactly when the pair spans F_q^n
    g, d = g[d != 0], d[d != 0]
    g[:, :, 0] = field.mul_table[g[:, :, 0], field.inv_table[d][:, None]]  # det 1, unchanged where d = 1
    ords = group.ordinals_of(g)
    if (ords < 0).any():
        raise ConsistencyError("a det-1 groumvirate conjugator left the group")
    return [GoodUmvirate(group, k, int(o), int(group.inv[o])) for o in ords]


def groumvirate_orbit_count(group: GroupTable, k: int) -> tuple[int, int]:
    """(number of distinct conjugates by direct orbit enumeration,
    |G| / |normalizer of L_k|) for cross-checking the parametrization."""
    lk = block_subgroup_members(group, k)
    m = group.mul_table()
    # row g is g L_k g^-1, sorted; equal rows are equal conjugates
    conj = np.sort(m[m[:, lk], group.inv[:, None]], axis=1)
    normalizer = int(np.all(conj == lk, axis=1).sum())
    return len(np.unique(conj, axis=0)), group.size // normalizer


# ---------------------------------------------------------------------------
# Bogolyubov search
# ---------------------------------------------------------------------------

@dataclass
class BogolyubovResult:
    contained: GoodUmvirate
    density: float
    exponent: float  # achieved C = log mu(U) / log mu(A)
    product_set: GroupSet


def bogolyubov_search(a: GroupSet) -> BogolyubovResult:
    """Maximum-density good groumvirate contained in A A^{-1} A A^{-1}.

    Scans k upward (densities decrease with k), all groumvirates of one
    k in one gather; the singleton {e} at k = n is always contained, so
    the search cannot fail.
    """
    if a.size == 0:
        raise ToolkitError("empty set")
    group = a.group
    s = quadruple_product(a)
    smask = s.mask()
    for k in range(group.n + 1):
        found = groumvirate_enumerate(group, k)
        g = np.array([gu.g for gu in found])
        inside = np.all(smask[coset_rows(group, k, g, group.inv[g])], axis=1)
        if inside.any():
            best = found[int(np.argmax(inside))]
            break
    else:
        raise ConsistencyError("no good groumvirate, not even {e}, lies in A A^-1 A A^-1")
    mu_u = best.density()
    # U = G, as whenever A = G, achieves C = +0 (log 1 / log mu(A) would read -0)
    exponent = 0.0 if mu_u == 1.0 else float(np.log(mu_u) / np.log(a.mu))
    return BogolyubovResult(best, mu_u, exponent, s)


@dataclass
class DensityBogolyubovResult:
    groumvirate: GoodUmvirate
    density_in_groumvirate: float
    reached_099: bool
    bump: BumpResult
    containment_verified: bool


def density_bogolyubov(a: GroupSet, zeta: float = DEFAULT_ZETA) -> DensityBogolyubovResult:
    """Find a good groumvirate in which A A^{-1} is 0.99-dense.

    Runs the density-bump search to locate U_k^{g,h}, forms
    U' = U (U)^{-1} = g L_k g^{-1}, measures the exact density of
    A A^{-1} in U', and when it reaches 0.99 verifies the containment
    U' <= A A^{-1} A A^{-1} both directly and by the two-dense-sets
    mechanism: for each x in U', the 0.99-dense sets T1 = AA^{-1} & U'
    and x T1 must meet, that is U' <= T1 T1^{-1}."""
    group = a.group
    bump = density_bump_search(group, a.ordinals, zeta=zeta)
    uprime = GoodUmvirate(group, bump.k, bump.g, int(group.inv[bump.g]))
    ainv = inverse_set(a)
    aai = product_set(a, ainv)
    aai_mask = aai.mask()
    members = uprime.members()
    density = float(np.mean(aai_mask[members]))
    reached = density >= 0.99
    verified = False
    if reached:
        verified = bool(np.all(product_set(aai, aai).mask()[members]))
        # x T1 meets T1 iff x lies in T1 T1^-1
        t1 = GroupSet(group, members[aai_mask[members]])
        if not np.all(product_set(t1, inverse_set(t1)).mask()[members]):
            raise ToolkitError("two 0.99-dense subsets of a group failed to meet")
        if not verified:
            raise ConsistencyError("U' = U U^-1 is 0.99-dense in A A^-1 but not inside A A^-1 A A^-1")
    return DensityBogolyubovResult(uprime, density, reached, bump, verified)


# ---------------------------------------------------------------------------
# approximate subgroups
# ---------------------------------------------------------------------------

@dataclass
class EasySet:
    """A union of disjoint left cosets x U of a good groumvirate."""

    umvirate: GoodUmvirate
    representatives: np.ndarray
    alpha: float  # density of U
    beta: float  # density bound for the union

    def members(self) -> np.ndarray:
        group = self.umvirate.group
        return product_set(GroupSet(group, self.representatives), GroupSet(group, self.umvirate.members())).ordinals


@dataclass
class CoverResult:
    easy_set: EasySet
    k_ratio: float  # |A^2| / |A|
    coset_count: int
    coset_bound_k4: float  # K^4 mu(A) / mu(U)
    coset_bound_k5: float  # K^5 |A| / |U|
    covers: bool  # A <= J
    inside_a5: bool  # J <= A^5


def easy_set_cover(a: GroupSet) -> CoverResult:
    """Cover a symmetric set by few cosets of a contained groumvirate.

    Requires A = A^{-1}; computes K = |A^2|/|A| exactly, finds a good
    groumvirate U inside A A^{-1} A A^{-1} = A^4, picks the least
    element of A in each left U-coset meeting A, and asserts
    A <= X U <= A^5 exactly."""
    group = a.group
    ainv = inverse_set(a)
    if not np.array_equal(ainv.ordinals, a.ordinals):
        raise ToolkitError("easy-set cover requires a symmetric set (A = A^{-1})")
    a2 = product_set(a, a)
    k_ratio = a2.size / a.size
    found = bogolyubov_search(a)
    u = found.contained
    u_members = u.members()
    # label each left coset x U by its least element; keep the least x of A per label
    labels = group.mul_table()[np.ix_(a.ordinals, u_members)].min(axis=1)
    x_arr = np.sort(a.ordinals[np.unique(labels, return_index=True)[1]])
    easy = EasySet(u, x_arr, u.density(), len(x_arr) * u.density())
    j_members = easy.members()
    covers = bool(np.all(np.isin(a.ordinals, j_members)))
    # A = A^-1, so the search's A A^-1 A A^-1 is A^4
    inside = bool(np.all(product_set(a, found.product_set).mask()[j_members]))
    if not (covers and inside):
        raise ToolkitError("easy-set cover failed the exact containment A <= XU <= A^5")
    mu_u = u.density()
    return CoverResult(
        easy,
        float(k_ratio),
        len(x_arr),
        float(k_ratio**4 * a.mu / mu_u),
        float(k_ratio**5 * a.size / len(u_members)),
        covers,
        inside,
    )


def pigeonhole_check(a: GroupSet) -> dict:
    """mu(A) > 1/2 forces A A^{-1} = G (and so the quadruple product too)."""
    group = a.group
    ainv = inverse_set(a)
    aai = product_set(a, ainv)
    quad = product_set(aai, aai)
    out = {
        "mu": a.mu,
        "aainv_is_group": aai.size == group.size,
        "quad_is_group": quad.size == group.size,
    }
    if a.mu > 0.5 and not (out["aainv_is_group"] and out["quad_is_group"]):
        raise ConsistencyError("mu(A) > 1/2 but A A^-1 or A A^-1 A A^-1 is not the whole group")
    return out
