"""group-battery: levels, spectra, mixing, set audits and product sets on SL_n(F_q).

One op runs one seeded instance (a real function f and sets A, B, C)
through level projections, the Sarnak-Xue check at every level, level
invariance, two- and three-set mixing, the set audit and the group
inequality rows; on SL_3(F_2) it also runs the product-set pipeline.
Every output is checked against an oracle that does not share the code
path: double-loop convolution over the multiplication table, brute-force
dictator counts, the trace identity and the recorded level dimensions.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import qharm.bogolyubov as bogolyubov
import qharm.globality as globality
import qharm.groups as groups
import qharm.scheme as scheme
import qharm.spectra as spectra

from common import Op

# (kind, n, q): ops per pass.  Op times cluster by group (about 3, 20 and
# 150 ms), so these counts put p50 in the middle of the SL_2(F_5) cluster
# and p90 in the middle of the SL_3(F_2) one.  SL_2(F_7) is left out: its
# Gram-Schmidt level build alone takes 9-19 s and set-up runs three
# times per run.
GROUPS = {
    ("sl", 2, 3): 4,
    ("sl", 2, 5): 12,
    ("sl", 3, 2): 4,
}
# dim L^2(G)_{<=d} for d = 0..n, as built at the commit that defined this benchmark
LEVEL_DIMS = {
    ("sl", 2, 3): [1, 18, 24],
    ("sl", 2, 5): [1, 80, 120],
    ("sl", 3, 2): [1, 37, 150, 168],
    ("sl", 2, 7): [1, 210, 336],
}
PRODUCT_SET_GROUP = ("sl", 3, 2)
DENSITIES = (0.5, 0.25, 0.125)
ELLS = (4, 8)


def setup() -> None:
    """Build every cache the ops read, through qharm's public builders."""
    for kind, n, q in GROUPS:
        g = groups.get_group(kind, n, q)
        g.mul_table()
        g.xyinv_table()
        g.vector_action(False)
        g.vector_action(True)
        g.class_count()
        groups.get_levels(g)
        groups.get_isotypic(g)
        ctx = scheme.get_scheme(q, n, n)
        for order in range(min(2, n) + 1):
            for vp, wp in ctx.restriction_pairs(order):
                ctx.site_cosets(vp, wp)
        globality.set_global_audit(g, [g.identity])
        if (kind, n, q) == PRODUCT_SET_GROUP:
            for k in range(n + 1):
                globality.block_subgroup_members(g, k)
            for sub_n in range(1, n):
                sub = groups.get_group("sl", sub_n, q)
                if sub_n >= 2:
                    globality.set_global_audit(sub, [sub.identity])


# -- oracles ------------------------------------------------------------------------

def brute_convolution(g, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1_A * 1_B)(x) = |{(y, z) in A x B : y z = x}| / |G| by a double loop."""
    m = g.mul_table()
    out = np.zeros(g.size)
    for y in a:
        np.add.at(out, m[y, b], 1.0)
    return out / g.size


def brute_product(g, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.unique(g.mul_table()[np.ix_(a, b)])


def brute_dictator_ratio(g, a: np.ndarray) -> float:
    """Largest (|A & U| / |U|) / mu(A) over single dictators U = {x v = w}
    and {x^T v = w}: the order-1 row of the set audit."""
    mu = a.size / g.size
    best = 0.0
    for transpose in (False, True):
        act = g.vector_action(transpose)
        width = act.shape[1]
        for v in range(1, width):
            total = np.bincount(act[:, v], minlength=width)
            inside = np.bincount(act[a, v], minlength=width)
            hit = total > 0
            best = max(best, float(np.max(inside[hit] / total[hit])) / mu)
    return best


class GroupInstance:
    """Seeded inputs of one op: a real f and sets A (density grid, every
    third one umvirate-concentrated), B and C; on SL_3(F_2) also a set of
    density > 1/2 and a symmetric set."""

    def __init__(self, g, rng, i: int):
        self.g = g
        self.f = groups.random_group_table(g, rng, "real")
        mask = rng.random(g.size) < DENSITIES[i % 3]
        if i % 3 == 2:
            gu = globality.GoodUmvirate(g, 1, int(rng.integers(g.size)), int(rng.integers(g.size)))
            mask[gu.members()] = True
        mask[int(rng.integers(g.size))] = True
        self.a = np.flatnonzero(mask)
        self.b = np.sort(rng.choice(g.size, size=int(rng.integers(2, g.size // 2)), replace=False))
        self.c = np.sort(rng.choice(g.size, size=int(rng.integers(2, g.size // 2)), replace=False))
        self.rng_seed = int(rng.integers(2**31))
        if (g.kind, g.n, g.q) == PRODUCT_SET_GROUP:
            size = int(g.size // 2 + 1 + rng.integers(0, g.size // 4))
            self.dense = np.sort(rng.choice(g.size, size=size, replace=False))
            base = rng.choice(g.size, size=int(rng.integers(4, 30)), replace=False)
            if i % 3 == 0:
                gu = globality.GoodUmvirate(g, 1, int(rng.integers(g.size)), g.identity)
                base = np.concatenate([base, gu.members()])
            self.symmetric = np.unique(np.concatenate([base, g.inv[base]]))
        else:
            self.dense = self.symmetric = None


def run_instance(name: str, inst: GroupInstance) -> dict:
    g, f, n = inst.g, inst.f, inst.g.n
    rng = np.random.default_rng(inst.rng_seed)
    a = bogolyubov.GroupSet(g, inst.a)
    b = bogolyubov.GroupSet(g, inst.b)
    c = bogolyubov.GroupSet(g, inst.c)
    fa = g.indicator(inst.a)
    checks = spectra.GroupInstanceChecks(name, fa, 2)
    rows = []
    for d in range(1, checks.dmax + 1):
        rows.append(checks.check_flexible_level_weight(d))
        for ell in ELLS:
            rows.append(checks.check_strict_level_weight(d, ell))
            rows.append(checks.check_tensor_level_weight(d, ell))
    out = {
        "level_dims": list(groups.get_levels(g).dims),
        "parts": [groups.level_project_eq(f, d) for d in range(n + 1)],
        "below_top": groups.level_project(f, n - 1),
        "sx": [spectra.sarnak_xue_check(f, d) for d in range(n + 1)],
        "invariance": [spectra.level_invariance_residual(f, d, rng) for d in range(1, n + 1)],
        "mixing": spectra.mixing_experiment(a, b),
        "conv": groups.convolve(fa, g.indicator(inst.b)),
        "product_mixing": spectra.product_mixing(a, b, c),
        "audit": globality.set_global_audit(g, inst.a),
        "rows": [r for r in rows if r is not None],
    }
    if inst.dense is not None:
        out["pigeonhole"] = bogolyubov.pigeonhole_check(bogolyubov.GroupSet(g, inst.dense))
        out["cover"] = bogolyubov.easy_set_cover(bogolyubov.GroupSet(g, inst.symmetric))
        out["bogolyubov"] = bogolyubov.bogolyubov_search(a)
        out["density"] = bogolyubov.density_bogolyubov(a)
    return out


def check_instance(inst: GroupInstance, out: dict):
    """None if every output matches its oracle, else the first mismatch."""
    g, f, n = inst.g, inst.f, inst.g.n
    if out["level_dims"] != LEVEL_DIMS[(g.kind, g.n, g.q)]:
        return f"level dims {out['level_dims']}"
    parts = out["parts"]
    if np.max(np.abs(sum(p.values for p in parts) - f.values)) > 1e-9:
        return "level parts do not sum to f"
    if np.max(np.abs(sum(p.values for p in parts[:n]) - out["below_top"].values)) > 1e-9:
        return "f_{<=n-1} differs from the sum of its levels"
    for row in out["sx"]:
        if not abs(row.trace_matrix - row.trace_direct) < 1e-8:
            return f"trace identity residual {abs(row.trace_matrix - row.trace_direct):.2e} at d={row.d}"
        if not row.sx_holds:
            return f"Sarnak-Xue bound fails at d={row.d}"
    if not max(out["invariance"]) < 1e-9:
        return f"level invariance residual {max(out['invariance']):.2e}"

    mu_a, mu_b = inst.a.size / g.size, inst.b.size / g.size
    brute = brute_convolution(g, inst.a, inst.b)
    if not np.max(np.abs(out["conv"].values - brute)) < 1e-12:
        return "convolution differs from the double loop"
    mix = out["mixing"]
    deviation = float(np.sqrt(np.mean((brute - mu_a * mu_b) ** 2)))
    if not (mix.decomposition_residual < 1e-8 and abs(mix.deviation - deviation) < 1e-9):
        return f"mixing deviation {mix.deviation} vs {deviation}"
    pm = out["product_mixing"]
    in_c = np.zeros(g.size)
    in_c[inst.c] = 1.0
    triple = float(np.mean(brute * in_c))
    covers = brute_product(g, brute_product(g, inst.a, inst.b), inst.c).size == g.size
    if not (pm.decomposition_residual < 1e-8 and abs(pm.triple - triple) < 1e-9 and pm.covers == covers):
        return f"product mixing triple {pm.triple} vs {triple}"

    rep = out["audit"].report
    if rep.value_at(0) != 1.0 or abs(rep.value_at(1) - brute_dictator_ratio(g, inst.a)) > 1e-12:
        return "set audit order-1 ratio differs from the dictator count"
    bad = [r for r in out["rows"] if not r["holds"]]
    if bad or not out["rows"]:
        return f"{len(bad)} violated group rows"

    if inst.dense is not None:
        pig = out["pigeonhole"]
        if not (pig["aainv_is_group"] and pig["quad_is_group"]):
            return "pigeonhole: A A^-1 is not G for a set of density > 1/2"
        cover = out["cover"]
        if not (cover.covers and cover.inside_a5):
            return "easy-set cover failed its containment"
        aai = brute_product(g, inst.a, g.inv[inst.a])
        quad = brute_product(g, aai, aai)
        res = out["bogolyubov"]
        members = res.contained.members()
        if not (np.all(np.isin(members, quad)) and res.density == members.size / g.size):
            return "groumvirate not inside A A^-1 A A^-1"
        dres = out["density"]
        inside = float(np.mean(np.isin(dres.groumvirate.members(), aai)))
        if abs(dres.density_in_groumvirate - inside) > 1e-12:
            return "density of A A^-1 in the groumvirate differs from the brute count"
    return None


def build_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 5])
    ops = []
    for (kind, n, q), count in GROUPS.items():
        g = groups.get_group(kind, n, q)
        for i in range(count):
            name = f"{kind}{n}q{q}:inst{i}"
            inst = GroupInstance(g, rng, i)
            ops.append(Op(name, partial(run_instance, name, inst), partial(check_instance, inst)))
    return ops
