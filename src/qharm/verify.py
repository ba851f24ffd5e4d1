"""The one-shot verification suite.

Each criterion function runs an exhaustive or randomized battery at its
stated tolerance and returns a CheckResult; run_all executes every
criterion and is what the CLI `verify` subcommand and the acceptance
tests drive.  Tolerances are fixed here, not configurable: 1e-9 for the
transform layer, 1e-8 for operator identities and spectral traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bogolyubov import (
    GroupSet,
    bogolyubov_search,
    easy_set_cover,
    groumvirate_enumerate,
    groumvirate_orbit_count,
    pigeonhole_check,
)
from .calculus import (
    RestrictionSite,
    _avg_quotient_direct,
    _bv_cached,
    _planes_avoiding,
    annihilator_functional,
    avg_for_direction,
    avg_quotient,
    avg_vector,
    conditional_distribution_check,
    derivative,
    direction_subspaces,
    spectral_laplacian_line,
    t_operator,
)
from .errors import ToolkitError
from .fqlin import encode_vector, enumerate_subspaces, full_space, mat_vec, span_of
from .globality import GoodUmvirate, Umvirate, good_umvirate_partition
from .groups import (
    get_characters,
    get_group,
    get_irreducibles,
    convolve,
    junta_project,
    junta_test,
    level_lower_check,
    random_group_table,
    transfer,
)
from .scheme import (
    degree_decompose,
    degree_project,
    dualize,
    get_scheme,
    random_table,
    restrict,
)
from .spectra import (
    equivalence_suite,
    group_inequality_suite,
    level_invariance_residual,
    mixing_experiment,
    sarnak_xue_check,
    scheme_inequality_suite,
    violations,
)

TARGET_GROUPS = [("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2)]

# criterion-1 domain list: every q in {2,3,4,5} up to nm = 4, then the
# deeper q = 2 (nm <= 9) and q = 3 (nm <= 7) towers under the 4096 cap
def character_domains() -> list[tuple[int, int, int]]:
    out = []
    for q in (2, 3, 4, 5):
        for n in range(1, 10):
            for m in range(1, 10):
                nm = n * m
                if nm <= 4 or (q == 2 and nm <= 9) or (q == 3 and nm <= 7):
                    if q**nm <= 4096:
                        out.append((q, n, m))
    return out


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    details: str


def _result(name, t0, passed, details) -> CheckResult:
    return CheckResult(name, bool(passed), time.time() - t0, details)


def criterion_character_fourier() -> CheckResult:
    """Orthonormality, Parseval, and inversion on every listed domain."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    domains = character_domains()
    for (q, n, m) in domains:
        ctx = get_scheme(q, n, m)
        # orthonormality: <u_X, u_Y> = E[u_{X-Y}], so check all character sums
        chunk = max(1, 2**18 // max(ctx.size, 1))
        for lo in range(0, ctx.size, chunk):
            sums = ctx.char_rows(lo, min(lo + chunk, ctx.size)).mean(axis=1)
            if lo == 0:
                worst = max(worst, abs(sums[0] - 1.0))
                sums = sums[1:]
            worst = max(worst, float(np.max(np.abs(sums))) if sums.size else 0.0)
        # the product identity u_X conj(u_Y) = u_{X-Y} on random samples
        for _ in range(5):
            xi = int(rng.integers(ctx.size))
            yi = int(rng.integers(ctx.size))
            ux = ctx.char_fn(xi).values
            uy = ctx.char_fn(yi).values
            zi = int(ctx.dual_index.add_indices(xi, ctx.dual_index.neg_index(yi)))
            worst = max(worst, float(np.max(np.abs(ux * np.conj(uy) - ctx.char_fn(zi).values))))
        # Parseval and inversion on 100 random functions, batched
        batch = rng.standard_normal((100, ctx.size)) + 1j * rng.standard_normal((100, ctx.size))
        spec = ctx.fourier_forward(batch)
        parseval = np.abs(np.sum(np.abs(spec) ** 2, axis=1) - np.mean(np.abs(batch) ** 2, axis=1))
        worst = max(worst, float(np.max(parseval)))
        back = ctx.fourier_inverse(spec)
        worst = max(worst, float(np.max(np.abs(back - batch))))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 60
    return _result(
        "character/fourier suite",
        t0,
        ok,
        f"{len(domains)} domains, max residual {worst:.2e}, {elapsed:.1f}s (< 60s required)",
    )


OPERATOR_DOMAINS = [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (4, 2, 2), (2, 3, 3)]


def criterion_operator_identities() -> CheckResult:
    """Restriction/derivative/averaging identities, 100 random functions per
    identity per domain, residual < 1e-8."""
    t0 = time.time()
    rng = np.random.default_rng(23)
    worst = {}

    def track(key, val):
        worst[key] = max(worst.get(key, 0.0), float(val))

    for (q, n, m) in OPERATOR_DOMAINS:
        ctx = get_scheme(q, n, m)
        dirs = direction_subspaces(ctx)
        pairs2 = ctx.restriction_pairs(1) + ctx.restriction_pairs(2)
        for _ in range(100):
            f = random_table(ctx, rng, "complex")
            parts = degree_decompose(f)
            vp, wp = pairs2[int(rng.integers(len(pairs2)))]
            reps, _ = ctx.site_cosets(vp, wp)
            t_idx = int(reps[int(rng.integers(len(reps)))])
            site = RestrictionSite(vp, wp, t_idx)
            order = vp.dim + (m - wp.dim)

            # character-restriction identity, by linearity through a random f:
            # restricting u_X to T + L(V/V', W') gives u_X(T) u_Y with Y = Q X Cw^T
            xf = ctx.fourier_forward(f.values)
            rest = restrict(f, vp, wp, t_idx)
            sub = rest.domain
            coeffs = np.zeros(sub.size, dtype=np.complex128)
            np.add.at(coeffs, ctx.char_restriction_table(vp, wp), xf * ctx.char_matrix()[:, t_idx])
            recon = sub.fourier_inverse(coeffs)
            track("char-restriction", np.max(np.abs(recon - rest.values)))

            # degree shift under the derivative
            df = derivative(f, site)
            for d in range(min(n, m) + 1):
                dfd = derivative(parts[d], site)
                dd = d - order
                if 0 <= dd <= min(sub.n, sub.m):
                    proj = degree_project(df, dd, "pure")
                    track("degree-shift", np.max(np.abs(dfd.values - proj.values)))
                else:
                    track("degree-shift", np.sqrt(dfd.norm2sq()))

            # averaging operators: measure the realization gaps explicitly
            u, side = dirs[int(rng.integers(len(dirs)))]
            eq = avg_quotient(f, vp)
            track("avg-quotient-forms", np.max(np.abs(eq.values - _avg_quotient_direct(f, vp))))
            ev = avg_for_direction(f, u, side)
            if side == "v":
                v = u.basis[0]
                track("avg-vector-bv", np.max(np.abs(ev.values - _bv_cached(ctx, v).average(f.values))))
                acc = np.mean([_avg_quotient_direct(f, s) for s in _planes_avoiding(ctx, v)], axis=0)
                track("avg-vector-hyperplane", np.max(np.abs(ev.values - acc)))
            else:
                comp = dualize(avg_vector(dualize(f), annihilator_functional(ctx, u)))
                track("avg-dual-forms", np.max(np.abs(ev.values - comp.values)))

            # pure-degree Laplacian formula and the almost-pure operator
            i0 = max(1, min(int(rng.integers(1, min(n, m) + 1)), min(n, m)))
            for i in {i0, min(n, m)}:
                lhs = spectral_laplacian_line(parts[i], u, side)
                rhs = parts[i].values - float(q) ** i * avg_for_direction(parts[i], u, side).values
                track("pure-laplacian", np.max(np.abs(lhs.values - rhs)))
                tf = t_operator(f, i, u, side)
                for dd in (i, i - 1):
                    a = degree_project(tf, dd, "pure")
                    b = spectral_laplacian_line(parts[dd], u, side)
                    track("almost-pure-operator", np.max(np.abs(a.values - b.values)))

        # derivative composition on a fixed nested configuration per domain
        if n >= 2:
            field = ctx.field
            v2 = span_of(field, np.eye(n, dtype=np.uint8)[0])
            w2 = full_space(field, m)
            v1 = span_of(field, np.eye(n, dtype=np.uint8)[:2])
            w1 = span_of(field, np.eye(m, dtype=np.uint8)[m - 1])
            sub1, emb1 = ctx.restriction_embedding(v2, w2)
            frame2 = ctx.quotient_frame(v2)
            v1q = span_of(field, [mat_vec(field, frame2.quotient_map, r) for r in v1.basis])
            w2piv = [int(np.argmax(r != 0)) for r in w2.basis]
            w1in2 = span_of(field, [r[w2piv] for r in w1.basis])
            _, emb_rhs = ctx.restriction_embedding(v1, w1)
            _, emb_site = sub1.restriction_embedding(v1q, w1in2)
            lhs_emb = emb1[emb_site]
            pos_rhs = {int(e): k for k, e in enumerate(emb_rhs)}
            align = np.array([pos_rhs[int(e)] for e in lhs_emb], dtype=np.int64)
            for _ in range(25):
                f = random_table(ctx, rng, "complex")
                t_idx = int(rng.integers(ctx.size))
                s_sub = int(rng.integers(sub1.size))
                s_idx = int(emb1[s_sub])
                rhs = derivative(f, RestrictionSite(v1, w1, int(ctx.domain_index.add_indices(t_idx, s_idx))))
                g = derivative(f, RestrictionSite(v2, w2, t_idx))
                lhs = derivative(g, RestrictionSite(v1q, w1in2, s_sub))
                track("derivative-composition", np.max(np.abs(lhs.values - rhs.values[align])))

    # the exhaustive joint-law distribution check at n = m = 2
    dist_ok = True
    for q in (2, 3):
        ctx = get_scheme(q, 2, 2)
        field = ctx.field
        v = np.array([1, 0], dtype=np.uint8)
        for vp_rows, wp_rows in [
            ([[1, 0], [0, 1]], [[1, 0]]),
            ([[1, 0]], [[1, 0], [0, 1]]),
            ([[1, 0]], [[0, 1]]),
        ]:
            dist_ok &= conditional_distribution_check(
                ctx, span_of(field, vp_rows), span_of(field, wp_rows), v
            )
    peak = max(worst.values())
    ok = peak < 1e-8 and dist_ok
    detail = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    return _result(
        "operator identities",
        t0,
        ok,
        f"max residuals: {detail}; distribution law {'exact' if dist_ok else 'FAILED'}",
    )


def criterion_equivalence() -> CheckResult:
    """Influence/globalness equivalence batteries; zero violations expected."""
    t0 = time.time()
    rows = equivalence_suite()
    bad = violations(rows)
    booleans = {r["instance"] for r in rows if ":bool" in r["instance"]}
    degrees = {r["instance"] for r in rows if ":deg" in r["instance"]}
    ok = not bad and len(booleans) >= 200 and len(degrees) >= 200
    return _result(
        "influence/globalness equivalences",
        t0,
        ok,
        f"{len(rows)} checks on {len(booleans)} boolean + {len(degrees)} degree instances, "
        f"{len(bad)} violations",
    )


def criterion_inequalities() -> CheckResult:
    """Hypercontractive + level inequality batteries on schemes and groups."""
    t0 = time.time()
    rows = scheme_inequality_suite() + group_inequality_suite()
    bad = violations(rows)
    instances = {r["instance"] for r in rows}
    adversarial = {i for i in instances if "p=0.125" in i or "iso" in i}
    ok = not bad and len(instances) >= 400 and adversarial
    return _result(
        "inequality falsification",
        t0,
        ok,
        f"{len(rows)} checks on {len(instances)} instances "
        f"({len(adversarial)} adversarial/isotypic), {len(bad)} violations",
    )


def criterion_junta_level() -> CheckResult:
    """Junta-stabilizer equivalence, junta level lower bound, and the
    abelian-vs-tensor-rank level comparison."""
    t0 = time.time()
    rng = np.random.default_rng(37)
    issues = []

    # exhaustive junta <-> stabilizer-invariance equivalence on SL_2(F_3)
    g = get_group("sl", 2, 3)
    act = g.vector_action(False)
    for u in [span_of(g.field, [1, 0]), span_of(g.field, [1, 2]), span_of(g.field, [0, 1])]:
        sig = act[:, encode_vector(u.basis[0], 3)]
        for _ in range(10):
            f = random_group_table(g, rng, "real")
            p = junta_project(f, u)
            if not junta_test(p, u):
                issues.append("projection not a junta")
            for s in np.unique(sig):
                vals = p.values[sig == s]
                if np.max(np.abs(vals - vals[0])) > 1e-9:
                    issues.append("projection not signature-measurable")
            lookup = rng.standard_normal(int(sig.max()) + 1)
            if not junta_test(g.table(lookup[sig]), u):
                issues.append("signature function failed the test")

    margins = []
    for kind, n, q in TARGET_GROUPS:
        group = get_group(kind, n, q)
        bound = group.size / float(q) ** (n * n)
        # junta level lower bound on random juntas
        for d in (1, 2):
            for u in enumerate_subspaces(group.field, n, d)[:3]:
                for _ in range(5):
                    f = junta_project(random_group_table(group, rng, "real"), u)
                    jf = transfer(f)
                    lhs = bound * np.sqrt(f.norm2sq())
                    rhs = np.sqrt(degree_project(jf, d, "cumulative").norm2sq())
                    margins.append(rhs - lhs)
                    if rhs < lhs - 1e-9:
                        issues.append(f"junta level bound failed on {group!r}")
        # level-level ratio check, 50 random functions per level
        for d in range(n + 1):
            for _ in range(50):
                f = random_group_table(group, rng, "complex")
                try:
                    res = level_lower_check(f, d)
                except ToolkitError:
                    continue
                margins.append(res["ratio_j"] - res["bound"])
                if not res["ok"]:
                    issues.append(f"level-level ratio failed on {group!r} level {d}")
    ok = not issues
    return _result(
        "junta/level bridge",
        t0,
        ok,
        f"min margin {min(margins):.4f}; {len(issues)} failures" + (f": {issues[:3]}" if issues else ""),
    )


def criterion_spectral() -> CheckResult:
    """Trace identity, Sarnak-Xue bound, level invariance, characters against irreducible traces."""
    t0 = time.time()
    rng = np.random.default_rng(41)
    worst_trace = 0.0
    worst_inv = 0.0
    sx_ok = True
    iso_ok = True
    for kind, n, q in [("sl", 2, 2), ("sl", 2, 3), ("sl", 3, 2)]:
        group = get_group(kind, n, q)
        # each character against the trace of its irreducible's table, built
        # from the right-translation eigenproblem on the character's block
        chars, irreducibles = get_characters(group), get_irreducibles(group)
        traces = [irr.character() for d in sorted(irreducibles) for irr in irreducibles[d]]
        iso_ok &= len(traces) == len(chars.degrees)
        iso_ok &= all(np.max(np.abs(t - chars.values(i))) < 1e-9 for i, t in enumerate(traces))
        for _ in range(10):
            f = random_group_table(group, rng, "real")
            for d in range(n + 1):
                row = sarnak_xue_check(f, d)
                worst_trace = max(worst_trace, abs(row.trace_matrix - row.trace_direct))
                sx_ok &= row.sx_holds
            for d in range(1, n + 1):
                worst_inv = max(worst_inv, level_invariance_residual(f, d, rng))
    ok = worst_trace < 1e-8 and worst_inv < 1e-9 and sx_ok and iso_ok
    return _result(
        "spectral suite",
        t0,
        ok,
        f"trace residual {worst_trace:.1e}, invariance residual {worst_inv:.1e}, "
        f"SX bound {'held' if sx_ok else 'VIOLATED'}, isotypic {'exact' if iso_ok else 'FAILED'}",
    )


def criterion_mixing() -> CheckResult:
    """Mixing decomposition identity and the double-loop convolution oracle."""
    t0 = time.time()
    rng = np.random.default_rng(43)
    worst_resid = 0.0
    worst_oracle = 0.0
    for kind, n, q in TARGET_GROUPS:
        group = get_group(kind, n, q)
        m = group.mul_table()
        for _ in range(50):
            na = int(rng.integers(2, group.size // 2))
            nb = int(rng.integers(2, group.size // 2))
            a = GroupSet(group, rng.choice(group.size, size=na, replace=False))
            b = GroupSet(group, rng.choice(group.size, size=nb, replace=False))
            rep = mixing_experiment(a, b)
            worst_resid = max(worst_resid, rep.decomposition_residual)
            brute = np.zeros(group.size)
            for z in a.ordinals:
                np.add.at(brute, m[z, b.ordinals], 1.0)
            brute /= group.size
            conv = convolve(group.indicator(a.ordinals), group.indicator(b.ordinals))
            worst_oracle = max(worst_oracle, float(np.max(np.abs(conv.values - brute))))
    ok = worst_resid < 1e-8 and worst_oracle < 1e-12
    return _result(
        "mixing decomposition",
        t0,
        ok,
        f"decomposition residual {worst_resid:.1e}, oracle deviation {worst_oracle:.1e}",
    )


def criterion_bogolyubov() -> CheckResult:
    """Structural Bogolyubov cases, pigeonhole, covers, and partitions."""
    t0 = time.time()
    rng = np.random.default_rng(47)
    issues = []

    g3 = get_group("sl", 3, 2)
    # structural case: a good-umvirate coset recovers its groumvirate
    for _ in range(5):
        gu = GoodUmvirate(g3, 1, int(rng.integers(g3.size)), int(rng.integers(g3.size)))
        res = bogolyubov_search(GroupSet(g3, gu.members()))
        expected = GoodUmvirate(g3, 1, gu.g, int(g3.inv[gu.g]))
        if set(res.contained.members().tolist()) != set(expected.members().tolist()):
            issues.append("coset case missed its groumvirate")
    orbit, by_norm = groumvirate_orbit_count(g3, 1)
    if not (orbit == by_norm == len(groumvirate_enumerate(g3, 1))):
        issues.append("groumvirate counts disagree")

    # pigeonhole law on 20 random dense instances per group
    for kind, n, q in TARGET_GROUPS:
        group = get_group(kind, n, q)
        for _ in range(20):
            size = int(group.size // 2 + 1 + rng.integers(0, group.size // 4))
            a = GroupSet(group, rng.choice(group.size, size=size, replace=False))
            out = pigeonhole_check(a)
            if not (out["aainv_is_group"] and out["quad_is_group"]):
                issues.append(f"pigeonhole failed on {group!r}")

    # easy-set covers on 20 symmetric instances in SL_3(F_2)
    for i in range(20):
        base = rng.choice(g3.size, size=int(rng.integers(4, 30)), replace=False)
        if i % 3 == 0:
            gu = GoodUmvirate(g3, 1, int(rng.integers(g3.size)), g3.identity)
            base = np.concatenate([base, gu.members()])
        sym = np.unique(np.concatenate([base, g3.inv[base]]))
        try:
            res = easy_set_cover(GroupSet(g3, sym))
        except ToolkitError as e:
            issues.append(f"cover raised: {e}")
            continue
        if not (res.covers and res.inside_a5):
            issues.append("cover containment failed")

    # partitions of every nonempty 1- and 2-umvirate: disjoint, covering, uniform order
    tables = g3.dictator_systems()
    n_checked = 0
    for cell in np.concatenate(tables.cells[1:3]):
        u = Umvirate(g3, int(cell))
        parts = good_umvirate_partition(u)
        union = np.concatenate([p.members() for p in parts])
        if len(union) != len(np.unique(union)) or set(union.tolist()) != set(u.members().tolist()):
            issues.append(f"partition failed for {u.describe()}")
        if len({p.order for p in parts}) != 1 or parts[0].order > 2 * u.order:
            issues.append(f"partition order wrong for {u.describe()}")
        n_checked += 1
    ok = not issues
    return _result(
        "bogolyubov pipeline",
        t0,
        ok,
        f"{n_checked} umvirate partitions checked; {len(issues)} failures"
        + (f": {issues[:3]}" if issues else ""),
    )


CRITERIA = [
    ("1", criterion_character_fourier),
    ("2", criterion_operator_identities),
    ("3", criterion_equivalence),
    ("4", criterion_inequalities),
    ("5", criterion_junta_level),
    ("6", criterion_spectral),
    ("7", criterion_mixing),
    ("8", criterion_bogolyubov),
]


def run_all() -> tuple[list[CheckResult], bool]:
    t0 = time.time()
    results = []
    for tag, fn in CRITERIA:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {tag}: {res.name} ({res.elapsed:.1f}s) - {res.details}")
    total = time.time() - t0
    all_ok = all(r.passed for r in results) and total < 600
    print(f"[{'PASS' if all_ok else 'FAIL'}] criterion 9: end-to-end verify in {total:.1f}s (< 600s required)")
    return results, all_ok
