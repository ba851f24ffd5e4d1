"""Command-line entry point.

One binary, subcommand style.  A handler reads its inputs, computes,
prints, and returns its exit status and artifacts; record() alone writes
them into --output, then `<command>_manifest.json`.  The manifest holds
the command, the version, the config and exactly the paths written, in
write order.  The config is the computation options the subcommand
names beside its parser entry: sizes, orders, modes and thresholds.  It
holds no input or output path, and no seed: no subcommand takes one, as
every random draw inside qharm uses a fixed seed.  Identical invocations
produce byte-identical artifacts.  Exit status is 0 iff no check or
assertion failed; an error prints an `error:` line and exits 2, and an
error raised by a handler leaves no artifact.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .bogolyubov import (
    GroupSet,
    bogolyubov_search,
    density_bogolyubov,
    easy_set_cover,
)
from .errors import InputFormatError, ToolkitError
from .gf import SUPPORTED_Q, get_field
from .globality import DEFAULT_ZETA, global_audit, influence_audit, set_global_audit
from .groups import (
    convolve,
    get_characters,
    get_group,
    glt_growth_report,
    isotypic_refine,
)
from .scheme import degree_project, fourier_forward, get_scheme
from .spectra import mixing_experiment, product_mixing, sarnak_xue_check


# ---------------------------------------------------------------------------
# input/output formats
# ---------------------------------------------------------------------------

_FUNCTION_HEADER = "index,re,im"
_ROW_BLOCK = 1 << 11  # rows per write: the text streams out a block at a time


def read_function_csv(path: str, size: int) -> np.ndarray:
    """Values of a function on `size` indices from an `index,re,im` CSV.

    numpy's parser reads the file in one streamed pass, with three columns,
    or with two (`index,re`) when that fails and the first data line has
    exactly one comma.  It refuses every row the per-line reader refuses
    and more (a file mixing 2- and 3-column rows, 4-column rows, `1_0` or
    `1.0` as an index); those files, and files with an index out of range
    or repeated or a value that is not finite, go to the per-line reader,
    which alone decides their values and error messages.  Non-ASCII text
    and the separators \\x1c-\\x1f go there too: numpy strips them around
    a field as whitespace, or reads some non-ASCII letters as digits, where
    Python's int() and float() refuse them.
    """
    try:
        with open(path, encoding="ascii") as fh:
            if fh.readline().strip().replace(" ", "") != _FUNCTION_HEADER:
                fh.seek(0)
            start = fh.tell()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                try:
                    rows = _load_rows(fh, 3)
                except ValueError:
                    fh.seek(start)
                    first = next((line for line in iter(fh.readline, "") if line.strip()), "")
                    if first.count(",") != 1:
                        raise
                    fh.seek(start)
                    rows = _load_rows(fh, 2)
    except ValueError:  # UnicodeDecodeError included
        return _read_function_lines(path, size)
    idx = rows["index"]
    finite = all(np.isfinite(rows[part]).all() for part in rows.dtype.names[1:])
    if idx.size and (idx.min() < 0 or idx.max() >= size or np.bincount(idx).max() > 1 or not finite):
        return _read_function_lines(path, size)
    values = np.zeros(size, dtype=np.complex128)
    values.real[idx] = rows["re"]
    if len(rows.dtype) == 3:
        values.imag[idx] = rows["im"]
    return values


def _load_rows(fh, columns: int) -> np.ndarray:
    """The rows of fh from its position on as (index, re[, im]) records, the
    first `columns` fields of each."""
    fields = [("index", np.int64), ("re", np.float64), ("im", np.float64)][:columns]
    return np.loadtxt(itertools.chain.from_iterable(_line_blocks(fh)), dtype=fields,
                      delimiter=",", comments=None, ndmin=1)


def _line_blocks(fh):
    """fh's lines in lists of about 64 KB; ValueError on a separator \\x1c-\\x1f."""
    while lines := fh.readlines(1 << 16):
        block = "".join(lines)
        if any(sep in block for sep in "\x1c\x1d\x1e\x1f"):
            raise ValueError("ASCII separator in a function CSV")
        yield lines


def _read_function_lines(path: str, size: int) -> np.ndarray:
    """The per-line reader: later rows win, errors name `path:line`, and a
    value that is not finite is an error."""
    values = np.zeros(size, dtype=np.complex128)
    with open(path) as fh:
        for ln, line in _numbered_lines(path, fh):
            line = line.strip()
            if not line or (ln == 1 and line.replace(" ", "") == _FUNCTION_HEADER):
                continue
            parts = line.split(",")
            try:
                idx = int(parts[0])
                re = float(parts[1])
                im = float(parts[2]) if len(parts) > 2 else 0.0
            except (ValueError, IndexError) as e:
                raise InputFormatError(f"{path}:{ln}: malformed function row {line!r}") from e
            if not 0 <= idx < size:
                raise InputFormatError(f"{path}:{ln}: index {idx} out of range [0, {size})")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise InputFormatError(f"{path}:{ln}: function value {line!r} is not finite")
            values[idx] = complex(re, im)
    return values


def _numbered_lines(path: str, fh):
    """enumerate(fh, 1), with undecodable text reported as an InputFormatError."""
    try:
        yield from enumerate(fh, 1)
    except UnicodeDecodeError as e:
        raise InputFormatError(f"{path}: not {e.encoding} text ({e.reason})") from e


def write_function_csv(path: str, values: np.ndarray) -> None:
    """`index,re,im` rows, each part written as Python's shortest round-trip repr."""
    with open(path, "w") as fh:
        fh.write(_FUNCTION_HEADER + "\n")
        for start in range(0, len(values), _ROW_BLOCK):
            block = values[start : start + _ROW_BLOCK]
            re = block.real.astype(np.float64).tolist()
            im = block.imag.astype(np.float64).tolist()
            fh.write("".join([f"{i},{r!r},{m!r}\n" for i, r, m in zip(range(start, start + len(re)), re, im)]))


def read_set_file(path: str, group) -> np.ndarray:
    """Matrix-per-line set file; every matrix must belong to the group."""
    n = group.n
    q = group.q
    ordinals = []
    with open(path) as fh:
        for ln, line in _numbered_lines(path, fh):
            line = line.strip()
            if not line:
                continue
            try:
                entries = [int(x) for x in line.split(",")]
            except ValueError as e:
                raise InputFormatError(f"{path}:{ln}: malformed matrix row {line!r}") from e
            if len(entries) != n * n:
                raise InputFormatError(f"{path}:{ln}: expected {n * n} entries, got {len(entries)}")
            if any(not 0 <= x < q for x in entries):
                raise InputFormatError(f"{path}:{ln}: entries must lie in [0, {q})")
            mat = np.array(entries, dtype=np.uint8).reshape(n, n)
            pos = int(group.ordinals_of(mat))
            if pos < 0:
                raise InputFormatError(
                    f"{path}:{ln}: matrix is not a member of {group.kind}_{n}(F_{q}) (determinant check)"
                )
            ordinals.append(pos)
    return np.array(sorted(set(ordinals)), dtype=np.int64)


def write_set_file(path: str, group, ordinals: np.ndarray) -> None:
    with open(path, "w") as fh:
        for o in ordinals:
            fh.write(",".join(str(int(x)) for x in group.mats[o].reshape(-1)) + "\n")


def write_report_csv(path: str, rows: list[dict]) -> None:
    """rows as CSV under a header of the first row's keys; a field holding a
    comma (audit witnesses do) is quoted, and an empty list writes an empty
    file."""
    with open(path, "w") as fh:
        if rows:
            keys = list(rows[0])
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(keys)
            writer.writerows([str(r[k]) for k in keys] for r in rows)


def write_manifest(outdir: str, command: str, config: dict, artifacts: list[str]) -> None:
    path = os.path.join(outdir, f"{command}_manifest.json")
    with open(path, "w") as fh:
        json.dump(
            {"command": command, "version": __version__, "config": config, "artifacts": artifacts},
            fh,
            indent=2,
            sort_keys=True,
            default=str,
        )
        fh.write("\n")


def write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def record(args, artifacts) -> None:
    """Write each artifact (file name, writer, payload) of a run into
    --output, in order, then its manifest: args.command, the options the
    subcommand names in its `config` default and the paths just written."""
    os.makedirs(args.output, exist_ok=True)
    paths = [os.path.join(args.output, name) for name, _, _ in artifacts]
    for path, (_, write, payload) in zip(paths, artifacts):
        write(path, payload)
    write_manifest(args.output, args.command, {key: getattr(args, key) for key in args.config}, paths)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def validate_scheme_config(q: int, n: int, m: int) -> None:
    if q not in SUPPORTED_Q:
        raise ToolkitError(f"--q must be one of {SUPPORTED_Q}")
    if n < 1 or m < 1:
        raise ToolkitError("dimensions must be at least 1")


def _group_from_args(args):
    validate_scheme_config(args.q, args.n, args.n)
    return get_group(args.group, args.n, args.q)


def _indicator_from_args(args, group):
    ordinals = read_set_file(args.set, group)
    return GroupSet(group, ordinals)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its exit status and its artifacts, each
# a (file name, writer, payload) that record() writes into --output
# ---------------------------------------------------------------------------

def cmd_field_info(args):
    field = get_field(args.q)
    payload = {
        "q": field.q,
        "p": field.p,
        "m": field.m,
        "modulus_low_to_high": list(field.modulus),
        "trace": [int(x) for x in field.trace_table],
        "character_re": [float(c.real) for c in field.char_table],
        "character_im": [float(c.imag) for c in field.char_table],
    }
    name = f"field_q{args.q}.json"
    print(f"F_{field.q} = F_{field.p}^{field.m}, modulus {list(field.modulus)} -> {os.path.join(args.output, name)}")
    return 0, [(name, write_json, payload)]


def cmd_fourier(args):
    validate_scheme_config(args.q, args.n, args.m)
    ctx = get_scheme(args.q, args.n, args.m)
    spec = fourier_forward(ctx.table(read_function_csv(args.input, ctx.size)))
    name = "spectrum.csv"
    print(f"spectrum of {args.input} over L(F_{args.q}^{args.m}, F_{args.q}^{args.n}) -> "
          f"{os.path.join(args.output, name)}")
    return 0, [(name, write_function_csv, spec.coefficients)]


def cmd_project_degree(args):
    validate_scheme_config(args.q, args.n, args.m)
    ctx = get_scheme(args.q, args.n, args.m)
    out = degree_project(ctx.table(read_function_csv(args.input, ctx.size)), args.d, args.mode)
    name = f"degree_{args.mode}_{args.d}.csv"
    print(f"degree-{args.d} {args.mode} part -> {os.path.join(args.output, name)}")
    return 0, [(name, write_function_csv, out.values)]


def _load_scheme_function(args, ctx):
    if args.input:
        return ctx.table(read_function_csv(args.input, ctx.size))
    if args.set:
        group = get_group(args.group, args.n, args.q)
        ordinals = read_set_file(args.set, group)
        vals = np.zeros(ctx.size, dtype=np.complex128)
        vals[group.elements[ordinals]] = 1.0
        return ctx.table(vals)
    raise ToolkitError("provide --input (function CSV) or --set (matrix file)")


def cmd_global_audit(args):
    validate_scheme_config(args.q, args.n, args.m)
    ctx = get_scheme(args.q, args.n, args.m)
    rep = global_audit(_load_scheme_function(args, ctx), args.dmax, zeta=args.zeta)
    for row in rep.rows:
        print(f"order {row.order}: max {row.value:.6g} vs threshold {row.threshold:.6g} "
              f"[{'ok' if row.passed else 'VIOLATION'}] witness {row.witness}")
    return 0 if rep.passed else 1, [("global_audit.csv", write_report_csv, rep.as_rows()),
                                    ("global_audit.json", write_json, {"pass": rep.passed, "rows": rep.as_rows()})]


def cmd_influence_audit(args):
    validate_scheme_config(args.q, args.n, args.m)
    ctx = get_scheme(args.q, args.n, args.m)
    rep = influence_audit(_load_scheme_function(args, ctx), args.dmax, zeta=args.zeta)
    for row in rep.rows:
        print(f"order {row.order}: max influence {row.value:.6g} witness {row.witness}")
    return 0 if rep.passed else 1, [("influence_audit.csv", write_report_csv, rep.as_rows())]


def cmd_levels(args):
    group = _group_from_args(args)
    if args.dmax is None:
        args.dmax = group.n  # the manifest records the order resolved here
    if not 0 <= args.dmax <= group.n:
        raise ToolkitError(f"dmax={args.dmax} must lie in [0, n={group.n}]")
    dims = get_characters(group).level_dims()
    rows = [{"d": d, "dim_le_d": dims[d]} for d in range(args.dmax + 1)]
    for r in rows:
        print(r)
    return 0, [("level_dims.csv", write_report_csv, rows)]


def cmd_isotypic(args):
    group = _group_from_args(args)
    rep = isotypic_refine(group)
    payload = {
        "group_size": rep.group_size,
        "class_count": rep.class_count,
        "component_dims": {str(k): v for k, v in rep.component_dims.items()},
        "m_d": {str(k): v for k, v in rep.m_d.items()},
        "sum_of_squares": rep.sum_of_squares(),
        "growth_report": glt_growth_report(group, rep),
    }
    chars = get_characters(group)
    irreducibles = [{"index": i, "degree": int(chars.degrees[i]), "level": int(chars.levels[i])}
                    | {f"fixed_h{d}": int(m) for d, m in enumerate(chars.fixed[i])}
                    for i in range(len(chars.degrees))]
    print(f"|G| = {rep.group_size}, classes = {rep.class_count}, "
          f"dims = {rep.component_dims}, m_d = {rep.m_d}")
    return 0, [("isotypic.json", write_json, payload), ("irreducibles.csv", write_report_csv, irreducibles)]


def cmd_opnorm(args):
    group = _group_from_args(args)
    a = _indicator_from_args(args, group)
    f = group.indicator(a.ordinals)
    rows = []
    ok = True
    for d in range(1, group.n + 1):
        row = sarnak_xue_check(f, d, c_report=args.c)
        ok &= row.sx_holds and abs(row.trace_matrix - row.trace_direct) < 1e-8
        rows.append(vars(row))
        print(f"d={d}: ||T_f|| = {row.norm:.6g}, SX bound {row.sx_bound:.6g} "
              f"(m_d={row.m_d}), empirical c = {row.empirical_c:.4g}")
    return 0 if ok else 1, [("opnorm.csv", write_report_csv, rows)]


def cmd_convolve(args):
    group = _group_from_args(args)
    a = _indicator_from_args(args, group)
    b = GroupSet(group, read_set_file(args.set2, group))
    conv = convolve(group.indicator(a.ordinals), group.indicator(b.ordinals))
    name = "convolution.csv"
    print(f"1_A * 1_B -> {os.path.join(args.output, name)} (mean {conv.mean().real:.6g})")
    return 0, [(name, write_function_csv, conv.values)]


def cmd_mixing(args):
    group = _group_from_args(args)
    a = _indicator_from_args(args, group)
    b = GroupSet(group, read_set_file(args.set2, group))
    rep = mixing_experiment(a, b)
    print(f"||f*g - E[f]E[g]||_2 = {rep.deviation:.6g}; per-level {rep.per_level}; "
          f"identity residual {rep.decomposition_residual:.2e}; "
          f"reported bound {rep.bound:.3g} (ratio {rep.bound_ratio:.3g})")
    return 0 if rep.decomposition_residual < 1e-8 else 1, [("mixing.json", write_json, vars(rep))]


def cmd_product_mixing(args):
    group = _group_from_args(args)
    a = _indicator_from_args(args, group)
    b = GroupSet(group, read_set_file(args.set2, group))
    c = GroupSet(group, read_set_file(args.set3, group))
    rep = product_mixing(a, b, c)
    print(f"<f*g,h> = {rep.triple:.6g}, deviation {rep.triple_deviation:.6g}, "
          f"ABC covers G: {rep.covers}")
    return 0 if rep.decomposition_residual < 1e-8 else 1, [("product_mixing.json", write_json, vars(rep))]


def cmd_bogolyubov(args):
    group = _group_from_args(args)
    a = _indicator_from_args(args, group)
    dres = density_bogolyubov(a, zeta=args.zeta)  # refuses groups outside SL_n, so it runs first
    res = bogolyubov_search(a)
    payload = {
        "mu_A": a.mu,
        "contained_groumvirate": res.contained.describe(),
        "contained_k": res.contained.k,
        "contained_density": res.density,
        "achieved_exponent": res.exponent,
        "density_step_groumvirate": dres.groumvirate.describe(),
        "density_of_AAinv_inside": dres.density_in_groumvirate,
        "reached_0.99": dres.reached_099,
        "containment_verified": dres.containment_verified,
        "bump_trace": [vars(t) for t in dres.bump.trace],
        "bump_reason": dres.bump.reason,
    }
    print(f"AA^-1AA^-1 contains {res.contained.describe()} of density {res.density:.6g} "
          f"(exponent {res.exponent:.3g}); density step: {dres.density_in_groumvirate:.4g} "
          f"in {dres.groumvirate.describe()} [{dres.bump.reason}]")
    return 0, [("bogolyubov.json", write_json, payload)]


def cmd_approx_group(args):
    group = _group_from_args(args)
    a = _indicator_from_args(args, group)
    res = easy_set_cover(a)
    payload = {
        "K": res.k_ratio,
        "coset_count": res.coset_count,
        "bound_K4": res.coset_bound_k4,
        "bound_K5": res.coset_bound_k5,
        "umvirate": res.easy_set.umvirate.describe(),
        "k": res.easy_set.umvirate.k,
        "g": res.easy_set.umvirate.g,
        "representatives": [int(x) for x in res.easy_set.representatives],
        "alpha": res.easy_set.alpha,
        "beta": res.easy_set.beta,
        "covers": res.covers,
        "inside_A5": res.inside_a5,
    }
    print(f"K = {res.k_ratio:.4g}; J = {res.coset_count} cosets of "
          f"{res.easy_set.umvirate.describe()}; A <= J <= A^5: "
          f"{res.covers and res.inside_a5}")
    return 0 if (res.covers and res.inside_a5) else 1, [("approx_group.json", write_json, payload)]


def cmd_set_audit(args):
    group = _group_from_args(args)
    if args.dmax is not None and args.dmax > 2 * group.n:
        raise ToolkitError(f"set audit order dmax={args.dmax} exceeds 2n = {2 * group.n}")
    a = _indicator_from_args(args, group)
    res = set_global_audit(group, a.ordinals, rmax=args.dmax, zeta=args.zeta)
    for row in res.report.rows:
        print(f"order {row.order}: ratio {row.value:.6g} vs r^d = {row.threshold:.6g} "
              f"[{'ok' if row.passed else 'VIOLATION'}]")
    return 0 if res.report.passed else 1, [("set_audit.csv", write_report_csv, res.report.as_rows())]


def cmd_verify(args):
    from .verify import run_all

    _, ok = run_all()
    return 0 if ok else 1, []


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qharm",
        description="Exact harmonic analysis on matrix spaces over small finite fields",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scheme=False, group=False, zeta=False):
        """Options of the scheme and group subcommands; each handler reads every one it gets."""
        sp.add_argument("--q", type=int, default=2)
        sp.add_argument("--n", type=int, default=2)
        if scheme:
            sp.add_argument("--m", type=int, default=2)
        if group:
            sp.add_argument("--group", choices=["sl", "gl"], default="sl")
        if zeta:
            sp.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
        sp.add_argument("--output", "-o", default="out")

    # the options each subcommand's manifest records, named once beside its parser entry
    scheme_config = ("q", "n", "m")
    group_config = ("group", "n", "q")

    sp = sub.add_parser("field-info", help="print field tables and characters")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--output", "-o", default="out")
    sp.set_defaults(fn=cmd_field_info, config=("q",))

    sp = sub.add_parser("fourier", help="forward transform of a function CSV")
    common(sp, scheme=True)
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=cmd_fourier, config=scheme_config)

    sp = sub.add_parser("project-degree", help="degree projection of a function CSV")
    common(sp, scheme=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--mode", choices=["pure", "cumulative"], default="pure")
    sp.set_defaults(fn=cmd_project_degree, config=scheme_config + ("d", "mode"))

    sp = sub.add_parser("global-audit", help="exact restriction-norm audit")
    common(sp, scheme=True, group=True, zeta=True)
    sp.add_argument("--input")
    sp.add_argument("--set")
    sp.add_argument("--dmax", type=int, default=2)
    sp.set_defaults(fn=cmd_global_audit, config=scheme_config + ("dmax", "zeta"))

    sp = sub.add_parser("influence-audit", help="exact generalized-influence audit")
    common(sp, scheme=True, group=True, zeta=True)
    sp.add_argument("--input")
    sp.add_argument("--set")
    sp.add_argument("--dmax", type=int, default=2)
    sp.set_defaults(fn=cmd_influence_audit, config=scheme_config + ("dmax", "zeta"))

    sp = sub.add_parser("set-audit", help="umvirate density audit of a set on G")
    common(sp, group=True, zeta=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--dmax", type=int, default=None)
    sp.set_defaults(fn=cmd_set_audit, config=group_config + ("dmax", "zeta"))

    sp = sub.add_parser("levels", help="tensor-rank level dimensions")
    common(sp, group=True)
    sp.add_argument("--dmax", type=int, default=None)
    sp.set_defaults(fn=cmd_levels, config=group_config + ("dmax",))

    sp = sub.add_parser("isotypic", help="irreducible dimensions per level and m_d")
    common(sp, group=True)
    sp.set_defaults(fn=cmd_isotypic, config=group_config)

    sp = sub.add_parser("opnorm", help="convolution operator norms on levels")
    common(sp, group=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--c", type=float, default=0.05)
    sp.set_defaults(fn=cmd_opnorm, config=group_config + ("c",))

    sp = sub.add_parser("convolve", help="convolution of two set indicators")
    common(sp, group=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--set2", required=True)
    sp.set_defaults(fn=cmd_convolve, config=group_config)

    sp = sub.add_parser("mixing", help="two-set mixing experiment")
    common(sp, group=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--set2", required=True)
    sp.set_defaults(fn=cmd_mixing, config=group_config)

    sp = sub.add_parser("product-mixing", help="three-set mixing experiment")
    common(sp, group=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--set2", required=True)
    sp.add_argument("--set3", required=True)
    sp.set_defaults(fn=cmd_product_mixing, config=group_config)

    sp = sub.add_parser("bogolyubov", help="groumvirate containment in AA^-1AA^-1")
    common(sp, group=True, zeta=True)
    sp.add_argument("--set", required=True)
    sp.set_defaults(fn=cmd_bogolyubov, config=group_config + ("zeta",))

    sp = sub.add_parser("approx-group", help="easy-set cover of an approximate subgroup")
    common(sp, group=True)
    sp.add_argument("--set", required=True)
    sp.set_defaults(fn=cmd_approx_group, config=group_config)

    sp = sub.add_parser("verify", help="run the full invariant/acceptance suite")
    sp.add_argument("--output", "-o", default="out")
    sp.set_defaults(fn=cmd_verify, config=())

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, artifacts = args.fn(args)
        record(args, artifacts)
        return status
    except (ToolkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
