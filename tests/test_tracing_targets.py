"""The traced benchmark run wraps qharm functions by name; a rename must
fail here, not silently drop a layer from the trace.  It counts a cached
builder's miss when the builder returns an object it has not returned
before, so every builder must hand back its one table on each call."""

import ast
import importlib
import os

import numpy as np
import pytest

import qharm.calculus as calculus
import qharm.globality as globality
import qharm.groups as groups
from qharm.scheme import get_scheme

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing_targets():
    """(module, attribute, group, records spans, counts cache misses) of every
    entry of TARGETS in perfbench/tracing.py, read with ast so perfbench is
    not imported."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return [tuple(ast.literal_eval(entry)) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS list")


def test_every_tracing_target_resolves_in_qharm():
    targets = _tracing_targets()
    assert targets
    for module, attribute, *_ in targets:
        owner = importlib.import_module(module)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            owner = getattr(owner, cls_name, None)
            assert isinstance(owner, type), f"{module}.{cls_name} is not a class"
            # the tracer replaces what the class itself defines (vars(cls))
            if method == "*":
                assert any(name.startswith("check_") for name in vars(owner)), f"{module}.{cls_name} has no checks"
            else:
                assert callable(vars(owner).get(method)), f"{module}.{attribute} does not resolve"
            continue
        assert callable(getattr(owner, attribute, None)), f"{module}.{attribute} does not resolve"


# a call of each derived-table builder on (ctx, group, V', W'), by the name
# TARGETS gives it: every builder whose misses the tracer counts, and the
# other tables that perfbench reads
_BUILDERS = {
    "SchemeCtx.rank_table_dual": lambda ctx, group, vp, wp: ctx.rank_table_dual(),
    "SchemeCtx.site_cosets": lambda ctx, group, vp, wp: ctx.site_cosets(vp, wp),
    "SchemeCtx.restriction_embedding": lambda ctx, group, vp, wp: ctx.restriction_embedding(vp, wp),
    "laplacian_mask": lambda ctx, group, vp, wp: calculus.laplacian_mask(ctx, vp, wp),
    "quotient_mask": lambda ctx, group, vp, wp: calculus.quotient_mask(ctx, vp),
    "vector_avg_factors": lambda ctx, group, vp, wp: calculus.vector_avg_factors(ctx, vp.basis[0]),
    "dual_avg_factors": lambda ctx, group, vp, wp: calculus.dual_avg_factors(ctx, wp),
    "GroupTable.mul_table": lambda ctx, group, vp, wp: group.mul_table(),
    "GroupTable.xyinv_table": lambda ctx, group, vp, wp: group.xyinv_table(),
    "GroupTable.vector_action": lambda ctx, group, vp, wp: group.vector_action(True),
    "GroupTable.dictator_systems": lambda ctx, group, vp, wp: group.dictator_systems(),
    "get_levels": lambda ctx, group, vp, wp: groups.get_levels(group),
    "get_isotypic": lambda ctx, group, vp, wp: groups.get_isotypic(group),
    "block_subgroup_members": lambda ctx, group, vp, wp: globality.block_subgroup_members(group, 1),
}


def test_every_miss_counted_builder_has_an_identity_check():
    assert {attribute for _, attribute, _, _, counts in _tracing_targets() if counts} <= set(_BUILDERS)


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builder_returns_its_table_again(name):
    ctx = get_scheme(2, 2, 3)
    vp, wp = ctx.restriction_pairs(2)[10]  # V' a line, W' a plane
    args = (ctx, groups.get_group("sl", 2, 3), vp, wp)
    assert _BUILDERS[name](*args) is _BUILDERS[name](*args)

def test_laplacian_mask_is_a_view_of_its_order_stack():
    ctx = get_scheme(2, 2, 3)
    for order in range(ctx.n + ctx.m + 1):
        stack = calculus.laplacian_masks(ctx, order)
        for (v1, w1), row in zip(ctx.restriction_pairs(order), stack):
            mask = calculus.laplacian_mask(ctx, v1, w1)
            assert np.shares_memory(mask, row) and np.array_equal(mask, row)
