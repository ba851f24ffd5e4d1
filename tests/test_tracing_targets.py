"""The traced benchmark run wraps qharm functions by name; a rename must
fail here, not silently drop a layer from the trace."""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing_targets():
    """(module, attribute) of every entry of TARGETS in perfbench/tracing.py,
    read with ast so perfbench is not imported."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return [tuple(ast.literal_eval(entry)[:2]) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS list")


def test_every_tracing_target_resolves_in_qharm():
    targets = _tracing_targets()
    assert targets
    for module, attribute in targets:
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
