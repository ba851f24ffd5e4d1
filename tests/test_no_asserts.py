"""Run-time checks in src must survive `python -O`.

An `assert` is stripped under -O, and an AssertionError escapes the CLI
as a traceback; the checks raise ConsistencyError instead, which
`qharm` reports as an `error:` line with exit status 2.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qharm")


def test_src_has_no_assert_statements():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
