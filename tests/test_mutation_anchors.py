"""The committed mutation list (tests/mutations.py) stays applicable."""

import os
import re

from mutations import MUTATIONS, ROOT, anchor_lines


def test_every_mutation_anchor_occurs_once_and_names_existing_tests():
    assert len({m.name for m in MUTATIONS}) == len(MUTATIONS)
    for m in MUTATIONS:
        with open(os.path.join(ROOT, m.path)) as fh:
            assert len(anchor_lines(fh.read(), m.anchor)) == 1, f"{m.name}: anchor not found exactly once in {m.path}"
        assert m.replacement != m.anchor and m.tests
        for node in m.tests:
            path, test = node.split("::")
            with open(os.path.join(ROOT, path)) as fh:
                assert re.search(rf"^def {re.escape(test.split('[')[0])}\(", fh.read(), re.M), node
