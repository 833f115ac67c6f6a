"""The mutation check's table stays runnable: each mutation's target text
occurs once in its source file, and each test it names exists."""

import ast

import pytest

from mutation_check import MUTATIONS, ROOT


def _test_functions(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("name, rel, target, tests",
                         [(name, rel, target, tests)
                          for name, rel, target, _, tests in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
def test_mutation_target_and_tests_exist(name, rel, target, tests):
    source = (ROOT / "src" / "ndlite" / rel).read_text(encoding="utf-8")
    assert source.count(target) == 1, target
    assert tests
    for test in tests:
        path, _, func = test.partition("::")
        assert func in _test_functions(path), test
