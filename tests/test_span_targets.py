"""The benchmark's traced run wraps package functions by name, and a name
that no longer resolves turns its layer's metrics into ``null``. This test
reads ``bench/spans.py`` as source, without importing the benchmark, so
that a rename or deletion fails here instead."""

import ast

from conftest import CASES_DIR

SPANS = CASES_DIR.parent / "bench" / "spans.py"


def test_every_span_target_is_a_callable_of_the_package():
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    # the owners, bound by running only the file's own package imports
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "asyncadmm"]
    owners: dict = {}
    exec(compile(ast.Module(imports, type_ignores=[]), str(SPANS), "exec"), owners)
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    pairs = [(entry.elts[0].id, entry.elts[1].value) for entry in targets.elts]
    assert ("engine", "payload_digest") in pairs
    for owner, attribute in pairs:
        assert callable(getattr(owners[owner], attribute, None)), f"{owner}.{attribute}"
