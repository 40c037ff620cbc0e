"""The benchmark's traced run wraps package functions by name, and a name
that no longer resolves turns its layer's metrics into ``null``. This test
reads ``bench/spans.py`` as source, without importing the benchmark, so
that a rename or deletion fails here instead. The second runs ring5_async
under the benchmark's own tracer, so that a hook that no longer finds a
field of a return value fails here too."""

import ast
import sys

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


def test_traced_ring5_run_fills_every_layer(tmp_path, monkeypatch):
    # the traced benchmark's hooks read fields of what the wrapped functions
    # return, and a missing field marks its layer absent: run ring5_async
    # with the baseline, then analyze, as the benchmark does, under its
    # tracer (importing it writes no bytecode next to the benchmark)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SPANS.parent))
    import spans

    from asyncadmm.cli import main

    out = tmp_path / "out"
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.run"):
            assert main(["run", str(CASES_DIR / "ring5_async.cfg"), "--set", "baseline=true",
                         "--set", f"outdir={out}"]) == 0
        with tracer.span("cli.analyze"):
            assert main(["analyze", str(out / "trace.log"),
                         "--out", str(out / "analyze.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    metrics = tracer.layer_metrics()
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["localsolver.solves"] == 136
    assert metrics["localsolver.outer_iters"] == 527
    assert metrics["localsolver.inner_iters"] == 1524
    assert metrics["localsolver.floor_hits"] == 1
    assert metrics["opf.baseline_inner_iters"] > 0
