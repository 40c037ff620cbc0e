"""Count the executable lines of ``src/asyncadmm`` that the tier-1 tests
never run.

Usage: ``python tools/unexecuted_lines.py [TREE] [-- PYTEST_ARGS...]``

TREE (default: this checkout) is a source tree with ``src/`` and
``tests/``. The tests run from TREE in this process under ``sys.settrace``,
so no coverage package is needed; tests that start a subprocess are not
traced. A line is executable if a code object compiled from the file maps an
instruction to it (``code.co_lines()``, nested code objects included, line 0
left out). The script prints each unexecuted line with its source, then the
totals, and exits with pytest's exit code.
"""

import os
import sys
import threading
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    argv, pytest_args = argv[:split], argv[split + 1:]
    tree = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    package = tree / "src" / "asyncadmm"
    files = {str(path): path for path in sorted(package.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    os.chdir(tree)  # the shipped configs name their case files relative to it
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-W", "error", "--rootdir",
                            str(tree), str(tree / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in files.items():
        lines = executable_lines(path)
        unrun = sorted(lines - hits[name])
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unrun:
            print(f"{path.relative_to(tree)}:{line}: {source[line - 1].strip()}")
        total, missed = total + len(lines), missed + len(unrun)
    print(f"{missed} of {total} executable lines in {package.relative_to(tree)} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
