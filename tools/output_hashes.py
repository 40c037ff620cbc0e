"""Print a sha256 prefix of every output artifact of the runs that pin the
program's behaviour, so that two trees can be compared byte for byte.

Usage: run ``python tools/output_hashes.py`` from the root of a source tree
(one with ``src/``, ``tests/``, ``cases/`` and ``bench/``); it takes no
flags. Run it in two trees and ``diff`` the outputs: a change that claims to
preserve behaviour shows no difference.

The runs, each into its own temporary directory:

- the seven pinned configs of ``tests/conftest.py`` with the baseline off,
  as ``test_shipped_trace_hashes`` runs them;
- ring5_async and nine_sync as shipped, with their centralized baseline;
- the benchmark's grids 8, 9 and 10 (``bench/grids.py``) through
  ``bench/grid16_sync.cfg`` with the baseline off;
- grid 8 at rho = 1e4, whose local solve fails: only its partial trace.

For each run the script prints the first 16 hex digits of the sha256 of
``trace.log``, ``convergence.csv``, ``diagnostics.json`` less
``wall_time_s`` (rendered with ``json.dumps(indent=2, sort_keys=True)``), and
of the ``analyze`` report, at the KKT tolerance the trace records, without
and with ``--gamma 2 --m1 2 --m2 1 --c 1``. Each command's line (``run`` and
both ``analyze`` calls) states its exit code and the same hash prefix of the
``error:`` line(s) it printed on stderr, ``-`` when it printed none.
The grid 8 run at rho = 1e4 takes about 90 s of the total.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TREE = Path.cwd()
CONSTANTS = ["--gamma", "2", "--m1", "2", "--m2", "1", "--c", "1"]


def prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def artifact_hashes(out: Path, analyze) -> list[tuple[str, str]]:
    """(artifact, hash prefix) of every artifact that the run left in ``out``,
    and of its two analyze reports when it wrote a report; ``analyze`` returns
    the exit code and error hash of one call."""
    rows = []
    for name in ("trace.log", "convergence.csv"):
        if (out / name).exists():
            rows.append((name, prefix((out / name).read_bytes())))
    if (out / "diagnostics.json").exists():
        report = json.loads((out / "diagnostics.json").read_text())
        report.pop("wall_time_s")
        rendered = json.dumps(report, indent=2, sort_keys=True).encode()
        rows.append(("diagnostics.json less wall_time_s", prefix(rendered)))
        for label, extra in (("analyze", []), ("analyze with constants", CONSTANTS)):
            report_path = out / f"{label}.json"
            code, error = analyze([str(out / "trace.log"), *extra, "--out", str(report_path)])
            rows.append((f"{label} (exit {code}, error {error})", prefix(report_path.read_bytes())
                         if report_path.exists() else "-"))
    return rows


def main() -> int:
    if not (TREE / "src" / "asyncadmm").is_dir() or not (TREE / "bench" / "grids.py").is_file():
        print(f"error: {TREE} is not the root of a source tree", file=sys.stderr)
        return 1
    sys.dont_write_bytecode = True  # leave no bytecode in the tree
    sys.path[:0] = [str(TREE / "bench"), str(TREE / "tests")]
    import grids  # pins BLAS to one thread and imports asyncadmm from TREE/src

    from asyncadmm import cli
    from conftest import PINNED_CONFIGS, WRITTEN_CONFIGS

    def call(argv: list[str]) -> tuple[int, str]:
        """The exit code, and the hash prefix of the ``error:`` lines on
        stderr (``-`` for none)."""
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        return code, prefix("\n".join(errors).encode()) if errors else "-"

    with tempfile.TemporaryDirectory(prefix="output_hashes_") as tmp:
        tmp = Path(tmp)
        runs = []  # (name, config path, --set items)
        for name in PINNED_CONFIGS:
            sets = ["baseline=false"]
            if name == "nine_sync_warm":
                path, sets = TREE / "cases" / "nine_sync.cfg", sets + ["start=warm"]
            elif name in WRITTEN_CONFIGS:
                path = tmp / f"{name}.cfg"
                path.write_text(WRITTEN_CONFIGS[name])
            else:
                path = TREE / "cases" / f"{name}.cfg"
            runs.append((name, path, sets))
        for name in ("ring5_async", "nine_sync"):
            runs.append((f"{name} baseline", TREE / "cases" / f"{name}.cfg", []))
        grid_cfg, grid_sets = TREE / "bench" / "grid16_sync.cfg", {}
        for seed in (8, 9, 10):
            case, part = grids.write_grid(seed, tmp / "grids")
            grid_sets[seed] = [f"case={case}", f"partition={part}", f"seed={seed}",
                               "baseline=false"]
            runs.append((f"grid{seed}", grid_cfg, grid_sets[seed]))
        runs.append(("grid8 rho=1e4", grid_cfg, grid_sets[8] + ["rho=1e4"]))

        for i, (name, path, sets) in enumerate(runs):
            out = tmp / f"run{i}"
            argv = ["run", str(path), "--set", f"outdir={out}"]
            for item in sets:
                argv += ["--set", item]
            code, error = call(argv)
            print(f"{name}: run exit {code}, error {error}")
            for artifact, digest in artifact_hashes(out, lambda a: call(["analyze", *a])):
                print(f"{name}: {artifact} {digest}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
