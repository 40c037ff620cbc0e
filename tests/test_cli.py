import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asyncadmm
from asyncadmm import analysis, caseio, cli, engine, kernel, opf
from asyncadmm.cli import (
    build_run_config,
    main,
    parse_config_text,
    problem_from_descriptor,
    toy_centralized_optimum,
)
from asyncadmm.localsolver import SolveError
from asyncadmm.problem import make_nonconvex_toy, make_toy_consensus

from conftest import CASES_DIR, PINNED_CONFIGS, config_path
from oracles import nonconvex_toy_minimum, read_events, read_results

BENCH_DIR = CASES_DIR.parent / "bench"

TOY_CONFIG = """
problem = toy_consensus
targets = 0, 2
mode = sync
rho = 5.0
seed = 0
tol = 1e-3
max_local_iters = 500
compute_delay = constant:1.0
link_delay = constant:0.0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def documented_keys() -> dict[str, tuple[str | None, str]]:
    """Key -> (documented default or None, entry text) of the key table in
    the cli module docstring. An entry starts at a four-space indent, names
    its keys before two spaces, and may end with its defaults in parentheses,
    one per key."""
    table = cli.__doc__.split("Config keys", 1)[1].split("\n\n")[1]
    out = {}
    for entry in re.split(r"\n(?=    \S)", table):
        keys = [k.strip() for k in re.split(r"\s{2,}", entry.strip())[0].split("/")]
        text = " ".join(entry.split())
        found = re.search(r"\(([^()]*)\)$", text)
        defaults = found.group(1).split(" / ") if found else [None] * len(keys)
        assert len(defaults) == len(keys), entry
        out.update((key, (default, text)) for key, default in zip(keys, defaults))
    return out


def test_documented_config_table_matches_the_defaults():
    def parsed(text):  # a default as build_run_config reads it
        try:
            return float(text)
        except ValueError:
            return cli._parse_delay_spec(text, None) if ":" in text else text

    documented = documented_keys()
    assert set(documented) - {"compute_delay.<k>", "link_delay.<k>-<l>"} == set(cli._DEFAULTS)
    for key, default in cli._DEFAULTS.items():
        assert parsed(documented[key][0] or "") == parsed(default), key
    # the applicability rule: exactly the keys that one problem alone reads
    # are marked "<problem> only"
    for key, (_, text) in documented.items():
        only = re.search(r"; (\w+) only\b", text)
        assert (only and only.group(1)) == cli._PROBLEM_KEYS.get(key), key


class TestConfigParsing:
    def test_key_value_grammar(self):
        entries = parse_config_text("a = 1\n# comment\nb= two # trailing\n")
        assert entries["a"] == ("1", 1)
        assert entries["b"] == ("two", 3)

    def test_missing_equals_located(self):
        with pytest.raises(caseio.ParseError) as err:
            parse_config_text("rho 5\n")
        assert err.value.line == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(caseio.ParseError, match="unknown config key"):
            build_run_config(parse_config_text("rho = 1\nwibble = 2\n"))

    def test_mode_validated(self):
        with pytest.raises(caseio.ParseError, match="sync or async"):
            build_run_config(parse_config_text("mode = turbo\n"))

    def test_sync_mode_forces_lockstep_threshold(self):
        config = build_run_config(parse_config_text(
            "problem = nonconvex_toy\nmode = sync\np = 0.1\n"))
        assert config.params.p == 1.0

    def test_delay_overrides(self):
        config = build_run_config(parse_config_text(
            "problem = nonconvex_toy\n"
            "compute_delay.2 = lognormal:0.0,0.5\nlink_delay.1-3 = constant:4.0\n"
        ))
        assert config.delays.compute_spec(2).kind == "lognormal"
        assert config.delays.link_spec(3, 1).params == (4.0,)

    def test_library_defaults_are_the_configs(self):
        # a config that names only its problem runs on the library's own
        # defaults; the CLI states only rho, which AdmmParams leaves open
        config = build_run_config(parse_config_text("problem = nonconvex_toy\n"))
        assert config.params == kernel.AdmmParams(rho=1.0)
        assert config.stop == engine.StoppingRule()
        assert config.delays == engine.DelayModel()
        assert config.problem == {"kind": "nonconvex_toy"}
        case, part = (CASES_DIR / f"chain3.{ext}" for ext in ("case", "part"))
        config = build_run_config(parse_config_text(
            f"problem = opf\ncase = {case}\npartition = {part}\n"))
        assert config.problem == {"kind": "opf", "case": case.read_text(),
                                  "partition": part.read_text(),
                                  "beta_minus": opf.DEFAULT_BETA_MINUS,
                                  "beta_plus": opf.DEFAULT_BETA_PLUS}


class TestRunCommand:
    def test_toy_sync_run(self, tmp_path):
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        code = main(["run", str(cfg)])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "trace.log").exists()
        rows = read_results(out / "convergence.csv")
        assert rows[-1][2] <= 1e-3  # final max residue
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["status"] == "converged"
        assert report["omega"] == 1
        assert set(report["timing"]) == {"1", "2"}
        assert sorted(path.name for path in out.iterdir()) == \
            ["convergence.csv", "diagnostics.json", "trace.log"]

    def test_printed_max_residue_is_the_last_csv_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {out}\n")
        assert main(["run", str(cfg)]) == 0
        rows = read_results(out / "convergence.csv")
        assert capsys.readouterr().out == (f"converged: {rows[-1][1]:.3f} ms virtual, max residue "
                                           f"{rows[-1][2]:.3e}, artifacts in {out}\n")
        # worker 1's first compute outlasts the time cap, so no row has a
        # finite max residue although workers 2 and 3 close cycles
        capped = TOY_CONFIG.replace("targets = 0, 2", "targets = 0, 1, 2").replace(
            "mode = sync", "mode = async\np = 0.1")
        cfg = write_config(tmp_path, capped + f"outdir = {out}\ncompute_delay.1 = constant:100.0\n"
                                               "time_cap_ms = 10\n")
        assert main(["run", str(cfg)]) == 2
        rows = read_results(out / "convergence.csv")
        assert rows and all(row[2] == math.inf for row in rows)
        assert capsys.readouterr().out == \
            f"time_cap: 10.000 ms virtual, max residue inf, artifacts in {out}\n"

    def test_flat_start_at_bound_midpoints(self, tmp_path):
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        main(["run", str(cfg)])
        trace = caseio.read_trace(tmp_path / "out" / "trace.log")
        # unbounded toy coordinates start at zero
        assert trace.meta["x0"] == [[0.0], [0.0]]

    def test_async_p1_zero_delays_matches_sync_csv(self, tmp_path):
        sync_cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'a'}\n", "a.cfg")
        async_cfg = write_config(
            tmp_path,
            TOY_CONFIG.replace("mode = sync", "mode = async\np = 1.0")
            + f"outdir = {tmp_path / 'b'}\n",
            "b.cfg",
        )
        assert main(["run", str(sync_cfg)]) == 0
        assert main(["run", str(async_cfg)]) == 0
        a = read_results(tmp_path / "a" / "convergence.csv")
        b = read_results(tmp_path / "b" / "convergence.csv")
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            for va, vb in zip(ra, rb):
                if np.isfinite(va) or np.isfinite(vb):
                    assert abs(va - vb) <= 1e-12

    def test_missing_case_file_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "problem = opf\ncase = nowhere.case\npartition = nowhere.part\n")
        assert main(["run", str(cfg)]) == 1
        assert "nowhere.case" in capsys.readouterr().err

    def test_cap_exhaustion_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            TOY_CONFIG.replace("tol = 1e-3", "tol = 1e-13")
            .replace("max_local_iters = 500", "max_local_iters = 4")
            + f"outdir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("setting", [
        "tol=nan", "tol=inf", "tol=0", "rho=inf", "rho=nan", "alpha=inf", "p=nan",
        "lambda_min=nan", "max_local_iters=0", "time_cap_ms=-1", "time_cap_ms=nan",
        "compute_delay=constant:nan", "compute_delay=uniform:0,inf",
        "link_delay=lognormal:nan,0.3", "link_delay.1-2=constant:inf", "targets=0,nan",
    ])
    def test_bad_number_is_one_error_line(self, tmp_path, capsys, setting):
        # a value that would make the run meaningless (or crash it) ends
        # before the run with one error line and no artifacts
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {out}\n")
        assert main(["run", str(cfg), "--set", setting]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not out.exists()

    def test_set_overrides(self, tmp_path):
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        code = main(["run", str(cfg), "--set", "max_local_iters=4", "--set", "tol=1e-13"])
        assert code == 2

    def test_determinism_bitwise_traces(self, tmp_path):
        base = TOY_CONFIG.replace("mode = sync", "mode = async\np = 0.1") \
            .replace("compute_delay = constant:1.0", "compute_delay = lognormal:0.0,0.5") \
            .replace("link_delay = constant:0.0", "link_delay = uniform:0.0,0.5") \
            + "seed = 77\n"
        c1 = write_config(tmp_path, base + f"outdir = {tmp_path / 'r1'}\n", "c1.cfg")
        c2 = write_config(tmp_path, base + f"outdir = {tmp_path / 'r2'}\n", "c2.cfg")
        assert main(["run", str(c1)]) == 0
        assert main(["run", str(c2)]) == 0
        assert (tmp_path / "r1" / "trace.log").read_bytes() == \
            (tmp_path / "r2" / "trace.log").read_bytes()

    def test_toy_warm_start(self, tmp_path):
        cfg = write_config(
            tmp_path,
            TOY_CONFIG.replace("mode = sync", "mode = sync\nstart = warm")
            + f"outdir = {tmp_path / 'warm'}\n",
        )
        assert main(["run", str(cfg)]) == 0
        trace = caseio.read_trace(tmp_path / "warm" / "trace.log")
        # centralized optimum 1.0 (exact) nudged by ten percent
        for x0 in trace.meta["x0"]:
            assert x0[0] == 1.1

    def test_opf_warm_start(self, tmp_path):
        cfg = write_config(tmp_path, f"""
problem = opf
case = cases/chain3.case
partition = cases/chain3.part
mode = sync
start = warm
rho = 1e5
tol = 1e-3
max_local_iters = 400
outdir = {tmp_path / 'opfwarm'}
""")
        assert main(["run", str(cfg)]) == 0
        trace = caseio.read_trace(tmp_path / "opfwarm" / "trace.log")
        # warm vectors come from a solved power flow: own-bus voltage real
        # parts sit near 1.0 rather than at box midpoints
        assert trace.meta["x0"][0][0] == pytest.approx(1.0, abs=0.05)

    def test_opf_run_with_baseline(self, tmp_path):
        cfg = write_config(tmp_path, f"""
problem = opf
case = cases/chain3.case
partition = cases/chain3.part
mode = sync
rho = 1e5
seed = 1
tol = 1e-3
max_local_iters = 400
link_delay = constant:0.0
baseline = true
outdir = {tmp_path / 'opf'}
""")
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "opf" / "diagnostics.json").read_text())
        assert report["baseline"]["gap_percent"] < 1.0
        assert report["objective"] > 0

    def test_failed_baseline_solve_exits_one(self, tmp_path, capsys, monkeypatch):
        def fail(case, *args, **kwargs):
            raise SolveError("forced failure", 1.0, 1.0)

        monkeypatch.setattr(opf, "centralized_reference_solve", fail)
        cfg = write_config(tmp_path, f"""
problem = opf
case = cases/chain3.case
partition = cases/chain3.part
mode = sync
rho = 1e5
tol = 1e-3
max_local_iters = 400
baseline = true
outdir = {tmp_path / 'opf'}
""")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "forced failure" in err[0]
        assert (tmp_path / "opf" / "trace.log").exists()
        assert (tmp_path / "opf" / "convergence.csv").exists()

    def test_failed_trace_analysis_exits_one(self, tmp_path, capsys, monkeypatch):
        def fail(trace, *args, **kwargs):
            raise analysis.TraceError("forced failure")

        monkeypatch.setattr(analysis, "analyze_trace", fail)
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "forced failure" in err[0]
        assert (tmp_path / "out" / "trace.log").exists()
        assert (tmp_path / "out" / "convergence.csv").exists()
        assert not (tmp_path / "out" / "diagnostics.json").exists()

    @staticmethod
    def fail_fifth_solve(monkeypatch):
        """Make every run's fifth local solve fail: in the lockstep toy,
        worker 1's at cycle 2."""
        real, calls = engine.x_update, []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) % 5 == 0:
                raise SolveError("forced failure", 1.0, 1.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "x_update", flaky)

    def test_failed_local_solve_keeps_partial_trace(self, tmp_path, capsys, monkeypatch):
        self.fail_fifth_solve(monkeypatch)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {out}\n")
        assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: worker 1 local solve failed at cycle 2: forced failure"]
        assert not captured.out
        assert (out / "trace.log").exists()
        assert not (out / "convergence.csv").exists()
        assert not (out / "diagnostics.json").exists()
        assert main(["analyze", str(out / "trace.log")]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "aborted"

    def test_library_run_of_a_failed_solve_matches_the_cli(self, tmp_path, monkeypatch):
        # the same failure returns from engine.run with the CLI's message and
        # the partial trace that the CLI writes
        self.fail_fifth_solve(monkeypatch)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {out}\n")
        assert main(["run", str(cfg)]) == 1
        config = build_run_config(parse_config_text(cfg.read_text()))
        problem, _ = problem_from_descriptor(config.problem)
        result = engine.run(problem, config.params, config.delays, config.stop,
                            problem_descriptor=config.problem)
        assert (result.status, result.converged) == ("aborted", False)
        assert str(result.error) == "worker 1 local solve failed at cycle 2: forced failure"
        assert not any(e.kind == "final" for e in result.trace.events)
        caseio.write_trace(result.trace, tmp_path / "library.log")
        assert (tmp_path / "library.log").read_bytes() == (out / "trace.log").read_bytes()


class TestToyReference:
    def test_consensus_optimum_is_the_mean_of_unbounded_targets(self, tmp_path):
        problem = make_toy_consensus([20.0, 30.0])
        descriptor = {"kind": "toy_consensus", "targets": [20.0, 30.0]}
        assert toy_centralized_optimum(problem, descriptor) == (25.0, 50.0)
        cfg = write_config(tmp_path, TOY_CONFIG.replace("targets = 0, 2", "targets = 20, 30")
                           + f"baseline = true\noutdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert report["baseline"]["centralized_objective"] == 50.0

    def test_nonconvex_optimum_agrees_with_grid_search(self):
        step = 1e-4
        grid_x, grid_value = nonconvex_toy_minimum(step)
        x, value = toy_centralized_optimum(make_nonconvex_toy(), {"kind": "nonconvex_toy"})
        assert abs(x - grid_x) <= step
        assert value <= grid_value
        # a stationary point of (x^2 - 1)^2 + (x - 0.5)^2
        assert abs(4.0 * x**3 - 2.0 * x - 1.0) <= 1e-12


class TestBoundsCommand:
    def test_exact_values_and_message(self, capsys):
        assert main(["bounds", "--gamma", "1", "--m1", "1", "--m2", "1",
                     "--c", "1", "--omega", "1", "--rho", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho_min"] == 2.0 + 8.0**0.5
        assert out["alpha_min"] == -5.0
        assert out["alpha_zero_admissible"] is True
        assert out["message"] == "alpha=0 admissible"

    def test_rejects_nonpositive_constants(self, capsys):
        assert main(["bounds", "--gamma", "-1", "--m1", "1", "--m2", "1",
                     "--c", "1", "--rho", "5"]) == 1
        assert "gamma" in capsys.readouterr().err


class TestAnalyzeCommand:
    def run_and_trace(self, tmp_path, extra="", name="out"):
        cfg = write_config(tmp_path, TOY_CONFIG + extra + f"outdir = {tmp_path / name}\n",
                           f"{name}.cfg")
        assert main(["run", str(cfg)]) == 0
        return tmp_path / name / "trace.log"

    def test_sync_trace_omega_one(self, tmp_path, capsys):
        trace = self.run_and_trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(trace)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["omega"] == 1
        # the problem is rebuilt from the trace: KKT residuals are present,
        # and a converged run guarantees the primal family at tolerance
        assert max(report["kkt"]["primal"]) <= 1e-3
        assert max(report["kkt"]["stationarity"]) <= 1e-6

    def test_async_trace_staleness_bound_holds(self, tmp_path, capsys):
        trace = self.run_and_trace(
            tmp_path,
            extra="mode = async\np = 0.1\ncompute_delay = lognormal:0.0,0.5\n"
                  "link_delay = uniform:0.0,0.5\nseed = 5\n",
            name="async_out",
        )
        capsys.readouterr()
        assert main(["analyze", str(trace), "--gamma", "2", "--m1", "2",
                     "--m2", "1", "--c", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["staleness_bound"]["holds"] is True
        assert report["lambda_bound"]["num_violations"] == 0

    @pytest.mark.parametrize("tol", ["0", "-1e-3", "nan", "inf"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, tol):
        # as in run: otherwise the KKT verdict could never pass (or never fail)
        trace = self.run_and_trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(trace), f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and not captured.out

    def test_truncated_trace_reports_offset(self, tmp_path, capsys):
        trace = self.run_and_trace(tmp_path)
        data = trace.read_bytes()
        cut = tmp_path / "cut.log"
        cut.write_bytes(data[: len(data) // 2])
        assert main(["analyze", str(cut)]) == 1
        assert "byte" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path):
        trace = self.run_and_trace(tmp_path)
        out = tmp_path / "report.json"
        assert main(["analyze", str(trace), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "converged"

    def test_network_trace_rebuilds_problem(self, tmp_path):
        # the trace header embeds the case and partition text, so analyze
        # can evaluate KKT residuals for network runs too
        cfg = write_config(tmp_path, f"""
problem = opf
case = cases/chain3.case
partition = cases/chain3.part
mode = async
p = 0.1
rho = 1e5
seed = 2
tol = 1e-3
max_local_iters = 400
outdir = {tmp_path / 'net'}
""")
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "report.json"
        assert main(["analyze", str(tmp_path / "net" / "trace.log"),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "kkt" in report and len(report["kkt"]["primal"]) == 2
        assert report["staleness_bound"]["holds"] is True


def _drop_meta_key(key):
    def edit(meta, events):
        del meta[key]
        return meta, events
    return edit


def _set_meta_key(key, value):
    def edit(meta, events):
        meta[key] = value
        return meta, events
    return edit


def _set_every_key(prefix, key, value):
    """Set ``key`` in the payload of every record whose line starts with
    ``prefix``."""
    def edit(meta, events):
        out = []
        for line in events:
            if line.startswith(prefix):
                *head, payload = line.split(" ", 5)
                payload = json.loads(payload)
                payload[key] = value
                line = " ".join(head) + " " + json.dumps(payload) + "\n"
            out.append(line)
        return meta, out
    return edit


def _set_final_key(worker, key, value):
    return _set_every_key(f"final {worker} ", key, value)


def _set_first_key(prefix, key, value):
    def edit(meta, events):
        i = next(i for i, line in enumerate(events) if line.startswith(prefix))
        return meta, [*events[:i], *_set_every_key(prefix, key, value)(meta, [events[i]])[1],
                      *events[i + 1:]]
    return edit


def _repeat_first(prefix):
    def edit(meta, events):
        i = next(i for i, line in enumerate(events) if line.startswith(prefix))
        return meta, [*events[:i + 1], *events[i:]]
    return edit


def _move_compute_records(worker, to):
    """Log every compute_start and compute_end of ``worker`` at ``to``."""
    def edit(meta, events):
        return meta, [f"{kind} {to} {rest}" if kind in ("compute_start", "compute_end")
                      and int(w) == worker else line
                      for line in events for kind, w, rest in [line.split(" ", 2)]]
    return edit


def _drop_final_record(worker):
    def edit(meta, events):
        return meta, [line for line in events if not line.startswith(f"final {worker} ")]
    return edit


def _edge_out_of_range(meta, events):
    return meta, [line.replace('"edge": 0,', '"edge": 7,') for line in events]


class TestMalformedTraceAnalysis:
    """A trace that parses but cannot be analysed ends ``analyze`` with
    exit code 1 and one ``error:`` line, never a traceback; each error keeps
    its text, and a malformed record that the analysis tolerates keeps its
    report."""

    @pytest.mark.parametrize("edit", [
        lambda meta, events: ([meta], events),  # metadata is a JSON list
        _set_meta_key("problem", "toy_consensus"),
        _drop_meta_key("x0"),
        _set_meta_key("z0", []),  # shorter than the edge dimensions
        _edge_out_of_range,
        _set_meta_key("params", ["rho", 5.0]),
        _set_final_key(2, "x", [1.0, 2.0]),  # x longer than region 2's
        _set_final_key(2, "lam", []),  # lam shorter than region 2's boundary
        _drop_final_record(2),  # fewer final records than regions
        _set_first_key("compute_end 2 ", "x", [1.0, 2.0]),  # x rows of differing lengths
    ], ids=["list-metadata", "string-problem", "missing-x0", "short-z0", "edge-out-of-range",
            "list-params", "long-final-x", "short-final-lam", "missing-final",
            "long-compute-end-x"])
    def test_one_error_line(self, tmp_path, capsys, edit):
        bad = edited_toy_trace(tmp_path, edit)
        capsys.readouterr()
        assert main(["analyze", str(bad), "--gamma", "2", "--m1", "2", "--m2", "1",
                     "--c", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("edit, line", [
        (_repeat_first("compute_start 1 "),
         "error: worker 1: compute_start at t=0.0 while computing"),
        (_move_compute_records(2, 3),
         "error: malformed compute_end event at t=1.0: worker 3 is not one of 2"),
        # each row is a scalar: the rows stack, but not into a matrix
        (_set_every_key("compute_end 2 ", "lam", 0.5),
         "error: compute_end records give a worker x or lam of differing shapes"),
        (_set_every_key("z_update ", "z", [0.5, 0.5]),
         "error: malformed z_update event at t=1.0: edge 0 of 1, z of shape (2,)"),
        (_set_final_key(2, "x", ["a"]),
         "error: trace holds a non-numeric final state: could not convert string to float: 'a'"),
        (_set_every_key("final_z ", "z", [1.0, 2.0]),
         "error: final z has shape (2,), the problem needs (1,)"),
        (_set_every_key("final_z ", "z", [math.nan]), "error: final z holds a non-finite value"),
        (_move_compute_records(2, 2**63),
         "error: trace holds a worker or local iteration beyond 64 bits"),
        (_set_meta_key("stop", {"tol": 0.0}), "error: trace metadata holds a malformed stop.tol"),
        (_set_meta_key("stop", {"tol": "fast"}),
         "error: trace metadata holds a malformed stop.tol"),
        (_set_meta_key("stop", [1e-3]), "error: trace metadata holds a malformed stop.tol"),
    ], ids=["start-while-computing", "worker-out-of-range", "scalar-lam", "long-z-blocks",
            "non-numeric-final", "wrong-shape-final-z", "non-finite-final-z",
            "worker-beyond-64-bits", "zero-stop-tol", "string-stop-tol", "list-stop"])
    def test_error_keeps_its_text(self, tmp_path, capsys, edit, line):
        bad = edited_toy_trace(tmp_path, edit)
        capsys.readouterr()
        for constants in ([], ["--gamma", "2", "--m1", "2", "--m2", "1", "--c", "1"]):
            assert main(["analyze", str(bad), *constants]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [line] and not captured.out

    @pytest.mark.parametrize("edit, default", [
        (_set_meta_key("stop", {"tol": 0.25}), 0.25),
        (_drop_meta_key("stop"), 1e-3),
    ], ids=["stop-tol", "no-stop"])
    def test_kkt_tolerance_defaults_to_the_runs(self, tmp_path, capsys, edit, default):
        # without --tol, the KKT check takes the trace's stop.tol, and 1e-3
        # when the metadata records no stop; --tol overrides either
        bad = edited_toy_trace(tmp_path, edit)
        for extra, tol in (([], default), (["--tol", "0.125"], 0.125)):
            capsys.readouterr()
            assert main(["analyze", str(bad), *extra]) == 0
            assert json.loads(capsys.readouterr().out)["kkt"]["tol"] == tol

    def test_unhashable_message_identity_matches_no_send(self, tmp_path, capsys):
        # a send whose edge is a list cannot be looked up: the receive that
        # names the send's edge then matches nothing
        bad = edited_toy_trace(tmp_path, _set_first_key("send 1 ", "edge", [0]))
        capsys.readouterr()
        assert main(["analyze", str(bad)]) == 0
        assert json.loads(capsys.readouterr().out)["wellformed"] == {
            "arrivals_after_sends": True, "events_time_ordered": True,
            "receives_match_sends": False}

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        bad = edited_toy_trace(tmp_path, lambda meta, events: (meta, [*events[:5], "\n",
                                                                     *events[5:], "\n"]))
        capsys.readouterr()
        assert main(["analyze", str(bad)]) == 0
        edited = capsys.readouterr().out
        assert main(["analyze", str(tmp_path / "out" / "trace.log")]) == 0
        assert capsys.readouterr().out == edited


def edited_toy_trace(tmp_path, edit) -> Path:
    """A run of TOY_CONFIG under ``tmp_path / "out"``, and its trace after
    ``edit(meta, event lines)`` written to ``tmp_path / "bad.log"``."""
    cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    header, *events = (tmp_path / "out" / "trace.log").read_text().splitlines(keepends=True)
    tag, meta_text = header.split(" ", 1)
    meta, events = edit(json.loads(meta_text), events)
    bad = tmp_path / "bad.log"
    bad.write_text(f"{tag} {json.dumps(meta)}\n" + "".join(events))
    return bad


def _config_not_utf8(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TOY_CONFIG.encode() + b"# caf\xe9\n")
    return ["run", str(cfg)]


def _case_is_a_directory(tmp_path):
    return ["run", str(write_config(tmp_path, f"problem = opf\ncase = {tmp_path}\n"
                                              f"partition = {CASES_DIR / 'chain3.part'}\n"))]


def _case_is_missing(tmp_path):
    return ["run", str(write_config(tmp_path, f"problem = opf\ncase = {tmp_path / 'none.case'}\n"
                                              f"partition = {CASES_DIR / 'chain3.part'}\n"))]


def _outdir_at(relative):
    def argv(tmp_path):
        (tmp_path / "afile").write_text("not a directory\n")
        return ["run", str(write_config(tmp_path, TOY_CONFIG)),
                "--set", f"outdir={tmp_path / relative}"]
    return argv


def _analyze_out_under_missing_directory(tmp_path):
    cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    return ["analyze", str(tmp_path / "out" / "trace.log"),
            "--out", str(tmp_path / "missing" / "report.json")]


@pytest.mark.parametrize("argv_for", [
    _config_not_utf8,
    _case_is_missing,
    _case_is_a_directory,
    _outdir_at("afile"),
    _outdir_at("afile/sub"),
    _analyze_out_under_missing_directory,
], ids=["config-not-utf8", "case-is-missing", "case-is-a-directory", "outdir-is-a-file",
        "outdir-under-a-file", "analyze-out-under-missing-directory"])
def test_io_failure_is_one_error_line(tmp_path, capsys, argv_for):
    """Unreadable inputs and unwritable outputs end in one ``error:`` line
    and exit code 1, never a traceback."""
    argv = argv_for(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not captured.out


OPF_FILES = ["--set", "problem=opf", "--set", "case={case}", "--set", "partition={part}"]


@pytest.mark.parametrize("argv, line", [
    (["run", "{cfg}", "--set", "rho"], "error: --set needs key=value, got 'rho'"),
    (["analyze", "{missing}"], "error: cannot read trace {missing}: "
                               "[Errno 2] No such file or directory: '{missing}'"),
    (["analyze", "{trace}", "--gamma", "1"], "error: constants need all of --gamma --m1 --m2 --c"),
    (["analyze", "{trace}", "--gamma", "nan", "--m1", "1", "--m2", "1", "--c", "1"],
     "error: gamma must be positive and finite"),
    (["bounds", "--gamma", "inf", "--m1", "1", "--m2", "1", "--c", "1", "--rho", "5"],
     "error: gamma must be positive and finite"),
    (["bounds", "--gamma", "1", "--m1", "1", "--m2", "1", "--c", "1", "--rho", "nan"],
     "error: --rho must be positive and finite, got nan"),
    (["run", "{cfg}", *OPF_FILES, "--set", "case={missing}"],
     "error: cannot read case {missing}: [Errno 2] No such file or directory: '{missing}'"),
    (["run", "{cfg}", *OPF_FILES, "--set", "case={dir}"],
     "error: cannot read case {dir}: [Errno 21] Is a directory: '{dir}'"),
    (["run", "{cfg}", *OPF_FILES, "--set", "partition={missing}"],
     "error: cannot read partition {missing}: [Errno 2] No such file or directory: '{missing}'"),
    (["run", "{cfg}", "--set", "outdir={cfg}"],
     "error: cannot write outdir {cfg}: [Errno 17] File exists: '{cfg}'"),
    (["run", "{cfg}", "--set", "outdir={cfg}/sub"],
     "error: cannot write outdir {cfg}/sub: [Errno 20] Not a directory: '{cfg}/sub'"),
], ids=["set-without-equals", "missing-trace", "partial-constants", "nan-constant",
        "infinite-bounds-constant", "nan-bounds-rho", "missing-case",
        "case-is-a-directory", "missing-partition", "outdir-is-a-file", "outdir-under-a-file"])
def test_failure_keeps_its_text(tmp_path, capsys, argv, line):
    cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    paths = {"cfg": cfg, "missing": tmp_path / "none.log", "trace": tmp_path / "out" / "trace.log",
             "dir": tmp_path, "case": CASES_DIR / "chain3.case",
             "part": CASES_DIR / "chain3.part"}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line.format(**paths)]
    assert not captured.out


@pytest.mark.parametrize("config, edit, line", [
    (" = 5", None, "error: empty key, line 1"),
    ("compute_delay = constant", None,
     "error: delay spec 'constant' needs kind:params, line 1"),
    ("rho = fast", None, "error: rho must be a number, got 'fast', line 1"),
    ("seed = 1.5", None, "error: seed must be an integer, got '1.5', line 1"),
    ("problem = quantum", None, "error: unknown problem kind 'quantum', line 1"),
    ("start = hot", None, "error: start must be flat or warm, got 'hot', line 1"),
    ("targets = 0, two", None, "error: targets must be numbers, got '0, two', line 1"),
    ("compute_delay.one = constant:1", None,
     "error: bad worker index in 'compute_delay.one', line 1"),
    ("link_delay.1 = constant:1", None,
     "error: bad edge in 'link_delay.1', expected k-l, line 1"),
    ("baseline = maybe", None, "error: baseline must be true or false, got 'maybe', line 1"),
    ("problem = toy_consensus\ntargets = 1", None,
     "error: toy_consensus needs at least two targets"),
    ("problem = opf", None, "error: problem = opf needs a case file"),
    ("lambda_min = 1\nlambda_max = 0", None, "error: lambda box is empty or not a number"),
    ("", ("case", "\n1 0.0", "\n1.5 0.0"), "error: bus id must be an integer, got 1.5, line 4"),
    ("", ("case", "COST", "BASEMVA 100\nCOST"), "error: base MVA declared more than once, line 13"),
    ("", ("case", "BASEMVA 100", "BASEMVA 0"), "error: base MVA must be positive"),
    ("", ("case", "GEN", "BRANCH\nGEN"), "error: duplicate section BRANCH, line 10"),
    ("", ("case", "COST  # a b c\n0.02 30.0 0.0\n0.04 25.0 0.0\n", ""),
     "error: missing section COST"),
    ("", ("case", "1 0.0  0.0  0.95 1.05 0 0\n2 60.0 15.0 0.95 1.05 0 0\n"
                  "3 0.0  0.0  0.95 1.05 0 0\n", ""), "error: case has no buses"),
    ("", ("case", "\n1 2 0.02", "\n1 1 0.02"), "error: branch 1-1: self-loop, line 8"),
    ("", ("case", "\n2 3 0.02 0.06", "\n2 3 0 0"), "error: branch 2-3: zero impedance, line 9"),
    ("", ("partition", "1: 1", "0: 1"), "error: region index must be >= 1, got 0, line 2"),
    ("beta_minus = -1", ("case", "", ""), "error: beta weights must be positive and finite"),
    ("seed = -1", None, "error: seed must be a non-negative integer"),
    ("max_local_iters = 0", None, "error: max_local_iters must be positive"),
    ("time_cap_ms = -5", None, "error: time_cap_ms must be positive"),
    ("problem = toy_consensus\ntargets = 0, 2\ncompute_delay.7 = constant:1", None,
     "error: compute_delay.7 names no worker of this problem (1..2)"),
    ("problem = toy_consensus\ntargets = 0, 2\nlink_delay.1-9 = constant:1", None,
     "error: link_delay.1-9 names no edge of this problem"),
    ("problem = nonconvex_toy\nbeta_minus = -1", None,
     "error: beta_minus does not apply to problem = nonconvex_toy, line 2"),
    ("targets = 0, 2", ("case", "", ""),
     "error: targets does not apply to problem = opf, line 1"),
], ids=["empty-key", "delay-without-colon", "rho-not-a-number", "seed-not-an-integer",
        "unknown-problem", "unknown-start", "targets-not-numbers", "bad-worker-override",
        "bad-link-override", "baseline-not-boolean", "one-target", "opf-without-case",
        "empty-lambda-box", "bus-id-not-an-integer", "second-basemva", "nonpositive-basemva",
        "duplicate-section", "missing-section", "no-buses", "self-loop", "zero-impedance",
        "region-below-one", "negative-beta", "negative-seed", "zero-iteration-cap",
        "negative-time-cap", "override-of-no-worker", "override-of-no-edge",
        "beta-under-a-toy", "targets-under-opf"])
def test_config_and_case_errors_keep_their_text(tmp_path, capsys, config, edit, line):
    # a bad config key, case row or partition row ends run with its located
    # error line; edit = (file, old, new) edits chain3's case or partition,
    # and ("case", "", "") runs chain3 as shipped
    if edit is not None:
        files = {}
        for label in ("case", "partition"):
            text = (CASES_DIR / f"chain3.{label[:4]}").read_text()
            files[label] = tmp_path / f"chain3.{label[:4]}"
            files[label].write_text(text.replace(*edit[1:], 1) if label == edit[0] else text)
        config += f"\nproblem = opf\ncase = {files['case']}\npartition = {files['partition']}"
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"{config}\noutdir = {out}\n")
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert not captured.out and not out.exists()


def test_bad_log_level_is_one_error_line():
    # in a fresh interpreter: under pytest the root logger already has a
    # handler, and logging.basicConfig would not look at the level
    env = dict(os.environ, ASYNCADMM_LOG="chatty",
               PYTHONPATH=str(Path(asyncadmm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "asyncadmm.cli", "bounds", "--gamma", "1", "--m1", "1",
         "--m2", "1", "--c", "1", "--rho", "5"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: Unknown level: 'CHATTY'"]
    assert not proc.stdout


@pytest.mark.parametrize("config", ["toy_sync", "ring5_async", "nine_sync"])
def test_analyze_reproduces_run_report(tmp_path, config):
    # diagnostics.json adds the wall time and the baseline to the report
    # that analyze recomputes from trace.log alone
    out = tmp_path / config
    cfg = CASES_DIR / f"{config}.cfg"
    assert main(["run", str(cfg), "--set", f"outdir={out}"]) == 0
    tol = build_run_config(parse_config_text(cfg.read_text())).stop.tol
    assert main(["analyze", str(out / "trace.log"), "--tol", repr(tol),
                 "--out", str(out / "analyze.json")]) == 0
    run_report = json.loads((out / "diagnostics.json").read_text())
    for key in ("wall_time_s", "baseline"):
        run_report.pop(key, None)
    assert json.loads((out / "analyze.json").read_text()) == run_report


@pytest.mark.parametrize("config", PINNED_CONFIGS)
def test_analyze_without_tol_reproduces_run_report(pinned_run, tmp_path, config):
    # the KKT tolerance is the run's stop.tol, read from the trace: no option
    # repeats it, whatever the config's tol
    out = pinned_run(config)
    report = tmp_path / "analyze.json"
    assert main(["analyze", str(out / "trace.log"), "--out", str(report)]) == 0
    run_report = json.loads((out / "diagnostics.json").read_text())
    del run_report["wall_time_s"]
    assert "baseline" not in run_report
    assert json.loads(report.read_text()) == run_report


def test_nan_residual_fails_kkt(tmp_path, capsys):
    # a NaN multiplier makes NaN residuals, which compare false against
    # anything: the verdict must still fail although every finite residual
    # left in its family maximum is within the tolerance
    out = tmp_path / "out"
    assert main(["run", str(CASES_DIR / "toy_sync.cfg"), "--set", f"outdir={out}"]) == 0
    trace = read_events(out / "trace.log")
    problem, _ = problem_from_descriptor(trace.meta["problem"])
    x_all = [np.asarray(e.payload["x"]) for e in trace.events if e.kind == "final"]
    lam_all = [np.asarray(e.payload["lam"]) for e in trace.events if e.kind == "final"]
    z = np.asarray(next(e.payload["z"] for e in trace.events if e.kind == "final_z"))
    lam_all[1] = np.array([math.nan])
    kkt = analysis.check_kkt(problem, x_all, z, lam_all, tol=1e-3)
    assert [math.isnan(v) for v in kkt["multiplier_consistency"]] == [True]
    assert [math.isnan(v) for v in kkt["stationarity"]] == [False, True]
    assert kkt["stationarity"][0] <= kkt["tol"] and max(kkt["primal"]) <= kkt["tol"]
    assert kkt["passed"] is False
    # a trace whose final state holds the NaN cannot be reported in strict
    # JSON: analyze ends with one error line
    header, *events = (out / "trace.log").read_text().splitlines(keepends=True)
    _, events = _set_final_key(2, "lam", [math.nan])(None, events)
    edited = tmp_path / "nan.log"
    edited.write_text(header + "".join(events))
    capsys.readouterr()
    assert main(["analyze", str(edited), "--out", str(tmp_path / "analyze.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "analyze.json").exists()


# sha256 prefixes of diagnostics.json less `wall_time_s`, rendered with
# json.dumps(indent=2, sort_keys=True), from the same runs
DIAGNOSTICS_PREFIXES = {
    "toy_sync": "e8f002ef91f43f8b",
    "ring5_async": "b48d10d8e5716b01",
    "nine_sync": "63bcb2756ab44d35",
    "toy_chain16": "cbe2c798caa5ed2e",
    "nine_sync_warm": "8efaef4a115c9057",
    "nonconvex": "b4e3433f1dbb7ec1",
    "toy_chain16_overtaking": "3580d3acaea04e89",
}


@pytest.mark.parametrize("config, prefix", [
    ("toy_sync", "120e1b2a8e395db5"),
    ("ring5_async", "0e5ca57bd9260967"),
    ("nine_sync", "108b091d9aad04d5"),
    ("toy_chain16", "4826c08173ccaa30"),
    # the one pinned run from a power-flow warm start
    ("nine_sync_warm", "94930b90ee8fba87"),
    ("nonconvex", "7b8d878ad32bb10c"),
    # the one pinned run that drops messages overtaken on their edge
    ("toy_chain16_overtaking", "5bbd3cf149b7004f"),
])
def test_shipped_trace_hashes(pinned_run, config, prefix):
    # a change that claims to preserve behaviour keeps these traces byte for
    # byte; the prefixes were recorded with Python 3.11.7 and numpy 2.4.6 on
    # x86-64 Linux, and another numpy or BLAS may round differently
    out = pinned_run(config)
    assert_trace_prefix(out, config, prefix)
    # so is the report, once the wall time (the one field that differs
    # between two runs of the same config) is removed
    got = report_prefix(out)
    pinned = DIAGNOSTICS_PREFIXES[config]
    assert got == pinned, f"{config} diagnostics sha256 prefix {got}, pinned {pinned}"


def assert_trace_prefix(out, name, prefix):
    got = hashlib.sha256((out / "trace.log").read_bytes()).hexdigest()[:16]
    assert got == prefix, (
        f"{name} trace sha256 prefix {got}, pinned {prefix} (pinned under Python "
        f"3.11.7 / numpy 2.4.6; this is Python {platform.python_version()} / "
        f"numpy {np.__version__})"
    )


def report_prefix(out) -> str:
    """sha256 prefix of ``out``'s diagnostics.json less ``wall_time_s``."""
    report = json.loads((out / "diagnostics.json").read_text())
    report.pop("wall_time_s")
    rendered = json.dumps(report, indent=2, sort_keys=True).encode()
    return hashlib.sha256(rendered).hexdigest()[:16]


@pytest.mark.parametrize("seed, prefix", [
    (8, "02bbe81bbaa6915c"), (9, "d88608cec6c3f8b6"), (10, "b630c1fea66d2d8a")])
def test_benchmark_grid_trace_hashes(tmp_path, monkeypatch, seed, prefix):
    # the benchmark's grid16-sync grids, generated by bench/grids.py (imported
    # without writing bytecode next to the benchmark), run as the benchmark
    # runs them, less the baseline; larger meshed regions than any shipped case
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import grids

    case, part = grids.write_grid(seed, tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(BENCH_DIR / "grid16_sync.cfg"), "--set", f"case={case}",
                 "--set", f"partition={part}", "--set", f"seed={seed}",
                 "--set", "baseline=false", "--set", f"outdir={out}"]) == 0
    assert_trace_prefix(out, f"grid{seed}", prefix)


@pytest.mark.parametrize("config, prefix", [
    ("ring5_async", "2449a7c3b6a3c767"), ("nine_sync", "a581782de36df3da")])
def test_baseline_report_hashes(tmp_path, config, prefix):
    # the shipped OPF configs as shipped, with their centralized baseline
    # solve, whose objective the report's gap is measured against
    out = tmp_path / config
    assert main(["run", str(CASES_DIR / f"{config}.cfg"), "--set", f"outdir={out}"]) == 0
    got = report_prefix(out)
    assert got == prefix, f"{config} diagnostics sha256 prefix {got}, pinned {prefix}"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("config", PINNED_CONFIGS)
def test_pinned_outputs_are_strict_json(pinned_run, config):
    # NaN and Infinity are Python's JSON extensions, not JSON: every report
    # of a pinned run, and analyze's with constants, must parse without them
    out = pinned_run(config)
    assert main(["analyze", str(out / "trace.log"), "--gamma", "2", "--m1", "2", "--m2", "1",
                 "--c", "1", "--out", str(out / "analyze.json")]) == 0
    for name in ("diagnostics.json", "analyze.json"):
        json.loads((out / name).read_text(), parse_constant=_no_constant)


def test_penalty_curvature_built_once_per_region(tmp_path, monkeypatch):
    # rho A^T A, with the solver's Newton model for it, is fixed per region
    # and run: the 3,166 x-updates of the 16-region toy share 16 models, one
    # per worker (the list keeps every one alive, so distinct ones have
    # distinct ids)
    seen = []
    solve = kernel.solve_local
    monkeypatch.setattr(kernel, "solve_local",
                        lambda region, extra, *a, **kw: seen.append((region, kw["model"]))
                        or solve(region, extra, *a, **kw))
    cfg = config_path("toy_chain16", tmp_path)
    assert main(["run", str(cfg), "--set", f"outdir={tmp_path / 'out'}",
                 "--set", "baseline=false"]) == 0
    assert len(seen) == 3166
    assert len({id(model) for _, model in seen}) == 16
    assert len({(id(region), id(model)) for region, model in seen}) == 16


def test_capped_run_timing_is_the_report_section(tmp_path):
    # capped at 50 cycles with an unreachable tolerance, the 16 workers reach
    # the cap at different times; a worker's idle time from its cap to the
    # end of the run counts as waiting
    cfg = config_path("toy_chain16", tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--set", f"outdir={out}", "--set", "max_local_iters=50",
                 "--set", "tol=1e-12"]) == 2
    report = json.loads((out / "diagnostics.json").read_text())
    timing = report["timing"]
    assert len(timing) == 16
    for t in timing.values():
        assert t["compute_ms"] + t["wait_ms"] == pytest.approx(report["end_time_ms"], rel=1e-12)
