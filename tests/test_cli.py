import hashlib
import json
import math
import platform

import numpy as np
import pytest

from asyncadmm import analysis, caseio, kernel, opf
from asyncadmm.cli import (
    ConfigError,
    build_run_config,
    main,
    parse_config_text,
    toy_centralized_optimum,
)
from asyncadmm.localsolver import SolveError
from asyncadmm.problem import make_nonconvex_toy, make_toy_consensus

from conftest import CASES_DIR, PINNED_CONFIGS, config_path
from oracles import nonconvex_toy_minimum, read_results

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


class TestConfigParsing:
    def test_key_value_grammar(self):
        entries = parse_config_text("a = 1\n# comment\nb= two # trailing\n")
        assert entries["a"] == ("1", 1)
        assert entries["b"] == ("two", 3)

    def test_missing_equals_located(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("rho 5\n")
        assert err.value.line == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_run_config(parse_config_text("rho = 1\nwibble = 2\n"))

    def test_mode_validated(self):
        with pytest.raises(ConfigError, match="sync or async"):
            build_run_config(parse_config_text("mode = turbo\n"))

    def test_sync_mode_forces_lockstep_threshold(self):
        config = build_run_config(parse_config_text("mode = sync\np = 0.1\n"))
        assert config.params.p == 1.0

    def test_delay_overrides(self):
        config = build_run_config(parse_config_text(
            "compute_delay.2 = lognormal:0.0,0.5\nlink_delay.1-3 = constant:4.0\n"
        ))
        assert config.delays.compute_spec(2).kind == "lognormal"
        assert config.delays.link_spec(3, 1).params == (4.0,)


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
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing) == {"1", "2"}

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


def _set_final_key(worker, key, value):
    def edit(meta, events):
        out = []
        for line in events:
            if line.startswith(f"final {worker} "):
                *head, payload = line.split(" ", 5)
                payload = json.loads(payload)
                payload[key] = value
                line = " ".join(head) + " " + json.dumps(payload) + "\n"
            out.append(line)
        return meta, out
    return edit


def _set_first_compute_end_key(worker, key, value):
    def edit(meta, events):
        i = next(i for i, line in enumerate(events) if line.startswith(f"compute_end {worker} "))
        *head, payload = events[i].split(" ", 5)
        payload = json.loads(payload)
        payload[key] = value
        return meta, [*events[:i], " ".join(head) + " " + json.dumps(payload) + "\n",
                      *events[i + 1:]]
    return edit


def _drop_final_record(worker):
    def edit(meta, events):
        return meta, [line for line in events if not line.startswith(f"final {worker} ")]
    return edit


def _edge_out_of_range(meta, events):
    return meta, [line.replace('"edge": 0,', '"edge": 7,') for line in events]


class TestMalformedTraceAnalysis:
    """A trace that parses but cannot be analysed ends ``analyze`` with
    exit code 1 and one ``error:`` line, never a traceback."""

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
        _set_first_compute_end_key(2, "x", [1.0, 2.0]),  # x rows of differing lengths
    ], ids=["list-metadata", "string-problem", "missing-x0", "short-z0", "edge-out-of-range",
            "list-params", "long-final-x", "short-final-lam", "missing-final",
            "long-compute-end-x"])
    def test_one_error_line(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path, TOY_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 0
        header, *events = (tmp_path / "out" / "trace.log").read_text().splitlines(keepends=True)
        tag, meta_text = header.split(" ", 1)
        meta, events = edit(json.loads(meta_text), events)
        bad = tmp_path / "bad.log"
        bad.write_text(f"{tag} {json.dumps(meta)}\n" + "".join(events))
        capsys.readouterr()
        assert main(["analyze", str(bad), "--gamma", "2", "--m1", "2", "--m2", "1",
                     "--c", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("config", ["toy_sync", "ring5_async", "nine_sync"])
def test_analyze_reproduces_run_report(tmp_path, config):
    # diagnostics.json adds the wall time and the baseline to the report
    # that analyze recomputes from trace.log alone
    out = tmp_path / config
    cfg = CASES_DIR / f"{config}.cfg"
    assert main(["run", str(cfg), "--set", f"outdir={out}"]) == 0
    tol = build_run_config(parse_config_text(cfg.read_text())).tol
    assert main(["analyze", str(out / "trace.log"), "--tol", repr(tol),
                 "--out", str(out / "analyze.json")]) == 0
    run_report = json.loads((out / "diagnostics.json").read_text())
    for key in ("wall_time_s", "baseline"):
        run_report.pop(key, None)
    assert json.loads((out / "analyze.json").read_text()) == run_report


def test_nan_residual_fails_kkt(tmp_path):
    # a NaN multiplier makes NaN residuals, which compare false against
    # anything: the verdict must still fail although every finite residual
    # left in its family maximum is within the tolerance
    out = tmp_path / "out"
    assert main(["run", str(CASES_DIR / "toy_sync.cfg"), "--set", f"outdir={out}"]) == 0
    header, *events = (out / "trace.log").read_text().splitlines(keepends=True)
    _, events = _set_final_key(2, "lam", [math.nan])(None, events)
    edited = tmp_path / "nan.log"
    edited.write_text(header + "".join(events))
    assert main(["analyze", str(edited), "--out", str(tmp_path / "analyze.json")]) == 0
    kkt = json.loads((tmp_path / "analyze.json").read_text())["kkt"]
    assert [math.isnan(v) for v in kkt["multiplier_consistency"]] == [True]
    assert [math.isnan(v) for v in kkt["stationarity"]] == [False, True]
    assert kkt["stationarity"][0] <= kkt["tol"] and max(kkt["primal"]) <= kkt["tol"]
    assert kkt["passed"] is False


# sha256 prefixes of diagnostics.json less `wall_time_s`, rendered with
# json.dumps(indent=2, sort_keys=True), from the same runs
DIAGNOSTICS_PREFIXES = {
    "toy_sync": "e8f002ef91f43f8b",
    "ring5_async": "b48d10d8e5716b01",
    "nine_sync": "63bcb2756ab44d35",
    "toy_chain16": "cbe2c798caa5ed2e",
    "nine_sync_warm": "8efaef4a115c9057",
    "nonconvex": "b4e3433f1dbb7ec1",
}


@pytest.mark.parametrize("config, prefix", [
    ("toy_sync", "120e1b2a8e395db5"),
    ("ring5_async", "0e5ca57bd9260967"),
    ("nine_sync", "108b091d9aad04d5"),
    ("toy_chain16", "4826c08173ccaa30"),
    # the one pinned run from a power-flow warm start
    ("nine_sync_warm", "94930b90ee8fba87"),
    ("nonconvex", "7b8d878ad32bb10c"),
])
def test_shipped_trace_hashes(tmp_path, config, prefix):
    # a change that claims to preserve behaviour keeps these traces byte for
    # byte; the prefixes were recorded with Python 3.11.7 and numpy 2.4.6 on
    # x86-64 Linux, and another numpy or BLAS may round differently
    extra = []
    if config == "nine_sync_warm":
        cfg = CASES_DIR / "nine_sync.cfg"
        extra = ["--set", "start=warm"]
    else:
        cfg = config_path(config, tmp_path)
    out = tmp_path / config
    assert main(["run", str(cfg), "--set", f"outdir={out}", "--set", "baseline=false",
                 *extra]) == 0
    got = hashlib.sha256((out / "trace.log").read_bytes()).hexdigest()[:16]
    assert got == prefix, (
        f"{config} trace sha256 prefix {got}, pinned {prefix} (pinned under Python "
        f"3.11.7 / numpy 2.4.6; this is Python {platform.python_version()} / "
        f"numpy {np.__version__})"
    )
    # so is the report, once the wall time (the one field that differs
    # between two runs of the same config) is removed
    report = json.loads((out / "diagnostics.json").read_text())
    report.pop("wall_time_s")
    rendered = json.dumps(report, indent=2, sort_keys=True).encode()
    got = hashlib.sha256(rendered).hexdigest()[:16]
    pinned = DIAGNOSTICS_PREFIXES[config]
    assert got == pinned, f"{config} diagnostics sha256 prefix {got}, pinned {pinned}"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("config", PINNED_CONFIGS)
def test_pinned_outputs_are_strict_json(pinned_run, config):
    # NaN and Infinity are Python's JSON extensions, not JSON: every report
    # of a pinned run, and analyze's with constants, must parse without them
    out = pinned_run(config)
    cfg = CASES_DIR / "nine_sync.cfg" if config == "nine_sync_warm" else config_path(config, out)
    tol = build_run_config(parse_config_text(cfg.read_text())).tol
    assert main(["analyze", str(out / "trace.log"), "--gamma", "2", "--m1", "2", "--m2", "1",
                 "--c", "1", "--tol", repr(tol), "--out", str(out / "analyze.json")]) == 0
    for name in ("diagnostics.json", "timing.json", "analyze.json"):
        json.loads((out / name).read_text(), parse_constant=_no_constant)


def test_penalty_curvature_built_once_per_region(tmp_path, monkeypatch):
    # rho A^T A and the solver's Newton model are fixed per region and rho:
    # the 3,166 x-updates of the 16-region toy share 16 curvature pairs and
    # 16 models (the list keeps every one alive, so distinct ones have
    # distinct ids)
    seen = []
    solve = kernel.solve_local
    monkeypatch.setattr(kernel, "solve_local",
                        lambda region, extra, *a, **kw: seen.append((extra.curvature, kw["model"]))
                        or solve(region, extra, *a, **kw))
    cfg = config_path("toy_chain16", tmp_path)
    assert main(["run", str(cfg), "--set", f"outdir={tmp_path / 'out'}",
                 "--set", "baseline=false"]) == 0
    assert len(seen) == 3166
    assert len({id(pair) for pair, _ in seen}) == len({id(model) for _, model in seen}) == 16


def test_capped_run_timing_is_the_report_section(tmp_path):
    # capped at 50 cycles with an unreachable tolerance, the 16 workers reach
    # the cap at different times; a worker's idle time from its cap to the
    # end of the run counts as waiting, in timing.json as in the report
    cfg = config_path("toy_chain16", tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--set", f"outdir={out}", "--set", "max_local_iters=50",
                 "--set", "tol=1e-12"]) == 2
    report = json.loads((out / "diagnostics.json").read_text())
    timing = json.loads((out / "timing.json").read_text())
    assert timing == report["timing"] and len(timing) == 16
    for t in timing.values():
        assert t["compute_ms"] + t["wait_ms"] == pytest.approx(report["end_time_ms"], rel=1e-12)
