import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import levy_transience
from levy_transience.cli import main

BM3 = {"family": "brownian_drift", "d": 3, "parameters": {"c": 1.0}}
STABLE_05_D1 = {"family": "isotropic_stable", "d": 1,
                "parameters": {"alpha": 0.5, "gamma": 1.0}}
STABLE_JUMP_A = {"family": "radial_jump", "d": 1,
                 "parameters": {"density": {"kind": "stable", "alpha": 0.5}}}
STABLE_JUMP_B = {"family": "radial_jump", "d": 1,
                 "parameters": {"density": {"kind": "stable", "alpha": 0.8}}}
INTERVAL_SL = {"family": "stable_like", "d": 3,
               "parameters": {"alpha": {"lo": 1.2, "hi": 1.5}, "gamma": 1.0}}


@pytest.fixture
def runner():
    return CliRunner()


def test_classify_weakly_transient(runner, model_file, tmp_path):
    path = model_file(BM3, "bm3.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa", "0.6", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "weakly_transient" in result.output
    report = json.loads((out / "report.json").read_text())
    assert report["results"][0]["verdict"] == "weakly_transient"
    assert report["results"][0]["rules"]
    lines = (out / "plotdata.csv").read_text().splitlines()
    assert lines[0] == "series,x,y,extra"
    assert any(line.startswith("verdict,") for line in lines)


def test_classify_inconclusive_exit_code(runner, model_file, tmp_path):
    path = model_file(INTERVAL_SL, "sl.json")
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa", "1.2",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


def test_classify_kappa_grid(runner, model_file, tmp_path):
    path = model_file(BM3, "bm3.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa-grid", "0.2,0.6,1.5",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    verdicts = [r["verdict"] for r in report["results"]]
    assert verdicts == ["strongly_transient", "weakly_transient",
                        "weakly_transient"]
    rows = [l for l in (out / "plotdata.csv").read_text().splitlines()
            if l.startswith("verdict,")]
    assert len(rows) == 3


def test_kappa_star(runner, model_file, tmp_path):
    path = model_file(STABLE_05_D1, "stable.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["kappa-star", "--model", path,
                                  "--tol", "0.01", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert abs(report["kappa_star"] - 1.0) <= 0.02


def test_kappa_star_of_a_tail_index_near_a_case_boundary(runner, model_file,
                                                         tmp_path):
    # tail index -1.99 lies within 0.02 of -2d, but off it
    path = model_file({"family": "radial_jump", "d": 1, "parameters": {
        "density": {"kind": "stable", "alpha": 0.99}}}, "stable.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["kappa-star", "--model", path,
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert abs(report["kappa_star"] - (1.0 / 0.99 - 1.0)) <= 0.02


def test_pruitt(runner, model_file, tmp_path):
    path = model_file(STABLE_05_D1, "stable.json")
    result = runner.invoke(main, ["pruitt", "--model", path,
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert "lower index = 0.5" in result.output


def test_pruitt_prints_the_germ_exponent_of_a_log_tail(runner, model_file,
                                                       tmp_path):
    # n(u) = u^-1.5 (ln u)^-3 in d = 1: the germ rho^0.5 (ln 1/rho)^-3 has
    # exponent 0.5, which no slope over a finite ladder reads
    path = model_file({"family": "radial_jump", "d": 1, "parameters": {
        "density": {"kind": "power_log", "exponent": -1.5,
                    "log_exponent": -3.0}}})
    result = runner.invoke(main, ["pruitt", "--model", path,
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert "lower index = 0.5000, upper index = 0.5000" in result.output


def test_tails_command(runner, model_file, tmp_path):
    path = model_file(STABLE_JUMP_A, "jump.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["tails", "--model", path, "--kappa", "2.0",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["weak"]["refined_state"] == "diverges"


def test_tails_reports_each_split_verdict_that_cannot_be_formed(
        runner, model_file, tmp_path):
    # at gamma 1e-318 in d = 5 the true tail mass at the far end of the
    # ladder lies below the smallest subnormal, so it reads 0 there: only
    # the tail-mass split verdict is not applicable, and the decided T1 and
    # moment verdicts are still reported
    path = model_file({"family": "isotropic_stable", "d": 5, "parameters": {
        "alpha": 1.0, "gamma": 1e-318}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, ["tails", "--model", path, "--kappa",
                                      "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["weak"]["refined_state"] == "converges"
    assert report["strong"]["refined_state"] == "converges"
    split = report["split"]
    assert split["strong_tail_mass"] == {
        "not_applicable": "tail mass vanishes on the ladder"}
    for name in ("weak_split", "strong_split", "strong_second_moment"):
        assert split[name]["refined_state"] == "converges", name
    assert split["fired"] == ["split-strong", "moment-strong"]


def test_compare_transfer_pair(runner, model_file, tmp_path):
    a = model_file(STABLE_JUMP_A, "a.json")
    b = model_file(STABLE_JUMP_B, "b.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["compare", "--model", a, "--model", b,
                                  "--kappa-grid", "3.0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["comparison"]["domination_ok"] is True
    assert report["verdicts"]["a"] == ["weakly_transient"]


def test_compare_needs_two_models(runner, model_file, tmp_path):
    a = model_file(STABLE_JUMP_A, "a.json")
    result = runner.invoke(main, ["compare", "--model", a,
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1


def test_simulate_deterministic_csv(runner, model_file, tmp_path):
    path = model_file(BM3, "bm3.json")
    args = ["simulate", "--model", path, "--kappa", "1.0", "--horizon", "10",
            "--paths", "2000", "--seed", "77"]
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
    assert (out1 / "occupation.csv").read_bytes() == \
        (out2 / "occupation.csv").read_bytes()
    assert (out1 / "plotdata.csv").read_bytes() == \
        (out2 / "plotdata.csv").read_bytes()
    header = (out1 / "occupation.csv").read_text().splitlines()[0]
    assert header == "horizon,S_hat,stderr,growth_exp,verdict"


def test_simulate_euler_trace_dump(runner, model_file, tmp_path):
    path = model_file(STABLE_05_D1, "stable.json")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "simulate", "--model", path, "--kappa", "1.0", "--horizon", "2",
        "--paths", "50", "--step", "0.05", "--seed", "5",
        "--mode", "euler_path", "--trace-paths", "3", "--out", str(out)])
    assert result.exit_code in (0, 2), result.output
    lines = (out / "traces.csv").read_text().splitlines()
    assert lines[0] == "path,t,x1"
    assert len(lines) == 1 + 3 * 40


@pytest.mark.parametrize("args, message", [
    (["--mode", "euler_path", "--trace-paths", "-1"],
     "error: --trace-paths must be a count >= 0, got -1"),
    (["--trace-paths", "3"], "error: --trace-paths needs --mode euler_path"),
    (["--mode", "exact_marginal", "--trace-paths", "3"],
     "error: --trace-paths needs --mode euler_path"),
])
def test_simulate_rejects_trace_paths_it_cannot_dump(runner, model_file,
                                                     tmp_path, args, message):
    path = model_file(STABLE_05_D1, "stable.json")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "simulate", "--model", path, "--kappa", "1.0", "--horizon", "2",
        "--paths", "50", "--step", "0.05", "--seed", "5", *args,
        "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.stderr == message + "\n"
    assert not (out / "traces.csv").exists()


@pytest.mark.parametrize("mode", ["exact_marginal", "euler_path"])
def test_simulate_accepts_zero_trace_paths_in_either_mode(runner, model_file,
                                                          tmp_path, mode):
    # 0 is the default: it asks for no dump, so no mode rejects it
    path = model_file(STABLE_05_D1, "stable.json")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "simulate", "--model", path, "--kappa", "1.0", "--horizon", "2",
        "--paths", "50", "--step", "0.05", "--seed", "5", "--mode", mode,
        "--trace-paths", "0", "--out", str(out)])
    assert result.exit_code in (0, 2), result.output
    assert (out / "occupation.csv").exists()
    assert not (out / "traces.csv").exists()


@pytest.mark.parametrize("mode", ["exact_marginal", "euler_path"])
def test_simulate_singular_psd_diffusion_matrix(runner, model_file, tmp_path,
                                                mode):
    path = model_file({"family": "brownian_drift", "d": 2,
                       "parameters": {"C": [[1, 1], [1, 1]]}}, "bm.json")
    result = runner.invoke(main, [
        "simulate", "--model", path, "--kappa", "0.5", "--horizon", "2",
        "--paths", "200", "--step", "0.02", "--seed", "5", "--mode", mode,
        "--out", str(tmp_path / "o")])
    assert result.exit_code in (0, 2), result.output


def test_classify_dimension_check(runner, model_file, tmp_path):
    path = model_file(BM3, "bm3.json")
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa", "0.6", "--d", "2",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "dimension" in result.output


def test_validate_sampler(runner, model_file, tmp_path):
    path = model_file(STABLE_05_D1, "stable.json")
    result = runner.invoke(main, ["validate-sampler", "--model", path,
                                  "--paths", "20000", "--seed", "7",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output


def test_bad_model_file_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    result = runner.invoke(main, ["classify", "--model", str(bad),
                                  "--kappa", "1.0",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "line" in result.output


def test_invariant_violation_exit_code(runner, model_file, tmp_path):
    cfg = {"family": "isotropic_stable", "d": 1,
           "parameters": {"alpha": 2.5, "gamma": 1.0}}
    path = model_file(cfg, "bad_alpha.json")
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa", "1.0",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "(0,2)" in result.output


def test_report_json_round_trip(runner, model_file, tmp_path):
    path = model_file(BM3, "bm3.json")
    out = tmp_path / "out"
    runner.invoke(main, ["classify", "--model", path, "--kappa", "0.6",
                         "--out", str(out)])
    text = (out / "report.json").read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize("cfg, field", [
    ({"family": "isotropic_stable", "d": 3, "parameters": {"gamma": 1}},
     "parameters.alpha"),
    ({"family": "isotropic_stable", "d": 2.5,
      "parameters": {"alpha": 1.0}}, "'d'"),
    ({"family": "isotropic_stable", "d": 3,
      "parameters": {"alpha": "one"}}, "parameters.alpha"),
    ({"family": "stable_like", "d": 2,
      "parameters": {"alpha": {"lo": 0.5}}}, "parameters.alpha"),
    ({"family": "stable_like", "d": 2,
      "parameters": {"alpha": 1.0, "beta": [1.0]}}, "parameters.beta"),
    ({"family": "radial_jump", "d": 2, "parameters": {"density": {
        "kind": "table", "u": [1, 10], "n": ["a", 1]}}},
     "parameters.density.n"),
    # a field the loader does not read is named, not ignored, at any level
    ({"family": "brownian_drift", "d": 2,
      "parameters": {"c": 1.0}, "state_grid": {"box": [0]}}, "'state_grid'"),
    ({"family": "stable_like", "d": 2,
      "parameters": {"alpha": 1.2, "gama": 2.0}}, "'parameters.gama'"),
    ({"family": "radial_jump", "d": 2, "parameters": {"density": {
        "kind": "stable", "alpha": 1.2, "u0": 1.0}}},
     "'parameters.density.u0'"),
    # an assumption of the wrong type once reached sector_check
    ({"family": "isotropic_stable", "d": 3, "parameters": {"alpha": 1.0},
      "assumptions": {"sector_constant": "0.5"}},
     "'assumptions.sector_constant'"),
    ({"family": "finite_jump", "d": 2, "parameters": {"alpha": [0.5, 1.5]},
      "envelope_mode": "grid_sampled"}, "'envelope_mode'"),
    ({"family": "brownian_drift", "d": 2, "parameters": {"c": 1.0},
      "stategrid": {"box": [-1, 1]}}, "'stategrid'"),
])
def test_malformed_model_file_names_the_field(runner, model_file, tmp_path,
                                               cfg, field):
    path = model_file(cfg, "bad.json")
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa", "1.0",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:") and field in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("gamma, kappa, verdict", [
    (1.0, "200", "weakly_transient"), (1e-200, "1", "strongly_transient")])
def test_classify_overflowing_integrands_exit_0(runner, model_file, tmp_path,
                                                gamma, kappa, verdict):
    cfg = {"family": "isotropic_stable", "d": 3,
           "parameters": {"alpha": 1.0, "gamma": gamma}}
    path = model_file(cfg, "stable3.json")
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa", kappa,
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert f"kappa={kappa}: {verdict}" in result.output


def test_classify_overflowing_integrands_print_no_warning(model_file,
                                                       tmp_path):
    # the kappa=200 integrands overflow in linear space; the log-space tests
    # decide without a note, and numpy must not print RuntimeWarnings on the
    # way (a fresh process, so the test runner's warning capture cannot hide
    # them)
    cfg = {"family": "isotropic_stable", "d": 3,
           "parameters": {"alpha": 1.0}}
    src = str(Path(levy_transience.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "levy_transience.cli", "classify", "--model",
         model_file(cfg, "stable3.json"), "--kappa", "200",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert "kappa=200: weakly_transient" in result.stdout
    assert "RuntimeWarning" not in result.stderr
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    result0 = report["results"][0]
    assert result0["notes"] == []
    assert {"integral", "tail"} <= {
        rule["method"] for rule in result0["rules"]}


@pytest.mark.parametrize("command, cfg", [
    (["classify", "--kappa", "0.6"], STABLE_JUMP_A),
    (["kappa-star"], INTERVAL_SL)])
def test_analytic_commands_leave_numpy_polynomial_unimported(model_file,
                                                            tmp_path, command,
                                                            cfg):
    # both run Gauss-Legendre blocks, whose nodes are literals; a fresh
    # process, so nothing else has imported numpy.polynomial yet
    src = str(Path(levy_transience.__file__).resolve().parents[1])
    args = [*command, "--model", model_file(cfg), "--out", str(tmp_path / "o")]
    code = ("import sys\n"
            "from levy_transience.cli import main\n"
            f"main({args!r}, standalone_mode=False)\n"
            "print('numpy.polynomial' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_non_finite_kappa_exit_code(runner, model_file, tmp_path, kappa):
    path = model_file(BM3, "bm3.json")
    result = runner.invoke(main, ["classify", "--model", path,
                                  "--kappa", kappa,
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "error: kappa must be finite" in result.stderr


@pytest.mark.parametrize("args, field", [
    (["simulate", "--horizon", "nan"], "horizon"),
    (["simulate", "--horizon", "inf"], "horizon"),
    (["simulate", "--mode", "euler_path", "--step", "nan"], "step"),
    (["simulate", "--r", "nan"], "radius"),
    (["simulate", "--r", "inf"], "radius"),
    (["validate-sampler", "--t", "nan"], "t"),
])
def test_non_finite_simulation_inputs_exit_1(runner, model_file, tmp_path,
                                            args, field):
    path = model_file(STABLE_05_D1, "stable.json")
    kappa = ["--kappa", "1.0"] if args[0] == "simulate" else []
    result = runner.invoke(main, args + kappa + [
        "--model", path, "--paths", "10", "--out", str(tmp_path / "o")])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: {field} must be finite")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args, field", [
    *((["classify", "--kappa-grid", grid], "--kappa-grid")
      for grid in ("0.5:2:x", "a,b", "1:2", "0.5:2:0", ",")),
    (["compare", "--kappa-grid", "0.5:2:x"], "--kappa-grid"),
    *((["kappa-star", "--tol", tol], "tol")
      for tol in ("0", "-1", "nan", "inf")),
    (["classify", "--kappa", "1", "--r", "nan"], "radius"),
    (["classify", "--kappa", "1", "--r", "inf"], "radius"),
    (["kappa-star", "--r", "nan"], "radius"),
    (["tails", "--kappa", "1", "--r", "nan"], "radius"),
    (["tails", "--kappa", "1", "--r", "inf"], "radius"),
    (["compare", "--u0", "nan"], "u0"),
])
def test_bad_analytic_options_exit_1(runner, model_file, tmp_path, args,
                                     field):
    if args[0] in ("tails", "compare"):
        models = ["--model", model_file(STABLE_JUMP_A, "a.json")]
        if args[0] == "compare":
            models += ["--model", model_file(STABLE_JUMP_B, "b.json")]
    else:
        models = ["--model", model_file(BM3, "bm3.json")]
    result = runner.invoke(main, args + models
                           + ["--out", str(tmp_path / "o")])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: {field} must be")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", [
    ["validate-sampler"], ["simulate", "--mode", "euler_path", "--kappa", "1"]])
def test_one_path_is_an_error_naming_paths(model_file, tmp_path, command):
    # a standard error needs two paths; a fresh process, so numpy's
    # RuntimeWarnings would reach stderr
    src = str(Path(levy_transience.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "levy_transience.cli", *command, "--model",
         model_file(STABLE_05_D1, "stable.json"), "--paths", "1",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 1
    assert result.stderr == "error: paths must be at least 2, got 1\n"
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("mode, kappa", [
    ("exact_marginal", "130"), ("euler_path", "200"), ("euler_path", "300")])
def test_simulate_kappa_too_large_for_the_horizon_exit_1(model_file, tmp_path,
                                                        mode, kappa):
    # a fresh process, so numpy's RuntimeWarnings would reach stderr
    src = str(Path(levy_transience.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "levy_transience.cli", "simulate", "--model",
         model_file(BM3, "bm3.json"), "--mode", mode, "--kappa", kappa,
         "--horizon", "5", "--paths", "10", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: kappa {float(kappa)} is too "
                                    f"large for horizon 5.0")
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_simulate_kappa_100_at_horizon_5_still_runs(runner, model_file,
                                                    tmp_path):
    result = runner.invoke(main, [
        "simulate", "--model", model_file(BM3, "bm3.json"), "--kappa", "100",
        "--horizon", "5", "--paths", "200", "--seed", "3",
        "--out", str(tmp_path / "o")])
    assert result.exit_code in (0, 2), result.output
    assert "trend:" in result.output
