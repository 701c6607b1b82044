"""Command-line front end: classification, boundary search, tail tests,
simulation and comparison pipelines with JSON reports and CSV plot data.

Exit codes: 0 for conclusive results, 2 for an honest Inconclusive, 1 for
errors (bad config or options, violated model invariants).
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import classifier as clf
from .errors import ConfigurationError, LevyTransienceError, NotApplicableError
from .index_rules import pruitt_indices
from .levy_tails import (
    _num,
    comparison_transfer,
    cos_moment_condition,
    density_floor_test,
    perturbation_equivalence,
    split_tail_tests,
    tail_test_strong,
    tail_test_weak,
)
from .montecarlo import (
    EULER_PATH,
    EXACT_MARGINAL,
    SimConfig,
    _step_count,
    ecf_check,
    occupation_integral_estimate,
)
from .symbols import load_model

EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

_VERDICT_CODE = {clf.STRONGLY_TRANSIENT: 0, clf.WEAKLY_TRANSIENT: 1,
                 clf.INCONCLUSIVE: 2}


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def emit_plotdata(objects) -> list:
    """Tidy (series, x, y, extra) rows from verdicts and estimates."""
    rows = []
    for name, obj in objects:
        if hasattr(obj, "partials"):
            for eps, value in obj.partials:
                rows.append((name, eps, value, ""))
        elif hasattr(obj, "horizons"):
            for h, v, s in zip(obj.horizons, obj.values, obj.stderrs):
                rows.append((name, h, v, s))
    return rows


def _parse_kappa_grid(spec):
    """The kappas of a comma list, or of lo:hi:n for n >= 1 evenly spaced."""
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            kappas = list(np.linspace(float(lo), float(hi), int(n)))
        else:
            kappas = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError:   # a non-number, a wrong field count or n < 0
        kappas = []
    if not kappas:
        raise ConfigurationError(
            f"--kappa-grid must be a comma list of numbers or lo:hi:n with "
            f"an integer n >= 1, got {spec!r}")
    return kappas


def _report_format(fmt, out, payload, rows):
    """Write report.json and/or plotdata.csv into `out`, as `fmt` asks."""
    out.mkdir(parents=True, exist_ok=True)
    wrote = []
    if fmt in ("json", "both"):
        wrote.append(out / "report.json")
        with open(wrote[-1], "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if fmt in ("csv", "both"):
        wrote.append(out / "plotdata.csv")
        with open(wrote[-1], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "x", "y", "extra"])
            for series, x, y, extra in rows:
                writer.writerow([series, _fmt(x), _fmt(y), _fmt(extra)])
    for p in wrote:
        click.echo(f"wrote {p}")


_common = [
    click.option("--model", "model_paths", multiple=True, required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="Model definition JSON (repeat for compare)."),
    click.option("--out", "out_dir", default="out",
                 type=click.Path(file_okay=False), help="Output directory."),
    click.option("--format", "fmt", default="both",
                 type=click.Choice(["json", "csv", "both"])),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _exit_on_error(fn):
    """Report a LevyTransienceError from a command as `error: ...` on stderr
    and exit with EXIT_ERROR instead of printing a traceback."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except LevyTransienceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_ERROR)

    return run


@click.group()
def main():
    """Weak/strong transience classification for Levy-type processes."""


@main.command("classify")
@_with_common
@click.option("--kappa", type=float, default=None, help="Moment order.")
@click.option("--kappa-grid", "kappa_grid", type=str, default=None,
              help="Comma list or lo:hi:n grid of kappa values.")
@click.option("--r", "radius", type=float, default=1.0,
              help="Frequency-ball radius for the integral tests.")
@click.option("--d", "dim", type=int, default=None,
              help="Expected state-space dimension (checked against the model).")
@_exit_on_error
def classify_cmd(model_paths, out_dir, fmt, kappa, kappa_grid, radius, dim):
    """Classify a model as weakly/strongly transient at one or many kappa."""
    model = load_model(model_paths[0])
    kappas = _parse_kappa_grid(kappa_grid) if kappa_grid else [kappa]
    if kappas == [None]:
        raise click.UsageError("need --kappa or --kappa-grid")
    reports = [clf.classify(model, k, d=dim, r=radius) for k in kappas]
    payload = {"command": "classify", "model": str(model_paths[0]),
               "r": radius,
               "results": [r.to_json() for r in reports]}
    rows = [("verdict", k, _VERDICT_CODE[r.verdict], r.verdict)
            for k, r in zip(kappas, reports)]
    for rec in reports[0].fired_rules:
        det = rec.detail
        if isinstance(det, dict) and det.get("partials"):
            rows.extend((rec.rule_id, p["eps"], p["value"], "")
                        for p in det["partials"])
    _report_format(fmt, Path(out_dir), payload, rows)
    for k, r in zip(kappas, reports):
        click.echo(f"kappa={k:g}: {r.verdict}")
    if any(r.verdict == clf.INCONCLUSIVE for r in reports):
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("kappa-star")
@_with_common
@click.option("--tol", type=float, default=0.01, help="Bracket tolerance.")
@click.option("--r", "radius", type=float, default=1.0)
@_exit_on_error
def kappa_star_cmd(model_paths, out_dir, fmt, tol, radius):
    """Locate the boundary between strong and weak transience."""
    model = load_model(model_paths[0])
    star = clf.kappa_boundary(model, tol=tol, r=radius)
    gate = clf.transience_gate(model, r=radius)
    payload = {"command": "kappa-star", "model": str(model_paths[0]),
               "gate": gate, "kappa_star": star, "tol": tol}
    _report_format(fmt, Path(out_dir), payload,
                   [("kappa_star", star, 1, "")])
    click.echo(f"kappa_star = {star:.4f}")


@main.command("pruitt")
@_with_common
@_exit_on_error
def pruitt_cmd(model_paths, out_dir, fmt):
    """Estimate the scaling indices of the symbol envelopes."""
    model = load_model(model_paths[0])
    idx = pruitt_indices(model)
    payload = {"command": "pruitt", "model": str(model_paths[0]),
               "indices": idx.to_json()}
    _report_format(fmt, Path(out_dir), payload,
                   [("pruitt", idx.lower, idx.upper, "")])
    click.echo(f"lower index = {idx.lower:.4f}, upper index = {idx.upper:.4f}")


@main.command("tails")
@_with_common
@click.option("--kappa", type=float, required=True)
@click.option("--r", "radius", type=float, default=1.0)
@_exit_on_error
def tails_cmd(model_paths, out_dir, fmt, kappa, radius):
    """Run the measure-side tail tests of a radial jump model."""
    model = load_model(model_paths[0])
    dens = model.triplet.jump_density
    if dens is None:
        raise NotApplicableError("model carries no radial jump density")
    r0 = max(radius, 2.0 * dens.u0, 1.0)
    weak = tail_test_weak(dens, kappa, r0)
    strong = tail_test_strong(dens, kappa, r0)
    split = split_tail_tests(dens, kappa, r0)
    try:
        floor = density_floor_test(dens, kappa, r0).to_json()
    except NotApplicableError as exc:
        floor = {"not_applicable": str(exc)}
    cosmoment = cos_moment_condition(dens)
    payload = {
        "command": "tails", "model": str(model_paths[0]), "kappa": kappa,
        "weak": weak.to_json(), "strong": strong.to_json(),
        "split": split.to_json(),
        "density_floor": floor,
        "cos_moment_condition": cosmoment,
    }
    rows = emit_plotdata([("tail_weak", weak), ("tail_strong", strong)])
    _report_format(fmt, Path(out_dir), payload, rows)
    click.echo(f"weak: {weak.decided_state}; strong: {strong.decided_state}")
    if weak.decided_state == "inconclusive" \
            and strong.decided_state == "inconclusive":
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("simulate")
@_with_common
@click.option("--kappa", type=float, required=True)
@click.option("--r", "radius", type=float, default=1.0)
@click.option("--horizon", type=float, default=200.0)
@click.option("--paths", type=int, default=10_000)
@click.option("--step", type=float, default=0.01)
@click.option("--seed", type=int, default=20_240_101)
@click.option("--mode", type=click.Choice([EXACT_MARGINAL, EULER_PATH]),
              default=EXACT_MARGINAL)
@click.option("--trace-paths", "trace_paths", type=int, default=0,
              help="Dump this many per-path traces to traces.csv "
                   "(Euler mode only).")
@_exit_on_error
def simulate_cmd(model_paths, out_dir, fmt, kappa, radius, horizon, paths,
                 step, seed, mode, trace_paths):
    """Estimate the occupation integral at doubling horizons."""
    if trace_paths < 0:
        raise ConfigurationError(
            f"--trace-paths must be a count >= 0, got {trace_paths}")
    if trace_paths and mode != EULER_PATH:
        raise ConfigurationError(f"--trace-paths needs --mode {EULER_PATH}")
    model = load_model(model_paths[0])
    cfg = SimConfig(horizon=horizon, paths=paths, seed=seed,
                    radius=radius, kappa=kappa, step=step, mode=mode)
    est = occupation_integral_estimate(model, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if trace_paths:
        from .montecarlo import _euler_sweep

        m = _step_count(horizon, step)
        store = np.zeros((trace_paths, m, model.d))
        _euler_sweep(model, horizon, step, seed, list(range(trace_paths)),
                     None, lambda j, t, X: store.__setitem__(
                         (slice(None), j), X))
        trace_path = out / "traces.csv"
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "t"] + [f"x{i+1}" for i in range(model.d)])
            for p in range(trace_paths):
                for j in range(m):
                    writer.writerow([p, _fmt((j + 1) * step)]
                                    + [_fmt(v) for v in store[p, j]])
        click.echo(f"wrote {trace_path}")
    occ_path = out / "occupation.csv"
    with open(occ_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "horizon", "S_hat", "stderr", "growth_exp", "verdict"])
        writer.writeheader()
        for row in est.csv_rows():
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    payload = {"command": "simulate", "model": str(model_paths[0]),
               "config": {"horizon": horizon, "paths": paths, "seed": seed,
                          "radius": radius, "kappa": kappa, "step": step,
                          "mode": mode},
               "estimate": {"horizons": list(est.horizons),
                            "values": list(est.values),
                            "stderrs": list(est.stderrs),
                            "growth_exponent": _num(est.growth_exponent),
                            "increment_ratio": _num(est.increment_ratio),
                            "verdict": est.verdict,
                            "notes": list(est.notes)}}
    rows = emit_plotdata([("occupation", est)])
    _report_format(fmt, out, payload, rows)
    click.echo(f"wrote {occ_path}")
    click.echo(f"trend: {est.verdict}")
    if est.verdict == "inconclusive":
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("compare")
@_with_common
@click.option("--kappa-grid", "kappa_grid", type=str, default="0.5,1,2")
@click.option("--u0", type=float, default=1.0,
              help="Radius beyond which tail domination is checked.")
@_exit_on_error
def compare_cmd(model_paths, out_dir, fmt, kappa_grid, u0):
    """Perturbation/comparison transfer report for two models."""
    if len(model_paths) != 2:
        raise ConfigurationError("compare needs exactly two --model files")
    kappas = _parse_kappa_grid(kappa_grid)
    a = load_model(model_paths[0])
    b = load_model(model_paths[1])
    da, db = a.triplet.jump_density, b.triplet.jump_density
    if da is None or db is None:
        raise NotApplicableError("compare needs radial jump densities")
    pert = perturbation_equivalence(da, db)
    try:
        comp = comparison_transfer(da, db, u0).to_json()
    except NotApplicableError as exc:
        comp = {"not_applicable": str(exc), "witness": exc.witness}
    verdicts = {}
    for label, model in (("a", a), ("b", b)):
        row = []
        for k in kappas:
            try:
                row.append(clf.classify_verdict(
                    model, k, 1.0, clf.ALL_METHODS, None))
            except LevyTransienceError as exc:
                row.append(f"error: {exc}")
        verdicts[label] = row
    payload = {"command": "compare",
               "models": [str(p) for p in model_paths],
               "perturbation": pert.to_json(),
               "comparison": comp,
               "kappa_grid": kappas,
               "verdicts": verdicts}
    rows = [(f"verdict_{label}", k, _VERDICT_CODE.get(v, 2), v)
            for label in "ab" for k, v in zip(kappas, verdicts[label])]
    _report_format(fmt, Path(out_dir), payload, rows)
    click.echo(f"distance finite: {pert.weak_side_transfer}; "
               f"strong transfer: {pert.strong_side_transfer}")


@main.command("validate-sampler")
@_with_common
@click.option("--paths", type=int, default=100_000)
@click.option("--seed", type=int, default=7)
@click.option("--t", "t_value", type=float, default=1.0)
@_exit_on_error
def validate_sampler_cmd(model_paths, out_dir, fmt, paths, seed, t_value):
    """Empirical characteristic function check of the marginal sampler."""
    model = load_model(model_paths[0])
    cfg = SimConfig(horizon=1.0, paths=paths, seed=seed, radius=1.0,
                    kappa=0.0)
    dirs = np.eye(model.d)[0]
    xi_set = [s * dirs for s in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
    rep = ecf_check(model, t_value, xi_set, cfg)
    payload = {"command": "validate-sampler", "model": str(model_paths[0]),
               "t": t_value, "paths": paths, "report": rep.to_json()}
    rows = [("ecf", row["xi_norm"], row["ecf_re"], row["target_re"])
            for row in rep.rows]
    _report_format(fmt, Path(out_dir), payload, rows)
    click.echo(f"sampler {'PASS' if rep.all_pass else 'FAIL'}")
    if not rep.all_pass:
        sys.exit(EXIT_INCONCLUSIVE)


if __name__ == "__main__":
    main()
