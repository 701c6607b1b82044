"""Seeded workload definitions for the benchmark.

A workload is a list of operations. Each operation is one
``levy-transience`` CLI command on model files generated from the seed,
together with what its output must satisfy. ``generate`` is pure: the same
seed gives the same model files, kappa grids and simulation seeds, and the
program sees nothing else.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 97

# Tolerance on kappa* against its closed form (acceptance criterion 1 and 2).
KAPPA_STAR_TOL = 0.02
# Tolerance of the scaling-index recovery (acceptance criterion 9).
INDEX_TOL = 0.03

# Workload name -> input generator and one-line why, registered next to
# each generator.
_GENERATORS, WHY = {}, {}


def _workload(name, why):
    def register(generate_ops):
        _GENERATORS[name], WHY[name] = generate_ops, why
        return generate_ops

    return register


SMOKE_SCALE = "smoke"
FULL_SCALE = "full"


def _r(x, nd=3):
    return round(x, nd)


def _op(name, kind, args, **expect):
    return {"name": name, "kind": kind, "args": args, "expect": expect}


def _model(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return str(path)


@_workload("radial_cold",
           "classify on state-dependent radial jump models: scalar "
           "jump_symbol_value quadrature, cold then warm envelope caches, "
           "with and without a cutoff breakpoint")
def _radial_cold(rng, models: Path, scale):
    # Two 9-variant radial_jump models: `power` (d = 3, cutoff u0 puts a
    # breakpoint in the jump integral) and the breakpoint-free `stable`
    # density (d = 2). Kappas stay at least 0.25 outside the band
    # [d/alpha_hi - 1, d/alpha_lo - 1] so the alpha bounds decide the side.
    specs = [
        ("power", 3, (rng.uniform(0.78, 0.82), rng.uniform(1.18, 1.22)),
         {"u0": _r(rng.uniform(0.9, 1.1)), "coeff": 1.0},
         (rng.uniform(0.2, 0.5), rng.uniform(0.7, 1.0),
          rng.uniform(3.2, 3.6), rng.uniform(3.9, 4.4))),
        ("stable", 2, (rng.uniform(0.58, 0.62), rng.uniform(1.38, 1.42)),
         {"gamma": 1.0},
         (rng.uniform(0.0, 0.07), rng.uniform(0.08, 0.15),
          rng.uniform(2.8, 3.2), rng.uniform(3.4, 3.9))),
    ]
    ops = []
    for kind, d, (a_lo, a_hi), extra, kappas in specs:
        a_lo, a_hi = _r(a_lo), _r(a_hi)
        kappas = sorted(_r(k) for k in kappas)
        if scale == SMOKE_SCALE:
            if kind == "power":
                continue
            kappas = kappas[:1]
        density = {"kind": kind, "alpha": {"lo": a_lo, "hi": a_hi}, **extra}
        path = _model(models / f"radial_{kind}.json",
                      {"family": "radial_jump", "d": d,
                       "parameters": {"density": density}})
        grid = ",".join(repr(k) for k in kappas)
        ops.append(_op(f"classify_{kind}", "classify",
                       ["classify", "--model", path, "--kappa-grid", grid],
                       kappas=kappas, strong_below=d / a_hi - 1.0,
                       weak_above=d / a_lo - 1.0))
    return ops


@_workload("kappa_star",
           "kappa-star bisection on closed-form-envelope models: "
           "non-oscillatory octave quadrature, the rule engine and verdicts, "
           "with import a large share of short commands")
def _kappa_star(rng, models: Path, scale):
    # kappa* has a closed form on every model: d/2 - 1 for driftless
    # Brownian motion, d/alpha - 1 for isotropic stable, and the band
    # [d/alpha_hi - 1, d/alpha_lo - 1] for stable-like. Alphas keep it in
    # the search range [0, 8].
    cases = [
        ("bm3", {"family": "brownian_drift", "d": 3,
                 "parameters": {"c": _r(rng.uniform(0.5, 2.0))}}),
        ("bm5", {"family": "brownian_drift", "d": 5,
                 "parameters": {"c": _r(rng.uniform(0.5, 2.0))}}),
    ]
    for d, alpha in ((1, 0.5), (2, 1.2), (3, 1.0), (3, 1.8)):
        cases.append((f"iso{d}_{alpha:g}", {
            "family": "isotropic_stable", "d": d,
            "parameters": {"alpha": _r(rng.uniform(alpha - 0.05, alpha + 0.05)),
                           "gamma": _r(rng.uniform(0.5, 2.0))}}))
    a_lo, a_hi = _r(rng.uniform(0.45, 0.55)), _r(rng.uniform(1.45, 1.55))
    cases.append(("stable_like2", {
        "family": "stable_like", "d": 2,
        "parameters": {"alpha": {"lo": a_lo, "hi": a_hi, "profile": "cos"},
                       "gamma": 1.0}}))
    if scale == SMOKE_SCALE:
        cases = [cases[0], cases[3], cases[-1]]
    ops = []
    for name, cfg in cases:
        path = _model(models / f"{name}.json", cfg)
        d, p = cfg["d"], cfg["parameters"]
        if cfg["family"] == "brownian_drift":
            band = (d / 2.0 - 1.0,) * 2
        elif cfg["family"] == "isotropic_stable":
            band = (d / p["alpha"] - 1.0,) * 2
        else:
            band = (d / a_hi - 1.0, d / a_lo - 1.0)
        ops.append(_op(f"kappa_star_{name}", "kappa_star",
                       ["kappa-star", "--model", path], band=band))
    ops.append(_op("pruitt_stable_like2", "pruitt",
                   ["pruitt", "--model", path], indices=(a_lo, a_hi)))
    return ops


@_workload("monte_carlo",
           "Euler paths and exact Gaussian/Kanter marginal samplers only; "
           "analytic layers are bypassed")
def _monte_carlo(rng, models: Path, scale):
    small = scale == SMOKE_SCALE
    a_lo, a_hi = _r(rng.uniform(0.55, 0.65)), _r(rng.uniform(1.35, 1.45))
    euler = _model(models / "stable_like2.json", {
        "family": "stable_like", "d": 2,
        "parameters": {"alpha": {"lo": a_lo, "hi": a_hi, "profile": "cos"},
                       "gamma": 1.0}})
    bm = _model(models / "bm3.json", {
        "family": "brownian_drift", "d": 3,
        "parameters": {"c": _r(rng.uniform(0.5, 2.0))}})
    iso = _model(models / "iso2.json", {
        "family": "isotropic_stable", "d": 2,
        "parameters": {"alpha": _r(rng.uniform(1.2, 1.6)),
                       "gamma": _r(rng.uniform(0.5, 2.0))}})
    # Euler: occupation runs to 4 * horizon; 1000 paths make two equal
    # chunks, so a two-thread run has work for both threads.
    horizon, step = (1.0, 0.01) if small else (5.0, 0.01)
    e_paths = 100 if small else 1000
    x_paths = 200 if small else 4000
    v_paths = 20_000 if small else 400_000
    seeds = [rng.randrange(1, 2**31) for _ in range(3)]
    return [
        _op("simulate_euler", "simulate_euler",
            ["simulate", "--model", euler, "--mode", "euler_path",
             "--kappa", "0.2", "--horizon", repr(horizon), "--step",
             repr(step), "--paths", str(e_paths), "--seed", str(seeds[0])],
            path_steps=e_paths * round(4.0 * horizon / step)),
        _op("simulate_exact", "simulate_exact",
            ["simulate", "--model", bm, "--mode", "exact_marginal",
             "--kappa", "1.0", "--horizon", "200", "--paths", str(x_paths),
             "--seed", str(seeds[1])],
            sim_config={"horizon": 200.0, "paths": x_paths, "seed": seeds[1],
                        "radius": 1.0, "kappa": 1.0}),
        _op("validate_sampler", "validate_sampler",
            ["validate-sampler", "--model", iso, "--paths", str(v_paths),
             "--seed", str(seeds[2])],
            samples=v_paths),
    ]


WORKLOADS = tuple(WHY)


def generate(workload: str, seed: int, models: Path, scale=FULL_SCALE):
    """Write the workload's model files under `models`; return its ops."""
    models.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), models,
                               scale)


def threads2_op(ops):
    """The Euler operation once more with two worker threads (traced runs
    only); its output must be byte-identical to the one-thread run."""
    base = next(op for op in ops if op["kind"] == "simulate_euler")
    return dict(base, name="simulate_euler_threads2", pin=base["name"],
                env={"LEVY_TRANSIENCE_THREADS": "2"},
                expect=dict(base["expect"], same_output_as=base["name"]))


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(op, out: Path):
    """The pinned value of one operation's output."""
    kind = op["kind"]
    if kind == "classify":
        report = json.loads((out / "report.json").read_text())
        return [r["verdict"] for r in report["results"]]
    if kind == "kappa_star":
        return json.loads((out / "report.json").read_text())["kappa_star"]
    if kind in ("simulate_euler", "simulate_exact"):
        return sha256(out / "occupation.csv")
    return sha256(out / "plotdata.csv")


def check(op, result, outs, pins):
    """Failure reasons of one executed operation (empty when it passed).

    An honest Inconclusive (exit 2) passes; a wrong side, a missed closed
    form, a crash or a changed pinned output fails. `pins` maps op names to
    pinned fingerprints on the default seed, or is None on other seeds;
    `outs` maps op names to their output directories in the same rep.
    """
    out = outs[op["name"]]
    if result["error"] is not None:
        return [f"raised {result['error']}"]
    if result["exit_code"] not in (0, 2):
        return [f"exit code {result['exit_code']}"]
    exp, kind = op["expect"], op["kind"]
    reasons = []
    try:
        if kind == "classify":
            report = json.loads((out / "report.json").read_text())
            verdicts = [r["verdict"] for r in report["results"]]
            if len(verdicts) != len(exp["kappas"]):
                reasons.append(f"{len(verdicts)} verdicts for "
                               f"{len(exp['kappas'])} kappas")
            for k, v in zip(exp["kappas"], verdicts):
                if k < exp["strong_below"] and v == "weakly_transient" \
                        or k > exp["weak_above"] and v == "strongly_transient":
                    reasons.append(f"kappa={k}: {v} is on the wrong side")
        elif kind == "kappa_star":
            report = json.loads((out / "report.json").read_text())
            star = report["kappa_star"]
            lo, hi = exp["band"]
            if report["gate"] != "transient" or not (
                    lo - KAPPA_STAR_TOL <= star <= hi + KAPPA_STAR_TOL):
                reasons.append(f"kappa*={star} outside [{lo:.4f}, {hi:.4f}] "
                               f"+/- {KAPPA_STAR_TOL}")
        elif kind == "pruitt":
            idx = json.loads((out / "report.json").read_text())["indices"]
            for got, want in zip((idx["lower"], idx["upper"]), exp["indices"]):
                if abs(got - want) > INDEX_TOL:
                    reasons.append(f"index {got} misses {want}")
        elif kind in ("simulate_euler", "simulate_exact"):
            with open(out / "occupation.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != 3:
                reasons.append(f"occupation.csv has {len(rows)} rows")
        elif kind == "validate_sampler":
            report = json.loads((out / "report.json").read_text())
            if report["paths"] != exp["samples"]:
                reasons.append("sampler report has the wrong path count")
        if "same_output_as" in exp:
            twin = outs[exp["same_output_as"]]
            if fingerprint(op, out) != fingerprint(op, twin):
                reasons.append(f"output differs from {exp['same_output_as']}")
        if pins is not None:
            want = pins.get(op.get("pin", op["name"]))
            got = fingerprint(op, out)
            if want is None:
                reasons.append("no pinned fingerprint")
            elif got != want:
                reasons.append(f"fingerprint {got!r} != pinned {want!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reasons.append(f"unreadable output: {exc!r}")
    return reasons
