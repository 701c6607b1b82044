"""Self-check of the benchmark: ``python3 benchmarks/run.py --smoke``.

Runs every workload at a tiny scale, untraced and traced, and asserts that
every declared metric (and every workload-specific one) is emitted with its
unit, that no operation failed, and that each correctness check does catch
a wrong output. It asserts nothing about how long anything took.
"""

from __future__ import annotations

import json
import math

import run
import workloads as wl

SMOKE_SEED = wl.DEFAULT_SEED


def _assert(cond, message):
    if not cond:
        raise AssertionError(message)


def _metric_ok(metric, unit):
    return (metric.get("unit") == unit
            and isinstance(metric.get("value"), (int, float))
            and math.isfinite(metric["value"]))


def _check_line(line, units, what):
    _assert(set(line["metrics"]) == set(units),
            f"{what}: metrics {sorted(set(line['metrics']) ^ set(units))} "
            "missing or undeclared")
    for name, unit in units.items():
        _assert(_metric_ok(line["metrics"][name], unit),
                f"{what}: {name} lacks unit {unit} or a finite value")
    _assert(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
            f"{what}: operations failed")


def _tampered(op):
    """Expectations the op's real output must violate, one per check."""
    exp, kind = op["expect"], op["kind"]
    if kind == "classify":
        # every kappa now sits on the far side of the band
        return dict(exp, strong_below=99.0, weak_above=-1.0)
    if kind == "kappa_star":
        hi = exp["band"][1]
        return dict(exp, band=(hi + 1.0, hi + 2.0))
    if kind == "pruitt":
        return dict(exp, indices=(exp["indices"][0] + 0.5,
                                  exp["indices"][1]))
    if kind == "validate_sampler":
        return dict(exp, samples=exp["samples"] + 1)
    return None


def _negative_controls(workload, root):
    """Each check flags a wrong output; returns the number of checks run."""
    run_dir = run.HERE / "out" / f"{workload}-s{SMOKE_SEED}-t0-smoke"
    ops = wl.generate(workload, SMOKE_SEED, run_dir / "models", wl.SMOKE_SCALE)
    rep = json.loads((run_dir / "rep0" / "rep.json").read_text())
    results = {r["name"]: r for r in rep["ops"]}
    outs = {op["name"]: run_dir / "rep0" / op["name"] for op in ops}
    n = 0
    for op in ops:
        res = results[op["name"]]
        _assert(wl.check(op, res, outs, None) == [], f"{op['name']} fails")
        bad = _tampered(op)
        if bad is not None:
            _assert(wl.check(dict(op, expect=bad), res, outs, None),
                    f"{op['name']}: value check let a wrong output pass")
            n += 1
        _assert(wl.check(op, res, outs, {op["name"]: "bogus"}),
                f"{op['name']}: fingerprint check let a change pass")
        _assert(wl.check(op, dict(res, exit_code=1), outs, None),
                f"{op['name']}: exit-code check let exit 1 pass")
        _assert(wl.check(op, dict(res, error="RuntimeError()"), outs, None),
                f"{op['name']}: a raised exception passed")
        n += 3
    return n


def run_smoke(root, declared):
    e2e_units, layer_units = declared
    for workload in wl.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(root, workload, SMOKE_SEED, 0, trace,
                                      scale=wl.SMOKE_SCALE)
            line = run.result_line(result, declared)
            what = f"{workload} trace={int(trace)}"
            _check_line(line, layer_units if trace else e2e_units, what)
            if trace:
                _assert(result["profile_checks"], f"{what}: no profile check")
                continue
            extra = dict(run.WORKLOAD_METRICS[workload], error_rate="ratio")
            for name in extra:
                _assert(name in result["end_to_end"],
                        f"{what}: {name} not reported")
            checks = _negative_controls(workload, root)
            print(f"smoke {workload}: metrics present, "
                  f"{checks} negative controls flagged")
    print("smoke OK")
    return 0

