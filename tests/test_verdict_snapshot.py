"""Verdicts and rule ids of a fixed classify sweep, against a committed
snapshot.

The sweep covers every density kind (power, stable, finite_range,
power_log, table), densities modified by a factor and by a replacement,
atoms, and the stable_like, isotropic_stable and finite_jump families. Each
case records the gate, the verdict, the fired rules as method:rule_id:side
and the notes of `classify` at one kappa. A change that moves any of them
shows up here as a named case.

Regenerate the snapshot (only for a change that moves a verdict on
purpose, and say which cases moved) with

    PYTHONPATH=src python tests/test_verdict_snapshot.py --write
"""

import dataclasses
import json
import pathlib
import sys

import numpy as np

from levy_transience.classifier import classify
from levy_transience.errors import LevyTransienceError
from levy_transience.densities import (
    finite_range_density,
    modified_density,
    power_density,
    power_log_density,
    stable_density,
    table_density,
)
from levy_transience.symbols import (
    finite_jump_model,
    isotropic_stable,
    radial_jump_model,
    stable_like,
)

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "verdict_snapshot.json"


def _densities():
    """(id, density) pairs of single-state and few-variant radial
    densities."""
    for d in (1, 2, 3, 5):
        yield f"power-d{d}", power_density(d, 0.5 + 0.3 * d % 1.5, u0=1.0)
        yield f"stable-d{d}", stable_density(d, min(1.9, 0.4 * d))
        yield f"finite-d{d}", finite_range_density(d, 0.7 + 0.5 * (d % 3))
        yield f"table-d{d}", table_density(d, [0.5, 3.0, 40.0],
                                           [1e-1, 1e-3, 1e-12])
    yield "power-interval-d2", power_density(2, (0.6, 1.6), coeff=(0.5, 2.0),
                                             u0=1.0, n_variants=3)
    yield "power-alpha3-d5", power_density(5, 3.0, u0=1.0)
    yield "power-origin-d1", power_density(1, 0.5)
    yield "stable-interval-d2", stable_density(2, (0.5, 1.5), n_variants=3)
    yield "finite-interval-d3", finite_range_density(3, (0.5, 2.5),
                                                     n_variants=3)
    yield "power_log-d1", power_log_density(1, -2.0, 2.0)
    yield "power_log-d3", power_log_density(3, -4.5, 1.0)
    # tail slope -(d + a) with a < 2: infinite second moment
    for d, a in ((1, 0.7), (2, 1.3), (3, 1.5), (4, 0.9), (5, 1.58)):
        tail = 1e-3 * (40.0 / 3.0) ** -(d + a)
        yield f"table-slow-d{d}", table_density(d, [0.5, 3.0, 40.0],
                                                [1e-1, 1e-3, tail])
    yield "table-cut-d3", table_density(3, [1.0, 10.0, 100.0],
                                        [1e-1, 1e-5, 1e-11], u0=1.0)
    yield "table-steep-d2", table_density(2, [0.2, 1.0, 5.0, 50.0],
                                          [10.0, 1.0, 1e-3, 1e-10])
    base = power_density(3, 1.2, u0=1.0)
    yield "factor-power-d3", modified_density(base, 2.0, factor=3.0)
    yield "factor-stable-d2", modified_density(stable_density(2, 1.1), 1.5,
                                               factor=0.25)
    yield "factor-table-d5", modified_density(
        table_density(5, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-12]), 1.0,
        factor=2.0)
    yield "factor-finite-d1", modified_density(finite_range_density(1, 0.6),
                                               2.0, factor=0.5)
    yield "replace-power-d3", modified_density(
        base, 2.0, replacement=lambda u: np.full_like(u, 0.05))
    yield "replace-table-d2", modified_density(
        table_density(2, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-7]), 1.0,
        replacement=lambda u: 0.1 * np.ones_like(u))
    yield "atoms-power-d3", dataclasses.replace(base, atoms=((0.5, 0.2),))
    yield "atoms-factor-d2", dataclasses.replace(
        modified_density(power_density(2, 0.8, u0=1.0), 2.0, factor=3.0),
        atoms=((0.1, 0.3), (1.5, 0.01)))
    yield "atoms-table-d3", dataclasses.replace(
        table_density(3, [1.0, 10.0, 100.0], [1e-1, 1e-5, 1e-11], u0=1.0),
        atoms=((0.5, 1.0),))


def snapshot_cases():
    """(id, model, kappa) of the sweep: every density at two kappas, and the
    families that build their own densities."""
    for name, dens in _densities():
        model = radial_jump_model(dens)
        for kappa in (0.4, 2.0):
            yield f"{name}@{kappa:g}", model, kappa
    # tail slope -6.2 in d = 5: kappa* = 5 / 1.2 - 1 = 3.17
    slow = table_density(5, [0.5, 3.0, 40.0],
                         [1e-1, 1e-3, 1e-3 * (40.0 / 3.0) ** -6.2])
    for name, model, kappas in (
            ("isotropic-d3", isotropic_stable(3, 1.0), (0.3, 1.5)),
            ("stable_like-d2", stable_like(2, alpha=(0.6, 1.4)), (0.3, 1.5)),
            ("finite_jump-d3", finite_jump_model(3, alpha=(0.5, 1.5)),
             (0.3, 1.5)),
            ("finite_jump-grid-d2", finite_jump_model(2, alpha=(0.5, 1.5)),
             (0.3, 1.5)),
            ("table-tail6.2-d5", radial_jump_model(slow), (1.5, 3.0, 3.5))):
        for kappa in kappas:
            yield f"{name}@{kappa:g}", model, kappa


def _record(model, kappa):
    try:
        report = classify(model, kappa)
    except LevyTransienceError as exc:
        return {"error": type(exc).__name__}
    return {"gate": report.gate, "verdict": report.verdict,
            "rules": [f"{r.method}:{r.rule_id}:{r.verdict}"
                      for r in report.fired_rules],
            "notes": list(report.notes)}


def _sweep():
    return {case: _record(model, kappa)
            for case, model, kappa in snapshot_cases()}


def test_classify_sweep_matches_the_snapshot():
    pinned = json.loads(SNAPSHOT.read_text())
    got = _sweep()
    assert len(got) >= 80
    assert sorted(got) == sorted(pinned)
    moved = {case: (pinned[case], got[case]) for case in got
             if got[case] != pinned[case]}
    assert not moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_verdict_snapshot.py --write")
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(_sweep(), indent=1, sort_keys=True) + "\n")
