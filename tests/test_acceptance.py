"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from levy_transience.cf_integrals import strong_integral_kappa, weak_integral_kappa
from levy_transience.classifier import classify, kappa_boundary
from levy_transience.cli import main as cli_main
from levy_transience.densities import (
    DensityVariant,
    RadialLevyDensity,
    modified_density,
    power_density,
    power_log_density,
    stable_coefficient,
    stable_density,
)
from levy_transience.index_rules import pruitt_indices
from levy_transience.levy_tails import (
    integrated_tail,
    tail_mass,
    tail_test_strong,
    tail_test_weak,
    truncated_second_moment,
)
from levy_transience.montecarlo import (
    CONVERGENT_TREND,
    DIVERGENT_TREND,
    SimConfig,
    ecf_check,
    occupation_integral_estimate,
)
from levy_transience.quadrature import sphere_surface
from levy_transience.symbols import (
    brownian_drift,
    isotropic_stable,
    radial_jump_model,
    stable_like,
)


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_brownian_boundary():
    for d in (3, 4, 5):
        start = time.monotonic()
        star = kappa_boundary(brownian_drift(d, c=1.0), tol=0.01)
        elapsed = time.monotonic() - start
        want = d / 2.0 - 1.0
        assert abs(star - want) <= 0.02, (d, star)
        assert elapsed < 10.0, (d, elapsed)
    _report(1, "Brownian kappa* = d/2 - 1 within 0.02 for d in {3,4,5}, "
               "< 10 s per case")


def test_criterion_2_stable_boundary():
    for d, alpha in [(1, 0.5), (2, 1.2), (3, 1.0), (3, 1.8)]:
        start = time.monotonic()
        star = kappa_boundary(isotropic_stable(d, alpha), tol=0.01)
        elapsed = time.monotonic() - start
        want = d / alpha - 1.0
        assert abs(star - want) <= 0.02, (d, alpha, star)
        assert elapsed < 30.0, (d, alpha, elapsed)
    _report(2, "stable kappa* = d/alpha - 1 within 0.02 on four (d, alpha) "
               "cases, < 30 s per case")


def test_criterion_3_tail_symbol_agreement():
    d = 2
    alphas = (0.4, 0.8, 1.2, 1.6, 1.9)
    kappas = (0.3, 0.75, 1.6, 2.6)
    band = 0.05
    checked = 0
    for alpha in alphas:
        dens = stable_density(d, alpha)
        model = radial_jump_model(dens)
        for kappa in kappas:
            # stay outside the boundary band on the fitted exponent
            assert abs(d - alpha * (kappa + 1.0)) > band
            weak_cf = weak_integral_kappa(model, kappa, 1.0).decided_state
            strong_cf = strong_integral_kappa(model, kappa, 1.0).decided_state
            weak_tail = tail_test_weak(dens, kappa, 1.0).decided_state
            strong_tail = tail_test_strong(dens, kappa, 1.0).decided_state
            assert weak_cf == weak_tail, (alpha, kappa)
            assert strong_cf == strong_tail, (alpha, kappa)
            checked += 1
    assert checked == 20
    _report(3, "tail and symbol verdicts agree at all 20 (alpha, kappa) "
               "grid points (weak and strong sides)")


def test_criterion_4_regular_variation_table():
    kappas = (0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0, 1.5, 3.0)

    def check(density, rule):
        model = radial_jump_model(density)
        for kappa in kappas:
            report = classify(model, kappa, methods=("closed_form",))
            assert report.gate == "transient", density.d
            [rec] = report.fired_rules
            assert rec.verdict == ("weak" if rule(kappa) else "strong"), \
                (density.d, density.variants[0].tail_slope, kappa)

    # (i) d=3, delta=-7 < -d-2: weak iff 2(kappa+1) >= d
    check(power_density(3, 4.0, u0=1.0), lambda k: 2 * (k + 1) >= 3)
    # (ii) d=1, delta=-2d: the germ is rho (ln 1/rho)^2, transient since
    # the log exponent 2 > 1, and weak iff kappa+1 > 1 (at kappa = 0 the
    # log exponent gives the strong side)
    check(power_log_density(1, exponent=-2.0, log_exponent=2.0),
          lambda k: k > 0)
    # (iii) d=3, delta=-d-2: weak iff 2(kappa+1) > d
    check(power_density(3, 2.0, u0=1.0), lambda k: 2 * (k + 1) > 3)
    # (iv) d=1, delta=-1.5: weak iff kappa + 2 + delta(kappa+1) <= 0
    check(power_density(1, 0.5, u0=1.0), lambda k: k + 2 - 1.5 * (k + 1) <= 0)
    # (v) d=2, delta=-d-1=-3: weak iff d(kappa+2) + delta(kappa+1) <= 0
    check(power_density(2, 1.0, u0=1.0),
          lambda k: 2 * (k + 2) - 3 * (k + 1) <= 0)
    # (vi) delta=-d: always strongly transient. No tail u^-d (ln u)^q passes
    # the numeric Levy-measure check, so a u^-2 profile states that index;
    # the exact rule reads the stated index alone
    stated = DensityVariant("index -d", lambda u: np.maximum(u, 1.0) ** -2.0,
                            1.0, (1.0,), -1.0, -2.0)
    check(RadialLevyDensity(d=1, u0=1.0, variants=(stated,)), lambda k: False)
    _report(4, "all six regular-variation cases reproduce the published "
               "rules exactly")


def test_criterion_5_parts_identity():
    # the three tail functionals of a stable density n = c u^(-d-alpha)
    # against their closed forms: tm = S_d c rho^-alpha / alpha, T3 = S_d c
    # rho^(2-alpha) / (2-alpha) and T1 = T2/2 + T3/2 = S_d c rho^(2-alpha) /
    # (alpha (2-alpha))
    start = time.monotonic()
    gen = np.random.Generator(np.random.Philox(key=[77, 2024]))
    for _ in range(100):
        d = int(gen.integers(1, 4))
        alpha = float(gen.uniform(0.3, 1.8))
        gamma = float(gen.uniform(0.5, 2.0))
        rho = float(np.exp(gen.uniform(np.log(0.2), np.log(20.0))))
        dens = stable_density(d, alpha, gamma)
        scale = sphere_surface(d) * gamma * stable_coefficient(d, alpha)
        t3 = scale * rho ** (2.0 - alpha) / (2.0 - alpha)
        assert tail_mass(dens, rho) == pytest.approx(
            scale * rho ** -alpha / alpha, rel=1e-8)
        assert truncated_second_moment(dens, rho) == pytest.approx(
            t3, rel=1e-8)
        assert integrated_tail(dens, rho) == pytest.approx(t3 / alpha,
                                                           rel=1e-8)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    _report(5, "tail mass, truncated moment and integrated tail = half "
               "scaled tail mass + half truncated moment match the stable "
               "closed forms to 1e-8 relative on 100 randomized triples, "
               "< 5 s")


def test_criterion_6_occupation_trend():
    start = time.monotonic()
    prob = lambda t: float(stats.chi2.cdf(1.0 / t, 3))
    model = brownian_drift(3, c=1.0)
    cfg = SimConfig(horizon=200.0, paths=100, seed=1, radius=1.0, kappa=1.0,
                    nodes_per_decade=64)
    est = occupation_integral_estimate(model, cfg, probability_fn=prob)
    ratio = est.values[1] / est.values[0]
    assert 1.36 <= ratio <= 1.47, ratio
    assert est.verdict == DIVERGENT_TREND
    cfg = SimConfig(horizon=200.0, paths=100, seed=1, radius=1.0, kappa=0.25,
                    nodes_per_decade=64)
    est = occupation_integral_estimate(model, cfg, probability_fn=prob)
    assert est.verdict == CONVERGENT_TREND
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    _report(6, f"occupation ratio {ratio:.3f} in [1.36, 1.47] for kappa=1 "
               "and convergent trend for kappa=0.25, < 60 s")


def test_criterion_7_sampler_validation():
    start = time.monotonic()
    norms = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)
    for d in (1, 2):
        for alpha in (0.5, 1.0, 1.5):
            model = isotropic_stable(d, alpha)
            xi_set = [s * np.eye(d)[0] for s in norms]
            cfg = SimConfig(horizon=1.0, paths=100_000, seed=4321,
                            radius=1.0, kappa=0.0)
            rep = ecf_check(model, 1.0, xi_set, cfg)
            assert rep.all_pass, (d, alpha)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, elapsed
    _report(7, "empirical characteristic function within 3 standard errors "
               "at 8 frequencies for alpha in {0.5, 1, 1.5}, d in {1, 2}, "
               f"N = 1e5, {elapsed:.1f} s")


def test_criterion_8_perturbation_invariance():
    base = stable_density(2, 1.2)
    bumped = modified_density(base, 1.0, factor=2.0)
    for kappa in (0.5, 1.0, 2.0):
        va = classify(radial_jump_model(base), kappa).verdict
        vb = classify(radial_jump_model(bumped), kappa).verdict
        assert va == vb, kappa
    _report(8, "modifying the jump density inside the unit ball changes no "
               "verdict at kappa in {0.5, 1, 2}")


def test_criterion_9_pruitt_recovery():
    start = time.monotonic()
    idx = pruitt_indices(stable_like(2, alpha=1.3, gamma=1.0))
    assert abs(idx.lower - 1.3) <= 0.03
    assert abs(idx.upper - 1.3) <= 0.03
    idx = pruitt_indices(stable_like(2, alpha=(0.6, 1.4), gamma=1.0))
    assert abs(idx.lower - 0.6) <= 0.03
    assert abs(idx.upper - 1.4) <= 0.03
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    _report(9, "scaling indices recover the stability-index range within "
               "0.03 on constant and interval fixtures, < 10 s")


def test_criterion_10_simulation_determinism(tmp_path):
    cfg = {"family": "isotropic_stable", "d": 3,
           "parameters": {"alpha": 1.0, "gamma": 1.0}}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(cfg))
    runner = CliRunner()
    args = ["simulate", "--model", str(model_path), "--kappa", "1.0",
            "--horizon", "20", "--paths", "4000", "--seed", "99"]
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        result = runner.invoke(cli_main, args + ["--out", str(out)])
        assert result.exit_code in (0, 2), result.output
        outs.append(out)
    for fname in ("occupation.csv", "plotdata.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    _report(10, "two simulate runs with the same config produce "
                "byte-identical CSV output")
