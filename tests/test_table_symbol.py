"""The jump symbol of a log-log table by its power series.

Within the series' reach (rho times the largest knot at most
densities._SERIES_REACH) a table variant's "jsym" sweep is the series and
Mellin constant of `LogLogTable.jump_symbol`; the other radii run by
quadrature. The series is checked against quadrature: where a variant has
a support cut, `jump_symbol_value` as it is; where it reaches the origin,
`jump_symbol_value` from a cut plus `scipy.integrate.quad` below it, since
the quadrature's extrapolated octave sum toward the origin is off by
about 1e-11 there.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from levy_transience import densities, quadrature
from levy_transience.classifier import classify, kappa_boundary
from levy_transience.densities import (
    finite_range_density,
    modified_density,
    power_density,
    stable_coefficient,
    table_density,
)
from levy_transience.quadrature import (
    jump_symbol_value,
    one_minus_wave_kernel,
    sphere_surface,
)
from levy_transience.symbols import (
    isotropic_stable,
    model_from_config,
    radial_jump_model,
    stable_like,
)

REACH = densities._SERIES_REACH

CASES = {
    "power": lambda d: power_density(d, (0.8, 1.2)),
    "power_u0": lambda d: power_density(d, (0.8, 1.2), u0=0.92),
    "finite_range_1.5": lambda d: finite_range_density(d, 1.5),
    "finite_range_2.5": lambda d: finite_range_density(d, 2.5),
    "finite_range_3.5": lambda d: finite_range_density(d, 3.5),
    "factor": lambda d: modified_density(
        power_density(d, (0.8, 1.2), u0=0.5), 2.0, factor=3.0),
    "table": lambda d: table_density(d, [0.5, 3.0],
                                     [0.1, 0.1 * 6.0 ** -(d + 1.0)]),
}


def _ladder(table):
    return np.geomspace(2.0 ** -24, REACH / max(table.knots, default=1.0),
                        25)


def _origin_piece(dens, i, rho, cut):
    """int_0^cut (1 - psi_d(rho u)) S_d u^(d-1) c u^slope du on the first
    piece, by QUADPACK with the algebraic weight u^(beta+1)."""
    table, d = dens.variants[i].profile, dens.d
    beta = table.slopes[0] + d
    scale = sphere_surface(d) * math.exp(table.values[0]
                                         - table.slopes[0] * table.anchors[0])

    def smooth(u):   # (1 - psi_d(rho u)) / u^2, rho^2 / (2d) at u = 0
        if u == 0.0:
            return scale * rho * rho / (2.0 * d)
        return scale * one_minus_wave_kernel(np.array([rho * u]), d)[0] \
            / (u * u)

    return quad(smooth, 0.0, cut, weight="alg", wvar=(beta + 1.0, 0.0),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _oracle(dens, i, rhos):
    w = dens.radial_weight(i)
    lo = dens.support_lo(i)
    if lo > 0.0:
        return jump_symbol_value(w, rhos, dens.d, dens.all_breakpoints(), lo)
    cut = min(dens.variants[i].profile.knots, default=1.0)
    above = jump_symbol_value(w, rhos, dens.d,
                              sorted({*dens.all_breakpoints(), cut}), cut)
    return above + [_origin_piece(dens, i, r, cut) for r in rhos]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_series_rows_match_quadrature_on_the_ladder(name, d):
    dens = CASES[name](d)
    for i in sorted({0, len(dens.variants) - 1}):
        rhos = _ladder(dens.variants[i].profile)
        got = dens.sweep("jsym", [i], [rhos])[0]
        np.testing.assert_allclose(got, _oracle(dens, i, rhos), rtol=1e-12,
                                   atol=0.0)
        # a series value does not depend on the batch it is computed in
        for j in range(rhos.size):
            assert dens.sweep("jsym", [i], [rhos[j:j + 1]])[0].tobytes() \
                == got[j:j + 1].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_a_pure_power_series_is_the_stable_closed_form(d):
    # coeff = c(d, alpha) makes n the stable density of scale 1, whose
    # symbol is rho^alpha (the Mellin constant alone: no knot, no series)
    rhos = np.geomspace(2.0 ** -24, 2.0 ** 24, 49)
    for alpha in (0.3, 1.0, 1.7):
        dens = power_density(d, alpha, coeff=stable_coefficient(d, alpha))
        np.testing.assert_allclose(dens.jump_symbol(rhos), rhos ** alpha,
                                   rtol=1e-13, atol=0.0)


def test_classify_runs_no_quadrature_on_the_series_ladder(monkeypatch):
    # the radial_cold power model: every radius its verdict ladders read
    # lies in the series' reach, and the driftless model has no Im q, so
    # sector_check evaluates no Re q at larger radii
    calls = []

    def counted(f, rho, d, bps, lo):
        calls.append(np.ravel(rho))
        return jump_symbol_value(f, rho, d, bps, lo)

    monkeypatch.setattr(densities, "jump_symbol_value", counted)
    u0 = 0.92
    classify(radial_jump_model(power_density(3, (0.8, 1.2), u0=u0)), 0.3)
    assert len(calls) == 0


#: the power and stable models of the radial_cold benchmark workload
RADIAL_POWER = {"family": "radial_jump", "d": 3, "parameters": {"density": {
    "kind": "power", "alpha": {"lo": 0.8, "hi": 1.2}, "u0": 0.92}}}
RADIAL_STABLE = {"family": "radial_jump", "d": 2, "parameters": {"density": {
    "kind": "stable", "alpha": {"lo": 0.6, "hi": 1.4}, "gamma": 1.0}}}


def test_classify_and_kappa_boundary_run_no_tail_quadrature(monkeypatch):
    # a table's tail mass, T3 and second moment are closed forms, and the
    # jump symbols these verdicts read are series: no octave sum and no
    # jump-symbol quadrature runs on the radial_cold and kappa_star models
    calls = []

    def count(module, name):
        sweep = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (densities, quadrature):
        for name in ("tail_cumulative", "origin_cumulative",
                     "jump_symbol_value"):
            count(module, name)
    for cfg, kappas in ((RADIAL_POWER, (0.3, 0.85, 3.4, 4.1)),
                        (RADIAL_STABLE, (0.03, 0.1, 3.0, 3.6))):
        model = model_from_config(cfg)
        for kappa in kappas:
            classify(model, kappa)
    kappa_boundary(isotropic_stable(3, 1.0))
    kappa_boundary(stable_like(2, alpha=(0.5, 1.5)))
    assert calls == []


def test_classify_of_a_driftless_model_leaves_numpy_random_unimported():
    # a driftless model has no Im q, so its sector check samples no
    # directions; a fresh interpreter, so nothing else has imported it yet
    src = str(Path(densities.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from levy_transience.classifier import classify\n"
            "from levy_transience.symbols import model_from_config\n"
            f"print(classify(model_from_config({RADIAL_POWER!r}), 0.3)"
            ".verdict)\n"
            "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["strongly_transient", "False"]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_piece_at_a_pole_of_the_series_stays_on_quadrature(d):
    # alpha = 2 puts beta = -2 on the pole 2k + beta = 0 of the k = 1 term
    # (and the Mellin constant's pole): no RuntimeWarning, and the value is
    # the quadrature's bit for bit
    dens = finite_range_density(d, 2.0)
    rhos = _ladder(dens.variants[0].profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dens.sweep("jsym", [0], [rhos])[0]
    assert np.all(np.isfinite(got) & (got > 0.0))
    want = jump_symbol_value(dens.radial_weight(0), rhos, d,
                             dens.all_breakpoints(), 1.0)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_a_knot_free_table_near_alpha_2_is_its_mellin_term(d, monkeypatch):
    # a knot-free piece uses only its Mellin constant, never G, so the pole
    # margin of G does not apply: slope + d within 0.1 of -2 keeps the
    # series (no quadrature), within 5e-13 of gamma rho^alpha
    calls = []

    def counted(f, rho, d, bps, lo):
        calls.append(np.ravel(rho))
        return jump_symbol_value(f, rho, d, bps, lo)

    monkeypatch.setattr(densities, "jump_symbol_value", counted)
    rhos = np.geomspace(2.0 ** -24, 2.0 ** 24, 49)
    for alpha in (1.9, 1.95, 1.99, 1.999):
        for gamma in (1.0, 0.37):
            dens = densities.stable_density(d, alpha, gamma=gamma)
            np.testing.assert_allclose(dens.jump_symbol(rhos),
                                       gamma * rhos ** alpha, rtol=5e-13,
                                       atol=0.0)
    assert calls == []


@pytest.mark.parametrize("d", [3, 4, 5])
def test_a_stable_process_near_alpha_2_at_a_huge_scale_warns_nothing(d):
    # the jump symbols of isotropic_stable(d, 1.9, gamma=1e300) were run by
    # quadrature, whose profile overflowed; the Mellin term does not, and
    # every verdict lies on the side of kappa* = d / 1.9 - 1
    model = isotropic_stable(d, 1.9, gamma=1e300)
    kappa_star = d / 1.9 - 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (0.0, 1.5, 30.0, 64.0):
            assert classify(model, kappa).verdict == (
                "strongly_transient" if kappa < kappa_star
                else "weakly_transient"), kappa
        assert kappa_boundary(model, hi=64.0) == pytest.approx(kappa_star,
                                                               abs=0.01)
