import json
import math
import warnings

import numpy as np
import pytest

from levy_transience.cf_integrals import strong_integral_kappa, weak_integral_kappa
from levy_transience.classifier import classify
from levy_transience.densities import (
    modified_density,
    power_density,
    power_log_density,
    stable_density,
    table_density,
)
from levy_transience.index_rules import (
    index_bound_rules,
    index_exact_rules,
    moment_rules,
    pruitt_indices,
    shape_diagnostic,
    uniform_second_moment,
)
from levy_transience.quadrature import sphere_surface
from levy_transience.symbols import (
    brownian_drift,
    custom_model,
    finite_jump_model,
    isotropic_stable,
    radial_jump_model,
    stable_like,
)
from levy_transience.verdicts import CONVERGES, DIVERGES


def _fired(rules, model, kappa):
    return {rule_id: side for side, rule_id, _, _ in rules(model, kappa)}


def test_stable_index_recovery():
    idx = pruitt_indices(isotropic_stable(2, 1.3))
    assert idx.lower == pytest.approx(1.3, abs=0.02)
    assert idx.upper == pytest.approx(1.3, abs=0.02)


def test_brownian_index_two(bm3):
    idx = pruitt_indices(bm3)
    assert idx.lower == pytest.approx(2.0, abs=0.02)
    assert idx.upper == pytest.approx(2.0, abs=0.02)


def test_interval_stable_like_indices():
    model = stable_like(2, alpha=(0.6, 1.4), gamma=1.0)
    idx = pruitt_indices(model)
    assert idx.lower == pytest.approx(0.6, abs=0.03)
    assert idx.upper == pytest.approx(1.4, abs=0.03)


def test_index_order_and_state_independence():
    fixtures = [isotropic_stable(1, 0.5), isotropic_stable(3, 1.8),
                brownian_drift(2, c=(0.5, 2.0)),
                stable_like(2, alpha=(0.6, 1.4), gamma=1.0)]
    for model in fixtures:
        idx = pruitt_indices(model)
        assert idx.lower <= idx.upper + 0.02
        assert 0.0 <= idx.lower <= 2.0 + 0.02
    for model in (isotropic_stable(2, 0.9), brownian_drift(3)):
        idx = pruitt_indices(model)
        assert idx.lower == pytest.approx(idx.upper, abs=0.02)


def test_scale_invariance_of_indices():
    a = pruitt_indices(isotropic_stable(2, 1.1, gamma=1.0))
    b = pruitt_indices(isotropic_stable(2, 1.1, gamma=3.0))
    assert a.lower == pytest.approx(b.lower, abs=0.02)
    assert a.upper == pytest.approx(b.upper, abs=0.02)


def test_index_bound_rules_cases():
    # d = 1 < (2 + 1) * 0.5: the lower index gives the weak side
    assert _fired(index_bound_rules, isotropic_stable(1, 0.5), 2.0) \
        == {"index-lower-sufficient": "weak"}
    # d = 3 < (1 + 1) * 2
    assert _fired(index_bound_rules, brownian_drift(3), 1.0) \
        == {"index-lower-sufficient": "weak"}
    # boundary d = (kappa+1)*lower is excluded (strict inequality)
    assert _fired(index_bound_rules, isotropic_stable(2, 1.0), 1.0) == {}


def test_moment_rules_cases(bm3, bm5):
    assert _fired(moment_rules, bm3, 1.0) == {"second-moment-weak": "weak"}
    assert _fired(moment_rules, bm5, 1.0) == {"nondegeneracy-strong": "strong"}
    fj = finite_jump_model(2, alpha=3.0)
    assert math.isfinite(uniform_second_moment(fj))
    assert _fired(moment_rules, fj, 1.0) == {"second-moment-weak": "weak"}


def test_a_custom_model_states_no_second_moment():
    # its Levy measure is unknown, not zero: no second-moment-weak
    model = custom_model(1, lambda x, xi: abs(xi[0]) ** 0.8,
                         x_independent=True)
    assert uniform_second_moment(model) is None
    assert _fired(moment_rules, model, 0.175) == {}


@pytest.mark.parametrize("gamma", [1e-300, 1e-20, 1.0, 1.7e308])
def test_nondegeneracy_fires_at_every_scale(gamma):
    # q / rho^2 = gamma rho^-0.8 has a positive floor at every scale (an
    # absolute threshold of 1e-12 once dropped the rule at small gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fired(moment_rules, isotropic_stable(5, 1.2, gamma=gamma),
                      0.5) == {"nondegeneracy-strong": "strong"}


def test_second_moment_infinite_for_stable():
    assert uniform_second_moment(isotropic_stable(2, 1.2)) == math.inf


@pytest.mark.parametrize("gamma", [1.0, 1e-50, 1e-100, 1e-200, 1e-300])
def test_second_moment_infinite_for_stable_at_any_scale(gamma):
    # a tiny scale makes the tail integrand underflow; the tail index alone
    # says the second moment is infinite
    assert uniform_second_moment(isotropic_stable(3, 1.0, gamma=gamma)) \
        == math.inf


def test_second_moment_rule_silent_for_a_tiny_scale_stable():
    assert _fired(moment_rules, isotropic_stable(3, 1.0, gamma=1e-100),
                  0.5) == {}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_second_moment_of_a_table_reads_its_tail_slope(d):
    # tail slope -(d + a): the second moment is infinite for a <= 2, also
    # where the profile underflows before the octave sum sees it diverge
    # (d >= 3); finite for a > 2
    def model(a):
        tail = 1e-3 * (40.0 / 3.0) ** -(d + a)
        return radial_jump_model(
            table_density(d, [0.5, 3.0, 40.0], [1e-1, 1e-3, tail]))

    for a in (0.4, 1.2, 1.95):
        assert uniform_second_moment(model(a)) == math.inf
    assert math.isfinite(uniform_second_moment(model(2.5)))


def test_index_band_of_a_fast_decaying_table_stays_on_the_strong_side():
    # tail slope -6.2 in d = 5: kappa* = 5 / 1.2 - 1 = 3.17, and below it
    # no weak-side index rule may fire
    model = radial_jump_model(table_density(
        5, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-3 * (40.0 / 3.0) ** -6.2]))
    for kappa in (1.5, 2.0, 3.0):
        report = classify(model, kappa, methods=("index",))
        assert "weak" not in {r.verdict for r in report.fired_rules}
        assert report.verdict != "weakly_transient"


@pytest.mark.parametrize("d, exponent", [(4, -5.5), (5, -6.2)])
def test_second_moment_of_a_power_log_tail_reads_its_exponent(d, exponent):
    # tail u^exponent above u^-(d+2): the second moment is infinite, also
    # where the profile underflows before the octave sum sees it diverge
    dens = power_log_density(d, exponent, 0.0, coeff=1e-3)
    assert dens.variants[0].tail_slope == exponent
    assert uniform_second_moment(radial_jump_model(dens)) == math.inf


def test_second_moment_of_a_boundary_power_log_tail_is_left_to_the_log():
    # the tail slope is the exponent, but the shortcut to an infinite second
    # moment at u^-(d+2) covers only a log exponent >= -1 (tables have 0):
    # (ln u)^-2 gives the finite second moment int t^-2 dt
    dens = power_log_density(3, -5.0, -2.0)
    assert dens.variants[0].tail_slope == -5.0
    assert math.isfinite(uniform_second_moment(radial_jump_model(dens)))


@pytest.mark.parametrize("coeff", [1.0, 1e-300])
def test_second_moment_of_a_boundary_table_tail_is_infinite(coeff):
    # a table at slope exactly -(d+2): int u^4 n du = int u^-1 du diverges,
    # although at coeff 1e-300 the quadrature's integrand underflows; a
    # replacement below a radius, a callable, keeps the table's tail
    dens = power_density(3, 2.0, coeff=coeff, u0=1.0)
    replaced = modified_density(dens, 2.0,
                                replacement=lambda u: np.full_like(u, coeff))
    for density in (dens, replaced):
        assert uniform_second_moment(radial_jump_model(density)) == math.inf


def test_second_moment_of_a_log_divergent_boundary_tail_is_infinite():
    # n = u^-5 (ln u)^-0.5 in d = 3: int u^4 n du = int t^-0.5 dt diverges,
    # and the stated log exponent says so before any quadrature (the
    # profile underflows past u ~ 2^215)
    model = radial_jump_model(power_log_density(3, -5.0, -0.5))
    assert uniform_second_moment(model) == math.inf


def test_index_band_of_a_power_log_tail_fires_no_wrong_side_rule():
    # tail u^-5.5 in d = 4: kappa* = 4 / 1.5 - 1 = 1.67, and at kappa 1
    # the infinite second moment leaves the index band without a rule
    model = radial_jump_model(power_log_density(4, -5.5, 0.0, coeff=1e-3))
    report = classify(model, 1.0, methods=("index",))
    assert report.fired_rules == ()
    assert report.verdict != "weakly_transient"


def test_second_moment_of_a_cut_off_power_tail_with_alpha_above_two():
    # int_{u0}^inf u^2 * S_3 u^2 * c u^{-3-alpha} du = S_3 c u0^{2-alpha}/(alpha-2)
    alpha, c, u0 = 2.5, 1.0, 1.0
    model = radial_jump_model(power_density(3, alpha, coeff=c, u0=u0))
    want = sphere_surface(3) * c * u0 ** (2.0 - alpha) / (alpha - 2.0)
    assert uniform_second_moment(model) == pytest.approx(want, rel=1e-10)


def test_shape_diagnostic_cases():
    # convex radial profile, kappa+1 >= d: no rule fires
    assert _fired(shape_diagnostic, isotropic_stable(1, 1.5), 1.0) == {}
    # concave inf-profile with kappa+1 < d: strong side implied
    assert _fired(shape_diagnostic, isotropic_stable(3, 0.7), 1.0) \
        == {"shape-concave-inf": "strong"}


def test_rule_soundness_against_integral_tests():
    cases = [
        (brownian_drift(3), 3, 1.0),
        (brownian_drift(5), 5, 1.0),
        (isotropic_stable(1, 0.5), 1, 2.0),
        (isotropic_stable(2, 0.8), 2, 1.0),
        (isotropic_stable(3, 1.5), 3, 0.4),
        (finite_jump_model(2, alpha=3.0), 2, 1.0),
    ]
    for model, d, kappa in cases:
        assert model.d == d
        for rules in (index_bound_rules, moment_rules, shape_diagnostic):
            for side, rule_id, _, _ in rules(model, kappa):
                if side == "weak":
                    assert weak_integral_kappa(model, kappa, 1.0) \
                        .decided_state == DIVERGES, \
                        (model.family, d, kappa, rule_id)
                else:
                    assert strong_integral_kappa(model, kappa, 1.0) \
                        .decided_state == CONVERGES, \
                        (model.family, d, kappa, rule_id)


def test_every_rule_of_every_band_is_a_fired_side_record():
    # the Monte Carlo validation suite, a finite-jump and a radial-jump
    # model: closed-form and index rules alike yield (side, rule_id,
    # statement, detail) for the rules that fire, and the detail goes into
    # report.json
    models = [brownian_drift(3), brownian_drift(5), isotropic_stable(1, 0.5),
              isotropic_stable(3, 1.0), isotropic_stable(3, 1.5),
              isotropic_stable(3, 0.5), finite_jump_model(2, alpha=3.0),
              radial_jump_model(stable_density(3, 1.2))]
    fired = set()
    for model in models:
        for kappa in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
            for rules in (index_exact_rules, index_bound_rules,
                          moment_rules, shape_diagnostic):
                for rule in rules(model, kappa):
                    assert isinstance(rule, tuple) and len(rule) == 4
                    side, rule_id, statement, detail = rule
                    assert side in ("weak", "strong")
                    assert isinstance(rule_id, str) and statement
                    json.dumps(detail)
                    fired.add(rule_id)
    assert {"index-lower-sufficient", "second-moment-weak",
            "nondegeneracy-strong", "shape-concave-inf", "index-exact-weak",
            "index-exact-strong"} <= fired


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
def test_shape_rule_reads_a_profile_at_the_top_of_the_float_range(d, alpha):
    # gamma rho^alpha near 1.7e308 on the shape window: its second
    # difference overflowed (2 * vals), now the window is scaled by a
    # power of two first
    model = isotropic_stable(d, alpha, gamma=1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (0.0, 0.5, 2.0, 8.0):
            verdict = classify(model, kappa).verdict
            assert verdict == ("weakly_transient" if kappa > d / alpha - 1.0
                               else "strongly_transient"), kappa


def test_quadratic_floor_counts_atoms():
    import dataclasses

    from levy_transience.densities import power_density
    from levy_transience.index_rules import _quadratic_floor
    from levy_transience.quadrature import one_minus_wave_kernel
    from levy_transience.symbols import radial_jump_model

    dens = power_density(3, 1.5, u0=30.0)
    with_atom = dataclasses.replace(dens, atoms=((30.0, 0.5),))
    # q / rho^2 grows as rho -> 0 with or without the atom, so the floor of
    # the liminf half sits at its largest radius 2^-10, where the atom (mass
    # 0.5 on the sphere of radius 30) adds 0.5 (1 - psi_3(30 rho)) / rho^2
    # (close to its |y|^2 mass over 2d, 75)
    rho = 2.0 ** -10
    gain = _quadratic_floor(radial_jump_model(with_atom)) \
        - _quadratic_floor(radial_jump_model(dens))
    assert gain == pytest.approx(
        0.5 * one_minus_wave_kernel(30.0 * rho, 3) / rho ** 2, rel=1e-12)


def test_uniform_second_moment_counts_atoms():
    import dataclasses

    from levy_transience.densities import power_density
    from levy_transience.index_rules import uniform_second_moment
    from levy_transience.symbols import radial_jump_model

    dens = power_density(3, 2.5, u0=1.0)
    with_atom = dataclasses.replace(dens, atoms=((0.5, 2.0),))
    # the atom adds its |y|^2 mass 0.5^2 * 2
    gain = uniform_second_moment(radial_jump_model(with_atom)) \
        - uniform_second_moment(radial_jump_model(dens))
    assert gain == pytest.approx(0.5 ** 2 * 2.0, rel=1e-12)
