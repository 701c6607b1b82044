import json
import math

import numpy as np
import pytest

from levy_transience.cf_integrals import (
    strong_integral_kappa,
    weak_integral_kappa,
)
from levy_transience.errors import ConfigurationError
from levy_transience.symbols import (
    ENV_SUP_ABS,
    custom_model,
    envelope_is_radial,
    isotropic_stable,
    stable_like,
)
from levy_transience.verdicts import (
    AT_ORIGIN,
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    verdict_from_radial_integrand,
)


def test_weak_f_brownian_diverges(bm3):
    v = weak_integral_kappa(bm3, 1.0, 1.0)
    assert v.state == DIVERGES
    assert v.exponent == pytest.approx(-2.0, abs=0.02)


def test_weak_f_stable_converges(stable_05_d1):
    v = weak_integral_kappa(stable_05_d1, 0.5, 1.0)
    assert v.state == CONVERGES
    assert v.exponent == pytest.approx(-0.75, abs=0.02)


def test_weak_constant_weight_matches_closed_form(stable_15_d1):
    v = weak_integral_kappa(stable_15_d1, 0.0, 1.0)
    assert v.state == DIVERGES
    assert v.exponent == pytest.approx(-1.5, abs=0.02)
    # partial integrals against the closed form
    # I(eps) = S_1 * int_eps^1 rho^{-1.5} drho
    for eps, value in v.partials[5:10]:
        want = 2.0 * 2.0 * (eps ** -0.5 - 1.0)
        assert value == pytest.approx(want, rel=1e-9)


def test_strong_f_examples(bm5, stable_10_d3):
    v = strong_integral_kappa(bm5, 1.0, 1.0)
    assert v.state == CONVERGES
    assert v.exponent == pytest.approx(0.0, abs=0.02)
    v = strong_integral_kappa(stable_10_d3, 0.5, 1.0)
    assert v.state == CONVERGES
    assert v.exponent == pytest.approx(0.5, abs=0.02)


def test_kappa_specializations(bm3):
    assert weak_integral_kappa(bm3, 0.6, 1.0).state == DIVERGES
    assert weak_integral_kappa(bm3, 0.4, 1.0).state == CONVERGES
    assert strong_integral_kappa(bm3, 0.4, 1.0).state == CONVERGES


@pytest.mark.parametrize("kappa", [60.0, 200.0])
def test_power_weight_tests_decide_at_large_kappa(stable_10_d3, kappa):
    # the integrands are formed in log space, so |q|^(kappa + 1) does not
    # overflow; rho^2 / rho^(kappa + 1) diverges at 0 on both sides
    assert weak_integral_kappa(stable_10_d3, kappa, 1.0).state == DIVERGES
    assert strong_integral_kappa(stable_10_d3, kappa, 1.0).state == DIVERGES


def test_r_independence_examples(bm3):
    for model, kappa, radii in (
            (isotropic_stable(2, 1.0), 1.0, [0.5, 1.0, 2.0]),
            (bm3, 0.0, [0.1, 1.0]),
            (stable_like(2, alpha=(0.5, 1.5), gamma=1.0), 2.0, [0.5, 1.0])):
        assert envelope_is_radial(model, ENV_SUP_ABS)
        states = {weak_integral_kappa(model, kappa, r).decided_state
                  for r in radii}
        assert len(states) == 1, (model.family, kappa)


def test_monotone_in_kappa():
    model = isotropic_stable(1, 1.0)   # sup|q| = rho <= 1 on B(0,1)
    fired = False
    for kappa in np.linspace(0.0, 3.0, 13):
        state = weak_integral_kappa(model, float(kappa), 1.0).decided_state
        if fired:
            assert state == DIVERGES
        fired = fired or state == DIVERGES
    assert fired


def test_exponent_fit_accuracy_on_pure_powers():
    # custom model whose envelopes are exactly rho^s
    for d, s, kappa in [(1, 0.7, 0.3), (2, 1.2, 1.0), (3, 2.0, 0.25)]:
        envelopes = {
            "sup_abs": lambda xi, s=s: float(np.linalg.norm(xi) ** s),
            "inf_re": lambda xi, s=s: float(np.linalg.norm(xi) ** s),
            "sup_abs_im": lambda xi: 0.0,
        }
        model = custom_model(d, lambda x, xi: np.linalg.norm(xi) ** s,
                             envelopes=envelopes, x_independent=True)
        v = weak_integral_kappa(model, kappa, 1.0)
        want = d - 1.0 - s * (kappa + 1.0)
        assert abs(v.exponent - want) <= 0.02


def test_partials_non_decreasing(bm3, stable_05_d1):
    for model, kappa in ((bm3, 1.0), (stable_05_d1, 0.5)):
        v = weak_integral_kappa(model, kappa, 1.0)
        values = [val for _, val in v.partials]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_boundary_band_and_refinement():
    # exact boundary: integrand ~ 1/rho -> state inconclusive, refined diverges
    def log_G(rhos):
        return -np.log(rhos)

    v = verdict_from_radial_integrand(log_G, 1.0, singularity=AT_ORIGIN)
    assert v.state == INCONCLUSIVE
    assert v.refined_state == DIVERGES
    assert v.decided_state == DIVERGES

    def log_G2(rhos):
        return -0.98 * np.log(rhos)   # inside the band but convergent

    v = verdict_from_radial_integrand(log_G2, 1.0, singularity=AT_ORIGIN)
    assert v.state == INCONCLUSIVE
    assert v.refined_state == CONVERGES


def test_verdict_serialization(bm3):
    v = weak_integral_kappa(bm3, 1.0, 1.0)
    payload = v.to_json()
    assert set(payload) >= {"state", "exponent", "band", "partials"}
    assert payload["partials"][0].keys() == {"eps", "value"}
    json.dumps(payload)


def test_oscillatory_envelope_is_inconclusive():
    # log-periodic prefactor around the critical power: honest inconclusive
    def sup_env(xi):
        rho = float(np.linalg.norm(xi))
        return rho * (1.0 + 0.5 * math.sin(math.log(rho)))

    model = custom_model(
        1, lambda x, xi: sup_env(xi),
        envelopes={"sup_abs": sup_env, "inf_re": sup_env,
                   "sup_abs_im": lambda xi: 0.0},
        x_independent=True)
    v = weak_integral_kappa(model, 0.0, 1.0)
    assert v.state == INCONCLUSIVE


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_kappa_rejected(bm3, kappa):
    for test in (weak_integral_kappa, strong_integral_kappa):
        with pytest.raises(ConfigurationError, match="kappa"):
            test(bm3, kappa, 1.0)
