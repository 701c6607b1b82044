"""Property-based tests of the radial jump symbol, of the verdict layer and
of the kappa ordering of classify and kappa_boundary."""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from levy_transience import classifier
from levy_transience.classifier import (
    ALL_METHODS,
    GATE_RECURRENT,
    STRONGLY_TRANSIENT,
    WEAKLY_TRANSIENT,
    classify,
    kappa_boundary,
    transience_gate,
)
from levy_transience.densities import stable_coefficient
from levy_transience.quadrature import jump_symbol_value, sphere_surface
from levy_transience.symbols import brownian_drift, isotropic_stable
from levy_transience.verdicts import (
    AT_INFINITY,
    AT_ORIGIN,
    _line,
    verdict_from_radial_integrand,
)


@given(alpha=st.floats(0.2, 1.8), d=st.sampled_from([1, 3]),
       log_rho=st.floats(math.log(1e-7), math.log(1e3)))
def test_stable_jump_symbol_is_rho_to_the_alpha_alone_or_in_a_ladder(
        alpha, d, log_rho):
    # the radial weight of the isotropic stable measure has the jump symbol
    # rho^alpha; inside a 100-radius ladder (second wave-tail chunk, shared
    # near part and plain tail) it keeps its lone-radius value
    rho = math.exp(log_rho)
    coef = sphere_surface(d) * stable_coefficient(d, alpha)

    def weight(u):
        return coef * u ** (-1.0 - alpha)

    lone = jump_symbol_value(weight, rho, d)
    assert math.isclose(lone, rho ** alpha, rel_tol=1e-8)
    ladder = jump_symbol_value(weight,
                               np.append(np.geomspace(1e-7, 1e3, 99), rho), d)
    assert math.isclose(ladder[-1], lone, rel_tol=1e-13)


@given(exponent=st.floats(-3.0, 1.0), shift=st.floats(-3000.0, 3000.0),
       r=st.floats(1e-3, 10.0),
       singularity=st.sampled_from([AT_ORIGIN, AT_INFINITY]))
@example(exponent=-1.0, shift=3000.0, r=1.0, singularity=AT_ORIGIN)
@example(exponent=-1.0, shift=-3000.0, r=1.0, singularity=AT_INFINITY)
def test_verdict_ignores_the_scale_of_the_integrand(exponent, shift, r,
                                                    singularity):
    # G = e^shift * rho^exponent: the scale e^shift, far outside the float
    # range at the ends of the range, must not move the verdict
    def power(c):
        return verdict_from_radial_integrand(
            lambda rhos: c + exponent * np.log(rhos), r,
            singularity=singularity)

    got, want = power(shift), power(0.0)
    assert got.state == want.state
    assert got.refined_state == want.refined_state
    assert math.isclose(got.exponent, want.exponent, rel_tol=1e-9,
                        abs_tol=1e-9)
    assert not any(math.isnan(value) for _, value in got.partials)


@given(slope=st.floats(-1e3, 1e3), intercept=st.floats(-1e3, 1e3),
       shift=st.floats(-1.0, 1.0), span=st.floats(1e-2, 1e3),
       n=st.integers(3, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_line_matches_polyfit(slope, intercept, shift, span, n, seed):
    # well-conditioned data: abscissae spread over [x0, x0 + span] with
    # |x0| <= span, and noise; each coefficient is compared relative to its
    # natural scale
    rng = np.random.default_rng(seed)
    x0 = shift * span
    x = x0 + span * np.sort(rng.uniform(size=n))
    x[[0, -1]] = x0, x0 + span
    y = slope * x + intercept + rng.normal(size=n)
    (got_slope, got_icpt), (want_slope, want_icpt) = _line(x, y), \
        np.polyfit(x, y, 1)
    y_scale = np.abs(y).max()
    assert abs(got_slope - want_slope) <= 1e-12 * (abs(want_slope)
                                                  + y_scale / span)
    assert abs(got_icpt - want_icpt) <= 1e-12 * (abs(want_icpt) + y_scale)


@given(slope=st.integers(-1000, 1000), intercept=st.integers(-1000, 1000),
       x0=st.integers(-1000, 1000), log_n=st.integers(1, 5))
def test_line_recovers_an_exact_line_exactly(slope, intercept, x0, log_n):
    # 2^k integer points: every mean, difference and dot product is exact
    x = x0 + np.arange(2 ** log_n, dtype=float)
    assert _line(x, slope * x + intercept) == (slope, intercept)


@st.composite
def transient_candidates(draw):
    """Brownian motion or a rotation-invariant stable process, d in 1..5,
    at a scale 10^e, e in [-300, 250] (recurrent ones are skipped). Above
    about 1e260 the jump density's validity check overflows and rejects a
    valid stable measure, a defect of its own."""
    d = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.floats(-300.0, 250.0))
    if draw(st.booleans()):
        model = brownian_drift(d, c=scale)
    else:
        model = isotropic_stable(d, draw(st.floats(0.1, 1.9)), gamma=scale)
    assume(transience_gate(model) != GATE_RECURRENT)
    return model


@given(model=transient_candidates(),
       kappas=st.lists(st.floats(0.0, 64.0), min_size=2, max_size=2),
       methods=st.sampled_from([ALL_METHODS, ("integral", "tail", "index")]))
def test_weak_at_a_kappa_is_never_strong_at_a_larger_one(model, kappas,
                                                         methods):
    k1, k2 = sorted(kappas)
    assert not (classify(model, k1, methods=methods).verdict
                == WEAKLY_TRANSIENT
                and classify(model, k2, methods=methods).verdict
                == STRONGLY_TRANSIENT)


@given(model=transient_candidates())
def test_kappa_boundary_lies_between_a_strong_and_a_weak_probe(model):
    probes = []

    def recorded(*args, **kwargs):
        report = classify(*args, **kwargs)
        probes.append((args[1], report.verdict))
        return report

    tol = 0.01
    with mock.patch.object(classifier, "classify", recorded):
        kappa_star = kappa_boundary(model, tol=tol, hi=64.0)
    strong = [k for k, v in probes if v == STRONGLY_TRANSIENT]
    weak = [k for k, v in probes if v == WEAKLY_TRANSIENT]
    assert max(strong) <= kappa_star <= min(weak)
    assert min(weak) - max(strong) <= tol
