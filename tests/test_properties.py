"""Property-based tests of the radial jump symbol, of the verdict layer and
of the kappa ordering of classify and kappa_boundary."""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levy_transience import classifier
from levy_transience.classifier import (
    ALL_METHODS,
    GATE_RECURRENT,
    STRONGLY_TRANSIENT,
    WEAKLY_TRANSIENT,
    classify,
    classify_verdict,
    kappa_boundary,
    transience_gate,
)
from levy_transience.densities import stable_coefficient
from levy_transience.errors import ConfigurationError, LevyTransienceError
from levy_transience.quadrature import (
    jump_symbol_value,
    sphere_surface,
)
from levy_transience.symbols import (
    ENV_INF_RE,
    ENV_SUP_ABS,
    ENV_SUP_ABS_IM,
    brownian_drift,
    eval_symbol,
    isotropic_stable,
    model_from_config,
    _envelope,
)
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

    def symbol(rhos):
        return jump_symbol_value(weight, rhos, d, (), 0.0)

    lone = symbol([rho])[0]
    assert math.isclose(lone, rho ** alpha, rel_tol=1e-8)
    ladder = symbol(np.append(np.geomspace(1e-7, 1e3, 99), rho))
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


def _verdict_or_error(call):
    try:
        return call()
    except LevyTransienceError as exc:
        return type(exc)


@given(model=transient_candidates(), kappa=st.floats(0.0, 64.0),
       methods=st.lists(st.sampled_from(ALL_METHODS), unique=True).map(tuple))
def test_classify_verdict_is_the_verdict_classify_reports(model, kappa,
                                                          methods):
    want = _verdict_or_error(
        lambda: classify(model, kappa, methods=methods).verdict)
    got = _verdict_or_error(
        lambda: classify_verdict(model, kappa, 1.0, methods, None))
    if got == want:
        return
    # classify raised in some band; the verdict path stopped above it
    assert isinstance(want, type) and isinstance(got, str)
    assert any(got == _verdict_or_error(lambda: classify(
        model, kappa, methods=tuple(m for m in methods
                                    if classifier._PRECEDENCE[m] > level))
        .verdict) for level in (1, 2))


@given(model=transient_candidates())
def test_kappa_boundary_lies_between_a_strong_and_a_weak_probe(model):
    probes = []

    def recorded(*args):
        verdict = classify_verdict(*args)
        probes.append((args[1], verdict))
        return verdict

    tol = 0.01
    with mock.patch.object(classifier, "classify_verdict", recorded):
        kappa_star = kappa_boundary(model, tol=tol, hi=64.0)
    strong = [k for k, v in probes if v == STRONGLY_TRANSIENT]
    weak = [k for k, v in probes if v == WEAKLY_TRANSIENT]
    assert max(strong) <= kappa_star <= min(weak)
    assert min(weak) - max(strong) <= tol


@given(d=st.integers(1, 4), step=st.integers(1, 2),
       brownian=st.booleans(), alpha=st.floats(0.1, 1.9),
       scale=st.floats(-300.0, 250.0).map(lambda e: 10.0 ** e),
       kappa=st.floats(0.0, 3.0),
       methods=st.sampled_from([ALL_METHODS, ("integral", "tail", "index")]))
def test_raising_the_dimension_never_turns_strong_into_weak(
        d, step, brownian, alpha, scale, kappa, methods):
    # transience with respect to the dimension: kappa* = d/alpha - 1 (alpha
    # = 2 for Brownian motion) grows with d, so a process strongly
    # transient in d is not weakly transient in a higher dimension
    def verdict(dim):
        model = brownian_drift(dim, c=scale) if brownian \
            else isotropic_stable(dim, alpha, gamma=scale)
        if transience_gate(model) == GATE_RECURRENT:
            return None
        return classify(model, kappa, methods=methods).verdict

    assert not (verdict(d) == STRONGLY_TRANSIENT
                and verdict(d + step) == WEAKLY_TRANSIENT)


# -- model files: valid configs classify, a corrupted field is named --------

_PROFILES = ("cos", "sin", "step")


def _scalar(draw, lo, hi):
    """A constant in [lo, hi], or an interval inside it in one of its three
    JSON forms: {lo, hi, profile}, [lo, hi] or [lo, hi, profile]."""
    a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
    profile = draw(st.sampled_from(_PROFILES))
    return draw(st.sampled_from([a, {"lo": a, "hi": b, "profile": profile},
                                 [a, b], [a, b, profile]]))


def _density(draw, d):
    kind = draw(st.sampled_from(["power", "radial_density", "stable",
                                 "power_log", "table"]))
    if kind in ("power", "radial_density"):
        u0 = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        return {"kind": kind, "alpha": _scalar(draw, 0.1, 1.9 if u0 == 0.0
                                               else 3.0),
                "coeff": _scalar(draw, 0.5, 2.0), "u0": u0}
    if kind == "stable":
        return {"kind": kind, "alpha": _scalar(draw, 0.1, 1.9),
                "gamma": _scalar(draw, 0.2, 3.0)}
    if kind == "power_log":
        return {"kind": kind, "exponent": -d - draw(st.floats(0.1, 3.0)),
                "log_exponent": draw(st.floats(-2.0, 2.0)),
                "u_start": draw(st.floats(1.5, 4.0))}
    u = np.cumsum([draw(st.floats(0.5, 20.0)) for _ in range(
        draw(st.integers(2, 4)))])
    slope = d + draw(st.floats(0.1, 3.0))
    return {"kind": kind, "u": u.tolist(), "n": (u ** -slope).tolist(),
            "u0": draw(st.sampled_from([0.0, 1.0]))}


@st.composite
def model_configs(draw):
    """A JSON model config of every loadable family in d = 1..5, with
    optional drift and assumptions."""
    d = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["brownian_drift", "isotropic_stable",
                                   "stable_like", "radial_jump",
                                   "finite_jump"]))

    def vector():
        return [draw(st.floats(-1.0, 1.0)) for _ in range(d)]

    params = {}
    if family == "brownian_drift":
        if draw(st.booleans()):
            params["c"] = _scalar(draw, 0.1, 4.0)
        else:
            A = np.reshape([draw(st.floats(-1.0, 1.0)) for _ in range(d * d)],
                           (d, d))
            params["C"] = (A @ A.T).tolist()
        if draw(st.booleans()):
            params["b"] = vector()
    elif family == "isotropic_stable":
        params = {"alpha": draw(st.floats(0.1, 1.9)),
                  "gamma": draw(st.floats(0.2, 3.0))}
    elif family == "stable_like":
        params = {"alpha": _scalar(draw, 0.1, 1.9),
                  "gamma": _scalar(draw, 0.2, 3.0)}
        if draw(st.booleans()):
            params["beta"] = vector()
    elif family == "radial_jump":
        params["density"] = _density(draw, d)
    else:
        params["alpha"] = _scalar(draw, 0.2, 3.0)
    cfg = {"family": family, "d": d, "parameters": params}
    if draw(st.booleans()):
        cfg["assumptions"] = {"weak_test_hypothesis": draw(st.booleans())}
    return cfg


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_envelopes_bound_the_symbol_on_the_safe_side(data):
    # every test reads q only through sup|q|, inf Re q and sup|Im q| over
    # states; each must be exact or err on the safe side at every state
    try:
        model = model_from_config(data.draw(model_configs()))
    except LevyTransienceError:
        assume(False)
    coordinate = st.one_of(st.sampled_from([0.0, math.pi, -math.pi]),
                           st.floats(-10.0, 10.0))
    for _ in range(3):
        x = np.array([data.draw(coordinate) for _ in range(model.d)])
        direction = np.array([data.draw(st.floats(-1.0, 1.0))
                              for _ in range(model.d)])
        assume(np.linalg.norm(direction) > 1e-3)
        xi = direction / np.linalg.norm(direction) \
            * 10.0 ** data.draw(st.floats(-3.0, 2.0))
        q = eval_symbol(model, x, xi)
        sup = _envelope(model, ENV_SUP_ABS, xi)
        inf = _envelope(model, ENV_INF_RE, xi)
        sup_im = _envelope(model, ENV_SUP_ABS_IM, xi)
        assert abs(q) <= sup * (1.0 + 1e-12)
        assert q.real >= inf - 1e-12 * abs(inf)
        assert abs(q.imag) <= sup_im * (1.0 + 1e-12)


@settings(max_examples=40)
@given(cfg=model_configs(), kappa=st.floats(0.0, 4.0))
def test_a_valid_config_classifies_or_raises_a_package_error(cfg, kappa):
    try:
        classify(model_from_config(cfg), kappa)
    except LevyTransienceError:
        pass


# a field of a section is named by its path; the values below it (interval
# bounds, vector entries) are named by the field's path
_SECTIONS = {(): "", ("parameters",): "parameters.",
             ("parameters", "density"): "parameters.density.",
             ("assumptions",): "assumptions."}


def _corruptions(cfg, keys=()):
    """(keys to a value, the field path an error must name, bad value) for
    every value of a config: a wrong type, NaN, inf or a bool for numbers,
    lo > hi for intervals, an unknown name, a string or a number for a
    bool, a fixed-length vector one too long, and in every section a key
    the loader does not read."""
    yield keys + ("zigzag",), _SECTIONS[keys] + "zigzag", 1.0
    for key, value in cfg.items():
        here = keys + (key,)
        name = _SECTIONS[keys] + key
        if here in _SECTIONS:
            yield here, name, "x"
            yield from _corruptions(value, here)
        elif isinstance(value, str):   # family, kind
            yield from ((here, name, bad) for bad in ("zigzag", 7))
        elif isinstance(value, bool):   # an assumption
            yield from ((here, name, bad) for bad in ("false", 1))
        else:
            yield from _value_corruptions(here, name, value)
            if key in ("b", "beta"):
                yield here, name, value + [0.0]


def _value_corruptions(keys, name, value):
    yield keys, name, "x"
    if isinstance(value, (int, float)):
        yield from ((keys, name, bad) for bad in (math.nan, math.inf, True))
        return
    entries = value.items() if isinstance(value, dict) else enumerate(value)
    for k, v in entries:
        if isinstance(v, str):   # an interval's profile
            yield from ((keys + (k,), name, bad) for bad in ("zigzag", 7))
        else:
            yield from _value_corruptions(keys + (k,), name, v)
    lo, hi = ("lo", "hi") if isinstance(value, dict) else (0, 1)
    if name.endswith(("alpha", "gamma", "c", "coeff")) \
            and isinstance(value[lo], float):
        yield keys + (lo,), name, value[hi] + 0.5


def _replaced(cfg, keys, bad):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = bad
    return cfg


@settings(max_examples=150)
@given(data=st.data())
def test_a_corrupted_config_field_is_named_in_the_error(data):
    cfg = data.draw(model_configs())
    keys, name, bad = data.draw(st.sampled_from(list(_corruptions(cfg))))
    with pytest.raises(ConfigurationError) as err:
        model_from_config(_replaced(cfg, keys, bad))
    assert f"'{name}'" in str(err.value)


@pytest.mark.parametrize("cfg, name", [
    ({"family": "brownian_drift", "d": 3, "parameters": {"c": math.nan}},
     "parameters.c"),
    ({"family": "brownian_drift", "d": 3, "parameters": {"c": math.inf}},
     "parameters.c"),
    ({"family": "brownian_drift", "d": 3,
      "parameters": {"b": [math.nan, 0.0, 0.0]}}, "parameters.b"),
    ({"family": "finite_jump", "d": 1,
      "parameters": {"alpha": {"lo": 1.5, "hi": 0.5}}}, "parameters.alpha"),
    ({"family": "stable_like", "d": 1,
      "parameters": {"alpha": {"lo": 0.5, "hi": 1.5, "profile": "tan"}}},
     "parameters.alpha"),
    ({"family": "stable_like", "d": 1, "parameters": {"alpha": 1.0},
      "envelope_mode": "closed"}, "envelope_mode"),
    # a JSON bool is not a number, and a string is not a bool
    ({"family": "stable_like", "d": 1, "parameters": {"alpha": True}},
     "parameters.alpha"),
    ({"family": "brownian_drift", "d": 2, "parameters": {"c": True}},
     "parameters.c"),
    ({"family": "brownian_drift", "d": 2,
      "parameters": {"b": [True, False]}}, "parameters.b"),
    ({"family": "radial_jump", "d": 2, "parameters": {"density": {
        "kind": "power", "alpha": 0.5, "u0": True}}},
     "parameters.density.u0"),
    ({"family": "radial_jump", "d": 3, "parameters": {"density": {
        "kind": "table", "u": [1, 10, 100], "n": [1e-1, 1e-5, 1e-9],
        "u0": 1.0, "monotone": "false"}}}, "parameters.density.monotone"),
    # assumptions are typed: a string is not a bool or a sector constant,
    # the constant lies in [0, 1), and a misspelt key is an error
    ({"family": "isotropic_stable", "d": 3, "parameters": {"alpha": 1.0},
      "assumptions": {"sector_constant": "0.5"}},
     "assumptions.sector_constant"),
    ({"family": "isotropic_stable", "d": 3, "parameters": {"alpha": 1.0},
      "assumptions": {"sector_constant": 1.0}},
     "assumptions.sector_constant"),
    ({"family": "stable_like", "d": 2,
      "parameters": {"alpha": [0.6, 1.4, "step"]},
      "assumptions": {"weak_test_hypothesis": "false"}},
     "assumptions.weak_test_hypothesis"),
    ({"family": "radial_jump", "d": 3, "parameters": {"density": {
        "kind": "power", "alpha": 1.0, "u0": 1.0}},
      "assumptions": {"perturbation_margin": 1}},
     "assumptions.perturbation_margin"),
    ({"family": "brownian_drift", "d": 2, "parameters": {"c": 1.0},
      "assumptions": {"irreducable": True}}, "assumptions.irreducable"),
    ({"family": "brownian_drift", "d": 2, "parameters": {"c": 1.0},
      "assumptions": {"irreducible": "yes"}}, "assumptions.irreducible"),
    # a section is a JSON object, not a list of key-value pairs
    ({"family": "stable_like", "d": 2, "parameters": [["alpha", 1.2]]},
     "parameters"),
    ({"family": "stable_like", "d": 2, "parameters": {"alpha": 1.2},
      "assumptions": [["irreducible", False]]}, "assumptions"),
    ({"family": "radial_jump", "d": 3, "parameters": {"density": [
        ["kind", "power"], ["alpha", 1.0], ["u0", 1.0]]}},
     "parameters.density"),
    # c and C both set the diffusion: one of them would be dropped
    ({"family": "brownian_drift", "d": 2,
      "parameters": {"c": 5.0, "C": [[1, 0], [0, 1]]}}, "parameters.c"),
])
def test_corruptions_the_loader_once_accepted_are_named(cfg, name):
    with pytest.raises(ConfigurationError) as err:
        model_from_config(cfg)
    assert f"'{name}'" in str(err.value)
