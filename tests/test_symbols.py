import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from levy_transience.densities import (
    DensityVariant,
    RadialLevyDensity,
    modified_density,
    power_density,
)
from levy_transience.errors import (
    ConfigurationError,
    DegenerateModelError,
    LevyMeasureError,
    ModelInvariantError,
)
from levy_transience.symbols import (
    ENV_INF_RE,
    ENV_SUP_ABS,
    ENV_SUP_ABS_IM,
    brownian_drift,
    custom_model,
    density_from_spec,
    envelope_is_radial,
    eval_symbol,
    finite_jump_model,
    isotropic_stable,
    model_from_config,
    radial_jump_model,
    sector_check,
    stable_like,
    symmetry_check,
    _envelope,
    _variant_for_state,
)


def test_stable_symbol_value(stable_05_d1):
    val = eval_symbol(stable_05_d1, None, [2.0])
    assert val == pytest.approx(2.0 ** 0.5, rel=1e-12)
    assert val.imag == 0.0


def test_symbol_vanishes_at_zero_frequency(bm3, stable_05_d1):
    rj = radial_jump_model(power_density(1, 0.5, u0=1.0))
    for model in (bm3, stable_05_d1, rj):
        assert eval_symbol(model, None, np.zeros(model.d)) == 0j
        assert _envelope(model, ENV_SUP_ABS, np.zeros(model.d)) == 0.0


def test_radial_jump_symbol_against_riemann_oracle():
    # n(u) = u^{-1.5} on u > 1, d = 1, xi = 1
    model = radial_jump_model(power_density(1, 0.5, u0=1.0))
    got = eval_symbol(model, None, [1.0]).real

    U = 1e4
    u = np.linspace(1.0, U, 1_000_001)
    core = simpson((1 - np.cos(u)) * u ** -1.5, x=u)
    pow_tail = 2.0 * U ** -0.5
    cos_tail = -math.sin(U) * U ** -1.5 + 1.5 * math.cos(U) * U ** -2.5
    oracle = 2.0 * (core + pow_tail - cos_tail)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_stable_like_envelopes_quarter():
    model = stable_like(2, alpha=(0.5, 1.5), gamma=1.0)
    xi = np.array([0.25, 0.0])
    assert _envelope(model, ENV_SUP_ABS, xi) == pytest.approx(0.5,
                                                              rel=1e-12)
    assert _envelope(model, ENV_INF_RE, xi) == pytest.approx(0.125,
                                                             rel=1e-12)
    # dense-alpha oracle: rho^alpha is monotone in alpha for rho < 1
    alphas = np.linspace(0.5, 1.5, 2001)
    assert _envelope(model, ENV_SUP_ABS, xi) == pytest.approx(
        np.max(0.25 ** alphas), rel=1e-9)
    assert _envelope(model, ENV_INF_RE, xi) == pytest.approx(
        np.min(0.25 ** alphas), rel=1e-9)


def test_brownian_envelopes(bm3):
    xi = np.array([2.0, 0.0, 0.0])
    assert _envelope(bm3, ENV_SUP_ABS, xi) == pytest.approx(2.0)
    assert _envelope(bm3, ENV_INF_RE, xi) == pytest.approx(2.0)
    assert _envelope(bm3, ENV_SUP_ABS_IM, xi) == 0.0


_PROFILE_NAMES = ("cos", "sin", "step")


@pytest.mark.parametrize("alpha_profile", _PROFILE_NAMES)
@pytest.mark.parametrize("gamma_profile", _PROFILE_NAMES)
def test_joint_stable_like_envelope_bounds_and_attainment(alpha_profile,
                                                          gamma_profile):
    # alpha and gamma both vary: the corner formula bounds q at every state
    # for every profile pair, and where the two profiles reach the corners
    # together (cos against step) the bounds are attained
    model = stable_like(1, alpha=(0.6, 1.4, alpha_profile),
                        gamma=(0.5, 2.0, gamma_profile))
    states = np.linspace(-10.0, 10.0, 201)
    for xi in ([0.3], [1.7]):
        q = np.asarray([eval_symbol(model, [x1], xi) for x1 in states])
        sup = _envelope(model, ENV_SUP_ABS, xi)
        inf = _envelope(model, ENV_INF_RE, xi)
        assert np.all(np.abs(q) <= sup * (1.0 + 1e-12))
        assert np.all(q.real >= inf * (1.0 - 1e-12))
        if {alpha_profile, gamma_profile} == {"cos", "step"}:
            # x1 = 0, -pi, pi and 2 pi reach the four (alpha, gamma)
            # corners; for rho < 1 both bounds sit at the first three
            xs = (0.0, -math.pi, math.pi) + (
                (2.0 * math.pi,) if xi == [1.7] else ())
            corners = [eval_symbol(model, [x1], xi) for x1 in xs]
            assert max(map(abs, corners)) == pytest.approx(sup, rel=1e-12)
            assert min(c.real for c in corners) == pytest.approx(inf,
                                                                 rel=1e-12)


def test_joint_stable_like_envelope_in_d12():
    # the sup and inf over states are the corners gamma_hi rho^alpha_lo and
    # gamma_lo rho^alpha_hi in any dimension
    model = stable_like(12, alpha=(0.5, 1.5), gamma=(1.0, 2.0))
    xi = np.zeros(12)
    xi[0] = 0.01
    assert _envelope(model, ENV_SUP_ABS, xi) == pytest.approx(0.2, rel=1e-12)
    assert _envelope(model, ENV_INF_RE, xi) == pytest.approx(0.001,
                                                             rel=1e-12)


def test_rotation_invariance_isotropic_stable():
    model = isotropic_stable(3, 1.3)
    gen = np.random.Generator(np.random.Philox(key=[1, 2]))
    xi = np.array([0.7, -0.2, 1.1])
    base = eval_symbol(model, None, xi)
    for _ in range(10):
        M = gen.standard_normal((3, 3))
        Q, R = np.linalg.qr(M)
        rotated = eval_symbol(model, None, Q @ xi)
        assert abs(rotated - base) <= 1e-10


def test_scaling_of_stable_envelope():
    model = isotropic_stable(2, 1.3)
    xi = np.array([0.4, 0.3])
    for lam in (0.5, 2.0, 7.0):
        assert _envelope(model, ENV_SUP_ABS, lam * xi) == pytest.approx(
            lam ** 1.3 * _envelope(model, ENV_SUP_ABS, xi), rel=1e-10)


def test_sector_check_cases():
    ok, _ = sector_check(brownian_drift(2, c=1.0), 0.0)
    assert ok
    drifted = stable_like(2, alpha=1.2, beta=[0.5, 0.0], gamma=1.0)
    ok, witness = sector_check(drifted, 0.0)
    assert not ok and witness is not None
    assert _envelope(drifted, ENV_SUP_ABS_IM, witness) > 0.0
    ok, _ = sector_check(isotropic_stable(2, 1.2), 0.0)
    assert ok


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
def test_sector_check_is_relative_to_the_real_part(scale):
    # sup |Im q| = scale |xi_1| against inf Re q = scale |xi|: the sector
    # fails for every constant at every scale (an absolute tolerance once
    # let it pass at 1e-20), and a strong verdict stays conditional
    from levy_transience.classifier import classify

    model = stable_like(2, 1.0, beta=[scale, 0.0], gamma=scale)
    assert [sector_check(model, c)[0] for c in (0.0, 0.5, 0.9, 0.99)] \
        == [False] * 4
    rep = classify(model, 0.2)
    assert rep.verdict == "strongly_transient"
    assert rep.conditional == (
        "strong verdict is conditional on the sector condition",)


def test_radiality_check_cases(stable_05_d1):
    assert envelope_is_radial(stable_05_d1, ENV_SUP_ABS)
    drifted = stable_like(2, alpha=1.2, beta=[0.5, 0.0])
    assert not envelope_is_radial(drifted, ENV_SUP_ABS)

    # a one-axis jump measure is caught by rotation sampling
    def axis_symbol(x, xi):
        return 1.0 - math.cos(xi[0])

    axis = custom_model(2, axis_symbol, x_independent=True)
    assert not envelope_is_radial(axis, ENV_SUP_ABS)


def test_custom_envelope_without_a_function():
    # an x-independent model reads a missing envelope off its symbol at
    # x = 0; a state-dependent one cannot, and the error names the kind
    xi = np.array([0.3, -0.4])
    fixed = custom_model(2, lambda x, xi: float(xi @ xi) - 0.5j * xi[0],
                         x_independent=True)
    q = float(xi @ xi) - 0.5j * xi[0]
    assert _envelope(fixed, ENV_SUP_ABS, xi) == abs(q)
    assert _envelope(fixed, ENV_INF_RE, xi) == q.real
    assert _envelope(fixed, ENV_SUP_ABS_IM, xi) == abs(q.imag)

    def sup(xi):
        return 1.5 * float(xi @ xi)

    varying = custom_model(
        2, lambda x, xi: (1.0 + 0.5 * math.cos(x[0])) * float(xi @ xi),
        envelopes={ENV_SUP_ABS: sup})
    assert _envelope(varying, ENV_SUP_ABS, xi) == sup(xi)
    for kind in (ENV_INF_RE, ENV_SUP_ABS_IM):
        with pytest.raises(ConfigurationError, match=repr(kind)):
            _envelope(varying, kind, xi)


def test_symmetry_check_cases(stable_05_d1):
    assert symmetry_check(stable_05_d1)
    mirrored = stable_like(2, alpha={"lo": 0.6, "hi": 1.4, "profile": "cos"},
                           gamma=1.0)
    assert symmetry_check(mirrored)
    lopsided = stable_like(2, alpha={"lo": 0.6, "hi": 1.4, "profile": "step"},
                           gamma=1.0)
    assert not symmetry_check(lopsided)


def test_degenerate_symbol_rejected():
    with pytest.raises(DegenerateModelError):
        brownian_drift(2, c=0.0)


def test_a_model_at_the_top_of_the_float_range_builds_without_warnings():
    # the constructor's probe |q| at |xi| = 1.3 is 1.3 * 1.7e308 = inf, which
    # does not vanish
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = isotropic_stable(3, 1.0, gamma=1.7e308)
    assert model.params["gamma"].lo == 1.7e308


def test_density_validation_lets_profile_bugs_through():
    # the profile fails only above the sample grid (which ends at 1e-3), so
    # the error comes from the tail integral of the integrability check and
    # must not be reported as a non-integrable Levy measure
    def profile(u):
        if np.any(u > 10.0):
            raise TypeError("profile bug")
        return u ** -3.5

    with pytest.raises(TypeError, match="profile bug"):
        RadialLevyDensity(d=3, u0=0.0, variants=(
            DensityVariant(label="power", profile=profile, tail_slope=-3.5),))


@pytest.mark.parametrize("power", [-5.5, -3.0])
def test_non_integrable_density_is_not_a_levy_measure(power):
    # u^-5.5 in d = 3 diverges at the origin, u^-3 at infinity
    with np.errstate(over="ignore"), \
            pytest.raises(LevyMeasureError, match=r"min\(1,\|y\|\^2\)"):
        RadialLevyDensity(d=3, u0=0.0, variants=(
            DensityVariant(label="bad", profile=lambda u: u ** power),))


def test_levy_measure_error_names_the_first_variant_that_fails():
    # the variants are checked in one sweep per functional over all of
    # them; when it fails, the error is the one the first failing variant
    # raises alone, although the origin-side sweep meets the third one first
    def variant(label, power):
        return DensityVariant(label=label, profile=lambda u: u ** power)

    good, tail, origin = (variant("good", -4.0), variant("tail", -3.0),
                          variant("origin", -5.5))
    with np.errstate(over="ignore"):
        with pytest.raises(LevyMeasureError) as alone:
            RadialLevyDensity(d=3, u0=0.0, variants=(tail,))
        with pytest.raises(LevyMeasureError) as together:
            RadialLevyDensity(d=3, u0=0.0, variants=(good, tail, origin))
    assert "variant 'tail'" in str(together.value)
    assert str(together.value) == str(alone.value)


def test_invalid_family_parameters():
    with pytest.raises(Exception):
        isotropic_stable(2, 2.5)
    with pytest.raises(Exception):
        stable_like(2, alpha=(0.5, 2.0))


def test_model_from_config_round_trip(model_file):
    cfg = {"family": "stable_like", "d": 2,
           "parameters": {"alpha": {"lo": 0.6, "hi": 1.4, "profile": "cos"},
                          "gamma": 1.0}}
    model = model_from_config(cfg)
    assert model.family == "stable_like"
    assert model.d == 2
    assert model.params["alpha"].bounds == (0.6, 1.4)

    from levy_transience.symbols import load_model
    path = model_file(cfg)
    loaded = load_model(path)
    xi = np.array([0.25, 0.0])
    assert _envelope(loaded, ENV_SUP_ABS, xi) == pytest.approx(
        _envelope(model, ENV_SUP_ABS, xi))


def test_isotropic_stable_config_is_constant_stable_like():
    cfg = {"family": "isotropic_stable", "d": 3,
           "parameters": {"alpha": 1.2, "gamma": 2.0}}
    model = model_from_config(cfg)
    assert model.family == "stable_like"
    assert model.drift_vector is None and model.is_state_independent
    assert model.params["alpha"].bounds == (1.2, 1.2)
    assert model.params["gamma"].bounds == (2.0, 2.0)
    assert eval_symbol(model, None, [0.5, 0.0, 0.0]) == pytest.approx(
        2.0 * 0.5 ** 1.2, rel=1e-15)
    for params, message in (
            ({"alpha": 2.5}, "stable index must lie in (0,2), got 2.5"),
            ({"alpha": 1.0, "gamma": -1}, "stable scale must be positive, "
                                          "got -1.0")):
        with pytest.raises(ModelInvariantError) as err:
            model_from_config(dict(cfg, parameters=params))
        assert str(err.value) == message


def test_readme_density_examples_build_in_their_dimensions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    specs = [json.loads(line) for line in readme.splitlines()
             if line.startswith('{"kind":')]
    assert {s["kind"] for s in specs} == {"power", "stable", "power_log",
                                          "table"}
    for spec in specs:
        row = re.search(rf"^\| `{spec['kind']}` .*\| d = ([0-9, ]+)",
                        readme, re.M)
        dims = [int(d) for d in row.group(1).split(",")]
        for d in dims:
            model = radial_jump_model(density_from_spec(d, spec))
            assert model.d == d


def test_load_model_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigurationError) as err:
        from levy_transience.symbols import load_model
        load_model(str(p))
    assert "line" in str(err.value)


def test_variant_for_state_picks_nearest_stored_alpha():
    # finite_jump alpha in [1, 3] with the cos profile has variants at
    # alpha = 1, 1.25, ..., 3 and alpha(x) = 2 + cos(x_1) at state x
    model = finite_jump_model(2, alpha=(1.0, 3.0))
    dens = model.triplet.jump_density
    for x1, index in ((0.0, 8), (math.pi, 0), (math.pi / 2, 4),
                      (2.0 * math.pi / 3, 2), (1.0, 6)):
        x = np.array([x1, 0.0])
        assert _variant_for_state(model, x) == index
        xi = np.array([0.3, 0.4])
        assert eval_symbol(model, x, xi).real == dens.jump_symbol(0.5, index)
    # labels of modified variants no longer carry a parsable alpha
    modified = radial_jump_model(modified_density(dens, 2.0, factor=0.5),
                                 params={"alpha": model.params["alpha"]})
    assert [v.tail_slope for v in modified.triplet.jump_density.variants] \
        == [v.tail_slope for v in dens.variants]
    assert _variant_for_state(modified, np.array([1.0, 0.0])) == 6


def test_envelope_of_untied_variants_is_the_variant_envelope():
    # a radial_jump density from JSON has 9 alpha variants and no state
    # field tying them to states: the envelopes must be the sup/inf over all
    # variants, not variant 0 at every state
    from levy_transience.classifier import classify

    model = model_from_config({
        "family": "radial_jump", "d": 2,
        "parameters": {"density": {"kind": "stable",
                                   "alpha": [0.614, 1.411]}}})
    xi = np.array([0.01, 0.0])
    assert _envelope(model, ENV_INF_RE, xi) == pytest.approx(0.01 ** 1.411,
                                                             rel=1e-8)
    assert _envelope(model, ENV_SUP_ABS, xi) == pytest.approx(0.01 ** 0.614,
                                                              rel=1e-8)
    assert classify(model, 1.5).verdict == "inconclusive"


@pytest.mark.parametrize("family, parameters", [
    ("brownian_drift", {"c": 1.0}),
    ("isotropic_stable", {"alpha": 1.0}),
    ("stable_like", {"alpha": {"lo": 0.6, "hi": 1.4}}),
    ("radial_jump", {"density": {"kind": "stable", "alpha": 1.2}}),
    ("finite_jump", {"alpha": 1.5}),
])
def test_a_state_grid_is_an_unknown_field_for_every_family(family,
                                                          parameters):
    cfg = {"family": family, "d": 2, "parameters": parameters}
    assert model_from_config(cfg).d == 2
    cfg["state_grid"] = {"box": [-1, 1], "points_per_axis": 5}
    with pytest.raises(ConfigurationError) as err:
        model_from_config(cfg)
    assert str(err.value) == "model config has unknown field 'state_grid'"


def test_only_symbols_compares_a_family_name():
    # what the package knows about a family lives in its record in
    # symbols.py; every module, symbols.py included, looks the record up
    src = Path(__file__).resolve().parents[1] / "src" / "levy_transience"
    pattern = re.compile(r"\b(family|fam)\s*[!=]=\s*['\"]|['\"]\s*[!=]=\s*"
                         r"(\w+\.)*(family|fam)\b")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert not found, found


def test_no_module_samples_a_state_grid():
    # every envelope is a closed form or a safe-side bound: no module
    # builds a product grid of states to sample the symbol on
    src = Path(__file__).resolve().parents[1] / "src" / "levy_transience"
    pattern = re.compile(r"\bmeshgrid\b|\bstate_points\b|\bStateGrid\b")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert not found, found


def test_a_jointly_varying_stable_like_has_an_envelope_in_d18():
    model = model_from_config({
        "family": "stable_like", "d": 18,
        "parameters": {"alpha": {"lo": 0.5, "hi": 1.5},
                       "gamma": {"lo": 1, "hi": 2}}})
    xi = np.zeros(18)
    xi[0] = 0.5
    assert _envelope(model, ENV_SUP_ABS, xi) > 0.0


def test_config_reads_each_assumption_as_given():
    cfg = {"family": "brownian_drift", "d": 3, "parameters": {"c": 1.0}}
    assert model_from_config(cfg).assumptions == {}
    given = {"weak_test_hypothesis": True, "sector_constant": None,
             "perturbation_margin": False, "irreducible": True}
    assert model_from_config(dict(cfg, assumptions=given)).assumptions \
        == given
    for c in (0, 0.5):
        assert model_from_config(dict(cfg, assumptions={
            "sector_constant": c})).assumptions == {"sector_constant": c}


@pytest.mark.parametrize("value", ["2", True, 2.5])
def test_config_rejects_a_count_that_is_not_a_whole_number(value):
    # a count is a JSON number with no fractional part, not a string or a
    # bool that would convert to one
    cfg = {"family": "stable_like", "d": value,
           "parameters": {"alpha": {"lo": 0.5, "hi": 1.5}}}
    with pytest.raises(ConfigurationError,
                       match="model field 'd' must be a positive integer"):
        model_from_config(cfg)


@pytest.mark.parametrize("key", ["u", "n"])
def test_config_rejects_a_nested_table_knot_list(key):
    density = {"kind": "table", "u": [1, 10, 100, 1000],
               "n": [1e-1, 1e-3, 1e-5, 1e-7]}
    density[key] = [density[key][:2], density[key][2:]]
    cfg = {"family": "radial_jump", "d": 1,
           "parameters": {"density": density}}
    with pytest.raises(ConfigurationError,
                       match=f"'parameters.density.{key}' is malformed"):
        model_from_config(cfg)


@pytest.mark.parametrize("family, d, parameters, key", [
    ("brownian_drift", 3, {"c": 1.3}, "c"),
    ("stable_like", 2, {"alpha": 1.2, "gamma": 0.8}, "alpha"),
    ("stable_like", 2, {"alpha": 1.2, "gamma": 0.8}, "gamma"),
    ("finite_jump", 2, {"alpha": 1.5}, "alpha"),
])
def test_a_constant_reads_the_same_in_every_json_form(family, d, parameters,
                                                      key):
    from levy_transience.classifier import classify
    from levy_transience.montecarlo import euler_terminal_states

    v = parameters[key]
    models = [model_from_config({"family": family, "d": d,
                                 "parameters": {**parameters, key: form}})
              for form in (v, {"lo": v, "hi": v}, [v, v])]
    assert all(m.is_state_independent for m in models)
    assert all("c" not in m.params for m in models)
    reports = {json.dumps([classify(m, kappa).to_json()
                           for kappa in (0.2, 1.5)], sort_keys=True)
               for m in models}
    assert len(reports) == 1
    if family == "stable_like":
        first, *others = (euler_terminal_states(m, 1.0, 0.05, 16, seed=3)
                          for m in models)
        for other in others:
            assert np.array_equal(first, other)


def test_a_jump_density_of_another_dimension_is_rejected():
    # the tail tests read the dimension from the density and the other
    # bands from the model, so the two must agree
    from levy_transience.symbols import LevyTriplet

    with pytest.raises(ModelInvariantError, match="dimension"):
        LevyTriplet(d=2, jump_density=power_density(3, 1.0, u0=1.0))
