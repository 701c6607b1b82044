"""Kappa-free model facts are memoized on the frozen model and density
objects: a warm object must answer exactly as a fresh one."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levy_transience
from levy_transience.classifier import classify, kappa_boundary, transience_gate
from levy_transience.densities import (
    DensityVariant,
    RadialLevyDensity,
    stable_density,
)
from levy_transience.errors import LevyTransienceError
from levy_transience.index_rules import uniform_second_moment
from levy_transience.quadrature import jump_symbol_value
from levy_transience.symbols import (
    brownian_drift,
    isotropic_stable,
    load_model,
    model_from_config,
    radial_jump_model,
    sector_check,
    stable_like,
)
from levy_transience.verdicts import model_memo

_WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "workloads.py"


def _kappa_star_model_files(tmp_path):
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ops = module.generate("kappa_star", module.DEFAULT_SEED, tmp_path)
    return sorted({op["args"][2] for op in ops})


_README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_README_DENSITIES = {spec["kind"]: spec for spec in (
    json.loads(line) for line in _README_TEXT.splitlines()
    if line.startswith('{"kind":'))}

# the model file and the radial_jump density examples of the README, read
# as written there, and the models of its CLI examples
_README = [
    json.loads(re.search(r"^## Model files\n+```json\n(.*?)^```",
                         _README_TEXT, re.M | re.S).group(1)),
    {"family": "brownian_drift", "d": 3, "parameters": {"c": 1.0}},
    {"family": "isotropic_stable", "d": 3, "parameters": {"alpha": 1.0}},
] + [{"family": "radial_jump", "d": d,
      "parameters": {"density": _README_DENSITIES[kind]}}
     for d, kind in ((3, "power"), (2, "stable"), (1, "power_log"),
                     (3, "table"))]

_KAPPAS = (0.0, 0.7, 2.5)


def _outcome(call):
    """JSON of a report, or the error a call raised."""
    try:
        return json.dumps(call().to_json(), sort_keys=True)
    except LevyTransienceError as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_warm_equals_fresh(load):
    warm = load()
    try:
        kappa_boundary(warm)
    except LevyTransienceError:
        pass                     # no boundary in range: the probes still ran
    for k in (0.3, 5.0):
        _outcome(lambda: classify(warm, k))
    for k in _KAPPAS:
        assert _outcome(lambda: classify(warm, k)) \
            == _outcome(lambda: classify(load(), k)), k
    # the memo keys cover every argument: radius and structural switch
    for r in (1.0, 0.25):
        for structural in (True, False):
            assert transience_gate(warm, r, structural) \
                == transience_gate(load(), r, structural)
    # ... and the radius ladder: a value comes from the batch of radii it is
    # keyed by, so the two ladders (which share most radii) answer bit for
    # bit as on a fresh model
    for r in (0.5, 1.0):
        assert _outcome(lambda: classify(warm, 1.0, r=r)) \
            == _outcome(lambda: classify(load(), 1.0, r=r)), r


def test_kappa_star_workload_models_answer_the_same_warm(tmp_path):
    for path in _kappa_star_model_files(tmp_path):
        _check_warm_equals_fresh(lambda: load_model(path))


@pytest.mark.parametrize("cfg", _README,
                         ids=[c["family"] + "-" + c["parameters"].get(
                             "density", {}).get("kind", "")
                              for c in _README])
def test_readme_models_answer_the_same_warm(cfg):
    _check_warm_equals_fresh(lambda: model_from_config(cfg))


def test_memo_keys_cover_every_argument():
    calls = []

    @model_memo
    def fact(obj, r=1.0, structural=True):
        calls.append((r, structural))
        return r, structural

    model = isotropic_stable(2, 1.2)
    assert fact(model) == fact(model, 1.0) \
        == fact(model, r=1.0, structural=True) == (1.0, True)
    assert fact(model, 0.25) == (0.25, True)
    assert fact(model, 0.25, False) == (0.25, False)
    assert len(calls) == 3
    assert fact(model, [0.5]) == fact(model, [0.5]) == ([0.5], True)
    assert len(calls) == 5                 # unhashable: not memoized
    # an array is keyed by its dtype, shape and bytes; an array result is
    # read-only
    radii = np.array([0.5, 2.0])
    assert fact(model, radii) is fact(model, radii.copy())
    assert len(calls) == 6
    fact(model, radii.astype(np.float32))
    fact(model, radii[:, None])
    assert len(calls) == 8

    @model_memo
    def doubled(obj, rhos):
        return 2.0 * rhos

    out = doubled(model, radii)
    assert doubled(model, radii.copy()) is out and not out.flags.writeable

    # a check whose answer changes with its argument, on one object
    drifted = stable_like(2, 0.5, beta=(0.1, 0.0))
    assert [sector_check(drifted, c)[0] for c in (0.0, 0.5)] == [False, True]


def test_uniform_second_moment_lets_profile_bugs_through():
    # a broken profile must raise, not read as an infinite second moment
    broken = {"on": False}

    def profile(u):
        if broken["on"]:
            raise TypeError("profile bug")
        return np.asarray(u, dtype=float) ** -3.5

    dens = RadialLevyDensity(d=3, u0=0.0, variants=(
        DensityVariant(label="power", profile=profile, tail_slope=-3.5),))
    model = radial_jump_model(dens)
    broken["on"] = True
    with pytest.raises(TypeError, match="profile bug"):
        uniform_second_moment(model)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("alpha, gamma", [(0.7, 1.7),
                                          ((0.3, 1.9), (0.5, 2.0))])
def test_stable_closed_form_matches_quadrature(d, alpha, gamma):
    rhos = np.geomspace(1e-4, 1e2, 31)
    dens = stable_density(d, alpha, gamma=gamma)
    for i in range(len(dens.variants)):
        np.testing.assert_allclose(
            dens.jump_symbol(rhos, i),
            jump_symbol_value(dens.radial_weight(i), rhos, d, (), 0.0),
            rtol=1e-9)


def _scipy_special_loaded_after(args, tmp_path):
    """Run the CLI with args in a fresh interpreter; assert it exits 0 and
    return whether scipy.special was imported."""
    src = str(Path(levy_transience.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from levy_transience.cli import main\n"
            "try:\n"
            f"    main({args + ['--out', str(tmp_path / 'o')]!r})\n"
            "except SystemExit as exc:\n"
            "    print('scipy.special' in sys.modules)\n"
            "    sys.exit(exc.code)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1] == "True"


def test_kappa_star_on_stable_like_leaves_scipy_special_unloaded(model_file,
                                                                 tmp_path):
    path = model_file({"family": "stable_like", "d": 2, "parameters": {
        "alpha": {"lo": 0.6, "hi": 1.4, "profile": "cos"}, "gamma": 1.0}})
    assert not _scipy_special_loaded_after(["kappa-star", "--model", path],
                                           tmp_path)


@pytest.mark.parametrize("d, grid", [(3, "0.5,4"), (2, "0.25,3")])
def test_radial_power_classify_needs_scipy_special_only_for_even_d(
        model_file, tmp_path, d, grid):
    # d = 3 takes the elementary kernel sin(s)/s, d = 2 still hyp0f1; at
    # u0 = 4 the integral ladder passes the series reach rho u0 <= 2
    path = model_file({"family": "radial_jump", "d": d, "parameters": {
        "density": {"kind": "power", "alpha": 1.0, "u0": 4.0}}})
    assert _scipy_special_loaded_after(
        ["classify", "--model", path, "--kappa-grid", grid], tmp_path) \
        == (d == 2)


def test_replaced_objects_get_a_fresh_memo():
    import dataclasses

    from levy_transience.densities import power_density
    from levy_transience.levy_tails import integrated_tail

    base = power_density(2, 1.2, u0=1.0)
    base.functional_envelope("t1", "sup", [0.75])    # warm the base memo
    with_atoms = dataclasses.replace(base, atoms=((0.5, 0.3), (1.0, 0.1)))
    assert with_atoms._cache is not base._cache
    memoized = with_atoms.functional_envelope("t1", "sup", [0.75])[0]
    assert memoized == pytest.approx(integrated_tail(with_atoms, 0.75),
                                     rel=1e-12)
    model = isotropic_stable(3, 1.0)
    transience_gate(model)
    assert dataclasses.replace(model)._cache == {}


def test_kappa_probes_sweep_each_tail_functional_once(tmp_path, monkeypatch):
    from levy_transience import verdicts

    sweeps, ladders = [], []
    gauss = verdicts.log_gauss_blocks

    def counted(density, tag, variants, radii):
        sweeps.append((tag, density, list(variants), {len(r) for r in radii}))
        return sweep(density, tag, variants, radii)

    def counted_gauss(lo, hi, n=16):
        ladders.append((float(lo[0]), float(hi[0]), len(lo), n))
        return gauss(lo, hi, n)

    sweep = RadialLevyDensity.sweep
    monkeypatch.setattr(RadialLevyDensity, "sweep", counted)
    monkeypatch.setattr(verdicts, "log_gauss_blocks", counted_gauss)
    verdicts.verdict_ladder.cache_clear()
    models = {Path(p).stem: load_model(p)
              for p in _kappa_star_model_files(tmp_path)}
    built = sweeps[:]
    sweeps.clear()
    for model in models.values():
        kappa_boundary(model)
    # each density checks the Levy-measure condition once, at construction:
    # one T3 and one tail-mass sweep of all its variants, at one radius each
    stable = [m for name, m in models.items() if name.startswith("iso")]
    assert len(stable) == 4
    densities = [m.triplet.jump_density
                 for m in (*stable, models["stable_like2"])]
    assert built == [(tag, dens, list(range(len(dens.variants))), {1})
                     for dens in densities for tag in ("t3", "tm")]
    # the four isotropic stable models are decided by the closed-form band
    # alone, so only stable_like2 sweeps the tail mass and T3 behind T1:
    # each once on the verdict ladder, with its 9 variants in one sweep,
    # however many kappa probes read it; its second
    # moment adds T3 at radius 1
    ladder = {verdicts.verdict_ladder(1.0, verdicts.AT_INFINITY)[0].size}
    assert sorted(((tag, dens is densities[-1], rows, sizes)
                   for tag, dens, rows, sizes in sweeps), key=str) \
        == [("t3", True, list(range(9)), {1}),
            ("t3", True, list(range(9)), ladder),
            ("tm", True, list(range(9)), ladder)]
    # each (r, K, singularity, n_gl) ladder is built once
    assert ladders and len(ladders) == len(set(ladders))


@pytest.mark.parametrize("model, kappa_star", [
    (isotropic_stable(3, 1.0), 2.0), (brownian_drift(3), 0.5)],
    ids=["stable", "bm"])
def test_closed_form_kappa_probes_run_no_lower_band(model, kappa_star,
                                                    monkeypatch):
    # the closed-form band decides every probe of these Levy processes, so
    # no integral, tail or index band is computed
    from levy_transience import cf_integrals, levy_tails, verdicts

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    verdict = counted("verdict", verdicts.verdict_from_radial_integrand)
    for module in (verdicts, cf_integrals, levy_tails):
        monkeypatch.setattr(module, "verdict_from_radial_integrand", verdict)
    monkeypatch.setattr(RadialLevyDensity, "sweep",
                        counted("sweep", RadialLevyDensity.sweep))
    assert kappa_boundary(model) == pytest.approx(kappa_star, abs=0.01)
    assert calls == []


def test_classify_forms_the_t1_envelopes_from_one_sweep_per_functional(
        monkeypatch):
    # the radial_cold power model: the tail mass and T3 of its 9 variants
    # on the tail band's verdict ladder run as one sweep each, and each T1
    # envelope is the identity T1 = rho^2 tm / 2 + T3 / 2 applied to the
    # memoized rows (the index band's quadratic floor reads the jump
    # symbol, its second moment sweeps T3 at radius 1; construction checks
    # the Levy-measure condition with T3 and the tail mass at radius 1)
    from levy_transience.densities import power_density
    from levy_transience.verdicts import (AT_INFINITY, memo_key,
                                          verdict_ladder)

    sweeps = []

    def counted(density, tag, variants, radii):
        if tag != "jsym":
            sweeps.append((tag, list(variants), {len(r) for r in radii}))
        return sweep(density, tag, variants, radii)

    sweep = RadialLevyDensity.sweep
    monkeypatch.setattr(RadialLevyDensity, "sweep", counted)
    dens = power_density(3, (0.8, 1.2), u0=1.0)
    model = radial_jump_model(dens)
    for kappa in (0.3, 0.8, 3.4, 4.1):
        classify(model, kappa)
    ladder = {verdict_ladder(2.0, AT_INFINITY)[0].size}
    assert sorted(sweeps, key=str) == [("t3", list(range(9)), {1}),
                                       ("t3", list(range(9)), {1}),
                                       ("t3", list(range(9)), ladder),
                                       ("tm", list(range(9)), {1}),
                                       ("tm", list(range(9)), ladder)]
    # the T1 envelopes on the ladder and the rows they come from are memo
    # hits, one read-only row per (tag, variant, radii), and no memo entry
    # holds values per radius
    rhos = verdict_ladder(2.0, AT_INFINITY)[0]
    swept = len(sweeps)
    for which, reduce in (("sup", np.max), ("inf", np.min)):
        env = dens.functional_envelope("t1", which, rhos)
        rows = {tag: np.stack([dens._cache[(tag, i, memo_key(rhos))]
                               for i in range(9)]) for tag in ("tm", "t3")}
        want = reduce(0.5 * rhos ** 2 * rows["tm"] + 0.5 * rows["t3"], axis=0)
        assert env.tobytes() == want.tobytes()
    assert len(sweeps) == swept
    assert not [v for v in dens._cache.values() if isinstance(v, dict)]


def test_cached_ladders_and_envelopes_are_read_only():
    from levy_transience.densities import power_density
    from levy_transience.verdicts import AT_INFINITY, verdict_ladder

    radii = verdict_ladder(1.0, AT_INFINITY)[0]
    for array in verdict_ladder(1.0, AT_INFINITY):
        with pytest.raises(ValueError):
            array[0] = 2.0
    env = stable_density(2, 1.2).functional_envelope("t1", "inf", radii)
    jump_symbol = power_density(3, 0.5, u0=1.0).jump_symbol(radii[:4])
    for array in (env, jump_symbol):
        with pytest.raises(ValueError):
            array[0] = 0.0
