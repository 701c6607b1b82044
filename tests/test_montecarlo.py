import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import levy_transience
from levy_transience import montecarlo
from levy_transience.errors import ConfigurationError
from levy_transience.montecarlo import (
    _DOMAIN_PATH,
    CONVERGENT_TREND,
    DIVERGENT_TREND,
    EULER_PATH,
    INCONCLUSIVE_TREND,
    SimConfig,
    _chunks,
    _euler_sweep,
    _family_step_fields,
    _marginal_grid,
    ecf_check,
    euler_terminal_states,
    occupation_integral_estimate,
    sample_levy_marginal,
    simulate_stable_like_path,
    substream,
)
from levy_transience.symbols import (
    _kanter,
    _kanter_angles,
    _positive_stable,
    brownian_drift,
    isotropic_stable,
    stable_like,
)


def test_positive_stable_laplace_transform():
    gen = substream(7, 0, 0xABCD)
    for a in (0.25, 0.5, 0.75):
        s = _positive_stable(a, gen, 200_000)
        for lam in (0.5, 1.0, 2.0):
            emp = np.exp(-lam * s)
            z = abs(np.mean(emp) - math.exp(-lam ** a)) \
                / (np.std(emp) / math.sqrt(len(s)))
            assert z < 4.0, (a, lam, z)


@pytest.mark.parametrize("skip", [4000, 4001, 4002, 4003])
def test_a_substream_opened_after_skip_draws_continues_the_stream(skip):
    fresh = substream(5, 17, _DOMAIN_PATH)
    fresh.random(skip)   # one raw draw per double
    later = substream(5, 17, _DOMAIN_PATH, skip)
    assert np.array_equal(later.standard_exponential(9),
                          fresh.standard_exponential(9))
    assert np.array_equal(later.standard_normal(9), fresh.standard_normal(9))


@pytest.mark.parametrize("a", [0.7, 0.5, "array"])
def test_the_in_place_kanter_is_the_expression_form_bit_for_bit(a):
    # a = 0.5 (alpha = 1) makes the exponents b/a and 1/a exactly 1 and 2
    gen = substream(3, 0, 0xABCD)
    th, w = _kanter_angles(gen.random(1000), gen.standard_exponential(1000))
    a = gen.uniform(0.05, 0.95, 1000) if a == "array" else a
    b = 1.0 - a
    want = (np.sin(a * th) / np.sin(th) ** (1.0 / a)
            * (np.sin(b * th) / w) ** (b / a))
    assert _kanter(a, th.copy(), w.copy()).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 7, 8, 9, 127, 128, 129, 4097, 400_003])
def test_mean_sd_is_numpys_mean_and_std_bit_for_bit(n):
    # sizes about numpy's pairwise-sum unroll (8) and block (128)
    v = substream(n, 0, 0xABCD).standard_normal(n) * 3.0 + 0.4
    want = (float(np.mean(v)), float(np.std(v, ddof=1)))
    assert montecarlo._mean_sd(v) == want


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_stable_marginals_are_sampled_in_place():
    # 400,000 draws in d = 2: the Kanter variates in three length-n arrays
    # (uniforms, exponentials, result), then s and z in (d + 1) n doubles
    model = isotropic_stable(2, 1.4)
    peak = _traced_peak(lambda: sample_levy_marginal(
        model, 1.0, substream(1, 0, 0xABCD), 400_000))
    assert peak <= 10.5e6, peak


def test_ecf_check_reuses_its_buffers():
    # the (n, d) samples and two length-n buffers: (d + 2) n doubles, 12.8 MB
    cfg = SimConfig(horizon=1.0, paths=400_000, seed=1, radius=1.0, kappa=0.0)
    xis = [s * np.eye(2)[0] for s in (0.25, 1.0, 4.0)]
    peak = _traced_peak(lambda: ecf_check(isotropic_stable(2, 1.4), 1.0, xis,
                                          cfg))
    assert peak <= 13.5e6, peak


def test_brownian_marginal_variance():
    gen = substream(11, 0, 0xABCD)
    n = 100_000
    x = sample_levy_marginal(brownian_drift(1, c=1.0), 4.0, gen, n)
    # sample variance of N(0, 4): sd of the estimator ~ 4*sqrt(2/n)
    assert np.var(x) == pytest.approx(4.0, abs=3.0 * 4.0 * math.sqrt(2.0 / n))


def test_cauchy_ball_probability():
    gen = substream(11, 1, 0xABCD)
    n = 100_000
    x = sample_levy_marginal(isotropic_stable(1, 1.0), 1.0, gen, n)
    p = np.mean(np.abs(x[:, 0]) <= 1.0)
    assert p == pytest.approx(0.5, abs=3.0 * math.sqrt(0.25 / n))


def test_ecf_stable_alpha15_d2():
    cfg = SimConfig(horizon=1.0, paths=100_000, seed=42, radius=1.0, kappa=0.0)
    model = isotropic_stable(2, 1.5)
    rep = ecf_check(model, 1.0, [np.array([1.0, 0.0])], cfg)
    assert rep.all_pass
    row = rep.rows[0]
    assert row["target_re"] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert abs(row["ecf_re"] - row["target_re"]) <= 3.0 * row["stderr_re"]


def test_ecf_drifted_constant_stable_like():
    cfg = SimConfig(horizon=1.0, paths=100_000, seed=42, radius=1.0, kappa=0.0)
    model = stable_like(2, 1.3, beta=[0.5, 0.0])
    x = sample_levy_marginal(model, 2.0, substream(3, 0, 0xABCD), 100_000)
    # the drift shifts the symmetric stable law by t * beta
    assert np.median(x, axis=0) == pytest.approx([1.0, 0.0], abs=0.02)
    xis = [s * np.array([0.8, 0.6]) for s in (0.25, 0.5, 1.0, 2.0)]
    rep = ecf_check(model, 1.0, xis, cfg)
    assert rep.all_pass
    assert all(abs(row["target_im"]) > 0.05 for row in rep.rows[:3])


def test_marginal_sampler_rejects_state_dependence():
    model = stable_like(1, alpha=(0.6, 1.4), gamma=1.0)
    gen = substream(1, 0, 0xABCD)
    with pytest.raises(ConfigurationError):
        sample_levy_marginal(model, 1.0, gen, 10)


def test_euler_matches_exact_marginal_ks():
    model = isotropic_stable(1, 1.2)
    T, h, n = 1.0, 0.01, 20_000
    euler = euler_terminal_states(model, T, h, n, seed=5)[:, 0]
    gen = substream(5, 999, 0xABCD)
    exact = sample_levy_marginal(model, T, gen, n)[:, 0]
    stat = stats.ks_2samp(np.abs(euler), np.abs(exact))
    assert stat.pvalue > 0.01


def test_euler_paths_symmetric():
    model = stable_like(1, alpha=1.2, gamma=1.0)
    x = euler_terminal_states(model, 1.0, 0.01, 20_000, seed=6)[:, 0]
    p_pos = np.mean(x > 0)
    assert p_pos == pytest.approx(0.5, abs=3.0 * math.sqrt(0.25 / len(x)))


def test_exit_time_ordering_heavy_vs_light():
    # smaller stability index escapes a ball faster
    T, h, n, R = 4.0, 0.02, 2000, 5.0

    def median_exit(alpha):
        model = isotropic_stable(1, alpha)
        m = int(round(T / h))
        exit_step = np.full(n, m + 1)
        from levy_transience.montecarlo import _euler_sweep

        def observer(j, t, X):
            out = (np.abs(X[:, 0]) > R) & (exit_step == m + 1)
            exit_step[out] = j

        _euler_sweep(model, T, h, 77, list(range(n)), None, observer)
        return float(np.median(exit_step))

    assert median_exit(0.6) < median_exit(1.4)


def test_exit_ordering_state_dependent_index():
    # step-profile index: heavier jumps (smaller alpha) on the negative side,
    # so paths started there leave a large ball sooner
    model = stable_like(1, alpha={"lo": 0.6, "hi": 1.4, "profile": "step"},
                        gamma=1.0)
    T, h, n, R = 8.0, 0.02, 2000, 8.0
    from levy_transience.montecarlo import _euler_sweep

    def median_exit(x0):
        m = int(round(T / h))
        exit_step = np.full(n, m + 1)

        def observer(j, t, X):
            out = (np.abs(X[:, 0] - x0) > R) & (exit_step == m + 1)
            exit_step[out] = j

        _euler_sweep(model, T, h, 99, list(range(n)), [x0], observer)
        return float(np.median(exit_step))

    assert median_exit(-40.0) < median_exit(40.0)


def test_simulate_path_shape_and_determinism():
    model = stable_like(1, alpha=1.2, gamma=1.0)
    t1, s1 = simulate_stable_like_path(model, 1.0, 0.01, seed=3)
    t2, s2 = simulate_stable_like_path(model, 1.0, 0.01, seed=3)
    assert s1.shape == (101, 1)
    np.testing.assert_array_equal(s1, s2)
    with pytest.raises(ConfigurationError):
        simulate_stable_like_path(model, 1.0, 0.5, seed=3)


def test_occupation_exact_probability_brownian():
    prob = lambda t: float(stats.chi2.cdf(1.0 / t, 3))
    cfg = SimConfig(horizon=200.0, paths=100, seed=1, radius=1.0, kappa=1.0)
    est = occupation_integral_estimate(brownian_drift(3), cfg,
                                       probability_fn=prob)
    ratio = est.values[1] / est.values[0]
    assert 1.36 <= ratio <= 1.47
    assert est.verdict == DIVERGENT_TREND
    cfg = SimConfig(horizon=200.0, paths=100, seed=1, radius=1.0, kappa=0.25)
    est = occupation_integral_estimate(brownian_drift(3), cfg,
                                       probability_fn=prob)
    assert est.verdict == CONVERGENT_TREND


def test_occupation_logarithmic_boundary_inconclusive():
    # integrand ~ 1/t at kappa = kappa*: equal increments per doubling
    prob = lambda t: min(1.0, 4.0 / (3.0 * math.pi * t ** 3))
    cfg = SimConfig(horizon=200.0, paths=100, seed=1, radius=1.0, kappa=2.0)
    est = occupation_integral_estimate(isotropic_stable(3, 1.0), cfg,
                                       probability_fn=prob)
    assert est.verdict == INCONCLUSIVE_TREND
    assert est.increment_ratio == pytest.approx(1.0, abs=0.02)


def test_occupation_monte_carlo_agrees(bm3):
    cfg = SimConfig(horizon=50.0, paths=20_000, seed=3, radius=1.0, kappa=1.0)
    est = occupation_integral_estimate(bm3, cfg)
    assert est.verdict == DIVERGENT_TREND
    assert est.values[0] <= est.values[1] <= est.values[2]


def test_occupation_determinism(bm3):
    cfg = SimConfig(horizon=20.0, paths=5000, seed=9, radius=1.0, kappa=1.0)
    a = occupation_integral_estimate(bm3, cfg)
    b = occupation_integral_estimate(bm3, cfg)
    assert a.values == b.values and a.stderrs == b.stderrs


def test_occupation_euler_mode_and_step_halving():
    model = isotropic_stable(1, 0.7)
    cfg = SimConfig(horizon=4.0, paths=4000, seed=13, radius=1.0, kappa=0.5,
                    step=0.02, mode=EULER_PATH)
    a = occupation_integral_estimate(model, cfg)
    cfg2 = SimConfig(horizon=4.0, paths=4000, seed=13, radius=1.0, kappa=0.5,
                     step=0.01, mode=EULER_PATH)
    b = occupation_integral_estimate(model, cfg2)
    assert a.values[0] <= a.values[1] <= a.values[2]
    assert abs(a.values[2] - b.values[2]) <= 2.0 * (a.stderrs[2] + b.stderrs[2])


def test_occupation_ball_never_hit():
    model = brownian_drift(3, drift=[50.0, 0.0, 0.0])
    cfg = SimConfig(horizon=8.0, paths=200, seed=2, radius=1e-4, kappa=1.0,
                    step=0.05, mode=EULER_PATH)
    est = occupation_integral_estimate(model, cfg)
    assert est.verdict == INCONCLUSIVE_TREND
    assert any("never hit" in n for n in est.notes)


def test_trend_agrees_with_classifier_on_validation_suite():
    # six-fixture suite, probed half a unit on each side of the boundary
    # kappa*; exact-marginal sampling cannot resolve the divergent side of
    # the (alpha=0.5, d=3) fixture (ball probabilities ~ t^-6 are below
    # Monte Carlo resolution), so that fixture is probed on the convergent
    # side only.
    from levy_transience.classifier import classify

    fixtures = [
        (brownian_drift(3), 0.5, 25.0, 20_000, 1.0, (-0.5, 0.5)),
        (brownian_drift(5), 1.5, 8.0, 40_000, 2.0, (-0.5, 0.5)),
        (isotropic_stable(1, 0.5), 1.0, 16.0, 20_000, 1.0, (-0.5, 0.5)),
        (isotropic_stable(3, 1.0), 2.0, 6.0, 40_000, 2.0, (-0.5, 0.5)),
        (isotropic_stable(3, 1.5), 1.0, 16.0, 40_000, 2.0, (-0.5, 0.5)),
        (isotropic_stable(3, 0.5), 5.0, 4.0, 20_000, 1.0, (-0.5,)),
    ]
    for model, star, horizon, n, radius, offsets in fixtures:
        for off in offsets:
            kappa = star + off
            cfg = SimConfig(horizon=horizon, paths=n, seed=314, radius=radius,
                            kappa=kappa, nodes_per_decade=48)
            est = occupation_integral_estimate(model, cfg)
            verdict = classify(model, kappa).verdict
            if verdict == "weakly_transient":
                assert est.verdict == DIVERGENT_TREND, (model.family, kappa)
            else:
                assert verdict == "strongly_transient"
                assert est.verdict == CONVERGENT_TREND, (model.family, kappa)


def test_thread_cap_does_not_change_results(monkeypatch, bm3):
    cfg = SimConfig(horizon=4.0, paths=3000, seed=8, radius=1.0, kappa=1.0,
                    step=0.02, mode=EULER_PATH)
    serial = occupation_integral_estimate(bm3, cfg)
    monkeypatch.setenv("LEVY_TRANSIENCE_THREADS", "4")
    threaded = occupation_integral_estimate(bm3, cfg)
    assert serial.values == threaded.values


def test_positivity_diagnostic_symmetric():
    cfg = SimConfig(horizon=1.0, paths=50_000, seed=21, radius=1.0, kappa=0.0)
    model = isotropic_stable(2, 1.2)
    xi_set = [s * np.array([1.0, 0.0]) for s in (0.5, 1.0, 2.0, 4.0)]
    rep = ecf_check(model, 1.0, xi_set, cfg)
    assert rep.min_real >= -3.0 * rep.min_real_stderr


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_sim_config_rejects_non_finite_kappa(kappa):
    with pytest.raises(ConfigurationError, match="kappa"):
        SimConfig(horizon=1.0, paths=10, seed=1, radius=1.0, kappa=kappa)


def test_singular_psd_diffusion_matrix_samples():
    # C = [[1, 1], [1, 1]] is PSD but has no Cholesky factor
    C = np.array([[1.0, 1.0], [1.0, 1.0]])
    model = brownian_drift(2, C=C)
    t, n = 3.0, 100_000
    x = sample_levy_marginal(model, t, substream(12, 0, 0xABCD), n)
    cov = x.T @ x / n
    # se of a zero-mean Gaussian sample covariance: sqrt(C_ii C_jj + C_ij^2)/n
    se = t * np.sqrt((np.outer(np.diag(C), np.diag(C)) + C * C) / n)
    assert np.all(np.abs(cov - t * C) <= 3.0 * se), cov
    X = euler_terminal_states(model, 1.0, 0.01, 200, seed=3)
    np.testing.assert_allclose(X[:, 0], X[:, 1], rtol=1e-12, atol=1e-12)


# -- the blocked Euler sweep against the sweep that draws everything first --

def _reference_sweep(model, T, h, seed, path_indices, x0, observer):
    """Each path's m uniforms, m exponentials and m x d normals drawn up
    front, then the step loop; the blocked sweep must match it bit for bit."""
    kind, *fields = _family_step_fields(model)
    d, m, n = model.d, int(round(T / h)), len(path_indices)
    drift = model.triplet.drift
    us, ws, zs = np.empty((n, m)), np.empty((n, m)), np.empty((n, m, d))
    for row, idx in enumerate(path_indices):
        gen = substream(seed, int(idx), _DOMAIN_PATH)
        if kind == "stable":
            us[row] = gen.random(m)
            ws[row] = gen.standard_exponential(m)
        zs[row] = gen.standard_normal((m, d))
    X = np.zeros((n, d)) if x0 is None else np.tile(
        np.asarray(x0, dtype=float), (n, 1))
    for j in range(m):
        if kind == "brownian":
            X = X + np.sqrt(fields[0](X) * h)[:, None] * zs[:, j, :]
        elif kind == "brownian_matrix":
            X = X + math.sqrt(h) * zs[:, j, :] @ fields[0].T
        else:
            alpha, gamma = fields[0](X), fields[1](X)
            a = 0.5 * alpha
            u = np.clip(us[:, j], 1e-12, 1.0 - 1e-12)
            w = np.maximum(ws[:, j], 1e-300)
            th = np.pi * u
            s0 = (np.sin(a * th) / np.sin(th) ** (1.0 / a)
                  * (np.sin((1.0 - a) * th) / w) ** ((1.0 - a) / a))
            zeta = np.sqrt(2.0 * s0)[:, None] * zs[:, j, :]
            X = X + ((gamma * h) ** (1.0 / alpha))[:, None] * zeta
        if drift is not None:
            X = X + h * drift
        observer(j, (j + 1) * h, X)
    return X


_SWEEP_MODELS = {
    "interval_d1": (stable_like(1, alpha=(0.6, 1.4), beta=[0.3]), [0.5]),
    "interval_d2": (stable_like(2, alpha=(0.6, 1.4), beta=[0.3, -0.2],
                                gamma=0.7), [0.5, -1.0]),
    "constant": (stable_like(2, alpha=1.3, gamma=2.0), None),
    "brownian_field": (brownian_drift(2, c={"lo": 0.5, "hi": 2.0}), [1.0, 0.0]),
    "brownian_matrix": (brownian_drift(2, drift=[0.1, 0.0],
                                       C=[[2.0, 0.5], [0.5, 1.0]]), None),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_MODELS))
@pytest.mark.parametrize("m", [3, 10, 12])
def test_blocked_sweep_matches_the_reference_bit_for_bit(monkeypatch, name, m):
    # 7 paths and a block of 5 steps: m below, a multiple of, and not a
    # multiple of the block
    model, x0 = _SWEEP_MODELS[name]
    n, h = 7, 0.05
    monkeypatch.setattr(montecarlo, "_NORMAL_BLOCK", 5 * n * model.d)
    paths = list(range(3, 3 + n))
    seen = {"new": [], "ref": []}
    new = _euler_sweep(model, m * h, h, 41, paths, x0,
                       lambda j, t, X: seen["new"].append((j, t, X.copy())))
    ref = _reference_sweep(model, m * h, h, 41, paths, x0,
                           lambda j, t, X: seen["ref"].append((j, t, X.copy())))
    assert np.array_equal(new, ref)
    assert len(seen["new"]) == len(seen["ref"]) == m
    for (j, t, X), (j_ref, t_ref, X_ref) in zip(seen["new"], seen["ref"]):
        assert (j, t) == (j_ref, t_ref) and np.array_equal(X, X_ref)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_euler_terminal_states_match_the_reference(monkeypatch, threads):
    # 520 paths x 2100 steps make two chunks (476 + 44 paths)
    monkeypatch.setenv("LEVY_TRANSIENCE_THREADS", threads)
    model, x0 = _SWEEP_MODELS["interval_d2"]
    T, h, n = 21.0, 0.01, 520
    chunks = _chunks(n, int(round(T / h)), model.d)
    assert len(chunks) == 2
    ref = np.concatenate([
        _reference_sweep(model, T, h, 17, list(ch), x0, lambda j, t, X: None)
        for ch in chunks])
    assert np.array_equal(euler_terminal_states(model, T, h, n, 17, x0), ref)


def test_euler_sweep_memory_is_bounded(monkeypatch):
    # 1000 paths x 2000 steps run as two chunks of 500 paths, each holding
    # 8 MB of exponentials, one 2 MB block of normals and its 1 MB of
    # uniforms
    monkeypatch.delenv("LEVY_TRANSIENCE_THREADS", raising=False)
    model = stable_like(2, alpha=(0.6, 1.4))
    peak = _traced_peak(lambda: euler_terminal_states(model, 20.0, 0.01, 1000,
                                                      seed=1))
    assert peak <= 14e6, peak


# -- the ball test, the observers and the input checks --

@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("n", [1, 7, 500])
def test_in_ball_matches_numpys_norm_formula_bit_for_bit(d, n):
    rng = np.random.default_rng(1000 * d + n)
    # one magnitude in 1e-160..1e160 per row (terms of one size, so the
    # order of the sum shows), and per entry in every third row
    X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-160, 160, (n, 1))
    X[::3] *= 10.0 ** rng.uniform(-20, 20, X[::3].shape)
    if n > 1:
        X[0, rng.integers(d)] = rng.choice([np.inf, -np.inf])
        X[-1, rng.integers(d)] = np.nan
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(X * X, axis=1))
        # radii at and one ulp either side of every finite norm, so a row
        # whose norm moves by one ulp flips
        finite = norms[np.isfinite(norms) & (norms > 0)]
        radii = [1.0, *finite, *np.nextafter(finite, 0.0),
                 *np.nextafter(finite, np.inf)]
        for layout in (X, np.asfortranarray(X)):   # the sweep's is (d, n).T
            for r in radii:
                assert np.array_equal(montecarlo._in_ball(layout, r),
                                      norms <= r), (layout.flags, r)


def _reference_snapshots(model, config, T, marks, update):
    # the per-step mark loop over the reference sweep
    h, n = config.step, config.paths
    out = np.zeros((n, len(marks)))
    for chunk in montecarlo._chunks(n, int(round(T / h)), model.d):
        idx = list(chunk)
        acc = np.zeros(len(idx))

        def observer(j, t, X):
            update(acc, t, X)
            for k, mark in enumerate(marks):
                if j + 1 == mark:
                    out[idx[0]:idx[-1] + 1, k] = acc

        _reference_sweep(model, T, h, config.seed, idx, None, observer)
    return out


def _reference_in_ball(X, r):
    X = np.ascontiguousarray(X)
    return np.sqrt(np.add.reduce(X * X, axis=1)) <= r


@pytest.mark.parametrize("name", ["interval_d1", "interval_d2", "bm3"])
def test_euler_estimates_match_the_reference_observers(monkeypatch, name):
    model = (brownian_drift(3) if name == "bm3"
             else _SWEEP_MODELS[name][0])
    # chunks of 16 paths and blocks of 5 steps, so marks fall inside blocks
    monkeypatch.setattr(montecarlo, "_chunks", lambda n, m, d: [
        range(lo, min(lo + 16, n)) for lo in range(0, n, 16)])
    monkeypatch.setattr(montecarlo, "_NORMAL_BLOCK", 5 * 16 * model.d)
    cfg = SimConfig(horizon=1.0, paths=40, seed=29, radius=0.7, kappa=0.6,
                    step=0.01, mode=EULER_PATH)
    T, h, kappa, r, n = cfg.horizon, cfg.step, cfg.kappa, cfg.radius, 40

    def occupy(acc, t, X):
        acc += t ** kappa * _reference_in_ball(X, r) * h

    sums = _reference_snapshots(model, cfg, 4.0 * T, [
        int(round(c * T / h)) for c in (1.0, 2.0, 4.0)], occupy)
    est = occupation_integral_estimate(model, cfg)
    assert est.values == tuple(float(np.mean(sums[:, k])) for k in range(3))
    assert est.stderrs == tuple(float(np.std(sums[:, k], ddof=1)
                                      / math.sqrt(n)) for k in range(3))
    assert est.values[0] > 0.0


@pytest.mark.parametrize("field", ["horizon", "step", "radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_sim_config_rejects_non_finite_fields(field, value):
    kwargs = dict(horizon=1.0, paths=10, seed=1, radius=1.0, kappa=1.0)
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
        SimConfig(**dict(kwargs, **{field: value}))


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_ecf_check_rejects_a_bad_time(t):
    cfg = SimConfig(horizon=1.0, paths=10, seed=1, radius=1.0, kappa=0.0)
    with pytest.raises(ConfigurationError, match="^t must be finite"):
        ecf_check(isotropic_stable(1, 1.0), t, [np.ones(1)], cfg)


def test_worker_count_reads_the_thread_variable(monkeypatch):
    # worker_count only parses the variable; no thread is started here
    monkeypatch.delenv("LEVY_TRANSIENCE_THREADS", raising=False)
    assert montecarlo.worker_count() == 1
    for value, workers in (("3", 3), ("0", 1), ("-2", 1)):
        monkeypatch.setenv("LEVY_TRANSIENCE_THREADS", value)
        assert montecarlo.worker_count() == workers
    for value in ("two", "", "1.5"):
        monkeypatch.setenv("LEVY_TRANSIENCE_THREADS", value)
        with pytest.raises(ConfigurationError,
                           match="LEVY_TRANSIENCE_THREADS"):
            montecarlo.worker_count()


@pytest.mark.parametrize("T, h, field", [
    (math.nan, 0.01, "horizon"), (math.inf, 0.01, "horizon"),
    (1.0, math.nan, "step"), (1.0, math.inf, "step")])
def test_euler_entry_points_name_a_non_finite_horizon_or_step(T, h, field):
    model = stable_like(1, alpha=(0.6, 1.4))
    for run in (lambda: euler_terminal_states(model, T, h, 5, seed=1),
                lambda: simulate_stable_like_path(model, T, h, seed=1)):
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be finite and positive"):
            run()


def test_sim_config_rejects_a_kappa_whose_weight_overflows():
    # 2 (kappa + 1) ln(4 T) against ln(max float) = 709.78: 605.1 at
    # kappa = 100, T = 5 and 785.0 at kappa = 130
    SimConfig(horizon=5.0, paths=10, seed=1, radius=1.0, kappa=100.0)
    with pytest.raises(ConfigurationError, match="kappa 130.0 .* horizon 5.0"):
        SimConfig(horizon=5.0, paths=10, seed=1, radius=1.0, kappa=130.0)


def test_exact_marginal_simulate_leaves_numpy_ma_unimported(model_file,
                                                            tmp_path):
    # np.unique would import numpy.ma (about 1.3 MB) in every exact-marginal
    # simulate; a fresh interpreter, so nothing else has imported it yet
    src = str(Path(levy_transience.__file__).resolve().parents[1])
    args = ["simulate", "--model",
            model_file({"family": "brownian_drift", "d": 3,
                        "parameters": {"c": 1.0}}),
            "--mode", "exact_marginal", "--kappa", "0.2", "--paths", "50",
            "--horizon", "5", "--out", str(tmp_path / "o")]
    code = ("import sys\n"
            "from levy_transience.cli import main\n"
            "try:\n"
            f"    main({args!r})\n"
            "except SystemExit as exc:\n"
            "    print('numpy.ma' in sys.modules)\n"
            "    sys.exit(exc.code)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode in (0, 2), out.stderr
    assert out.stdout.splitlines()[-1] == "False"
    assert json.loads((tmp_path / "o" / "report.json").read_text())


@pytest.mark.parametrize("horizon", [1e-3, 0.04, 1.0, 5.0, 200.0, 1e6])
def test_marginal_grid_is_the_sorted_unique_grid_byte_for_byte(horizon):
    cfg = SimConfig(horizon=horizon, paths=10, seed=1, radius=1.0,
                    kappa=0.0)
    grid = _marginal_grid(cfg)
    lo = min(montecarlo._T_FLOOR, horizon / 100.0)
    n = max(8, int(math.ceil(math.log10(4.0 * horizon / lo)
                             * cfg.nodes_per_decade)))
    want = np.unique(np.concatenate([
        np.geomspace(lo, 4.0 * horizon, n),
        [horizon, 2.0 * horizon, 4.0 * horizon]]))
    assert grid.tobytes() == want.tobytes()
