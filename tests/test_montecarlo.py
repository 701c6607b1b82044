import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from levy_transience import montecarlo
from levy_transience.errors import ConfigurationError, EstimateRefusedError
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
    _positive_stable,
    ecf_check,
    euler_terminal_states,
    last_exit_estimate,
    occupation_integral_estimate,
    positivity_diagnostic,
    sample_levy_marginal,
    simulate_stable_like_path,
    substream,
)
from levy_transience.symbols import brownian_drift, isotropic_stable, stable_like


def test_positive_stable_laplace_transform():
    gen = substream(7, 0, 0xABCD)
    for a in (0.25, 0.5, 0.75):
        s = _positive_stable(a, gen, 200_000)
        for lam in (0.5, 1.0, 2.0):
            emp = np.exp(-lam * s)
            z = abs(np.mean(emp) - math.exp(-lam ** a)) \
                / (np.std(emp) / math.sqrt(len(s)))
            assert z < 4.0, (a, lam, z)


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
                        gamma=1.0, envelope_mode="grid_sampled")
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


def test_last_exit_stabilizes_vs_grows():
    cfg = SimConfig(horizon=32.0, paths=3000, seed=9, radius=1.0, kappa=1.0,
                    step=0.02, mode=EULER_PATH)
    strongly = last_exit_estimate(brownian_drift(5), 1.0, cfg)
    weakly = last_exit_estimate(brownian_drift(3), 1.0, cfg)
    assert not strongly.divergence_flag
    assert weakly.divergence_flag
    assert strongly.censor_fraction < 0.5


def test_last_exit_censoring_refusal():
    cfg = SimConfig(horizon=2.0, paths=500, seed=4, radius=4.0, kappa=1.0,
                    step=0.01, mode=EULER_PATH)
    with pytest.raises(EstimateRefusedError):
        last_exit_estimate(brownian_drift(1), 4.0, cfg)


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
    diag = positivity_diagnostic(model, 1.0, xi_set, cfg)
    assert diag["nonnegative_within_3se"]


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
    # 16 MB of Kanter variates and one 2 MB block of normals
    monkeypatch.delenv("LEVY_TRANSIENCE_THREADS", raising=False)
    model = stable_like(2, alpha=(0.6, 1.4))
    tracemalloc.start()
    try:
        euler_terminal_states(model, 20.0, 0.01, 1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, peak
