"""Monte Carlo validation of the analytic verdicts.

The simulable surrogate for the last-exit moment is the occupation integral

    S(T) = int_0^T t^kappa P(X_t in B(0, r)) dt,

whose growth across doubling horizons T, 2T, 4T separates divergent from
convergent behavior: power growth gives increments with a ratio bounded away
from 1, convergence gives geometrically shrinking increments, and the
genuinely logarithmic boundary gives equal increments (reported honestly as
an inconclusive trend). Randomness is counter-based: every path and every
time node owns a substream derived from (seed, index), so parallel and
serial runs produce bit-identical estimates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    EstimateRefusedError,
    ModelInvariantError,
    check_kappa,
)
from .symbols import SymbolModel, eval_symbol

_DOMAIN_MARGINAL = 0x6D415247
_DOMAIN_PATH = 0x70415448
_NORMAL_BLOCK = 250_000   # normals an Euler chunk holds at a time

EXACT_MARGINAL = "exact_marginal"
EULER_PATH = "euler_path"

DIVERGENT_TREND = "divergent_trend"
CONVERGENT_TREND = "convergent_trend"
INCONCLUSIVE_TREND = "inconclusive"


def worker_count() -> int:
    """Worker cap from LEVY_TRANSIENCE_THREADS (default 1, serial)."""
    try:
        return max(1, int(os.environ.get("LEVY_TRANSIENCE_THREADS", "1")))
    except ValueError:
        return 1


def substream(seed: int, index: int, domain: int) -> np.random.Generator:
    """Independent counter-based stream for one work unit."""
    key = [np.uint64(seed) ^ np.uint64(domain), np.uint64(index)]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    paths: int
    seed: int
    radius: float
    kappa: float
    step: float = 0.01
    mode: str = EXACT_MARGINAL
    nodes_per_decade: int = 64
    t_floor: float = 0.01
    censor_limit: float = 0.5
    trend_band: float = 0.05
    trend_margin: float = 0.05

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.step <= 0:
            raise ConfigurationError("step must be positive")
        if self.paths < 1:
            raise ConfigurationError("need at least one path")
        if self.radius <= 0:
            raise ConfigurationError("ball radius must be positive")
        check_kappa(self.kappa)
        if self.mode not in (EXACT_MARGINAL, EULER_PATH):
            raise ConfigurationError(f"unknown simulation mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Exact marginal samplers.
# ---------------------------------------------------------------------------

def _kanter_angles(u, w):
    """In place, the alpha-free half of the Kanter (1975) sampler: uniforms
    u become angles pi * u in (0, pi), exponentials w are floored."""
    np.multiply(np.clip(u, 1e-12, 1.0 - 1e-12, out=u), np.pi, out=u)
    return u, np.maximum(w, 1e-300, out=w)


def _kanter(a, th, w):
    """One-sided stable variates with Laplace transform exp(-lambda^a),
    0 < a < 1, from the angles th and exponentials w of _kanter_angles."""
    return (np.sin(a * th) / np.sin(th) ** (1.0 / a)
            * (np.sin((1.0 - a) * th) / w) ** ((1.0 - a) / a))


def _positive_stable(alpha_half, gen, n):
    # the uniforms are drawn before the exponentials
    return _kanter(alpha_half, *_kanter_angles(gen.random(n),
                                               gen.standard_exponential(n)))


def _stable_sample(d, alpha, scale_c, gen, n):
    """Samples with characteristic function exp(-scale_c * |xi|^alpha),
    via a positive-stable subordinated Gaussian."""
    s = scale_c ** (2.0 / alpha) * _positive_stable(0.5 * alpha, gen, n)
    z = gen.standard_normal((n, d))
    return np.sqrt(2.0 * s)[:, None] * z


def _diffusion_factor(C):
    """L L^T = C: Cholesky, or for a singular C the eigh root clipped at 0."""
    try:
        return np.linalg.cholesky(C + 1e-300 * np.eye(len(C)))
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(C)
        return V * np.sqrt(np.clip(lam, 0.0, None))


def _constant_param(model, key):
    f = model.params.get(key)
    if f is None or not f.is_constant:
        raise ConfigurationError(
            "exact marginals need a state-independent family")
    return f.bounds[0]


def sample_levy_marginal(model: SymbolModel, t: float,
                         gen: np.random.Generator, n: int) -> np.ndarray:
    """n samples of X_t started at 0, for a state-independent Brownian or
    stable-like model, drifted or not."""
    if t <= 0:
        raise ConfigurationError("marginal time must be positive")
    d = model.d
    if model.family == "brownian_drift":
        if model.triplet.diffusion_matrix is not None:
            L = _diffusion_factor(model.triplet.diffusion_matrix)
        else:
            L = math.sqrt(_constant_param(model, "c")) * np.eye(d)
        x = math.sqrt(t) * gen.standard_normal((n, d)) @ L.T
    elif model.family == "stable_like":
        alpha = _constant_param(model, "alpha")
        gamma = _constant_param(model, "gamma")
        x = _stable_sample(d, alpha, t * gamma, gen, n)
    else:
        raise ConfigurationError(
            f"family {model.family!r} has no exact marginal sampler")
    if model.triplet.drift is not None:
        x = x + t * model.triplet.drift
    return x


# ---------------------------------------------------------------------------
# Euler paths for state-dependent stable-like dynamics.
# ---------------------------------------------------------------------------

def _family_step_fields(model):
    p = model.params
    if model.family == "brownian_drift":
        if "c" not in p:
            return ("brownian_matrix",
                    _diffusion_factor(model.triplet.diffusion_matrix))
        return ("brownian", p["c"])
    if model.family == "stable_like":
        return ("stable", p["alpha"], p["gamma"])
    raise ConfigurationError(
        f"family {model.family!r} has no Euler path scheme")


def _euler_sweep(model, T, h, seed, path_indices, x0, observer):
    """Advance one chunk of paths, calling observer(step, t, X) each step.

    Path i's stream gives m uniforms and m exponentials (stable only), then
    m x d normals, drawn a block of steps at a time: a chunk of n paths
    holds 2 n m Kanter doubles and at most _NORMAL_BLOCK normals."""
    kind, *fields = _family_step_fields(model)
    d = model.d
    m = int(round(T / h))
    if m < 1:
        raise ConfigurationError("horizon shorter than one step")
    n = len(path_indices)
    drift = model.triplet.drift
    gens = [substream(seed, int(idx), _DOMAIN_PATH) for idx in path_indices]
    if kind == "stable":
        ths, ws = np.empty((n, m)), np.empty((n, m))
        for gen, th, w in zip(gens, ths, ws):
            gen.random(out=th)
            gen.standard_exponential(out=w)
        _kanter_angles(ths, ws)
    X = np.zeros((n, d)) if x0 is None else np.tile(
        np.asarray(x0, dtype=float), (n, 1))
    if kind != "brownian_matrix":   # a constant field is evaluated once
        fields = [f if f.kind != "const" else (lambda X, v=f(X): v)
                  for f in fields]
    block = max(1, _NORMAL_BLOCK // (n * d))
    zs = np.empty((n, min(block, m), d))
    for j0 in range(0, m, block):
        b = min(block, m - j0)
        for gen, row in zip(gens, zs):
            gen.standard_normal(out=row[:b])
        for j in range(j0, j0 + b):
            z = zs[:, j - j0, :]
            if kind == "brownian":
                c = fields[0](X)
                X = X + np.sqrt(c * h)[:, None] * z
            elif kind == "brownian_matrix":
                X = X + math.sqrt(h) * z @ fields[0].T
            else:
                alpha_f, gamma_f = fields
                alpha = alpha_f(X)
                gamma = gamma_f(X)
                if alpha.min() <= 0.0 or alpha.max() >= 2.0:
                    raise ModelInvariantError(
                        "stability index left (0,2) at a visited state")
                s0 = _kanter(0.5 * alpha, ths[:, j], ws[:, j])
                zeta = np.sqrt(2.0 * s0)[:, None] * z
                X = X + ((gamma * h) ** (1.0 / alpha))[:, None] * zeta
            if drift is not None:
                X = X + h * drift
            observer(j, (j + 1) * h, X)
    return X


def _chunks(n_paths, m, d):
    per = max(1, int(4e6 / max(1, m * (d + 2))))
    return [range(lo, min(lo + per, n_paths))
            for lo in range(0, n_paths, per)]


def _in_ball(X, r):
    """Rows of X in the closed ball B(0, r); numpy's norm formula, axis 1."""
    return np.sqrt(np.add.reduce(X * X, axis=1)) <= r


def _run_chunks(chunks, fn):
    """Run per-chunk work, optionally threaded. Chunks write to disjoint
    slices of preallocated arrays, so results do not depend on scheduling."""
    workers = worker_count()
    if workers == 1 or len(chunks) <= 1:
        for ch in chunks:
            fn(ch)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(fn, chunks))


def simulate_stable_like_path(model: SymbolModel, T: float, h: float,
                              seed: int, path_index=0, x0=None):
    """One Euler path (time grid, states); deterministic given the seed."""
    if h > 0.01 * T:
        raise ConfigurationError("step must satisfy h <= T/100")
    m = int(round(T / h))
    states = np.zeros((m + 1, model.d))

    def observer(j, t, X):
        states[j + 1] = X[0]

    _euler_sweep(model, T, h, seed, [path_index], x0, observer)
    times = h * np.arange(m + 1)
    return times, states


def euler_terminal_states(model: SymbolModel, T: float, h: float,
                          n_paths: int, seed: int, x0=None) -> np.ndarray:
    """Terminal states of n_paths Euler paths (chunked, deterministic)."""
    d = model.d
    m = int(round(T / h))
    out = np.empty((n_paths, d))

    def work(chunk):
        idx = list(chunk)
        final = _euler_sweep(model, T, h, seed, idx, x0,
                             lambda j, t, X: None)
        out[idx[0]:idx[-1] + 1] = final

    _run_chunks(_chunks(n_paths, m, d), work)
    return out


# ---------------------------------------------------------------------------
# Occupation integral estimates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupationEstimate:
    horizons: tuple           # (T, 2T, 4T)
    values: tuple             # S(T), S(2T), S(4T)
    stderrs: tuple
    growth_exponent: float
    increment_ratio: float
    verdict: str
    mode: str
    kappa: float
    radius: float
    notes: tuple = ()

    def csv_rows(self):
        rows = []
        for h, v, s in zip(self.horizons, self.values, self.stderrs):
            rows.append({"horizon": h, "S_hat": v, "stderr": s,
                         "growth_exp": self.growth_exponent,
                         "verdict": self.verdict})
        return rows


def _trend_verdict(values, stderrs, band, margin, notes):
    s1, s2, s4 = values
    d1, d2 = s2 - s1, s4 - s2
    if s1 <= 0.0 or d1 <= 0.0:
        notes.append("occupation estimate vanishes or stalls; ball "
                     "effectively never hit")
        return INCONCLUSIVE_TREND, float("nan"), float("nan")
    ratio = d2 / d1
    ghat = math.log(s4 / s1) / math.log(4.0)
    noise = math.sqrt(sum(e * e for e in stderrs))
    if noise > 0.25 * d1:
        notes.append("increment uncertainty too large to call a trend")
        return INCONCLUSIVE_TREND, ghat, ratio
    if ratio >= 1.0 + margin and ghat >= band:
        return DIVERGENT_TREND, ghat, ratio
    if ratio <= 1.0 - margin:
        return CONVERGENT_TREND, ghat, ratio
    notes.append("increments neither grow nor shrink geometrically "
                 "(logarithmic boundary behavior)")
    return INCONCLUSIVE_TREND, ghat, ratio


def occupation_integral_estimate(model: SymbolModel, config: SimConfig,
                                 probability_fn=None) -> OccupationEstimate:
    """Estimate S(T), S(2T), S(4T) and the growth trend.

    Exact-marginal mode integrates t^kappa P(X_t in B(0,r)) on a geometric
    time grid with fresh samples per node (probability_fn substitutes exact
    marginal probabilities when available); Euler-path mode averages the
    per-path occupation sums.
    """
    T, kappa, r = config.horizon, config.kappa, config.radius
    notes = []
    if config.mode == EXACT_MARGINAL:
        grid = _marginal_grid(config)
        probs = np.empty_like(grid)
        variances = np.zeros_like(grid)
        if probability_fn is not None:
            probs = np.asarray([probability_fn(t) for t in grid], dtype=float)
        else:
            n = config.paths
            for j, t in enumerate(grid):
                gen = substream(config.seed, j, _DOMAIN_MARGINAL)
                x = sample_levy_marginal(model, float(t), gen, n)
                hit = _in_ball(x, r)
                p = float(np.mean(hit))
                probs[j] = p
                variances[j] = p * (1.0 - p) / n
        values, errs = [], []
        for horizon in (T, 2.0 * T, 4.0 * T):
            v, e = _log_trapezoid(grid, probs, variances, kappa, horizon)
            values.append(v)
            errs.append(e)
    else:
        h, n = config.step, config.paths

        def occupy(acc, t, X):
            inside = _in_ball(X, r)
            acc += t ** kappa * inside * h

        sums = _euler_snapshots(model, config, 4.0 * T, [
            int(round(c * T / h)) for c in (1.0, 2.0, 4.0)], occupy)
        values = [float(np.mean(sums[:, k])) for k in range(3)]
        errs = [float(np.std(sums[:, k], ddof=1) / math.sqrt(n))
                for k in range(3)]
    verdict, ghat, ratio = _trend_verdict(values, errs, config.trend_band,
                                          config.trend_margin, notes)
    return OccupationEstimate(
        horizons=(T, 2.0 * T, 4.0 * T), values=tuple(values),
        stderrs=tuple(errs), growth_exponent=ghat, increment_ratio=ratio,
        verdict=verdict, mode=config.mode, kappa=kappa, radius=r,
        notes=tuple(notes))


def _marginal_grid(config):
    lo = min(config.t_floor, config.horizon / 100.0)
    hi = 4.0 * config.horizon
    n = max(8, int(math.ceil(math.log10(hi / lo) * config.nodes_per_decade)))
    grid = np.geomspace(lo, hi, n)
    anchors = np.asarray([config.horizon, 2.0 * config.horizon, hi])
    return np.unique(np.concatenate([grid, anchors]))


def _log_trapezoid(grid, probs, variances, kappa, horizon):
    """Trapezoid in log time of t^kappa * p(t) up to the horizon, plus the
    analytic below-floor correction; returns (value, stderr)."""
    mask = grid <= horizon * (1.0 + 1e-12)
    t = grid[mask]
    y = t ** (kappa + 1.0) * probs[mask]     # integrand in s = ln t
    s = np.log(t)
    ds = np.diff(s)
    w = np.zeros_like(t)
    w[:-1] += 0.5 * ds
    w[1:] += 0.5 * ds
    value = float(w @ y)
    var = float(((w * t ** (kappa + 1.0)) ** 2) @ variances[mask])
    # below the first node the integrand is at most t^kappa
    value += probs[0] * t[0] ** (kappa + 1.0) / (kappa + 1.0)
    return value, math.sqrt(var)


def _euler_snapshots(model, config, T, marks, update):
    """Per-path statistics, advanced in place by update(acc, t, X) after
    every Euler step on [0, T], at the step counts in `marks`."""
    h, n = config.step, config.paths
    out = np.zeros((n, len(marks)))

    def work(chunk):
        idx = list(chunk)
        acc = np.zeros(len(idx))

        def observer(j, t, X):
            update(acc, t, X)
            for k, mark in enumerate(marks):
                if j + 1 == mark:
                    out[idx[0]:idx[-1] + 1, k] = acc

        _euler_sweep(model, T, h, config.seed, idx, None, observer)

    _run_chunks(_chunks(n, int(round(T / h)), model.d), work)
    return out


# ---------------------------------------------------------------------------
# Censored last-exit moments.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LastExitReport:
    horizons: tuple
    censored_moments: tuple
    censor_fraction: float
    divergence_flag: bool
    kappa: float
    radius: float
    notes: tuple = ()

    def to_json(self):
        return {"horizons": list(self.horizons),
                "censored_moments": list(self.censored_moments),
                "censor_fraction": self.censor_fraction,
                "divergence_flag": self.divergence_flag,
                "kappa": self.kappa, "radius": self.radius,
                "notes": list(self.notes)}


def last_exit_estimate(model: SymbolModel, radius: float,
                       config: SimConfig) -> LastExitReport:
    """Censored last-exit moment estimates at T/4, T/2 and T.

    Per path, the last grid time spent inside the ball before each horizon
    (0 when never inside). The estimate is refused when more than the
    configured fraction of paths is right-censored (last visit in the final
    half of the horizon), since the moment would then be badly truncated.
    """
    T, h, kappa = config.horizon, config.step, config.kappa
    horizons = (0.25 * T, 0.5 * T, T)

    def last_visit(acc, t, X):
        acc[_in_ball(X, radius)] = t

    last_at = _euler_snapshots(model, config, T,
                               [int(round(H / h)) for H in horizons],
                               last_visit)
    censored = float(np.mean(last_at[:, 2] > 0.5 * T))
    if censored > config.censor_limit:
        raise EstimateRefusedError(
            f"censoring fraction {censored:.2f} exceeds "
            f"{config.censor_limit:.2f}; horizon too short for a last-exit "
            f"moment estimate")
    moments = tuple(float(np.mean(np.minimum(last_at[:, k], horizons[k])
                                  ** kappa)) for k in range(3))
    # a divergent moment grows like a power of the horizon; a finite moment
    # stabilizes, so its doubling exponent decays toward 0
    if moments[1] > 0 and moments[2] > 0:
        doubling_exp = math.log2(moments[2] / moments[1])
    else:
        doubling_exp = 0.0
    growing = doubling_exp >= 0.2
    return LastExitReport(
        horizons=horizons, censored_moments=moments,
        censor_fraction=censored, divergence_flag=bool(growing),
        kappa=kappa, radius=radius,
        notes=(f"doubling exponent {doubling_exp:.3f}",))


# ---------------------------------------------------------------------------
# Sampler validation via the empirical characteristic function.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EcfReport:
    rows: tuple        # per-xi dicts
    all_pass: bool
    min_real: float
    min_real_stderr: float

    def to_json(self):
        return {"rows": list(self.rows), "all_pass": self.all_pass,
                "min_real": self.min_real,
                "min_real_stderr": self.min_real_stderr}


def ecf_check(model: SymbolModel, t: float, xi_set, config: SimConfig) -> EcfReport:
    """Empirical characteristic function against exp(-t q(xi)), with
    3-standard-error bands per frequency."""
    n = config.paths
    gen = substream(config.seed, 0, _DOMAIN_MARGINAL)
    x = sample_levy_marginal(model, t, gen, n)
    rows = []
    all_pass = True
    min_real, min_err = math.inf, 0.0
    for xi in xi_set:
        xi = np.asarray(xi, dtype=float).reshape(model.d)
        phase = x @ xi
        re, im = np.cos(phase), np.sin(phase)
        re_hat, im_hat = float(np.mean(re)), float(np.mean(im))
        re_err = float(np.std(re, ddof=1) / math.sqrt(n))
        im_err = float(np.std(im, ddof=1) / math.sqrt(n))
        target = np.exp(-t * eval_symbol(model, None, xi))
        ok = bool(abs(re_hat - target.real) <= 3.0 * re_err + 1e-12
                  and abs(im_hat - target.imag) <= 3.0 * im_err + 1e-12)
        all_pass &= ok
        if re_hat < min_real:
            min_real, min_err = re_hat, re_err
        rows.append({"xi_norm": float(np.linalg.norm(xi)),
                     "ecf_re": re_hat, "ecf_im": im_hat,
                     "target_re": float(target.real),
                     "target_im": float(target.imag),
                     "stderr_re": re_err, "stderr_im": im_err, "pass": ok})
    return EcfReport(rows=tuple(rows), all_pass=bool(all_pass),
                     min_real=min_real, min_real_stderr=min_err)


def positivity_diagnostic(model: SymbolModel, t: float, xi_set,
                          config: SimConfig) -> dict:
    """Minimum of the real part of the empirical characteristic function
    over the frequency set (diagnostic only)."""
    report = ecf_check(model, t, xi_set, config)
    return {"min_real": report.min_real,
            "stderr": report.min_real_stderr,
            "nonnegative_within_3se":
                report.min_real >= -3.0 * report.min_real_stderr}
