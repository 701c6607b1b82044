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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ModelInvariantError,
    check_kappa,
    check_positive,
)
from .symbols import FAMILIES, SymbolModel, eval_symbol
from .symbols import _kanter, _kanter_angles

_DOMAIN_MARGINAL = 0x6D415247
_DOMAIN_PATH = 0x70415448
_NORMAL_BLOCK = 250_000   # normals an Euler chunk holds at a time

EXACT_MARGINAL = "exact_marginal"
EULER_PATH = "euler_path"

DIVERGENT_TREND = "divergent_trend"
CONVERGENT_TREND = "convergent_trend"
INCONCLUSIVE_TREND = "inconclusive"
_TREND_BAND = 0.05     # least growth exponent of a divergent trend
_TREND_MARGIN = 0.05   # least distance of a trend's increment ratio from 1
_T_FLOOR = 0.01        # the marginal time grid starts by min(this, T / 100)


def worker_count() -> int:
    """Worker cap from LEVY_TRANSIENCE_THREADS (default 1, serial)."""
    value = os.environ.get("LEVY_TRANSIENCE_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        raise ConfigurationError(f"LEVY_TRANSIENCE_THREADS must be an "
                                 f"integer, got {value!r}") from None


def _step_count(T, h):
    """The number of Euler steps of size h on [0, T]."""
    check_positive("horizon", T)
    check_positive("step", h)
    m = int(round(T / h))
    if m < 1:
        raise ConfigurationError("horizon shorter than one step")
    return m


def substream(seed: int, index: int, domain: int,
              skip: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one work unit, opened after its
    first `skip` raw 64-bit draws (Philox makes four per counter step)."""
    key = [np.uint64(seed) ^ np.uint64(domain), np.uint64(index)]
    bits = np.random.Philox(key=key, counter=skip // 4)
    bits.random_raw(skip % 4)
    return np.random.Generator(bits)


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

    def __post_init__(self):
        for name in ("horizon", "step", "radius"):
            check_positive(name, getattr(self, name))
        if self.paths < 2:   # a standard error needs two
            raise ConfigurationError(
                f"paths must be at least 2, got {self.paths}")
        check_kappa(self.kappa)
        # S(4T) and its squared sums hold t^(kappa+1) up to t = 4T
        limit = math.log(np.finfo(float).max)
        if 2.0 * (self.kappa + 1.0) * math.log(4.0 * self.horizon) > limit:
            raise ConfigurationError(
                f"kappa {self.kappa} is too large for horizon "
                f"{self.horizon}: (4 horizon)^(2 (kappa + 1)) overflows a "
                f"float; need 2 (kappa + 1) ln(4 horizon) <= {limit:.2f}")
        if self.mode not in (EXACT_MARGINAL, EULER_PATH):
            raise ConfigurationError(f"unknown simulation mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Exact marginal samplers.
# ---------------------------------------------------------------------------

def sample_levy_marginal(model: SymbolModel, t: float,
                         gen: np.random.Generator, n: int) -> np.ndarray:
    """n samples of X_t started at 0, for a state-independent Brownian or
    stable-like model, drifted or not."""
    check_positive("t", t)
    sample = FAMILIES[model.family].sample
    if sample is None:
        raise ConfigurationError(
            f"family {model.family!r} has no exact marginal sampler")
    if not model.is_state_independent:
        raise ConfigurationError(
            "exact marginals need a state-independent family")
    x = sample(model, t, gen, n)
    if model.triplet.drift is not None:
        x += t * model.triplet.drift
    return x


# ---------------------------------------------------------------------------
# Euler paths for state-dependent stable-like dynamics.
# ---------------------------------------------------------------------------

def _family_step_fields(model):
    step_fields = FAMILIES[model.family].step_fields
    if step_fields is None:
        raise ConfigurationError(
            f"family {model.family!r} has no Euler path scheme")
    return step_fields(model)


def _step_field(f, X, h=None):
    """X -> f(X), times h when given; a constant f is evaluated once."""
    g = f if h is None else (lambda X: f(X) * h)
    return (lambda X, v=g(X): v) if f.is_constant else g


def _by_step(gens, out, fill):
    """Returns out, with out[..., i] filled by fill(gens[i], row); paths go
    through a buffer of 65,536 doubles (512 KB), so out is written in runs."""
    size = max(1, min(len(gens), 65_536 // out[..., 0].size))
    buf = np.empty((size,) + out.shape[:-1])
    for i0 in range(0, len(gens), size):
        group = gens[i0:i0 + size]
        for gen, row in zip(group, buf):
            fill(gen, row)
        out[..., i0:i0 + len(group)] = np.moveaxis(buf[:len(group)], 0, -1)
    return out


def _euler_sweep(model, T, h, seed, path_indices, x0, observer):
    """Advance one chunk of n paths, calling observer(step, t, X) each step.

    Path i's own stream gives m uniforms and m exponentials (stable only),
    then m x d normals. A uniform takes one raw draw, so a second cursor
    opened m draws in reads the exponentials whole (the ziggurat's draw
    count depends on the data, so they cannot be split), then the normals
    a block of steps at a time; the first cursor reads the uniforms by the
    same blocks. Arrays are time-major: step j reads row j of the (m, n)
    exponentials and, from its block, the n uniforms, the (d, n) normals
    (at most _NORMAL_BLOCK per block) and the (d, n) state."""
    kind, *fields = _family_step_fields(model)
    d = model.d
    m = _step_count(T, h)
    n = len(path_indices)
    drift = None if model.triplet.drift is None else h * model.triplet.drift
    block = max(1, _NORMAL_BLOCK // (n * d))
    zs = np.empty((min(block, m), d, n))
    gens = [substream(seed, int(idx), _DOMAIN_PATH) for idx in path_indices]
    if kind == "stable":
        u_gens, gens = gens, [substream(seed, int(idx), _DOMAIN_PATH, m)
                              for idx in path_indices]
        ws = _by_step(gens, np.empty((m, n)),
                      lambda g, w: g.standard_exponential(out=w))
        ths = np.empty((min(block, m), n))
    Xt = np.zeros((d, n)) if x0 is None else np.tile(
        np.asarray(x0, dtype=float)[:, None], (1, n))
    if kind != "brownian_matrix":   # as fields of X: c h, or alpha, gamma h
        fields = [_step_field(f, Xt.T, s) for f, s in zip(
            fields, (h,) if kind == "brownian" else (None, h))]
    for j0 in range(0, m, block):
        b = min(block, m - j0)
        if kind == "stable":
            _by_step(u_gens, ths[:b], lambda g, u: g.random(out=u))
            _kanter_angles(ths[:b], ws[j0:j0 + b])
        _by_step(gens, zs[:b], lambda g, z: g.standard_normal(out=z))
        for j in range(j0, j0 + b):
            z = zs[j - j0]
            if kind == "brownian":
                Xt = Xt + np.sqrt(fields[0](Xt.T)) * z
            elif kind == "brownian_matrix":   # BLAS gets C-ordered (n, d)
                Xt = Xt + (np.multiply(math.sqrt(h), z.T, order="C")
                           @ fields[0].T).T
            else:
                alpha = fields[0](Xt.T)
                if alpha.min() <= 0.0 or alpha.max() >= 2.0:
                    raise ModelInvariantError(
                        "stability index left (0,2) at a visited state")
                s0 = _kanter(0.5 * alpha, ths[j - j0], ws[j])
                Xt = Xt + fields[1](Xt.T) ** (1.0 / alpha) * (
                    np.sqrt(2.0 * s0) * z)
            if drift is not None:
                Xt = Xt + drift[:, None]
            observer(j, (j + 1) * h, Xt.T)
    return Xt.T


def _chunks(n_paths, m, d):
    # a stable chunk keeps its m x n exponentials whole: about 4e6 / (d + 2)
    # doubles at most, and 1000 paths of 2000 steps in d = 2 make two chunks
    per = max(1, int(4e6 / max(1, m * (d + 2))))
    return [range(lo, min(lo + per, n_paths))
            for lo in range(0, n_paths, per)]


def _in_ball(X, r):
    """Rows of X in the closed ball B(0, r): numpy's norm formula on axis 1,
    whose bits a column sum repeats for d < 8 (numpy adds those in order)."""
    if X.shape[1] >= 8:   # the order of this reduce follows the layout
        X = np.ascontiguousarray(X)
        return np.sqrt(np.add.reduce(X * X, axis=1)) <= r
    sq = X[:, 0] * X[:, 0]
    for x in X.T[1:]:
        sq += x * x
    return np.sqrt(sq, out=sq) <= r


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
    m = _step_count(T, h)
    if h > 0.01 * T:
        raise ConfigurationError("step must satisfy h <= T/100")
    states = np.zeros((m + 1, model.d))

    def observer(j, t, X):
        states[j + 1] = X[0]

    _euler_sweep(model, T, h, seed, [path_index], x0, observer)
    return h * np.arange(m + 1), states


def euler_terminal_states(model: SymbolModel, T: float, h: float,
                          n_paths: int, seed: int, x0=None) -> np.ndarray:
    """Terminal states of n_paths Euler paths (chunked, deterministic)."""
    d = model.d
    m = _step_count(T, h)
    out = np.empty((n_paths, d))

    def work(chunk):
        idx = list(chunk)
        out[idx[0]:idx[-1] + 1] = _euler_sweep(model, T, h, seed, idx, x0,
                                               lambda j, t, X: None)

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


def _trend_verdict(values, stderrs, notes):
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
    if ratio >= 1.0 + _TREND_MARGIN and ghat >= _TREND_BAND:
        return DIVERGENT_TREND, ghat, ratio
    if ratio <= 1.0 - _TREND_MARGIN:
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

        def occupy(acc, t, X):   # acc >= 0, so acc + 0 * ... is acc
            acc += _in_ball(X, r) * (t ** kappa * h)

        sums = _euler_snapshots(model, config, 4.0 * T, [
            _step_count(c * T, h) for c in (1.0, 2.0, 4.0)], occupy)
        values = [float(np.mean(sums[:, k])) for k in range(3)]
        errs = [float(np.std(sums[:, k], ddof=1) / math.sqrt(n))
                for k in range(3)]
    verdict, ghat, ratio = _trend_verdict(values, errs, notes)
    return OccupationEstimate(
        horizons=(T, 2.0 * T, 4.0 * T), values=tuple(values),
        stderrs=tuple(errs), growth_exponent=ghat, increment_ratio=ratio,
        verdict=verdict, mode=config.mode, kappa=kappa, radius=r,
        notes=tuple(notes))


def _marginal_grid(config):
    lo = min(_T_FLOOR, config.horizon / 100.0)
    hi = 4.0 * config.horizon
    n = max(8, int(math.ceil(math.log10(hi / lo) * config.nodes_per_decade)))
    grid = np.geomspace(lo, hi, n)
    anchors = np.asarray([config.horizon, 2.0 * config.horizon, hi])
    grid = np.sort(np.concatenate([grid, anchors]))  # np.unique loads numpy.ma
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


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
    marked = set(marks)

    def work(chunk):
        idx = list(chunk)
        acc = np.zeros(len(idx))

        def observer(j, t, X):
            update(acc, t, X)
            if j + 1 in marked:
                out[idx[0]:idx[-1] + 1, np.equal(marks, j + 1)] = acc[:, None]

        _euler_sweep(model, T, h, config.seed, idx, None, observer)

    _run_chunks(_chunks(n, _step_count(T, h), model.d), work)
    return out


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


def _mean_sd(v):
    """(np.mean(v), np.std(v, ddof=1)) bit for bit for a 1-d float array v
    of length >= 2, by the steps of numpy's _var; overwrites v."""
    n = v.size
    mean = np.add.reduce(v) / n
    np.subtract(v, mean, out=v)
    np.square(v, out=v)
    return float(mean), math.sqrt(np.add.reduce(v) / (n - 1))


def ecf_check(model: SymbolModel, t: float, xi_set, config: SimConfig) -> EcfReport:
    """Empirical characteristic function against exp(-t q(xi)), with
    3-standard-error bands per frequency."""
    n = config.paths
    gen = substream(config.seed, 0, _DOMAIN_MARGINAL)
    x = sample_levy_marginal(model, t, gen, n)
    phase, trig = np.empty(n), np.empty(n)
    rows = []
    all_pass = True
    min_real, min_err = math.inf, 0.0
    for xi in xi_set:
        xi = np.asarray(xi, dtype=float).reshape(model.d)
        np.matmul(x, xi, out=phase)
        re_hat, re_sd = _mean_sd(np.cos(phase, out=trig))
        im_hat, im_sd = _mean_sd(np.sin(phase, out=phase))
        re_err, im_err = re_sd / math.sqrt(n), im_sd / math.sqrt(n)
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

