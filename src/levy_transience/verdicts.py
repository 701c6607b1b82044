"""Divergence/convergence verdicts for one-dimensional radial integrals.

A verdict is a numerical surrogate for "this integral is infinite/finite":
the log of the radial integrand is sampled on a geometric ladder toward
the singular end (the origin or infinity), a local power exponent is
fitted, and the state follows from comparing the exponent with -1.
Exponents inside a tolerance band give an honest Inconclusive; a secondary
logarithmic refinement (exact for power-law integrands) records which side
a boundary case falls on. `model_memo` and `memo_key` key every memo on
a model or density object by all the inputs of the value it holds.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, QuadratureError
from .quadrature import log_gauss_blocks

DIVERGES = "diverges"
CONVERGES = "converges"
INCONCLUSIVE = "inconclusive"

AT_ORIGIN = "origin"
AT_INFINITY = "infinity"

DEFAULT_BAND = 0.05
DEFAULT_LADDER = 24
_REFINE_TOL = 1e-3
#: Gauss-Legendre nodes per octave of a verdict's partial integrals
_N_GL = 16


@dataclass(frozen=True)
class DivergenceVerdict:
    """Tri-state verdict with the fitted local exponent and partial integrals.

    `state` honors the band: exponents within DEFAULT_BAND of the critical
    value -1 are Inconclusive. `refined_state` records the logarithmic-
    refinement resolution of boundary cases; `decided_state` prefers it
    when the primary state is Inconclusive.
    """

    state: str
    exponent: float
    partials: tuple
    singularity: str = AT_ORIGIN
    refined_state: str | None = None
    notes: tuple = ()

    @property
    def decided_state(self) -> str:
        if self.state != INCONCLUSIVE:
            return self.state
        return self.refined_state or INCONCLUSIVE

    def to_json(self):
        exp = self.exponent
        return {
            "state": self.state,
            "exponent": None if not math.isfinite(exp) else exp,
            "band": DEFAULT_BAND,
            "partials": [{"eps": e, "value": v} for e, v in self.partials],
            "singularity": self.singularity,
            "refined_state": self.refined_state,
            "notes": list(self.notes),
        }


def _line(x, y):
    """(slope, intercept) of the least-squares line through (x, y): the
    closed form about the means plus one correction from the residuals."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    sxx = dx @ dx
    slope = dx @ dy / sxx
    slope += dx @ (dy - slope * dx) / sxx
    return float(slope), float(y_mean - slope * x_mean)


def _refine(log_rhos, log_y, singularity):
    """Boundary refinement: behavior of y = G(rho) * rho near the singular end.

    For power integrands y ~ rho^s with s = exponent + 1; the sign of s
    decides the integral, and s ~ 0 (the genuinely logarithmic case) is
    decided by the level: a positive limit of y means a log-divergent
    integral. The level is estimated as the intercept of a regression of y
    (scaled to max 1) against 1 / log-distance to the singularity.
    """
    s = _line(log_rhos, log_y)[0]
    if s < -_REFINE_TOL:
        return DIVERGES if singularity == AT_ORIGIN else CONVERGES
    if s > _REFINE_TOL:
        return CONVERGES if singularity == AT_ORIGIN else DIVERGES
    y = np.exp(log_y - np.max(log_y))
    logdist = -log_rhos if singularity == AT_ORIGIN else log_rhos
    usable = logdist > 0.3
    level = float(np.mean(y))
    if np.count_nonzero(usable) >= 3:
        level = _line(1.0 / logdist[usable], y[usable])[1]
    return DIVERGES if level > 0.25 else CONVERGES


def memo_key(value):
    """value as a memo key: an array by its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    return value


def model_memo(fn):
    """Memoize fn(obj, ...) in the `_cache` dict of the frozen obj (a model
    or a density), keyed by fn and all its other arguments (defaults filled
    in, an array by memo_key), so a warm obj answers as a fresh one. Calls
    with another unhashable argument are not memoized. Every caller gets
    the same result object (an array one read-only), so callers must not
    mutate it."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memo(obj, *args, **kwargs):
        bound = signature.bind(obj, *args, **kwargs)
        bound.apply_defaults()
        key = (fn, *map(memo_key, list(bound.arguments.values())[1:]))
        try:
            return obj._cache[key]
        except KeyError:
            pass
        except TypeError:
            return fn(obj, *args, **kwargs)
        obj._cache[key] = value = fn(obj, *args, **kwargs)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        return value

    return memo


@functools.lru_cache(maxsize=64)
def verdict_ladder(r, singularity):
    """Read-only radii of a verdict (the dyadic ladder r * 2^{-+k}, k = 0..K
    for K = DEFAULT_LADDER, then the Gauss nodes of its octaves), node
    weights, node octaves and log rho on the ladder."""
    k = np.arange(DEFAULT_LADDER + 1)
    rhos = r * 2.0 ** (-k) if singularity == AT_ORIGIN else r * 2.0 ** k
    lo, hi = np.minimum(rhos[:-1], rhos[1:]), np.maximum(rhos[:-1], rhos[1:])
    nodes, weights = log_gauss_blocks(lo, hi, _N_GL)
    arrays = (np.concatenate([rhos, nodes.ravel()]), weights.ravel(),
              np.repeat(np.arange(DEFAULT_LADDER), _N_GL), np.log(rhos))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def log_power_law(log_c, a, b, rhos, env):
    """log G for the power-law integrand G = c rho^a / env^b of a radial
    test, formed in log space so that G may lie far outside the float
    range; env holds the envelope values at rhos."""
    return log_c + a * np.log(rhos) - b * np.log(env)


def verdict_from_radial_integrand(log_G, r,
                                  singularity=AT_ORIGIN) -> DivergenceVerdict:
    """Verdict for the integral of G over (0, r] or [r, infinity), given
    log G: the verdict depends only on the slope of log G against log rho,
    so a G far outside the float range is tested as well.

    log_G must be vectorized and finite on the ladder; it is called once, on
    the radii of verdict_ladder. Partial integrals run from r toward the
    singular end over eps_k = r * 2^{-k} (origin) or rho_k = r * 2^k.
    """
    K = DEFAULT_LADDER
    points, weights, owner, log_rhos = verdict_ladder(r, singularity)
    lg, lgn = np.split(np.asarray(log_G(points), dtype=float), [K + 1])
    if np.any(np.isnan(lg) | (lg == math.inf)):
        raise QuadratureError("radial integrand is not finite on the ladder")
    if np.any(lg == -math.inf):
        raise DegenerateModelError(
            "radial integrand vanishes at positive radius; model degenerate")

    # partial integrals octave by octave, relative to the largest G on the
    # ladder: a partial beyond the float range reads inf (or 0), never NaN
    top = np.max(lg)
    with np.errstate(divide="ignore", over="ignore"):
        contrib = weights * np.exp(lgn - top)
        octave_ints = np.bincount(owner, weights=contrib, minlength=K)
        cumulative = np.exp(np.log(np.cumsum(octave_ints)) + top)
    partials = tuple(zip(points[1:K + 1].tolist(), cumulative.tolist()))

    inner = slice(K // 2, K + 1)
    exponent = _line(log_rhos[inner], lg[inner])[0]
    window = slice(K - 7, K + 1)
    refined_state = _refine(log_rhos[window], lg[window] + log_rhos[window],
                            singularity)

    # rho^e is integrable at the origin iff e > -1, at infinity iff e < -1
    below = exponent <= -1.0 - DEFAULT_BAND
    above = exponent >= -1.0 + DEFAULT_BAND
    if below if singularity == AT_ORIGIN else above:
        state = DIVERGES
    elif above if singularity == AT_ORIGIN else below:
        state = CONVERGES
    else:
        state = INCONCLUSIVE

    return DivergenceVerdict(
        state=state, exponent=exponent, partials=partials,
        singularity=singularity, refined_state=refined_state)


def noted_verdict(state, notes) -> DivergenceVerdict:
    """Annotation verdict decided by inspection, with no ladder: DIVERGES
    where the integrand is +infinity (e.g. a vanishing denominator on a set
    of positive measure), INCONCLUSIVE where the test does not apply."""
    return DivergenceVerdict(
        state=state, exponent=float("nan"), partials=(),
        refined_state=state, notes=tuple(notes))
