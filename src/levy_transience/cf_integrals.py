"""Chung-Fuchs type integral tests over small frequencies.

The weak-side test integrates, over a ball B(0, r) in frequency space,

    F(xi) = int_0^{t0(xi)} f(t) dt,     t0(xi) = ln 2 / (4 sup_x |q(x, xi)|),

and the process is f-weakly transient when that integral diverges. The
strong-side test integrates

    int_0^infinity f(t) exp[-(t/16) inf_x Re q(x, xi)] dt

and convergence is sufficient for f-strong transience (under the sector
condition). For the power weight f(t) = t^kappa both reduce, up to constants
that cannot affect divergence, to

    int_B(0,r) dxi / (sup_x |q|)^{kappa+1}     (weak side)
    int_B(0,r) dxi / (inf_x Re q)^{kappa+1}    (strong side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateModelError,
    ModelInvariantError,
    check_kappa,
)
from .quadrature import gauss_linear_nodes, sphere_surface
from .symbols import (
    ENV_INF_RE,
    ENV_SUP_ABS,
    SymbolModel,
    envelope_is_radial,
    envelope_profile,
)
from .verdicts import (
    AT_ORIGIN,
    DivergenceVerdict,
    diverges_verdict,
    memoized_profile,
    verdict_from_radial_integrand,
)

_LN2 = math.log(2.0)
_LAGUERRE_N = 64
#: directions a non-radial envelope is reduced over
_N_DIRECTIONS = 64


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative, non-decreasing C^1 weight f on [0, infinity)."""

    tag: str                     # "power" | "constant" | "custom"
    kappa: float = 0.0
    fn: object = None
    user_attested_smooth: bool = False

    @staticmethod
    def power(kappa):
        check_kappa(kappa)
        return WeightFunction(tag="power", kappa=float(kappa))

    @staticmethod
    def constant():
        return WeightFunction(tag="constant")

    @staticmethod
    def custom(fn, attested_smooth=False):
        if not attested_smooth:
            raise ConfigurationError(
                "custom weights require the smoothness/monotonicity attestation")
        t = np.linspace(0.0, 50.0, 201)
        vals = np.asarray([fn(x) for x in t], dtype=float)
        if np.any(vals < 0) or np.any(np.diff(vals) < -1e-12):
            raise ModelInvariantError(
                "custom weight must be nonnegative and non-decreasing")
        return WeightFunction(tag="custom", fn=fn, user_attested_smooth=True)

    def integral_to(self, t0):
        """int_0^{t0} f(t) dt, vectorized over t0."""
        return np.exp(self.log_integral_to(t0))

    def log_integral_to(self, t0):
        """log int_0^{t0} f(t) dt, vectorized over t0."""
        t0 = np.asarray(t0, dtype=float)
        if self.tag == "power":
            return (self.kappa + 1.0) * np.log(t0) - math.log(self.kappa + 1.0)
        if self.tag == "constant":
            return np.log(t0)
        out = np.empty_like(t0)
        for i, b in np.ndenumerate(t0):
            u, w = gauss_linear_nodes(0.0, float(b))
            out[i] = float(w @ np.asarray([self.fn(x) for x in u]))
        return np.log(out)

    def exp_moment(self, m):
        """int_0^infinity f(t) exp(-t m / 16) dt for m > 0, vectorized."""
        return np.exp(self.log_exp_moment(m))

    def log_exp_moment(self, m):
        """log exp_moment(m), vectorized."""
        log_scale = math.log(16.0) - np.log(np.asarray(m, dtype=float))
        if self.tag == "power":
            return math.lgamma(self.kappa + 1.0) + (self.kappa + 1.0) * log_scale
        if self.tag == "constant":
            return log_scale
        nodes, weights = np.polynomial.laguerre.laggauss(_LAGUERRE_N)
        out = np.empty_like(log_scale)
        for i, mm in np.ndenumerate(np.asarray(m, dtype=float)):
            out[i] = float(weights @ np.asarray(
                [self.fn(16.0 / mm * s) for s in nodes]))
        return log_scale + np.log(out)


def _reduced_envelope(model, kind):
    """Vectorized rho -> envelope, reduced over directions toward the largest
    integrand (the smallest envelope value), with per-model caching."""
    n = 1 if envelope_is_radial(model, kind) else _N_DIRECTIONS
    return memoized_profile(
        model, ("profile", kind),
        lambda rhos: envelope_profile(model, kind, rhos, reduce="min",
                                      n_directions=n))


_WHAT = {ENV_SUP_ABS: "sup |q|", ENV_INF_RE: "inf Re q"}


def _frequency_test(model, kind, r, integrand, kappa=None):
    """Verdict on int_B(0,r) exp(integrand(log(S_d rho^{d-1}), m(rho))) drho,
    where m is the `kind` envelope reduced over directions and the integrand
    returns the log of the radial integrand.

    The weak side (sup |q|) needs m > 0 at every frequency; on the strong
    side (inf Re q) a vanishing envelope makes the integral infinite.
    """
    if r <= 0:
        raise ConfigurationError(f"radius must be positive, got {r}")
    if kappa is not None:
        check_kappa(kappa)
    env = _reduced_envelope(model, kind)
    log_s_d = math.log(sphere_surface(model.d))
    if kind == ENV_INF_RE:
        if np.any(env(np.asarray([r / 2.0, r / 8.0, r / 64.0])) <= 0.0):
            return diverges_verdict(notes=(
                "inf Re q vanishes on the test set; strong-side integral is "
                "infinite",))

    def log_G(rhos):
        m = env(rhos)
        if np.any(m < 0):
            raise DegenerateModelError(f"{_WHAT[kind]} envelope is negative")
        if kind == ENV_SUP_ABS and np.any(m == 0.0):
            raise DegenerateModelError(
                "sup |q| vanishes at positive frequency; model degenerate")
        # log 0 where inf Re q vanishes at a ladder point: +inf log G,
        # which verdict_from_radial_integrand reports as a QuadratureError
        with np.errstate(divide="ignore"):
            return integrand(log_s_d + (model.d - 1) * np.log(rhos), m)

    return verdict_from_radial_integrand(log_G, r, singularity=AT_ORIGIN)


def weak_integral_f(model: SymbolModel, f: WeightFunction,
                    r: float) -> DivergenceVerdict:
    """Weak-side test with a general weight; Diverges supports weak transience."""
    return _frequency_test(
        model, ENV_SUP_ABS, r,
        lambda lrad, m: lrad + f.log_integral_to(_LN2 / (4.0 * m)))


def strong_integral_f(model: SymbolModel, f: WeightFunction,
                      r: float) -> DivergenceVerdict:
    """Strong-side test with a general weight; Converges supports strong
    transience (given the sector condition, which the caller records)."""
    return _frequency_test(model, ENV_INF_RE, r,
                           lambda lrad, m: lrad + f.log_exp_moment(m))


def weak_integral_kappa(model: SymbolModel, kappa: float,
                        r: float) -> DivergenceVerdict:
    """int_B(0,r) dxi / (sup_x |q|)^{kappa+1}; Diverges supports weak transience."""
    return _frequency_test(model, ENV_SUP_ABS, r,
                           lambda lrad, m: lrad - (kappa + 1.0) * np.log(m),
                           kappa)


def strong_integral_kappa(model: SymbolModel, kappa: float,
                          r: float) -> DivergenceVerdict:
    """int_B(0,r) dxi / (inf_x Re q)^{kappa+1}; Converges supports strong
    transience."""
    return _frequency_test(model, ENV_INF_RE, r,
                           lambda lrad, m: lrad - (kappa + 1.0) * np.log(m),
                           kappa)


def r_independence_report(model: SymbolModel, test, r_list) -> bool:
    """Run `test(model, r)` at every radius; True when all verdicts agree.

    Requires the (weak-side) envelope to be radial in xi, which is what makes
    the tests radius-independent in the first place.
    """
    if not envelope_is_radial(model, ENV_SUP_ABS):
        raise ConfigurationError(
            "radius-independence needs a radial sup-envelope")
    states = [test(model, r).decided_state for r in r_list]
    return all(s == states[0] for s in states)
