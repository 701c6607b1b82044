"""Chung-Fuchs type integral tests over small frequencies.

The weak-side test integrates, over a ball B(0, r) in frequency space,

    F(xi) = int_0^{t0(xi)} f(t) dt,     t0(xi) = ln 2 / (4 sup_x |q(x, xi)|),

and the process is f-weakly transient when that integral diverges. The
strong-side test integrates

    int_0^infinity f(t) exp[-(t/16) inf_x Re q(x, xi)] dt

and convergence is sufficient for f-strong transience (under the sector
condition). For the power weight f(t) = t^kappa, the weight these tests
use, both reduce, up to constants that cannot affect divergence, to

    int_B(0,r) dxi / (sup_x |q|)^{kappa+1}     (weak side)
    int_B(0,r) dxi / (inf_x Re q)^{kappa+1}    (strong side).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateModelError, check_kappa, check_positive
from .quadrature import sphere_surface
from .symbols import (
    ENV_INF_RE,
    ENV_SUP_ABS,
    FAMILIES,
    SymbolModel,
    envelope_is_radial,
    envelope_profile,
)
from .verdicts import (
    AT_ORIGIN,
    DIVERGES,
    INCONCLUSIVE,
    DivergenceVerdict,
    log_power_law,
    noted_verdict,
    verdict_from_radial_integrand,
)

_WHAT = {ENV_SUP_ABS: "sup |q|", ENV_INF_RE: "inf Re q"}


def _frequency_test(model, kind, r, kappa):
    """Verdict on int_B(0,r) dxi / m(xi)^{kappa+1} = int_0^r S_d rho^{d-1} /
    m(rho)^{kappa+1} drho, where m is the `kind` envelope reduced over
    directions (envelope_profile).

    The weak side (sup |q|) needs m > 0 at every frequency; on the strong
    side (inf Re q) a vanishing envelope makes the integral infinite, and a
    min over sampled directions of an envelope that is neither radial nor a
    closed form certifies nothing.
    """
    check_positive("radius", r)
    check_kappa(kappa)
    env = functools.partial(envelope_profile, model, kind)
    log_s_d = math.log(sphere_surface(model.d))
    if kind == ENV_INF_RE:
        if not (FAMILIES[model.family].closed_envelopes
                or envelope_is_radial(model, kind)):
            return noted_verdict(INCONCLUSIVE, (
                "inf Re q is neither radial nor a closed form: a min over "
                "sampled directions may miss its least direction, so the "
                "strong-side integral is not tested",))
        if np.any(env(np.asarray([r / 2.0, r / 8.0, r / 64.0])) <= 0.0):
            return noted_verdict(DIVERGES, (
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
            return log_power_law(log_s_d, model.d - 1, kappa + 1.0, rhos, m)

    return verdict_from_radial_integrand(log_G, r, singularity=AT_ORIGIN)


def weak_integral_kappa(model: SymbolModel, kappa: float,
                        r: float) -> DivergenceVerdict:
    """int_B(0,r) dxi / (sup_x |q|)^{kappa+1}; Diverges supports weak transience."""
    return _frequency_test(model, ENV_SUP_ABS, r, kappa)


def strong_integral_kappa(model: SymbolModel, kappa: float,
                          r: float) -> DivergenceVerdict:
    """int_B(0,r) dxi / (inf_x Re q)^{kappa+1}; Converges supports strong
    transience."""
    return _frequency_test(model, ENV_INF_RE, r, kappa)

