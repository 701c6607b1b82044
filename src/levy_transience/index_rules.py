"""Pruitt-type scaling indices and the index rules of the classifier.

The lower index is the small-frequency scaling exponent of sup_x |q(x, xi)|,
the upper index that of inf_x Re q(x, xi). Both are the exponents of the
germs a family states; for a model without stated germs they are the
regression slopes of the envelopes (envelope_profile) over a dyadic
frequency ladder, each with a margin.

Every rule is a one-sided bound on a germ exponent, given as (side,
rule_id, statement, (beta, p), premise): a weak-side bound puts the sup
exponent at or above (beta, p), a strong-side one the inf exponent at or
below it. `_fire` decides each bound by germ_integrable, computes its
premise only where that comparison gives the bound's side, and yields the
(side, rule_id, statement, detail) of every rule that fires. The
closed-form band bounds both exponents by the stated germs; the index band
has the measure bounds of moment_rules and the envelope bounds of
shape_diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateModelError
from .symbols import (
    ENV_INF_RE,
    ENV_SUP_ABS,
    FAMILIES,
    SymbolModel,
    envelope_is_radial,
    envelope_profile,
    germ_integrable,
    symbol_even_in_xi,
)
from .verdicts import _line, model_memo

_K_LO, _K_HI = 4, 20


@dataclass(frozen=True)
class PruittIndices:
    """Scaling indices with fit diagnostics (residual and margin 0 where
    stated)."""

    lower: float
    upper: float
    margin_lower: float
    margin_upper: float
    window: tuple = (_K_LO, _K_HI)
    residual_lower: float = 0.0
    residual_upper: float = 0.0

    def to_json(self):
        return dict(asdict(self), window=list(self.window))


def _fit(rhos, vals):
    """(slope, residual, margin) of log vals against log rhos: the margin is
    the slope change between the two halves of the ladder plus the largest
    residual."""
    lx, ly = np.log(rhos), np.log(vals)
    slope, intercept = _line(lx, ly)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    half = lx.size // 2
    change = _line(lx[:half + 1], ly[:half + 1])[0] \
        - _line(lx[half:], ly[half:])[0]
    return slope, residual, abs(change) + residual


@model_memo
def pruitt_indices(model: SymbolModel) -> PruittIndices:
    """The exponents of the family's stated sup and inf germs; without them,
    slopes over the dyadic radii 2^-_K_LO .. 2^-_K_HI of the sup-envelope
    and of the inf-envelope, each with its margin (_fit)."""
    germs = FAMILIES[model.family].indices(model)
    if germs is not None:
        (lo, _), (hi, _) = germs
        return PruittIndices(lo, hi, margin_lower=0.0, margin_upper=0.0)
    rhos = 2.0 ** (-np.arange(_K_LO, _K_HI + 1).astype(float))
    sup_prof = envelope_profile(model, ENV_SUP_ABS, rhos)
    inf_prof = envelope_profile(model, ENV_INF_RE, rhos)
    if np.any(sup_prof <= 0.0):
        raise DegenerateModelError("sup-envelope vanishes on the dyadic ladder")
    lo, res_lo, margin_lo = _fit(rhos, sup_prof)
    hi, res_hi, margin_hi = _fit(rhos, inf_prof) if np.all(inf_prof > 0.0) \
        else (math.inf, math.nan, math.nan)
    return PruittIndices(lower=lo, upper=hi, margin_lower=margin_lo,
                         margin_upper=margin_hi, residual_lower=res_lo,
                         residual_upper=res_hi)


# ---------------------------------------------------------------------------
# Rules.
# ---------------------------------------------------------------------------

def _fire(model, kappa, bounds):
    """The (side, rule_id, statement, detail) of each bound (side, rule_id,
    statement, (beta, p), premise) that fires: the germ rho^beta
    (ln 1/rho)^p decides the bound's side by germ_integrable (divergence for
    a bound on the sup exponent, the weak side; convergence for one on the
    inf exponent, the strong side), and then premise() gives the detail of
    a premise that holds, or None. A premise of None always holds."""
    for side, rule_id, statement, (beta, p), premise in bounds:
        if germ_integrable(beta, p, kappa, model.d) != (side == "strong"):
            continue
        detail = {} if premise is None else premise()
        if detail is not None:
            yield (side, rule_id, statement,
                   dict(detail, d=model.d, kappa=kappa, beta=beta,
                        log_exponent=p, product=beta * (kappa + 1.0)))


_EXACT = {"weak": "sup-envelope germ rho^beta (ln 1/rho)^p with beta(kappa+1) "
                  "> d, or = d and p(kappa+1) <= 1: the weak-side integral "
                  "diverges",
          "strong": "inf-envelope germ rho^beta (ln 1/rho)^p with "
                    "beta(kappa+1) < d, or = d and p(kappa+1) > 1: the "
                    "strong-side integral converges"}


def index_exact_rules(model: SymbolModel, kappa: float):
    """The closed-form rules: the family's stated germs are the sup and the
    inf exponent, exact bounds on both."""
    germs = FAMILIES[model.family].indices(model) or ()
    return _fire(model, kappa, [
        (side, f"index-exact-{side}", _EXACT[side], germ, None)
        for side, germ in zip(("weak", "strong"), germs)])


def uniform_second_moment(model: SymbolModel) -> float | None:
    """sup over states of int |y|^2 nu(x, dy), atoms included; +inf when
    not integrable, None when the family does not know its jump measure."""
    dens = model.triplet.jump_density
    if not FAMILIES[model.family].jump_measure_known:
        return None
    return 0.0 if dens is None else dens.second_moment()


def _quadratic_floor(model: SymbolModel) -> float:
    """liminf surrogate of inf_x Re q(x, xi) / |xi|^2 as xi -> 0: the
    diffusion floor plus the floor of the jump density's quadratic-growth
    ladder (RadialLevyDensity.quadratic_ladder, atoms included)."""
    dens = model.triplet.jump_density
    jumps = 0.0 if dens is None else dens.quadratic_ladder()[0]
    return float(model.triplet.diffusion_bounds[0] + jumps)


def moment_rules(model: SymbolModel, kappa: float):
    """The measure bounds: (i) an even symbol with a known, uniformly finite
    jump second moment has sup |q| <= C rho^2, a sup exponent of at least 2;
    (ii) quadratic growth, a positive lower limit of inf_x Re q(x, xi) /
    |xi|^2 as xi -> 0 (_quadratic_floor), an inf exponent of at most 2."""
    def second_moment():
        m2 = uniform_second_moment(model)
        even = m2 is not None and m2 < math.inf and symbol_even_in_xi(model)
        return {"even_symbol": True, "second_moment": m2} if even else None

    def quadratic_floor():
        floor = _quadratic_floor(model)
        return {"quadratic_floor": floor} if floor > 0.0 else None

    return _fire(model, kappa, (
        ("weak", "second-moment-weak",
         "an even symbol with a finite uniform second moment has sup "
         "exponent >= 2; 2(kappa+1) >= d gives the weak-side condition",
         (2.0, 0.0), second_moment),
        ("strong", "nondegeneracy-strong",
         "nondegenerate quadratic growth has inf exponent <= 2; "
         "2(kappa+1) < d gives the strong-side condition",
         (2.0, 0.0), quadratic_floor)))


def shape_diagnostic(model: SymbolModel, kappa: float):
    """The envelope bounds: (i) the sup exponent is at least the stated sup
    germ, or the fitted lower index less its margin; (ii) a concave radial
    inf-envelope near 0, a stated inf germ with beta < 1, or = 1 and p >= 0,
    or a fitted upper index at most 1 with its margin added, has an inf
    exponent of at most 1. A model with stated germs reads no envelope."""
    germs = FAMILIES[model.family].indices(model)
    if germs is None:
        idx = pruitt_indices(model)
        germs = ((idx.lower - idx.margin_lower, 0.0),
                 (idx.upper + idx.margin_upper, 0.0))
    sup_bound, (beta, p) = germs

    def concave():
        holds = (beta < 1.0 or (beta == 1.0 and p >= 0.0)) \
            and envelope_is_radial(model, ENV_INF_RE)
        return {"inf_bound": (beta, p)} if holds else None

    return _fire(model, kappa, (
        ("weak", "index-lower-sufficient",
         "the lower index bounds the sup exponent below; its germ makes "
         "the weak-side integral diverge", sup_bound, None),
        ("strong", "shape-concave-inf",
         "a concave radial inf-profile near 0 has inf exponent <= 1; "
         "kappa+1 < d gives the strong-side condition", (1.0, 0.0),
         concave)))
