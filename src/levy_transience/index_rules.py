"""Pruitt-type scaling indices and the index rules of the classifier.

The lower index is the small-frequency scaling exponent of sup_x |q(x, xi)|,
the upper index that of inf_x Re q(x, xi). Both are the exponents of the
germs a family states; for a model without stated germs they are estimated
as regression slopes over a dyadic frequency ladder, reducing over
directions with max for the sup-envelope and min for the inf-envelope.

Each rule below is a generator over (model, kappa) that yields the
(side, rule_id, statement, detail) of every rule that fires: the exact-index
rules of the closed-form band, which read a family's stated indices, and
the fitted ones of the index band (the lower-index dimension rule, the
second-moment and quadratic-growth rules, and the concave inf-profile rule).
A rule computes a premise only after its cheaper conditions hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Scaling indices with fit diagnostics (residual 0 where stated)."""

    lower: float
    upper: float
    window: tuple = (_K_LO, _K_HI)
    residual_lower: float = 0.0
    residual_upper: float = 0.0

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper,
                "window": list(self.window),
                "residual_lower": self.residual_lower,
                "residual_upper": self.residual_upper}


def _slope_and_residual(rhos, vals):
    lx, ly = np.log(rhos), np.log(vals)
    slope, intercept = _line(lx, ly)
    return slope, float(np.max(np.abs(ly - (slope * lx + intercept))))


@model_memo
def pruitt_indices(model: SymbolModel) -> PruittIndices:
    """The exponents of the family's stated sup and inf germs; without them,
    slopes over the dyadic radii 2^-_K_LO .. 2^-_K_HI of the sup-envelope
    (max over directions) and of the inf-envelope (min over directions)."""
    germs = FAMILIES[model.family].indices(model)
    if germs is not None:
        (lo, _), (hi, _) = germs
        return PruittIndices(lower=lo, upper=hi)
    rhos = 2.0 ** (-np.arange(_K_LO, _K_HI + 1).astype(float))
    sup_prof = envelope_profile(model, ENV_SUP_ABS, rhos, reduce="max")
    inf_prof = envelope_profile(model, ENV_INF_RE, rhos, reduce="min")
    if np.any(sup_prof <= 0.0):
        raise DegenerateModelError("sup-envelope vanishes on the dyadic ladder")
    lo, res_lo = _slope_and_residual(rhos, sup_prof)
    if np.any(inf_prof <= 0.0):
        hi, res_hi = float("inf"), float("nan")
    else:
        hi, res_hi = _slope_and_residual(rhos, inf_prof)
    return PruittIndices(lower=lo, upper=hi,
                         residual_lower=res_lo, residual_upper=res_hi)


# ---------------------------------------------------------------------------
# Rules.
# ---------------------------------------------------------------------------

_EXACT = {"weak": "sup-envelope germ rho^beta (ln 1/rho)^p with beta(kappa+1) "
                  "> d, or = d and p(kappa+1) <= 1: the weak-side integral "
                  "diverges",
          "strong": "inf-envelope germ rho^beta (ln 1/rho)^p with "
                    "beta(kappa+1) < d, or = d and p(kappa+1) > 1: the "
                    "strong-side integral converges"}


def index_exact_rules(model: SymbolModel, kappa: float):
    """The closed-form rules, from the family's stated germs: int_0
    rho^{d-1} / (rho^beta (ln 1/rho)^p)^{kappa+1} drho converges iff
    beta(kappa+1) < d, or = d and p(kappa+1) > 1. Divergence at the sup
    germ gives the weak side, convergence at the inf germ the strong side."""
    germs = FAMILIES[model.family].indices(model)
    for side, (beta, p) in zip(("weak", "strong"), germs or ()):
        if germ_integrable(beta, p, kappa, model.d) == (side == "strong"):
            yield (side, f"index-exact-{side}", _EXACT[side],
                   {"d": model.d, "kappa": kappa, "beta": beta,
                    "log_exponent": p, "product": beta * (kappa + 1.0)})


def index_bound_rules(model: SymbolModel, kappa: float):
    """d < (kappa+1) * lower_index gives the weak-side condition."""
    lower = pruitt_indices(model).lower
    threshold = (kappa + 1.0) * lower
    if model.d < threshold:
        yield ("weak", "index-lower-sufficient",
               "d < (kappa+1) * lower_index forces the weak-side integral "
               "to diverge",
               {"d": model.d, "kappa": kappa, "lower_index": lower,
                "threshold": threshold})


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
    """Second-moment sufficiency and quadratic nondegeneracy.

    (i) an even symbol with a known, uniformly finite jump second moment
        and d <= 2(kappa+1) gives the weak-side condition;
    (ii) d > 2(kappa+1) plus quadratic growth, a positive lower limit of
        inf_x Re q(x, xi) / |xi|^2 as xi -> 0 (_quadratic_floor), gives
        the strong-side condition.
    """
    d, threshold = model.d, 2.0 * (kappa + 1.0)
    if d <= threshold:
        m2 = uniform_second_moment(model)
        if m2 is not None and m2 < math.inf and symbol_even_in_xi(model):
            yield ("weak", "second-moment-weak",
                   "even symbol, finite uniform second moment and "
                   "d <= 2(kappa+1) give the weak-side condition",
                   {"even_symbol": True, "second_moment": m2, "d": d,
                    "kappa": kappa, "threshold": threshold})
        return
    floor = _quadratic_floor(model)
    if floor > 0.0:
        yield ("strong", "nondegeneracy-strong",
               "nondegenerate quadratic growth and d > 2(kappa+1) give "
               "the strong-side condition",
               {"quadratic_floor": floor, "d": d, "kappa": kappa,
                "threshold": threshold})


# ---------------------------------------------------------------------------
# Concavity of the radial inf-envelope profile.
# ---------------------------------------------------------------------------

@model_memo
def _shape_flags(model, kind):
    """(is_convex, is_concave, window) of the radial `kind` envelope profile
    near 0.

    The window is the largest dyadic radius at which the second-difference
    sign pattern is stable across the window and its half; a profile that
    is not positive on a window has no shape there.
    """
    def classify(eps):
        rho = eps * np.arange(1, 13) / 12
        vals = envelope_profile(model, kind, rho, reduce="min")
        if not np.all(vals > 0.0):
            return False, False
        top = float(np.max(np.abs(vals)))
        # scaled by an exact power of two below 1, so 2 * vals stays finite
        shift = -math.frexp(top)[1]
        vals = np.ldexp(vals, shift)
        d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        tol = math.ldexp(1e-8 * max(top, 1e-300), shift)
        return bool(np.all(d2 >= -tol)), bool(np.all(d2 <= tol))

    for j in range(2, 17):
        eps = 2.0 ** (-j)
        here = classify(eps)
        inner = classify(eps / 2.0)
        if here != (False, False) and here == inner:
            return here[0], here[1], eps
    return False, False, 0.0


def shape_diagnostic(model: SymbolModel, kappa: float):
    """A concave radial inf-profile near 0 bounds the upper index above by
    d/(kappa+1); with kappa+1 < d that gives the strong-side condition. A
    stated inf germ rho^beta (ln 1/rho)^p is concave near 0 iff beta < 1,
    or beta = 1 and p >= 0."""
    if kappa + 1.0 < model.d and envelope_is_radial(model, ENV_INF_RE):
        germs = FAMILIES[model.family].indices(model)
        if germs is None:
            _, concave, window = _shape_flags(model, ENV_INF_RE)
            premise = {"window": window}
        else:
            (beta, p), premise = germs[1], {"inf_germ": germs[1]}
            concave = beta < 1.0 or (beta == 1.0 and p >= 0.0)
        if concave:
            yield ("strong", "shape-concave-inf",
                   "concave radial inf-profile near 0 with kappa+1 < d "
                   "gives the strong-side condition",
                   dict(premise, kappa=kappa, d=model.d,
                        bound="upper_index * (kappa+1) <= d"))
