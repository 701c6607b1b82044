"""Pruitt-type scaling indices and the dimension-based sufficiency rules.

The lower index is the small-frequency scaling exponent of sup_x |q(x, xi)|,
the upper index that of inf_x Re q(x, xi). Both are estimated as regression
slopes over a dyadic frequency ladder, reducing over directions with max for
the sup-envelope and min for the inf-envelope. The rules below convert index
and moment information into one-sided conclusions about the weak-side and
strong-side integral conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, QuadratureError
from .levy_tails import _variant_envelope
from .quadrature import integrate_origin, integrate_tail
from .symbols import (
    ENV_INF_RE,
    ENV_SUP_ABS,
    SymbolModel,
    envelope_is_radial,
    envelope_profile,
    symbol_even_in_xi,
)
from .verdicts import _line, model_memo

IMPLIES_WEAK = "implies_weak_side"       # the weak-side integral diverges
IMPLIES_STRONG = "implies_strong_side"   # the strong-side integral converges
NECESSARY_VIOLATED = "necessary_violated"
NOT_APPLICABLE = "not_applicable"

_K_LO, _K_HI = 4, 20


@dataclass(frozen=True)
class PruittIndices:
    """Estimated scaling indices with fit diagnostics."""

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


@dataclass(frozen=True)
class RuleOutcome:
    """One applied rule: id, conclusion and the premises that were checked."""

    rule: str
    conclusion: str
    premises: dict = field(default_factory=dict)
    statement: str = ""

    @property
    def fired(self):
        return self.conclusion in (IMPLIES_WEAK, IMPLIES_STRONG)

    def to_json(self):
        return {"id": self.rule, "conclusion": self.conclusion,
                "premises": _jsonable(self.premises),
                "statement": self.statement}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _dyadic_profiles(model):
    """Dyadic radii 2^-_K_LO .. 2^-_K_HI with the sup-envelope (max over
    directions) and the inf-envelope (min over directions) on them."""
    rhos = 2.0 ** (-np.arange(_K_LO, _K_HI + 1).astype(float))
    return (rhos,
            envelope_profile(model, ENV_SUP_ABS, rhos, reduce="max",
                             n_directions=16),
            envelope_profile(model, ENV_INF_RE, rhos, reduce="min",
                             n_directions=16))


def _slope_and_residual(rhos, vals):
    lx, ly = np.log(rhos), np.log(vals)
    slope, intercept = _line(lx, ly)
    return slope, float(np.max(np.abs(ly - (slope * lx + intercept))))


@model_memo
def pruitt_indices(model: SymbolModel) -> PruittIndices:
    rhos, sup_prof, inf_prof = _dyadic_profiles(model)
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

def index_bound_rules(d: int, kappa: float, indices: PruittIndices):
    """Sufficiency from the lower index; necessity check against the upper.

    (i) d < (kappa+1) * lower  implies the weak-side condition.
    (ii) the strong-side condition forces d >= (kappa+1) * upper, so
         d < (kappa+1) * upper marks any strong-side claim as violating a
         necessary condition.
    """
    lhs = (kappa + 1.0) * indices.lower
    first = RuleOutcome(
        rule="index-lower-sufficient",
        conclusion=IMPLIES_WEAK if d < lhs else NOT_APPLICABLE,
        premises={"d": d, "kappa": kappa, "lower_index": indices.lower,
                  "threshold": lhs},
        statement="d < (kappa+1) * lower_index forces the weak-side integral "
                  "to diverge")
    rhs = (kappa + 1.0) * indices.upper
    second = RuleOutcome(
        rule="index-upper-necessary",
        conclusion=NECESSARY_VIOLATED if d < rhs else NOT_APPLICABLE,
        premises={"d": d, "kappa": kappa, "upper_index": indices.upper,
                  "threshold": rhs},
        statement="the strong-side condition requires d >= (kappa+1) * "
                  "upper_index")
    return first, second


@model_memo
def uniform_second_moment(model: SymbolModel) -> float:
    """sup over states of int |y|^2 nu(x, dy), atoms included; +inf when
    not integrable."""
    dens = model.triplet.jump_density
    if dens is None:
        return 0.0
    worst = 0.0
    bps = dens.all_breakpoints()
    atoms = sum(radius * radius * mass for radius, mass in dens.atoms)
    for i, variant in enumerate(dens.variants):
        g = dens.second_moment_weight(i)
        try:
            small = integrate_origin(g, 1.0, bps, support_lo=variant.support_lo)
            # alpha <= 2: infinite tail (a tail sum underflows at tiny scales)
            if variant.alpha is not None and variant.alpha <= 2.0:
                return float("inf")
            big = integrate_tail(g, 1.0, bps)
        except QuadratureError:    # DivergentIntegralError among them
            return float("inf")
        worst = max(worst, small + big + atoms)
    return worst


@model_memo
def _quadratic_floor(model: SymbolModel) -> float:
    """liminf surrogate of inf_x (<xi, C xi> + int_{|y| <= pi/(2|xi|)}
    <xi, y>^2 nu) / |xi|^2 as xi -> 0: the diffusion floor plus (1/d) times
    the inf over states of the truncated second moment T3 (atoms included),
    minimized over the smaller half of the dyadic radii."""
    rhos = 2.0 ** (-np.arange(_K_LO, _K_HI + 1).astype(float))
    radii = math.pi / (2.0 * rhos)
    dens = model.triplet.jump_density
    jumps = np.zeros(len(radii)) if dens is None \
        else _variant_envelope(dens, "t3", "inf", radii) / model.d
    floors = model.triplet.diffusion_bounds[0] + jumps
    return float(np.min(floors[len(floors) // 2:]))


def moment_rules(model: SymbolModel, d: int, kappa: float):
    """Second-moment sufficiency and quadratic nondegeneracy.

    (i) an even symbol with uniformly finite jump second moment and
        d <= 2(kappa+1) gives the weak-side condition;
    (ii) d > 2(kappa+1) plus a positive lower limit of
        inf_x (<xi, C xi> + int_{|y| <= pi/(2|xi|)} <xi, y>^2 nu) / |xi|^2
        gives the strong-side condition.
    """
    even = symbol_even_in_xi(model)
    m2 = uniform_second_moment(model)
    first = RuleOutcome(
        rule="second-moment-weak",
        conclusion=IMPLIES_WEAK if even and math.isfinite(m2)
        and d <= 2.0 * (kappa + 1.0) else NOT_APPLICABLE,
        premises={"even_symbol": even, "second_moment": m2, "d": d,
                  "kappa": kappa, "threshold": 2.0 * (kappa + 1.0)},
        statement="even symbol, finite uniform second moment and "
                  "d <= 2(kappa+1) give the weak-side condition")
    tail_min = _quadratic_floor(model)
    nondegenerate = tail_min > 1e-12
    second = RuleOutcome(
        rule="nondegeneracy-strong",
        conclusion=IMPLIES_STRONG if nondegenerate and d > 2.0 * (kappa + 1.0)
        else NOT_APPLICABLE,
        premises={"quadratic_floor": tail_min, "d": d, "kappa": kappa,
                  "threshold": 2.0 * (kappa + 1.0)},
        statement="nondegenerate quadratic growth and d > 2(kappa+1) give "
                  "the strong-side condition")
    return first, second


# ---------------------------------------------------------------------------
# Convexity/concavity diagnostics of the radial envelope profiles.
# ---------------------------------------------------------------------------

@model_memo
def _shape_flags(model, kind):
    """(is_convex, is_concave, window) of the radial `kind` envelope profile
    near 0.

    The window is the largest dyadic radius at which the second-difference
    sign pattern is stable across the window and its half.
    """
    def classify(eps):
        rho = eps * np.arange(1, 13) / 12
        vals = envelope_profile(model, kind, rho, reduce="min",
                                n_directions=1)
        d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        tol = 1e-8 * max(float(np.max(np.abs(vals))), 1e-300)
        return bool(np.all(d2 >= -tol)), bool(np.all(d2 <= tol))

    for j in range(2, 17):
        eps = 2.0 ** (-j)
        here = classify(eps)
        inner = classify(eps / 2.0)
        if here != (False, False) and here == inner:
            return here[0], here[1], eps
    return False, False, 0.0


def shape_diagnostic(model: SymbolModel, kappa: float, d: int):
    """Convexity/concavity rules for the radial envelope profiles.

    Convex sup-profile with kappa+1 >= d bounds the lower index from below;
    concave sup-profile with kappa+1 <= d bounds it from above (and the
    weak-side condition then forces d = kappa+1). The same dichotomy for the
    inf-profile bounds the upper index; in the concave case kappa+1 < d is
    already sufficient for the strong-side condition. Returns the list of
    applicable outcomes (an affine profile fires both bounds).
    """
    outcomes = []
    for kind, label in ((ENV_SUP_ABS, "sup"), (ENV_INF_RE, "inf")):
        if not envelope_is_radial(model, kind):
            outcomes.append(RuleOutcome(
                rule=f"shape-{label}", conclusion=NOT_APPLICABLE,
                premises={"radial": False},
                statement="profile shape rules need a radial envelope"))
            continue

        convex, concave, window = _shape_flags(model, kind)
        index_name = "lower_index" if label == "sup" else "upper_index"
        if convex and kappa + 1.0 >= d:
            extras = {}
            if label == "inf":
                extras["equality_forced"] = \
                    "the strong-side condition would force d = kappa+1"
            outcomes.append(RuleOutcome(
                rule=f"shape-convex-{label}", conclusion=NOT_APPLICABLE,
                premises={"window": window, "kappa": kappa, "d": d,
                          "bound": f"{index_name} * (kappa+1) >= d", **extras},
                statement=f"convex radial {label}-profile near 0 bounds "
                          f"{index_name} below by d/(kappa+1)"))
        if concave and kappa + 1.0 <= d:
            if label == "inf" and kappa + 1.0 < d:
                outcomes.append(RuleOutcome(
                    rule="shape-concave-inf", conclusion=IMPLIES_STRONG,
                    premises={"window": window, "kappa": kappa, "d": d,
                              "bound": f"{index_name} * (kappa+1) <= d"},
                    statement="concave radial inf-profile near 0 with "
                              "kappa+1 < d gives the strong-side condition"))
            else:
                extras = {}
                if label == "sup":
                    extras["equality_forced"] = \
                        "the weak-side condition would force d = kappa+1"
                outcomes.append(RuleOutcome(
                    rule=f"shape-concave-{label}", conclusion=NOT_APPLICABLE,
                    premises={"window": window, "kappa": kappa, "d": d,
                              "bound": f"{index_name} * (kappa+1) <= d", **extras},
                    statement=f"concave radial {label}-profile near 0 bounds "
                              f"{index_name} above by d/(kappa+1)"))
        if not convex and not concave:
            outcomes.append(RuleOutcome(
                rule=f"shape-{label}", conclusion=NOT_APPLICABLE,
                premises={"window": window, "convex": False, "concave": False},
                statement="profile is neither convex nor concave within "
                          "tolerance near 0"))
    return outcomes
