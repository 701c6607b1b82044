"""Tail functionals of radial jump measures and the measure-side tests.

For a radial density the three tail functionals are

    T1(rho) = int_0^rho u * nu(B^c(0, u)) du        (integrated tail)
    T2(rho) = rho^2 * nu(B^c(0, rho))               (scaled tail mass)
    T3(rho) = int_{B(0, rho)} |y|^2 nu(dy)          (truncated second moment)

linked by the integration-by-parts identity T1 = T2/2 + T3/2. T1 drives the
measure-side weak/strong tests: divergence of

    int_r^infinity rho^{2 kappa - d + 1} / (env_x T1(x, rho))^{kappa+1} drho

with the sup-envelope supports weak transience; with the inf-envelope, its
convergence is the strong-side criterion. T1 is computed here by genuinely
nested quadrature (the identity stays an independent cross-check).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .densities import RadialLevyDensity
from .errors import (
    ConfigurationError,
    DivergentIntegralError,
    LevyMeasureError,
    NonPowerTailError,
    NotApplicableError,
    check_kappa,
    check_positive,
)
from .quadrature import (
    integrate_origin,
    integrate_tail,
    origin_cumulative,
    row_groups,
    segment_integrals,
    sphere_surface,
    stacked_weight,
    tail_cumulative,
)
from .verdicts import (
    AT_INFINITY,
    CONVERGES,
    DIVERGES,
    DivergenceVerdict,
    memoized_profile,
    memoized_profiles,
    _line,
    model_memo,
    verdict_from_radial_integrand,
    verdict_ladder,
)


# ---------------------------------------------------------------------------
# Tail functionals.
# ---------------------------------------------------------------------------

def tail_mass(density: RadialLevyDensity, u: float, variant=0) -> float:
    """nu(B^c(0, u)) = S_d int_u^infinity v^{d-1} n(v) dv, plus any atom
    mass at radii >= u: the one-point tail-mass sweep."""
    if u <= 0:
        raise ConfigurationError("tail mass needs u > 0")
    try:
        return float(_tail_mass_sweep(density, [variant], [[u]])[0][0])
    except DivergentIntegralError as exc:
        raise LevyMeasureError(
            "tail mass is infinite: the jump measure violates "
            "int min(1, |y|^2) nu(dy) < infinity") from exc


def truncated_second_moment(density: RadialLevyDensity, rho: float,
                            variant=0) -> float:
    """int_{B(0, rho)} |y|^2 nu(dy) = S_d int_0^rho u^{d+1} n(u) du."""
    if rho <= 0:
        raise ConfigurationError("truncated second moment needs rho > 0")
    return float(_second_moment_sweep(density, [variant], [[rho]])[0][0])


def _t1_ladder(density, variants, radii):
    """T1 at the (ascending) radii of each listed variant: the origin-side
    integral of u * nu(B^c(0, u)). Its integrand takes the tail masses at
    the nodes of a call from one tail-mass sweep over them, so a variant's
    nodes must share a call as they do alone: the octave sums below the
    ladders are rows of one sweep (a call holds whole rows), and the gaps of
    a ladder, a few hundred Gauss blocks of 16 tail-mass blocks each, are
    one call per variant."""
    def integrand(picked):
        def masses(groups, blocks):
            nodes = [np.unique(u, return_inverse=True) for u in blocks]
            tm = _tail_mass_sweep(density, [picked[i] for i in groups],
                                  [x for x, _ in nodes])
            return [u * m[back].reshape(u.shape)
                    for u, (_, back), m in zip(blocks, nodes, tm)]

        return row_groups(masses)

    bps = density.all_breakpoints()
    bottoms = origin_cumulative(integrand(variants), [r[:1] for r in radii],
                                bps, [0.0] * len(radii))
    return [np.append(b, b + np.cumsum(
        segment_integrals(integrand([i]), [r], bps)[0]))
        for b, i, r in zip(bottoms, variants, radii)]


def integrated_tail(density: RadialLevyDensity, rho: float, variant=0) -> float:
    """T1(rho) = int_0^rho u * nu(B^c(0, u)) du by nested quadrature."""
    if rho <= 0:
        raise ConfigurationError("integrated tail needs rho > 0")
    return float(_t1_ladder(density, [variant], [[rho]])[0][0])


@dataclass(frozen=True)
class TailFunctionals:
    """The three tail functionals at one (variant, rho)."""

    integrated_tail: float     # T1
    scaled_tail_mass: float    # T2 = rho^2 * nu(B^c(0, rho))
    truncated_moment: float    # T3

    @property
    def parts_identity_gap(self):
        lhs = self.integrated_tail
        rhs = 0.5 * self.scaled_tail_mass + 0.5 * self.truncated_moment
        return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def tail_functionals(density: RadialLevyDensity, rho: float,
                     variant=0) -> TailFunctionals:
    return TailFunctionals(
        integrated_tail=integrated_tail(density, rho, variant),
        scaled_tail_mass=rho ** 2 * tail_mass(density, rho, variant),
        truncated_moment=truncated_second_moment(density, rho, variant))


def _tail_mass_sweep(density, variants, radii):
    """Tail mass at the (ascending) radii of each listed variant: one
    cumulative sweep, one row group per variant."""
    w = stacked_weight([density.radial_weight(i) for i in variants])
    return [m + density.atom_tail_mass(r) for m, r in zip(
        tail_cumulative(w, radii, density.all_breakpoints()), radii)]


def _second_moment_sweep(density, variants, radii):
    """T3 at the (ascending) radii of each listed variant: one origin-side
    cumulative sweep, one row group per variant."""
    w = stacked_weight([density.second_moment_weight(i) for i in variants])
    return [m + density.atom_second_moment(r) for m, r in zip(
        origin_cumulative(w, radii, density.all_breakpoints(),
                          [density.support_lo(i) for i in variants]), radii)]


# Tail functional tag -> (density, variants, ascending radii of each) ->
# one array of values per variant.
_SWEEPS = {"t1": _t1_ladder, "tm": _tail_mass_sweep, "t3": _second_moment_sweep}


def _variant_envelope(density, tag, which, rhos):
    """sup or inf over the variants of the tail functional `tag` (T1, tail
    mass or T3), memoized on the density per variant and per envelope. The
    variants that lack radii run as row groups of one sweep."""
    variants = memoized_profiles(
        density, [(tag, i) for i in range(len(density.variants))],
        functools.partial(_SWEEPS[tag], density))
    reduce = np.max if which == "sup" else np.min
    return memoized_profile(density, (tag, which),
                            lambda radii: reduce(variants(radii), axis=0))(rhos)


# ---------------------------------------------------------------------------
# Measure-side divergence tests.
# ---------------------------------------------------------------------------

def tail_test_weak(density: RadialLevyDensity, d: int, kappa: float,
                   r: float) -> DivergenceVerdict:
    """Divergence of the T1 sup-envelope integral supports weak transience."""
    return _tail_test(density, d, kappa, r, which="sup")


def tail_test_strong(density: RadialLevyDensity, d: int, kappa: float,
                     r: float) -> DivergenceVerdict:
    """Convergence of the T1 inf-envelope integral is the strong-side
    criterion (an equivalence under a decreasing density plus quadratic
    growth of the symbol; otherwise one-directional)."""
    return _tail_test(density, d, kappa, r, which="inf")


def _check_dimension(density, d):
    if d != density.d:
        raise ConfigurationError(
            f"dimension mismatch: test d={d}, density d={density.d}")


def _tail_test(density, d, kappa, r, which):
    check_positive("radius", r)
    _check_dimension(density, d)
    check_kappa(kappa)
    env = functools.partial(_variant_envelope, density, "t1", which)
    # rho = r and 4r are ladder points 0 and 2 of the verdict's radii
    if np.all(env(verdict_ladder(r, AT_INFINITY)[0])[[0, 2]] == 0.0):
        raise NotApplicableError("integrated tail vanishes; no jump tail to test")
    return _power_test(2.0 * kappa - d + 1.0, kappa + 1.0, env, r)


def _power_test(a, b, env, r):
    """Verdict on int_r^infinity rho^a / env(rho)^b drho, taken in log space
    (env positive on the ladder)."""
    return verdict_from_radial_integrand(
        lambda rhos: a * np.log(rhos) - b * np.log(env(rhos)), r,
        singularity=AT_INFINITY)


@dataclass(frozen=True)
class SplitTailVerdicts:
    """The four decomposed sufficient tests (tail-mass / truncated-moment)."""

    weak_split: DivergenceVerdict        # diverges -> weak-side T1 test holds
    strong_split: DivergenceVerdict      # converges -> strong-side T1 test holds
    strong_tail_mass: DivergenceVerdict  # converges -> strong side
    strong_second_moment: DivergenceVerdict  # converges -> strong side

    def fired(self):
        out = []
        if self.weak_split.decided_state == DIVERGES:
            out.append("split-weak")
        if self.strong_split.decided_state == CONVERGES:
            out.append("split-strong")
        if self.strong_tail_mass.decided_state == CONVERGES:
            out.append("tail-mass-strong")
        if self.strong_second_moment.decided_state == CONVERGES:
            out.append("moment-strong")
        return out


def split_tail_tests(density: RadialLevyDensity, d: int, kappa: float,
                     r: float) -> SplitTailVerdicts:
    """Sufficient tests with T1 split into T2/2 + T3/2.

    The split integrands replace T1 by rho^2 * tail-mass plus truncated
    moment (sup-envelopes for the weak side, inf for the strong side), and
    the two 'in particular' strong-side tests keep only one of the pieces.
    """
    check_positive("radius", r)
    _check_dimension(density, d)
    check_kappa(kappa)
    env = functools.partial(_variant_envelope, density)
    a, b = 2.0 * kappa - d + 1.0, kappa + 1.0

    def t1_split(which):
        return lambda rhos: rhos ** 2 * env("tm", which, rhos) \
            + env("t3", which, rhos)

    return SplitTailVerdicts(
        _power_test(a, b, t1_split("sup"), r),
        _power_test(a, b, t1_split("inf"), r),
        _power_test(-d - 1.0, b, functools.partial(env, "tm", "sup"), r),
        _power_test(a, b, functools.partial(env, "t3", "inf"), r))


def density_floor_test(density: RadialLevyDensity, d: int, kappa: float,
                       r: float) -> DivergenceVerdict:
    """Strong-side test directly on the density floor: convergence of
    int_r^infinity rho^{-d kappa - 2d - 1} / (inf_x n(x, rho))^{kappa+1} drho.

    Requires the density decreasing beyond its cutoff.
    """
    _check_dimension(density, d)
    check_kappa(kappa)
    if not density.monotone_beyond_u0 or not density.monotone_verified():
        raise NotApplicableError(
            "density-floor test needs a density decreasing beyond the cutoff")
    floor = _density_floor(density, "density floor vanishes on the ladder")
    start = max(r, 2.0 * density.u0 if density.u0 > 0 else r)
    return _power_test(-d * kappa - 2.0 * d - 1.0, kappa + 1.0, floor, start)


def _density_floor(density, message):
    """rho -> inf over the variants of n(., rho), which must be positive
    (NotApplicableError with `message` otherwise)."""
    def floor(rhos):
        vals = density.envelope(rhos, which="inf")
        if np.any(vals <= 0.0):
            raise NotApplicableError(message)
        return vals

    return floor


@model_memo
def _quadratic_ladder(density):
    """Dyadic radii 2^-4 .. 2^-16, inf over variants of jump_symbol(rho) /
    rho^2 on them, and the minimum over the smaller half of the radii (the
    liminf surrogate as xi -> 0)."""
    rhos = 2.0 ** (-np.arange(4, 17).astype(float))
    vals = np.min(density.jump_symbols(rhos), axis=0) / rhos ** 2
    return rhos, vals, np.min(vals[len(vals) // 2:])


def cos_moment_condition(density: RadialLevyDensity) -> bool:
    """Whether inf_x int (1 - cos<xi, y>) nu(x, dy) / |xi|^2 stays bounded
    away from 0 as xi -> 0 (dyadic liminf surrogate)."""
    rhos, vals, floor = _quadratic_ladder(density)
    if np.any(vals <= 0.0):
        return False
    slope = _line(np.log(rhos), np.log(vals))[0]
    return bool(floor > 0.0 and slope <= 0.05)


def quadratic_growth_floor(density: RadialLevyDensity) -> bool:
    """liminf surrogate of inf_x q(x, xi) / |xi|^2 > 0, where q is the jump
    symbol of the density.

    This is the nondegeneracy hypothesis under which the strong-side T1 test
    becomes an equivalence for decreasing densities.
    """
    return bool(_quadratic_ladder(density)[2] > 0.0)


# ---------------------------------------------------------------------------
# Perturbation and comparison.
# ---------------------------------------------------------------------------

def perturbation_distance(density_a: RadialLevyDensity,
                          density_b: RadialLevyDensity) -> float:
    """sup over paired states of int |y|^2 |n_a(x, |y|) - n_b(x, |y|)| dy.

    Radial profiles are rotation invariant, so a rotation of the state
    space only re-pairs states; profiles are paired positionally. Returns
    +inf when the distance integral diverges (then no transfer is claimed).
    """
    if density_a.d != density_b.d:
        raise ConfigurationError("perturbation distance needs equal dimensions")
    na, nb = len(density_a.variants), len(density_b.variants)
    if na != nb and 1 not in (na, nb):
        raise ConfigurationError(
            "variant counts must match (or one density be state-independent)")
    d = density_a.d
    s_d = sphere_surface(d)
    bps = tuple(sorted(set(density_a.all_breakpoints())
                       | set(density_b.all_breakpoints())))
    worst = 0.0
    for i in range(max(na, nb)):
        va = density_a.variants[min(i, na - 1)]
        vb = density_b.variants[min(i, nb - 1)]

        def g(u, _va=va, _vb=vb):
            u = np.asarray(u, dtype=float)
            # u^(d+1) overflows only after ~255 octaves of a diverging
            # integral; the inf blocks then still read as divergence
            with np.errstate(over="ignore"):
                return s_d * u ** (d + 1) * np.abs(_va(u) - _vb(u))

        try:
            val = integrate_origin(g, 1.0, bps) + integrate_tail(g, 1.0, bps)
        except DivergentIntegralError:
            return float("inf")
        worst = max(worst, val)
    return worst


@dataclass(frozen=True)
class PerturbationReport:
    distance: float
    weak_side_transfer: bool
    margin_lhs: float
    margin_rhs: float
    strong_side_transfer: bool
    notes: tuple = ()

    def to_json(self):
        return {"distance": None if math.isinf(self.distance) else self.distance,
                "weak_side_transfer": self.weak_side_transfer,
                "margin_lhs": _num(self.margin_lhs),
                "margin_rhs": _num(self.margin_rhs),
                "strong_side_transfer": self.strong_side_transfer,
                "notes": list(self.notes)}


def _num(v):
    return None if not math.isfinite(v) else float(v)


def perturbation_equivalence(density_a: RadialLevyDensity,
                             density_b: RadialLevyDensity
                             ) -> PerturbationReport:
    """Transfer report between two radial jump densities.

    A finite weighted total-variation distance between the jump measures
    transfers the weak-side classification; the strong-side classification
    additionally needs the quadratic growth of the first symbol to dominate
    the distance.
    """
    dist = perturbation_distance(density_a, density_b)
    weak_transfer = math.isfinite(dist)
    rhos, lhs_vals, lhs = _quadratic_ladder(density_a)
    lhs = float(lhs)
    slope = _line(np.log(rhos), np.log(np.maximum(lhs_vals, 1e-300)))[0]
    if slope < -0.05:
        lhs = float("inf")   # ratio grows without bound as xi -> 0
    strong_transfer = weak_transfer and lhs > dist
    notes = ()
    if not weak_transfer:
        notes = ("distance integral diverges; no transfer claimed",)
    return PerturbationReport(distance=dist, weak_side_transfer=weak_transfer,
                              margin_lhs=lhs, margin_rhs=dist,
                              strong_side_transfer=strong_transfer,
                              notes=notes)


@dataclass(frozen=True)
class ComparisonReport:
    domination_ok: bool
    witness: float | None
    weak_transfer: str
    strong_transfer: str

    def to_json(self):
        return dataclasses.asdict(self)


def comparison_transfer(density_a: RadialLevyDensity,
                        density_b: RadialLevyDensity,
                        u0: float) -> ComparisonReport:
    """Tail-domination transfer: when density A is decreasing beyond u0 and
    its tail mass dominates B's there, weak-side divergence for A implies the
    same for B, and strong-side convergence for B implies it for A (the
    latter under A's quadratic-growth margin)."""
    if density_a.d != density_b.d:
        raise ConfigurationError("comparison needs equal dimensions")
    if not math.isfinite(u0):
        raise ConfigurationError(f"u0 must be finite, got {u0}")
    if not density_a.monotone_beyond_u0:
        raise NotApplicableError(
            "comparison needs the dominating density decreasing beyond u0")
    us = np.geomspace(max(u0, 1e-6) * 1.02, max(u0, 1e-6) * 2.0 ** 20, 64)
    fails = np.flatnonzero(_variant_envelope(density_a, "tm", "inf", us)
                           < _variant_envelope(density_b, "tm", "sup", us)
                           * (1.0 - 1e-9))
    if fails.size:
        u = float(us[fails[0]])
        raise NotApplicableError(f"tail domination fails at radius {u:g}",
                                 witness=u)
    return ComparisonReport(
        domination_ok=True, witness=None,
        weak_transfer="weak-side divergence for the dominating density "
                      "implies it for the dominated one (every radius)",
        strong_transfer="strong-side convergence for the dominated density "
                        "implies it for the dominating one, given the "
                        "dominating symbol's quadratic growth margin")


# ---------------------------------------------------------------------------
# Regular-variation classification of state-independent radial tails.
# ---------------------------------------------------------------------------

#: an index this close to a case boundary of rv_classify is on it
_BOUNDARY_TOL = 1e-9


def rv_index_fit(density: RadialLevyDensity) -> float:
    """Regular-variation index of the tail of a state-independent density.

    Fits the local log-log slope on a ladder of windows [U, 10U] and
    extrapolates the slopes against 1/log U; exact for power tails and for
    power tails with logarithmic corrections. Raises NonPowerTailError when
    the extrapolation does not fit.
    """
    if not density.x_independent:
        raise ConfigurationError("index fit needs a state-independent density")
    v = density.variants[0]
    u_lo = max(1e2, 4.0 * max(density.u0, 1.0))
    slopes, inv_logs = [], []
    for j in range(9):
        base = u_lo * 10.0 ** j
        us = np.geomspace(base, 10.0 * base, 12)
        vals = v(us)
        if np.any(vals <= 0.0):
            raise NonPowerTailError("density tail vanishes in the fit window")
        slopes.append(_line(np.log(us), np.log(vals))[0])
        inv_logs.append(1.0 / math.log(base * math.sqrt(10.0)))
    slope, index = _line(inv_logs, slopes)
    fitted = slope * np.asarray(inv_logs) + index
    residual = float(np.max(np.abs(np.asarray(slopes) - fitted)))
    if residual > 0.05:
        raise NonPowerTailError(
            f"tail is not regularly varying within tolerance "
            f"(residual {residual:.3g})", residual=residual)
    return index


def borderline_index_test(density: RadialLevyDensity) -> DivergenceVerdict:
    """Borderline transience test at index -2d: convergence of
    int_r^infinity drho / (rho^{2d+1} n(rho)) with r = 2 max(u0, 1)."""
    floor = _density_floor(density, "density vanishes on the test ladder")
    return _power_test(-2.0 * density.d - 1.0, 1.0, floor,
                       2.0 * max(density.u0, 1.0))


@dataclass(frozen=True)
class RvClassification:
    case: str
    transient: bool
    weakly_transient: bool | None
    statement: str

    def to_json(self):
        return dataclasses.asdict(self)


def rv_classify(d: int, delta: float, kappa: float,
                borderline_converges: bool | None = None) -> RvClassification:
    """Classification table for regularly varying radial tails with index
    delta <= -d. Returns the case label, the transience flag and, when
    transient, whether the process is kappa-weakly transient.
    """
    if delta > -d + _BOUNDARY_TOL:
        raise ConfigurationError(
            f"regular-variation index must be <= -d, got {delta}")
    if abs(delta + d) <= _BOUNDARY_TOL:
        return RvClassification(
            case="vi", transient=True, weakly_transient=False,
            statement="index -d: always kappa-strongly transient")
    if d >= 3:
        if abs(delta + d + 2.0) <= _BOUNDARY_TOL:
            weak = 2.0 * (kappa + 1.0) > d
            return RvClassification(
                case="iii", transient=True, weakly_transient=weak,
                statement="index -d-2 (d >= 3): weak iff 2(kappa+1) > d")
        if delta < -d - 2.0:
            weak = 2.0 * (kappa + 1.0) >= d
            return RvClassification(
                case="i", transient=True, weakly_transient=weak,
                statement="index < -d-2 (d >= 3): weak iff 2(kappa+1) >= d")
        weak = d * (kappa + 2.0) + delta * (kappa + 1.0) <= 0.0
        return RvClassification(
            case="v", transient=True, weakly_transient=weak,
            statement="-d-2 < index < -d: weak iff "
                      "d(kappa+2) + index*(kappa+1) <= 0")
    # d in {1, 2}
    if abs(delta + 2.0 * d) <= _BOUNDARY_TOL:
        if not borderline_converges:
            return RvClassification(
                case="ii", transient=False, weakly_transient=None,
                statement="index -2d without the borderline integral test: "
                          "not transient")
        weak = 2.0 * (kappa + 1.0) > d
        return RvClassification(
            case="ii", transient=True, weakly_transient=weak,
            statement="index -2d with the borderline integral test: "
                      "weak iff 2(kappa+1) > d")
    if delta < -2.0 * d:
        return RvClassification(
            case="subcritical", transient=False, weakly_transient=None,
            statement="index below -2d in dimension <= 2: recurrent")
    if d == 1:
        weak = kappa + 2.0 + delta * (kappa + 1.0) <= 0.0
        return RvClassification(
            case="iv", transient=True, weakly_transient=weak,
            statement="-2 < index < -1 (d = 1): weak iff "
                      "kappa + 2 + index*(kappa+1) <= 0")
    weak = d * (kappa + 2.0) + delta * (kappa + 1.0) <= 0.0
    return RvClassification(
        case="v", transient=True, weakly_transient=weak,
        statement="-d-2 < index < -d (d = 2): weak iff "
                  "d(kappa+2) + index*(kappa+1) <= 0")
