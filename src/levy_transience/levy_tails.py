"""Tail functionals of radial jump measures and the measure-side tests.

For a radial density the three tail functionals are

    T1(rho) = int_0^rho u * nu(B^c(0, u)) du        (integrated tail)
    T2(rho) = rho^2 * nu(B^c(0, rho))               (scaled tail mass)
    T3(rho) = int_{B(0, rho)} |y|^2 nu(dy)          (truncated second moment)

linked by the integration-by-parts identity T1 = T2/2 + T3/2. T1 drives the
measure-side weak/strong tests: divergence of

    int_r^infinity rho^{2 kappa - d + 1} / (env_x T1(x, rho))^{kappa+1} drho

with the sup-envelope supports weak transience; with the inf-envelope, its
convergence is the strong-side criterion. The density sweeps the tail mass
and T3 of its variants and forms T1 from them by that identity, so T1 needs
no quadrature of its own.
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
    LevyTransienceError,
    NotApplicableError,
    QuadratureError,
    check_kappa,
    check_positive,
)
from .quadrature import integrate_origin, integrate_tail, sphere_surface
from .verdicts import (
    AT_INFINITY,
    CONVERGES,
    DIVERGES,
    DivergenceVerdict,
    log_power_law,
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
        return float(density.sweep("tm", [variant], [np.array([u])])[0][0])
    except DivergentIntegralError as exc:
        raise LevyMeasureError(
            "tail mass is infinite: the jump measure violates "
            "int min(1, |y|^2) nu(dy) < infinity") from exc


def truncated_second_moment(density: RadialLevyDensity, rho: float,
                            variant=0) -> float:
    """int_{B(0, rho)} |y|^2 nu(dy) = S_d int_0^rho u^{d+1} n(u) du."""
    if rho <= 0:
        raise ConfigurationError("truncated second moment needs rho > 0")
    return float(density.sweep("t3", [variant], [np.array([rho])])[0][0])


def integrated_tail(density: RadialLevyDensity, rho: float, variant=0) -> float:
    """T1(rho) = int_0^rho u * nu(B^c(0, u)) du, from the tail mass and T3
    at rho by the integration-by-parts identity."""
    if rho <= 0:
        raise ConfigurationError("integrated tail needs rho > 0")
    return density.by_parts(rho, tail_mass(density, rho, variant),
                            truncated_second_moment(density, rho, variant))


# ---------------------------------------------------------------------------
# Measure-side divergence tests.
# ---------------------------------------------------------------------------

def tail_test_weak(density: RadialLevyDensity, kappa: float,
                   r: float) -> DivergenceVerdict:
    """Divergence of the T1 sup-envelope integral supports weak transience."""
    return _tail_test(density, kappa, r, which="sup")


def tail_test_strong(density: RadialLevyDensity, kappa: float,
                     r: float) -> DivergenceVerdict:
    """Convergence of the T1 inf-envelope integral is the strong-side
    criterion (an equivalence under a decreasing density plus quadratic
    growth of the symbol; otherwise one-directional)."""
    return _tail_test(density, kappa, r, which="inf")


def _tail_test(density, kappa, r, which):
    check_positive("radius", r)
    check_kappa(kappa)
    env = functools.partial(density.functional_envelope, "t1", which)
    # rho = r and 4r are ladder points 0 and 2 of the verdict's radii
    if np.all(env(verdict_ladder(r, AT_INFINITY)[0])[[0, 2]] == 0.0):
        raise NotApplicableError("integrated tail vanishes; no jump tail to test")
    return _power_test(2.0 * kappa - density.d + 1.0, kappa + 1.0, env, r)


def _power_test(a, b, env, r):
    """Verdict on int_r^infinity rho^a / env(rho)^b drho, taken in log space
    (env positive on the ladder); a QuadratureError where env is +inf on
    the ladder, which log space cannot tell from a vanishing integrand."""
    def log_g(rhos):
        values = env(rhos)
        if np.any(values == math.inf):
            raise QuadratureError("envelope leaves the float range on the "
                                  "ladder")
        return log_power_law(0.0, a, b, rhos, values)

    return verdict_from_radial_integrand(log_g, r, singularity=AT_INFINITY)


@dataclass(frozen=True)
class SplitTailVerdicts:
    """The four decomposed sufficient tests (tail-mass / truncated-moment);
    a test that cannot be formed holds the error that says why."""

    weak_split: DivergenceVerdict        # diverges -> weak-side T1 test holds
    strong_split: DivergenceVerdict      # converges -> strong-side T1 test holds
    strong_tail_mass: DivergenceVerdict  # converges -> strong side
    strong_second_moment: DivergenceVerdict  # converges -> strong side

    def fired(self):
        tests = (("split-weak", self.weak_split, DIVERGES),
                 ("split-strong", self.strong_split, CONVERGES),
                 ("tail-mass-strong", self.strong_tail_mass, CONVERGES),
                 ("moment-strong", self.strong_second_moment, CONVERGES))
        return [name for name, v, state in tests
                if getattr(v, "decided_state", None) == state]

    def to_json(self):
        return dict({name: {"not_applicable": str(v)}
                     if isinstance(v, LevyTransienceError) else v.to_json()
                     for name, v in vars(self).items()}, fired=self.fired())


def split_tail_tests(density: RadialLevyDensity, kappa: float,
                     r: float) -> SplitTailVerdicts:
    """Sufficient tests with T1 split into T2/2 + T3/2.

    The split integrands replace T1 by rho^2 * tail-mass plus truncated
    moment (sup-envelopes for the weak side, inf for the strong side), and
    the two 'in particular' strong-side tests keep only one of the pieces.
    A test that cannot be formed (the tail mass vanishing on the ladder, a
    verdict failing) is kept as its NotApplicableError or QuadratureError.
    """
    check_positive("radius", r)
    check_kappa(kappa)
    env = density.functional_envelope
    a, b = 2.0 * kappa - density.d + 1.0, kappa + 1.0

    def t1_split(which):
        return lambda rhos: rhos ** 2 * env("tm", which, rhos) \
            + env("t3", which, rhos)

    def attempt(test, *args):
        try:
            return test(*args)
        except (NotApplicableError, QuadratureError) as exc:
            return exc

    return SplitTailVerdicts(
        attempt(_power_test, a, b, t1_split("sup"), r),
        attempt(_power_test, a, b, t1_split("inf"), r),
        attempt(_power_test, -density.d - 1.0, b, _positive(
            functools.partial(env, "tm", "sup"),
            "tail mass vanishes on the ladder"), r),
        attempt(moment_tail_test, density, kappa, r))


def moment_tail_test(density: RadialLevyDensity, kappa: float,
                     r: float) -> DivergenceVerdict:
    """The truncated-moment strong-side test: convergence of
    int_r^infinity rho^{2 kappa - d + 1} / (inf_x T3(x, rho))^{kappa+1} drho
    (T1 >= T3/2, so it implies the strong-side T1 test)."""
    check_positive("radius", r)
    check_kappa(kappa)
    env = functools.partial(density.functional_envelope, "t3", "inf")
    return _power_test(2.0 * kappa - density.d + 1.0, kappa + 1.0, env, r)


def density_floor_test(density: RadialLevyDensity, kappa: float,
                       r: float) -> DivergenceVerdict:
    """Strong-side test directly on the density floor: convergence of
    int_r^infinity rho^{-d kappa - 2d - 1} / (inf_x n(x, rho))^{kappa+1} drho.

    Requires the density decreasing beyond its cutoff.
    """
    d = density.d
    check_kappa(kappa)
    if not density.monotone_verified():
        raise NotApplicableError(
            "density-floor test needs a density decreasing beyond the cutoff")
    floor = _positive(functools.partial(density.envelope, which="inf"),
                      "density floor vanishes on the ladder")
    start = max(r, 2.0 * density.u0 if density.u0 > 0 else r)
    return _power_test(-d * kappa - 2.0 * d - 1.0, kappa + 1.0, floor, start)


def _positive(env, message):
    """env, which must be positive on the radii it is given
    (NotApplicableError with `message` otherwise)."""
    def positive(rhos):
        vals = env(rhos)
        if np.any(vals <= 0.0):
            raise NotApplicableError(message)
        return vals

    return positive


def cos_moment_condition(density: RadialLevyDensity) -> bool:
    """Whether inf_x int (1 - cos<xi, y>) nu(x, dy) / |xi|^2 stays bounded
    away from 0 as xi -> 0: a positive floor of the quadratic-growth ladder
    that does not fall toward 0."""
    floor, slope = density.quadratic_ladder()
    return bool(floor > 0.0 and slope <= 0.05)


def quadratic_growth_floor(density: RadialLevyDensity) -> bool:
    """Whether the quadratic-growth ladder has a positive floor: the
    nondegeneracy under which the strong-side T1 test of a decreasing
    density is an equivalence."""
    return bool(density.quadratic_ladder()[0] > 0.0)


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
    lhs, slope = density_a.quadratic_ladder()
    if slope < -0.05:
        lhs = math.inf   # ratio grows without bound as xi -> 0
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
    if not density_a.monotone_verified():
        raise NotApplicableError(
            "comparison needs the dominating density decreasing beyond u0")
    us = np.geomspace(max(u0, 1e-6) * 1.02, max(u0, 1e-6) * 2.0 ** 20, 64)
    fails = np.flatnonzero(density_a.functional_envelope("tm", "inf", us)
                           < density_b.functional_envelope("tm", "sup", us)
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

