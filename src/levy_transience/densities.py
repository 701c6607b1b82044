"""Radial jump densities n(x, u) and their basic evaluation machinery.

A density here is the radial profile of a rotation-invariant Levy measure,
nu(x, dy) = n(x, |y|) dy beyond a cutoff u0 (mass below u0 may be absent or
modified; it never changes tail behavior). State dependence is represented by
a finite list of variants: representative single-state profiles over which
sup/inf envelopes are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LevyMeasureError, ModelInvariantError, QuadratureError
from .quadrature import (
    integrate_origin,
    integrate_tail,
    jump_symbol_value,
    sphere_surface,
)
from .verdicts import memoized_profile, model_memo


def stable_coefficient(d: int, alpha: float) -> float:
    """Coefficient c(d, alpha) with int (1-cos<xi,y>) c|y|^{-d-alpha} dy = |xi|^alpha."""
    return (alpha * 2.0 ** (alpha - 1.0) * math.gamma((alpha + d) / 2.0)
            / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0)))


@dataclass(frozen=True)
class DensityVariant:
    """One single-state radial profile: u -> n(u), vectorized."""

    label: str
    profile: object                      # callable, u array -> density array
    support_lo: float = 0.0              # density vanishes below this radius
    breakpoints: tuple = ()
    alpha: float | None = None           # tail index of a power-law variant
    gamma: float | None = None           # jump symbol gamma * rho^alpha, if set

    def __call__(self, u):
        return np.asarray(self.profile(np.asarray(u, dtype=float)), dtype=float)


@dataclass(frozen=True)
class RadialLevyDensity:
    """Radial jump density with cutoff u0 and per-state variants.

    Invariants checked at construction: positivity beyond u0 on a sample
    grid, and integrability of min(1, u^2) * u^{d-1} * n(u) for every
    variant (the Levy-measure condition). `atoms` carries non-density mass
    below the cutoff as (radius, mass) pairs; it enters the tail
    functionals at small radii but never the tail tests beyond u0.
    """

    d: int
    u0: float
    variants: tuple
    monotone_beyond_u0: bool = True
    x_independent: bool = True
    atoms: tuple = ()
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ModelInvariantError(f"dimension must be >= 1, got {self.d}")
        if not self.variants:
            raise ModelInvariantError("density needs at least one variant")
        self._validate()

    # -- basic evaluation ---------------------------------------------------

    def envelope(self, u, which="sup"):
        """sup or inf over variants of n(., u) (vectorized over u)."""
        vals = np.stack([v(u) for v in self.variants])
        return vals.max(axis=0) if which == "sup" else vals.min(axis=0)

    def radial_weight(self, variant):
        """u -> S_d * u^{d-1} * n(u), the weight for radial integrals."""
        v = self.variants[variant]
        s_d = sphere_surface(self.d)
        dd = self.d

        def w(u):
            u = np.asarray(u, dtype=float)
            return s_d * u ** (dd - 1) * v(u)

        return w

    def second_moment_weight(self, variant):
        """u -> u^2 * S_d * u^{d-1} * n(u), the weight of |y|^2 nu(dy)."""
        w = self.radial_weight(variant)
        return lambda u: np.asarray(u, dtype=float) ** 2 * w(u)

    def all_breakpoints(self):
        pts = set()
        for v in self.variants:
            pts.update(v.breakpoints)
            if v.support_lo > 0:
                pts.add(v.support_lo)
        if self.u0 > 0:
            pts.add(self.u0)
        pts.update(radius for radius, _ in self.atoms)
        return tuple(sorted(pts))

    def support_lo(self, variant=0):
        return self.variants[variant].support_lo

    def atom_tail_mass(self, u):
        """Mass of atoms at radii >= u (vectorized over u)."""
        if not self.atoms:
            return np.zeros_like(np.asarray(u, dtype=float))
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for radius, mass in self.atoms:
            out += np.where(u <= radius, mass, 0.0)
        return out

    def atom_second_moment(self, rho):
        """Sum of radius^2 * mass over atoms inside B(0, rho) (vectorized
        over rho)."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        for radius, mass in self.atoms:
            out += np.where(radius < rho, radius * radius * mass, 0.0)
        return out

    @model_memo
    def monotone_verified(self) -> bool:
        """Numerical check of the decreasing-beyond-u0 hypothesis.

        When this fails, the measure-side strong test loses its equivalence
        status and is reported as a necessary condition only.
        """
        lo = max(self.u0, 1e-3)
        grid = np.geomspace(lo * 1.001, lo * 1e6, 64)
        for v in self.variants:
            vals = v(grid)
            if np.any(np.diff(vals) > 1e-12 * np.maximum(vals[:-1], 1e-300)):
                return False
        return True

    # -- symbol contribution ------------------------------------------------

    def jump_symbol(self, rho, variant=0):
        """Jump part of the symbol at |xi| = rho: int (1-cos<xi,y>) nu(dy).

        rho is one radius or an array of radii (then a read-only array comes
        back). A variant with a closed form (gamma) is evaluated directly;
        otherwise values are memoized per radius, and the radii not cached
        yet are computed in one jump_symbol_value call.
        """
        rhos = np.asarray(rho, dtype=float)
        v = self.variants[variant]
        if v.gamma is not None:
            out = v.gamma * rhos ** v.alpha
            return out if rhos.ndim else float(out)
        out = memoized_profile(
            self, ("jsym", variant),
            lambda radii: jump_symbol_value(
                self.radial_weight(variant), np.asarray(radii), self.d,
                breakpoints=self.all_breakpoints(),
                support_lo=self.support_lo(variant)))(rhos)
        return out.reshape(rhos.shape) if rhos.ndim else float(out[0])

    # -- validation ---------------------------------------------------------

    def _validate(self):
        for radius, mass in self.atoms:
            if radius <= 0 or mass < 0:
                raise ModelInvariantError(
                    "atoms need positive radius and nonnegative mass")
            if self.u0 > 0 and radius > self.u0:
                raise ModelInvariantError(
                    "atom mass must sit at or below the density cutoff")
        for idx, v in enumerate(self.variants):
            lo = max(v.support_lo, self.u0, 1e-12)
            grid = np.geomspace(max(lo, 1e-6) * 1.001, max(lo, 1e-6) * 1e3, 16)
            vals = v(grid)
            if np.any(vals < 0):
                raise ModelInvariantError(
                    f"density variant {v.label!r} takes negative values")
            bps = self.all_breakpoints()
            try:
                small = integrate_origin(self.second_moment_weight(idx), 1.0,
                                         bps, support_lo=v.support_lo)
                integrate_tail(self.radial_weight(idx), max(1.0, v.support_lo),
                               bps)
            except QuadratureError as exc:  # DivergentIntegralError among them
                raise LevyMeasureError(
                    "jump measure fails int min(1,|y|^2) nu(dy) < infinity "
                    f"for variant {v.label!r}: {exc}") from exc
            if small < 0:
                raise LevyMeasureError("negative small-jump mass")


# ---------------------------------------------------------------------------
# Constructors for the built-in families.
# ---------------------------------------------------------------------------

def _interval_values(spec, n=9):
    if isinstance(spec, (int, float)):
        return [float(spec)]
    lo, hi = float(spec[0]), float(spec[1])
    if lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, n))


def power_density(d, alpha, coeff=1.0, u0=0.0, n_variants=9):
    """n(x, u) = coeff(x) * u^{-d-alpha(x)} for u > u0.

    alpha and coeff accept a constant or an (lo, hi) interval; interval
    parameters produce variants at evenly spaced values.
    """
    alphas = _interval_values(alpha, n_variants)
    coeffs = _interval_values(coeff, n_variants)
    for a in alphas:
        if u0 <= 0 and not (0.0 < a < 2.0):
            raise ModelInvariantError(
                f"pure-power density on (0,inf) needs alpha in (0,2), got {a}")
        if a <= 0:
            raise ModelInvariantError(f"alpha must be positive, got {a}")
    variants = []
    pairs = [(a, c) for a in alphas for c in coeffs]
    for a, c in pairs:
        p = -(d + a)

        def prof(u, _c=c, _p=p):
            u = np.asarray(u, dtype=float)
            out = _c * u ** _p
            if u0 > 0:
                out = np.where(u >= u0, out, 0.0)
            return out

        variants.append(DensityVariant(
            label=f"alpha={a:g},coeff={c:g}", profile=prof,
            support_lo=u0, breakpoints=(u0,) if u0 > 0 else (), alpha=a))
    return RadialLevyDensity(
        d=d, u0=u0, variants=tuple(variants),
        monotone_beyond_u0=True,
        x_independent=(len(pairs) == 1))


def stable_density(d, alpha, gamma=1.0, n_variants=9):
    """Jump density of the stable-like family: n(x,u) = delta(x) u^{-d-alpha(x)}
    with delta(x) = gamma(x) * c(d, alpha(x)) chosen so that the jump symbol
    equals gamma(x) |xi|^{alpha(x)}.
    """
    alphas = _interval_values(alpha, n_variants)
    gammas = _interval_values(gamma, n_variants)
    variants = []
    pairs = list(zip(alphas, gammas)) if len(alphas) == len(gammas) else [
        (a, g) for a in alphas for g in gammas]
    for a, g in pairs:
        if not (0.0 < a < 2.0):
            raise ModelInvariantError(f"stable index must lie in (0,2), got {a}")
        if g <= 0:
            raise ModelInvariantError(f"stable scale must be positive, got {g}")
        coef = g * stable_coefficient(d, a)
        p = -(d + a)

        def prof(u, _c=coef, _p=p):
            return _c * np.asarray(u, dtype=float) ** _p

        variants.append(DensityVariant(label=f"alpha={a:g},gamma={g:g}",
                                       profile=prof, alpha=a, gamma=g))
    return RadialLevyDensity(
        d=d, u0=0.0, variants=tuple(variants),
        monotone_beyond_u0=True, x_independent=(len(pairs) == 1))


def finite_range_density(d, alpha, n_variants=9):
    """Unit-total-mass density n(x,u) = gamma(x) u^{-d-alpha(x)} 1{u >= 1}
    with gamma(x) = alpha(x) / S_d so the measure is a probability."""
    alphas = _interval_values(alpha, n_variants)
    s_d = sphere_surface(d)
    variants = []
    for a in alphas:
        if a <= 0:
            raise ModelInvariantError(f"alpha must be positive, got {a}")
        c = a / s_d
        p = -(d + a)

        def prof(u, _c=c, _p=p):
            u = np.asarray(u, dtype=float)
            return np.where(u >= 1.0, _c * u ** _p, 0.0)

        variants.append(DensityVariant(label=f"alpha={a:g}", profile=prof,
                                       support_lo=1.0, breakpoints=(1.0,),
                                       alpha=a))
    return RadialLevyDensity(
        d=d, u0=1.0, variants=tuple(variants),
        monotone_beyond_u0=True, x_independent=(len(alphas) == 1))


def power_log_density(d, exponent, log_exponent, coeff=1.0, u_start=math.e):
    """n(u) = coeff * u^exponent * (ln u)^log_exponent for u > u_start (> 1).

    Used for regularly varying tails whose index sits exactly on a boundary
    where a slowly varying correction decides the integral tests.
    """
    if u_start <= 1.0:
        raise ModelInvariantError("log-corrected density needs u_start > 1")

    def prof(u):
        u = np.asarray(u, dtype=float)
        safe = np.maximum(u, u_start)
        val = coeff * safe ** exponent * np.log(safe) ** log_exponent
        return np.where(u >= u_start, val, 0.0)

    variant = DensityVariant(label="power_log", profile=prof,
                             support_lo=u_start, breakpoints=(u_start,))
    return RadialLevyDensity(
        d=d, u0=u_start, variants=(variant,),
        monotone_beyond_u0=True, x_independent=True)


def table_density(d, u_knots, n_values, u0=0.0, monotone=True):
    """Tabulated density, interpolated linearly in log-log coordinates and
    extrapolated with the edge slopes."""
    u_knots = np.asarray(u_knots, dtype=float)
    n_values = np.asarray(n_values, dtype=float)
    if np.any(u_knots <= 0) or np.any(n_values <= 0):
        raise ModelInvariantError("table knots and values must be positive")
    if u_knots.ndim != 1 or u_knots.shape != n_values.shape \
            or u_knots.size < 2:
        raise ModelInvariantError("a table needs matching u and n lists "
                                  "of at least two knots")
    if np.any(np.diff(u_knots) <= 0):
        raise ModelInvariantError("table radii must be strictly increasing")
    lu, ln = np.log(u_knots), np.log(n_values)
    slope_lo = (ln[1] - ln[0]) / (lu[1] - lu[0])
    slope_hi = (ln[-1] - ln[-2]) / (lu[-1] - lu[-2])

    def prof(u):
        u = np.asarray(u, dtype=float)
        x = np.log(np.maximum(u, 1e-300))
        inner = np.interp(x, lu, ln)
        inner = np.where(x < lu[0], ln[0] + slope_lo * (x - lu[0]), inner)
        inner = np.where(x > lu[-1], ln[-1] + slope_hi * (x - lu[-1]), inner)
        out = np.exp(inner)
        if u0 > 0:
            out = np.where(u >= u0, out, 0.0)
        return out

    variant = DensityVariant(label="table", profile=prof, support_lo=u0,
                             breakpoints=tuple(u_knots))
    return RadialLevyDensity(
        d=d, u0=u0, variants=(variant,), monotone_beyond_u0=monotone,
        x_independent=True)


def modified_density(base: RadialLevyDensity, radius, factor=None, replacement=None):
    """Copy of `base` with the profile changed only below `radius`.

    Either multiply by `factor` below the radius or substitute a callable
    `replacement(u)` there. Tail behavior beyond `radius` is untouched.
    """
    if factor is None and replacement is None:
        raise ModelInvariantError("modification needs a factor or a replacement")
    variants = []
    for v in base.variants:
        def prof(u, _v=v):
            u = np.asarray(u, dtype=float)
            out = _v(u)
            inside = u < radius
            if factor is not None:
                return np.where(inside, factor * out, out)
            rep = np.asarray(replacement(u), dtype=float)
            return np.where(inside, rep, out)

        variants.append(DensityVariant(
            label=v.label + f"|mod<{radius:g}", profile=prof,
            support_lo=0.0 if replacement is not None else v.support_lo,
            breakpoints=tuple(sorted(set(v.breakpoints) | {radius})),
            alpha=v.alpha))
    return RadialLevyDensity(
        d=base.d, u0=max(base.u0, radius), variants=tuple(variants),
        monotone_beyond_u0=base.monotone_beyond_u0,
        x_independent=base.x_independent)
