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
    stacked_weight,
)
from .verdicts import memoized_profiles, model_memo


def stable_coefficient(d: int, alpha: float) -> float:
    """Coefficient c(d, alpha) with int (1-cos<xi,y>) c|y|^{-d-alpha} dy = |xi|^alpha."""
    return (alpha * 2.0 ** (alpha - 1.0) * math.gamma((alpha + d) / 2.0)
            / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0)))


@dataclass(frozen=True)
class LogLogTable:
    """A piecewise power: on piece k, log n(u) = values[k] + slopes[k] *
    (log u - anchors[k]). Piece 0 covers (0, knots[0]), piece k
    [knots[k-1], knots[k]) and the last [knots[-1], inf): pieces are
    left-closed and the edge pieces carry the edge slopes. A value of -inf
    is a zero piece (below support_lo); a value that moves at a knot is a
    jump (a factor below a radius)."""

    knots: tuple      # radii where pieces 1, 2, ... start, ascending
    anchors: tuple    # log u where each piece takes its value
    values: tuple     # log n at each anchor
    slopes: tuple     # d log n / d log u on each piece

    def _line(self, k, x):
        """log n on piece k at the log radii x, written over x."""
        value, slope = self.values[k], self.slopes[k]
        if slope == 0.0 or value == -math.inf:   # no 0 * inf at u = 0 or inf
            x[...] = value
        else:
            np.subtract(x, self.anchors[k], out=x)
            np.add(np.multiply(x, slope, out=x), value, out=x)
        return x

    def __call__(self, u):
        """n(u), in one buffer: the pieces' lines, the last one first."""
        shape = np.shape(u)
        u = np.asarray(u, dtype=float).reshape(-1)
        with np.errstate(divide="ignore"):   # log 0 = -inf: the left edge
            y = np.log(u)
        lower = [(below, self._line(k, y[below]))
                 for k, knot in enumerate(self.knots)
                 if (below := u < knot).any()]
        self._line(-1, y)
        for below, values in reversed(lower):
            y[below] = values
        return np.exp(y, out=y).reshape(shape)

    def below(self, radius, log_factor):
        """This table with log_factor added to log n below radius (a knot
        is added there if needed); -inf zeroes it there."""
        cut = sum(knot < radius for knot in self.knots)
        knots, pieces = list(self.knots), list(zip(self.anchors, self.values,
                                                    self.slopes))
        if radius not in knots:
            knots.insert(cut, radius)
            pieces.insert(cut, pieces[cut])
        pieces[:cut + 1] = [(a, v + log_factor, s)
                            for a, v, s in pieces[:cut + 1]]
        return LogLogTable(tuple(knots), *zip(*pieces))


def _log(factor):
    """log of a nonnegative density factor, -inf at 0."""
    if not factor >= 0:
        raise ModelInvariantError(f"density factor must be >= 0, got {factor}")
    return math.log(factor) if factor > 0 else -math.inf


@dataclass(frozen=True)
class DensityVariant:
    """One single-state radial profile: u -> n(u), vectorized. The profile
    is a LogLogTable, whose knots are the breakpoints and whose last slope
    is the tail slope, or a callable that may state both."""

    label: str
    profile: object                      # LogLogTable or u array -> n array
    support_lo: float = 0.0              # density vanishes below this radius
    breakpoints: tuple = ()
    tail_slope: float | None = None      # last slope of log n vs log u
    gamma: float | None = None           # jump symbol gamma * rho^(-d-slope)

    def __post_init__(self):
        if isinstance(self.profile, LogLogTable):
            object.__setattr__(self, "breakpoints", self.profile.knots)
            object.__setattr__(self, "tail_slope", self.profile.slopes[-1])

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
        v, s_d, d = self.variants[variant], sphere_surface(self.d), self.d
        return lambda u: s_d * np.asarray(u, dtype=float) ** (d - 1) * v(u)

    def second_moment_weight(self, variant):
        """u -> u^2 * S_d * u^{d-1} * n(u), the weight of |y|^2 nu(dy)."""
        w = self.radial_weight(variant)
        return lambda u: np.asarray(u, dtype=float) ** 2 * w(u)

    def all_breakpoints(self):
        pts = set()
        for v in self.variants:
            pts.update(v.breakpoints, [v.support_lo] * (v.support_lo > 0))
        pts.update([self.u0] * (self.u0 > 0), (r for r, _ in self.atoms))
        return tuple(sorted(pts))

    def support_lo(self, variant=0):
        return self.variants[variant].support_lo

    def atom_tail_mass(self, u):
        """Mass of atoms at radii >= u (vectorized over u)."""
        u = np.asarray(u, dtype=float)
        return sum((np.where(u <= radius, mass, 0.0)
                    for radius, mass in self.atoms), np.zeros_like(u))

    def atom_second_moment(self, rho):
        """Sum of radius^2 * mass over atoms inside B(0, rho) (vectorized
        over rho)."""
        rho = np.asarray(rho, dtype=float)
        return sum((np.where(radius < rho, radius * radius * mass, 0.0)
                    for radius, mass in self.atoms), np.zeros_like(rho))

    @model_memo
    def monotone_verified(self) -> bool:
        """Numerical check of the decreasing-beyond-u0 hypothesis.

        When this fails, the measure-side strong test loses its equivalence
        status and is reported as a necessary condition only.
        """
        lo = max(self.u0, 1e-3)
        grid = np.geomspace(lo * 1.001, lo * 1e6, 64)
        vals = np.stack([v(grid) for v in self.variants])
        return not np.any(np.diff(vals)
                          > 1e-12 * np.maximum(vals[:, :-1], 1e-300))

    # -- symbol contribution ------------------------------------------------

    def jump_symbol(self, rho, variant=0):
        """Jump part of the symbol at |xi| = rho: int (1-cos<xi,y>) nu(dy).

        rho is one radius or an array of radii (then a read-only array comes
        back). variant is one index, or a sequence of them: then the rows of
        the listed variants come back stacked. A variant with gamma set is
        gamma * rho^(-d - tail slope); the others are memoized per variant
        and radius, and the radii each of them lacks are computed in one
        jump_symbol_value call, one row group per variant.
        """
        rhos = np.asarray(rho, dtype=float)
        picked = [int(i) for i in np.atleast_1d(variant)]
        quad = [i for i in picked if self.variants[i].gamma is None]
        memo = memoized_profiles(
            self, [("jsym", i) for i in quad],
            lambda rows, radii: jump_symbol_value(
                stacked_weight([self.radial_weight(quad[i]) for i in rows]),
                radii, self.d, breakpoints=self.all_breakpoints(),
                support_lo=[self.support_lo(quad[i]) for i in rows]))
        found = dict(zip(quad, memo(rhos)))
        out = [found[i].reshape(rhos.shape) if i in found
               else self.variants[i].gamma
               * rhos ** (-self.variants[i].tail_slope - self.d)
               for i in picked]
        if np.ndim(variant):
            return np.stack(out)
        return out[0] if rhos.ndim else float(out[0])

    def jump_symbols(self, rho):
        """jump_symbol of every variant at the radii rho, as an (n_variants,
        n_radii) array: one stacked quadrature call for the radii the
        variants lack."""
        return self.jump_symbol(rho, range(len(self.variants)))

    # -- validation ---------------------------------------------------------

    def _validate(self):
        for radius, mass in self.atoms:
            if radius <= 0 or mass < 0:
                raise ModelInvariantError(
                    "atoms need positive radius and nonnegative mass")
            if self.u0 > 0 and radius > self.u0:
                raise ModelInvariantError(
                    "atom mass must sit at or below the density cutoff")
        bps = self.all_breakpoints()
        for idx, v in enumerate(self.variants):
            lo = max(v.support_lo, self.u0, 1e-6)
            if np.any(v(np.geomspace(lo * 1.001, lo * 1e3, 16)) < 0):
                raise ModelInvariantError(
                    f"density variant {v.label!r} takes negative values")
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
    """[spec] for a constant or an (lo, hi) with lo == hi, else n values
    evenly spaced over [lo, hi]."""
    lo, hi = map(float, (spec, spec) if np.ndim(spec) == 0 else spec)
    return [lo] if lo == hi else list(np.linspace(lo, hi, n))


def _power_density(d, u0, rows):
    """The density with variants coeff * u^{-d-alpha} from u0 on (from 0
    when u0 is 0), one per (label, alpha, coeff, gamma) row."""
    variants = []
    for label, a, c, g in rows:
        if a <= 0:
            raise ModelInvariantError(f"alpha must be positive, got {a}")
        table = LogLogTable((), (0.0,), (_log(c),), (-(d + a),))
        if u0 > 0:
            table = table.below(u0, -math.inf)
        variants.append(DensityVariant(label, table, u0, gamma=g))
    return RadialLevyDensity(d=d, u0=u0, variants=tuple(variants),
                             x_independent=(len(variants) == 1))


def power_density(d, alpha, coeff=1.0, u0=0.0, n_variants=9):
    """n(x, u) = coeff(x) * u^{-d-alpha(x)} for u > u0.

    alpha and coeff accept a constant or an (lo, hi) interval; interval
    parameters produce variants at evenly spaced values.
    """
    alphas = _interval_values(alpha, n_variants)
    for a in alphas:
        if u0 <= 0 and not (0.0 < a < 2.0):
            raise ModelInvariantError(
                f"pure-power density on (0,inf) needs alpha in (0,2), got {a}")
    return _power_density(d, u0, [
        (f"alpha={a:g},coeff={c:g}", a, c, None)
        for a in alphas for c in _interval_values(coeff, n_variants)])


def stable_density(d, alpha, gamma=1.0, n_variants=9):
    """Jump density of the stable-like family: n(x,u) = delta(x) u^{-d-alpha(x)}
    with delta(x) = gamma(x) * c(d, alpha(x)) chosen so that the jump symbol
    equals gamma(x) |xi|^{alpha(x)}.
    """
    alphas = _interval_values(alpha, n_variants)
    gammas = _interval_values(gamma, n_variants)
    pairs = list(zip(alphas, gammas)) if len(alphas) == len(gammas) else [
        (a, g) for a in alphas for g in gammas]
    for a, g in pairs:
        if not (0.0 < a < 2.0):
            raise ModelInvariantError(f"stable index must lie in (0,2), got {a}")
        if g <= 0:
            raise ModelInvariantError(f"stable scale must be positive, got {g}")
    return _power_density(d, 0.0, [
        (f"alpha={a:g},gamma={g:g}", a, g * stable_coefficient(d, a), g)
        for a, g in pairs])


def finite_range_density(d, alpha, n_variants=9):
    """Unit-total-mass density n(x,u) = gamma(x) u^{-d-alpha(x)} 1{u >= 1}
    with gamma(x) = alpha(x) / S_d so the measure is a probability."""
    return _power_density(d, 1.0, [
        (f"alpha={a:g}", a, a / sphere_surface(d), None)
        for a in _interval_values(alpha, n_variants)])


def power_log_density(d, exponent, log_exponent, coeff=1.0, u_start=math.e):
    """n(u) = coeff * u^exponent * (ln u)^log_exponent for u > u_start (> 1).

    Used for regularly varying tails whose index sits exactly on a boundary
    where a slowly varying correction decides the integral tests.
    """
    if u_start <= 1.0:
        raise ModelInvariantError("log-corrected density needs u_start > 1")

    def prof(u):
        safe = np.maximum(u, u_start)
        val = coeff * safe ** exponent * np.log(safe) ** log_exponent
        return np.where(u >= u_start, val, 0.0)

    return RadialLevyDensity(d=d, u0=u_start, variants=(DensityVariant(
        "power_log", prof, u_start, breakpoints=(u_start,)),))


def table_density(d, u_knots, n_values, u0=0.0, monotone=True):
    """Tabulated density, interpolated linearly in log-log coordinates and
    extrapolated with the edge slopes; zero below u0."""
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
    slopes = np.diff(ln) / np.diff(lu)
    # the edge pieces extend the first and the last segment
    table = LogLogTable(tuple(u_knots), (lu[0], *lu), (ln[0], *ln),
                        (slopes[0], *slopes, slopes[-1]))
    if u0 > 0:
        table = table.below(u0, -math.inf)
    return RadialLevyDensity(d=d, u0=u0, variants=(
        DensityVariant("table", table, u0),), monotone_beyond_u0=monotone)


def modified_density(base: RadialLevyDensity, radius, factor=None, replacement=None):
    """Copy of `base` with the profile changed only below `radius`.

    Either multiply by `factor` below the radius or substitute a callable
    `replacement(u)` there. Tail behavior beyond `radius` is untouched.
    """
    if factor is None and replacement is None:
        raise ModelInvariantError("modification needs a factor or a replacement")

    def modify(v):
        label = v.label + f"|mod<{radius:g}"
        if factor is not None and isinstance(v.profile, LogLogTable):
            return DensityVariant(
                label, v.profile.below(radius, _log(factor)), v.support_lo)

        def prof(u):
            out = v(u)
            inside = factor * out if factor is not None else replacement(u)
            return np.where(u < radius, inside, out)

        return DensityVariant(
            label, prof, 0.0 if replacement is not None else v.support_lo,
            tuple(sorted(set(v.breakpoints) | {radius})), v.tail_slope)

    return RadialLevyDensity(
        d=base.d, u0=max(base.u0, radius),
        variants=tuple(map(modify, base.variants)),
        monotone_beyond_u0=base.monotone_beyond_u0,
        x_independent=base.x_independent)
