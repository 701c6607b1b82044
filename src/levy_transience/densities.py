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

from .errors import (DivergentIntegralError, LevyMeasureError,
                     ModelInvariantError, QuadratureError)
from .quadrature import (
    jump_symbol_value,
    origin_cumulative,
    sphere_surface,
    tail_cumulative,
)
from .verdicts import memoized_profile, memoized_profiles, model_memo


#: a table's jump symbol is its series where rho * (largest knot) is at
#: most _SERIES_REACH (cancellation <= ~50 ulp), in _SERIES_TERMS terms,
#: unless a piece's slope + d is within _POLE_MARGIN of a pole -2k
_SERIES_REACH, _SERIES_TERMS, _POLE_MARGIN = 2.0, 16, 0.1


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

    def jump_symbol(self, d, rho):
        """int (1 - psi_d(rho u)) S_d u^(d-1) n(u) du by its series where
        0 < rho knots[-1] <= _SERIES_REACH, else nan (everywhere if a piece
        is near a pole or the last one does not decay). With beta = slope +
        d, G(x) = sum_k>=1 (-1)^(k+1) x^2k / ((2k + beta) 4^k k! (d/2)_k), a
        piece c u^slope on [a, b) gives S_d c (b^beta G(rho b) - a^beta
        G(rho a)) (DLMF 10.16.9), and the last one adds its Mellin constant
        c rho^-beta / c(d, -beta) (DLMF 10.22.43, continued past -2)."""
        rho = np.asarray(rho, dtype=float)
        out, q, edges = np.full(rho.shape, np.nan), 0.0, (0.0, *self.knots,
                                                          math.inf)
        at = (rho > 0.0) & (rho * edges[-2] <= _SERIES_REACH)
        k, r = np.arange(1.0, _SERIES_TERMS + 1.0), rho[at]
        terms = -sphere_surface(d) * np.cumprod(-0.25 / (k * (d / 2 + k - 1)))
        for a, b, anchor, value, slope in zip(edges, edges[1:], self.anchors,
                                              self.values, self.slopes):
            if value == -math.inf:
                continue
            beta, log_c = slope + d, value - slope * anchor
            if abs(beta + 2 * max(1, round(-beta / 2))) < _POLE_MARGIN \
                    or b == math.inf and beta >= 0.0:
                return out
            g = np.append((terms / (2 * k + beta))[::-1], 0.0)   # G in x^2
            for e, sign in ((b, 1.0), (a, -1.0)):
                if 0.0 < e < math.inf:
                    q = q + sign * np.exp(log_c + beta * math.log(e)) \
                        * np.polyval(g, (r * e) ** 2)
            if b == math.inf:
                q = q + np.exp(log_c - beta * np.log(r)) \
                    / stable_coefficient(d, -beta)
        out[at] = q
        return out

    def moment(self, d, k, radii, outward):
        """S_d int u^(d-1+k) n(u) du over [u, inf) (outward) or (0, u) at
        each radius u: a piece c u^slope on [a, b) adds S_d c (b^e - a^e) / e
        (S_d c log(b/a) at e = 0), e = slope + d + k, formed in log space
        from the end where u^e is larger (inf past the float range); an edge
        piece that does not decay raises DivergentIntegralError."""
        r, log_s = np.asarray(radii, dtype=float), math.log(sphere_surface(d))
        out, edges = np.zeros(r.shape), (0.0, *self.knots, math.inf)
        for a, b, anchor, value, slope in zip(edges, edges[1:], self.anchors,
                                              self.values, self.slopes):
            e = slope + d + k
            if value == -math.inf:
                continue
            if (b == math.inf and e >= 0.0) if outward \
                    else (a == 0.0 and e <= 0.0):
                raise DivergentIntegralError(f"the piece from {a:g} to {b:g} "
                                             "has an infinite integral")
            lo, hi = (np.maximum(r, a), b) if outward else (a, np.minimum(r, b))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                x_lo, x_hi = np.log(lo), np.log(hi)
                span = np.maximum(x_hi - x_lo, 0.0)
                x = x_hi if e > 0.0 else x_lo    # where u^e is larger
                top = log_s + value + slope * (x - anchor) + (d + k) * x
                part = span if e == 0.0 else -np.expm1(-abs(e) * span) / abs(e)
                out += np.where(span > 0.0, np.exp(top) * part, 0.0)
        return out

    def decreasing_beyond(self, u0):
        """Whether n does not increase on (u0, inf): no piece there rises
        and no knot there steps up by more than 1e-12 in log n (rounding)."""
        def log_n(j, knot):   # in floats: no warning at a value of -inf
            return self.values[j] + self.slopes[j] * (math.log(knot)
                                                      - self.anchors[j])

        ends = (*self.knots, math.inf)
        return all(s <= 0.0 for s, b in zip(self.slopes, ends) if b > u0) \
            and not any(log_n(j + 1, knot) - log_n(j, knot) > 1e-12
                        for j, knot in enumerate(self.knots) if knot > u0)

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
    log_exponent: float = 0.0            # the tail's factor (ln u)^this

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
    atoms: tuple = ()
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ModelInvariantError(f"dimension must be >= 1, got {self.d}")
        if not self.variants:
            raise ModelInvariantError("density needs at least one variant")
        self._validate()

    @property
    def x_independent(self):
        return len(self.variants) == 1

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

    @model_memo
    def monotone_verified(self) -> bool:
        """Check of the decreasing-beyond-u0 hypothesis (exact on tables).

        When this fails, the measure-side strong test loses its equivalence
        status and is reported as a necessary condition only.
        """
        if all(isinstance(v.profile, LogLogTable) for v in self.variants):
            return all(v.profile.decreasing_beyond(self.u0)
                       for v in self.variants)
        lo = max(self.u0, 1e-3)
        grid = np.geomspace(lo * 1.001, lo * 1e6, 64)
        vals = np.stack([v(grid) for v in self.variants])
        return not np.any(np.diff(vals)
                          > 1e-12 * np.maximum(vals[:, :-1], 1e-300))

    # -- functionals of the variants ----------------------------------------

    def sweep(self, tag, variants, radii):
        """The functional `tag` of each listed variant at its ascending
        radii, not memoized: "jsym" the jump symbol, "tm" the tail mass
        nu(B^c(0, u)), "t3" int_{B(0, u)} |y|^2 nu(dy) and "m2" the rest of
        it, all three with atoms; a table's in closed form (its jump symbol
        where the series reaches), the rest by quadrature, one call per
        variant in the order listed."""
        bps = self.all_breakpoints()
        if tag == "jsym":   # a table's series where it reaches, else quadrature
            rows = []
            for i, r in zip(variants, radii):
                p = self.variants[i].profile
                row = p.jump_symbol(self.d, r) if isinstance(p, LogLogTable) \
                    else np.full(np.shape(r), np.nan)
                rest = np.isnan(row)
                if rest.any():
                    row[rest] = jump_symbol_value(
                        self.radial_weight(i), np.asarray(r)[rest], self.d,
                        bps, self.support_lo(i))
                rows.append(row)
            return rows
        k, outward = {"tm": (0, True), "t3": (2, False), "m2": (2, True)}[tag]
        weight = self.second_moment_weight if k else self.radial_weight

        def atoms(u):   # their mass (tm) or r^2 mass on the same side of u
            return sum((np.where((u <= r) if outward else (r < u),
                                 r ** k * m, 0.0)
                        for r, m in self.atoms), np.zeros_like(u))

        def row(i, u):
            p = self.variants[i].profile
            if isinstance(p, LogLogTable):
                return p.moment(self.d, k, u, outward)
            if outward:
                return tail_cumulative(weight(i), u, bps)
            return origin_cumulative(weight(i), u, bps, self.support_lo(i))

        return [row(i, u) + atoms(u) for i, u in zip(variants, radii)]

    def functional(self, tag, variants, rhos):
        """sweep(tag) of each listed variant at rhos, one read-only array
        each, memoized per variant and radius on the density: the radii
        the variants lack run in one sweep."""
        return memoized_profiles(
            self, [(tag, i) for i in variants],
            lambda rows, radii: self.sweep(tag, [variants[i] for i in rows],
                                           radii))(rhos)

    @staticmethod
    def by_parts(rho, tm, t3):
        """T1(rho) = int_0^rho u nu(B^c(0, u)) du = T2/2 + T3/2 from the
        tail mass tm and T3 at rho, with T2 = rho^2 tm (by parts); +inf
        where the sum leaves the float range."""
        with np.errstate(over="ignore"):
            return 0.5 * rho ** 2 * tm + 0.5 * t3

    def functional_envelope(self, tag, which, rhos):
        """sup or inf over the variants of the functional `tag` at rhos
        ("tm", "t3", or "t1" by_parts from them), memoized per envelope."""
        every = range(len(self.variants))
        reduce = np.max if which == "sup" else np.min

        def rows(radii):
            if tag != "t1":
                return self.functional(tag, every, radii)
            tm, t3 = (np.asarray(self.functional(t, every, radii))
                      for t in ("tm", "t3"))
            return self.by_parts(radii, tm, t3)

        return memoized_profile(self, (tag, which), lambda radii: reduce(
            rows(radii), axis=0))(rhos)

    @model_memo
    def second_moment(self):
        """sup over the variants of int |y|^2 nu(dy), atoms included: the
        "t3" and "m2" sweeps at radius 1. +inf when not integrable, at once
        when a tail slope is above -(d+2), or at it with a log exponent >=
        -1, as int^inf t^q dt (however early the profile underflows)."""
        every = range(len(self.variants))
        ones = [np.ones(1)] * len(every)
        edge = -(self.d + 2.0)
        try:
            small = self.sweep("t3", every, ones)
            if any(v.tail_slope is not None and (v.tail_slope > edge or (
                    v.tail_slope == edge and v.log_exponent >= -1.0))
                   for v in self.variants):
                return math.inf
            big = self.sweep("m2", every, ones)
        except QuadratureError:    # DivergentIntegralError among them
            return math.inf
        return max(float(s[0] + b[0]) for s, b in zip(small, big))

    def jump_symbol(self, rho, variant=0):
        """Jump part of the symbol at |xi| = rho: int (1-cos<xi,y>) nu(dy).

        rho is one radius or an array of radii (then a read-only array comes
        back). variant is one index, or a sequence of them: then the rows of
        the listed variants come back stacked. Each reads the "jsym"
        functional.
        """
        rhos = np.asarray(rho, dtype=float)
        picked = [int(i) for i in np.atleast_1d(variant)]
        out = [row.reshape(rhos.shape)
               for row in self.functional("jsym", picked, rhos)]
        if np.ndim(variant):
            return np.stack(out)
        return out[0] if rhos.ndim else float(out[0])

    def jump_symbols(self, rho):
        """jump_symbol of every variant at the radii rho, as an (n_variants,
        n_radii) array: one sweep for the radii the variants lack."""
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
        for v in self.variants:   # a table is positive: the exp of a line
            lo = max(v.support_lo, self.u0, 1e-6)
            if not isinstance(v.profile, LogLogTable) \
                    and np.any(v(np.geomspace(lo * 1.001, lo * 1e3, 16)) < 0):
                raise ModelInvariantError(
                    f"density variant {v.label!r} takes negative values")

        def levy_integrals(picked):
            """T3 at 1, then the tail mass from max(1, support_lo)."""
            small = self.sweep("t3", picked, [np.ones(1)] * len(picked))
            self.sweep("tm", picked, [np.array([max(1.0, self.support_lo(i))])
                                      for i in picked])
            return small

        every = range(len(self.variants))
        try:
            small = levy_integrals(every)
        except QuadratureError as exc:
            failed, error = 0, exc
            for i in every if len(every) > 1 else ():   # the first variant
                try:                                      # that fails alone
                    levy_integrals([i])
                except QuadratureError as alone:
                    failed, error = i, alone
                    break
            raise LevyMeasureError(
                "jump measure fails int min(1,|y|^2) nu(dy) < infinity for "
                f"variant {self.variants[failed].label!r}: {error}") from error
        if any(s[0] < 0 for s in small):
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
    when u0 is 0), one per (label, alpha, coeff) row."""
    variants = []
    for label, a, c in rows:
        if a <= 0:
            raise ModelInvariantError(f"alpha must be positive, got {a}")
        table = LogLogTable((), (0.0,), (_log(c),), (-(d + a),))
        if u0 > 0:
            table = table.below(u0, -math.inf)
        variants.append(DensityVariant(label, table, u0))
    return RadialLevyDensity(d=d, u0=u0, variants=tuple(variants))


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
        (f"alpha={a:g},coeff={c:g}", a, c)
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
        (f"alpha={a:g},gamma={g:g}", a, g * stable_coefficient(d, a))
        for a, g in pairs])


def finite_range_density(d, alpha, n_variants=9):
    """Unit-total-mass density n(x,u) = gamma(x) u^{-d-alpha(x)} 1{u >= 1}
    with gamma(x) = alpha(x) / S_d so the measure is a probability."""
    return _power_density(d, 1.0, [
        (f"alpha={a:g}", a, a / sphere_surface(d))
        for a in _interval_values(alpha, n_variants)])


def power_log_density(d, exponent, log_exponent, coeff=1.0, u_start=math.e):
    """n(u) = coeff * u^exponent * (ln u)^log_exponent for u > u_start (> 1).

    Used for regularly varying tails whose index sits exactly on a boundary
    where a slowly varying correction decides the integral tests. The tail
    slope is the exponent; at -(d+2) the log exponent decides whether the
    second moment is finite.
    """
    if u_start <= 1.0:
        raise ModelInvariantError("log-corrected density needs u_start > 1")

    def prof(u):
        safe = np.maximum(u, u_start)
        val = coeff * safe ** exponent * np.log(safe) ** log_exponent
        return np.where(u >= u_start, val, 0.0)

    return RadialLevyDensity(d=d, u0=u_start, variants=(DensityVariant(
        "power_log", prof, u_start, (u_start,), exponent, log_exponent),))


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
    `replacement(u)` there. Tail behavior beyond `radius` is untouched, and
    the atoms of `base` (at or below its cutoff, so below the new one) stay.
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
            tuple(sorted(set(v.breakpoints) | {radius})), v.tail_slope,
            v.log_exponent)

    return RadialLevyDensity(
        d=base.d, u0=max(base.u0, radius),
        variants=tuple(map(modify, base.variants)),
        monotone_beyond_u0=base.monotone_beyond_u0, atoms=base.atoms)
