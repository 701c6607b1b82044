"""The log-log table form of the piecewise densities against the closed
per-kind formulas it replaces.

The reference constructors below build each kind as a closure of its own
closed formula (c u^p beyond a cutoff, interpolation of a table in log-log
coordinates, a factor below a radius). The catalogue of
`conftest.stacked_density_cases` is built once with the package's
constructors and once with these, and every variant is compared on
u in 2^[-40, 40], at the knots and just below them.
"""

import math
from unittest import mock

import numpy as np
import pytest

import conftest
from levy_transience.densities import (
    DensityVariant,
    LogLogTable,
    RadialLevyDensity,
    modified_density,
    power_density,
    stable_coefficient,
    stable_density,
    table_density,
)
from levy_transience.errors import ModelInvariantError
from levy_transience.quadrature import sphere_surface


def _interval_values(spec, n=9):
    if isinstance(spec, (int, float)):
        return [float(spec)]
    lo, hi = float(spec[0]), float(spec[1])
    if lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, n))


def _power_profile(c, p, u0):
    def prof(u):
        out = c * u ** p
        return np.where(u >= u0, out, 0.0) if u0 > 0 else out
    return prof


def reference_power_density(d, alpha, coeff=1.0, u0=0.0, n_variants=9):
    variants = tuple(
        DensityVariant(label="", profile=_power_profile(c, -(d + a), u0),
                       support_lo=u0, breakpoints=(u0,) if u0 > 0 else ())
        for a in _interval_values(alpha, n_variants)
        for c in _interval_values(coeff, n_variants))
    return RadialLevyDensity(d=d, u0=u0, variants=variants)


def reference_stable_density(d, alpha, gamma=1.0, n_variants=9):
    alphas = _interval_values(alpha, n_variants)
    gammas = _interval_values(gamma, n_variants)
    pairs = list(zip(alphas, gammas)) if len(alphas) == len(gammas) else [
        (a, g) for a in alphas for g in gammas]
    variants = tuple(DensityVariant(
        label="", profile=_power_profile(g * stable_coefficient(d, a),
                                         -(d + a), 0.0))
        for a, g in pairs)
    return RadialLevyDensity(d=d, u0=0.0, variants=variants)


def reference_finite_range_density(d, alpha, n_variants=9):
    variants = tuple(DensityVariant(
        label="", profile=_power_profile(a / sphere_surface(d), -(d + a), 1.0),
        support_lo=1.0, breakpoints=(1.0,))
        for a in _interval_values(alpha, n_variants))
    return RadialLevyDensity(d=d, u0=1.0, variants=variants)


def reference_table_density(d, u_knots, n_values, u0=0.0):
    lu, ln = np.log(u_knots), np.log(n_values)
    slope_lo = (ln[1] - ln[0]) / (lu[1] - lu[0])
    slope_hi = (ln[-1] - ln[-2]) / (lu[-1] - lu[-2])

    def prof(u):
        x = np.log(np.maximum(u, 1e-300))
        inner = np.interp(x, lu, ln)
        inner = np.where(x < lu[0], ln[0] + slope_lo * (x - lu[0]), inner)
        inner = np.where(x > lu[-1], ln[-1] + slope_hi * (x - lu[-1]), inner)
        out = np.exp(inner)
        return np.where(u >= u0, out, 0.0) if u0 > 0 else out

    return RadialLevyDensity(d=d, u0=u0, variants=(DensityVariant(
        label="", profile=prof, support_lo=u0,
        breakpoints=tuple(u_knots)),))


def reference_modified_density(base, radius, factor=None, replacement=None):
    def modify(v):
        def prof(u):
            out = v(u)
            if factor is not None:
                return np.where(u < radius, factor * out, out)
            return np.where(u < radius, replacement(u), out)
        return prof

    return RadialLevyDensity(d=base.d, u0=max(base.u0, radius), variants=tuple(
        DensityVariant(label="", profile=modify(v),
                       support_lo=0.0 if replacement else v.support_lo,
                       breakpoints=tuple(sorted(set(v.breakpoints)
                                                | {radius})))
        for v in base.variants))


def _cases():
    """(id, density, reference density) over the stacked_density_cases
    catalogue."""
    with mock.patch.multiple(
            conftest, power_density=reference_power_density,
            stable_density=reference_stable_density,
            finite_range_density=reference_finite_range_density,
            table_density=reference_table_density,
            modified_density=reference_modified_density):
        reference = dict(conftest.stacked_density_cases())
    return [(name, dens, reference[name])
            for name, dens in conftest.stacked_density_cases()]


CASES = _cases()


def _grid(dens):
    """2^[-40, 40], every breakpoint and the float just below it."""
    bps = np.asarray(dens.all_breakpoints())
    return np.sort(np.concatenate([2.0 ** np.linspace(-40.0, 40.0, 4001),
                                   bps, np.nextafter(bps, 0.0)]))


@pytest.mark.parametrize("name, dens, ref", CASES, ids=[c[0] for c in CASES])
def test_profiles_match_the_closed_per_kind_formulas(name, dens, ref):
    assert dens.all_breakpoints() == ref.all_breakpoints()
    u = _grid(dens)
    for v, r in zip(dens.variants, ref.variants, strict=True):
        assert v.support_lo == r.support_lo
        got, want = v(u), r(u)
        zero = want == 0.0
        assert np.all(got[zero] == 0.0)
        assert np.all(zero[u < v.support_lo])
        np.testing.assert_allclose(got[~zero], want[~zero], rtol=1e-13,
                                   atol=0.0)


@pytest.mark.parametrize("d", [1, 3])
def test_values_at_the_cutoff_and_at_the_modification_radius(d):
    # pieces are left-closed: at u0 the power holds, at the radius the
    # unmodified value
    dens = modified_density(power_density(d, 0.8, coeff=2.0, u0=0.5), 2.0,
                            factor=3.0)
    v = dens.variants[0]
    p = -(d + 0.8)
    assert v(np.array([np.nextafter(0.5, 0.0)]))[0] == 0.0
    for u, factor in ((0.5, 3.0), (1.0, 3.0), (np.nextafter(2.0, 0.0), 3.0),
                      (2.0, 1.0), (7.0, 1.0)):
        assert v(np.array([u]))[0] == pytest.approx(factor * 2.0 * u ** p,
                                                    rel=1e-14)


@pytest.mark.parametrize("name, dens, ref", CASES, ids=[c[0] for c in CASES])
def test_the_tail_slope_is_the_last_slope(name, dens, ref):
    for v in dens.variants:
        if isinstance(v.profile, LogLogTable):
            assert v.tail_slope == v.profile.slopes[-1]
            assert v.breakpoints == v.profile.knots
            u = np.array([1e6, 2e6])
            assert math.log(v(u)[1] / v(u)[0]) / math.log(2.0) \
                == pytest.approx(v.tail_slope, rel=1e-12)


def test_the_evaluator_is_silent_at_zero_and_infinity():
    # tier-1 turns RuntimeWarnings of densities into errors
    u = np.array([0.0, np.inf])
    cut = power_density(2, 1.0, u0=1.0).variants[0](u)
    assert cut.tolist() == [0.0, 0.0]
    pure = stable_density(2, 1.0).variants[0](u)
    assert pure.tolist() == [np.inf, 0.0]
    zeroed = modified_density(stable_density(2, 1.0), 1.0, factor=0.0)
    assert zeroed.variants[0](u).tolist() == [0.0, 0.0]
    flat = table_density(3, [1.0, 2.0, 4.0], [1.0, 1.0, 1e-6])
    assert flat.variants[0](u).tolist() == [1.0, 0.0]


def test_a_negative_coefficient_or_factor_is_no_density():
    with pytest.raises(ModelInvariantError, match=">= 0"):
        power_density(2, 1.0, coeff=-1.0, u0=1.0)
    with pytest.raises(ModelInvariantError, match=">= 0"):
        modified_density(power_density(2, 1.0, u0=1.0), 2.0, factor=-0.5)


def test_a_scalar_radius_gives_a_scalar_value():
    v = table_density(3, [1.0, 10.0, 100.0], [1e-1, 1e-5, 1e-11],
                      u0=0.5).variants[0]
    grid = v(np.array([0.25, 0.7, 20.0]))
    for u, want in zip((0.25, 0.7, 20.0), grid):
        got = v(u)
        assert got.shape == () and got == want
