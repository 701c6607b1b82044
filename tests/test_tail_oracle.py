"""Tail mass, truncated second moment, integrated tail and second moment
of piecewise-power densities against sums of elementary power integrals.

On a piece n(u) = C (u / a)^s, S_d int u^k n(u) du over [lo, hi] is
S_d C a^-s (hi^q - lo^q) / q with q = s + k + 1 (k = d - 1 for the tail
mass, d + 1 for T3), or S_d C a^-s log(hi / lo) at q = 0. The oracle
builds its pieces from the parameters of each constructor, not from the
package's table form.
"""

import dataclasses
import math

import numpy as np
import pytest

from levy_transience.densities import (
    DensityVariant,
    LogLogTable,
    RadialLevyDensity,
    finite_range_density,
    modified_density,
    power_density,
    table_density,
)
from levy_transience.errors import LevyMeasureError
from levy_transience.index_rules import uniform_second_moment
from levy_transience.levy_tails import (
    integrated_tail,
    tail_mass,
    truncated_second_moment,
)
from levy_transience.quadrature import sphere_surface
from levy_transience.symbols import radial_jump_model


def _power_pieces(c, p, u0):
    return [(u0, math.inf, c, 1.0, p)]


def _table_pieces(u_knots, n_values, u0=0.0):
    """(lo, hi, n_a, a, s): n = n_a (u / a)^s on [lo, hi). Each segment's
    line between its knots, the first one's from 0 on and the last slope
    beyond the last knot; cut at u0."""
    slopes = np.diff(np.log(n_values)) / np.diff(np.log(u_knots))
    pieces = [(u_knots[j] if j else 0.0, u_knots[j + 1], n_values[j],
               u_knots[j], slopes[j]) for j in range(len(u_knots) - 1)]
    pieces.append((u_knots[-1], math.inf, n_values[-1], u_knots[-1],
                   slopes[-1]))
    return _cut(pieces, u0)


def _cut(pieces, u0):
    return [(max(lo, u0), hi, n, a, s) for lo, hi, n, a, s in pieces
            if hi > u0]


def _scaled_below(pieces, radius, factor):
    out = []
    for lo, hi, n, a, s in pieces:
        if lo < radius < hi:
            out += [(lo, radius, factor * n, a, s), (radius, hi, n, a, s)]
        else:
            out.append((lo, hi, factor * n if hi <= radius else n, a, s))
    return out


def _integral(pieces, d, k, lo_cap, hi_cap):
    """S_d int u^k n(u) du over [lo_cap, hi_cap], piece by piece."""
    total = 0.0
    for lo, hi, n, a, s in pieces:
        lo, hi = max(lo, lo_cap), min(hi, hi_cap)
        if hi <= lo:
            continue
        q = s + k + 1.0
        if q == 0.0:
            part = math.log(hi / lo)
        elif hi == math.inf:
            part = -lo ** q / q
        elif lo == 0.0:
            part = hi ** q / q
        else:
            part = lo ** q * math.expm1(q * math.log(hi / lo)) / q
        total += n * a ** -s * part
    return sphere_surface(d) * total


def _cases():
    """(id, density, oracle pieces, atoms) in d = 1-5."""
    for d in range(1, 6):
        a = 0.3 + 0.35 * d
        yield (f"power-d{d}", power_density(d, a, coeff=0.7, u0=0.8),
               _power_pieces(0.7, -(d + a), 0.8), ())
        yield (f"finite-d{d}", finite_range_density(d, 2.5),
               _power_pieces(2.5 / sphere_surface(d), -(d + 2.5), 1.0), ())
        tail = 1e-3 * (40.0 / 3.0) ** -(d + 1.2)
        knots, values = [0.5, 3.0, 40.0], [1e-1, 1e-3, tail]
        yield (f"table-d{d}", table_density(d, knots, values),
               _table_pieces(knots, values), ())
        yield (f"table-cut-d{d}", table_density(d, knots, values, u0=1.0),
               _table_pieces(knots, values, 1.0), ())
        base = power_density(d, a, coeff=0.7, u0=0.8)
        atoms = ((0.3, 0.2), (0.8, 0.05))
        yield (f"factor-atoms-d{d}", dataclasses.replace(
            modified_density(base, 2.0, factor=3.0), atoms=atoms),
            _scaled_below(_power_pieces(0.7, -(d + a), 0.8), 2.0, 3.0), atoms)
        yield (f"factor-table-d{d}", modified_density(
            table_density(d, knots, values), 10.0, factor=0.25),
            _scaled_below(_table_pieces(knots, values), 10.0, 0.25), ())


CASES = list(_cases())


def _radii(dens):
    """Below, at and above every breakpoint and atom radius."""
    kinks = set(dens.all_breakpoints()) | {r for r, _ in dens.atoms}
    return sorted({k * f for k in kinks for f in (1 / 1.5, 1.0, 1.5)})


@pytest.mark.parametrize("name, dens, pieces, atoms", CASES,
                         ids=[c[0] for c in CASES])
def test_tail_mass_and_t3_match_the_power_integrals(name, dens, pieces,
                                                    atoms):
    d = dens.d
    for r in _radii(dens):
        want_mass = _integral(pieces, d, d - 1, r, math.inf) \
            + sum(m for radius, m in atoms if radius >= r)
        want_t3 = _integral(pieces, d, d + 1, 0.0, r) \
            + sum(radius ** 2 * m for radius, m in atoms if radius < r)
        assert tail_mass(dens, r) == pytest.approx(want_mass, rel=1e-13), r
        assert truncated_second_moment(dens, r) \
            == pytest.approx(want_t3, rel=1e-13, abs=1e-300), r


def _power_integral(p, x, y):
    """int_x^y u^p du for p != -1 (x = 0 when p > -1)."""
    if x == 0.0:
        return y ** (p + 1.0) / (p + 1.0)
    return x ** (p + 1.0) * math.expm1((p + 1.0) * math.log(y / x)) / (p + 1.0)


def _integrated_tail(pieces, d, atoms, rho):
    """T1(rho) = int_0^rho u nu(B^c(0, u)) du from its definition: on each
    u-interval [x, y] that lies in one piece (or below every piece) and
    holds no atom radius inside, nu(B^c(0, u)) is the mass beyond y plus
    the piece's S_d C a^-s (y^q - u^q) / q with q = s + d (no piece of
    these densities has s = -d or -d-2), so u times it integrates in
    closed form."""
    cuts = sorted({0.0, rho} | {e for lo, hi, *_ in pieces for e in (lo, hi)
                                if e < rho}
                  | {r for r, _ in atoms if r < rho})
    total = 0.0
    for x, y in zip(cuts, cuts[1:]):
        beyond = _integral(pieces, d, d - 1, y, math.inf) \
            + sum(m for r, m in atoms if r >= y)
        total += beyond * (y * y - x * x) / 2.0
        for lo, hi, n, a, s in pieces:
            if lo <= x and y <= hi:
                q = s + d
                total += sphere_surface(d) * n * a ** -s / q * (
                    y ** q * (y * y - x * x) / 2.0
                    - _power_integral(q + 1.0, x, y))
    return total


@pytest.mark.parametrize("name, dens, pieces, atoms", CASES,
                         ids=[c[0] for c in CASES])
def test_integrated_tail_matches_its_definition(name, dens, pieces, atoms):
    for r in _radii(dens):
        assert integrated_tail(dens, r) == pytest.approx(
            _integrated_tail(pieces, dens.d, atoms, r), rel=1e-13), r


@pytest.mark.parametrize("name, dens, pieces, atoms", CASES,
                         ids=[c[0] for c in CASES])
def test_second_moment_is_finite_below_the_last_slope_minus_d_minus_2(
        name, dens, pieces, atoms):
    d = dens.d
    got = uniform_second_moment(radial_jump_model(dens))
    if pieces[-1][4] < -(d + 2.0):
        want = _integral(pieces, d, d + 1, 0.0, math.inf) \
            + sum(r ** 2 * m for r, m in atoms)
        assert got == pytest.approx(want, rel=1e-13)
    else:
        assert got == math.inf


def _three_pieces(d, middle, tail):
    """A table of slope -d - 0.5 on (0, 0.5), `middle` on [0.5, 3) and
    `tail` beyond, 0.1 at 0.5, with its oracle pieces."""
    value = math.log(0.1) + middle * math.log(6.0)
    table = LogLogTable((0.5, 3.0), (math.log(0.5),) * 2 + (math.log(3.0),),
                        (math.log(0.1),) * 2 + (value,),
                        (-d - 0.5, middle, tail))
    dens = RadialLevyDensity(d=d, u0=0.0, variants=(
        DensityVariant("steps", table),))
    return dens, [(0.0, 0.5, 0.1, 0.5, -d - 0.5),
                  (0.5, 3.0, 0.1, 0.5, middle),
                  (3.0, math.inf, math.exp(value), 3.0, tail)]


@pytest.mark.parametrize("d", range(1, 6))
def test_a_piece_of_slope_minus_d_takes_the_log_term(d):
    # u^(d-1) n(u) = C / u on the middle piece: its tail mass is a log
    dens, pieces = _three_pieces(d, -float(d), -d - 1.2)
    for r in _radii(dens):
        assert tail_mass(dens, r) == pytest.approx(
            _integral(pieces, d, d - 1, r, math.inf), rel=1e-13), r
        assert truncated_second_moment(dens, r) == pytest.approx(
            _integral(pieces, d, d + 1, 0.0, r), rel=1e-13), r


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("above", [0.0, 0.3])
def test_a_tail_slope_at_or_above_minus_d_is_not_a_levy_measure(d, above):
    with pytest.raises(LevyMeasureError, match="variant 'steps'"):
        _three_pieces(d, -d - 1.0, -d + above)
