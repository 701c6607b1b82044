import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import levy_transience
from levy_transience import quadrature
from levy_transience.errors import DivergentIntegralError
from levy_transience.quadrature import (
    _octave_stop,
    integrate_log,
    integrate_origin,
    integrate_tail,
    jump_symbol_value,
    one_minus_wave_kernel,
    origin_cumulative,
    oscillatory_tail_integral,
    segment_integrals,
    sphere_surface,
    tail_cumulative,
)


def test_sphere_surface_values():
    assert sphere_surface(1) == pytest.approx(2.0)
    assert sphere_surface(2) == pytest.approx(2.0 * math.pi)
    assert sphere_surface(3) == pytest.approx(4.0 * math.pi)


@pytest.mark.parametrize("n", [10, 16])
def test_gauss_legendre_literals_are_numpys_leggauss(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    assert quadrature._GL[n][0].tobytes() == nodes.tobytes()
    assert quadrature._GL[n][1].tobytes() == weights.tobytes()


@pytest.mark.parametrize("p", [-0.5, 0.0, 1.7, 3.2])
def test_integrate_log_power(p):
    got = integrate_log(lambda u: u ** p, 0.5, 8.0)
    want = (8.0 ** (p + 1) - 0.5 ** (p + 1)) / (p + 1)
    assert got == pytest.approx(want, rel=1e-13)


def test_integrate_log_breakpoint():
    # piecewise integrand with a kink: blocks must split at the breakpoint
    def f(u):
        return np.where(u < 2.0, u, 3.0 * u)

    got = integrate_log(f, 1.0, 4.0, breakpoints=(2.0,))
    want = (4.0 - 1.0) / 2.0 + 3.0 * (16.0 - 4.0) / 2.0
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", [-1.2, -2.5, -4.0])
def test_integrate_tail_power(p):
    got = integrate_tail(lambda u: u ** p, 3.0)
    want = -3.0 ** (p + 1) / (p + 1)
    assert got == pytest.approx(want, rel=1e-10)


def test_integrate_tail_divergent():
    with pytest.raises(DivergentIntegralError):
        integrate_tail(lambda u: 1.0 / u, 1.0)


@pytest.mark.parametrize("p", [-0.9, 0.3, 2.0])
def test_integrate_origin_power(p):
    got = integrate_origin(lambda u: u ** p, 2.0)
    want = 2.0 ** (p + 1) / (p + 1)
    assert got == pytest.approx(want, rel=1e-10)


def test_integrate_origin_divergent():
    with pytest.raises(DivergentIntegralError):
        integrate_origin(lambda u: u ** -1.5, 1.0)


def test_integrate_origin_support_cutoff():
    got = integrate_origin(lambda u: np.ones_like(u), 5.0, support_lo=2.0)
    assert got == pytest.approx(3.0, rel=1e-13)


def test_wave_kernel_matches_low_dim_closed_forms():
    from scipy.special import gamma, hyp0f1, jv

    s = np.array([1e-4, 0.01, 0.09, 0.5, 2.0, 17.0])
    np.testing.assert_allclose(one_minus_wave_kernel(s, 1), 1 - np.cos(s),
                               rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(one_minus_wave_kernel(s, 3),
                               1 - np.sin(s) / s, rtol=1e-10, atol=1e-14)
    # independent references on a dense grid and on both sides of the 0.1
    # series switch: 0F1(d/2; -s^2/4) and the Bessel form
    # Gamma(d/2) (2/s)^(d/2-1) J_(d/2-1)(s). scipy's hyp0f1(0.5, .) is itself
    # off by up to 5.9e-12 near s = 12.8, hence the looser d = 1 bound.
    switch = 0.1 * (1.0 + np.array([-1e-2, -1e-6, 0.0, 1e-6, 1e-2]))
    s = np.concatenate([switch, np.linspace(0.1, 200.0, 20001)])
    for d, hyp_atol in ((1, 1e-11), (3, 1e-13)):
        got = one_minus_wave_kernel(s, d)
        np.testing.assert_allclose(got, 1 - hyp0f1(d / 2, -s ** 2 / 4),
                                   rtol=0, atol=hyp_atol)
        bessel = gamma(d / 2) * (2 / s) ** (d / 2 - 1) * jv(d / 2 - 1, s)
        np.testing.assert_allclose(got, 1 - bessel, rtol=0, atol=1e-13)


def test_wave_kernel_small_argument_scale():
    # behaves like s^2/(2d) near 0
    for d in (1, 2, 3, 5):
        s = 1e-6
        val = one_minus_wave_kernel(np.array([s]), d)[0]
        assert val == pytest.approx(s * s / (2.0 * d), rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_symbol_value_stable_closed_form(d):
    # weight of an isotropic stable measure gives exactly rho^alpha
    from levy_transience.densities import stable_coefficient

    alpha = 0.8
    c = stable_coefficient(d, alpha)
    s_d = sphere_surface(d)

    def w(u):
        return s_d * c * u ** (d - 1.0 - d - alpha)

    for rho in (2.0 ** -20, 0.1, 1.0, 30.0):
        got = jump_symbol_value(w, [rho], d, (), 0.0)[0]
        assert got == pytest.approx(rho ** alpha, rel=1e-8)


def test_tail_cumulative_matches_direct():
    def w(u):
        return u ** -2.2

    us = np.geomspace(0.05, 40.0, 17)
    got = tail_cumulative(w, us, ())
    want = -us ** -1.2 / -1.2
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_segment_integrals_with_breakpoint():
    def f(u):
        return np.where(u < 1.0, 0.0, u ** -2.0)

    edges = np.array([0.5, 0.9, 1.5, 3.0])
    got = segment_integrals(f, edges, (1.0,))
    assert got[0] == pytest.approx(0.0, abs=1e-15)
    assert got[1] == pytest.approx(1.0 - 1.0 / 1.5, rel=1e-12)
    assert got[2] == pytest.approx(1.0 / 1.5 - 1.0 / 3.0, rel=1e-12)


def _ladder_cases():
    from levy_transience.densities import (
        finite_range_density,
        modified_density,
        power_density,
        stable_density,
        table_density,
    )

    for d in (1, 2, 3, 5):
        # cutoff u0 = 1: radii on both sides of pi / u0
        yield f"power-u0-d{d}", power_density(d, (0.8, 1.2), u0=1.0,
                                              n_variants=2)
        yield f"stable-d{d}", stable_density(d, (0.6, 1.4), n_variants=2)
        # knots 0.5, 3, 40 fall inside the wave blocks of most radii
        yield f"table-d{d}", table_density(d, [0.5, 3.0, 40.0],
                                           [1e-1, 1e-3, 1e-12])
        yield f"finite-d{d}", finite_range_density(d, 1.2)
        yield f"modified-d{d}", modified_density(
            power_density(d, 1.1, u0=0.5), 2.0, factor=3.0)


@pytest.mark.parametrize("name, dens", list(_ladder_cases()))
def test_jump_symbol_value_ladder_matches_single_radii(name, dens):
    rhos = np.concatenate([np.geomspace(1e-3, 30.0, 23),
                           np.pi * np.array([0.999, 1.0, 1.001])])
    for i in range(len(dens.variants)):
        f = dens.radial_weight(i)
        kw = (dens.all_breakpoints(), dens.support_lo(i))
        ladder = jump_symbol_value(f, rhos, dens.d, *kw)
        single = np.array([jump_symbol_value(f, [r], dens.d, *kw)[0]
                           for r in rhos])
        assert ladder.shape == rhos.shape
        np.testing.assert_allclose(ladder, single, rtol=1e-13, atol=0.0)


def test_jump_symbol_value_ladder_chunks_and_zero_radius():
    from levy_transience.densities import stable_density

    dens = stable_density(3, 1.3)
    f = dens.radial_weight(0)
    # more radii than one chunk and a zero radius
    rhos = np.append(np.geomspace(1e-4, 10.0, 149), 0.0)
    got = jump_symbol_value(f, rhos, 3, (), 0.0)
    assert got.shape == (150,) and got[-1] == 0.0
    np.testing.assert_allclose(got, rhos ** 1.3, rtol=1e-10)


def test_jump_symbol_value_stable_closed_form_on_a_radius_vector():
    from levy_transience.densities import stable_coefficient

    for d, alpha in ((1, 0.5), (2, 0.8), (3, 1.5), (5, 1.9)):
        c = stable_coefficient(d, alpha)
        s_d = sphere_surface(d)

        def w(u):
            return s_d * c * u ** (-1.0 - alpha)

        rhos = np.array([2.0 ** -20, 1e-3, 0.1, 1.0, 30.0])
        np.testing.assert_allclose(
            jump_symbol_value(w, rhos, d, (), 0.0), rhos ** alpha,
            rtol=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_shared_wave_tail_matches_the_per_row_blocks(d, monkeypatch):
    # from pi/rho (a = None) a window free of breakpoints reads the shared
    # s-space functional; an explicit lower limit always takes the per-row
    # blocks. The table knots and the power cutoff fall inside the windows
    # of some radii, which then take the per-row blocks in both calls.
    from levy_transience.densities import (
        power_density,
        stable_density,
        table_density,
    )

    blockwise_rows = []
    blockwise = quadrature._blockwise_wave_tail

    def counted(f, a, rho, *args):
        blockwise_rows.append(rho.size)
        return blockwise(f, a, rho, *args)

    monkeypatch.setattr(quadrature, "_blockwise_wave_tail", counted)
    rhos = np.geomspace(1e-6, 1e2, 97)
    for dens in (power_density(d, 1.1, u0=1.0), stable_density(d, 0.7),
                 table_density(d, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-12])):
        f = dens.radial_weight(0)
        bps = dens.all_breakpoints()
        blockwise_rows.clear()
        shared = oscillatory_tail_integral(f, None, rhos, d, bps)
        fallback_rows = sum(blockwise_rows)
        per_row = oscillatory_tail_integral(f, np.pi / rhos, rhos, d, bps)
        assert sum(blockwise_rows) - fallback_rows == rhos.size
        assert (fallback_rows > 0) == bool(bps)
        np.testing.assert_allclose(shared, per_row, rtol=1e-13, atol=0.0)


def test_wave_tail_of_a_ladder_evaluates_the_kernel_once(monkeypatch):
    # 400 radii below pi/u0: the wave tail evaluates psi_d only to build
    # its n_blocks * n = 480-node functional, not 480 nodes per radius
    from levy_transience.densities import power_density

    nodes = []
    kernel = quadrature.wave_kernel

    def counted(s, d):
        if sys._getframe(1).f_code.co_name != "one_minus_wave_kernel":
            nodes.append(np.size(s))     # not the near part's 1 - psi_d
        return kernel(s, d)

    monkeypatch.setattr(quadrature, "wave_kernel", counted)
    quadrature._wave_functional.cache_clear()
    dens = power_density(3, 1.1, u0=1.0)
    rhos = np.geomspace(6e-8, 3.0, 400)
    jump_symbol_value(dens.radial_weight(0), rhos, 3, dens.all_breakpoints(),
                      dens.support_lo(0))
    assert 0 < sum(nodes) <= 48 * 10


def test_origin_cumulative_matches_direct():
    us = np.geomspace(0.05, 40.0, 17)
    np.testing.assert_allclose(
        origin_cumulative(lambda u: u ** -0.4, us, (), 0.0),
        us ** 0.6 / 0.6, rtol=1e-10)
    # support cut at 0.5, kink at 2: blocks split at both breakpoints
    got = origin_cumulative(
        lambda u: np.where(u < 0.5, 0.0, np.where(u < 2.0, u, 2.0)),
        us, (0.5, 2.0), 0.5)
    want = np.where(us < 0.5, 0.0, np.where(
        us < 2.0, (us ** 2 - 0.25) / 2.0, 1.875 + 2.0 * (us - 2.0)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def _one_call_cases():
    from levy_transience.densities import (
        modified_density,
        power_density,
        power_log_density,
        table_density,
    )

    yield "power_log-d1", power_log_density(1, -2.0, 2.0)
    yield "power_log-d3", power_log_density(3, -4.5, 1.0)
    yield "power-u0-d3", power_density(3, (0.8, 1.2), u0=3.0)
    yield "replacement-d2", modified_density(
        power_density(2, (0.7, 1.3), n_variants=2), 1.0,
        replacement=lambda u: u ** -2.5)
    yield "table-past-reach-d2", table_density(2, [0.5, 3.0, 40.0],
                                               [1e-1, 1e-3, 1e-6])


@pytest.mark.parametrize("name, dens", list(_one_call_cases()))
def test_sweep_rows_are_one_quadrature_call_per_variant(name, dens):
    # each variant's row of a sweep over all variants is exactly what one
    # call of the quadrature entry point on that variant's weight returns;
    # a table's jump symbol reaches quadrature only past its series' reach
    from levy_transience.densities import LogLogTable

    rhos = np.sort(np.append(np.geomspace(1e-6, 1e3, 120), np.pi))
    every = range(len(dens.variants))
    bps = dens.all_breakpoints()
    jsym = dens.sweep("jsym", every, [rhos] * len(dens.variants))
    for i, row in zip(every, jsym):
        p = dens.variants[i].profile
        table = isinstance(p, LogLogTable)
        series = p.jump_symbol(dens.d, rhos) if table \
            else np.full(rhos.shape, np.nan)
        rest = np.isnan(series)
        assert rest.any()
        want = jump_symbol_value(dens.radial_weight(i), rhos[rest], dens.d,
                                 bps, dens.support_lo(i))
        assert row[rest].tobytes() == want.tobytes(), i
        assert row[~rest].tobytes() == series[~rest].tobytes(), i
        if table:   # its tail mass and T3 are closed forms
            continue
        np.testing.assert_array_equal(
            dens.sweep("tm", [i], [rhos])[0],
            tail_cumulative(dens.radial_weight(i), rhos, bps))
        np.testing.assert_array_equal(
            dens.sweep("t3", [i], [rhos])[0],
            origin_cumulative(dens.second_moment_weight(i), rhos, bps,
                              dens.support_lo(i)))


def _variants_with_divergent_integrals():
    # d = 1, n = u^-2 with two changes that the Levy-measure check, whose
    # integrals from 1 stop near 1e-11 and 1e11, does not reach: n falls
    # only like u^-1 beyond 1e15 ("far": the plain tail of a jump symbol
    # diverges for rho below pi/1e15) or rises like u^-3 below 1e-15
    # ("near": the part below pi/rho diverges for large rho)
    from levy_transience.densities import DensityVariant, RadialLevyDensity

    def power(u):
        return u ** -2.0

    def far(u):
        return np.where(u > 1e15, u ** -1.0 / 1e15, u ** -2.0)

    def near(u):
        return np.where(u < 1e-15, u ** -3.0 * 1e-15, u ** -2.0)

    return lambda: RadialLevyDensity(d=1, u0=0.0, variants=(
        DensityVariant("power", power, tail_slope=-2.0),
        DensityVariant("far", far, breakpoints=(1e15,)),
        DensityVariant("near", near, breakpoints=(1e-15,))))


def _raised(call):
    with pytest.raises(DivergentIntegralError) as info:
        call()
    return type(info.value), str(info.value), info.value.partial


def test_a_stacked_jump_symbol_raises_what_a_loop_over_variants_raises():
    # a loop over the variants meets the far variant's diverging tail
    # first, and so does the sweep of all variants, although the near
    # variant diverges in an earlier stage of its own sweep
    fresh = _variants_with_divergent_integrals()
    rhos = np.array([1e-16, 1e12])
    loop = fresh()
    want = _raised(lambda: [loop.jump_symbol(rhos, i) for i in range(3)])
    assert want[1] == (f"tail integral from {math.pi / 1e-16} did not "
                       "converge within 260 octaves")
    assert _raised(lambda: fresh().jump_symbols(rhos)) == want
    # alone, the near variant's error is the one of its own stage
    assert "integral near 0 below pi/rho" \
        in _raised(lambda: fresh().jump_symbol(rhos, 2))[1]


def test_jump_symbols_fill_each_memo_as_a_loop_over_variants_would(
        monkeypatch):
    # variant 0 already holds the radii (the pointwise symbol path fills it
    # alone); the sweep of all variants computes only the variants that
    # lack them, one row per (variant, radii), so every value equals that
    # of the per-variant loop
    from levy_transience.densities import RadialLevyDensity, power_density

    def fresh():
        dens = power_density(3, (0.8, 1.2), u0=1.0)
        dens.jump_symbol(np.geomspace(1e-3, 3.0, 5), 0)
        dens.jump_symbol(rhos, 0)
        return dens

    rhos = np.geomspace(1e-4, 10.0, 90)
    loop = fresh()
    want = np.stack([loop.jump_symbol(rhos, i) for i in range(9)])
    swept = fresh()
    sweeps = []

    def counted(density, tag, variants, radii):
        sweeps.append(list(variants))
        return sweep(density, tag, variants, radii)

    sweep = RadialLevyDensity.sweep
    monkeypatch.setattr(RadialLevyDensity, "sweep", counted)
    got = swept.jump_symbols(rhos)
    assert sweeps == [list(range(1, 9))]
    assert got.shape == (9, 90) and got.tobytes() == want.tobytes()
    assert swept._cache.keys() == loop._cache.keys()
    for key, row in swept._cache.items():
        assert row.tobytes() == loop._cache[key].tobytes()
    assert swept.jump_symbol(0.5, [4, 0]).tolist() \
        == [loop.jump_symbol(0.5, 4), loop.jump_symbol(0.5, 0)]


def test_jump_symbols_over_many_steps_equal_a_loop_over_variants():
    # 9 variants without a support cut share 406 radii (a near part of
    # about 3,300 octave blocks per batch each): the sweep of all of them
    # equals the per-variant loop bit for bit
    from levy_transience.densities import modified_density, stable_density

    def fresh():
        return modified_density(stable_density(3, (0.8, 1.2)), 2.0,
                                factor=3.0)

    rhos = np.geomspace(1e-3, 10.0, 406)
    loop = fresh()
    want = np.stack([loop.jump_symbol(rhos, i) for i in range(9)])
    got = fresh().jump_symbols(rhos)
    assert got.shape == (9, 406) and got.tobytes() == want.tobytes()


def test_import_leaves_scipy_special_unloaded():
    src = str(Path(levy_transience.__file__).resolve().parents[1])
    code = ("import sys, levy_transience.cli; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def _first_stop(blocks, rel_tol=1e-11):
    stop, value = _octave_stop(np.asarray([blocks], dtype=float), 6, rel_tol)
    j = int(np.argmax(stop[0]))
    return (j, float(value[0, j])) if stop[0, j] else (None, None)


@pytest.mark.parametrize("q", [0.01, 0.02])
def test_octave_stop_extrapolates_a_geometric_sequence(q):
    # the remainder q^7 / (1 - q) is already within tolerance at octave 6
    j, value = _first_stop(q ** np.arange(12.0))
    assert j == 6
    assert value == pytest.approx(1.0 / (1.0 - q), rel=1e-15)


def test_octave_stop_takes_a_settled_ratio_one_octave_later():
    # at q = 1/2 the remainder is large, but the ratio at octave 7 equals
    # the one at octave 6: the extrapolation is exact
    j, value = _first_stop(0.5 ** np.arange(12.0))
    assert j == 7 and value == pytest.approx(2.0, rel=1e-15)


def test_octave_stop_ends_a_run_of_zero_blocks():
    blocks = np.concatenate([np.ones(8), np.zeros(30)])
    assert _first_stop(blocks) == (8 + 23, 8.0)


def test_octave_stop_never_stops_a_growing_sequence():
    stop, _ = _octave_stop(2.0 ** np.arange(260.0)[None, :], 6, 1e-11)
    assert not stop.any()


@given(q=st.floats(0.0, 1.5), min_octaves=st.integers(0, 8),
       wobble=st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=60),
       zeros=st.sets(st.integers(0, 59)), cut=st.integers(1, 60),
       rel_tol=st.sampled_from([1e-11, 1e-6, 1e-2]))
def test_octave_stop_at_an_octave_ignores_later_octaves(q, min_octaves, wobble,
                                                        zeros, cut, rel_tol):
    # the property that lets a block history replace carried state
    row = q ** np.arange(len(wobble)) * (1.0 + np.asarray(wobble))
    row[[z for z in zeros if z < row.size]] = 0.0
    blocks = np.stack([row, row[::-1]])
    cut = min(cut, row.size)
    stop, value = _octave_stop(blocks, min_octaves, rel_tol)
    stop_cut, value_cut = _octave_stop(blocks[:, :cut], min_octaves, rel_tol)
    assert np.array_equal(stop[:, :cut], stop_cut)
    assert np.array_equal(value[:, :cut], value_cut, equal_nan=True)
