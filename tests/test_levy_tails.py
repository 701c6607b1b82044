import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import stacked_density_cases
from levy_transience.classifier import (
    GATE_RECURRENT,
    GATE_TRANSIENT,
    classify,
    kappa_boundary,
    transience_gate,
)
from levy_transience.densities import (
    DensityVariant,
    RadialLevyDensity,
    finite_range_density,
    modified_density,
    power_density,
    power_log_density,
    stable_coefficient,
    stable_density,
    table_density,
)
from levy_transience.errors import (
    ConfigurationError,
    LevyTransienceError,
    NotApplicableError,
)
from levy_transience.levy_tails import (
    comparison_transfer,
    cos_moment_condition,
    density_floor_test,
    integrated_tail,
    moment_tail_test,
    perturbation_distance,
    perturbation_equivalence,
    split_tail_tests,
    tail_mass,
    tail_test_strong,
    tail_test_weak,
    truncated_second_moment,
)
from levy_transience.quadrature import sphere_surface
from levy_transience.symbols import FAMILIES, radial_jump_model
from levy_transience.verdicts import CONVERGES, DIVERGES, INCONCLUSIVE


def test_tail_mass_closed_form():
    dens = power_density(1, 0.5, coeff=1.0, u0=1.0)
    assert tail_mass(dens, 2.0) == pytest.approx(2.0 * 2.0 * 2.0 ** -0.5,
                                                 rel=1e-10)


def test_stable_density_tail_mass_formula():
    for d, alpha, gamma in [(1, 0.5, 1.0), (2, 1.2, 0.7), (3, 1.0, 2.0)]:
        dens = stable_density(d, alpha, gamma)
        coef = gamma * stable_coefficient(d, alpha)
        for rho in (0.5, 2.0, 11.0):
            want = sphere_surface(d) * coef * rho ** -alpha / alpha
            assert tail_mass(dens, rho) == pytest.approx(want, rel=1e-10)


def test_parts_identity_randomized():
    gen = np.random.Generator(np.random.Philox(key=[2024, 5]))
    for _ in range(100):
        d = int(gen.integers(1, 4))
        kind = gen.integers(0, 3)
        if kind == 0:
            dens = stable_density(d, float(gen.uniform(0.3, 1.8)),
                                  float(gen.uniform(0.5, 2.0)))
        elif kind == 1:
            dens = power_density(d, float(gen.uniform(0.3, 1.8)),
                                 coeff=float(gen.uniform(0.5, 2.0)),
                                 u0=float(gen.uniform(0.5, 1.5)))
        else:
            dens = finite_range_density(d, float(gen.uniform(0.5, 3.5)))
        rho = float(np.exp(gen.uniform(np.log(0.2), np.log(20.0))))
        assert integrated_tail(dens, rho) == pytest.approx(
            _outer_t1(dens, rho), rel=1e-8), (d, kind, rho)


@pytest.mark.parametrize("rho", [0.3, 3.7, 50.0])
@pytest.mark.parametrize("alpha", [1.2, 1.999])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_integrated_tail_closed_form(d, alpha, rho):
    dens = stable_density(d, alpha)
    coef = stable_coefficient(d, alpha)
    want = sphere_surface(d) * coef * rho ** (2 - alpha) / (alpha * (2 - alpha))
    assert integrated_tail(dens, rho) == pytest.approx(want, rel=5e-12)


@pytest.mark.parametrize("rho", [0.4, 1.0, 3.7, 50.0])
@pytest.mark.parametrize("alpha", [0.7, 1.5, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_integrated_tail_closed_form_with_cutoff(d, alpha, rho):
    # n = c u^{-d-alpha} beyond u0 = 1: the tail mass is flat below u0
    c, u0 = 0.7, 1.0
    dens = power_density(d, alpha, coeff=c, u0=u0)
    scale, b = sphere_surface(d) * c / alpha, 2 - alpha
    if rho <= u0:
        want = scale * u0 ** -alpha * rho ** 2 / 2
    else:
        want = scale * (u0 ** b / 2 + (rho ** b - u0 ** b) / b)
    assert integrated_tail(dens, rho) == pytest.approx(want, rel=5e-12)


def _outer_t1(dens, rho, n=32):
    """int_0^rho u * tail_mass(u) du by Gauss-Legendre between the
    breakpoints and atom radii, with u = e s^16 on the first piece [0, e]
    (the tail mass may blow up like u^-alpha at the origin: the integrand
    in s is then s^(16 (2 - alpha) - 1), smooth enough for alpha <= 1.8)."""
    kinks = set(dens.all_breakpoints()) | {r for r, _ in dens.atoms}
    edges = [0.0] + sorted(k for k in kinks if 0.0 < k < rho) + [rho]
    s, w = np.polynomial.legendre.leggauss(n)
    s, w = (s + 1.0) / 2.0, w / 2.0
    e = edges[1]
    total = sum(wi * 16.0 * e ** 2 * si ** 31 * tail_mass(dens, e * si ** 16)
                for si, wi in zip(s, w))
    for lo, hi in zip(edges[1:-1], edges[2:]):
        total += sum((hi - lo) * wi * u * tail_mass(dens, u)
                     for u, wi in zip(lo + (hi - lo) * s, w))
    return total


@pytest.mark.parametrize("dens, rhos", [
    pytest.param(power_density(d, 1.2, coeff=0.7, u0=1.0), (0.4, 1.0, 3.7),
                 id=f"power-cutoff-d{d}") for d in (1, 2, 3)] + [
    pytest.param(finite_range_density(2, 1.5), (0.5, 1.0, 6.0),
                 id="finite_range"),
    pytest.param(power_log_density(1, -2.0, 2.0), (1.5, math.e, 20.0),
                 id="power_log"),
    # a table cut at its first knot, and the same table with no cutoff,
    # whose kinks lie many octaves beyond its smallest radii
    pytest.param(table_density(2, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-12],
                               u0=0.5), (0.3, 0.5, 3.0, 100.0), id="table"),
    pytest.param(table_density(2, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-12]),
                 (0.3, 0.5, 3.0, 100.0), id="table-uncut"),
    pytest.param(dataclasses.replace(power_density(2, 1.2, u0=1.0),
                                     atoms=((0.5, 0.3), (1.0, 0.1))),
                 (0.25, 0.5, 1.0, 5.0), id="power-atoms"),
])
def test_integrated_tail_matches_an_outer_quadrature(dens, rhos):
    # criterion 5 checked independently of the identity T1 = T2/2 + T3/2
    # that integrated_tail is formed by: T1 is integrated here from the
    # tail mass itself
    for rho in rhos:
        assert integrated_tail(dens, rho) == pytest.approx(
            _outer_t1(dens, rho), rel=1e-8), rho


def test_tail_mass_far_below_a_table_kink():
    # n = 0.1 (u / 0.5)^p up to the knot at 3 (p the slope of the first
    # segment); from u = 0.01 the first 6 octaves see only that power
    dens = table_density(2, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-12])
    p = math.log(1e-2) / math.log(6.0)
    c = 0.1 * 0.5 ** -p
    u = 0.01
    want = tail_mass(dens, 0.5) \
        + 2.0 * math.pi * c * (0.5 ** (p + 2) - u ** (p + 2)) / (p + 2)
    assert tail_mass(dens, u) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("gamma", [1e-300, 1e300])
def test_a_stable_density_at_an_extreme_scale_stays_on_the_strong_side(gamma):
    # kappa* = d / alpha - 1 = 2: the tail mass and T3 of the table are
    # closed forms, so neither scale breaks the measure side (at 1e300 the
    # Levy-measure check rejected the density, at 1e-300 the far tail
    # masses underflowed and fired tail-weak)
    from levy_transience.symbols import isotropic_stable
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = classify(isotropic_stable(3, 1.0, gamma), 1.5)
    assert report.verdict == "strongly_transient"
    assert [r.rule_id for r in report.fired_rules if r.verdict == "weak"] == []
    assert [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
            if issubclass(w.category, RuntimeWarning)
            and w.filename.endswith(("densities.py", "levy_tails.py"))] == []


def test_tail_tests_on_stable_density(stable_density_d1):
    # d=1, alpha=0.5: boundary at kappa = d/alpha - 1 = 1
    v = tail_test_weak(stable_density_d1, 1.0, 1.0)
    assert v.state == INCONCLUSIVE and v.decided_state == DIVERGES
    v = tail_test_weak(stable_density_d1, 2.0, 1.0)
    assert v.decided_state == DIVERGES
    assert v.exponent == pytest.approx(-0.5, abs=0.02)
    v = tail_test_strong(stable_density_d1, 0.2, 1.0)
    assert v.decided_state == CONVERGES
    assert v.exponent == pytest.approx(-1.4, abs=0.02)


def test_split_tests():
    dens = stable_density(3, 1.0)
    split = split_tail_tests(dens, 0.5, 1.0)
    assert split.strong_tail_mass.decided_state == CONVERGES
    assert split.strong_tail_mass.exponent == pytest.approx(-2.5, abs=0.02)
    assert "tail-mass-strong" in split.fired()

    # bounded second moment: the moment-only test converges iff d > 2(kappa+1)
    heavy = finite_range_density(5, 3.0)
    split = split_tail_tests(heavy, 1.0, 2.0)
    assert split.strong_second_moment.decided_state == CONVERGES
    split = split_tail_tests(heavy, 2.0, 2.0)
    assert split.strong_second_moment.decided_state == DIVERGES


def test_density_floor_test_exponent():
    d, alpha, kappa = 2, 1.2, 0.2
    dens = stable_density(d, alpha)
    v = density_floor_test(dens, kappa, 1.0)
    want = -d * kappa - 2 * d - 1 + (d + alpha) * (kappa + 1)
    assert v.exponent == pytest.approx(want, abs=0.02)
    assert v.decided_state == CONVERGES


def test_density_floor_agrees_with_strong_test():
    # identical exponents for pure powers; verdicts must match off-boundary
    for alpha, kappa in [(1.2, 0.2), (1.2, 2.0), (0.6, 0.5), (1.8, 3.0)]:
        dens = stable_density(2, alpha)
        a = density_floor_test(dens, kappa, 1.0).decided_state
        b = tail_test_strong(dens, kappa, 1.0).decided_state
        assert a == b, (alpha, kappa)


def test_cos_moment_condition():
    assert cos_moment_condition(stable_density(3, 1.0))
    assert cos_moment_condition(finite_range_density(2, 3.0))


def test_perturbation_distance_cases():
    a = stable_density(2, 1.2)
    assert perturbation_distance(a, a) == 0.0
    b = modified_density(a, 2.0, factor=1.5)
    dist = perturbation_distance(a, b)
    assert 0.0 < dist < math.inf
    heavy_vs_light = perturbation_distance(stable_density(1, 0.5),
                                           stable_density(1, 1.5))
    assert heavy_vs_light == math.inf


def test_perturbation_transfer_report():
    a = stable_density(2, 1.2)
    b = modified_density(a, 2.0, factor=1.5)
    rep = perturbation_equivalence(a, b)
    assert rep.weak_side_transfer and rep.strong_side_transfer
    rep = perturbation_equivalence(stable_density(1, 0.5),
                                   stable_density(1, 1.5))
    assert not rep.weak_side_transfer


def test_diverging_perturbation_distance_raises_no_warning():
    a = power_density(3, alpha=(0.8, 1.2), u0=1.0)
    b = power_density(3, alpha=(0.9, 1.1), u0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = perturbation_equivalence(a, b)
    assert rep.distance == math.inf
    assert not rep.weak_side_transfer and not rep.strong_side_transfer


def test_perturbation_invariance_of_verdicts():
    base = stable_density(2, 1.2)
    bumped = modified_density(base, 1.0, factor=2.0)
    for kappa in (0.5, 1.0, 2.0):
        va = classify(radial_jump_model(base), kappa).verdict
        vb = classify(radial_jump_model(bumped), kappa).verdict
        assert va == vb, kappa


def test_comparison_transfer_cases():
    a = stable_density(1, 0.5)   # fatter tail dominates
    b = stable_density(1, 0.8)
    rep = comparison_transfer(a, b, u0=1.0)
    assert rep.domination_ok
    # at kappa = 3 both classify weak, consistent with the transfer direction
    va = classify(radial_jump_model(a), 3.0).verdict
    vb = classify(radial_jump_model(b), 3.0).verdict
    assert va == "weakly_transient" and vb == "weakly_transient"

    assert comparison_transfer(a, a, u0=1.0).domination_ok

    with pytest.raises(NotApplicableError) as err:
        comparison_transfer(b, a, u0=1.0)
    assert err.value.witness is not None


def test_gate_truth_table_of_log_tails_at_index_minus_2d():
    # n(u) = u^-2d (ln u)^q: in d = 1 the symbol is ~ c rho (ln 1/rho)^q and
    # int_0 drho / (rho (ln 1/rho)^q) converges iff q > 1; in d = 2 the germ
    # is rho^2 (ln 1/rho)^(q+1), transient iff q > 0
    wrong = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, threshold in ((1, 1.0), (2, 0.0)):
            for q in (-3.0, -1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0,
                      1.25, 2.0, 3.0):
                model = radial_jump_model(power_log_density(d, -2.0 * d, q))
                want = GATE_TRANSIENT if q > threshold else GATE_RECURRENT
                if transience_gate(model) != want:
                    wrong.append((d, q))
    assert wrong == []


def test_e3_classification_against_tail_tests():
    # pure-power tails: the stated indices and the integral tests must agree
    d = 2
    for alpha in (0.4, 0.8, 1.2, 1.6, 1.9):
        dens = stable_density(d, alpha)
        germ = FAMILIES["radial_jump"].indices(radial_jump_model(dens))
        assert germ[0] == germ[1] == (pytest.approx(alpha, abs=1e-15), 0.0)
        for kappa in (0.3, 0.75, 1.6, 2.6, 3.5):
            weak_state = tail_test_weak(dens, kappa, 1.0).decided_state
            strong_state = tail_test_strong(dens, kappa, 1.0).decided_state
            if germ[0][0] * (kappa + 1.0) >= d:
                assert weak_state == DIVERGES, (alpha, kappa)
            else:
                assert strong_state == CONVERGES, (alpha, kappa)


def test_boundary_kappa_decreases_with_alpha():
    from levy_transience.symbols import isotropic_stable

    stars = [kappa_boundary(isotropic_stable(2, a), tol=0.02)
             for a in (0.4, 0.8, 1.2, 1.6)]
    for a, s in zip((0.4, 0.8, 1.2, 1.6), stars):
        assert s == pytest.approx(2.0 / a - 1.0, abs=0.05)
    assert all(x > y for x, y in zip(stars, stars[1:]))


def test_atoms_enter_functionals_but_not_verdicts():
    import dataclasses

    from levy_transience.quadrature import one_minus_wave_kernel

    base = power_density(2, 1.2, u0=1.0)
    with_atoms = dataclasses.replace(base, atoms=((0.5, 0.3), (1.0, 0.1)))
    # an atom (r, m) is mass m on the sphere of radius r: it adds
    # m (1 - psi_d(rho r)) to the jump symbol
    for rho in (1e-3, 1.0, 7.0):
        assert with_atoms.jump_symbol(rho) == pytest.approx(
            base.jump_symbol(rho) + sum(
                m * one_minus_wave_kernel(rho * r, 2) for r, m in
                with_atoms.atoms), rel=1e-12)
    # T1 by parts matches T1 integrated from the tail mass with atom mass
    assert integrated_tail(with_atoms, 5.0) == pytest.approx(
        _outer_t1(with_atoms, 5.0), rel=1e-10)
    # atoms add to the tail mass at small radii only
    assert tail_mass(with_atoms, 0.25) == pytest.approx(
        tail_mass(base, 0.25) + 0.4, rel=1e-10)
    assert tail_mass(with_atoms, 2.0) == pytest.approx(
        tail_mass(base, 2.0), rel=1e-10)
    # verdicts beyond the cutoff are unchanged
    for kappa in (0.5, 2.0):
        a = tail_test_weak(base, kappa, 2.0).decided_state
        b = tail_test_weak(with_atoms, kappa, 2.0).decided_state
        assert a == b


def test_modified_density_keeps_the_atoms_of_its_base():
    # the atom sits below the base cutoff, so below the new one; a factor
    # of 1 leaves the measure, its tail mass and T3 as they are
    base = dataclasses.replace(power_density(3, 1.2, u0=1.0),
                               atoms=((0.5, 0.2),))
    same = modified_density(base, 2.0, factor=1.0)
    assert same.atoms == base.atoms
    for r in (0.3, 0.5, 0.7, 3.0):     # below, at and above the atom
        assert tail_mass(same, r) == pytest.approx(tail_mass(base, r),
                                                   rel=1e-12), r
        assert truncated_second_moment(same, r) == pytest.approx(
            truncated_second_moment(base, r), rel=1e-12, abs=1e-300), r
    assert tail_mass(same, 0.3) - tail_mass(same, 0.7) \
        == pytest.approx(0.2, rel=1e-12)


def test_monotone_verification_and_downgrade():
    ok = stable_density(2, 1.2)
    assert ok.monotone_verified()
    u = np.geomspace(1.0, 1e14, 1500)
    bumpy = u ** -3.2 * (1.0 + 0.9 * np.sin(3.0 * np.log(u)))
    tab = table_density(2, u, bumpy, u0=1.0)
    assert not tab.monotone_verified()
    with pytest.raises(NotApplicableError):
        density_floor_test(tab, 0.5, 2.0)
    # its tail mass dominates this one's, but it does not decrease: no
    # transfer is claimed
    with pytest.raises(NotApplicableError, match="decreasing"):
        comparison_transfer(tab, power_density(2, 1.5, coeff=1e-3, u0=1.0),
                            1.0)


def test_monotone_verification_reads_a_table_exactly():
    # a rise far beyond the cutoff, and a step up at a knot past it
    far = table_density(2, [1.0, 1e7, 2e7, 4e7],
                        [1.0, 1e-21, 2e-21, 2e-21 / 16.0], u0=1.0)
    assert not far.monotone_verified()
    table = power_density(2, 1.2).variants[0].profile
    step = RadialLevyDensity(d=2, u0=1.0, variants=(DensityVariant(
        "step", table.below(5.0, math.log(0.5))),))
    assert not step.monotone_verified()
    # the lines of two segments meet at their knot up to rounding
    assert table_density(2, [0.5, 3.0, 40.0],
                         [1e-1, 1e-3, 1e-12]).monotone_verified()


def test_truncated_second_moment_power():
    dens = stable_density(1, 0.5)
    coef = stable_coefficient(1, 0.5)
    rho = 5.0
    want = 2.0 * coef * rho ** 1.5 / 1.5
    assert truncated_second_moment(dens, rho) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("dens", [
    stable_density(3, 1.4),
    table_density(2, [0.5, 3.0, 40.0], [1e-1, 1e-3, 1e-12]),
    finite_range_density(1, 0.7),
    # support cut, kink and two atoms below the cutoff
    dataclasses.replace(power_density(2, 1.2, u0=1.0),
                        atoms=((0.5, 0.3), (1.0, 0.1))),
], ids=["stable", "table", "finite", "power-atoms"])
def test_second_moment_sweep_matches_single_radii(dens):
    # the T3 ladder is one origin-side sweep; each radius on its own is one
    # octave sum (or one log integral above the support cut)
    rhos = np.concatenate([np.geomspace(0.05, 80.0, 40), [0.5, 1.0, 3.0]])
    rhos.sort()
    got = dens.sweep("t3", [0], [rhos])[0]
    want = [truncated_second_moment(dens, r) for r in rhos]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("name, dens", list(stacked_density_cases()))
def test_sweeps_equal_each_variant_alone_bit_for_bit(name, dens):
    # jump symbol, tail mass and T3 (the parts T1 is formed from) of several
    # variants in one sweep: each row is that of its variant alone,
    # whatever radii (a verdict ladder, one radius, more than 64, past a
    # table's series reach, and a zero radius for the jump symbol) and
    # variants share the sweep
    from levy_transience.verdicts import AT_INFINITY, AT_ORIGIN, verdict_ladder

    n = len(dens.variants)
    picked = [n - 1, 0, n // 2, 0]
    radii = [np.sort(verdict_ladder(1.0, AT_INFINITY)[0]), np.array([0.75]),
             np.sort(verdict_ladder(0.5, AT_ORIGIN)[0][:90]),
             np.geomspace(0.01, 50.0, 70)]
    for tag in ("jsym", "tm", "t3"):
        swept = [np.append(0.0, r) for r in radii] if tag == "jsym" \
            else radii
        rows = dens.sweep(tag, picked, swept)
        for i, rhos, row in zip(picked, swept, rows):
            alone = dens.sweep(tag, [i], [rhos])[0]
            assert row.tobytes() == alone.tobytes(), (tag, i)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_tail_tests_reject_non_finite_kappa(kappa):
    dens = stable_density(1, 0.5)
    for test in (tail_test_weak, tail_test_strong, split_tail_tests,
                 density_floor_test):
        with pytest.raises(ConfigurationError, match="kappa"):
            test(dens, kappa, 2.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_alpha_near_two_is_a_levy_measure(d):
    # the second moment near 0 shrinks by only 2^-(2-alpha) per octave; the
    # block ratio 2^-0.001 of alpha = 1.999 is still extrapolated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1.995, 1.999):
            stable_density(d, alpha)
        power_density(d, 1.998)


def test_stable_alpha_near_two_classifies():
    from levy_transience.symbols import isotropic_stable

    model = isotropic_stable(3, 1.999)      # kappa* = 3/1.999 - 1 = 0.5008
    assert classify(model, 0.2).verdict == "strongly_transient"
    assert classify(model, 0.6).verdict == "weakly_transient"



def test_split_tail_tests_read_the_moment_tail_test():
    dens = power_density(3, (0.8, 1.2), u0=1.0, n_variants=2)
    for kappa in (0.5, 3.0):
        split = split_tail_tests(dens, kappa, 2.0)
        assert split.strong_second_moment.to_json() \
            == moment_tail_test(dens, kappa, 2.0).to_json()


def test_classify_keeps_the_tail_band_where_the_tail_mass_underflows():
    # at gamma 1e-280 in d = 5 the tail mass underflows to 0 on the far
    # ladder, so the tail-mass split verdict cannot be formed; classify
    # reads only the truncated-moment verdict, which still decides
    from levy_transience.symbols import isotropic_stable

    model = isotropic_stable(5, 1.0, gamma=1e-280)
    dens = model.triplet.jump_density
    try:
        split_tail_tests(dens, 0.0, 1.0)
    except LevyTransienceError:
        pass
    assert moment_tail_test(dens, 0.0, 1.0).decided_state == CONVERGES
    report = classify(model, 0.0)
    assert "cos-moment-strong" in {rec.rule_id for rec in report.fired_rules}
    assert report.notes == ()
