import json
import math
import warnings

import numpy as np
import pytest

from levy_transience.classifier import (
    GATE_RECURRENT,
    GATE_TRANSIENT,
    INCONCLUSIVE,
    STRONGLY_TRANSIENT,
    WEAKLY_TRANSIENT,
    NotTransientError,
    classify,
    classify_verdict,
    kappa_boundary,
    transience_gate,
)
from levy_transience.densities import (
    RadialLevyDensity,
    power_density,
    power_log_density,
    stable_density,
    table_density,
)
from levy_transience.errors import ConfigurationError
from levy_transience.index_rules import pruitt_indices
from levy_transience.symbols import (
    brownian_drift,
    custom_model,
    finite_jump_model,
    isotropic_stable,
    radial_jump_model,
    stable_like,
)


def test_gate_examples(bm3, stable_05_d1, stable_15_d1):
    assert transience_gate(bm3) == GATE_TRANSIENT
    assert transience_gate(brownian_drift(2)) == GATE_RECURRENT
    assert transience_gate(stable_05_d1) == GATE_TRANSIENT
    assert transience_gate(stable_15_d1) == GATE_RECURRENT


def test_gate_integral_fallback_agrees(bm3, stable_05_d1, stable_15_d1):
    for model in (bm3, brownian_drift(2), stable_05_d1, stable_15_d1):
        assert transience_gate(model) == transience_gate(
            model, use_structural=False)


def test_a_vanishing_inf_profile_is_not_concave():
    # c(x) spans (0, 1): inf Re q = 0, whose second differences vanish; it
    # once fired shape-concave-inf alone, strongly_transient at 0.2
    model = brownian_drift(3, c=(0.0, 1.0))
    rep = classify(model, 0.2)
    assert rep.verdict == INCONCLUSIVE and rep.fired_rules == ()
    rep = classify(model, 1.0)
    assert rep.verdict == WEAKLY_TRANSIENT
    assert "shape-concave-inf" not in [r.rule_id for r in rep.fired_rules]


def test_classify_examples(bm3, stable_05_d1):
    rep = classify(bm3, 0.6)
    assert rep.verdict == WEAKLY_TRANSIENT
    rep = classify(stable_05_d1, 0.5)
    assert rep.verdict == STRONGLY_TRANSIENT
    rep = classify(stable_like(3, alpha=(1.2, 1.5), gamma=1.0), 1.6)
    assert rep.verdict == WEAKLY_TRANSIENT
    assert any(r.rule_id == "index-exact-weak" for r in rep.fired_rules)


def test_classify_requires_transience(stable_15_d1):
    with pytest.raises(NotTransientError):
        classify(stable_15_d1, 1.0)


def test_classify_inconclusive_between_interval_bounds():
    model = stable_like(3, alpha=(1.2, 1.5), gamma=1.0)
    rep = classify(model, 1.2)   # between d/alpha_hi - 1 = 1 and d/alpha_lo - 1 = 1.5
    assert rep.verdict == INCONCLUSIVE


def test_kappa_boundary_examples(bm3, stable_05_d1, stable_10_d3):
    assert kappa_boundary(bm3, tol=0.01) == pytest.approx(0.5, abs=0.02)
    assert kappa_boundary(stable_05_d1, tol=0.01) == pytest.approx(1.0, abs=0.02)
    assert kappa_boundary(stable_10_d3, tol=0.01) == pytest.approx(2.0, abs=0.02)
    # a tol below the float spacing ends once no float is left between ends
    assert kappa_boundary(bm3, tol=1e-300) == pytest.approx(0.5, abs=0.02)


def test_kappa_boundary_integral_only(bm3, stable_05_d1):
    got = kappa_boundary(bm3, tol=0.01, methods=("integral",))
    assert got == pytest.approx(0.5, abs=0.02)
    got = kappa_boundary(stable_05_d1, tol=0.01, methods=("integral",))
    assert got == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_classify_rejects_non_finite_kappa(stable_10_d3, kappa):
    with pytest.raises(ConfigurationError, match="kappa"):
        classify(stable_10_d3, kappa)


@pytest.mark.parametrize("model, kappa, verdict", [
    (isotropic_stable(3, 1.0), 200.0, WEAKLY_TRANSIENT),
    (isotropic_stable(3, 1.0, gamma=1e-200), 1.0, STRONGLY_TRANSIENT),
])
def test_closed_form_decides_when_integrands_overflow(model, kappa, verdict):
    # (sup|q|)^(kappa+1) is far outside the float range on the integral and
    # tail ladders; the log-space integral and tail tests decide along with
    # the closed-form rule, and no band is skipped
    rep = classify(model, kappa)
    assert rep.verdict == verdict
    assert rep.notes == ()
    methods = {r.method for r in rep.fired_rules if r.verdict != "info"}
    assert {"integral", "tail"} <= methods


@pytest.mark.parametrize("make, kappa_star", [
    *((lambda d=d: isotropic_stable(d, 0.3, gamma=1e300), d / 0.3 - 1.0)
      for d in (1, 2, 3, 5)),
    (lambda: stable_like(1, 0.5, gamma=1e298), 1.0),
], ids=["iso-d1", "iso-d2", "iso-d3", "iso-d5", "stable_like-d1"])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 4.0])
def test_a_t1_envelope_beyond_the_float_range_skips_the_tail_band(
        make, kappa_star, kappa):
    # T1 = rho^2 tm / 2 + T3 / 2 of a small-alpha stable density at a huge
    # scale is +inf on the tail ladder although tm and T3 are finite; the
    # tail band is skipped with a note, and the other bands decide on the
    # side of kappa* = d/alpha - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify(make(), kappa)
    assert rep.verdict == (STRONGLY_TRANSIENT if kappa < kappa_star
                           else WEAKLY_TRANSIENT)
    assert "tail tests not applicable: envelope leaves the float range on " \
        "the ladder" in rep.notes


@pytest.mark.parametrize("c", [1e307, 1.7e308])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_a_brownian_motion_at_a_huge_scale_classifies_without_warnings(d, c):
    # the symmetry facts come from the family record, so no symbol sample
    # 0.5 c |xi|^2 leaves the float range; kappa* = d/2 - 1
    model = brownian_drift(d, c=c)
    for kappa in (0.0, 0.9, 30.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = classify(model, kappa)
        assert rep.verdict == (STRONGLY_TRANSIENT if kappa < d / 2.0 - 1.0
                               else WEAKLY_TRANSIENT), kappa


@pytest.fixture(scope="module")
def power_jump_model():
    return radial_jump_model(power_density(3, 1.0, u0=1.0))


@pytest.mark.parametrize("kappa", [22.0, 60.0, 200.0])
def test_large_kappa_keeps_integral_and_tail_bands(power_jump_model, kappa):
    # (sup|q|)^(kappa+1) and T1^(kappa+1) leave the float range on these
    # ladders; the log-space tests still decide and nothing is skipped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify(power_jump_model, kappa)
    assert rep.verdict == WEAKLY_TRANSIENT
    assert rep.notes == ()
    methods = {r.method for r in rep.fired_rules if r.verdict == "weak"}
    assert {"integral", "tail"} <= methods


_WEAK = ("sup-envelope germ rho^beta (ln 1/rho)^p with beta(kappa+1) > d, "
         "or = d and p(kappa+1) <= 1: the weak-side integral diverges")
_STRONG = ("inf-envelope germ rho^beta (ln 1/rho)^p with beta(kappa+1) < d, "
           "or = d and p(kappa+1) > 1: the strong-side integral converges")


def _exact(d, kappa, beta, p, product):
    return {"d": d, "kappa": kappa, "beta": beta, "log_exponent": p,
            "product": product}


# one row per closed-form case: Brownian, isotropic stable, stable_like
# with a drift (alpha_lo capped at 1, or below 1) and without, finite_jump
# with alpha below, above and at 2 (where the germ gains a log), and a
# radial power tail
@pytest.mark.parametrize("make, kappa, rule", [
    (lambda: brownian_drift(3), 0.6,
     ("index-exact-weak", "weak", _WEAK, _exact(3, 0.6, 2.0, 0.0, 3.2))),
    (lambda: isotropic_stable(3, 1.0), 1.0,
     ("index-exact-strong", "strong", _STRONG, _exact(3, 1.0, 1.0, 0.0, 2.0))),
    (lambda: stable_like(2, 1.3, beta=[0.5, 0.0]), 0.0,
     ("index-exact-strong", "strong", _STRONG, _exact(2, 0.0, 1.3, 0.0, 1.3))),
    (lambda: stable_like(2, 1.3, beta=[0.5, 0.0]), 1.0,
     ("index-exact-weak", "weak", _WEAK, _exact(2, 1.0, 1.0, 0.0, 2.0))),
    (lambda: stable_like(2, (0.6, 0.9), beta=[0.5, 0.0]), 3.0,
     ("index-exact-weak", "weak", _WEAK, _exact(2, 3.0, 0.6, 0.0, 2.4))),
    (lambda: stable_like(3, (1.2, 1.5)), 1.6,
     ("index-exact-weak", "weak", _WEAK, _exact(3, 1.6, 1.2, 0.0, 3.12))),
    (lambda: finite_jump_model(2, 1.5), 0.5,
     ("index-exact-weak", "weak", _WEAK, _exact(2, 0.5, 1.5, 0.0, 2.25))),
    (lambda: finite_jump_model(3, (2.5, 3.0)), 0.2,
     ("index-exact-strong", "strong", _STRONG, _exact(3, 0.2, 2.0, 0.0, 2.4))),
    (lambda: finite_jump_model(3, 2.0), 1.0,
     ("index-exact-weak", "weak", _WEAK, _exact(3, 1.0, 2.0, 1.0, 4.0))),
    (lambda: radial_jump_model(power_density(3, alpha=0.5, u0=1.0)), 1.0,
     ("index-exact-strong", "strong", _STRONG, _exact(3, 1.0, 0.5, 0.0, 1.0))),
])
def test_closed_form_rule_records(make, kappa, rule):
    rep = classify(make(), kappa, methods=("closed_form",))
    rule_id, side, statement, detail = rule
    [rec] = rep.fired_rules
    assert (rec.rule_id, rec.verdict, rec.method, rec.statement) \
        == (rule_id, side, "closed_form", statement)
    assert rec.detail == pytest.approx(detail, rel=1e-12)


def test_kappa_boundary_no_boundary(bm3):
    with pytest.raises(ConfigurationError):
        kappa_boundary(bm3, lo=1.0, hi=8.0)   # weak on both ends


def test_verdict_monotone_in_kappa(bm3, stable_05_d1):
    for model in (bm3, stable_05_d1):
        seen_weak = False
        for kappa in np.linspace(0.0, 4.0, 17):
            verdict = classify(model, float(kappa)).verdict
            if seen_weak:
                assert verdict == WEAKLY_TRANSIENT
            seen_weak = seen_weak or verdict == WEAKLY_TRANSIENT
        assert seen_weak


def test_rescaling_leaves_verdicts_unchanged():
    base = isotropic_stable(2, 1.2, gamma=1.0)
    scaled = isotropic_stable(2, 1.2, gamma=3.0)
    for kappa in (0.3, 0.667, 1.5):
        assert classify(base, kappa).verdict == classify(scaled, kappa).verdict
    assert kappa_boundary(base, tol=0.01) == pytest.approx(
        kappa_boundary(scaled, tol=0.01), abs=0.02)


def test_report_provenance_and_serialization(bm3):
    rep = classify(bm3, 0.6)
    assert len(rep.fired_rules) >= 1
    payload = rep.to_json()
    assert set(payload) >= {"gate", "kappa", "verdict", "kappa_star", "rules",
                            "assumptions"}
    for rule in payload["rules"]:
        assert set(rule) >= {"id", "quote_ref", "verdict"}
    assert set(payload["assumptions"]) >= {
        "weak_test_hypothesis", "sector_constant", "perturbation_margin",
        "irreducible"}
    # exact round trip through JSON text
    assert json.loads(json.dumps(payload)) == payload


def test_conditional_marking_for_state_dependent_weak_verdict():
    lopsided = stable_like(1, alpha={"lo": 0.5, "hi": 0.9, "profile": "step"},
                           gamma=1.0)
    rep = classify(lopsided, 3.0)
    assert rep.verdict == WEAKLY_TRANSIENT
    assert any("weak-test hypothesis" in c for c in rep.conditional)

    asserted = stable_like(1, alpha={"lo": 0.5, "hi": 0.9, "profile": "step"},
                           gamma=1.0,
                           assumptions={"weak_test_hypothesis": True})
    rep = classify(asserted, 3.0)
    assert rep.verdict == WEAKLY_TRANSIENT
    assert not rep.conditional


def test_boundary_kappa_is_weak_for_brownian(bm3):
    # d = 2(kappa+1) sits on the weak side
    assert classify(bm3, 0.5).verdict == WEAKLY_TRANSIENT


def test_unknown_methods_are_rejected_naming_methods(bm3):
    with pytest.raises(ConfigurationError, match="methods"):
        classify(bm3, 0.2, methods=("closed_fom",))
    with pytest.raises(ConfigurationError, match="methods"):
        classify_verdict(bm3, 0.2, 1.0, ("closed_fom",), None)
    with pytest.raises(ConfigurationError, match="methods"):
        kappa_boundary(bm3, methods=("closed_fom",))
    # no band at all is a valid question with no evidence
    assert classify(bm3, 0.2, methods=()).verdict == INCONCLUSIVE
    assert classify_verdict(bm3, 0.2, 1.0, (), None) == INCONCLUSIVE


def test_classify_computes_only_premises_of_rules_that_can_fire(monkeypatch):
    # the radial_cold power model on a kappa grid across its band: the tail
    # band runs only the truncated-moment verdict, the index band reads the
    # stated germs and no envelope profile, and the second moment is
    # infinite, so the symbol is never tested for evenness
    from levy_transience import index_rules
    from levy_transience.symbols import ENV_INF_RE, ENV_SUP_ABS

    model = radial_jump_model(power_density(3, (0.8, 1.2), u0=1.0))
    kinds = []
    profile = index_rules.envelope_profile

    def spy(model, kind, rhos):
        kinds.append(kind)
        return profile(model, kind, rhos)

    def never(model):
        raise AssertionError("symbol_even_in_xi was called")

    monkeypatch.setattr(index_rules, "envelope_profile", spy)
    monkeypatch.setattr(index_rules, "symbol_even_in_xi", never)
    for kappa in (0.3, 0.8, 3.4, 4.1):
        classify(model, kappa)
    assert kinds == []
    # the memo of functional_envelope is keyed (fn, tag, which, radii): the
    # truncated-moment envelope is there, no tail-mass envelope is
    envelope = RadialLevyDensity.functional_envelope.__wrapped__
    tags = {key[1] for key in model.triplet.jump_density._cache
            if key[0] is envelope}
    assert "t3" in tags and "tm" not in tags
    # a model without stated germs fits its Pruitt indices to both
    # envelopes
    monkeypatch.undo()
    monkeypatch.setattr(index_rules, "envelope_profile", spy)
    custom = custom_model(3, lambda x, xi: np.linalg.norm(xi) ** 0.7,
                          x_independent=True)
    classify(custom, 0.3)
    assert set(kinds) == {ENV_SUP_ABS, ENV_INF_RE}


# stable_like with alpha and gamma both varying, as (d, alpha, gamma), and
# its verdicts at kappa 0, 0.3, 0.8, 1.5, 2.5, 4 and 6 (S strong, W weak, I
# inconclusive): the corner envelopes give the verdicts a sampled state grid
# gave
_JOINT = [
    ((1, (0.6, 1.4, "cos"), (0.5, 2.0, "cos")), "I I W W W W W"),
    ((2, (0.6, 1.4, "cos"), (0.5, 2.0, "sin")), "S S I I W W W"),
    ((3, (0.8, 1.2, "cos"), (1.0, 3.0, "step")), "S S S I I W W"),
    ((2, (0.5, 1.5, "sin"), (1.0, 2.0, "cos")), "S S I I I W W"),
]


@pytest.mark.parametrize("spec, verdicts", _JOINT)
def test_joint_stable_like_verdicts(spec, verdicts):
    d, alpha, gamma = spec
    model = stable_like(d, alpha, gamma=gamma)
    letter = {STRONGLY_TRANSIENT: "S", WEAKLY_TRANSIENT: "W",
              INCONCLUSIVE: "I"}
    assert " ".join(letter[classify(model, kappa).verdict]
                    for kappa in (0, 0.3, 0.8, 1.5, 2.5, 4, 6)) == verdicts


@pytest.mark.parametrize("spec", [spec for spec, _ in _JOINT])
def test_joint_stable_like_pruitt_indices_are_the_index_bounds(spec):
    # the corner envelopes scale as rho^alpha_lo and rho^alpha_hi exactly;
    # a sampled grid read 0.605 for alpha_lo = 0.6
    d, alpha, gamma = spec
    idx = pruitt_indices(stable_like(d, alpha, gamma=gamma))
    assert abs(idx.lower - alpha[0]) <= 1e-12
    assert abs(idx.upper - alpha[1]) <= 1e-12


@pytest.mark.parametrize("d, alpha, kappa", [
    (3, 1.99, 0.503), (3, 1.99, 0.504), (1, 0.99, 0.005), (1, 0.015, 100.0),
    (3, 0.01, 400.0)])
def test_rv_rules_read_the_exact_tail_index_near_a_case_boundary(d, alpha,
                                                                 kappa):
    # each index lies within 0.02 of -d-2, -2d or -d, but off it: the exact
    # rule reads it as stated, on the side of kappa* = d/alpha - 1
    report = classify(radial_jump_model(power_density(d, alpha)), kappa)
    want = WEAKLY_TRANSIENT if kappa > d / alpha - 1.0 else STRONGLY_TRANSIENT
    assert report.verdict == want
    side = "weak" if want == WEAKLY_TRANSIENT else "strong"
    assert [r.rule_id for r in report.fired_rules
            if r.method == "closed_form"] == [f"index-exact-{side}"]


@pytest.mark.parametrize("kappa, verdict, rule", [
    (0.0, STRONGLY_TRANSIENT, "index-exact-strong"),
    (0.5, WEAKLY_TRANSIENT, "index-exact-weak")])
def test_borderline_log_tail_takes_its_side_from_the_log(kappa, verdict,
                                                         rule):
    # n(u) = u^-2 (ln u)^2 in d = 1: index -2d, transient by the borderline
    # test, germ rho (ln 1/rho)^2. At kappa = 0, beta(kappa+1) = d and
    # p(kappa+1) = 2 > 1: strong (a rule "weak iff 2(kappa+1) > d" read weak)
    model = radial_jump_model(power_log_density(1, -2.0, 2.0))
    report = classify(model, kappa)
    assert report.verdict == verdict
    assert [r.rule_id for r in report.fired_rules
            if r.method == "closed_form"] == [rule]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.01, 0.99, 1.0, 1.01, 1.99])
def test_a_stable_radial_jump_model_is_the_isotropic_stable_process(d, alpha):
    # the same Levy process in two families: the same gate, the same verdict
    # on both sides of kappa* = d/alpha - 1, and the same boundary
    models = (radial_jump_model(stable_density(d, alpha)),
              isotropic_stable(d, alpha))
    gates = {transience_gate(m) for m in models}
    assert len(gates) == 1
    if d == 1 and alpha >= 1.0:
        assert gates == {GATE_RECURRENT}
    if gates != {GATE_TRANSIENT}:
        return
    star = d / alpha - 1.0
    for kappa in (0.9 * star, 1.1 * star):
        assert len({classify(m, kappa).verdict for m in models}) == 1
    a, b = (kappa_boundary(m, hi=max(8.0, 2.0 * star)) for m in models)
    assert a == pytest.approx(b, abs=0.02)


_ITEM_16 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 16: the integral band reads the integrand exponent from a "
    "pre-asymptotic ladder of the table"))


@pytest.mark.parametrize("d, knots, values, kappa, star", [
    pytest.param(1, [0.233, 16.62, 34.33], [1.0, 5.1e-6, 1.454e-6], 0.30,
                 0.370, id="index-lower-sufficient-d1"),
    pytest.param(2, [1.065, 36.21, 39.70], [1.0, 0.004575, 0.003374], 0.91,
                 0.528, id="shape-concave-inf-d2"),
    pytest.param(5, [0.497, 5.376, 9.694], [1.0, 3.381e-4, 5.609e-6], 1.69,
                 1.561, marks=_ITEM_16, id="cf-strong-integral-d5"),
])
def test_no_band_fires_on_the_wrong_side_of_a_table_kappa_star(
        d, knots, values, kappa, star):
    # kappa* = d/alpha - 1, with alpha from the stated tail slope; the
    # tables' knots lie far from 1, so the dyadic ladders stay
    # pre-asymptotic
    dens = table_density(d, knots, values)
    assert dens.variants[0].tail_slope == pytest.approx(
        -d - d / (star + 1.0), abs=2e-3)
    report = classify(radial_jump_model(dens), kappa)
    wrong = "weak" if kappa < star else "strong"
    assert report.verdict == (STRONGLY_TRANSIENT if wrong == "weak"
                              else WEAKLY_TRANSIENT)
    assert [r.rule_id for r in report.fired_rules if r.verdict == wrong] == []
