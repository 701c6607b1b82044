"""Guard on the options of the public API.

A defaulted parameter is an option. One that every caller leaves at its
default is a constant of the module that uses it, not a parameter: each
one left in doubles the configurations to test. So every defaulted
parameter of a public function, method or constructor that
`levy_transience` exports is listed below with the reason it stays.
"""

import inspect
import types

import levy_transience


# reason -> the defaulted parameters it covers, as function.parameter,
# Class.method.parameter or Class(field)
ALLOWED = {
    "model data: a coefficient, drift or assumption the caller "
    "describes": (
        *(f"{fn}.assumptions" for fn in (
            "brownian_drift", "finite_jump_model", "isotropic_stable",
            "radial_jump_model", "stable_like", "custom_model")),
        "SymbolModel(assumptions)",
        "brownian_drift.drift", "brownian_drift.c", "brownian_drift.C",
        "isotropic_stable.gamma", "stable_like.beta", "stable_like.gamma",
        "radial_jump_model.params", "custom_model.envelopes",
        "custom_model.x_independent",
    ),
    "density data: a scale, cutoff, shape or local change of the jump "
    "density": (
        "power_density.coeff", "power_density.u0",
        "power_log_density.coeff", "power_log_density.u_start",
        "stable_density.gamma", "table_density.u0",
        "modified_density.factor", "modified_density.replacement",
        "RadialLevyDensity(atoms)",
    ),
    "variants an interval parameter spreads over; tests use 2 and 9": (
        "power_density.n_variants", "stable_density.n_variants",
        "finite_range_density.n_variants",
    ),
    "data selector: the density variant or envelope side to read": (
        "integrated_tail.variant", "tail_mass.variant",
        "truncated_second_moment.variant",
        "RadialLevyDensity.support_lo.variant",
        "RadialLevyDensity.jump_symbol.variant",
        "RadialLevyDensity.envelope.which",
    ),
    "the question asked: dimension, ball radius, kappa range, precision "
    "or rule bands": (
        "classify.d", "classify.r", "classify.methods",
        "kappa_boundary.tol", "kappa_boundary.lo", "kappa_boundary.hi",
        "kappa_boundary.r", "kappa_boundary.methods", "transience_gate.r",
    ),
    "the integral-only gate is the reference the structural gate is "
    "tested against": ("transience_gate.use_structural",),
    "an input the caller has or not: an exact marginal probability": (
        "occupation_integral_estimate.probability_fn",
    ),
    "simulation input: which path and where it starts": (
        "simulate_stable_like_path.path_index", "simulate_stable_like_path.x0",
    ),
    "simulation settings the simulate command takes from its options": (
        "SimConfig(step)", "SimConfig(mode)",
    ),
    "simulation resolution tests set to another value (48 nodes per "
    "decade)": ("SimConfig(nodes_per_decade)",),
    "result records: fields a producer fills only in some cases": (
        "DivergenceVerdict(singularity)", "DivergenceVerdict(refined_state)",
        "DivergenceVerdict(notes)", "OccupationEstimate(notes)",
        "PruittIndices(window)", "PruittIndices(residual_lower)",
        "PruittIndices(residual_upper)", "TransienceReport(kappa_star)",
        "TransienceReport(conditional)", "TransienceReport(notes)",
    ),
}


def _defaulted(obj, label):
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return []
    return [label(p.name) for p in params if p.default is not p.empty]


def _public_defaulted_parameters():
    found = []
    for name in dir(levy_transience):
        obj = getattr(levy_transience, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType) \
                or not callable(obj):
            continue
        if not inspect.isclass(obj):
            found += _defaulted(obj, lambda p: f"{name}.{p}")
            continue
        found += _defaulted(obj, lambda p: f"{name}({p})")
        for attr, value in vars(obj).items():
            fn = getattr(value, "__func__", value)   # static/class methods
            if not attr.startswith("_") and inspect.isfunction(fn):
                found += _defaulted(fn, lambda p: f"{name}.{attr}.{p}")
    return found


def test_every_defaulted_parameter_has_a_reason():
    allowed = [entry for entries in ALLOWED.values() for entry in entries]
    assert len(allowed) == len(set(allowed))
    found = _public_defaulted_parameters()
    assert sorted(set(found) - set(allowed)) == [], \
        "new defaulted parameters: give each a reason here or make it a " \
        "constant"
    assert sorted(set(allowed) - set(found)) == [], \
        "allowlisted parameters that no longer exist"
