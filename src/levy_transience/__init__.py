"""Transience classification of Levy-type processes.

Decides, from a process family's symbol and jump measure, whether the
process is kappa-weakly or kappa-strongly transient: integral tests over
small frequencies, scaling-index rules, jump-tail criteria, a rule-engine
classifier with boundary search, and Monte Carlo validation of the analytic
verdicts via occupation integrals.
"""

__version__ = "0.1.0"

from .densities import (
    RadialLevyDensity,
    finite_range_density,
    modified_density,
    power_density,
    power_log_density,
    stable_density,
    table_density,
)
from .symbols import (
    SymbolModel,
    brownian_drift,
    custom_model,
    eval_symbol,
    finite_jump_model,
    isotropic_stable,
    load_model,
    model_from_config,
    radial_jump_model,
    sector_check,
    stable_like,
    symmetry_check,
)
from .verdicts import CONVERGES, DIVERGES, INCONCLUSIVE, DivergenceVerdict
from .cf_integrals import (
    strong_integral_kappa,
    weak_integral_kappa,
)
from .index_rules import (
    PruittIndices,
    index_bound_rules,
    index_exact_rules,
    moment_rules,
    pruitt_indices,
    shape_diagnostic,
)
from .levy_tails import (
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
from .classifier import (
    TransienceReport,
    classify,
    kappa_boundary,
    transience_gate,
)
from .montecarlo import (
    OccupationEstimate,
    SimConfig,
    ecf_check,
    occupation_integral_estimate,
    sample_levy_marginal,
    simulate_stable_like_path,
)
