"""Levy-type process families: symbol evaluation and state envelopes.

A model couples a Levy triplet (drift b(x), diffusion C(x), jump measure
nu(x, dy)) with evaluators for the symbol

    q(x, xi) = -i<xi, b(x)> + 0.5 <xi, C(x) xi>
               + int (1 - e^{i<xi,y>} + i<xi,y> 1_{B(0,1)}(y)) nu(x, dy)

and for the three envelopes every downstream test consumes:
sup_x |q(x, xi)|, inf_x Re q(x, xi) and sup_x |Im q(x, xi)|.
Built-in jump kernels are radial, so their compensated drift term vanishes
and the jump part reduces to a one-dimensional integral.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .densities import (
    RadialLevyDensity,
    finite_range_density,
    power_density,
    power_log_density,
    stable_density,
    table_density,
)
from .errors import (
    ConfigurationError,
    DegenerateModelError,
    ModelInvariantError,
    NonPowerTailError,
)
from .levy_tails import borderline_index_test, rv_classify, rv_index_fit
from .verdicts import CONVERGES, model_memo

ENV_SUP_ABS = "sup_abs"
ENV_INF_RE = "inf_re"
ENV_SUP_ABS_IM = "sup_abs_im"

ENVELOPE_MODES = ("closed_form", "grid_sampled")


# ---------------------------------------------------------------------------
# Scalar coefficient fields x -> value.
# ---------------------------------------------------------------------------

#: profile name -> weight in [0, 1] of the first state coordinate
_PROFILES = {"cos": lambda x1: 0.5 * (1.0 + np.cos(x1)),
             "sin": lambda x1: 0.5 * (1.0 + np.sin(x1)),
             "step": lambda x1: (x1 > 0).astype(float)}


@dataclass(frozen=True)
class ScalarField:
    """State-dependent scalar coefficient with known exact bounds.

    lo + (hi - lo) w(x1), for a bounded smooth (or step) profile w of the
    first coordinate with values in [0, 1], so sup/inf over all states are
    exactly `hi`/`lo`. A constant is a field with lo == hi.
    """

    lo: float
    hi: float
    profile: str = "cos"

    def __post_init__(self):
        lo, hi = self.bounds
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError(
                f"field bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ConfigurationError(f"interval has lo {lo} > hi {hi}")
        if self.profile not in _PROFILES:
            raise ConfigurationError(f"unknown field profile {self.profile!r}")

    @staticmethod
    def make(spec):
        if isinstance(spec, ScalarField):
            return spec
        if isinstance(spec, (int, float)):
            return ScalarField(float(spec), float(spec))
        if isinstance(spec, dict):
            return ScalarField(float(spec["lo"]), float(spec["hi"]),
                               spec.get("profile", "cos"))
        if isinstance(spec, (tuple, list)) and len(spec) in (2, 3):
            return ScalarField(float(spec[0]), float(spec[1]), *spec[2:])
        raise ConfigurationError(f"cannot interpret scalar field spec {spec!r}")

    @property
    def bounds(self):
        return (self.lo, self.hi)

    @property
    def is_constant(self):
        return self.lo == self.hi

    def __call__(self, X):
        x1 = np.asarray(X, dtype=float)[..., 0]
        if self.lo == self.hi:
            return np.full_like(x1, self.lo)
        return self.lo + (self.hi - self.lo) * _PROFILES[self.profile](x1)


@dataclass(frozen=True)
class StateGrid:
    """Sampling box for grid-based envelopes: [lo, hi]^d, m points per axis."""

    box: tuple = (-10.0, 10.0)
    points_per_axis: int = 21

    def points(self, d):
        m = self.points_per_axis
        if m < 1:
            raise ConfigurationError("state grid needs at least one point per axis")
        # cap the product grid so high-dimensional boxes stay tractable
        while m > 1 and m ** d > 200_000:
            m -= 2
        axis = np.linspace(self.box[0], self.box[1], m)
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)


@dataclass(frozen=True)
class LevyTriplet:
    """Drift, diffusion and jump data of a model.

    diffusion is either a ScalarField c(x) (meaning C(x) = c(x) I) or a
    constant symmetric PSD matrix.
    """

    d: int
    drift: np.ndarray | None = None
    diffusion_field: ScalarField | None = None
    diffusion_matrix: np.ndarray | None = None
    jump_density: RadialLevyDensity | None = None

    def __post_init__(self):
        if self.diffusion_matrix is not None:
            C = np.asarray(self.diffusion_matrix, dtype=float)
            if C.shape != (self.d, self.d):
                raise ModelInvariantError("diffusion matrix has wrong shape")
            if not np.allclose(C, C.T, atol=1e-12):
                raise ModelInvariantError("diffusion matrix must be symmetric")
            if np.min(np.linalg.eigvalsh(C)) < -1e-12:
                raise ModelInvariantError("diffusion matrix must be PSD")
        if self.diffusion_field is not None:
            if self.diffusion_field.bounds[0] < 0:
                raise ModelInvariantError("diffusion coefficient must be >= 0")

    @property
    def diffusion_bounds(self):
        """(inf, sup) over states of the eigenvalues of C(x)."""
        if self.diffusion_matrix is not None:
            ev = np.linalg.eigvalsh(self.diffusion_matrix)
            return float(ev.min()), float(ev.max())
        if self.diffusion_field is not None:
            return self.diffusion_field.bounds
        return 0.0, 0.0

    def diffusion_quadratic(self, X, xi):
        """0.5 <xi, C(x) xi> for a batch of states X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.diffusion_matrix is not None:
            val = 0.5 * float(xi @ self.diffusion_matrix @ xi)
            return np.full(X.shape[0], val)
        if self.diffusion_field is not None:
            return 0.5 * self.diffusion_field(X) * float(xi @ xi)
        return np.zeros(X.shape[0])


# ---------------------------------------------------------------------------
# The model.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolModel:
    family: str
    d: int
    triplet: LevyTriplet
    params: dict
    envelope_mode: str = "closed_form"   # or "grid_sampled"
    state_grid: StateGrid = StateGrid()
    assumptions: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if self.envelope_mode not in ENVELOPE_MODES:
            raise ConfigurationError(f"unknown envelope mode {self.envelope_mode!r}")
        probe = max(abs(eval_symbol(self, None, 0.7 * _unit(self.d))),
                    abs(eval_symbol(self, None, 1.3 * _unit(self.d))))
        if probe == 0.0:
            raise DegenerateModelError("symbol vanishes identically")

    # -- convenience accessors ----------------------------------------------

    @property
    def is_state_independent(self):
        return FAMILIES[self.family].state_independent(self)

    @property
    def drift_vector(self):
        b = self.triplet.drift
        return None if b is None or not np.any(b) else b

    def state_points(self):
        return self.state_grid.points(self.d)


def _unit(d):
    e = np.zeros(d)
    e[0] = 1.0
    return e


def _as_xi(xi, d):
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.size == 1 and d == 1:
        return xi
    if xi.size != d:
        raise ConfigurationError(f"frequency vector has size {xi.size}, expected {d}")
    return xi


# ---------------------------------------------------------------------------
# Symbol evaluation.
# ---------------------------------------------------------------------------

def eval_symbol(model: SymbolModel, x, xi) -> complex:
    """q(x, xi). For state-independent families x may be None."""
    xi = _as_xi(xi, model.d)
    if not np.any(xi):
        return 0j
    if x is None:
        X = np.zeros((1, model.d))
    else:
        X = np.atleast_2d(np.asarray(x, dtype=float))
    return complex(eval_symbol_batch(model, X, xi)[0])


def eval_symbol_batch(model: SymbolModel, X, xi) -> np.ndarray:
    """q(x, xi) for a batch of states X with shape (n, d)."""
    xi = _as_xi(xi, model.d)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.any(xi):
        return np.zeros(X.shape[0], dtype=complex)
    return FAMILIES[model.family].symbol(model, X, xi[None, :])[:, 0]


def _norms(XI):
    """|xi| of each row as a Python float, one row at a time as for a single
    frequency (numpy's batched norm rounds differently in the last bit)."""
    return [float(np.linalg.norm(xi)) for xi in XI]


def _variant_for_state(model, x):
    """Density variant at state x, or at each state of a batch x (n, d): the
    one whose alpha is nearest alpha(x). None when a state-dependent density
    has no alpha field tying its variants to states; then only the envelope
    over all variants is defined."""
    dens = model.triplet.jump_density
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if dens.x_independent or len(dens.variants) == 1:
        idx = np.zeros(X.shape[0], dtype=int)
    else:
        alpha = model.params.get("alpha")
        if not isinstance(alpha, ScalarField) or alpha.is_constant:
            return None
        alphas = np.asarray([v.alpha for v in dens.variants])
        idx = np.argmin(np.abs(alphas[None, :] - alpha(X)[:, None]), axis=1)
    return idx if np.ndim(x) == 2 else int(idx[0])


# ---------------------------------------------------------------------------
# Envelopes.
# ---------------------------------------------------------------------------

def _envelope(model, kind, xi):
    """The `kind` envelope at one frequency xi: sup over states of |q|
    (ENV_SUP_ABS) or |Im q| (ENV_SUP_ABS_IM), or inf of Re q (ENV_INF_RE)."""
    return float(_envelopes(model, kind, _as_xi(xi, model.d)[None, :])[0])


def _envelopes(model, kind, XI):
    """The `kind` envelope at each frequency row of XI (0 at xi = 0)."""
    out = np.zeros(XI.shape[0])
    nonzero = np.any(XI != 0.0, axis=1)
    if np.any(nonzero):
        val = None
        if model.envelope_mode == "closed_form":
            val = FAMILIES[model.family].closed_envelope(model, kind,
                                                         XI[nonzero])
        out[nonzero] = _grid_envelope(model, kind, XI[nonzero]) \
            if val is None else val
    return out


#: states x frequencies per block of a grid envelope (1 MB of complex q)
_GRID_BLOCK = 1 << 16


def _grid_envelope(model, kind, XI):
    family = FAMILIES[model.family]
    X = family.states(model)
    if X is None:
        return family.closed_envelope(model, kind, XI)
    if X.size == 0:
        raise ConfigurationError("empty state grid")
    reduce = {ENV_SUP_ABS: lambda q: np.max(np.abs(q), axis=0),
              ENV_INF_RE: lambda q: np.min(q.real, axis=0),
              ENV_SUP_ABS_IM: lambda q: np.max(np.abs(q.imag), axis=0)}[kind]
    step = max(1, _GRID_BLOCK // X.shape[0])
    return np.concatenate([reduce(family.symbol(model, X, XI[j:j + step]))
                           for j in range(0, XI.shape[0], step)])


def direction_set(d, n):
    """Deterministic, reasonably uniform set of unit directions."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    gen = np.random.Generator(np.random.Philox(key=[0x9E3779B97F4A7C15, d]))
    raw = gen.standard_normal((n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def envelope_is_radial(model: SymbolModel, kind) -> bool:
    """Whether the envelope, as a function of xi, is rotation invariant."""
    return FAMILIES[model.family].radial(model, kind)


def _matrix_isotropic(C):
    C = np.asarray(C, dtype=float)
    return np.allclose(C, C[0, 0] * np.eye(C.shape[0]), atol=1e-12)


def _numeric_radial(model, kind):
    gen = np.random.Generator(np.random.Philox(key=[0xA5A5A5A5, model.d]))
    for rho in (0.25, 1.0, 3.0):
        base = _envelope(model, kind, rho * _unit(model.d))
        for _ in range(6):
            O = _random_rotation(model.d, gen)
            val = _envelope(model, kind, rho * (O @ _unit(model.d)))
            if abs(val - base) > 1e-6 * (1.0 + abs(base)):
                return False
    return True


def _random_rotation(d, gen):
    if d == 1:
        return np.array([[-1.0]])
    M = gen.standard_normal((d, d))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diag(R))


def envelope_profile(model: SymbolModel, kind, rhos, reduce="min",
                     n_directions=16) -> np.ndarray:
    """Envelope values along radii, reduced over directions.

    For radial envelopes a single direction suffices; otherwise the envelope
    is evaluated along a deterministic direction set and reduced with min or
    max per radius. All radii and directions are one batch of frequencies.
    """
    rhos = np.asarray(rhos, dtype=float)
    if envelope_is_radial(model, kind):
        dirs = _unit(model.d)[None, :]
    else:
        dirs = direction_set(model.d, n_directions)
    XI = (dirs[:, None, :] * rhos[None, :, None]).reshape(-1, model.d)
    vals = _envelopes(model, kind, XI).reshape(dirs.shape[0], rhos.size)
    return vals.min(axis=0) if reduce == "min" else vals.max(axis=0)


# ---------------------------------------------------------------------------
# Structural checks.
# ---------------------------------------------------------------------------

@model_memo
def sector_check(model: SymbolModel, c: float):
    """Check sup|Im q| <= c * inf Re q on a frequency grid.

    Returns (ok, witness): witness is a violating xi when ok is False.
    """
    if not 0.0 <= c < 1.0:
        raise ConfigurationError(f"sector constant must lie in [0,1), got {c}")
    radii = 2.0 ** np.arange(-10, 4).astype(float)
    dirs = direction_set(model.d, 16)
    XI = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, model.d)
    im = _envelopes(model, ENV_SUP_ABS_IM, XI)
    re = _envelopes(model, ENV_INF_RE, XI)
    bad = np.flatnonzero(im > c * re + 1e-12 * (1.0 + re))
    return (True, None) if bad.size == 0 else (False, XI[bad[0]])


@model_memo
def symmetry_check(model: SymbolModel) -> bool:
    """Sampled check of q(x, xi) = q(-x, -xi)."""
    gen = np.random.Generator(np.random.Philox(key=[0xC0FFEE, model.d]))
    lo, hi = model.state_grid.box
    for _ in range(24):
        x = gen.uniform(lo, hi, size=model.d)
        xi = gen.standard_normal(model.d) * gen.choice([0.1, 1.0, 3.0])
        a = eval_symbol(model, x, xi)
        b = eval_symbol(model, -x, -xi)
        if abs(a - b) > 1e-8 * (1.0 + abs(a)):
            return False
    return True


@model_memo
def symbol_even_in_xi(model: SymbolModel) -> bool:
    """Sampled check of q(x, xi) = q(x, -xi) (zero drift, symmetric jumps)."""
    gen = np.random.Generator(np.random.Philox(key=[0xBEEF, model.d]))
    lo, hi = model.state_grid.box
    for _ in range(16):
        x = gen.uniform(lo, hi, size=model.d)
        xi = gen.standard_normal(model.d)
        if abs(eval_symbol(model, x, xi) - eval_symbol(model, x, -xi)) > 1e-8:
            return False
    return True


# ---------------------------------------------------------------------------
# Family records: what the package knows about each family.
# ---------------------------------------------------------------------------

GATE_TRANSIENT = "transient"
GATE_RECURRENT = "recurrent"
GATE_UNKNOWN = "unknown"


class _Family:
    """What the package knows about one family. A slot the family lacks is
    None or returns nothing; the defaults serve a radial jump density."""

    # open-set irreducibility when a model does not assert it: established
    # in the literature for the built-in families
    irreducible = True
    # sample(model, t, gen, n): n exact draws of X_t - t b, started at 0;
    # step_fields(model): the Euler step kind and its fields;
    # parse(d, param, **common): the model of a JSON `parameters` object,
    # read through param(key, convert, default)
    sample = step_fields = parse = None

    # q(x, xi) at states X (n, d) and nonzero frequencies XI (m, d), as an
    # (n, m) array: the real part and the drift term
    def symbol(self, model, X, XI):
        re = self.real_part(model, X, XI, _norms(XI))
        im = np.zeros(XI.shape[0])
        if model.triplet.drift is not None:
            im = -np.asarray([float(xi @ model.triplet.drift) for xi in XI])
        return re + 1j * im[None, :]

    # Re q(x, xi) at states X (n, d) and frequencies XI (m, d) of norms rho,
    # as an (n, m) array: the jump-symbol ladders of the variants in use,
    # stacked
    def real_part(self, model, X, XI, rho):
        dens = model.triplet.jump_density
        idx = _variant_for_state(model, X)
        if idx is None:
            idx = np.zeros(X.shape[0], dtype=int)   # pointwise: first variant
        used, where = np.unique(idx, return_inverse=True)
        return dens.jump_symbol(rho, used)[where]

    # closed-form (inf, sup) over states of Re q at each frequency, or None
    def envelope(self, model, XI, rho):
        vals = model.triplet.jump_density.jump_symbols(rho)
        return np.min(vals, axis=0), np.max(vals, axis=0)

    # the `kind` envelope at each nonzero frequency row of XI, or None when
    # the family has no closed form. Scalar terms are Python floats per
    # frequency, as for a single one (numpy rounds vector powers and hypot
    # differently)
    def closed_envelope(self, model, kind, XI):
        drift = model.triplet.drift
        drift_term = [abs(float(xi @ drift)) if drift is not None else 0.0
                      for xi in XI]
        if kind == ENV_SUP_ABS_IM:
            return np.asarray(drift_term)   # b constant: sup|Im q| = |<xi, b>|
        bounds = self.envelope(model, XI, _norms(XI))
        if bounds is None:
            return None
        lo, hi = bounds
        if kind == ENV_INF_RE:
            return np.asarray(lo, dtype=float)
        return np.asarray([math.hypot(t, h) for t, h in zip(drift_term, hi)])

    # the states a grid envelope samples, or None when sampling states
    # cannot see the state dependence (then the envelope is the closed one)
    def states(self, model):
        return model.state_points()

    # whether the `kind` envelope is rotation invariant in xi
    def radial(self, model, kind):
        C = model.triplet.diffusion_matrix
        iso = C is None or _matrix_isotropic(C)
        return iso and (kind == ENV_INF_RE or model.drift_vector is None
                        or model.d == 1)

    # whether q(x, xi) does not depend on x
    def state_independent(self, model):
        dens = model.triplet.jump_density
        fields = (model.params.get("alpha"), model.params.get("gamma"),
                  model.triplet.diffusion_field)
        return (dens is None or dens.x_independent) and all(
            f.is_constant for f in fields if isinstance(f, ScalarField))

    # the structural transience gate, or None
    def gate(self, model):
        return None

    # the closed-form rules that fire, as (side, rule_id, statement, detail)
    def rules(self, model, d, kappa):
        return ()


class _BrownianDrift(_Family):
    def real_part(self, model, X, XI, rho):
        return np.stack([model.triplet.diffusion_quadratic(X, xi)
                         for xi in XI], axis=1)

    def envelope(self, model, XI, rho):
        C = model.triplet.diffusion_matrix
        if C is not None:
            lo = [0.5 * float(xi @ C @ xi) for xi in XI]
            return lo, lo
        c_lo, c_hi = model.triplet.diffusion_bounds
        return ([0.5 * c_lo * r ** 2 for r in rho],
                [0.5 * c_hi * r ** 2 for r in rho])

    def gate(self, model):
        if model.drift_vector is None \
                and model.triplet.diffusion_bounds[0] > 0:
            return GATE_TRANSIENT if model.d >= 3 else GATE_RECURRENT
        return None

    def rules(self, model, d, kappa):
        if model.drift_vector is None \
                and model.triplet.diffusion_bounds[0] > 0:
            weak = d <= 2.0 * (kappa + 1.0)
            yield ("weak" if weak else "strong", "elliptic-moment-rule",
                   "driftless uniformly elliptic diffusion: weakly "
                   "transient iff d <= 2(kappa+1)",
                   {"d": d, "kappa": kappa, "threshold": 2.0 * (kappa + 1.0)})

    def sample(self, model, t, gen, n):
        C = model.triplet.diffusion_matrix
        L = _diffusion_factor(C) if C is not None else math.sqrt(
            model.triplet.diffusion_bounds[0]) * np.eye(model.d)
        return math.sqrt(t) * gen.standard_normal((n, model.d)) @ L.T

    def step_fields(self, model):
        C = model.triplet.diffusion_matrix
        if C is not None:
            return ("brownian_matrix", _diffusion_factor(C))
        return ("brownian", model.triplet.diffusion_field)

    def parse(self, d, param, **common):
        return brownian_drift(d, drift=param("b", _floats(d), None),
                              c=param("c", ScalarField.make, 1.0),
                              C=param("C", _floats(d, d), None), **common)


class _StableLike(_Family):
    def real_part(self, model, X, XI, rho):
        p = model.params
        return np.stack([p["gamma"](X) * r ** p["alpha"](X) for r in rho],
                        axis=1)

    def envelope(self, model, XI, rho):
        alpha, gamma = model.params["alpha"], model.params["gamma"]
        if not (alpha.is_constant or gamma.is_constant):
            return None   # joint variation: fall back to the state grid
        (a_lo, a_hi), (g_lo, g_hi) = alpha.bounds, gamma.bounds
        return ([g_lo * min(r ** a_lo, r ** a_hi) for r in rho],
                [g_hi * max(r ** a_lo, r ** a_hi) for r in rho])

    def gate(self, model):
        a_lo, a_hi = model.params["alpha"].bounds
        if model.d >= 2 or a_hi < 1.0:
            return GATE_TRANSIENT
        if model.drift_vector is None and a_lo >= 1.0:
            return GATE_RECURRENT
        return None

    def rules(self, model, d, kappa):
        a_lo, a_hi = model.params["alpha"].bounds
        has_drift = model.drift_vector is not None
        if not has_drift and a_lo == a_hi:
            weak = d <= a_lo * (kappa + 1.0)
            yield ("weak" if weak else "strong", "stable-scaling-rule",
                   "rotation-invariant stable scaling: weakly transient "
                   "iff d/(kappa+1) <= alpha",
                   {"d": d, "kappa": kappa, "alpha": a_lo})
            return
        if has_drift and a_lo < 1.0 and d <= (kappa + 1.0) * a_lo:
            yield ("weak", "stable-like-drift-low",
                   "drifted, lower index < 1: d <= (kappa+1)*alpha_lo "
                   "gives the weak side", {"alpha_lo": a_lo})
        if has_drift and a_lo >= 1.0 and d <= (kappa + 1.0):
            yield ("weak", "stable-like-drift-unit",
                   "drifted, lower index >= 1: d <= kappa+1 gives the "
                   "weak side", {})
        if not has_drift and d <= (kappa + 1.0) * a_lo:
            yield ("weak", "stable-like-driftless",
                   "driftless: d <= (kappa+1)*alpha_lo gives the weak side",
                   {"alpha_lo": a_lo})
        if d > (kappa + 1.0) * a_hi:
            yield ("strong", "stable-like-strong",
                   "d > (kappa+1)*alpha_hi gives the strong side",
                   {"alpha_hi": a_hi})

    def sample(self, model, t, gen, n):
        alpha, gamma = (model.params[k].bounds[0] for k in ("alpha", "gamma"))
        scale = (t * gamma) ** (2.0 / alpha)
        # a positive-stable subordinated Gaussian, exp(-t gamma |xi|^alpha)
        s = scale * _positive_stable(0.5 * alpha, gen, n)
        z = gen.standard_normal((n, model.d))
        return np.sqrt(2.0 * s)[:, None] * z

    def step_fields(self, model):
        return ("stable", model.params["alpha"], model.params["gamma"])

    def parse(self, d, param, **common):
        beta = param("beta", _floats(d), None)
        if beta is not None and not np.any(beta):
            beta = None
        return stable_like(d, alpha=param("alpha", ScalarField.make),
                           beta=beta,
                           gamma=param("gamma", ScalarField.make, 1.0),
                           **common)


def _rv_index(dens, d):
    """(index, borderline) of a state-independent density: the fitted
    regular-variation index snapped onto a case boundary within 0.02 (None
    when no power-law tail index exists) and, at index -2d in dimension
    <= 2, whether the borderline integral test converges (else None)."""
    if not dens.x_independent:
        return None, None
    try:
        delta = rv_index_fit(dens)
    except (NonPowerTailError, ConfigurationError):
        return None, None
    for boundary in (-float(d), -float(d) - 2.0, -2.0 * float(d)):
        if abs(delta - boundary) <= 0.02:
            delta = boundary
            break
    borderline = None
    if delta == -2.0 * d and d <= 2:
        borderline = borderline_index_test(dens).decided_state == CONVERGES
    return delta, borderline


class _RadialJump(_Family):
    def states(self, model):
        # variants not tied to states: the sup/inf over states is the one
        # over all variants
        X = model.state_points()
        return None if _variant_for_state(model, X) is None else X

    def gate(self, model):
        d = model.d
        delta, borderline = _rv_index(model.triplet.jump_density, d)
        if delta is None:
            return None
        if d >= 3 or -2.0 * d < delta <= -float(d):
            return GATE_TRANSIENT
        if delta == -2.0 * d:
            return GATE_TRANSIENT if borderline else GATE_RECURRENT
        return GATE_RECURRENT

    def rules(self, model, d, kappa):
        delta, borderline = _rv_index(model.triplet.jump_density, d)
        if delta is None:
            return
        cls = rv_classify(d, delta, kappa, borderline_converges=borderline)
        if cls.transient and cls.weakly_transient is not None:
            yield ("weak" if cls.weakly_transient else "strong",
                   f"rv-case-{cls.case}", cls.statement,
                   {"index": delta, "kappa": kappa})

    def parse(self, d, param, **common):
        return radial_jump_model(density_from_spec(d, param("density", dict)),
                                 **common)


class _FiniteJump(_Family):
    def gate(self, model):
        a_hi = model.params["alpha"].bounds[1]
        return GATE_TRANSIENT if model.d >= 3 or a_hi < model.d else None

    def rules(self, model, d, kappa):
        a_lo, a_hi = model.params["alpha"].bounds
        if a_hi < 2.0:
            weak = a_lo * (kappa + 1.0) >= d
            strong = a_hi * (kappa + 1.0) < d
            case = "tail index below 2"
        elif a_lo > 2.0:
            weak = 2.0 * (kappa + 1.0) >= d
            strong = 2.0 * (kappa + 1.0) < d
            case = "tail index above 2 (finite second moment)"
        elif a_lo == a_hi == 2.0:
            weak = 2.0 * (kappa + 1.0) > d
            strong = 2.0 * (kappa + 1.0) <= d
            case = "tail index exactly 2"
        else:
            return
        for side, fired in (("weak", weak), ("strong", strong)):
            if fired:
                yield (side, "bounded-jump-rule",
                       f"unit-mass power jump kernel, {case}: {side} side",
                       {"alpha_lo": a_lo, "alpha_hi": a_hi})

    def parse(self, d, param, **common):
        return finite_jump_model(d, alpha=param("alpha", ScalarField.make),
                                 **common)


class _Custom(_Family):
    irreducible = False   # a custom model must assert it

    def symbol(self, model, X, XI):
        fn = model.params["eval_fn"]
        return np.asarray([[complex(fn(xrow, xi)) for xi in XI] for xrow in X])

    def closed_envelope(self, model, kind, XI):
        fn = (model.params.get("envelopes") or {}).get(kind)
        return None if fn is None else np.asarray([float(fn(xi)) for xi in XI])

    def states(self, model):
        if "x_samples" not in model.params:
            return model.state_points()
        return np.atleast_2d(np.asarray(model.params["x_samples"],
                                        dtype=float))

    def radial(self, model, kind):
        return _numeric_radial(model, kind)   # sampled over rotations

    def state_independent(self, model):
        return bool(model.params.get("x_independent", False))


FAMILIES = {"brownian_drift": _BrownianDrift(), "stable_like": _StableLike(),
            "radial_jump": _RadialJump(), "finite_jump": _FiniteJump(),
            "custom": _Custom()}


def _kanter_angles(u, w):
    """In place, the alpha-free half of the Kanter (1975) sampler: uniforms
    u become angles pi * u in (0, pi), exponentials w are floored."""
    np.multiply(np.clip(u, 1e-12, 1.0 - 1e-12, out=u), np.pi, out=u)
    return u, np.maximum(w, 1e-300, out=w)


def _kanter(a, th, w):
    """One-sided stable variates with Laplace transform exp(-lambda^a),
    0 < a < 1, from the angles th and exponentials w of _kanter_angles."""
    b = 1.0 - a
    return (np.sin(a * th) / np.sin(th) ** (1.0 / a)
            * (np.sin(b * th) / w) ** (b / a))


def _positive_stable(alpha_half, gen, n):
    # the uniforms are drawn before the exponentials
    return _kanter(alpha_half, *_kanter_angles(gen.random(n),
                                               gen.standard_exponential(n)))


def _diffusion_factor(C):
    """L L^T = C: Cholesky, or for a singular C the eigh root clipped at 0."""
    try:
        return np.linalg.cholesky(C + 1e-300 * np.eye(len(C)))
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(C)
        return V * np.sqrt(np.clip(lam, 0.0, None))


# ---------------------------------------------------------------------------
# Family constructors.
# ---------------------------------------------------------------------------

def brownian_drift(d, drift=None, c=1.0, C=None, envelope_mode="closed_form",
                   state_grid=StateGrid(), assumptions=None):
    b = None if drift is None else np.asarray(drift, dtype=float).reshape(d)
    if C is not None:
        triplet = LevyTriplet(d=d, drift=b,
                              diffusion_matrix=np.asarray(C, dtype=float))
    else:
        triplet = LevyTriplet(d=d, drift=b,
                              diffusion_field=ScalarField.make(c))
    return SymbolModel(family="brownian_drift", d=d, triplet=triplet,
                       params={}, envelope_mode=envelope_mode,
                       state_grid=state_grid, assumptions=assumptions or {})


def isotropic_stable(d, alpha, gamma=1.0, envelope_mode="closed_form",
                     state_grid=StateGrid(), assumptions=None):
    """Rotation-invariant alpha-stable process: the stable_like model with
    constant alpha and gamma and no drift."""
    if not (0.0 < alpha < 2.0):
        raise ModelInvariantError(f"stable index must lie in (0,2), got {alpha}")
    if gamma <= 0:
        raise ModelInvariantError(f"stable scale must be positive, got {gamma}")
    return stable_like(d, float(alpha), gamma=float(gamma),
                       envelope_mode=envelope_mode, state_grid=state_grid,
                       assumptions=assumptions)


def stable_like(d, alpha, beta=None, gamma=1.0, envelope_mode="closed_form",
                state_grid=StateGrid(), assumptions=None):
    af = ScalarField.make(alpha)
    gf = ScalarField.make(gamma)
    a_lo, a_hi = af.bounds
    if not (0.0 < a_lo <= a_hi < 2.0):
        raise ModelInvariantError(
            f"stable-like index range must lie in (0,2), got [{a_lo}, {a_hi}]")
    if gf.bounds[0] <= 0:
        raise ModelInvariantError("stable-like scale must be bounded away from 0")
    b = None if beta is None else np.asarray(beta, dtype=float).reshape(d)
    dens = stable_density(d, af.bounds if not af.is_constant else a_lo,
                          gf.bounds if not gf.is_constant else gf.bounds[0])
    triplet = LevyTriplet(d=d, drift=b, jump_density=dens)
    params = {"alpha": af, "gamma": gf}
    return SymbolModel(family="stable_like", d=d, triplet=triplet,
                       params=params, envelope_mode=envelope_mode,
                       state_grid=state_grid, assumptions=assumptions or {})


def radial_jump_model(density: RadialLevyDensity, envelope_mode="closed_form",
                      params=None, state_grid=StateGrid(), assumptions=None):
    triplet = LevyTriplet(d=density.d, jump_density=density)
    return SymbolModel(family="radial_jump", d=density.d, triplet=triplet,
                       params=params or {}, envelope_mode=envelope_mode,
                       state_grid=state_grid, assumptions=assumptions or {})


def finite_jump_model(d, alpha, envelope_mode="closed_form",
                      state_grid=StateGrid(), assumptions=None):
    af = ScalarField.make(alpha)
    dens = finite_range_density(
        d, af.bounds if not af.is_constant else af.bounds[0])
    triplet = LevyTriplet(d=d, jump_density=dens)
    return SymbolModel(family="finite_jump", d=d, triplet=triplet,
                       params={"alpha": af}, envelope_mode=envelope_mode,
                       state_grid=state_grid, assumptions=assumptions or {})


def custom_model(d, eval_fn, envelopes=None, x_samples=None,
                 envelope_mode="grid_sampled", state_grid=StateGrid(),
                 assumptions=None, x_independent=False):
    params = {"eval_fn": eval_fn, "x_independent": x_independent}
    if envelopes:
        params["envelopes"] = envelopes
    if x_samples is not None:
        params["x_samples"] = np.asarray(x_samples, dtype=float)
    triplet = LevyTriplet(d=d)
    mode = "closed_form" if envelopes else envelope_mode
    return SymbolModel(family="custom", d=d, triplet=triplet, params=params,
                       envelope_mode=mode, state_grid=state_grid,
                       assumptions=assumptions or {})


# ---------------------------------------------------------------------------
# Model files.
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _field(obj, key, convert=lambda v: v, default=_REQUIRED, root=""):
    """obj[key] of a JSON object in a model file, passed through `convert`.
    A missing required field or a value `convert` rejects raises
    ConfigurationError naming the field (`root` + `key`)."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigurationError(f"model config missing field {root + key!r}")
        return default
    try:
        return convert(obj[key])
    except (ConfigurationError, IndexError, KeyError, OverflowError,
            TypeError, ValueError) as exc:
        raise ConfigurationError(f"model field {root + key!r} is malformed "
                                 f"({obj[key]!r}): {exc}") from None


def _floats(*shape):
    """Converter to a finite float array of the given shape, nested as that
    shape is; None stays None."""
    def convert(v):
        if v is None:
            return None
        a = np.asarray(v, dtype=float)
        if a.ndim != len(shape):
            raise ValueError(f"has {a.ndim} levels of nesting, expected "
                             f"{len(shape)}")
        a = a.reshape(shape)
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        return a
    return convert


def _real(v):
    """Converter to a finite float."""
    return float(_floats()(v))


def _count(v):
    """Converter to an integer of at least 1 from a JSON number (not a bool
    or a string) with no fractional part."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
            v >= 1 and (isinstance(v, int) or v.is_integer())):
        raise ValueError("must be an integer of at least 1")
    return int(v)


def _member(names):
    """Converter that accepts one of `names`."""
    def convert(v):
        if v not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return v
    return convert


def density_from_spec(d, spec):
    def get(key, convert, default=_REQUIRED):
        return _field(spec, key, convert, default, root="parameters.density.")

    kind = get("kind", _member(("power", "radial_density", "stable",
                                "power_log", "table")), "power")
    if kind in ("power", "radial_density"):
        return power_density(d, alpha=get("alpha", _range_or_const),
                             coeff=get("coeff", _range_or_const, 1.0),
                             u0=get("u0", _real, 0.0))
    if kind == "stable":
        return stable_density(d, alpha=get("alpha", _range_or_const),
                              gamma=get("gamma", _range_or_const, 1.0))
    if kind == "power_log":
        return power_log_density(d, exponent=get("exponent", _real),
                                 log_exponent=get("log_exponent", _real),
                                 coeff=get("coeff", _real, 1.0),
                                 u_start=get("u_start", _real, math.e))
    return table_density(d, get("u", _floats(-1)), get("n", _floats(-1)),
                         u0=get("u0", _real, 0.0),
                         monotone=bool(spec.get("monotone", True)))


def _range_or_const(v):
    """Converter to a constant or an (lo, hi) interval."""
    f = ScalarField.make(v)
    return f.lo if f.is_constant else f.bounds


def model_from_config(cfg: dict) -> SymbolModel:
    """Build a model from a parsed JSON config (schema in the README).

    A missing or malformed field raises ConfigurationError naming it.
    """
    if not isinstance(cfg, dict):
        raise ConfigurationError("model config must be a JSON object")
    parsers = {name: f.parse for name, f in FAMILIES.items() if f.parse}
    parsers["isotropic_stable"] = _parse_isotropic
    parse = parsers[_field(cfg, "family", _member(parsers))]
    try:
        d = _count(_field(cfg, "d"))
    except ValueError:
        raise ConfigurationError(f"model field 'd' must be a positive "
                                 f"integer, got {cfg['d']!r}") from None
    params = _field(cfg, "parameters", dict, {})
    mode = _field(cfg, "envelope_mode", _member(ENVELOPE_MODES), "closed_form")
    sg = _field(cfg, "state_grid", lambda v: dict(v or {}), {})
    grid = StateGrid(
        tuple(_field(sg, "box", _floats(2), root="state_grid.").tolist()),
        _field(sg, "points_per_axis", _count, 21, root="state_grid.")) \
        if sg else StateGrid()
    assumptions = _field(cfg, "assumptions", dict, {})

    def param(key, convert, default=_REQUIRED):
        return _field(params, key, convert, default, root="parameters.")

    return parse(d, param, envelope_mode=mode, state_grid=grid,
                 assumptions=assumptions)


def _parse_isotropic(d, param, **common):
    """The JSON family isotropic_stable: stable_like with constant alpha and
    gamma and no drift."""
    return isotropic_stable(d, param("alpha", _real),
                            param("gamma", _real, 1.0), **common)


def load_model(path) -> SymbolModel:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read model file {path}: {exc}") from exc
    return model_from_config(cfg)
