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
from functools import partial

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
)
from .verdicts import model_memo

ENV_SUP_ABS = "sup_abs"
ENV_INF_RE = "inf_re"
ENV_SUP_ABS_IM = "sup_abs_im"


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
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            return ScalarField(float(spec), float(spec))
        if isinstance(spec, dict):
            return ScalarField(_number(spec["lo"]), _number(spec["hi"]),
                               spec.get("profile", "cos"))
        if isinstance(spec, (tuple, list)) and len(spec) in (2, 3):
            return ScalarField(_number(spec[0]), _number(spec[1]), *spec[2:])
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
        if self.jump_density is not None and self.jump_density.d != self.d:
            raise ModelInvariantError("jump density has another dimension")

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
    assumptions: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        with np.errstate(over="ignore"):   # an inf probe does not vanish
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
    X = np.zeros((1, model.d)) if x is None \
        else np.atleast_2d(np.asarray(x, dtype=float))
    return complex(FAMILIES[model.family].symbol(model, X, xi[None, :])[0, 0])


def _norms(XI):
    """|xi| of each row as a Python float, one row at a time as for a single
    frequency (numpy's batched norm rounds differently in the last bit)."""
    return [float(np.linalg.norm(xi)) for xi in XI]


def _variant_for_state(model, x):
    """Density variant at state x, or at each state of a batch x (n, d): the
    one whose tail index -d - tail slope is nearest alpha(x). None when a
    state-dependent density has no alpha field tying its variants to states;
    then only the envelope over all variants is defined."""
    dens = model.triplet.jump_density
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if dens.x_independent:
        idx = np.zeros(X.shape[0], dtype=int)
    else:
        alpha = model.params.get("alpha")
        if not isinstance(alpha, ScalarField) or alpha.is_constant:
            return None
        alphas = -np.asarray([v.tail_slope for v in dens.variants]) - model.d
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
    """The `kind` envelope at each frequency row of XI (0 at xi = 0), in the
    family's closed form."""
    out = np.zeros(XI.shape[0])
    nonzero = np.any(XI != 0.0, axis=1)
    if np.any(nonzero):
        out[nonzero] = FAMILIES[model.family].closed_envelope(
            model, kind, XI[nonzero])
    return out


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
    if FAMILIES[model.family].real_symbol(model):   # sup |Im q| = 0
        return True, None
    radii = 2.0 ** np.arange(-10, 4).astype(float)
    dirs = direction_set(model.d, 16)
    XI = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, model.d)
    im = _envelopes(model, ENV_SUP_ABS_IM, XI)
    XI, im = XI[im > 0.0], im[im > 0.0]   # Re q >= 0: no Im q, no violation
    if im.size == 0:
        return True, None
    re = _envelopes(model, ENV_INF_RE, XI)
    bad = np.flatnonzero(im > c * re * (1.0 + 1e-12))
    return (True, None) if bad.size == 0 else (False, XI[bad[0]])


@model_memo
def symmetry_check(model: SymbolModel) -> bool:
    """Whether q(x, xi) = q(-x, -xi), from the family record (sampled for a
    custom model)."""
    return FAMILIES[model.family].symmetric(model)


@model_memo
def symbol_even_in_xi(model: SymbolModel) -> bool:
    """Whether q(x, xi) = q(x, -xi) (zero drift, symmetric jumps), from the
    family record (sampled for a custom model)."""
    return FAMILIES[model.family].even_in_xi(model)


# ---------------------------------------------------------------------------
# Family records: what the package knows about each family.
# ---------------------------------------------------------------------------

GATE_TRANSIENT = "transient"
GATE_RECURRENT = "recurrent"
GATE_UNKNOWN = "unknown"


def germ_integrable(beta, p, kappa, d):
    """Whether int_0 rho^{d-1} / (rho^beta (ln 1/rho)^p)^{kappa+1} drho
    converges: beta(kappa+1) < d, or = d and p(kappa+1) > 1."""
    product = beta * (kappa + 1.0)
    return product < d or (product == d and p * (kappa + 1.0) > 1.0)


def _tail_germ(slope, q, d):
    """(beta, p) of the jump symbol of a tail u^slope (ln u)^q as rho -> 0,
    with alpha = -slope - d: (alpha, q) below alpha = 2 and (2, 0) above it;
    at 2 the log gains a power, (2, q + 1), or drops for q < -1 (at q = -1
    a ln ln factor, which compares as p = 0 does). None when the slope is not
    stated."""
    if slope is None:
        return None
    alpha = -slope - d
    if alpha < 2.0:
        return alpha, q
    return (2.0, q + 1.0) if alpha == 2.0 and q > -1.0 else (2.0, 0.0)


class _Family:
    """What the package knows about one family. A slot the family lacks is
    None or returns nothing; the defaults serve a radial jump density."""

    # open-set irreducibility when a model does not assert it: established
    # in the literature for the built-in families
    irreducible = True
    # whether the Levy measure is known (a custom symbol does not tell it)
    jump_measure_known = True
    # sample(model, t, gen, n): n exact draws of X_t - t b, started at 0;
    # step_fields(model): the Euler step kind and its fields;
    # parse(d, param): the model of a JSON `parameters` object, read through
    # param(key, convert, default), as a partial call that takes assumptions
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

    # closed-form (inf, sup) over states of Re q at each frequency: exact,
    # or a safe-side bound (an inf no larger, a sup no smaller)
    def envelope(self, model, XI, rho):
        vals = model.triplet.jump_density.jump_symbols(rho)
        return np.min(vals, axis=0), np.max(vals, axis=0)

    # the `kind` envelope at each nonzero frequency row of XI. Scalar terms
    # are Python floats per frequency, as for a single one (numpy rounds
    # vector powers and hypot differently)
    def closed_envelope(self, model, kind, XI):
        drift = model.triplet.drift
        drift_term = [abs(float(xi @ drift)) if drift is not None else 0.0
                      for xi in XI]
        if kind == ENV_SUP_ABS_IM:
            return np.asarray(drift_term)   # b constant: sup|Im q| = |<xi, b>|
        lo, hi = self.envelope(model, XI, _norms(XI))
        if kind == ENV_INF_RE:
            return np.asarray(lo, dtype=float)
        return np.asarray([math.hypot(t, h) for t, h in zip(drift_term, hi)])

    # whether sup |Im q| is identically 0 (Im q is the drift term)
    def real_symbol(self, model):
        return model.drift_vector is None

    # whether q(x, xi) = q(x, -xi): Re q of every built-in family is even
    # in xi, so q is where Im q (the drift term) vanishes
    def even_in_xi(self, model):
        return self.real_symbol(model)

    # whether q(x, xi) = q(-x, -xi): even in xi, and every state-dependent
    # field has the cos profile, which is even in x
    def symmetric(self, model):
        fields = (*model.params.values(), model.triplet.diffusion_field)
        return self.even_in_xi(model) and all(
            f.is_constant or f.profile == "cos" for f in fields
            if isinstance(f, ScalarField))

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

    # the structural transience gate from the germs at kappa = 0, or None:
    # transient where the inf germ's integral converges, recurrent where the
    # sup germ's diverges and that is known to give recurrence
    def gate(self, model):
        germs = self.indices(model)
        if germs and germ_integrable(*germs[1], 0.0, model.d):
            return GATE_TRANSIENT
        if germs and not germ_integrable(*germs[0], 0.0, model.d) \
                and self.recurrence_known(model):
            return GATE_RECURRENT
        return None

    # whether a divergent sup-germ integral gives recurrence: Chung-Fuchs,
    # for a Levy process
    def recurrence_known(self, model):
        return model.triplet.jump_density.x_independent

    # the small-frequency germs (beta, p), envelope ~ rho^beta (ln 1/rho)^p,
    # of the sup envelope and of the inf-Re envelope, or None: here those of
    # the variants' stated tails, the slowest for the sup and the fastest
    # for the inf (the smaller beta is the slower; on a tie the larger p)
    def indices(self, model):
        germs = [_tail_germ(v.tail_slope, v.log_exponent, model.d)
                 for v in model.triplet.jump_density.variants]
        if None in germs:
            return None
        germs.sort(key=lambda g: (g[0], -g[1]))
        return germs[0], germs[-1]


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

    # a time change of Brownian motion
    def recurrence_known(self, model):
        return True

    # driftless and uniformly elliptic: rho^2 on both sides
    def indices(self, model):
        if model.drift_vector is None \
                and model.triplet.diffusion_bounds[0] > 0:
            return (2.0, 0.0), (2.0, 0.0)
        return None

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

    def parse(self, d, param):
        drift = param("b", _floats(d), None)
        c = param("c", ScalarField.make, None)
        C = param("C", _floats(d, d), None)
        if c is not None and C is not None:
            raise ConfigurationError("model field 'parameters.c' is given "
                                     "with 'parameters.C': give one of them")
        return partial(brownian_drift, d, drift=drift, C=C,
                       c=1.0 if c is None else c)


class _StableLike(_Family):
    def real_part(self, model, X, XI, rho):
        p = model.params
        return np.stack([p["gamma"](X) * r ** p["alpha"](X) for r in rho],
                        axis=1)

    # gamma(x) rho^alpha(x) is monotone in each field: its corner values are
    # exact where the profiles reach them together, a safe bound elsewhere
    def envelope(self, model, XI, rho):
        (a_lo, a_hi), (g_lo, g_hi) = (model.params[k].bounds
                                      for k in ("alpha", "gamma"))
        return ([g_lo * min(r ** a_lo, r ** a_hi) for r in rho],
                [g_hi * max(r ** a_lo, r ** a_hi) for r in rho])

    # driftless: the symbol is real and even
    def recurrence_known(self, model):
        return model.drift_vector is None

    # rho^alpha_lo and rho^alpha_hi; a drift term |<xi, b>| ~ rho outgrows
    # rho^alpha_lo for alpha_lo > 1
    def indices(self, model):
        a_lo, a_hi = model.params["alpha"].bounds
        if model.drift_vector is not None:
            a_lo = min(a_lo, 1.0)
        return (a_lo, 0.0), (a_hi, 0.0)

    def sample(self, model, t, gen, n):
        alpha, gamma = (model.params[k].bounds[0] for k in ("alpha", "gamma"))
        scale = (t * gamma) ** (2.0 / alpha)
        # a positive-stable subordinated Gaussian, exp(-t gamma |xi|^alpha)
        # (in place; a product commutes bit for bit)
        s = _positive_stable(0.5 * alpha, gen, n)
        s *= scale
        z = gen.standard_normal((n, model.d))
        s *= 2.0
        z *= np.sqrt(s, out=s)[:, None]
        return z

    def step_fields(self, model):
        return ("stable", model.params["alpha"], model.params["gamma"])

    def parse(self, d, param):
        beta = param("beta", _floats(d), None)
        if beta is not None and not np.any(beta):
            beta = None
        return partial(stable_like, d, alpha=param("alpha", ScalarField.make),
                       beta=beta, gamma=param("gamma", ScalarField.make, 1.0))


class _RadialJump(_Family):
    def parse(self, d, param):
        return partial(radial_jump_model,
                       density_from_spec(d, param("density", _object)))


#: the box [lo, hi]^d of states the sampled symmetry checks draw from
_SAMPLE_BOX = (-10.0, 10.0)


class _Custom(_Family):
    irreducible = False   # a custom model must assert it
    jump_measure_known = False

    def symbol(self, model, X, XI):
        fn = model.params["eval_fn"]
        return np.asarray([[complex(fn(xrow, xi)) for xi in XI] for xrow in X])

    # the `kind` envelope the model supplies; else, for an x-independent
    # model, its symbol at x = 0 (a state-dependent one must supply it)
    def closed_envelope(self, model, kind, XI):
        fn = model.params["envelopes"].get(kind)
        if fn is not None:
            return np.asarray([float(fn(xi)) for xi in XI])
        if not self.state_independent(model):
            raise ConfigurationError(f"a state-dependent custom model needs "
                                     f"its {kind!r} envelope")
        q = self.symbol(model, np.zeros((1, model.d)), XI)[0]
        return {ENV_SUP_ABS: np.abs(q), ENV_INF_RE: q.real,
                ENV_SUP_ABS_IM: np.abs(q.imag)}[kind]

    def real_symbol(self, model):
        return False

    def even_in_xi(self, model):   # sampled at states of _SAMPLE_BOX
        gen = np.random.Generator(np.random.Philox(key=[0xBEEF, model.d]))
        for _ in range(16):
            x = gen.uniform(*_SAMPLE_BOX, size=model.d)
            xi = gen.standard_normal(model.d)
            if abs(eval_symbol(model, x, xi)
                   - eval_symbol(model, x, -xi)) > 1e-8:
                return False
        return True

    def symmetric(self, model):   # sampled at states of _SAMPLE_BOX
        gen = np.random.Generator(np.random.Philox(key=[0xC0FFEE, model.d]))
        for _ in range(24):
            x = gen.uniform(*_SAMPLE_BOX, size=model.d)
            xi = gen.standard_normal(model.d) * gen.choice([0.1, 1.0, 3.0])
            a = eval_symbol(model, x, xi)
            if abs(a - eval_symbol(model, -x, -xi)) > 1e-8 * (1.0 + abs(a)):
                return False
        return True

    def radial(self, model, kind):
        return _numeric_radial(model, kind)   # sampled over rotations

    def state_independent(self, model):
        return bool(model.params.get("x_independent", False))

    def indices(self, model):
        return None


FAMILIES = {"brownian_drift": _BrownianDrift(), "stable_like": _StableLike(),
            "radial_jump": _RadialJump(), "custom": _Custom()}


def _kanter_angles(u, w):
    """In place, the alpha-free half of the Kanter (1975) sampler: uniforms
    u become angles pi * u in (0, pi), exponentials w are floored."""
    np.multiply(np.clip(u, 1e-12, 1.0 - 1e-12, out=u), np.pi, out=u)
    return u, np.maximum(w, 1e-300, out=w)


def _kanter(a, th, w):
    """One-sided stable variates with Laplace transform exp(-lambda^a),
    0 < a < 1, from the angles th and exponentials w of _kanter_angles:
    sin(a th) / sin(th)^(1/a) * (sin(b th) / w)^(b/a) with b = 1 - a, each
    operation as that expression does it. Overwrites th and w (scratch)."""
    b = 1.0 - a
    out = np.multiply(b, th)
    np.sin(out, out=out)
    out /= w
    out **= b / a
    np.sin(th, out=w)
    w **= 1.0 / a
    np.multiply(a, th, out=th)
    np.sin(th, out=th)
    th /= w
    out *= th   # a product commutes bit for bit
    return out


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

def brownian_drift(d, drift=None, c=1.0, C=None, assumptions=None):
    b = None if drift is None else np.asarray(drift, dtype=float).reshape(d)
    if C is not None:
        triplet = LevyTriplet(d=d, drift=b,
                              diffusion_matrix=np.asarray(C, dtype=float))
    else:
        triplet = LevyTriplet(d=d, drift=b,
                              diffusion_field=ScalarField.make(c))
    return SymbolModel(family="brownian_drift", d=d, triplet=triplet,
                       params={}, assumptions=assumptions or {})


def isotropic_stable(d, alpha, gamma=1.0, assumptions=None):
    """Rotation-invariant alpha-stable process: the stable_like model with
    constant alpha and gamma and no drift."""
    if not (0.0 < alpha < 2.0):
        raise ModelInvariantError(f"stable index must lie in (0,2), got {alpha}")
    if gamma <= 0:
        raise ModelInvariantError(f"stable scale must be positive, got {gamma}")
    return stable_like(d, float(alpha), gamma=float(gamma),
                       assumptions=assumptions)


def stable_like(d, alpha, beta=None, gamma=1.0, assumptions=None):
    af = ScalarField.make(alpha)
    gf = ScalarField.make(gamma)
    a_lo, a_hi = af.bounds
    if not (0.0 < a_lo <= a_hi < 2.0):
        raise ModelInvariantError(
            f"stable-like index range must lie in (0,2), got [{a_lo}, {a_hi}]")
    if gf.bounds[0] <= 0:
        raise ModelInvariantError("stable-like scale must be bounded away from 0")
    b = None if beta is None else np.asarray(beta, dtype=float).reshape(d)
    triplet = LevyTriplet(d=d, drift=b,
                          jump_density=stable_density(d, af.bounds, gf.bounds))
    params = {"alpha": af, "gamma": gf}
    return SymbolModel(family="stable_like", d=d, triplet=triplet,
                       params=params, assumptions=assumptions or {})


def radial_jump_model(density: RadialLevyDensity, params=None,
                      assumptions=None):
    triplet = LevyTriplet(d=density.d, jump_density=density)
    return SymbolModel(family="radial_jump", d=density.d, triplet=triplet,
                       params=params or {}, assumptions=assumptions or {})


def finite_jump_model(d, alpha, assumptions=None):
    """The radial_jump model of the unit-mass power kernel cut at radius 1,
    with its variants tied to states by the field alpha."""
    af = ScalarField.make(alpha)
    return radial_jump_model(finite_range_density(d, af.bounds),
                             {"alpha": af}, assumptions)


def custom_model(d, eval_fn, envelopes=None, assumptions=None,
                 x_independent=False):
    params = {"eval_fn": eval_fn, "envelopes": envelopes or {},
              "x_independent": x_independent}
    return SymbolModel(family="custom", d=d, triplet=LevyTriplet(d=d),
                       params=params, assumptions=assumptions or {})


# ---------------------------------------------------------------------------
# Model files.
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Section:
    """A JSON object of a model file, read field by field: a call returns
    obj[key] through `convert`, and `done` rejects a key no call read. An
    error is a ConfigurationError naming the field (`root` + key)."""

    def __init__(self, obj, root=""):
        self.obj, self.root, self.read = obj, root, set()

    def __call__(self, key, convert=lambda v: v, default=_REQUIRED):
        self.read.add(key)
        name = self.root + key
        if key not in self.obj:
            if default is _REQUIRED:
                raise ConfigurationError(f"model config missing field {name!r}")
            return default
        try:
            return convert(self.obj[key])
        except (ConfigurationError, IndexError, KeyError, OverflowError,
                TypeError, ValueError) as exc:
            raise ConfigurationError(f"model field {name!r} is malformed "
                                     f"({self.obj[key]!r}): {exc}") from None

    def done(self, value=None):
        """`value`, once every key of the object has been read."""
        for key in self.obj:
            if key not in self.read:
                raise ConfigurationError(
                    f"model config has unknown field {self.root + key!r}")
        return value


def _object(v):
    """A JSON object as it is: dict() would also read a list of pairs."""
    if not isinstance(v, dict):
        raise ConfigurationError("not a JSON object")
    return v


def _number(v):
    """float(v) of a JSON number, entry by entry in nested lists: float()
    would also read a bool (JSON true as 1) or a numeric string."""
    if isinstance(v, list):
        return [_number(x) for x in v]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"expected a number, got {v!r}")
    return float(v)


def _floats(*shape):
    """Converter to a finite float array of the given shape, nested as that
    shape is; None stays None."""
    def convert(v):
        if v is None:
            return None
        a = np.asarray(_number(v), dtype=float)
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


def _boolean(v):
    """Converter that accepts only a JSON boolean."""
    if not isinstance(v, bool):
        raise ValueError("must be true or false")
    return v


def _sector(v):
    """Converter to a sector constant: a number in [0, 1), or None."""
    c = None if v is None else _real(v)
    if c is not None and not 0.0 <= c < 1.0:
        raise ValueError("must lie in [0, 1)")
    return c


#: the assumptions a model file may set, with their converters
_ASSUMPTIONS = {"weak_test_hypothesis": _boolean, "sector_constant": _sector,
                "perturbation_margin": _boolean, "irreducible": _boolean}


def _member(names):
    """Converter that accepts one of `names`."""
    def convert(v):
        if v not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return v
    return convert


def density_from_spec(d, spec):
    """The density of a JSON density object; an unknown key is an error
    before the density is built."""
    get = _Section(spec, "parameters.density.")
    kind = get("kind", _member(("power", "radial_density", "stable",
                                "power_log", "table")), "power")
    if kind in ("power", "radial_density"):
        make, args = power_density, (get("alpha", _range_or_const),
                                     get("coeff", _range_or_const, 1.0),
                                     get("u0", _real, 0.0))
    elif kind == "stable":
        make, args = stable_density, (get("alpha", _range_or_const),
                                      get("gamma", _range_or_const, 1.0))
    elif kind == "power_log":
        make, args = power_log_density, (
            get("exponent", _real), get("log_exponent", _real),
            get("coeff", _real, 1.0), get("u_start", _real, math.e))
    else:
        make, args = table_density, (
            get("u", _floats(-1)), get("n", _floats(-1)),
            get("u0", _real, 0.0))
    return make(d, *get.done(args))


def _range_or_const(v):
    """Converter to a constant or an (lo, hi) interval."""
    f = ScalarField.make(v)
    return f.lo if f.is_constant else f.bounds


def model_from_config(cfg: dict) -> SymbolModel:
    """Build a model from a parsed JSON config (schema in the README).

    A missing or malformed field, or one the loader does not read at any
    level, raises ConfigurationError naming it before a model is built.
    """
    if not isinstance(cfg, dict):
        raise ConfigurationError("model config must be a JSON object")
    top = _Section(cfg)
    parsers = {name: f.parse for name, f in FAMILIES.items() if f.parse}
    parsers.update(isotropic_stable=_parse_isotropic,
                   finite_jump=_parse_finite_jump)
    parse = parsers[top("family", _member(parsers))]
    d = top("d")
    # a JSON number with no fractional part, not a bool or a string
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not (
            d >= 1 and (isinstance(d, int) or d.is_integer())):
        raise ConfigurationError(f"model field 'd' must be a positive "
                                 f"integer, got {d!r}")
    param = _Section(top("parameters", _object, {}), "parameters.")
    given = _Section(top("assumptions", _object, {}), "assumptions.")
    assumptions = given.done({key: given(key, convert) for key, convert
                              in _ASSUMPTIONS.items() if key in given.obj})
    top.done()
    return param.done(parse(int(d), param))(assumptions=assumptions)


def _parse_isotropic(d, param):
    """The JSON family isotropic_stable: stable_like with constant alpha and
    gamma and no drift."""
    return partial(isotropic_stable, d, param("alpha", _real),
                   param("gamma", _real, 1.0))


def _parse_finite_jump(d, param):
    """The JSON family finite_jump: a radial_jump model, see
    finite_jump_model."""
    return partial(finite_jump_model, d,
                   alpha=param("alpha", ScalarField.make))


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
