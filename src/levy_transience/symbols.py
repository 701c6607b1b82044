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
from .errors import ConfigurationError, DegenerateModelError, ModelInvariantError
from .verdicts import model_memo

ENV_SUP_ABS = "sup_abs"
ENV_INF_RE = "inf_re"
ENV_SUP_ABS_IM = "sup_abs_im"


# ---------------------------------------------------------------------------
# Scalar coefficient fields x -> value.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """State-dependent scalar coefficient with known exact bounds.

    kind "const" or "interval"; interval fields vary through a bounded smooth
    (or step) profile of the first coordinate, so sup/inf over all states are
    exactly `hi`/`lo`.
    """

    kind: str
    value: float = 0.0
    lo: float = 0.0
    hi: float = 0.0
    profile: str = "cos"

    @staticmethod
    def make(spec):
        if isinstance(spec, ScalarField):
            return spec
        if isinstance(spec, (int, float)):
            return ScalarField(kind="const", value=float(spec))
        if isinstance(spec, dict):
            return ScalarField(kind="interval", lo=float(spec["lo"]),
                               hi=float(spec["hi"]),
                               profile=spec.get("profile", "cos"))
        if isinstance(spec, (tuple, list)) and len(spec) in (2, 3):
            profile = spec[2] if len(spec) == 3 else "cos"
            return ScalarField(kind="interval", lo=float(spec[0]),
                               hi=float(spec[1]), profile=profile)
        raise ConfigurationError(f"cannot interpret scalar field spec {spec!r}")

    @property
    def bounds(self):
        if self.kind == "const":
            return (self.value, self.value)
        return (self.lo, self.hi)

    @property
    def is_constant(self):
        lo, hi = self.bounds
        return lo == hi

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        x1 = X[..., 0]
        if self.kind == "const":
            return np.full_like(x1, self.value)
        if self.profile == "cos":
            w = 0.5 * (1.0 + np.cos(x1))
        elif self.profile == "sin":
            w = 0.5 * (1.0 + np.sin(x1))
        elif self.profile == "step":
            w = (x1 > 0).astype(float)
        else:
            raise ConfigurationError(f"unknown field profile {self.profile!r}")
        return self.lo + (self.hi - self.lo) * w

    def to_json(self):
        if self.kind == "const":
            return self.value
        return {"lo": self.lo, "hi": self.hi, "profile": self.profile}


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

FAMILIES = ("brownian_drift", "stable_like", "radial_jump", "finite_jump",
            "custom")


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
        if self.envelope_mode not in ("closed_form", "grid_sampled"):
            raise ConfigurationError(f"unknown envelope mode {self.envelope_mode!r}")
        probe = max(abs(eval_symbol(self, None, 0.7 * _unit(self.d))),
                    abs(eval_symbol(self, None, 1.3 * _unit(self.d))))
        if probe == 0.0:
            raise DegenerateModelError("symbol vanishes identically")

    # -- convenience accessors ----------------------------------------------

    @property
    def is_state_independent(self):
        if self.family == "custom":
            return bool(self.params.get("x_independent", False))
        dens = self.triplet.jump_density
        fields = (self.params.get(key) for key in ("alpha", "gamma", "c"))
        return (dens is None or dens.x_independent) and all(
            f.is_constant for f in fields if isinstance(f, ScalarField))

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
    return _symbol_table(model, X, xi[None, :])[:, 0]


def _symbol_table(model, X, XI):
    """q(x, xi) for states X (n, d) and nonzero frequencies XI (m, d), as an
    (n, m) array; a radial density's jump symbol is one ladder per variant."""
    fam = model.family
    p = model.params
    if fam == "custom":
        fn = p["eval_fn"]
        return np.asarray([[complex(fn(xrow, xi)) for xi in XI] for xrow in X])
    rho = _norms(XI)
    if fam == "brownian_drift":
        re = np.stack([model.triplet.diffusion_quadratic(X, xi) for xi in XI],
                      axis=1)
    elif fam == "stable_like":
        re = np.stack([p["gamma"](X) * r ** p["alpha"](X) for r in rho], axis=1)
    else:
        dens = model.triplet.jump_density
        idx = _variant_for_state(model, X)
        if idx is None:
            idx = np.zeros(X.shape[0], dtype=int)   # pointwise: first variant
        used, where = np.unique(idx, return_inverse=True)
        re = np.stack([dens.jump_symbol(rho, v) for v in used])[where]
    im = np.zeros(XI.shape[0])
    if model.triplet.drift is not None:
        im = -np.asarray([float(xi @ model.triplet.drift) for xi in XI])
    return re + 1j * im[None, :]


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

def sup_abs_symbol(model: SymbolModel, xi) -> float:
    """sup over states of |q(x, xi)|."""
    return _envelope(model, ENV_SUP_ABS, xi)


def inf_re_symbol(model: SymbolModel, xi) -> float:
    """inf over states of Re q(x, xi)."""
    return _envelope(model, ENV_INF_RE, xi)


def sup_abs_im_symbol(model: SymbolModel, xi) -> float:
    """sup over states of |Im q(x, xi)|."""
    return _envelope(model, ENV_SUP_ABS_IM, xi)


def _envelope(model, kind, xi):
    return float(_envelopes(model, kind, _as_xi(xi, model.d)[None, :])[0])


def _envelopes(model, kind, XI):
    """The `kind` envelope at each frequency row of XI (0 at xi = 0)."""
    out = np.zeros(XI.shape[0])
    nonzero = np.any(XI != 0.0, axis=1)
    if np.any(nonzero):
        val = None
        if model.envelope_mode == "closed_form":
            val = _closed_envelope(model, kind, XI[nonzero])
        out[nonzero] = _grid_envelope(model, kind, XI[nonzero]) \
            if val is None else val
    return out


def _closed_envelope(model, kind, XI):
    """Closed-form envelope at each frequency row of XI, or None when the
    family has none. Scalar terms are Python floats per frequency, as for a
    single one (numpy rounds vector powers and hypot differently)."""
    fam = model.family
    p = model.params
    if fam == "custom":
        fn = (p.get("envelopes") or {}).get(kind)
        return None if fn is None else np.asarray([float(fn(xi)) for xi in XI])
    drift = model.triplet.drift
    drift_term = [abs(float(xi @ drift)) if drift is not None else 0.0
                  for xi in XI]
    if kind == ENV_SUP_ABS_IM:
        return np.asarray(drift_term)   # b is constant: sup|Im q| = |<xi, b>|
    rho = _norms(XI)
    if fam == "brownian_drift":
        C = model.triplet.diffusion_matrix
        if C is not None:
            lo = hi = [0.5 * float(xi @ C @ xi) for xi in XI]
        else:
            c_lo, c_hi = p["c"].bounds
            lo = [0.5 * c_lo * r ** 2 for r in rho]
            hi = [0.5 * c_hi * r ** 2 for r in rho]
    elif fam == "stable_like":
        if not (p["alpha"].is_constant or p["gamma"].is_constant):
            return None   # joint variation: fall back to the state grid
        a_lo, a_hi = p["alpha"].bounds
        g_lo, g_hi = p["gamma"].bounds
        lo = [g_lo * min(r ** a_lo, r ** a_hi) for r in rho]
        hi = [g_hi * max(r ** a_lo, r ** a_hi) for r in rho]
    else:
        dens = model.triplet.jump_density
        vals = [dens.jump_symbol(rho, i) for i in range(len(dens.variants))]
        lo, hi = np.min(vals, axis=0), np.max(vals, axis=0)
    if kind == ENV_INF_RE:
        return np.asarray(lo, dtype=float)
    return np.asarray([math.hypot(t, h) for t, h in zip(drift_term, hi)])


#: states x frequencies per block of a grid envelope (1 MB of complex q)
_GRID_BLOCK = 1 << 16


def _grid_envelope(model, kind, XI):
    if model.family == "custom" and "x_samples" in model.params:
        X = np.atleast_2d(np.asarray(model.params["x_samples"], dtype=float))
    else:
        X = model.state_points()
    if X.size == 0:
        raise ConfigurationError("empty state grid")
    if model.family == "radial_jump" and _variant_for_state(model, X) is None:
        # variants not tied to states: the sup/inf over states is the one
        # over all variants
        return _closed_envelope(model, kind, XI)
    reduce = {ENV_SUP_ABS: lambda q: np.max(np.abs(q), axis=0),
              ENV_INF_RE: lambda q: np.min(q.real, axis=0),
              ENV_SUP_ABS_IM: lambda q: np.max(np.abs(q.imag), axis=0)}[kind]
    step = max(1, _GRID_BLOCK // X.shape[0])
    return np.concatenate([reduce(_symbol_table(model, X, XI[j:j + step]))
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
    if model.family == "custom":
        return _numeric_radial(model, kind)   # sampled over rotations
    C = model.triplet.diffusion_matrix
    iso = C is None or _matrix_isotropic(C)
    return iso and (kind == ENV_INF_RE or model.drift_vector is None
                    or model.d == 1)


def _matrix_isotropic(C):
    C = np.asarray(C, dtype=float)
    return np.allclose(C, C[0, 0] * np.eye(C.shape[0]), atol=1e-12)


def _numeric_radial(model, kind, n_rotations=6, tol=1e-6):
    gen = np.random.Generator(np.random.Philox(key=[0xA5A5A5A5, model.d]))
    for rho in (0.25, 1.0, 3.0):
        base = _envelope(model, kind, rho * _unit(model.d))
        for _ in range(n_rotations):
            O = _random_rotation(model.d, gen)
            val = _envelope(model, kind, rho * (O @ _unit(model.d)))
            if abs(val - base) > tol * (1.0 + abs(base)):
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
def sector_check(model: SymbolModel, c: float, n_directions=16,
                 radii=None):
    """Check sup|Im q| <= c * inf Re q on a frequency grid.

    Returns (ok, witness): witness is a violating xi when ok is False.
    """
    if not 0.0 <= c < 1.0:
        raise ConfigurationError(f"sector constant must lie in [0,1), got {c}")
    if radii is None:
        radii = 2.0 ** np.arange(-10, 4).astype(float)
    dirs = direction_set(model.d, n_directions)
    XI = (np.asarray(radii, dtype=float)[:, None, None]
          * dirs[None, :, :]).reshape(-1, model.d)
    im = _envelopes(model, ENV_SUP_ABS_IM, XI)
    re = _envelopes(model, ENV_INF_RE, XI)
    bad = np.flatnonzero(im > c * re + 1e-12 * (1.0 + re))
    return (True, None) if bad.size == 0 else (False, XI[bad[0]])


def radiality_check(model: SymbolModel) -> bool:
    """True when b = 0, C(x) = c(x) I and the jump kernel is rotation
    invariant; structural for built-in families, sampled for custom ones."""
    fam = model.family
    if fam == "custom":
        return _numeric_radial(model, ENV_SUP_ABS)
    if model.drift_vector is not None:
        return False
    if model.triplet.diffusion_matrix is not None and not _matrix_isotropic(
            model.triplet.diffusion_matrix):
        return False
    return True


@model_memo
def symmetry_check(model: SymbolModel, n_samples=24, tol=1e-8) -> bool:
    """Sampled check of q(x, xi) = q(-x, -xi)."""
    gen = np.random.Generator(np.random.Philox(key=[0xC0FFEE, model.d]))
    lo, hi = model.state_grid.box
    for _ in range(n_samples):
        x = gen.uniform(lo, hi, size=model.d)
        xi = gen.standard_normal(model.d) * gen.choice([0.1, 1.0, 3.0])
        a = eval_symbol(model, x, xi)
        b = eval_symbol(model, -x, -xi)
        if abs(a - b) > tol * (1.0 + abs(a)):
            return False
    return True


@model_memo
def symbol_even_in_xi(model: SymbolModel, n_samples=16, tol=1e-8) -> bool:
    """Sampled check of q(x, xi) = q(x, -xi) (zero drift, symmetric jumps)."""
    gen = np.random.Generator(np.random.Philox(key=[0xBEEF, model.d]))
    lo, hi = model.state_grid.box
    for _ in range(n_samples):
        x = gen.uniform(lo, hi, size=model.d)
        xi = gen.standard_normal(model.d)
        if abs(eval_symbol(model, x, xi) - eval_symbol(model, x, -xi)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Family constructors.
# ---------------------------------------------------------------------------

def brownian_drift(d, drift=None, c=1.0, C=None, envelope_mode="closed_form",
                   state_grid=StateGrid(), assumptions=None):
    b = None if drift is None else np.asarray(drift, dtype=float).reshape(d)
    params = {}
    if C is not None:
        triplet = LevyTriplet(d=d, drift=b,
                              diffusion_matrix=np.asarray(C, dtype=float))
    else:
        cf = ScalarField.make(c)
        params["c"] = cf
        triplet = LevyTriplet(d=d, drift=b, diffusion_field=cf)
    return SymbolModel(family="brownian_drift", d=d, triplet=triplet,
                       params=params, envelope_mode=envelope_mode,
                       state_grid=state_grid, assumptions=assumptions or {})


def isotropic_stable(d, alpha, gamma=1.0, envelope_mode="closed_form",
                     assumptions=None):
    """Rotation-invariant alpha-stable process: the stable_like model with
    constant alpha and gamma and no drift."""
    if not (0.0 < alpha < 2.0):
        raise ModelInvariantError(f"stable index must lie in (0,2), got {alpha}")
    if gamma <= 0:
        raise ModelInvariantError(f"stable scale must be positive, got {gamma}")
    return stable_like(d, float(alpha), gamma=float(gamma),
                       envelope_mode=envelope_mode, assumptions=assumptions)


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
                          gf.bounds if not gf.is_constant else gf.value)
    triplet = LevyTriplet(d=d, drift=b, jump_density=dens)
    params = {"alpha": af, "gamma": gf}
    return SymbolModel(family="stable_like", d=d, triplet=triplet,
                       params=params, envelope_mode=envelope_mode,
                       state_grid=state_grid, assumptions=assumptions or {})


def radial_jump_model(density: RadialLevyDensity, envelope_mode="closed_form",
                      params=None, assumptions=None):
    triplet = LevyTriplet(d=density.d, jump_density=density)
    return SymbolModel(family="radial_jump", d=density.d, triplet=triplet,
                       params=params or {}, envelope_mode=envelope_mode,
                       assumptions=assumptions or {})


def finite_jump_model(d, alpha, envelope_mode="closed_form", assumptions=None):
    af = ScalarField.make(alpha)
    dens = finite_range_density(d, af.bounds if not af.is_constant else af.value)
    triplet = LevyTriplet(d=d, jump_density=dens)
    return SymbolModel(family="finite_jump", d=d, triplet=triplet,
                       params={"alpha": af}, envelope_mode=envelope_mode,
                       assumptions=assumptions or {})


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
    except (ConfigurationError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigurationError(f"model field {root + key!r} is malformed "
                                 f"({obj[key]!r}): {exc}") from None


def _floats(*shape):
    """Converter to a float array of the given shape; None stays None."""
    return lambda v: None if v is None else np.asarray(
        v, dtype=float).reshape(shape)


def density_from_spec(d, spec):
    def get(key, convert, default=_REQUIRED):
        return _field(spec, key, convert, default, root="parameters.density.")

    kind = spec.get("kind", "power")
    if kind in ("power", "radial_density"):
        return power_density(d, alpha=get("alpha", _range_or_const),
                             coeff=get("coeff", _range_or_const, 1.0),
                             u0=get("u0", float, 0.0))
    if kind == "stable":
        return stable_density(d, alpha=get("alpha", _range_or_const),
                              gamma=get("gamma", _range_or_const, 1.0))
    if kind == "power_log":
        return power_log_density(d, exponent=get("exponent", float),
                                 log_exponent=get("log_exponent", float),
                                 coeff=get("coeff", float, 1.0),
                                 u_start=get("u_start", float, math.e))
    if kind == "table":
        return table_density(d, get("u", _floats(-1)), get("n", _floats(-1)),
                             u0=get("u0", float, 0.0),
                             monotone=bool(spec.get("monotone", True)))
    raise ConfigurationError(f"unknown density kind {kind!r}")


def _range_or_const(v):
    if isinstance(v, dict):
        return (float(v["lo"]), float(v["hi"]))
    if isinstance(v, (list, tuple)):
        return (float(v[0]), float(v[1]))
    return float(v)


def model_from_config(cfg: dict) -> SymbolModel:
    """Build a model from a parsed JSON config (schema in the README).

    A missing or malformed field raises ConfigurationError naming it.
    """
    if not isinstance(cfg, dict):
        raise ConfigurationError("model config must be a JSON object")
    family = _field(cfg, "family")
    d = _field(cfg, "d", float)
    if not (d >= 1 and d.is_integer()):
        raise ConfigurationError(f"model field 'd' must be a positive "
                                 f"integer, got {cfg['d']!r}")
    d = int(d)
    params = _field(cfg, "parameters", dict, {})
    mode = cfg.get("envelope_mode", "closed_form")
    sg = _field(cfg, "state_grid", lambda v: dict(v or {}), {})
    grid = StateGrid(
        tuple(_field(sg, "box", _floats(2), root="state_grid.").tolist()),
        _field(sg, "points_per_axis", int, 21, root="state_grid.")) \
        if sg else StateGrid()
    assumptions = _field(cfg, "assumptions", dict, {})

    def param(key, convert, default=_REQUIRED):
        return _field(params, key, convert, default, root="parameters.")

    if family == "brownian_drift":
        return brownian_drift(d, drift=param("b", _floats(d), None),
                              c=param("c", ScalarField.make, 1.0)
                              if "C" not in params else 1.0,
                              C=param("C", _floats(d, d), None),
                              envelope_mode=mode,
                              state_grid=grid, assumptions=assumptions)
    if family == "isotropic_stable":
        return isotropic_stable(d, param("alpha", float),
                                param("gamma", float, 1.0),
                                envelope_mode=mode, assumptions=assumptions)
    if family == "stable_like":
        beta = param("beta", _floats(d), None)
        if beta is not None and not np.any(beta):
            beta = None
        return stable_like(d, alpha=param("alpha", ScalarField.make), beta=beta,
                           gamma=param("gamma", ScalarField.make, 1.0),
                           envelope_mode=mode,
                           state_grid=grid, assumptions=assumptions)
    if family == "radial_jump":
        dens = density_from_spec(d, param("density", dict))
        return radial_jump_model(dens, envelope_mode=mode,
                                 assumptions=assumptions)
    if family == "finite_jump":
        return finite_jump_model(d, alpha=param("alpha", ScalarField.make),
                                 envelope_mode=mode, assumptions=assumptions)
    raise ConfigurationError(f"family {family!r} is not loadable from JSON")


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
