"""Quadrature engine for power-law-type integrands on (0, infinity).

Everything here is built around two facts about the integrands this package
meets: they are smooth between a handful of known breakpoints, and they behave
like powers (possibly with slowly varying corrections) near 0 and infinity.
Gauss-Legendre blocks in log space are essentially exact for such integrands,
and geometric block sums admit reliable power-law extrapolation of the
unbounded ends, including divergence detection.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DivergentIntegralError, QuadratureError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: surface area of the unit sphere in R^d, S_d = 2 pi^{d/2} / Gamma(d/2)
def sphere_surface(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _split_points(a, b, breakpoints):
    pts = [a]
    for p in sorted(set(float(x) for x in breakpoints)):
        if a < p < b:
            pts.append(p)
    pts.append(b)
    return pts


def log_gauss_blocks(lo, hi, n=16):
    """Nodes and weights of one n-point Gauss-Legendre block in log space
    per interval [lo[j], hi[j]]; both arrays have shape (len(lo), n)."""
    base_x, base_w = _gl(n)
    t0, t1 = np.log(lo), np.log(hi)
    mid = 0.5 * (t0 + t1)[:, None]
    half = 0.5 * (t1 - t0)[:, None]
    u = np.exp(mid + half * base_x[None, :])
    return u, half * base_w[None, :] * u


def gauss_log_nodes(a, b, breakpoints=(), n=16):
    """Nodes and weights for integrating over [a, b], 0 < a < b.

    The interval is split at interior breakpoints, each piece is covered with
    one Gauss-Legendre block per octave in log space.
    """
    if not (0.0 < a < b):
        raise QuadratureError(f"invalid log-quadrature interval [{a}, {b}]")
    xs, ws = [], []
    for lo, hi in zip(*(lambda p: (p[:-1], p[1:]))(_split_points(a, b, breakpoints))):
        n_blocks = max(1, int(math.ceil(math.log2(hi / lo))))
        edges = lo * (hi / lo) ** np.linspace(0.0, 1.0, n_blocks + 1)
        u, w = log_gauss_blocks(edges[:-1], edges[1:], n)
        xs.append(u.ravel())
        ws.append(w.ravel())
    return np.concatenate(xs), np.concatenate(ws)


def gauss_linear_nodes(a, b, breakpoints=(), n=10):
    """Plain Gauss-Legendre nodes/weights on [a, b] split at breakpoints."""
    base_x, base_w = _gl(n)
    xs, ws = [], []
    for lo, hi in zip(*(lambda p: (p[:-1], p[1:]))(_split_points(a, b, breakpoints))):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def integrate_log(f, a, b, breakpoints=(), n=16):
    """Integral of f over [a, b] with log-spaced Gauss blocks."""
    if b <= a:
        return 0.0
    u, w = gauss_log_nodes(a, b, breakpoints, n)
    return float(w @ np.asarray(f(u), dtype=float))


def _octave_sum(f, start, step, breakpoints, rel_tol, max_octaves,
                min_octaves, on_divergence, message):
    """Sum of f over geometric octave blocks from `start`, each block
    `step` times the last (2 toward infinity, 1/2 toward the origin), with
    the remainder extrapolated from the block ratio.

    Detects divergence when the block sequence fails to decay; then either
    raises DivergentIntegralError or returns inf.
    """
    total = 0.0
    prev = None
    prev_ratio = None
    zero_run = 0
    edge = float(start)
    for j in range(max_octaves):
        nxt = step * edge
        lo, hi = (edge, nxt) if step > 1.0 else (nxt, edge)
        block = integrate_log(f, lo, hi, breakpoints)
        total += block
        zero_run = zero_run + 1 if block == 0.0 else 0
        if zero_run >= 24 and j >= min_octaves:
            return total      # the integrand vanishes toward the open end
        if prev is not None and prev > 0.0 and block > 0.0 and j >= min_octaves:
            ratio = block / prev
            if ratio < 0.995:
                remainder = block * ratio / (1.0 - ratio)
                done = remainder <= rel_tol * max(total, 1e-300)
                if not done and prev_ratio is not None:
                    # geometric extrapolation is exact once the ratio settles
                    drift = abs(ratio - prev_ratio) / (1.0 - ratio)
                    done = drift * remainder <= rel_tol * max(
                        total + remainder, 1e-300)
                if done:
                    return total + remainder
            prev_ratio = ratio
        prev = block
        edge = nxt
    if on_divergence == "inf":
        return math.inf
    raise DivergentIntegralError(message, partial=total)


def integrate_tail(f, a, breakpoints=(), rel_tol=1e-11, max_octaves=260,
                   min_octaves=6, on_divergence="raise"):
    """Integral of f over [a, infinity) for nonnegative power-like-tailed f.

    Sums geometric octave blocks and extrapolates the remainder from the
    last block ratio. Detects divergence when the block sequence fails to
    decay; then either raises DivergentIntegralError or returns inf.
    """
    if a <= 0:
        raise QuadratureError(f"tail integral needs a > 0, got {a}")
    return _octave_sum(
        f, a, 2.0, breakpoints, rel_tol, max_octaves, min_octaves,
        on_divergence,
        f"tail integral from {a} did not converge within {max_octaves} octaves")


def integrate_origin(f, b, breakpoints=(), rel_tol=1e-11, max_octaves=220,
                     min_octaves=6, support_lo=0.0, on_divergence="raise"):
    """Integral of f over (0, b] (or [support_lo, b]) with extrapolation at 0."""
    if b <= 0:
        return 0.0
    if support_lo > 0.0:
        return integrate_log(f, support_lo, b, breakpoints)
    return _octave_sum(
        f, b, 0.5, breakpoints, rel_tol, max_octaves, min_octaves,
        on_divergence,
        f"integral near 0 below {b} did not converge within {max_octaves} octaves")


def segment_integrals(f, edges, breakpoints=(), n=16):
    """Integrals of f over each consecutive [edges[j], edges[j+1]].

    Gaps narrower than an octave get a single log-space Gauss block (batched
    in one f call); wider gaps or gaps containing a breakpoint fall back to
    the piecewise path.
    """
    edges = np.asarray(edges, dtype=float)
    m = len(edges) - 1
    out = np.zeros(m)
    lo, hi = edges[:-1], edges[1:]
    width_ok = hi <= lo * 2.0000001
    has_bp = np.zeros(m, dtype=bool)
    for p in breakpoints:
        has_bp |= (lo < p) & (p < hi)
    nonempty = hi > lo * (1.0 + 1e-14)
    fast = width_ok & ~has_bp & nonempty
    if np.any(fast):
        u, w = log_gauss_blocks(lo[fast], hi[fast], n)
        vals = np.asarray(f(u.ravel()), dtype=float).reshape(u.shape)
        out[fast] = np.sum(w * vals, axis=1)
    for j in np.nonzero(~fast & nonempty)[0]:
        out[j] = integrate_log(f, lo[j], hi[j], breakpoints, n=n)
    return out


def tail_cumulative(f, us, breakpoints=(), rel_tol=1e-11, on_divergence="raise"):
    """F(u_i) = integral of f over [u_i, infinity) for sorted ascending us.

    One tail integral from the largest node plus exact Gauss blocks over the
    gaps; a single vectorized sweep, accurate to quadrature precision.
    """
    us = np.asarray(us, dtype=float)
    top = integrate_tail(f, us[-1], breakpoints, rel_tol=rel_tol,
                         on_divergence=on_divergence)
    if not math.isfinite(top):
        return np.full_like(us, math.inf)
    gaps = segment_integrals(f, us, breakpoints)
    out = np.empty_like(us)
    out[-1] = top
    out[:-1] = top + np.cumsum(gaps[::-1])[::-1]
    return out


# ---------------------------------------------------------------------------
# Spherically averaged cosine kernel and the radial jump-symbol integral.
# ---------------------------------------------------------------------------

def one_minus_wave_kernel(s, d):
    """1 - psi_d(s) where psi_d(s) is the average of cos(s * w_1) over the
    unit sphere in R^d: psi_d(s) = 0F1(d/2; -s^2/4).

    A short series is used for small s to avoid cancellation; the kernel
    behaves like s^2 / (2d) near 0 and oscillates around 1 for large s.
    """
    s = np.abs(np.asarray(s, dtype=float))
    out = np.empty_like(s)
    small = s < 0.1
    b = 0.5 * d
    if np.any(small):
        z = s[small] ** 2
        t1 = z / (4.0 * b)
        t2 = t1 * z / (8.0 * (b + 1.0))
        t3 = t2 * z / (12.0 * (b + 2.0))
        t4 = t3 * z / (16.0 * (b + 3.0))
        out[small] = t1 - t2 + t3 - t4
    if np.any(~small):
        out[~small] = 1.0 - special.hyp0f1(b, -0.25 * s[~small] ** 2)
    return out


def _accelerated_limit(partial_sums):
    # Iterated averaging of the partial-sum sequence; converges fast for
    # eventually alternating block sums.
    s = np.asarray(partial_sums, dtype=float)
    while s.size > 1:
        s = 0.5 * (s[1:] + s[:-1])
    return float(s[0])


def oscillatory_tail_integral(f, a, rho, d, breakpoints=(), n_blocks=48, n=10):
    """Integral of psi_d(rho * u) * f(u) over [a, infinity).

    Blocks of half-period length pi/rho give (asymptotically) alternating
    contributions; the limit of the partial sums is taken with iterated
    averaging. f must have an integrable power-like tail.
    """
    if rho <= 0:
        raise QuadratureError("oscillatory integral needs rho > 0")
    b = 0.5 * d
    half = math.pi / rho
    edges = a + half * np.arange(n_blocks + 1)
    sums = np.empty(n_blocks)
    acc = 0.0
    for k in range(n_blocks):
        u, w = gauss_linear_nodes(edges[k], edges[k + 1], breakpoints, n=n)
        psi = special.hyp0f1(b, -0.25 * (rho * u) ** 2)
        acc += float(w @ (psi * np.asarray(f(u), dtype=float)))
        sums[k] = acc
    return _accelerated_limit(sums[n_blocks // 2:])


def jump_symbol_value(f, rho, d, breakpoints=(), support_lo=0.0, rel_tol=1e-10):
    """Integral of (1 - psi_d(rho*u)) * f(u) over (0, infinity).

    This is the radial reduction of int (1 - cos<xi, y>) nu(dy) for a radial
    jump weight: f(u) = S_d * u^{d-1} * n(u) yields the (real) jump part of
    the symbol at |xi| = rho. Splits at the oscillation scale pi/rho.
    """
    if rho == 0.0:
        return 0.0
    u_c = math.pi / rho
    bps = tuple(breakpoints)

    def smooth_part(u):
        return one_minus_wave_kernel(rho * u, d) * np.asarray(f(u), dtype=float)

    lo_end = max(support_lo, 0.0)
    if lo_end >= u_c:
        near = 0.0
        osc_start = lo_end
    else:
        near = integrate_origin(smooth_part, u_c, bps, rel_tol=rel_tol,
                                support_lo=support_lo)
        osc_start = u_c
    plain_tail = integrate_tail(f, osc_start, bps, rel_tol=rel_tol)
    wave_tail = oscillatory_tail_integral(f, osc_start, rho, d, bps)
    return near + plain_tail - wave_tail

