"""Quadrature engine for power-law-type integrands on (0, infinity).

Everything here is built around two facts about the integrands this package
meets: they are smooth between a handful of known breakpoints, and they behave
like powers (possibly with slowly varying corrections) near 0 and infinity.
Gauss-Legendre blocks in log space are essentially exact for such integrands,
and geometric block sums admit reliable power-law extrapolation of the
unbounded ends, including divergence detection.

The block machinery works on rows: many intervals (or many octave sums) at
once, cut at the breakpoints into one flat piece list, with one integrand
call per step and np.bincount for the per-row sums. A scalar integral is the
one-row case. The sweeps below take row groups (the variants of a density):
one node array per group and a row-aware weight f(u, k), k the group of each
row of u, give one array per group, equal bit for bit to the group alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DivergentIntegralError, QuadratureError

#: radii per chunk of a wave tail, which keeps its (radius, block, node)
#: arrays at a few hundred kB; the rest of a jump symbol runs once per call
_CHUNK = 64

#: Gauss blocks per integrand call of a sweep: its arrays stay about those
#: of one variant's sweep, however many row groups are stacked
_STEP_BLOCKS = 4096

#: octaves integrated per step of an octave sum; a power-law integral
#: meets its stop rule within the first batch
_OCTAVE_BATCH = 8

#: largest ratio of consecutive octave blocks whose geometric remainder is
#: extrapolated; a block sequence that shrinks more slowly diverges
MAX_BLOCK_RATIO = 0.9999

#: half-period blocks of a wave tail, and Gauss-Legendre nodes per block
_WAVE_BLOCKS, _WAVE_N = 48, 10


#: surface area of the unit sphere in R^d, S_d = 2 pi^{d/2} / Gamma(d/2)
def sphere_surface(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


#: n-point Gauss-Legendre nodes and weights on [-1, 1] for the two block
#: sizes in use: the reprs of numpy.polynomial.legendre.leggauss(n), which
#: a test pins bit for bit, so no command imports numpy.polynomial
_GL = {
    10: (np.array([
        -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
        -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
        0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
        0.9739065285171717,
    ]), np.array([
        0.06667134430868814, 0.1494513491505804, 0.219086362515982,
        0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
        0.2692667193099965, 0.219086362515982, 0.1494513491505804,
        0.06667134430868814,
    ])),
    16: (np.array([
        -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
        -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
        -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
        0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
        0.755404408355003, 0.8656312023878318, 0.9445750230732326,
        0.9894009349916499,
    ]), np.array([
        0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
        0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
        0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
        0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
        0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
        0.027152459411754176,
    ])),
}


def _ranks(counts):
    """Position of each element of np.repeat(x, counts) within its group."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _split(lo, hi, breakpoints):
    """Intervals [lo[j], hi[j]] cut at the breakpoints strictly inside them,
    as a flat piece list (interval of each piece, piece lo, piece hi)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bps = np.asarray(sorted({float(p) for p in breakpoints}), dtype=float)
    first = np.searchsorted(bps, lo, side="right")
    cuts = np.maximum(np.searchsorted(bps, hi, side="left") - first, 0)
    owner = np.repeat(np.arange(lo.size), cuts + 1)
    k = _ranks(cuts + 1)
    # piece k of interval j runs from its cut k-1 to its cut k, where cut -1
    # is lo and the last cut is hi
    knots = np.append(bps, 0.0)
    idx = first[owner] + k
    left = np.where(k == 0, lo[owner], knots[idx - 1])
    right = np.where(k == cuts[owner], hi[owner], knots[idx])
    return owner, left, right


def log_gauss_blocks(lo, hi, n=16):
    """Nodes and weights of one n-point Gauss-Legendre block in log space
    per interval [lo[j], hi[j]]; both arrays have shape (len(lo), n)."""
    base_x, base_w = _GL[n]
    t0, t1 = np.log(lo), np.log(hi)
    mid = 0.5 * (t0 + t1)[:, None]
    half = 0.5 * (t1 - t0)[:, None]
    u = np.exp(mid + half * base_x[None, :])
    return u, half * base_w[None, :] * u


def _linear_gauss_blocks(lo, hi, n):
    """Nodes and weights of one plain n-point Gauss-Legendre block per
    interval [lo[j], hi[j]]; both arrays have shape (len(lo), n)."""
    base_x, base_w = _GL[n]
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    return mid + half * base_x, half * base_w


def _log_integrals(g, a, b, breakpoints, unit):
    """Integral of g over [a[j], b[j]] for every j (0 where b[j] <= a[j]).

    Each interval is split at interior breakpoints and each piece covered
    with one Gauss-Legendre block per octave in log space. g is called as
    g(u, j): u holds one block of nodes per row, and j (one column) the
    interval of each block. A call holds whole units of about _STEP_BLOCKS
    blocks in all, unit[j] (ascending) being the unit of interval j.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(a.shape)
    live = np.flatnonzero(b > a)
    if live.size == 0:
        return out
    bad = live[a[live] <= 0.0]
    if bad.size:
        raise QuadratureError(
            f"invalid log-quadrature interval [{a[bad[0]]}, {b[bad[0]]}]")
    owner, lo, hi = _split(a[live], b[live], breakpoints)
    count = np.maximum(1, np.ceil(np.log2(hi / lo))).astype(int)
    unit = np.asarray(unit)[live][owner]
    blocks = np.bincount(unit, weights=count)
    cuts = np.flatnonzero(np.diff(
        ((np.cumsum(blocks) - blocks) // _STEP_BLOCKS)[unit])) + 1
    sums = np.zeros(live.size)
    for p in map(slice, np.append(0, cuts), np.append(cuts, unit.size)):
        n = count[p]
        k, piece = _ranks(n), np.repeat(owner[p], n)
        left, ratio, n = (np.repeat(x, n) for x in (lo[p], hi[p] / lo[p], n))
        u, w = log_gauss_blocks(left * ratio ** (k / n),
                                left * ratio ** ((k + 1) / n))
        vals = np.asarray(g(u, live[piece, None]), dtype=float)
        sums += np.bincount(piece, weights=np.einsum("ij,ij->i", w, vals),
                            minlength=live.size)
        del u, w, vals                   # before the next step's arrays
    out[live] = sums
    return out


def integrate_log(f, a, b, breakpoints=()):
    """Integral of f over [a, b] with log-spaced Gauss blocks."""
    return float(_log_integrals(lambda u, _: f(u), [a], [b], breakpoints,
                                [0])[0])


def _octave_stop(blocks, min_octaves, rel_tol):
    """Stop rule of octave sums, judged at every octave of their block
    histories (one row per sum, one column per octave): (stop, value), each
    of the shape of blocks. Column j depends on columns 0..j alone.

    Octave j >= min_octaves stops a row when it ends a run of 24 zero blocks
    (the integrand vanishes toward the open end; value: the sum so far), or
    when the block ratio q = b_j / b_{j-1} is below MAX_BLOCK_RATIO and the
    geometric remainder b_j q / (1 - q) is within rel_tol of the sum, or
    moves by less than that with the drift of q since the last octave at
    which a ratio was taken (value: the sum plus the remainder).
    """
    col = np.arange(blocks.shape[1])
    late = col >= min_octaves
    total = np.cumsum(blocks, axis=1)

    zero = blocks == 0.0
    seen = np.cumsum(zero, axis=1)
    run = seen - np.maximum.accumulate(np.where(zero, 0, seen), axis=1)
    stop = (run >= 24) & late

    before = np.column_stack([np.zeros(len(blocks)), blocks[:, :-1]])
    check = (before > 0.0) & (blocks > 0.0) & late
    with np.errstate(invalid="ignore"):   # inf/inf: a diverging row
        ratio = np.divide(blocks, before, out=np.ones_like(blocks),
                          where=check)
    decays = check & (ratio < MAX_BLOCK_RATIO)
    rem = np.divide(blocks * ratio, 1.0 - ratio,
                    out=np.zeros_like(blocks), where=decays)
    ok = decays & (rem <= rel_tol * np.maximum(total, 1e-300))
    # geometric extrapolation is exact once the ratio settles; compare
    # with the ratio of the last checked octave before this one
    last = np.maximum.accumulate(np.where(check, col, -1), axis=1)
    last_before = np.column_stack([np.full(len(blocks), -1), last[:, :-1]])
    ratio_before = np.take_along_axis(ratio, np.maximum(last_before, 0),
                                      axis=1)
    drift = decays & ~ok & (last_before >= 0)
    ok[drift] = (np.abs(ratio - ratio_before)[drift]
                 / (1.0 - ratio[drift]) * rem[drift]
                 <= rel_tol * np.maximum(total + rem, 1e-300)[drift])
    return stop | ok, total + np.where(ok, rem, 0.0)


def _octave_sum(g, start, step, breakpoints, rel_tol, message):
    """Sums of g over geometric octave blocks, one row per start[j]: each
    block `step` times the last (2 toward infinity, 1/2 toward the origin),
    with the remainder extrapolated from the block ratio.

    Octaves are integrated _OCTAVE_BATCH at a time for all rows still
    running, in g(u, j) calls of whole rows (see _log_integrals); each row
    stops at the first new octave at which _octave_stop, judging its block
    history from the 6th octave on, says it is done. A row whose block sequence
    fails to decay within 260 octaves toward infinity or 220 toward the
    origin diverges: DivergentIntegralError "<message> within <n> octaves"
    is raised for the first such row, with its start filled in for a {}
    in the message.
    """
    max_octaves, min_octaves = (260 if step > 1.0 else 220), 6
    start = np.asarray(start, dtype=float)
    out = np.full(start.size, math.inf)
    # octave-major, so that a batch touches only its own columns' pages
    history = np.zeros((max_octaves, start.size))
    rows = np.arange(start.size)
    for j0 in range(0, max_octaves, _OCTAVE_BATCH):
        j1 = min(j0 + _OCTAVE_BATCH, max_octaves)
        edges = start[rows, None] * step ** np.arange(j0, j1 + 1)
        lo, hi = (edges[:, :-1], edges[:, 1:]) if step > 1.0 \
            else (edges[:, 1:], edges[:, :-1])
        history[j0:j1, rows] = _log_integrals(
            lambda u, i: g(u, rows[i // (j1 - j0)]), lo.ravel(), hi.ravel(),
            breakpoints, np.repeat(np.arange(rows.size), j1 - j0)
        ).reshape(rows.size, j1 - j0).T
        stop, value = _octave_stop(history[:j1, rows].T, min_octaves, rel_tol)
        pick = np.arange(rows.size), j0 + np.argmax(stop[:, j0:], axis=1)
        done = stop[pick]
        out[rows[done]] = value[pick][done]
        rows = rows[~done]
        if rows.size == 0:
            return out
    raise DivergentIntegralError(
        f"{message.format(start[rows[0]])} within {max_octaves} octaves",
        partial=float(np.cumsum(history[:, rows[0]])[-1]))


def integrate_tail(f, a, breakpoints=(), rel_tol=1e-11):
    """Integral of f over [a, infinity) for nonnegative power-like-tailed f.

    Sums geometric octave blocks and extrapolates the remainder from the
    last block ratio. Raises DivergentIntegralError when the block sequence
    fails to decay.
    """
    if a <= 0:
        raise QuadratureError(f"tail integral needs a > 0, got {a}")
    return float(_octave_sum(lambda u, _: f(u), [a], 2.0, breakpoints, rel_tol,
                             f"tail integral from {a} did not converge")[0])


def integrate_origin(f, b, breakpoints=(), support_lo=0.0):
    """Integral of f over (0, b] (or [support_lo, b]) with extrapolation at 0."""
    if b <= 0:
        return 0.0
    if support_lo > 0.0:
        return integrate_log(f, support_lo, b, breakpoints)
    return float(_octave_sum(lambda u, _: f(u), [b], 0.5, breakpoints, 1e-11,
                             f"integral near 0 below {b} did not converge")[0])


def stacked_weight(weights):
    """Row-aware weight g(u, k): weights[i] on the rows of u whose group in
    k (one per row, or one for all rows) is i, one call per group."""
    def g(u, k):
        k = np.broadcast_to(np.ravel(k), u.shape[:1])
        if np.all(k == k[0]):        # most calls: no copy of u
            return weights[k[0]](u)
        order = np.argsort(k, kind="stable")
        out = np.empty(u.shape)
        for r in np.split(order, np.flatnonzero(np.diff(k[order])) + 1):
            out[r] = weights[k[r[0]]](u[r])
        return out

    return g


def _flat(groups):
    """The groups concatenated, the group of each element, the cuts."""
    groups = [np.asarray(x, dtype=float).ravel() for x in groups]
    sizes = [x.size for x in groups]
    return (np.concatenate(groups), np.repeat(np.arange(len(groups)), sizes),
            np.cumsum(sizes)[:-1])


def _toward_origin(g, b, lo, breakpoints, rel_tol, message):
    """Integrals of g(u, j) over [lo[j], b[j]] where lo[j] > 0, else over
    (0, b[j]] (an octave sum)."""
    out = np.zeros(b.size)
    cut, free = np.flatnonzero(lo > 0.0), np.flatnonzero(lo <= 0.0)
    out[cut] = _log_integrals(lambda u, j: g(u, cut[j]), lo[cut], b[cut],
                              breakpoints, np.arange(cut.size))
    if free.size:
        out[free] = _octave_sum(lambda u, j: g(u, free[j]), b[free], 0.5,
                                breakpoints, rel_tol, message)
    return out


def segment_integrals(f, edges, breakpoints):
    """Integrals of f over each consecutive [x[j], x[j+1]] of each group's
    edge array x, split at the breakpoints: one array per row group."""
    lo, k, cuts = _flat([x[:-1] for x in edges])
    hi = _flat([x[1:] for x in edges])[0]
    return np.split(_log_integrals(lambda u, j: f(u, k[j]), lo, hi,
                                   breakpoints, np.arange(lo.size)), cuts)


def tail_cumulative(f, us, breakpoints, rel_tol=1e-11):
    """F(u_i) = integral of f over [u_i, infinity) for each row group's
    sorted ascending nodes us[k]: one array per group.

    Per group, one tail integral from its largest node (a row of one octave
    sum for all groups) plus exact Gauss blocks over the gaps, accurate to
    quadrature precision.
    """
    tops = np.asarray([x[-1] for x in us], dtype=float)
    if np.any(tops <= 0.0):
        raise QuadratureError(f"tail integral needs a > 0, got {tops.min()}")
    tops = _octave_sum(f, tops, 2.0, breakpoints, rel_tol,
                       "tail integral from {} did not converge")
    return [top + np.append(np.cumsum(gaps[::-1])[::-1], 0.0) for top, gaps
            in zip(tops, segment_integrals(f, us, breakpoints))]


def origin_cumulative(f, us, breakpoints, support_lo):
    """F(u_i) = integral of f over (0, u_i] (or [support_lo[k], u_i]) for
    each row group's sorted ascending nodes us[k]: the origin-side mirror of
    tail_cumulative."""
    bottoms = _toward_origin(f, np.asarray([x[0] for x in us], dtype=float),
                             np.asarray(support_lo, dtype=float), breakpoints,
                             1e-11,
                             "integral near 0 below {} did not converge")
    return [np.append(bottom, bottom + np.cumsum(gaps)) for bottom, gaps
            in zip(bottoms, segment_integrals(f, us, breakpoints))]


# ---------------------------------------------------------------------------
# Spherically averaged cosine kernel and the radial jump-symbol integral.
# ---------------------------------------------------------------------------

def wave_kernel(s, d):
    """psi_d(s) = 0F1(d/2; -s^2/4) for s > 0: the average of cos(s * w_1)
    over the unit sphere in R^d. Elementary for d = 1 and 3 (DLMF 10.49)."""
    if d == 1:
        return np.cos(s)
    if d == 3:
        return np.sin(s) / s
    # imported on first use: scipy.special is most of the package's import
    # time, and only even d and d >= 5 need it
    from scipy.special import hyp0f1
    return hyp0f1(0.5 * d, -0.25 * s ** 2)


def one_minus_wave_kernel(s, d):
    """1 - psi_d(s), with psi_d the wave_kernel.

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
        out[~small] = 1.0 - wave_kernel(s[~small], d)
    return out


def _accelerated_limit(partial_sums):
    # Iterated averaging of each row of partial sums; converges fast for
    # eventually alternating block sums.
    s = np.asarray(partial_sums, dtype=float)
    while s.shape[-1] > 1:
        s = 0.5 * (s[..., 1:] + s[..., :-1])
    return s[..., 0]


@functools.lru_cache(maxsize=None)
def _wave_functional(d):
    """Read-only nodes s_i on [pi, (_WAVE_BLOCKS + 1) pi] and coefficients
    c_i (Gauss weight x psi_d(s_i) x averaging weight of the block of s_i):
    for every rho, the wave tail from pi/rho is sum_i c_i f(s_i / rho) / rho."""
    k = np.arange(1.0, _WAVE_BLOCKS + 1.0)
    s, w = _linear_gauss_blocks(math.pi * k, math.pi * (k + 1.0), _WAVE_N)
    # the averaged limit is linear in the blocks: block i weighs the limit
    # of the partial sums of the i-th unit block
    weight = _accelerated_limit(np.tri(_WAVE_BLOCKS).T[:, _WAVE_BLOCKS // 2:])
    s, c = s.ravel(), (w * wave_kernel(s, d) * weight[:, None]).ravel()
    s.setflags(write=False)
    c.setflags(write=False)
    return s, c


def _blockwise_wave_tail(f, a, rho, d, breakpoints):
    """oscillatory_tail_integral on each row's own blocks, cut at the
    breakpoints: one f(u, row) call, one kernel call and one bincount per
    chunk."""
    edges = a[:, None] + (math.pi / rho)[:, None] * np.arange(_WAVE_BLOCKS + 1)
    owner, lo, hi = _split(edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                           breakpoints)
    u, w = _linear_gauss_blocks(lo, hi, _WAVE_N)
    row = owner[:, None] // _WAVE_BLOCKS
    vals = wave_kernel(rho[row] * u, d) * np.asarray(f(u, row), dtype=float)
    blocks = np.bincount(owner, weights=np.einsum("ij,ij->i", w, vals),
                         minlength=rho.size * _WAVE_BLOCKS)
    sums = np.cumsum(blocks.reshape(rho.size, _WAVE_BLOCKS), axis=1)
    return _accelerated_limit(sums[:, _WAVE_BLOCKS // 2:])


def oscillatory_tail_integral(f, a, rho, d, breakpoints):
    """Integral of psi_d(rho[j] * u) * f(u, k) over [a[j], infinity) at each
    radius of each row group's radius array rho[k]: one array per group. a
    is one array per group too, or None for a[j] = pi / rho[j].

    Blocks of half-period length pi/rho give (asymptotically) alternating
    contributions; the limit of the partial sums is taken with iterated
    averaging. f must have an integrable power-like tail. Rows run _CHUNK
    at a time. From a = None, rows with no breakpoint in their window use
    _wave_functional, built once per dimension: one f call and one dot
    product per chunk, and a chunk holds one group (the bits of a dot
    product depend on its rows). Other rows take _blockwise_wave_tail.
    """
    rho, k, cuts = _flat(rho)
    if np.any(rho <= 0):
        raise QuadratureError("oscillatory integral needs rho > 0")
    shared = np.zeros(rho.size, dtype=bool)
    if a is None:
        a = math.pi / rho
        pieces = np.bincount(_split(a, a * (_WAVE_BLOCKS + 1), breakpoints)[0])
        shared = pieces == 1         # no breakpoint inside the window
    else:
        a = _flat(a)[0]
    out = np.empty(rho.size)
    by_group = [np.flatnonzero(shared & (k == i)) for i in range(cuts.size + 1)]
    for rows in by_group + [np.flatnonzero(~shared)]:
        for first in range(0, rows.size, _CHUNK):
            j = rows[first:first + _CHUNK]
            if shared[j[0]]:
                s, c = _wave_functional(d)
                out[j] = np.asarray(f(s / rho[j, None], k[j[0]]),
                                    dtype=float) @ c / rho[j]
            else:
                out[j] = _blockwise_wave_tail(lambda u, r: f(u, k[j][r]), a[j],
                                              rho[j], d, breakpoints)
    return np.split(out, cuts)


def jump_symbol_value(f, rho, d, breakpoints, support_lo):
    """Integral of (1 - psi_d(rho*u)) * f(u, k) over (0, infinity) (from
    support_lo[k] where that is positive) at each radius of each row
    group's radius array rho[k]: one array per group.

    This is the radial reduction of int (1 - cos<xi, y>) nu(dy) for a radial
    jump weight: f(u) = S_d * u^{d-1} * n(u) yields the (real) jump part of
    the symbol at |xi| = rho. Splits at the oscillation scale pi/rho into the
    near part below it and the plain and wave tails above it. The near part
    and the plain tail run once per call, for all groups; the wave tail runs
    per group, from pi/rho on a functional built once per dimension (see
    oscillatory_tail_integral). Octave sums stop at relative tolerance 1e-10.
    """
    rhos, k, cuts = _flat(rho)
    out, nonzero = np.zeros(rhos.size), np.flatnonzero(rhos)
    if nonzero.size:
        lo = np.asarray(support_lo, dtype=float)[k[nonzero]]
        out[nonzero] = _jump_symbol_rows(f, rhos[nonzero], k[nonzero], lo, d,
                                         tuple(breakpoints))
    return np.split(out, cuts)


def _jump_symbol_rows(f, rho, k, lo, d, bps):
    """jump_symbol_value at nonzero radii rho, in ascending groups k."""
    u_c = math.pi / rho
    lo_end = np.maximum(lo, 0.0)
    inner = u_c > lo_end             # rows with a part below pi/rho
    near = np.flatnonzero(inner)

    def smooth_part(u, j):
        return one_minus_wave_kernel(rho[near[j]] * u, d) \
            * np.asarray(f(u, k[near[j]]), dtype=float)

    out = np.zeros(rho.size)
    out[near] = _toward_origin(smooth_part, u_c[near], lo[near], bps, 1e-10,
                               "integral near 0 below pi/rho did not converge")
    groups, first = np.unique(k, return_index=True)
    starts = [np.unique(x, return_inverse=True)
              for x in np.split(np.where(inner, u_c, lo_end), first[1:])]
    out += np.concatenate([tail[where] for tail, (_, where) in zip(
        tail_cumulative(lambda u, j: f(u, groups[j]), [x for x, _ in starts],
                        bps, rel_tol=1e-10), starts)])

    def by_group(x, sel):
        return np.split(x[sel], np.searchsorted(k[sel], groups[1:]))

    for sel, a in ((inner, None), (~inner, by_group(lo_end, ~inner))):
        out[sel] -= np.concatenate(oscillatory_tail_integral(
            lambda u, j: f(u, groups[j]), a, by_group(rho, sel), d, bps))
    return out
