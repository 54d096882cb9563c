"""Brute-force references used to certify the optimizers on small instances."""

import math
from typing import NamedTuple

import numpy as np

from .baselines import proposed_scheme
from .beamformer import (
    _projection_gains,
    _theta_from_gains,
    min_snr_from_projections,
)
from .config import Record, SystemConfig, feasibility_slack
from .posopt import _PASS_BUDGET, _first_best, _grid_combination_chunks

MAX_EVALUATIONS = 100_000_000
# relative window for treating grid candidates as tied on the objective
JOINT_TIE_RTOL = 1e-12
# points per round of _best_t_rows' zoom, which shrinks the bracket 16-fold
_ZOOM_POINTS = 33


class GridSpec(Record):
    """Resolution of the joint position/mixing search."""

    position_step: float = 0.05
    t_step: float = 1e-4

    def _check(self):
        if not (self.position_step > 0.0):
            raise ValueError("position_step must be positive")
        if not (0.0 < self.t_step <= 0.01):
            raise ValueError("t_step must lie in (0, 0.01]")
        # snapping to multiples of t_step must land on the mixing grid
        if abs(1.0 / self.t_step - round(1.0 / self.t_step)) > 1e-9 / self.t_step:
            raise ValueError("1 / t_step must be an integer")


class JointOptimum(NamedTuple):
    x: np.ndarray
    t: float
    min_rate: float


def _grid_size(t_step: float) -> int:
    """Points of the mixing grid of spacing t_step on [0, 1]."""
    return int(round(1.0 / t_step)) + 1


def _grid_t(j, size: int):
    """Points j of np.linspace(0.0, 1.0, size) bit for bit: j * (1 / (size - 1)), 1.0 at the end."""
    return np.where(j == size - 1, 1.0, j * (1.0 / (size - 1)))


def _gain_columns(a, b, c, scales) -> list:
    """The gains and both SNR scales as (B, 1) columns, one row per row of gains."""
    return np.broadcast_arrays(*(np.reshape(v, (-1, 1)) for v in (a, b, c, *scales)))


def _scan_grid(a, b, c, s1, s2, size: int) -> tuple:
    """Index and value of one row's first highest theta on the grid, _PASS_BUDGET points at a time.

    posopt._first_best with a window of zero keeps the first grid point that
    reaches the highest theta.
    """
    blocks = (np.arange(start, min(start + _PASS_BUDGET, size)) for start in range(0, size, _PASS_BUDGET))
    theta, j = _first_best(
        blocks, lambda j: (_theta_from_gains(a, b, c, _grid_t(j, size), s1, s2), j), lambda best: 0.0
    )
    return j, theta


def _grid_peaks(a, b, c, scales, t_step: float) -> tuple:
    """Index on the t_step mixing grid of each row's first highest theta, and that theta.

    a, b and c hold one gain per row, scales the two SNR scales (one value
    each, or one per row).  A coarse pass scores every s-th point of the
    T-point grid, s = isqrt(T), and the last point; a fine pass scores the
    at most 2s + 1 points between the best coarse point's two coarse
    neighbours.  Both passes run on blocks of _PASS_BUDGET // (2s + 1) rows,
    one at least.  Theta is the min of a rising and a unimodal branch, so it
    is quasi-concave in t: no coarse point before the first maximizer scores
    as high as the first best coarse point, and a coarse point past the next
    one can hold the maximizer only if the next one scores as high as the
    best.  So a row whose coarse maximum is unique has its first maximizer
    in the bracket; a row that meets it twice (theta quantised flat across
    a stride, as at subnormal SNR scales) is scored on the whole grid by
    _scan_grid.  The grid points are np.linspace(0, 1, T)'s (_grid_t), so
    each row's answer is an argmax over the whole grid, bit for bit.
    """
    size = _grid_size(t_step)
    stride = math.isqrt(size)
    coarse = np.append(np.arange(0, size - 1, stride), size - 1)
    t_coarse = _grid_t(coarse, size)
    steps = np.arange(2 * stride + 1)
    gains = _gain_columns(a, b, c, scales)
    j = np.empty(len(gains[0]), dtype=int)
    peak = np.empty(len(gains[0]))
    # the fine pass is the wider one
    block = max(1, _PASS_BUDGET // steps.size)
    for r in range(0, j.size, block):
        a, b, c, s1, s2 = (g[r : r + block] for g in gains)
        theta = _theta_from_gains(a, b, c, t_coarse, s1, s2)
        m = np.argmax(theta, axis=1)
        rows = np.arange(m.size)
        tied = np.flatnonzero(np.sum(theta == theta[rows, m][:, None], axis=1) > 1)
        lo = coarse[np.maximum(m - 1, 0)]
        hi = coarse[np.minimum(m + 1, coarse.size - 1)]
        # a bracket narrower than 2s + 1 points repeats its last point, which never wins a first argmax
        fine = np.minimum(lo[:, None] + steps, hi[:, None])
        theta = _theta_from_gains(a, b, c, _grid_t(fine, size), s1, s2)
        k = np.argmax(theta, axis=1)
        j[r : r + block], peak[r : r + block] = fine[rows, k], theta[rows, k]
        for i in tied:
            j[r + i], peak[r + i] = _scan_grid(a[i], b[i], c[i], s1[i], s2[i], size)
    return j, peak


def brute_force_joint(cfg: SystemConfig, grid: GridSpec = GridSpec()) -> JointOptimum:
    """Joint grid search over positions and mixing, via the projection route.

    Intended for tiny arrays only: MAX_EVALUATIONS, checked before anything
    is built, bounds the work.  The gains depend only on the spacings and
    are unchanged by mirroring, so only tuples with x_1 = 0 whose spacings
    are no greater than their reverse are scored: every other feasible tuple
    is a translate or a mirror of one of them with the same objective, up to
    summation rounding.  The tuples come in the enumerator's chunks of at
    most _PASS_BUDGET positions, and each gets its peak over the mixing grid
    from _grid_peaks: a coarse pass over the grid, then the bracket around
    each row's best coarse point, which holds the row's first maximizer
    because theta is quasi-concave in t.  The winner is the first tuple, in
    lexicographic order, whose peak lies within JOINT_TIE_RTOL of the
    overall maximum (posopt._first_best, which keeps memory flat in the
    tuple count), and t is its first highest grid value, the one _grid_peaks
    returned for it.  The anchored tuple kept of each mirror pair is the one
    a search over every tuple would pick too.
    The cap counts anchored tuples, mirrors included, times the grid size,
    as the full scan did, so the refused sizes stay the same.
    """
    size = _grid_size(grid.t_step)
    count, chunks = _grid_combination_chunks(cfg.span_l, cfg.d_min, grid.position_step, cfg.n_antennas)
    if count * size > MAX_EVALUATIONS:
        raise ValueError(
            "grid search would exceed the evaluation cap; coarsen the grid"
        )

    def score(pos):
        j, peak = _grid_peaks(*_projection_gains(pos, cfg.kappas), cfg.snr_scales, grid.t_step)
        return peak, pos, j

    theta, x, j = _first_best(chunks, score, lambda best: JOINT_TIE_RTOL * best)
    return JointOptimum(x=x, t=float(_grid_t(j, size)), min_rate=math.log2(1.0 + theta))


def _best_t_rows(a, b, c, scales, t_step: float) -> tuple:
    """Best mixing parameter of each row of gains by dense search over [0, 1].

    a, b, c and scales are as in _grid_peaks, which gives the grid pass: a
    coarse pass over the mixing grid, then every grid point between the best
    coarse point's two coarse neighbours, which gives the grid's first
    maximizer.  The bracket between that grid point's two neighbours is then
    re-gridded with _ZOOM_POINTS points, np.linspace's bit for bit, and again
    around each round's first maximum, until it is at most 1e-15 wide; each
    row zooms on its own bracket, as a call of its own would, in blocks of
    rows under _PASS_BUDGET points.  Theta is the min of a rising and a
    unimodal branch, so it is quasi-concave and each bracket holds a
    maximizer.  Returns the best (t, theta) seen per row, as arrays.  The
    search uses the grid values alone, never the closed form it is there to
    check.
    """
    size = _grid_size(t_step)
    j, theta_best = _grid_peaks(a, b, c, scales, t_step)
    a, b, c, s1, s2 = _gain_columns(a, b, c, scales)
    t_best = _grid_t(j, size)
    lo = _grid_t(np.maximum(j - 1, 0), size)
    hi = _grid_t(np.minimum(j + 1, size - 1), size)
    steps = np.arange(_ZOOM_POINTS, dtype=float)
    block = max(1, _PASS_BUDGET // _ZOOM_POINTS)
    for r in range(0, j.size, block):
        live = r + np.flatnonzero(hi[r : r + block] - lo[r : r + block] > 1e-15)
        while live.size:
            start, stop = lo[live, None], hi[live, None]
            t = start + steps * ((stop - start) / (_ZOOM_POINTS - 1))
            t[:, -1] = stop[:, 0]
            theta = _theta_from_gains(a[live], b[live], c[live], t, s1[live], s2[live])
            k = np.argmax(theta, axis=1)
            rows = np.arange(live.size)
            up = theta[rows, k] > theta_best[live]
            t_best[live[up]] = t[rows, k][up]
            theta_best[live[up]] = theta[rows, k][up]
            lo[live] = t[rows, np.maximum(k - 1, 0)]
            hi[live] = t[rows, np.minimum(k + 1, _ZOOM_POINTS - 1)]
            live = live[hi[live] - lo[live] > 1e-15]
    return t_best, theta_best


def snap_positions_to_grid(x, cfg: SystemConfig, step: float) -> np.ndarray:
    """Nearest feasible grid positions; requires d_min to sit on the grid.

    The top grid point is counted in grid steps, within
    feasibility_slack(span_l / step, step), as in the grid enumerator
    (posopt._grid_combination_chunks), so the snapped positions meet
    validate_positions' user-unit check at any length unit.
    """
    ratio = cfg.d_min / step
    if abs(ratio - round(ratio)) > 1e-6:
        raise ValueError("d_min must be an integer multiple of the grid step")
    x = np.asarray(x, dtype=float)
    n = x.size
    offsets = cfg.d_min * np.arange(n)
    # rounding each slack half to even can make it decrease: the running max keeps d_min
    u = np.maximum.accumulate(np.round((x - offsets) / step)) * step
    # the top slack grid point, counted in grid steps as the grid enumerator counts its last point
    top = math.floor(cfg.span_l / step - (n - 1) * ratio + feasibility_slack(cfg.span_l / step, step))
    np.clip(u, 0.0, max(top, 0) * step, out=u)
    return u + offsets


def snap_mixing_to_grid(t: float, t_step: float) -> float:
    return min(max(round(t / t_step) * t_step, 0.0), 1.0)


def resolution_bound(cfg: SystemConfig, grid: GridSpec, theta_ref: float) -> float:
    """Worst-case rate loss of snapping an optimum onto the search grid.

    Combines the position Lipschitz constant of the correlation, the square
    root moduli of continuity of both complement terms, and the mixing-grid
    spacing, then maps the SNR increment into rate units at theta_ref.
    """
    k = abs(cfg.kappa)
    n = cfg.n_antennas
    hx, ht = grid.position_step, grid.t_step
    df = k * n * hx / 2.0
    dg_pos = (df + math.sqrt(2.0 * n * df)) / math.sqrt(n)
    dg_mix = math.sqrt(n) * (ht + math.sqrt(2.0 * ht))
    dy2 = 2.0 * cfg.snr_scales[1] * math.sqrt(n) * (dg_pos + dg_mix)
    dy1 = 2.0 * cfg.snr_scales[0] * n * ht
    return max(dy1, dy2) / ((1.0 + max(theta_ref, 0.0)) * math.log(2.0))


def joint_vs_decoupled(
    cfg: SystemConfig,
    grid: GridSpec = GridSpec(),
) -> dict:
    """Compare the proposed scheme against the joint grid optimum.

    The decoupled solution is proposed_scheme's positions and mixing, the
    ones optimize reports, snapped onto the search grid; the joint optimum
    can then exceed it by at most the grid resolution bound if correlation
    maximization alone is enough to pick the positions.  That bound is loose,
    so the check also needs the unsnapped decoupled solution to reach the
    joint grid optimum: joint_excess_rel, the joint theta's relative excess
    over it, must be at most 1e-9.
    """
    joint = brute_force_joint(cfg, grid)
    decoupled = proposed_scheme(cfg)
    x_dec, t_dec = decoupled.x, decoupled.w.t
    theta_dec = min_snr_from_projections(t_dec, x_dec, cfg)
    x_snap = snap_positions_to_grid(x_dec, cfg, grid.position_step)
    t_snap = snap_mixing_to_grid(t_dec, grid.t_step)
    theta_snap = min_snr_from_projections(t_snap, x_snap, cfg)
    theta_joint = min_snr_from_projections(joint.t, joint.x, cfg)
    eps = resolution_bound(cfg, grid, min(theta_joint, theta_snap))
    gap = joint.min_rate - math.log2(1.0 + theta_snap)
    excess = (theta_joint - theta_dec) / theta_joint if theta_joint > 0.0 else 0.0
    return {
        "rate_joint": joint.min_rate,
        "rate_decoupled": math.log2(1.0 + theta_dec),
        "rate_decoupled_snapped": math.log2(1.0 + theta_snap),
        "epsilon_rate": eps,
        "gap_rate": gap,
        "joint_excess_rel": excess,
        "passed": bool(-1e-9 <= gap <= eps + 1e-12 and excess <= 1e-9),
        "x_joint": joint.x.tolist(),
        "t_joint": joint.t,
        "x_decoupled": x_dec.tolist(),
        "t_decoupled": t_dec,
    }
