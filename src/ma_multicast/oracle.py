"""Brute-force references used to certify the optimizers on small instances."""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beamformer import (
    _projection_gains,
    _theta_from_gains,
    optimize_mixing,
    min_snr_from_projections,
    projection_coefficients,
    theta_coefficients,
)
from .posopt import _grid_combination_chunks, correlation, correlation_objective, multi_start_sca
from .sysmodel import FEASIBILITY_TOL, SystemConfig, user_kappas

MAX_EVALUATIONS = 100_000_000
JOINT_MAX_ANTENNAS = 3
# relative window for treating grid candidates as tied on the objective
JOINT_TIE_RTOL = 1e-12
# Tuples per enumerator chunk and rows of them brute_force_joint scores at
# once, and mixing values grid_best_t scores at once: each scratch array of a
# block stays within a few hundred kB, in cache, and neither the per-element
# arithmetic nor the winner depends on any of the three.
_JOINT_CHUNK = 128
_JOINT_ROWS = 4
_T_BLOCK = 16_384
# points per round of grid_best_t's zoom, which shrinks the bracket 16-fold
_ZOOM_POINTS = 33


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the joint position/mixing search."""

    position_step: float = 0.05
    t_step: float = 1e-4

    def __post_init__(self):
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


@functools.lru_cache(maxsize=4)
def _mixing_grid(t_step: float) -> tuple:
    """Read-only mixing grid of spacing t_step on [0, 1] and its sqrt(max(1 - t^2, 0))."""
    t = np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)
    root = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    t.flags.writeable = False
    root.flags.writeable = False
    return t, root


def brute_force_joint(cfg: SystemConfig, grid: GridSpec = GridSpec()) -> JointOptimum:
    """Joint grid search over positions and mixing, via the projection route.

    Intended for tiny arrays only.  The gains depend only on the spacings and
    are unchanged by mirroring, so only tuples with x_1 = 0 whose spacings
    are no greater than their reverse are scored: every other feasible tuple
    is a translate or a mirror of one of them with the same objective, up to
    summation rounding.  Every tuple is scored against the whole mixing
    grid, a few rows at a time, and keeps its peak.  The winner is then the
    first tuple, in lexicographic order, whose peak lies within JOINT_TIE_RTOL
    of the overall maximum, and its t the first grid value within the same
    window of that tuple's peak; the anchored tuple kept of each mirror pair
    is the one a search over every tuple would pick too.  The MAX_EVALUATIONS
    cap counts anchored tuples, mirrors included, times mixing values.
    """
    n = cfg.n_antennas
    if n > JOINT_MAX_ANTENNAS:
        raise ValueError(f"brute force is capped at {JOINT_MAX_ANTENNAS} antennas")
    count, chunks = _grid_combination_chunks(
        cfg.span_l, cfg.d_min, grid.position_step, n, chunk=_JOINT_CHUNK
    )
    t_grid, root = _mixing_grid(grid.t_step)
    if count * t_grid.size > MAX_EVALUATIONS:
        raise ValueError(
            "grid search would exceed the evaluation cap; coarsen the grid"
        )
    out = np.empty((_JOINT_ROWS, t_grid.size))
    tmp = np.empty_like(out)
    kappas, scales = user_kappas(cfg), (cfg.snr_scale(0), cfg.snr_scale(1))
    positions, gains, peaks = [], [], []
    for pos in chunks:
        a, b, c = (g[:, None] for g in _projection_gains(pos, kappas))
        for i in range(0, len(pos), _JOINT_ROWS):
            k = min(_JOINT_ROWS, len(pos) - i)
            rows = slice(i, i + k)
            theta = _theta_from_gains(
                a[rows], b[rows], c[rows], t_grid, *scales, root, out[:k], tmp[:k]
            )
            peaks.append(theta.max(axis=1))
        positions.append(pos)
        gains.append(np.hstack([a, b, c]))
    peaks = np.concatenate(peaks)
    best = float(peaks.max())
    tol = JOINT_TIE_RTOL * best
    j = int(np.flatnonzero(peaks >= best - tol)[0])
    a, b, c = np.concatenate(gains)[j]
    theta = _theta_from_gains(a, b, c, t_grid, *scales, root, out[0], tmp[0])
    t = float(t_grid[int(np.flatnonzero(theta >= peaks[j] - tol)[0])])
    x = np.concatenate(positions)[j]
    return JointOptimum(x=x, t=t, min_rate=math.log2(1.0 + float(peaks[j])))


def _grid_argmax(a, b, c, cfg: SystemConfig, t_step: float) -> tuple:
    """Index into _mixing_grid(t_step) of the first highest theta, and that theta.

    Scores the grid in blocks and keeps the first point of the highest value,
    as one argmax over the whole grid would.
    """
    t_grid, root = _mixing_grid(t_step)
    scales = cfg.snr_scale(0), cfg.snr_scale(1)
    out = np.empty(min(_T_BLOCK, t_grid.size))
    tmp = np.empty_like(out)
    j_best, theta_best = None, -math.inf
    for start in range(0, t_grid.size, _T_BLOCK):
        block = slice(start, start + _T_BLOCK)
        k = t_grid[block].size
        theta = _theta_from_gains(a, b, c, t_grid[block], *scales, root[block], out[:k], tmp[:k])
        j = int(np.argmax(theta))
        if theta[j] > theta_best:
            j_best, theta_best = start + j, float(theta[j])
    return j_best, theta_best


def grid_best_t(x, cfg: SystemConfig, t_step: float = 1e-4) -> tuple:
    """Best mixing parameter for fixed positions by dense search over [0, 1].

    After the grid pass, the bracket between the winning grid point's two
    neighbours is re-gridded with _ZOOM_POINTS points, and again around each
    round's first maximum, until it is at most 1e-15 wide.  Theta is the min
    of a rising and a unimodal branch, so it is quasi-concave and each
    bracket holds a maximizer.  Returns the best (t, theta) seen.
    """
    if not (0.0 < t_step <= 0.01):
        raise ValueError("t_step must lie in (0, 0.01]")
    a, b, c = projection_coefficients(x, cfg)
    t_grid = _mixing_grid(t_step)[0]
    j, theta_best = _grid_argmax(a, b, c, cfg, t_step)
    t_best = float(t_grid[j])
    lo, hi = t_grid[max(j - 1, 0)], t_grid[min(j + 1, t_grid.size - 1)]
    while hi - lo > 1e-15:
        t = np.linspace(lo, hi, _ZOOM_POINTS)
        theta = _theta_from_gains(a, b, c, t, cfg.snr_scale(0), cfg.snr_scale(1))
        k = int(np.argmax(theta))
        if theta[k] > theta_best:
            t_best, theta_best = float(t[k]), float(theta[k])
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, _ZOOM_POINTS - 1)]
    return t_best, theta_best


def snap_positions_to_grid(x, cfg: SystemConfig, step: float) -> np.ndarray:
    """Nearest feasible grid positions; requires d_min to sit on the grid."""
    ratio = cfg.d_min / step
    if abs(ratio - round(ratio)) > 1e-6:
        raise ValueError("d_min must be an integer multiple of the grid step")
    x = np.asarray(x, dtype=float)
    n = x.size
    offsets = cfg.d_min * np.arange(n)
    # rounding each slack half to even can make it decrease: the running max keeps d_min
    u = np.maximum.accumulate(np.round((x - offsets) / step)) * step
    hi = cfg.span_l - (n - 1) * cfg.d_min
    hi_grid = math.floor(hi / step + FEASIBILITY_TOL) * step
    np.clip(u, 0.0, max(hi_grid, 0.0), out=u)
    return u + offsets


def snap_mixing_to_grid(t: float, t_step: float) -> float:
    return min(max(round(t / t_step) * t_step, 0.0), 1.0)


def resolution_bound(cfg: SystemConfig, grid: GridSpec, theta_ref: float) -> float:
    """Worst-case rate loss of snapping an optimum onto the search grid.

    Combines the position Lipschitz constant of the correlation, the square
    root moduli of continuity of both complement terms, and the mixing-grid
    spacing, then maps the SNR increment into rate units at theta_ref.
    """
    obj = correlation_objective(cfg)
    k = abs(obj.kappa)
    n = cfg.n_antennas
    hx, ht = grid.position_step, grid.t_step
    df = k * n * hx / 2.0
    dg_pos = (df + math.sqrt(2.0 * n * df)) / math.sqrt(n)
    dg_mix = math.sqrt(n) * (ht + math.sqrt(2.0 * ht))
    dy2 = 2.0 * cfg.snr_scale(1) * math.sqrt(n) * (dg_pos + dg_mix)
    dy1 = 2.0 * cfg.snr_scale(0) * n * ht
    return max(dy1, dy2) / ((1.0 + max(theta_ref, 0.0)) * math.log(2.0))


def joint_vs_decoupled(
    cfg: SystemConfig,
    grid: GridSpec = GridSpec(),
) -> dict:
    """Compare the decoupled pipeline against the joint grid optimum.

    The decoupled solution is snapped onto the search grid; the joint optimum
    can then exceed it by at most the grid resolution bound if correlation
    maximization alone is enough to pick the positions.
    """
    joint = brute_force_joint(cfg, grid)
    x_dec, _ = multi_start_sca(cfg)
    obj = correlation_objective(cfg)
    f = correlation(x_dec, obj)
    t_dec, _label = optimize_mixing(theta_coefficients(f, cfg), cfg.n_antennas)
    theta_dec = min_snr_from_projections(t_dec, x_dec, cfg)
    x_snap = snap_positions_to_grid(x_dec, cfg, grid.position_step)
    t_snap = snap_mixing_to_grid(t_dec, grid.t_step)
    theta_snap = min_snr_from_projections(t_snap, x_snap, cfg)
    theta_joint = min_snr_from_projections(joint.t, joint.x, cfg)
    eps = resolution_bound(cfg, grid, min(theta_joint, theta_snap))
    gap = joint.min_rate - math.log2(1.0 + theta_snap)
    return {
        "rate_joint": joint.min_rate,
        "rate_decoupled": math.log2(1.0 + theta_dec),
        "rate_decoupled_snapped": math.log2(1.0 + theta_snap),
        "epsilon_rate": eps,
        "gap_rate": gap,
        "passed": bool(-1e-9 <= gap <= eps + 1e-12),
        "x_joint": joint.x.tolist(),
        "t_joint": joint.t,
        "x_decoupled": np.asarray(x_dec, dtype=float).tolist(),
        "t_decoupled": t_dec,
    }
