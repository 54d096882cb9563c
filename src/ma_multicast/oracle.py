"""Brute-force references used to certify the optimizers on small instances."""

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
from .sysmodel import FEASIBILITY_TOL, SystemConfig

MAX_EVALUATIONS = 100_000_000
# relative window for treating grid candidates as tied on the objective
JOINT_TIE_RTOL = 1e-12
# Rows of tuples brute_force_joint scores at once, and mixing values
# grid_best_t scores at once: each array of a block stays within a few
# hundred kB, in cache, and per-element arithmetic does not depend on either.
_JOINT_CHUNK = 8
_T_BLOCK = 16_384
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the joint position/mixing search."""

    position_step: float = 0.05
    t_step: float = 1e-4
    n_max: int = 3

    def __post_init__(self):
        if not (self.position_step > 0.0):
            raise ValueError("position_step must be positive")
        if not (0.0 < self.t_step <= 0.01):
            raise ValueError("t_step must lie in (0, 0.01]")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


class JointOptimum(NamedTuple):
    x: np.ndarray
    t: float
    min_rate: float


def _mixing_grid(t_step: float) -> np.ndarray:
    return np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)


def brute_force_joint(cfg: SystemConfig, grid: GridSpec = GridSpec()) -> JointOptimum:
    """Joint grid search over positions and mixing, via the projection route.

    Intended for tiny arrays only.  The gains depend only on the spacings and
    are unchanged by mirroring, so only tuples with x_1 = 0 whose spacings
    are no greater than their reverse are scored: every other feasible tuple
    is a translate or a mirror of one of them with the same objective, up to
    summation rounding.  Candidates within a small relative window count as
    equal and the lexicographically first position tuple (then the smallest
    t) wins, which is the tuple a search over every tuple would pick too.
    Tuples are scored a few rows at a time against the whole mixing grid.
    The MAX_EVALUATIONS cap counts anchored tuples, mirrors included, times
    mixing values.
    """
    n = cfg.n_antennas
    if n > grid.n_max:
        raise ValueError(f"brute force is capped at n_max = {grid.n_max} antennas")
    count, chunks = _grid_combination_chunks(
        cfg.span_l, cfg.d_min, grid.position_step, n, chunk=_JOINT_CHUNK
    )
    t_grid = _mixing_grid(grid.t_step)
    if count * t_grid.size > MAX_EVALUATIONS:
        raise ValueError(
            "grid search would exceed the evaluation cap; coarsen the grid"
        )
    best_theta = -math.inf
    best_x = None
    best_t = None
    for pos in chunks:
        a, b, c = _projection_gains(pos, cfg)
        theta = _theta_from_gains(a[:, None], b[:, None], c[:, None], t_grid, cfg)
        row_best = theta.max(axis=1)
        tol = JOINT_TIE_RTOL * max(float(row_best.max()), 1.0)
        j = int(np.flatnonzero(row_best >= row_best.max() - tol)[0])
        if row_best[j] > best_theta + JOINT_TIE_RTOL * max(best_theta, 1.0):
            best_theta = float(row_best[j])
            best_x = pos[j].copy()
            row = theta[j]
            best_t = float(t_grid[int(np.flatnonzero(row >= row.max() - tol)[0])])
    return JointOptimum(x=best_x, t=best_t, min_rate=math.log2(1.0 + best_theta))


def grid_best_t(x, cfg: SystemConfig, t_step: float = 1e-4, refine: bool = True) -> tuple:
    """Best mixing parameter for fixed positions by dense search over [0, 1].

    The grid pass scores the grid in blocks and keeps the first grid point
    of the highest value, as one argmax over the whole grid would.  The min
    of a rising and a falling branch is unimodal, so after the grid pass a
    golden-section polish inside the winning bracket pins the kink down to
    machine precision; pass refine=False for the raw grid argmax.
    """
    if not (0.0 < t_step <= 0.01):
        raise ValueError("t_step must lie in (0, 0.01]")
    a, b, c = projection_coefficients(x, cfg)

    def theta_of(t):
        return float(_theta_from_gains(a, b, c, t, cfg))

    t_grid = _mixing_grid(t_step)
    t_best, theta_best = None, -math.inf
    for start in range(0, t_grid.size, _T_BLOCK):
        block = t_grid[start:start + _T_BLOCK]
        theta = _theta_from_gains(a, b, c, block, cfg)
        j = int(np.argmax(theta))
        if theta[j] > theta_best:
            t_best, theta_best = float(block[j]), float(theta[j])
    if not refine:
        return t_best, theta_best
    lo = max(t_best - t_step, 0.0)
    hi = min(t_best + t_step, 1.0)
    t_lo, t_hi = lo, hi
    t_c = t_hi - _INVPHI * (t_hi - t_lo)
    t_d = t_lo + _INVPHI * (t_hi - t_lo)
    f_c = theta_of(t_c)
    f_d = theta_of(t_d)
    for _ in range(200):
        if t_hi - t_lo <= 1e-15:
            break
        if f_c > f_d:
            t_hi, t_d, f_d = t_d, t_c, f_c
            t_c = t_hi - _INVPHI * (t_hi - t_lo)
            f_c = theta_of(t_c)
        else:
            t_lo, t_c, f_c = t_c, t_d, f_d
            t_d = t_lo + _INVPHI * (t_hi - t_lo)
            f_d = theta_of(t_d)
        cand_t, cand_f = (t_c, f_c) if f_c >= f_d else (t_d, f_d)
        if cand_f > theta_best:
            t_best, theta_best = cand_t, cand_f
    return t_best, theta_best


def snap_positions_to_grid(x, cfg: SystemConfig, step: float) -> np.ndarray:
    """Nearest feasible grid positions; requires d_min to sit on the grid."""
    ratio = cfg.d_min / step
    if abs(ratio - round(ratio)) > 1e-6:
        raise ValueError("d_min must be an integer multiple of the grid step")
    x = np.asarray(x, dtype=float)
    n = x.size
    offsets = cfg.d_min * np.arange(n)
    u = np.round((x - offsets) / step) * step
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
