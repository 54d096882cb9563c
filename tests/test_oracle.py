"""Tests for the brute-force joint oracle and its grid helpers."""

import itertools
import math

import numpy as np
import pytest

from ma_multicast import (
    GridSpec,
    SystemConfig,
    brute_force_joint,
    closed_form_beamformer,
    grid_best_t,
    joint_vs_decoupled,
    min_snr_from_projections,
    random_positions,
    resolution_bound,
    snap_mixing_to_grid,
    snap_positions_to_grid,
    validate_positions,
)
from ma_multicast.posopt import _grid_combination_chunks
from ma_multicast.sysmodel import FEASIBILITY_TOL


def enumerate_pairs(cfg, step, t_step):
    """Scalar re-enumeration of the joint search for two antennas.

    Walks grid pairs and mixing values in the same lexicographic order as the
    vectorized search, with the same tie window, but scores each candidate
    through the scalar projection evaluator instead of batched array math.
    """
    m = int(math.floor(cfg.span_l / step + 1e-9)) + 1
    t_grid = np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)
    best_theta, best_x, best_t = -math.inf, None, None
    for i in range(m):
        for j in range(i + 1, m):
            xi, xj = step * i, step * j
            if xj - xi < cfg.d_min - 1e-9:
                continue
            x = np.array([xi, xj])
            for t in t_grid:
                theta = min_snr_from_projections(float(t), x, cfg)
                if theta > best_theta + 1e-12 * max(best_theta, 1.0):
                    best_theta, best_x, best_t = theta, x, float(t)
    return best_theta, best_x, best_t


def enumerate_joint(cfg, step, t_step):
    """Full-grid joint search through the correlation formula, in numpy only.

    Scores every feasible tuple of the grid, every translate included, with
    b = |h1^H h2| / sqrt(n) and c = sqrt(n - b^2) in place of explicit
    projections.  Keeps the lexicographically first tuple, then the smallest
    t, within the same relative tie window as the vectorized search.
    """
    n = cfg.n_antennas
    values = step * np.arange(int(math.floor(cfg.span_l / step + 1e-9)) + 1)
    x = np.array(
        [c for c in itertools.combinations(values, n) if np.all(np.diff(c) >= cfg.d_min - 1e-9)]
    )
    k1, k2 = (2.0 * math.pi / cfg.wavelength * math.sin(th) for th in cfg.theta_su)
    b = np.abs(np.exp(1j * (k2 - k1) * x).sum(axis=1)) / math.sqrt(n)
    c = np.sqrt(np.maximum(n - b * b, 0.0))
    t = np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)
    y1 = cfg.snr_scale(0) * n * t * t
    y2 = cfg.snr_scale(1) * (b[:, None] * t + c[:, None] * np.sqrt(1.0 - t * t)) ** 2
    theta = np.minimum(y1, y2)
    rows = theta.max(axis=1)
    tol = 1e-12 * max(rows.max(), 1.0)
    i = int(np.flatnonzero(rows >= rows.max() - tol)[0])
    j = int(np.flatnonzero(theta[i] >= rows[i] - tol)[0])
    return x[i], float(t[j]), math.log2(1.0 + rows[i])


# ---------------------------------------------------------------------------
# GridSpec and guard rails


def test_grid_spec_defaults_and_validation():
    grid = GridSpec()
    assert grid.position_step == 0.05
    assert grid.t_step == 1e-4
    assert grid.n_max == 3
    with pytest.raises(ValueError):
        GridSpec(position_step=0.0)
    with pytest.raises(ValueError):
        GridSpec(t_step=0.0)
    with pytest.raises(ValueError):
        GridSpec(t_step=0.02)
    with pytest.raises(ValueError):
        GridSpec(n_max=0)


def test_brute_force_rejects_large_arrays():
    with pytest.raises(ValueError, match="n_max"):
        brute_force_joint(SystemConfig(), GridSpec())


def test_brute_force_evaluation_cap():
    # C(182, 2) = 16471 anchored tuples times 10001 mixing values exceed the cap
    cfg = SystemConfig(n_antennas=3, span_l=10.0)
    with pytest.raises(ValueError, match="cap"):
        brute_force_joint(cfg, GridSpec())


def test_brute_force_infeasible_grid():
    # config is feasible but a 0.4 grid leaves no room for two 0.5 gaps
    cfg = SystemConfig(n_antennas=3, span_l=1.0)
    with pytest.raises(ValueError, match="feasible"):
        brute_force_joint(cfg, GridSpec(position_step=0.4, t_step=0.01))


# ---------------------------------------------------------------------------
# Search results


def test_brute_force_matches_scalar_enumeration():
    cfg = SystemConfig(n_antennas=2, span_l=2.0)
    got = brute_force_joint(cfg, GridSpec(position_step=0.25, t_step=0.01, n_max=2))
    theta, x, t = enumerate_pairs(cfg, 0.25, 0.01)
    assert np.allclose(got.x, x, atol=1e-12)
    assert abs(got.t - t) <= 1e-12
    assert got.min_rate == pytest.approx(math.log2(1.0 + theta), rel=1e-10)


def test_brute_force_finds_full_correlation_spacing():
    # sin separation 0.4 puts the fully aligned spacing 2.5 on the 0.05 grid
    cfg = SystemConfig(n_antennas=2, span_l=3.0, theta_su=(0.0, math.asin(0.4)))
    got = brute_force_joint(cfg, GridSpec(position_step=0.05, t_step=1e-3, n_max=2))
    # only the x_1 = 0 translate of the optimal spacing is scored, and it is
    # the first of its tied translates, so a full-grid search keeps it too
    assert np.allclose(got.x, [0.0, 2.5], atol=1e-9)
    assert got.t == pytest.approx(1.0, abs=1e-12)
    expect = math.log2(1.0 + 2.0 * cfg.snr_scale(0))
    assert got.min_rate == pytest.approx(expect, rel=1e-9)


# four random angle pairs, then matching sines: there every tuple is fully
# correlated, all of them tie, and the first full-grid tuple must win
JOINT_ANGLE_PAIRS = [tuple(p) for p in np.random.default_rng(5).uniform(0.0, math.pi, (4, 2))]
JOINT_ANGLE_PAIRS.append((0.8, math.pi - 0.8))


@pytest.mark.parametrize("angles", JOINT_ANGLE_PAIRS)
@pytest.mark.parametrize("n, step", [(2, 0.25), (2, 0.1), (3, 0.25), (3, 0.1)])
def test_brute_force_matches_full_grid_reference(n, step, angles):
    cfg = SystemConfig(n_antennas=n, span_l=2.0, theta_su=angles)
    got = brute_force_joint(cfg, GridSpec(position_step=step, t_step=0.01, n_max=3))
    x, t, rate = enumerate_joint(cfg, step, 0.01)
    assert np.allclose(got.x, x, atol=1e-12)
    assert abs(got.t - t) <= 1e-12
    assert got.min_rate == pytest.approx(rate, rel=1e-10)


def test_brute_force_result_is_feasible():
    cfg = SystemConfig(n_antennas=2, span_l=2.0)
    got = brute_force_joint(cfg, GridSpec(position_step=0.25, t_step=0.01, n_max=2))
    validate_positions(got.x, cfg.span_l, cfg.d_min)
    assert 0.0 <= got.t <= 1.0


def test_oracle_self_consistency_at_optimum():
    # rerunning the mixing search at the winning positions reproduces the rate
    cfg = SystemConfig(n_antennas=2, span_l=2.0)
    got = brute_force_joint(cfg, GridSpec(position_step=0.25, t_step=0.01, n_max=2))
    t_best, theta_best = grid_best_t(got.x, cfg, t_step=0.01, refine=False)
    assert math.log2(1.0 + theta_best) == pytest.approx(got.min_rate, rel=1e-12)
    assert t_best == pytest.approx(got.t, abs=1e-12)


# ---------------------------------------------------------------------------
# Mixing search for fixed positions


def test_grid_best_t_refinement_matches_closed_form():
    cfg = SystemConfig()
    x = np.linspace(0.0, cfg.span_l, cfg.n_antennas)
    bf = closed_form_beamformer(x, cfg)
    theta_closed = min_snr_from_projections(bf.t, x, cfg)
    t_raw, theta_raw = grid_best_t(x, cfg, t_step=1e-3, refine=False)
    t_ref, theta_ref = grid_best_t(x, cfg, t_step=1e-3)
    assert theta_ref >= theta_raw - 1e-12
    assert theta_ref <= theta_closed * (1.0 + 1e-12) + 1e-12
    assert theta_ref == pytest.approx(theta_closed, rel=1e-9)
    assert t_ref == pytest.approx(bf.t, abs=1e-6)
    assert abs(t_raw - bf.t) <= 1e-3 + 1e-12


def test_grid_best_t_rejects_bad_steps():
    cfg = SystemConfig()
    x = np.linspace(0.0, cfg.span_l, cfg.n_antennas)
    for bad in (0.0, -1e-3, 0.05):
        with pytest.raises(ValueError):
            grid_best_t(x, cfg, t_step=bad)


# ---------------------------------------------------------------------------
# Grid snapping


def test_snap_positions_round_trip():
    cfg = SystemConfig()
    rng = np.random.default_rng(7)
    step = 0.05
    for _ in range(50):
        x = random_positions(cfg, rng)
        snapped = snap_positions_to_grid(x, cfg, step)
        validate_positions(snapped, cfg.span_l, cfg.d_min)
        assert np.max(np.abs(snapped - x)) <= step + 1e-9
        u = (snapped - cfg.d_min * np.arange(cfg.n_antennas)) / step
        assert np.allclose(u, np.round(u), atol=1e-6)


def test_snap_positions_requires_commensurate_grid():
    cfg = SystemConfig()
    with pytest.raises(ValueError, match="multiple"):
        snap_positions_to_grid(np.linspace(0.0, 4.0, 5), cfg, 0.3)


def test_snap_mixing_values():
    assert snap_mixing_to_grid(0.123449, 1e-4) == pytest.approx(0.1234, abs=1e-12)
    assert snap_mixing_to_grid(-0.3, 0.1) == 0.0
    assert snap_mixing_to_grid(1.7, 0.1) == 1.0
    assert snap_mixing_to_grid(1.0, 1e-4) == 1.0
    assert snap_mixing_to_grid(0.5, 0.25) == 0.5


# ---------------------------------------------------------------------------
# Resolution bound and the separation certificate


def test_resolution_bound_monotone():
    cfg = SystemConfig()
    coarse = resolution_bound(cfg, GridSpec(), 0.0)
    fine = resolution_bound(cfg, GridSpec(position_step=0.01, t_step=1e-5), 0.0)
    assert coarse > fine > 0.0
    # a higher reference SNR shrinks the rate increment per unit of SNR slack
    assert resolution_bound(cfg, GridSpec(), 1e6) < coarse


def test_joint_vs_decoupled_certificate():
    cfg = SystemConfig(n_antennas=2, span_l=2.0)
    report = joint_vs_decoupled(cfg, GridSpec())
    assert report["passed"]
    assert -1e-9 <= report["gap_rate"] <= report["epsilon_rate"] + 1e-12
    assert report["rate_joint"] == pytest.approx(
        report["gap_rate"] + report["rate_decoupled_snapped"], abs=1e-12
    )
    for key in ("x_joint", "t_joint", "x_decoupled", "t_decoupled", "rate_decoupled"):
        assert key in report


# ---------------------------------------------------------------------------
# Tuple enumeration plumbing


def reference_tuples(span_l, d_min, step, n):
    """Plain itertools enumeration filtered by the float spacing check."""
    values = step * np.arange(int(math.floor(span_l / step + 1e-9)) + 1)
    return [
        combo
        for combo in itertools.combinations(values, n)
        if all(b - a >= d_min - FEASIBILITY_TOL for a, b in zip(combo, combo[1:]))
    ]


def test_feasible_tuple_count_matches_binomial():
    count, chunks = _grid_combination_chunks(3.0, 1.0, 0.5, 3, chunk=128)
    tuples = [tuple(row) for block in chunks for row in block]
    # x_1 = 0 and a two-slot gap per adjacent pair leave C(4, 2) choices
    assert count == len(tuples) == math.comb(4, 2)
    assert tuples == sorted(tuples)
    assert all(a == 0.0 and b - a >= 1.0 - 1e-9 and c - b >= 1.0 - 1e-9 for a, b, c in tuples)
    loose_count, loose = _grid_combination_chunks(3.0, 0.5, 0.5, 3, chunk=128)
    assert loose_count == sum(len(block) for block in loose) == math.comb(6, 2)
    with pytest.raises(ValueError, match="no feasible"):
        _grid_combination_chunks(1.0, 0.5, 0.5, 4, chunk=128)


def test_grid_chunks_preserve_order():
    _, whole = _grid_combination_chunks(3.0, 1.0, 0.5, 3, chunk=128)
    _, parts = _grid_combination_chunks(3.0, 1.0, 0.5, 3, chunk=4)
    parts = list(parts)
    assert [len(p) for p in parts] == [4, 2]
    assert np.array_equal(np.vstack(parts), np.vstack(list(whole)))


# span 2 and d_min 0.5 are the grids `validate` hands the joint oracle; each id
# names the grid by its full tuple count
VALIDATION_GRIDS = [
    pytest.param(n, step, full, anchored, id=f"{n}-{step}-{full}")
    for n, step, full, anchored in [
        (2, 0.05, 496, 31), (2, 0.1, 136, 16), (3, 0.05, 1771, 231), (3, 0.1, 286, 66)
    ]
]


@pytest.mark.parametrize("n, step, full, anchored", VALIDATION_GRIDS)
def test_grid_enumerator_matches_itertools_on_validation_grids(n, step, full, anchored):
    want = reference_tuples(2.0, 0.5, step, n)
    count, chunks = _grid_combination_chunks(2.0, 0.5, step, n, chunk=128)
    got = np.vstack(list(chunks))
    assert len(want) == full
    assert count == len(got) == anchored
    assert np.array_equal(got, np.asarray([c for c in want if c[0] == 0.0]))


@pytest.mark.parametrize("n, step, full, anchored", VALIDATION_GRIDS)
def test_anchored_tuples_cover_each_spacing_once(n, step, full, anchored):
    full_idx = np.rint(np.asarray(reference_tuples(2.0, 0.5, step, n)) / step).astype(int)
    _, chunks = _grid_combination_chunks(2.0, 0.5, step, n, chunk=128)
    anchored_idx = np.rint(np.vstack(list(chunks)) / step).astype(int)
    # every tuple shifted to x_1 = 0 is an anchored tuple, and no two anchored
    # tuples share a spacing pattern
    assert {tuple(r - r[0]) for r in full_idx} == {tuple(r) for r in anchored_idx}
    spacings = {tuple(np.diff(r)) for r in anchored_idx}
    assert len(spacings) == len(anchored_idx) == anchored
