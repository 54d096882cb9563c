"""Tests for the brute-force joint oracle and its grid helpers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ma_multicast import (
    CaseLabel,
    GridSpec,
    SystemConfig,
    brute_force_joint,
    closed_form_beamformer,
    joint_vs_decoupled,
    min_snr_from_projections,
    projection_coefficients,
    proposed_scheme,
    random_positions,
    resolution_bound,
    run_validate,
    snap_mixing_to_grid,
    snap_positions_to_grid,
    uniform_positions,
    validate_positions,
)
from ma_multicast import baselines, beamformer, oracle, posopt
from ma_multicast.beamformer import PARALLEL_TOL, _projection_gains, _theta_from_gains
from ma_multicast.config import FEASIBILITY_TOL
from ma_multicast.oracle import JOINT_TIE_RTOL, JointOptimum
from ma_multicast.posopt import ScaTrace, _first_best, _grid_combination_chunks, correlation

from correlation_reference import best_t


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
                if theta > best_theta + 1e-12 * best_theta:
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
    y1 = cfg.snr_scales[0] * n * t * t
    y2 = cfg.snr_scales[1] * (b[:, None] * t + c[:, None] * np.sqrt(1.0 - t * t)) ** 2
    theta = np.minimum(y1, y2)
    rows = theta.max(axis=1)
    tol = 1e-12 * rows.max()
    i = int(np.flatnonzero(rows >= rows.max() - tol)[0])
    j = int(np.flatnonzero(theta[i] >= rows[i] - tol)[0])
    return x[i], float(t[j]), math.log2(1.0 + rows[i])


def reference_tuples(span_l, d_min, step, n):
    """Plain itertools enumeration filtered by the float spacing check."""
    values = step * np.arange(int(math.floor(span_l / step + 1e-9)) + 1)
    return [
        combo
        for combo in itertools.combinations(values, n)
        if all(b - a >= d_min - FEASIBILITY_TOL for a, b in zip(combo, combo[1:]))
    ]


def spacing_indices(combo, step):
    """Spacings of a grid tuple in grid steps, exact integers."""
    return tuple(int(d) for d in np.diff(np.rint(np.asarray(combo) / step).astype(int)))


def mirror_kept(tuples, step):
    """The x_1 = 0 tuples whose spacings are lexicographically <= their reverse."""
    return [c for c in tuples if c[0] == 0.0 and (d := spacing_indices(c, step)) <= d[::-1]]


def unfiltered_joint(cfg, grid):
    """The joint search scoring every anchored tuple, mirrors included.

    Same arithmetic as brute_force_joint over all x_1 = 0 tuples, as the
    search ran before mirrors were dropped, and its one tie rule: the winner
    is the first tuple whose peak lies within JOINT_TIE_RTOL of the overall
    maximum, and t its first highest grid value.
    """
    pos = np.asarray(
        [c for c in reference_tuples(cfg.span_l, cfg.d_min, grid.position_step, cfg.n_antennas)
         if c[0] == 0.0]
    )
    t_grid = np.linspace(0.0, 1.0, int(round(1.0 / grid.t_step)) + 1)
    a, b, c = _projection_gains(pos, cfg.kappas)
    theta = _theta_from_gains(a[:, None], b[:, None], c[:, None], t_grid, *cfg.snr_scales)
    peak = theta.max(axis=1)
    i = int(np.flatnonzero(peak >= peak.max() - JOINT_TIE_RTOL * peak.max())[0])
    return JointOptimum(x=pos[i], t=float(t_grid[int(np.argmax(theta[i]))]), min_rate=math.log2(1.0 + peak[i]))


def theta_reference(a, b, c, t, scale1, scale2):
    """The theta expression, written out once more, that the kernel must match bit for bit."""
    c_eff = np.where(c < PARALLEL_TOL, 0.0, c)
    y1 = scale1 * (a * t) ** 2
    y2 = scale2 * (b * t + c_eff * np.sqrt(np.maximum(1.0 - t * t, 0.0))) ** 2
    return np.minimum(y1, y2)


def raw_best_t(x, cfg, t_step):
    """_best_t_rows' grid pass alone: the first grid point of the highest theta."""
    gains = (np.array([g]) for g in projection_coefficients(x, cfg))
    j, theta = oracle._grid_peaks(*gains, cfg.snr_scales, t_step)
    return float(np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)[j[0]]), float(theta[0])


def reference_best_t(x, cfg, t_step):
    """_best_t_rows as one argmax over the whole grid, then np.linspace zoom rounds."""
    a, b, c = projection_coefficients(x, cfg)
    t_grid = np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)
    theta = theta_reference(a, b, c, t_grid, *cfg.snr_scales)
    j = int(np.argmax(theta))
    t_best, theta_best = float(t_grid[j]), float(theta[j])
    lo, hi = t_grid[max(j - 1, 0)], t_grid[min(j + 1, t_grid.size - 1)]
    while hi - lo > 1e-15:
        t = np.linspace(lo, hi, 33)
        theta = theta_reference(a, b, c, t, *cfg.snr_scales)
        k = int(np.argmax(theta))
        if theta[k] > theta_best:
            t_best, theta_best = float(t[k]), float(theta[k])
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, 32)]
    return t_best, theta_best


def assert_same_optimum(got, want):
    assert np.array_equal(got.x, want.x)
    assert got.t == want.t
    assert got.min_rate == want.min_rate


# ---------------------------------------------------------------------------
# GridSpec and guard rails


def test_grid_spec_defaults_and_validation():
    grid = GridSpec()
    assert grid.position_step == 0.05
    assert grid.t_step == 1e-4
    assert GridSpec(t_step=1e-3).t_step == 1e-3
    with pytest.raises(ValueError):
        GridSpec(position_step=0.0)
    with pytest.raises(ValueError):
        GridSpec(t_step=0.0)
    with pytest.raises(ValueError):
        GridSpec(t_step=0.02)
    # the mixing grid's spacing is 1 / round(1 / t_step) = 1 / 333 here, so
    # snapping to multiples of 0.003 would land off it
    with pytest.raises(ValueError, match="integer"):
        GridSpec(t_step=0.003)


def test_brute_force_rejects_large_arrays():
    # C(44, 4) = 135751 anchored tuples times 10001 mixing values exceed the cap
    with pytest.raises(ValueError, match="cap"):
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
    got = brute_force_joint(cfg, GridSpec(position_step=0.25, t_step=0.01))
    theta, x, t = enumerate_pairs(cfg, 0.25, 0.01)
    assert np.allclose(got.x, x, atol=1e-12)
    assert abs(got.t - t) <= 1e-12
    assert got.min_rate == pytest.approx(math.log2(1.0 + theta), rel=1e-10)


def test_brute_force_finds_full_correlation_spacing():
    # sin separation 0.4 puts the fully aligned spacing 2.5 on the 0.05 grid
    cfg = SystemConfig(n_antennas=2, span_l=3.0, theta_su=(0.0, math.asin(0.4)))
    got = brute_force_joint(cfg, GridSpec(position_step=0.05, t_step=1e-3))
    # only the x_1 = 0 translate of the optimal spacing is scored, and it is
    # the first of its tied translates, so a full-grid search keeps it too
    assert np.allclose(got.x, [0.0, 2.5], atol=1e-9)
    assert got.t == pytest.approx(1.0, abs=1e-12)
    expect = math.log2(1.0 + 2.0 * cfg.snr_scales[0])
    assert got.min_rate == pytest.approx(expect, rel=1e-9)


# four random angle pairs, then matching sines: there every tuple is fully
# correlated, all of them tie, and the first full-grid tuple must win
JOINT_ANGLE_PAIRS = [tuple(p) for p in np.random.default_rng(5).uniform(0.0, math.pi, (4, 2))]
JOINT_ANGLE_PAIRS.append((0.8, math.pi - 0.8))


@pytest.mark.parametrize("angles", JOINT_ANGLE_PAIRS)
@pytest.mark.parametrize("n, step", [(2, 0.25), (2, 0.1), (3, 0.25), (3, 0.1)])
def test_brute_force_matches_full_grid_reference(n, step, angles):
    cfg = SystemConfig(n_antennas=n, span_l=2.0, theta_su=angles)
    got = brute_force_joint(cfg, GridSpec(position_step=step, t_step=0.01))
    x, t, rate = enumerate_joint(cfg, step, 0.01)
    assert np.allclose(got.x, x, atol=1e-12)
    assert abs(got.t - t) <= 1e-12
    assert got.min_rate == pytest.approx(rate, rel=1e-10)
    # dropping mirrors and scoring fewer rows at once changes nothing
    assert_same_optimum(got, unfiltered_joint(cfg, GridSpec(position_step=step, t_step=0.01)))


@pytest.fixture(scope="module")
def validate_oracle_cases():
    """The full validate's 12 separation-certificate oracle calls, plus one where every tuple ties.

    Each comes with the unfiltered reference's optimum.  In the added case
    the sines match, every tuple is fully correlated, and the first one must
    win across every row block.
    """
    seen = []
    real = oracle.brute_force_joint

    def recording(cfg, grid):
        seen.append((cfg, grid))
        return real(cfg, grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "brute_force_joint", recording)
        run_validate(quick=False)
    assert len(seen) == 12
    seen.append((SystemConfig(n_antennas=3, span_l=2.0, theta_su=(0.8, math.pi - 0.8)), GridSpec()))
    return [(cfg, grid, unfiltered_joint(cfg, grid)) for cfg, grid in seen]


@pytest.mark.parametrize("rows", [1, 3, 4, 8, 128])
def test_brute_force_matches_unfiltered_reference_on_validate_configs(
    monkeypatch, validate_oracle_cases, rows
):
    # the winner is the first tuple within the tie window of every tuple's
    # peak, so the rows scored at once, and whether a tie straddles two
    # blocks or chunks, change nothing; the budget is set to give _grid_peaks
    # blocks of `rows` rows and enumerator chunks of budget // n tuples
    for cfg, grid, want in validate_oracle_cases:
        width = 2 * math.isqrt(int(round(1.0 / grid.t_step)) + 1) + 1
        monkeypatch.setattr(oracle, "_PASS_BUDGET", rows * width)
        monkeypatch.setattr(posopt, "_PASS_BUDGET", rows * width)
        assert_same_optimum(brute_force_joint(cfg, grid), want)


def test_brute_force_tie_window_is_relative_far_below_unit_snr():
    # an absolute floor of 1 on the tie window tied every tuple at this SNR,
    # and the first one, x = [0, 0.5, 1], won at t = 0 with theta = 0
    cfg = SystemConfig(n_antennas=3, span_l=2.0, theta_su=(0.3, 2.0), ps_dbm=-170.0)
    grid = GridSpec(position_step=0.05, t_step=1e-3)
    got = brute_force_joint(cfg, grid)
    x, t, rate = enumerate_joint(cfg, 0.05, 1e-3)
    assert np.allclose(got.x, x, atol=1e-12)
    assert abs(got.t - t) <= 1e-12
    assert got.min_rate == pytest.approx(rate, rel=1e-10)
    assert_same_optimum(got, unfiltered_joint(cfg, grid))
    assert min_snr_from_projections(got.t, got.x, cfg) > 0.0


def test_brute_force_result_is_feasible():
    cfg = SystemConfig(n_antennas=2, span_l=2.0)
    got = brute_force_joint(cfg, GridSpec(position_step=0.25, t_step=0.01))
    validate_positions(got.x, cfg.span_l, cfg.d_min)
    assert 0.0 <= got.t <= 1.0


def test_oracle_self_consistency_at_optimum():
    # rerunning the mixing search at the winning positions reproduces the rate
    cfg = SystemConfig(n_antennas=2, span_l=2.0)
    got = brute_force_joint(cfg, GridSpec(position_step=0.25, t_step=0.01))
    t_best, theta_best = raw_best_t(got.x, cfg, 0.01)
    assert math.log2(1.0 + theta_best) == pytest.approx(got.min_rate, rel=1e-12)
    assert t_best == pytest.approx(got.t, abs=1e-12)


# ---------------------------------------------------------------------------
# Mixing search for fixed positions


def test_grid_best_t_refinement_matches_closed_form():
    cfg = SystemConfig()
    x = np.linspace(0.0, cfg.span_l, cfg.n_antennas)
    bf = closed_form_beamformer(x, cfg)
    theta_closed = min_snr_from_projections(bf.t, x, cfg)
    t_raw, theta_raw = raw_best_t(x, cfg, 1e-3)
    t_ref, theta_ref = best_t(x, cfg, 1e-3)
    assert theta_ref >= theta_raw - 1e-12
    assert theta_ref <= theta_closed * (1.0 + 1e-12) + 1e-12
    assert theta_ref == pytest.approx(theta_closed, rel=1e-9)
    assert t_ref == pytest.approx(bf.t, abs=1e-6)
    assert abs(t_raw - bf.t) <= 1e-3 + 1e-12


# configs and positions: random, parallel channels (matching sines),
# orthogonal channels (kappa x_2 = pi), a far user 1 whose branch binds up to
# the t = 1 endpoint, and SNR scales so small that theta is quantized to
# subnormal steps, which makes its peak a plateau of equal grid values
GRID_T_CASES = [
    (SystemConfig(), np.linspace(0.0, 4.0, 5)),
    (SystemConfig(n_antennas=3, span_l=2.0, theta_su=(0.3, 2.0)), np.array([0.0, 0.7, 2.0])),
    (SystemConfig(n_antennas=3, span_l=3.0, theta_su=(0.8, math.pi - 0.8)), np.array([0.0, 1.0, 3.0])),
    (SystemConfig(n_antennas=2, span_l=1.0, theta_su=(0.0, math.pi / 6.0)), np.array([0.0, 1.0])),
    (SystemConfig(n_antennas=4, d_su=(800.0, 50.0)), np.array([0.0, 0.5, 1.5, 4.0])),
    (SystemConfig(ps_dbm=-3200.0, d_su=(20.0, 500.0)), np.array([0.0, 0.5, 1.5, 2.5, 4.0])),
]


@pytest.mark.parametrize("case", range(len(GRID_T_CASES)))
@pytest.mark.parametrize("t_step, rows", [(1e-5, None), (1e-4, None), (1e-3, None), (1e-4, 7)])
def test_grid_best_t_blocks_match_one_array_argmax(case, t_step, rows):
    cfg, x = GRID_T_CASES[case]
    t_grid = np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)
    theta = theta_reference(*projection_coefficients(x, cfg), t_grid, *cfg.snr_scales)
    j = int(np.argmax(theta))
    assert raw_best_t(x, cfg, t_step) == (float(t_grid[j]), float(theta[j]))
    if rows is not None:
        # the case's row among others scored in one call: rows do not interact
        rng = np.random.default_rng(70 + case)
        batch = np.vstack([random_positions(cfg, rng) for _ in range(rows - 1)] + [x])
        gains = _projection_gains(batch, cfg.kappas)
        got_j, got_theta = oracle._grid_peaks(*gains, cfg.snr_scales, t_step)
        assert (got_j[-1], got_theta[-1]) == (j, theta[j])


def full_grid_peaks(a, b, c, scales, t_step):
    """First argmax and its theta of every row over the whole mixing grid."""
    t = np.linspace(0.0, 1.0, int(round(1.0 / t_step)) + 1)
    s1, s2 = (np.reshape(s, (-1, 1)) for s in scales)
    theta = theta_reference(a[:, None], b[:, None], c[:, None], t, s1, s2)
    j = np.argmax(theta, axis=1)
    return j, theta[np.arange(j.size), j]


def assert_same_peaks(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))


def random_gain_rows(rng, rows):
    """Gains as the projection gives them (a = sqrt(n) up to rounding, b^2 + c^2 = n) and SNR scales.

    The scales run from subnormal, where theta is quantised to a few steps
    and its coarse maximum can repeat, to 1e306.
    """
    n = rng.integers(2, 9, rows).astype(float)
    phi = rng.uniform(0.0, math.pi / 2.0, rows)
    a = np.sqrt(n) * (1.0 + rng.normal(0.0, 1e-15, rows))
    b, c = np.sqrt(n) * np.cos(phi), np.sqrt(n) * np.sin(phi)
    log_scale = rng.choice([-323.5, -320.0, -3.0, 300.0], rows) + rng.uniform(0.0, 6.0, (2, rows))
    return a, b, c, tuple(10.0 ** log_scale)


@pytest.mark.parametrize("t_step, rows", [(1e-2, 400), (1e-3, 400), (1e-4, 100), (1e-5, 20)])
def test_grid_peaks_match_the_full_grid_argmax_on_random_rows(t_step, rows):
    # isqrt(T) divides T - 1 at T = 101 and 10 001 points; at 1 001 and
    # 100 001 it does not, and the last coarse gap is shorter than the stride
    a, b, c, scales = random_gain_rows(np.random.default_rng(int(round(1.0 / t_step))), rows)
    assert_same_peaks(oracle._grid_peaks(a, b, c, scales, t_step), full_grid_peaks(a, b, c, scales, t_step))


@pytest.mark.parametrize("t_step", [1e-2, 1e-3, 1e-4, 1e-5])
def test_grid_peaks_match_the_full_grid_argmax_on_the_grid_cases(t_step):
    # one call over every case, each row with its own SNR scales
    gains = np.array([projection_coefficients(x, cfg) for cfg, x in GRID_T_CASES]).T
    scales = np.array([cfg.snr_scales for cfg, _x in GRID_T_CASES]).T
    assert_same_peaks(oracle._grid_peaks(*gains, scales, t_step), full_grid_peaks(*gains, scales, t_step))


@pytest.mark.parametrize("t_step", [1e-2, 1e-3, 1e-4])
def test_grid_peaks_match_the_full_grid_argmax_on_parallel_and_orthogonal_gains(t_step):
    root2 = math.sqrt(2.0)
    tiny = [0.0, 0.5 * PARALLEL_TOL, PARALLEL_TOL, 2.0 * PARALLEL_TOL]
    # parallel channels (c = 0, and c on both sides of PARALLEL_TOL), then orthogonal ones (b = 0)
    b = np.array([root2] * 4 + [0.0] * 4 + [1e-9, 1e-12])
    c = np.array(tiny + [root2] * 4 + [root2, root2])
    a = np.full(b.size, root2)
    for scales in ((1.0, 1.0), (1.0, 100.0), (100.0, 1.0), (1e-320, 4e-321)):
        assert_same_peaks(
            oracle._grid_peaks(a, b, c, scales, t_step), full_grid_peaks(a, b, c, scales, t_step)
        )


def test_grid_peaks_score_a_row_whose_coarse_maximum_repeats_on_the_whole_grid():
    # theta takes a few subnormal values: it is flat at 1.5e-323 across the
    # coarse points t = 0.8 and 0.9 and peaks at t = 0.94, past the bracket
    # around t = 0.8
    a, b, c = (np.array([g]) for g in (2.000000000000001, 0.5406695004144325, 1.9255327811599594))
    scales = (5e-324, 3.5e-323)
    j, theta = oracle._grid_peaks(a, b, c, scales, 0.01)
    assert (j[0], theta[0]) == (94, 2e-323)
    assert_same_peaks((j, theta), full_grid_peaks(a, b, c, scales, 0.01))


@pytest.mark.parametrize("t_step", [1e-5, 1e-3, 0.003])
def test_best_t_rows_match_per_row_grid_best_t_on_a_mixed_n_batch(t_step):
    rng = np.random.default_rng(808)
    cfgs, xs = (list(v) for v in zip(*GRID_T_CASES))
    for n in (2, 3, 5, 8):
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 1.5, d_su=(40.0, 300.0))
        cfgs.append(cfg)
        xs.append(random_positions(cfg, rng))
    gains = np.array([projection_coefficients(x, cfg) for cfg, x in zip(cfgs, xs)]).T
    scales = np.array([cfg.snr_scales for cfg in cfgs]).T
    t, theta = oracle._best_t_rows(*gains, scales, t_step)
    for i, (cfg, x) in enumerate(zip(cfgs, xs)):
        want = reference_best_t(x, cfg, t_step)
        assert best_t(x, cfg, t_step) == want
        assert (float(t[i]), float(theta[i])) == want


@pytest.mark.parametrize("case", range(len(GRID_T_CASES)))
@pytest.mark.parametrize("t_step", [1e-5, 1e-4, 1e-3, 0.003])
def test_grid_best_t_zoom_lies_between_the_grid_and_the_closed_form(case, t_step):
    cfg, x = GRID_T_CASES[case]
    theta_closed = min_snr_from_projections(closed_form_beamformer(x, cfg).t, x, cfg)
    _t_raw, theta_raw = raw_best_t(x, cfg, t_step)
    t, theta = best_t(x, cfg, t_step)
    assert 0.0 <= t <= 1.0
    assert theta_raw <= theta <= theta_closed * (1.0 + 1e-12)


@pytest.mark.parametrize("ps_dbm", [-170.0, -190.0, -250.0, -3200.0])
def test_closed_form_mixing_keeps_the_optimum_far_below_unit_snr(ps_dbm):
    # SNR scales from 2.5e-12 down to subnormal: an absolute floor of 1 in the
    # case analysis's slack called these "crossing" 0.965% below the grid,
    # and "degenerate_parallel" 98% below at the subnormal scale
    cfg = SystemConfig(ps_dbm=ps_dbm, d_su=(20.0, 500.0))
    x = np.array([0.0, 0.5, 1.5, 2.5, 4.0])
    bf = closed_form_beamformer(x, cfg)
    theta_closed = min_snr_from_projections(bf.t, x, cfg)
    _t, theta_grid = best_t(x, cfg, 1e-4)
    assert bf.case_label == CaseLabel.LEFT_ENDPOINT
    assert abs(theta_closed - theta_grid) <= 1e-12 * theta_grid


def test_grid_best_t_zoom_brackets_the_kink_when_the_grid_is_wider_than_t_step():
    # at t_step 0.003 the grid spacing is 1 / 333: a bracket of t_step around
    # the best grid point misses the kink at t* = 0.99999981, its grid
    # neighbours do not
    cfg = SystemConfig(
        n_antennas=4,
        span_l=2.141087752666097,
        d_su=(148.41958012121455, 23.772716066082186),
        theta_su=(2.660819489358944, 2.0529466111978456),
    )
    x = np.array([0.03432520107771439, 0.6083938553969768, 1.276111800162686, 2.038324446897454])
    theta_closed = min_snr_from_projections(closed_form_beamformer(x, cfg).t, x, cfg)
    _t, theta = best_t(x, cfg, 0.003)
    assert theta == pytest.approx(theta_closed, rel=1e-9)


@pytest.mark.parametrize("case", range(len(GRID_T_CASES)))
def test_theta_kernel_matches_the_reference_expression_bitwise(case):
    cfg, x = GRID_T_CASES[case]
    t_grid = np.linspace(0.0, 1.0, 10_001)
    # (B, T) rows as brute_force_joint scores them: x, its mirror and two
    # random spreads
    rng = np.random.default_rng(40 + case)
    rows = np.vstack([x, cfg.span_l - x[::-1]] + [random_positions(cfg, rng) for _ in range(2)])
    a, b, c = (g[:, None] for g in _projection_gains(rows, cfg.kappas))
    want = theta_reference(a, b, c, t_grid, *cfg.snr_scales)
    got = _theta_from_gains(a, b, c, t_grid, *cfg.snr_scales)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # 1-D blocks with scalar gains, the t = 1 end included
    gains = projection_coefficients(x, cfg)
    for block in (slice(0, 7), slice(4_999, 10_001), slice(0, 10_001)):
        want = theta_reference(*gains, t_grid[block], *cfg.snr_scales)
        got = _theta_from_gains(*gains, t_grid[block], *cfg.snr_scales)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("size", [2, 3, 7, 101, 334, 1_001, 3_001, 10_001, 33_334, 100_001])
def test_grid_points_from_their_index_are_linspace_bit_for_bit(size):
    t = oracle._grid_t(np.arange(size), size)
    assert np.array_equal(t.view(np.uint64), np.linspace(0.0, 1.0, size).view(np.uint64))
    assert t[-1] == 1.0


def traced_peak_bytes(fn, *args):
    """Most bytes held at once during fn(*args), above what was held when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_validate_holds_under_a_megabyte():
    assert traced_peak_bytes(run_validate) <= 1e6


def test_brute_force_at_a_fine_mixing_grid_holds_under_a_megabyte():
    # 6 tuples on a 10 000 001-point mixing grid: no pass holds the grid
    cfg, grid = SystemConfig(n_antennas=2, span_l=1.0), GridSpec(0.1, 1e-7)
    assert traced_peak_bytes(brute_force_joint, cfg, grid) <= 1e6
    assert brute_force_joint(cfg, grid).t == float(np.linspace(0.0, 1.0, 10_000_001)[9_515_191])


def test_best_t_rows_on_many_rows_and_a_fine_grid_hold_under_a_megabyte():
    # 399 rows, then the subnormal-scale row whose coarse maximum repeats, so
    # it is rescanned on the whole 1 000 001-point grid
    rng = np.random.default_rng(5)
    n = rng.integers(2, 9, 399).astype(float)
    phi = rng.uniform(0.0, math.pi / 2.0, 399)
    a = np.append(np.sqrt(n), 2.000000000000001)
    b = np.append(np.sqrt(n) * np.cos(phi), 0.5406695004144325)
    c = np.append(np.sqrt(n) * np.sin(phi), 1.9255327811599594)
    scales = tuple(np.append(10.0 ** rng.uniform(-3.0, 3.0, 399), s) for s in (5e-324, 3.5e-323))
    t_grid = np.linspace(0.0, 1.0, 1_000_001)
    theta = theta_reference(a[-1], b[-1], c[-1], t_grid, 5e-324, 3.5e-323)
    assert np.sum(theta[::1_000] == theta[::1_000].max()) > 1
    assert traced_peak_bytes(oracle._best_t_rows, a, b, c, scales, 1e-6) <= 1e6
    j, peak = oracle._grid_peaks(a, b, c, scales, 1e-6)
    assert (j[-1], peak[-1]) == (np.argmax(theta), theta.max())


def test_grid_oracles_never_call_the_closed_form(monkeypatch):
    # the oracles certify the closed form, so no bracket may come from it
    def forbidden(*args, **kwargs):
        raise AssertionError("grid oracle called the correlation route")

    for name in ("optimize_mixing", "theta_coefficients", "_theta_coefficients", "theta_at"):
        monkeypatch.setattr(beamformer, name, forbidden)
        monkeypatch.setattr(oracle, name, forbidden, raising=False)
    cfg, x = GRID_T_CASES[0]
    brute_force_joint(SystemConfig(n_antennas=3, span_l=2.0), GridSpec(0.1, 1e-3))
    gains = np.array([projection_coefficients(x, cfg)]).T
    oracle._best_t_rows(*gains, cfg.snr_scales, 1e-4)


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


def test_snap_positions_keep_d_min_when_rounding_breaks_a_spacing():
    # the solve returns x = [0.25000000000000006, 0.75, 1.25], its first
    # spacing 1 ulp under d_min; rounding each slack over the step,
    # [2.5000000000000004, 2.5, 2.5], half to even gave [3, 2, 2] and a 0.4
    # spacing, which made joint_vs_decoupled raise
    cfg = SystemConfig(
        n_antennas=3,
        span_l=2.0,
        d_su=(44.231105517536704, 71.11684615504359),
        theta_su=(2.7919312132052405, 2.878716542420934),
    )
    snapped = snap_positions_to_grid([0.25000000000000006, 0.75, 1.25], cfg, 0.1)
    assert np.allclose(snapped, [0.3, 0.8, 1.3], rtol=0.0, atol=1e-12)
    validate_positions(snapped, cfg.span_l, cfg.d_min)
    assert joint_vs_decoupled(cfg, GridSpec(position_step=0.1, t_step=1e-3))["passed"]


@pytest.mark.parametrize("unit", [1.0, 1e-12])
def test_snap_positions_keep_the_last_antenna_inside_the_span_in_any_length_unit(unit):
    # the top grid point is counted in grid steps: with an absolute 1e-9 of user
    # lengths it lay 1e4 steps past span_l at unit 1e-12, and the last antenna
    # snapped a whole step, a tenth of the span, past it to 1.1e-12
    cfg = SystemConfig(n_antennas=3, span_l=unit, d_min=0.3 * unit, wavelength=unit)
    snapped = snap_positions_to_grid(np.array([0.09, 0.39, 1.09]) * unit, cfg, 0.1 * unit)
    assert np.allclose(snapped / unit, [0.1, 0.4, 1.0], rtol=0.0, atol=1e-12)
    validate_positions(snapped, cfg.span_l, cfg.d_min)


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
    assert report["joint_excess_rel"] <= 1e-9
    assert report["rate_joint"] == pytest.approx(
        report["gap_rate"] + report["rate_decoupled_snapped"], abs=1e-12
    )
    for key in ("x_joint", "t_joint", "x_decoupled", "t_decoupled", "rate_decoupled"):
        assert key in report


@pytest.mark.parametrize("n, span_l, grid", [(4, 2.0, GridSpec(0.05, 1e-4)), (5, 3.0, GridSpec(0.1, 1e-4))])
def test_joint_vs_decoupled_certifies_four_and_five_antennas(n, span_l, grid):
    report = joint_vs_decoupled(SystemConfig(n_antennas=n, span_l=span_l), grid)
    assert report["passed"]
    assert report["joint_excess_rel"] <= 1e-9


def test_joint_vs_decoupled_certifies_the_scheme_optimize_reports():
    # aligned channels: build_beamformer takes its parallel branch at t = 1, where
    # the mixing rule alone gives the left endpoint 0.9999999999999999
    cfg = SystemConfig(
        n_antennas=2,
        span_l=2.0,
        theta_su=(1.8377256686100467, 0.20514194925801882),
        d_su=(23.65752314919121, 39.49592992383879),
    )
    scheme = proposed_scheme(cfg)
    assert scheme.w.case_label is CaseLabel.DEGENERATE_PARALLEL
    report = joint_vs_decoupled(cfg, GridSpec())
    assert report["x_decoupled"] == scheme.x.tolist()
    assert report["t_decoupled"] == scheme.w.t == 1.0
    assert report["passed"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_joint_vs_decoupled_fails_a_solve_that_stops_at_the_uniform_spread(monkeypatch, n):
    # the resolution bound alone passes this mutant; the joint-excess leg catches it
    cfg = SystemConfig(n_antennas=n, span_l=3.0 if n == 5 else 2.0)
    grid = GridSpec(0.1, 1e-3)
    assert joint_vs_decoupled(cfg, grid)["passed"]

    def uniform_solve(cfg):
        x = uniform_positions(cfg)
        f1 = correlation(x, cfg) ** 2 - cfg.n_antennas
        return ScaTrace(f1_history=np.array([f1]), x=x, converged=True, iterations=0)

    monkeypatch.setattr(baselines, "multi_start_sca", uniform_solve)
    report = joint_vs_decoupled(cfg, grid)
    assert -1e-9 <= report["gap_rate"] <= report["epsilon_rate"] + 1e-12
    assert report["joint_excess_rel"] > 1e-9
    assert not report["passed"]


# ---------------------------------------------------------------------------
# Tuple enumeration plumbing


def test_feasible_tuple_count_matches_binomial():
    count, chunks = _grid_combination_chunks(3.0, 1.0, 0.5, 3)
    tuples = [tuple(row) for block in chunks for row in block]
    # x_1 = 0 and a two-slot gap per adjacent pair leave C(4, 2) anchored
    # choices; spacings (1, 1.5) and (1, 2) are kept and their mirrors dropped
    assert count == math.comb(4, 2)
    assert tuples == [(0.0, 1.0, 2.0), (0.0, 1.0, 2.5), (0.0, 1.0, 3.0), (0.0, 1.5, 3.0)]
    assert tuples == mirror_kept(reference_tuples(3.0, 1.0, 0.5, 3), 0.5)
    loose_count, loose = _grid_combination_chunks(3.0, 0.5, 0.5, 3)
    loose = [tuple(row) for block in loose for row in block]
    assert loose_count == math.comb(6, 2)
    assert loose == mirror_kept(reference_tuples(3.0, 0.5, 0.5, 3), 0.5)
    assert len(loose) == 9
    with pytest.raises(ValueError, match="no feasible"):
        _grid_combination_chunks(1.0, 0.5, 0.5, 4)


def test_grid_chunks_preserve_order(monkeypatch):
    _, whole = _grid_combination_chunks(3.0, 1.0, 0.5, 3)
    whole = np.vstack(list(whole))
    # mirrors are dropped within each block of budget // n anchored tuples,
    # and a block left empty is not yielded
    for budget, sizes in [(12, [3, 1]), (3, [1, 1, 1, 1]), (2, [1, 1, 1, 1])]:
        monkeypatch.setattr(posopt, "_PASS_BUDGET", budget)
        _, parts = _grid_combination_chunks(3.0, 1.0, 0.5, 3)
        parts = list(parts)
        assert [len(p) for p in parts] == sizes
        assert np.array_equal(np.vstack(parts), whole)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_first_best_takes_the_first_row_inside_the_window_of_the_overall_best(size):
    # a window relative to each chunk picks the third row from one-row
    # chunks; the first row within 1e-9 of the overall best is the second
    scores = np.array([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9])
    chunks = (np.arange(start, min(start + size, 3)) for start in range(0, 3, size))
    got = _first_best(chunks, lambda k: (scores[k], k), lambda best: 1e-9)
    assert got == (scores[1], 1)
    # a window of zero keeps the first row that reaches the maximum
    ties = np.array([0.0, 2.0, 1.0, 2.0])
    chunks = (np.arange(start, min(start + size, 4)) for start in range(0, 4, size))
    assert _first_best(chunks, lambda k: (ties[k], k), lambda best: 0.0) == (2.0, 1)


@pytest.mark.parametrize("unit", [1.0, 1e20])
def test_grid_enumerator_yields_the_anchored_subsets_validate_positions_accepts(unit):
    """The enumerator counts the x_1 = 0 grid subsets validate_positions accepts, and yields only such subsets.

    Lengths are written as a config writes them: a decimal such as 0.3, a
    product such as 3 * 0.1 = 0.30000000000000004, or one of those an ulp off,
    so that d_min and span_l sit within ulps of a grid point, on either
    side of it, in the given length unit.
    """
    rng = np.random.default_rng(2026)

    def length(multiple, base):
        value = rng.choice([multiple * base, float(f"{multiple * base:.12g}")]) * unit
        return float(np.nextafter(value, rng.choice([-np.inf, np.inf])) if rng.random() < 0.3 else value)

    for _ in range(150):
        base = float(rng.choice([0.05, 0.1, 0.3, 0.7]))
        n = int(rng.integers(2, 5))
        step = base * unit
        d_min = length(int(rng.integers(1, 4)) + float(rng.choice([0.0, 0.5])), base)
        span_l = length(int(rng.integers(2, 12)), base)
        # the enumerator's grid points, with a few past the span
        values = step * np.arange(int(span_l / step) + 3)
        accepted = set()
        for combo in itertools.combinations(range(1, values.size), n - 1):
            x = values[[0, *combo]]
            try:
                validate_positions(x, span_l, d_min)
            except ValueError:
                continue
            accepted.add(tuple(x))
        try:
            count, chunks = _grid_combination_chunks(span_l, d_min, step, n)
        except ValueError:
            count, chunks = 0, []
        case = (n, span_l, d_min, step)
        assert count == len(accepted), case
        assert {tuple(row) for block in chunks for row in block} <= accepted, case


# span 2 and d_min 0.5 are the grids `validate` hands the joint oracle; each id
# names the grid by its full tuple count
VALIDATION_GRIDS = [
    pytest.param(n, step, full, anchored, kept, id=f"{n}-{step}-{full}")
    for n, step, full, anchored, kept in [
        (2, 0.05, 496, 31, 31), (2, 0.1, 136, 16, 16),
        (3, 0.05, 1771, 231, 121), (3, 0.1, 286, 66, 36),
    ]
]


@pytest.mark.parametrize("n, step, full, anchored, kept", VALIDATION_GRIDS)
def test_grid_enumerator_matches_itertools_on_validation_grids(n, step, full, anchored, kept):
    want = reference_tuples(2.0, 0.5, step, n)
    count, chunks = _grid_combination_chunks(2.0, 0.5, step, n)
    got = np.vstack(list(chunks))
    assert len(want) == full
    assert count == sum(c[0] == 0.0 for c in want) == anchored
    assert len(got) == kept
    assert np.array_equal(got, np.asarray(mirror_kept(want, step)))


@pytest.mark.parametrize("n, step, full, anchored, kept", VALIDATION_GRIDS)
def test_anchored_tuples_cover_each_spacing_once(n, step, full, anchored, kept):
    _, chunks = _grid_combination_chunks(2.0, 0.5, step, n)
    yielded = [spacing_indices(row, step) for row in np.vstack(list(chunks))]
    spacings = set(yielded)
    assert len(spacings) == len(yielded) == kept
    # every feasible tuple's spacing pattern, or else its mirror, is yielded
    # exactly once
    for combo in reference_tuples(2.0, 0.5, step, n):
        d = spacing_indices(combo, step)
        assert len({d, d[::-1]} & spacings) == 1
