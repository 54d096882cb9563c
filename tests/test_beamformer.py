"""Beamformer tests.

Oracles used here:
  * steering_vector and basic linear algebra (reassembly, orthogonality,
    Cauchy-Schwarz equality) check the projection split and its gains;
  * the batched projection kernel is checked row by row against the scalar
    projection route;
  * a dense two-stage grid over the mixing parameter certifies the
    closed-form optimizer case by case;
  * snr_pair ties the assembled vector back to the scalar objective.
"""

import math

import numpy as np
import pytest

from ma_multicast import (
    CaseLabel,
    SystemConfig,
    build_beamformer,
    correlation,
    min_snr_from_projections,
    optimize_mixing,
    projection_coefficients,
    snr_pair,
    steering_vector,
    theta_at,
    theta_coefficients,
)
from ma_multicast.beamformer import (
    PARALLEL_TOL,
    _clamp_mixing,
    _projection_gains,
    _split,
    _theta_coefficients,
    _theta_from_gains,
)

from correlation_reference import min_snr_from_correlation


def random_feasible(rng, n, span_l, d_min=0.5):
    hi = span_l - (n - 1) * d_min
    u = np.sort(rng.uniform(0.0, hi, n))
    return u + d_min * np.arange(n)


def random_config(rng, n=None):
    n = int(n if n is not None else rng.integers(2, 9))
    while True:
        th1, th2 = rng.uniform(0.0, math.pi, 2)
        if abs(math.sin(th2) - math.sin(th1)) >= 0.02:
            break
    d1, d2 = np.exp(rng.uniform(math.log(20.0), math.log(500.0), 2))
    span_l = (n - 1) * 0.5 + float(rng.uniform(0.5, 4.0))
    return SystemConfig(
        n_antennas=n, span_l=span_l, d_su=(float(d1), float(d2)), theta_su=(float(th1), float(th2))
    )


def grid_theta_max(coeffs, coarse=100_001, fine=8_001, width=2e-5):
    """Two-stage dense grid maximum of the mixing objective."""
    t = np.linspace(0.0, 1.0, coarse)
    vals = theta_at(coeffs, t)
    k = int(np.argmax(vals))
    lo = max(t[k] - width, 0.0)
    hi = min(t[k] + width, 1.0)
    tt = np.linspace(lo, hi, fine)
    vv = theta_at(coeffs, tt)
    j = int(np.argmax(vv))
    return float(tt[j]), float(vv[j])


# ---------------------------------------------------------------------------
# Projections


def kernel_cases(name):
    """(cfg, rows) pairs, one feasible position vector per row of rows."""
    rng = np.random.default_rng(21)
    if name == "random":
        cases = []
        for _ in range(40):
            cfg = random_config(rng)
            rows = [random_feasible(rng, cfg.n_antennas, cfg.span_l) for _ in range(5)]
            cases.append((cfg, np.array(rows)))
        return cases
    if name == "parallel":
        # sin(pi - th) = sin(th): the remainder h2 - p vanishes
        cfg = SystemConfig(theta_su=(0.8, math.pi - 0.8))
        rows = [random_feasible(rng, cfg.n_antennas, cfg.span_l) for _ in range(5)]
        return [(cfg, np.array(rows))]
    # half the beat period between two antennas makes the channels orthogonal
    cfg = SystemConfig(n_antennas=2, span_l=4.0)
    gap = math.pi / abs(cfg.kappa)
    return [(cfg, np.array([[s, s + gap] for s in (0.0, 0.5, cfg.span_l - gap)]))]


KERNEL_CASES = ["random", "parallel", "orthogonal"]


def test_project_split_reassembles():
    for name in KERNEL_CASES:
        for cfg, rows in kernel_cases(name):
            h1_ref = np.array([steering_vector(x, cfg.theta_su[0], cfg.wavelength) for x in rows])
            h2_ref = np.array([steering_vector(x, cfg.theta_su[1], cfg.wavelength) for x in rows])
            for x, h1_want, h2_want in ((rows[0], h1_ref[0], h2_ref[0]), (rows, h1_ref, h2_ref)):
                h1, p, perp = _split(x, cfg.kappas)
                assert h1.shape == p.shape == perp.shape == np.shape(x)
                assert np.max(np.abs(h1 - h1_want)) < 1e-12
                assert np.max(np.abs(p + perp - h2_want)) < 1e-12
                # the remainder is orthogonal to h1, and p is parallel to it
                # (Cauchy-Schwarz holds with equality, ||h1||^2 = n)
                assert np.max(np.abs((np.conj(h1) * perp).sum(axis=-1))) < 1e-10
                along = np.abs((np.conj(h1) * p).sum(axis=-1)) ** 2
                norms = cfg.n_antennas * np.linalg.norm(p, axis=-1) ** 2
                assert np.allclose(along, norms, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_batched_kernel_matches_scalar_route(name):
    t = np.linspace(0.0, 1.0, 21)
    for cfg, rows in kernel_cases(name):
        a, b, c = _projection_gains(rows, cfg.kappas)
        assert a.shape == b.shape == c.shape == (rows.shape[0],)
        if name == "parallel":
            assert np.all(c < PARALLEL_TOL)
        if name == "orthogonal":
            assert np.all(b < PARALLEL_TOL)
        theta = _theta_from_gains(
            a[:, None], b[:, None], c[:, None], t, *cfg.snr_scales
        )
        assert theta.shape == (rows.shape[0], t.size)
        for i, x in enumerate(rows):
            gains = np.array([a[i], b[i], c[i]])
            assert np.max(np.abs(gains - projection_coefficients(x, cfg))) <= 1e-12
            for j, tj in enumerate(t):
                assert theta[i, j] == pytest.approx(
                    min_snr_from_projections(float(tj), x, cfg), rel=1e-12
                )


def test_projection_coefficients_identities():
    rng = np.random.default_rng(22)
    for _ in range(200):
        cfg = random_config(rng)
        x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
        a, b, c = projection_coefficients(x, cfg)
        n = cfg.n_antennas
        assert a == pytest.approx(math.sqrt(n), rel=1e-12)
        assert b * b + c * c == pytest.approx(n, rel=1e-12)
        # b is the correlation scaled by 1/sqrt(n)
        f = correlation(x, cfg)
        assert b == pytest.approx(f / math.sqrt(n), rel=1e-10, abs=1e-10)


def test_projection_coefficients_orthogonal_channels():
    # antenna spacing of half the beat period makes the two channels orthogonal
    cfg = SystemConfig(n_antennas=2, span_l=4.0)
    kappa = cfg.kappa
    gap = math.pi / abs(kappa)
    x = np.array([0.0, gap])
    a, b, c = projection_coefficients(x, cfg)
    assert b == pytest.approx(0.0, abs=1e-9)
    assert a == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert c == pytest.approx(math.sqrt(2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# Objective paths agree


def test_min_snr_paths_agree():
    rng = np.random.default_rng(23)
    for _ in range(300):
        cfg = random_config(rng)
        x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
        t = float(rng.uniform())
        f = correlation(x, cfg)
        va = min_snr_from_correlation(t, f, cfg)
        vb = min_snr_from_projections(t, x, cfg)
        assert va == pytest.approx(vb, rel=1e-9)


def test_min_snr_input_validation():
    cfg = SystemConfig()
    x = np.array([0.0, 0.5, 1.0, 1.5, 4.0])
    with pytest.raises(ValueError):
        min_snr_from_projections(1.5, x, cfg)
    with pytest.raises(ValueError):
        theta_coefficients(7.0, cfg)  # f > n
    with pytest.raises(ValueError):
        min_snr_from_projections(-0.2, x, cfg)
    # the array forms keep the same range checks, row by row, NaN included
    scales = np.array([cfg.snr_scales[0]] * 2), np.array([cfg.snr_scales[1]] * 2)
    for f in ([1.0, 5.0 + 2e-9], [1.0, math.nan], [-2e-9, 1.0]):
        with pytest.raises(ValueError, match="outside"):
            _theta_coefficients(np.array(f), 5, *scales)
    assert np.array_equal(_theta_coefficients(np.array([-1e-10, 5.0 + 1e-10]), 5, *scales).f_max, [0.0, 5.0])
    for t in ([0.5, 1.0 + 1e-9], [math.nan, 0.5], [-1e-9, 0.5]):
        with pytest.raises(ValueError, match="must lie in"):
            _clamp_mixing(np.array(t))
    assert np.array_equal(_clamp_mixing(np.array([-1e-13, 1.0 + 1e-13])), [0.0, 1.0])


def test_position_entry_points_reject_a_wrong_antenna_count():
    cfg = SystemConfig()  # five antennas
    x = np.array([0.0, 0.5, 1.7])  # feasible positions, but only three
    w = np.ones(3) / math.sqrt(3.0)
    calls = (
        lambda: projection_coefficients(x, cfg),
        lambda: min_snr_from_projections(0.5, x, cfg),
        lambda: build_beamformer(x, 0.5, cfg),
        lambda: snr_pair(w, x, cfg),
    )
    for call in calls:
        with pytest.raises(ValueError, match="positions do not match n_antennas"):
            call()


def test_theta_at_matches_branch_formula():
    rng = np.random.default_rng(24)
    cfg = random_config(rng)
    n = cfg.n_antennas
    c1, c2 = cfg.snr_scales
    f = float(rng.uniform(0.0, n))
    coeffs = theta_coefficients(f, cfg)
    assert coeffs.a1 == pytest.approx(c1 * n, rel=1e-12)
    assert coeffs.a2 == pytest.approx(math.sqrt(c2) * f / math.sqrt(n), rel=1e-12)
    assert coeffs.a3 == pytest.approx(math.sqrt(c2 * (n - f * f / n)), rel=1e-12)
    for t in np.linspace(0.0, 1.0, 41):
        y1 = c1 * n * t * t
        y2 = c2 * (f / math.sqrt(n) * t + math.sqrt(n - f * f / n) * math.sqrt(1 - t * t)) ** 2
        assert theta_at(coeffs, float(t)) == pytest.approx(min(y1, y2), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Case analysis against the grid oracle


def test_balanced_distances_cross():
    cfg = SystemConfig()  # equal distances, default angles
    rng = np.random.default_rng(25)
    x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
    f = correlation(x, cfg)
    coeffs = theta_coefficients(f, cfg)
    t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
    assert label is CaseLabel.CROSSING
    assert 0.0 < t_star < 1.0
    t_grid, v_grid = grid_theta_max(coeffs)
    assert theta_at(coeffs, t_star) >= v_grid - 1e-9 * max(v_grid, 1.0)
    assert abs(t_star - t_grid) < 2e-5


def test_strong_first_user_peaks_second_branch():
    # user 1 very close: its branch is high, so the bottleneck branch peaks
    # at its own maximizer t = f/n
    cfg = SystemConfig(d_su=(20.0, 500.0))
    rng = np.random.default_rng(26)
    x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
    f = correlation(x, cfg)
    coeffs = theta_coefficients(f, cfg)
    t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
    assert label is CaseLabel.LEFT_ENDPOINT
    assert t_star == pytest.approx(f / cfg.n_antennas, rel=1e-12)
    _t_grid, v_grid = grid_theta_max(coeffs)
    assert theta_at(coeffs, t_star) >= v_grid - 1e-9 * max(v_grid, 1.0)


def test_weak_first_user_takes_full_alignment():
    cfg = SystemConfig(d_su=(500.0, 20.0))
    rng = np.random.default_rng(27)
    x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
    f = correlation(x, cfg)
    coeffs = theta_coefficients(f, cfg)
    t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
    assert label is CaseLabel.RIGHT_ENDPOINT
    assert t_star == 1.0
    _t_grid, v_grid = grid_theta_max(coeffs)
    assert theta_at(coeffs, t_star) >= v_grid - 1e-9 * max(v_grid, 1.0)


def test_parallel_channels_degenerate():
    # sin(pi - th) = sin(th): the two users share a steering vector
    th = 0.6
    cfg = SystemConfig(theta_su=(th, math.pi - th))
    rng = np.random.default_rng(28)
    x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
    f = correlation(x, cfg)
    assert f == pytest.approx(cfg.n_antennas, rel=1e-12)
    coeffs = theta_coefficients(f, cfg)
    t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
    assert label is CaseLabel.DEGENERATE_PARALLEL
    assert t_star == 1.0


def test_mixing_grid_argmax_never_left_of_peak():
    # the maximizer always lies in [f/n, 1]
    rng = np.random.default_rng(29)
    for _ in range(60):
        cfg = random_config(rng)
        x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
        f = correlation(x, cfg)
        coeffs = theta_coefficients(f, cfg)
        t = np.linspace(0.0, 1.0, 100_001)
        k = int(np.argmax(theta_at(coeffs, t)))
        assert t[k] >= f / cfg.n_antennas - 1e-5


def test_mixing_certified_on_random_configs():
    rng = np.random.default_rng(30)
    for _ in range(60):
        cfg = random_config(rng)
        x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
        f = correlation(x, cfg)
        coeffs = theta_coefficients(f, cfg)
        t_star, _label = optimize_mixing(coeffs, cfg.n_antennas)
        v_star = theta_at(coeffs, t_star)
        _t_grid, v_grid = grid_theta_max(coeffs)
        assert v_star >= v_grid - 1e-9 * max(v_grid, 1.0)


def test_mixing_optimum_never_decreases_with_correlation():
    # the lemma in optimize_mixing, and the reason AO's best start is the
    # shared position solve: with f/n = cos(phi) the optimum is
    # n max_psi min(c_1 cos^2 psi, c_2 cos^2(phi - psi)), nonincreasing in phi
    rng = np.random.default_rng(31)
    labels = set()
    for _ in range(200):
        cfg = random_config(rng)
        n = cfg.n_antennas
        values = []
        for f in np.linspace(0.0, n, 401):
            coeffs = theta_coefficients(float(f), cfg)
            t, label = optimize_mixing(coeffs, n)
            labels.add(label)
            values.append(theta_at(coeffs, t))
        # where the optimum is flat in f (left endpoint: n c_2) it may wobble
        # by rounding, about 1e-15 of its value
        assert np.all(np.diff(values) >= -1e-12 * max(values))
        assert values[-1] > values[0]
    assert labels == set(CaseLabel)


# ---------------------------------------------------------------------------
# Vector assembly


def test_build_beamformer_unit_norm_and_phase():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cfg = random_config(rng)
        x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
        t = float(rng.uniform())
        bf = build_beamformer(x, t, cfg)
        assert abs(np.linalg.norm(bf.w) - 1.0) < 1e-12
        lead = bf.w[np.flatnonzero(np.abs(bf.w) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12
        assert lead.real >= 0.0


def test_built_vector_realizes_scalar_objective():
    rng = np.random.default_rng(32)
    for _ in range(50):
        cfg = random_config(rng)
        x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
        f = correlation(x, cfg)
        coeffs = theta_coefficients(f, cfg)
        t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
        bf = build_beamformer(x, t_star, cfg, label)
        snr = snr_pair(bf.w, x, cfg)
        assert min(snr.gamma_u1, snr.gamma_u2) == pytest.approx(
            theta_at(coeffs, t_star), rel=1e-9
        )


def test_crossing_balances_both_users():
    cfg = SystemConfig()
    rng = np.random.default_rng(33)
    x = random_feasible(rng, cfg.n_antennas, cfg.span_l)
    f = correlation(x, cfg)
    coeffs = theta_coefficients(f, cfg)
    t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
    assert label is CaseLabel.CROSSING
    snr = snr_pair(build_beamformer(x, t_star, cfg, label).w, x, cfg)
    assert snr.gamma_u1 == pytest.approx(snr.gamma_u2, rel=1e-9)


def test_parallel_channels_force_full_mixing():
    th = 0.6
    cfg = SystemConfig(theta_su=(th, math.pi - th))
    x = np.array([0.0, 0.5, 1.0, 1.5, 4.0])
    bf = build_beamformer(x, 0.3, cfg)  # requested t is overridden
    assert bf.t == 1.0
    assert bf.case_label is CaseLabel.DEGENERATE_PARALLEL
    n = cfg.n_antennas
    h1 = steering_vector(x, th)
    assert abs(abs(h1 @ bf.w) ** 2 - n) < 1e-9


def test_orthogonal_channels_still_optimizable():
    cfg = SystemConfig(n_antennas=2, span_l=4.0)
    kappa = cfg.kappa
    x = np.array([0.0, math.pi / abs(kappa)])
    f = correlation(x, cfg)
    assert f == pytest.approx(0.0, abs=1e-9)
    coeffs = theta_coefficients(max(f, 0.0), cfg)
    t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
    # equal scales and orthogonal channels balance at t = 1/sqrt(2)
    assert label is CaseLabel.CROSSING
    assert t_star == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)
    bf = build_beamformer(x, t_star, cfg, label)
    snr = snr_pair(bf.w, x, cfg)
    assert snr.gamma_u1 == pytest.approx(snr.gamma_u2, rel=1e-9)


def test_build_beamformer_rejects_bad_t():
    cfg = SystemConfig()
    x = np.array([0.0, 0.5, 1.0, 1.5, 4.0])
    with pytest.raises(ValueError):
        build_beamformer(x, 1.2, cfg)
    with pytest.raises(ValueError):
        build_beamformer(np.array([0.0, 0.5, 1.0]), 0.5, cfg)
