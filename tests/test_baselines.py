"""Benchmark scheme tests.

Oracles used here:
  * a from-scratch nested-loop enumeration replays the grid position search;
  * the joint brute-force oracle upper-bounds AO on a coarse two-antenna
    setup whose continuous optimum lies exactly on the grid;
  * matched-filter identities pin the MRT scheme's SNRs;
  * the closed-form Laplacian Hessian of each AO gain, cross-checked by
    central differences, bounds the curvature of the reference position step;
  * a scalar AO loop that still runs the majorization-minimization position
    step replays the closed-form beamformer from any start;
  * the first-order certificate of the closed-form beamformer (a vanishing
    convex combination of the users' position gradients, or a binding user
    at its peak gain) shows why that position step never moves a start;
  * every scheme's stored SNR pair is recomputed from (w, x) from scratch.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ma_multicast import (
    GridSpec,
    Scheme,
    SystemConfig,
    ao_scheme,
    aps_search,
    brute_force_joint,
    closed_form_beamformer,
    correlation,
    fpa_scheme,
    ma_mrt,
    multi_start_sca,
    project_polytope,
    proposed_scheme,
    random_positions,
    run_scheme,
    snr_pair,
    uniform_positions,
)
from ma_multicast import posopt
from ma_multicast.baselines import APS_TIE_TOL
from ma_multicast.beamformer import CaseLabel

from correlation_reference import min_snr_from_correlation


ALL_SCHEMES = list(Scheme)


def enumerate_grid_search(cfg, grid_step):
    """Independent APS oracle: plain nested loops over index tuples."""
    m = int(math.floor(cfg.span_l / grid_step + 1e-9)) + 1
    points = [grid_step * i for i in range(m)]
    best_f, best_x = -1.0, None
    for combo in itertools.combinations(range(m), cfg.n_antennas):
        x = [points[i] for i in combo]
        if any(b - a < cfg.d_min - 1e-9 for a, b in zip(x, x[1:])):
            continue
        f = abs(sum(np.exp(1j * cfg.kappa * xi) for xi in x))
        if f > best_f + 1e-12:
            best_f, best_x = f, x
    return np.array(best_x), best_f


def unfiltered_aps_x(cfg, grid_step):
    """APS positions when every anchored subset is scored, mirrors included.

    Same arithmetic and tie rule as aps_search over all x_1 = 0 subsets, as
    the search ran before mirrors were dropped.
    """
    values = grid_step * np.arange(int(math.floor(cfg.span_l / grid_step + 1e-9)) + 1)
    pos = np.asarray([
        c for c in itertools.combinations(values, cfg.n_antennas)
        if c[0] == 0.0 and all(b - a >= cfg.d_min - 1e-9 for a, b in zip(c, c[1:]))
    ])
    f = np.abs(np.exp(1j * cfg.kappa * pos).sum(axis=1))
    return pos[int(np.flatnonzero(f >= f.max() - APS_TIE_TOL)[0])]


# ---------------------------------------------------------------------------
# Result invariants shared by every scheme


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_scheme_results_are_consistent(scheme):
    cfg = SystemConfig()
    res = run_scheme(scheme, cfg)
    assert res.scheme is scheme
    assert res.x[0] >= -1e-12
    assert res.x[-1] <= cfg.span_l + 1e-12
    assert np.all(np.diff(res.x) >= cfg.d_min - 1e-9)
    assert abs(np.linalg.norm(res.w.w) - 1.0) < 1e-12
    snr = snr_pair(res.w.w, res.x, cfg)
    assert snr.gamma_u1 == pytest.approx(res.snr.gamma_u1, rel=1e-9)
    assert snr.gamma_u2 == pytest.approx(res.snr.gamma_u2, rel=1e-9)
    assert snr.min_rate == pytest.approx(res.snr.min_rate, rel=1e-9)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_schemes_deterministic(scheme):
    cfg = SystemConfig()
    ra = run_scheme(scheme, cfg)
    posopt.multi_start_sca.cache_clear()  # recompute, not a cache hit
    rb = run_scheme(scheme, cfg)
    assert np.array_equal(ra.x, rb.x)
    assert np.array_equal(ra.w.w, rb.w.w)
    assert ra.snr.min_rate == rb.snr.min_rate


def test_run_scheme_rejects_unknown():
    with pytest.raises(ValueError):
        run_scheme("nonsense", SystemConfig(), 0.5)


# ---------------------------------------------------------------------------
# Proposed scheme


def test_proposed_uses_correlation_positions():
    cfg = SystemConfig()
    res = proposed_scheme(cfg)
    x_ref = multi_start_sca(cfg).x
    assert np.array_equal(res.x, x_ref)
    bf = closed_form_beamformer(res.x, cfg)
    assert np.array_equal(res.w.w, bf.w)


# ---------------------------------------------------------------------------
# Alternating optimization


def test_ao_fixed_point_at_proposed_solution():
    cfg = SystemConfig()
    prop = proposed_scheme(cfg)
    x_ref, _bf, rates_ref, converged_ref = scalar_ao(cfg, prop.x)
    assert np.max(np.abs(x_ref - prop.x)) <= 1e-12 * (1.0 + np.max(np.abs(prop.x)))
    assert converged_ref
    assert rates_ref == pytest.approx([prop.snr.min_rate] * 2, abs=1e-9, rel=1e-9)
    assert ao_scheme(cfg).snr.min_rate >= prop.snr.min_rate


def test_ao_is_the_proposed_scheme():
    # AO never moves its start, and by the monotone-optimum lemma in
    # optimize_mixing no start beats the shared solve, so AO returns it
    rng = np.random.default_rng(1100)
    configs = [SystemConfig(), SystemConfig(theta_su=(0.0, 0.0), d_su=(80.0, 120.0))]
    configs += [theorem_config(trial, rng) for trial in range(30)]
    for cfg in configs:
        ao, prop = ao_scheme(cfg), proposed_scheme(cfg)
        assert ao.scheme is Scheme.AO and ao.trace is None
        assert np.array_equal(ao.x, prop.x)
        assert np.array_equal(ao.w.w, prop.w.w)
        assert ao.w.t == prop.w.t and ao.w.case_label == prop.w.case_label
        assert ao.snr == prop.snr


def test_ao_never_beats_joint_grid_on_lattice_aligned_setup():
    # beat period 2 pi / kappa = 2.5 sits exactly on the 0.05 grid and the
    # aligned optimum has t = 1, so the grid value is the true joint optimum
    cfg = SystemConfig(
        n_antennas=2, span_l=3.0, theta_su=(0.0, math.asin(0.4)), d_su=(100.0, 100.0)
    )
    joint = brute_force_joint(cfg, GridSpec(position_step=0.05, t_step=1e-4))
    res = ao_scheme(cfg)
    assert res.snr.min_rate <= joint.min_rate + 1e-6
    # and the shared solve reaches that optimum
    assert res.snr.min_rate == pytest.approx(joint.min_rate, rel=1e-9)


def test_ao_serves_identical_flat_channels():
    # both users broadside: kappa = 0 for both, identical all-ones channels,
    # so the matched filter gives each user its peak gain n
    cfg = SystemConfig(theta_su=(0.0, 0.0), d_su=(80.0, 120.0))
    res = ao_scheme(cfg)
    gamma = min(cfg.snr_scales) * cfg.n_antennas
    assert res.snr.min_rate == pytest.approx(math.log2(1.0 + gamma), rel=1e-12)


def test_ao_validates_init():
    # each AO start goes straight to the closed-form beamformer, which checks it
    cfg = SystemConfig()
    with pytest.raises(ValueError):
        closed_form_beamformer(np.array([0.0, 0.5, 1.0]), cfg)
    with pytest.raises(ValueError):
        closed_form_beamformer(np.array([0.0, 0.4, 1.0, 1.5, 2.0]), cfg)


# ---------------------------------------------------------------------------
# AO against the majorization-minimization reference


def scalar_gain_and_grad(x, w, kappa):
    """|h(x)^T w|^2 and its position gradient for one user."""
    v = w * np.exp(1j * kappa * x)
    s = v.sum()
    gain = float(abs(s) ** 2)
    grad = -2.0 * kappa * np.imag(np.conj(s) * v)
    return gain, grad


def scalar_ao_position_step(x_k, w, cfg, max_rounds=30, inner_iters=200, tol=1e-10):
    """One start's majorization-minimization position step for a fixed w.

    Each round freezes a concave quadratic minorant per user (curvature
    delta_w, branch slopes scaled to a common unit) and ascends their
    pointwise minimum by projected supergradient steps, keeping the best
    iterate so the true objective never decreases.  Returns the new positions.
    """
    kappas = cfg.kappas
    c = np.array(cfg.snr_scales)
    s = c / c.max()
    n = cfg.n_antennas
    delta_w = 2.0 * max(abs(k) for k in kappas) ** 2 * n

    def objective(y):
        return min(s[i] * scalar_gain_and_grad(y, w, kappas[i])[0] for i in (0, 1))

    x = np.asarray(x_k, dtype=float)
    val = objective(x)
    for _ in range(max_rounds):
        base = [scalar_gain_and_grad(x, w, kappas[i]) for i in (0, 1)]
        gains = np.array([b[0] for b in base])
        grads = [b[1] for b in base]

        def phi(y):
            d = y - x
            q = 0.5 * delta_w * float(d @ d)
            return min(s[i] * (gains[i] + float(grads[i] @ d)) - q for i in (0, 1))

        best_y, best_phi = x, phi(x)
        for i in (0, 1):
            cand = project_polytope(x + s[i] * grads[i] / delta_w, cfg.span_l, cfg.d_min)
            phi_cand = phi(cand)
            if phi_cand > best_phi:
                best_y, best_phi = cand, phi_cand
        y = best_y
        for k in range(inner_iters):
            d = y - x
            branch = [s[i] * (gains[i] + float(grads[i] @ d)) for i in (0, 1)]
            i_star = int(np.argmin(branch))
            step = s[i_star] * grads[i_star] - delta_w * d
            alpha = 2.0 / (delta_w * (k + 2.0))
            y_new = project_polytope(y + alpha * step, cfg.span_l, cfg.d_min)
            move = float(np.linalg.norm(y_new - y))
            y = y_new
            phi_y = phi(y)
            if phi_y > best_phi:
                best_y, best_phi = y, phi_y
            if move <= 1e-13 * (1.0 + float(np.linalg.norm(y))):
                break
        val_new = objective(best_y)
        improvement = val_new - val
        if val_new >= val:
            x, val = best_y, val_new
        if improvement < tol:
            break
    return x


def scalar_ao(cfg, init_x, outer_tol=1e-8, max_outer=100):
    """One start's alternation; returns (x, beamformer, min_rates, converged)."""
    x = np.asarray(init_x, dtype=float)
    rates = []
    converged = False
    bf = closed_form_beamformer(x, cfg)
    for _ in range(max_outer):
        rates.append(snr_pair(bf.w, x, cfg).min_rate)
        if len(rates) > 1 and rates[-1] - rates[-2] < outer_tol:
            converged = True
            break
        x = scalar_ao_position_step(x, bf.w, cfg)
        bf = closed_form_beamformer(x, cfg)
    if not converged:
        rates.append(snr_pair(bf.w, x, cfg).min_rate)
    return x, bf, rates, converged


def ao_test_config(n, rng):
    if n == SystemConfig().n_antennas:
        return SystemConfig()
    return SystemConfig(
        n_antennas=n,
        span_l=(n - 1) * 0.5 + 2.0,
        theta_su=tuple(float(t) for t in np.sort(rng.uniform(0.1, math.pi - 0.1, 2))),
        d_su=(80.0, 120.0),
    )


def closed_form_rate(x, cfg):
    """AO from start x: the closed-form beamformer there and its worst-user rate."""
    bf = closed_form_beamformer(x, cfg)
    return bf, snr_pair(bf.w, x, cfg).min_rate


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_ao_matches_scalar_loop(n):
    rng = np.random.default_rng(1200 + n)
    cfg = ao_test_config(n, rng)
    starts = [uniform_positions(cfg)]
    starts += [random_positions(cfg, rng) for _ in range(3)]
    starts.append(multi_start_sca(cfg).x)  # the warm start
    starts.append(cfg.d_min * np.arange(n))  # packed against the left end
    for init in starts:
        bf, rate = closed_form_rate(init, cfg)
        x_ref, bf_ref, rates_ref, converged_ref = scalar_ao(cfg, init)
        assert np.max(np.abs(init - x_ref)) <= 1e-12 * (1.0 + np.max(np.abs(x_ref)))
        assert bf.t == pytest.approx(bf_ref.t, rel=1e-12, abs=1e-15)
        assert bf.case_label == bf_ref.case_label
        # the alternation stops after one outer iteration, at the start's rate
        assert len(rates_ref) == 2
        assert rates_ref == pytest.approx([rate, rate], rel=1e-12)
        assert converged_ref


EXACT_ANGLES = (0.0, math.pi / 2.0, math.pi)


def theorem_config(trial, rng):
    """Random config: n = 2..16, one angle exact on every third trial."""
    n = 2 + trial % 15
    theta = rng.uniform(0.0, math.pi, 2)
    if trial % 3 == 0:
        # alternate the user and cycle through the exact angles
        theta[(trial // 3) % 2] = EXACT_ANGLES[(trial // 6) % 3]
    return SystemConfig(
        n_antennas=n,
        span_l=(n - 1) * 0.5 + float(rng.uniform(0.0, 4.0)),
        theta_su=tuple(float(t) for t in theta),
        d_su=tuple(float(d) for d in np.exp(rng.uniform(math.log(20.0), math.log(500.0), 2))),
    )


def scaled_gains_and_gradients(x, w, cfg):
    """c_i g_i and c_i grad g_i of user i's gain g_i, for both users."""
    pairs = [scalar_gain_and_grad(x, w, kappa) for kappa in cfg.kappas]
    values = [cfg.snr_scales[i] * gain for i, (gain, _grad) in enumerate(pairs)]
    grads = [cfg.snr_scales[i] * grad for i, (_gain, grad) in enumerate(pairs)]
    return values, grads


def min_norm_convex_combination(a, b):
    """Smallest ||lam a + (1 - lam) b|| over lam in [0, 1] (least squares)."""
    diff = a - b
    denom = float(diff @ diff)
    lam = 0.0 if denom == 0.0 else min(max(-float(b @ diff) / denom, 0.0), 1.0)
    return float(np.linalg.norm(b + lam * diff))


def test_closed_form_beamformer_is_a_first_order_fixed_point_of_the_position_step():
    # the certificate behind baselines.ao_scheme: at the closed-form w either
    # both users bind and a convex combination of their scaled position
    # gradients vanishes (crossing), or the binding user's gain sits at its
    # peak n with a zero gradient (endpoints, parallel channels), so no
    # concave minorant of the worst-user gain can rise away from x
    rng = np.random.default_rng(1400)
    binding = {
        CaseLabel.LEFT_ENDPOINT: (1,),
        CaseLabel.RIGHT_ENDPOINT: (0,),
        CaseLabel.DEGENERATE_PARALLEL: (0, 1),
    }
    seen = set()
    for trial in range(240):
        cfg = theorem_config(trial, rng)
        x = random_positions(cfg, rng)
        bf = closed_form_beamformer(x, cfg)
        values, grads = scaled_gains_and_gradients(x, bf.w, cfg)
        seen.add(bf.case_label)
        if bf.case_label is CaseLabel.CROSSING:
            assert values[0] == pytest.approx(values[1], rel=1e-10)
            scale = max(float(np.linalg.norm(g)) for g in grads)
            assert min_norm_convex_combination(*grads) <= 1e-10 * scale
        else:
            kappas = cfg.kappas
            for i in binding[bf.case_label]:
                assert values[i] <= min(values) * (1.0 + 1e-10)
                peak = cfg.snr_scales[i] * cfg.n_antennas
                assert values[i] == pytest.approx(peak, rel=1e-10)
                peak_slope = 2.0 * cfg.snr_scales[i] * kappas[i] * cfg.n_antennas
                assert np.linalg.norm(grads[i]) <= 1e-10 * peak_slope
    assert {CaseLabel.CROSSING, CaseLabel.LEFT_ENDPOINT, CaseLabel.RIGHT_ENDPOINT} <= seen


def test_ao_matches_the_reference_from_every_kind_of_start():
    # trials 0..23 cover n = 2..16 and put each exact angle on each user
    rng = np.random.default_rng(1500)
    for trial in range(24):
        cfg = theorem_config(trial, rng)
        n = cfg.n_antennas
        # a user at angle 0 or pi has kappa = 0 up to rounding, and there the
        # reference's minorant can drift x by about 1e-9 through rounding
        flat = any(t in (0.0, math.pi) for t in cfg.theta_su)
        x_tol = 1e-8 if flat else 1e-12
        starts = [
            uniform_positions(cfg),
            random_positions(cfg, rng),
            cfg.d_min * np.arange(n),  # packed against the left end
            multi_start_sca(cfg).x,  # the warm start
        ]
        for init in starts:
            _bf, rate = closed_form_rate(init, cfg)
            x_ref, _bf_ref, rates_ref, converged_ref = scalar_ao(cfg, init)
            assert len(rates_ref) == 2
            assert rates_ref == pytest.approx([rate, rate], rel=1e-12)
            assert converged_ref
            assert np.max(np.abs(init - x_ref)) <= x_tol * (1.0 + np.max(np.abs(x_ref)))


def gain_hessian(x, w, kappa):
    """Hessian of |sum_i w_i exp(j kappa x_i)|^2: -2 kappa^2 times a Laplacian."""
    u = w * np.exp(1j * kappa * x)
    weights = np.real(np.conj(u)[:, None] * u[None, :])
    np.fill_diagonal(weights, 0.0)
    laplacian = np.diag(weights.sum(axis=1)) - weights
    return -2.0 * kappa**2 * laplacian


def fd_gain_hessian(x, w, kappa, h=1e-4):
    """Central-difference Hessian of the same gain, entry by entry."""
    n = x.size

    def gain(y):
        return abs(np.sum(w * np.exp(1j * kappa * y))) ** 2

    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = h * np.eye(n)[i]
            ej = h * np.eye(n)[j]
            hess[i, j] = hess[j, i] = (
                gain(x + ei + ej) - gain(x + ei - ej) - gain(x - ei + ej) + gain(x - ei - ej)
            ) / (4.0 * h * h)
    return hess


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_ao_curvature_bound_covers_gain_hessian(n):
    # the reference's minorant (scalar_ao_position_step) uses
    # delta_w = 2 max|kappa_i|^2 n as its curvature; Gershgorin on the
    # Laplacian gives the sharper 2 kappa^2 sqrt(n - 1)
    rng = np.random.default_rng(900 + n)
    worst_ratio = 0.0
    for trial in range(60):
        cfg = SystemConfig(
            n_antennas=n,
            span_l=(n - 1) * 0.5 + float(rng.uniform(0.0, 4.0)),
            wavelength=float(rng.uniform(0.5, 2.0)),
            theta_su=tuple(rng.uniform(0.0, math.pi, 2)),
        )
        x = random_positions(cfg, rng)
        if trial % 2:
            w = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)) / math.sqrt(n)
        else:
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            w /= np.linalg.norm(w)
        kappas = cfg.kappas
        delta_w = 2.0 * max(abs(k) for k in kappas) ** 2 * n
        for kappa in kappas:
            hess = gain_hessian(x, w, kappa)
            norm = np.linalg.norm(hess, 2)
            gershgorin = 2.0 * kappa**2 * math.sqrt(n - 1)
            assert norm <= gershgorin * (1.0 + 1e-12) + 1e-12
            assert gershgorin <= delta_w
            if gershgorin > 0.0:
                worst_ratio = max(worst_ratio, norm / gershgorin)
            if trial < 3:
                fd = fd_gain_hessian(x, w, kappa)
                assert np.max(np.abs(fd - hess)) <= 1e-5 * max(delta_w, 1.0)
    if n == 2:
        # two antennas with equal moduli in phase make the bound tight
        assert worst_ratio > 0.99


# ---------------------------------------------------------------------------
# Grid position selection


APS_ANGLE_PAIRS = [SystemConfig().theta_su, (0.3, 1.2), (2.0, 0.5), (1.0, 2.8)]


@pytest.mark.parametrize("angles", APS_ANGLE_PAIRS)
@pytest.mark.parametrize("n", [3, 4])
def test_aps_matches_independent_enumeration(n, angles):
    # the reference walks the full grid, every translate included
    cfg = SystemConfig(n_antennas=n, span_l=3.0, theta_su=angles)
    res = aps_search(cfg, grid_step=0.5)
    want_x, want_f = enumerate_grid_search(cfg, 0.5)
    assert np.allclose(res.x, want_x, atol=1e-12)
    assert correlation(res.x, cfg) == pytest.approx(want_f, rel=1e-12)


@pytest.mark.parametrize(
    "cfg, step",
    [
        (SystemConfig(), 0.5),
        (SystemConfig(n_antennas=3, span_l=2.0, theta_su=(0.3, 1.2)), 0.05),
        (SystemConfig(n_antennas=4, span_l=3.0, theta_su=(2.0, 0.5)), 0.1),
        (SystemConfig(n_antennas=4, span_l=3.0, theta_su=(0.8, math.pi - 0.8)), 0.25),
        (SystemConfig(n_antennas=5, span_l=3.0, theta_su=(1.0, 2.8)), 0.25),
    ],
)
def test_aps_matches_unfiltered_anchored_search(cfg, step):
    # dropping mirrored subsets keeps the winner, ties (the matching-sine
    # case) included
    assert np.array_equal(aps_search(cfg, grid_step=step).x, unfiltered_aps_x(cfg, step))


def pass_budget_configs():
    """(cfg, step) pairs for APS: the default system, 60 seeded random ones, and one where every subset ties."""
    rng = np.random.default_rng(39)
    cases = [(SystemConfig(), 0.25)]
    for _ in range(60):
        n = int(rng.integers(2, 6))
        step = float(rng.choice([0.25, 0.5]))
        d_min = step * int(rng.integers(1, 4))
        span_l = (n - 1) * d_min + step * int(rng.integers(0, 9))
        angles = tuple(float(a) for a in rng.uniform(0.0, math.pi, 2))
        cases.append((SystemConfig(n_antennas=n, span_l=span_l, d_min=d_min, theta_su=angles), step))
    # matching sine angles: every subset ties at f = n, so the first one must win across every chunk
    cases.append((SystemConfig(n_antennas=4, span_l=3.0, theta_su=(0.8, math.pi - 0.8)), 0.25))
    return cases


@pytest.mark.parametrize("budget", ["n", "2n+1", 4096])
def test_aps_winner_does_not_depend_on_the_pass_budget(monkeypatch, budget):
    # the enumerator yields chunks of budget // n anchored subsets: one, two
    # (less the dropped mirrors) or over 800 at a time
    for cfg, step in pass_budget_configs():
        n = cfg.n_antennas
        monkeypatch.setattr(posopt, "_PASS_BUDGET", {"n": n, "2n+1": 2 * n + 1}.get(budget, budget))
        assert np.array_equal(aps_search(cfg, grid_step=step).x, unfiltered_aps_x(cfg, step)), (cfg, step)


def test_aps_memory_is_flat_in_the_candidate_count():
    # 204 156 anchored candidates: scored in chunks under the pass budget,
    # keeping only the records inside the tie window
    cfg = SystemConfig(n_antennas=4, span_l=12.0, d_min=0.5)
    tracemalloc.start()
    try:
        aps_search(cfg, grid_step=0.1)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_aps_single_candidate():
    cfg = SystemConfig(n_antennas=3, span_l=1.0)
    res = aps_search(cfg, grid_step=0.5)
    assert np.allclose(res.x, [0.0, 0.5, 1.0])


def test_aps_lexicographic_tie_break():
    # matching sine angles make every subset tie at f = n, so the first
    # lexicographic one must win
    th = 0.8
    cfg = SystemConfig(n_antennas=3, span_l=3.0, theta_su=(th, math.pi - th))
    res = aps_search(cfg, grid_step=0.5)
    assert np.allclose(res.x, [0.0, 0.5, 1.0])


def test_aps_guard_refuses_blow_up():
    # C(2004, 4) ~ 6.7e11 anchored subsets, far beyond the cap
    cfg = SystemConfig(n_antennas=5, span_l=4.0)
    with pytest.raises(ValueError, match="coarser"):
        aps_search(cfg, grid_step=0.001)
    for step in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="^grid_step must be positive$"):
            aps_search(cfg, grid_step=step)


def test_aps_guard_refuses_before_building_the_grid():
    # 4e7 grid points would take 640 MB if the enumerator built them before
    # the count check
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceed the cap"):
            aps_search(SystemConfig(), grid_step=1e-7)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_aps_uses_optimal_beamformer():
    cfg = SystemConfig()
    res = aps_search(cfg, grid_step=0.5)
    bf = closed_form_beamformer(res.x, cfg)
    assert np.array_equal(res.w.w, bf.w)


# ---------------------------------------------------------------------------
# MRT and fixed arrays


def test_mrt_first_user_snr_is_matched_filter_bound():
    cfg = SystemConfig(d_su=(70.0, 180.0))
    res = ma_mrt(cfg)
    assert res.snr.gamma_u1 == pytest.approx(cfg.snr_scales[0] * cfg.n_antennas, rel=1e-12)
    # second user sees the correlation squared over n
    f = correlation(res.x, cfg)
    want = cfg.snr_scales[1] * f * f / cfg.n_antennas
    assert res.snr.gamma_u2 == pytest.approx(want, rel=1e-9)
    assert res.w.t == 1.0


def test_mrt_parallel_channels_serve_both():
    th = 0.9
    cfg = SystemConfig(theta_su=(th, math.pi - th))
    res = ma_mrt(cfg)
    assert res.snr.gamma_u2 == pytest.approx(cfg.snr_scales[1] * cfg.n_antennas, rel=1e-9)


def test_mrt_equals_full_mixing_objective():
    cfg = SystemConfig()
    res = ma_mrt(cfg)
    f = correlation(res.x, cfg)
    want = math.log2(1.0 + min_snr_from_correlation(1.0, f, cfg))
    assert res.snr.min_rate == pytest.approx(want, rel=1e-9)


def test_fpa_positions_and_errors():
    res = fpa_scheme(SystemConfig())
    assert np.allclose(res.x, [0.0, 0.5, 1.0, 1.5, 2.0])
    res2 = fpa_scheme(SystemConfig(n_antennas=2, span_l=4.0))
    assert np.allclose(res2.x, [0.0, 0.5])
    # config is feasible (4 * 0.4 = 1.6 fits) but the 0.5-spaced array is not
    with pytest.raises(ValueError, match="^fixed half-wavelength array does not fit the aperture$"):
        fpa_scheme(SystemConfig(n_antennas=5, span_l=1.9, d_min=0.4))
    # spacing below the separation floor is also rejected
    with pytest.raises(ValueError, match="^fixed half-wavelength spacing violates d_min$"):
        fpa_scheme(SystemConfig(n_antennas=3, span_l=4.0, d_min=0.7))


def test_fpa_independent_of_span():
    ra = fpa_scheme(SystemConfig(span_l=4.0))
    rb = fpa_scheme(SystemConfig(span_l=9.0))
    assert np.array_equal(ra.x, rb.x)
    assert ra.snr.min_rate == rb.snr.min_rate


# ---------------------------------------------------------------------------
# Length units


def length_unit_row(row_id, *row, xfail=None):
    """A row of the length-unit test; xfail names the measured cause of a strict xfail."""
    marks = pytest.mark.xfail(strict=True, reason=xfail) if xfail else ()
    return pytest.param(*row, marks=marks, id=row_id)


# grid systems whose d_min and span_l sit an ulp off a grid point of step 0.1
GRID_N3 = {"n_antennas": 3, "span_l": 0.7000000000000001, "d_min": 0.30000000000000004}
GRID_N4 = {"n_antennas": 4, "span_l": 1.2, "d_min": 0.30000000000000004}
JOINT_N3 = {"n_antennas": 3, "span_l": 1.0, "d_min": 0.30000000000000004}


LENGTH_UNIT_ROWS = [
    # with an absolute slack the enumerator wanted 4 grid steps for d_min: no
    # subset fit on GRID_N3, and GRID_N4 and the joint grid lost the 0.3 spacing
    length_unit_row("aps-n3-1e20", "aps", GRID_N3, 0.1, 1e20),
    length_unit_row("aps-n4-1e20", "aps", GRID_N4, 0.1, 1e20),
    length_unit_row("joint-n3-1e20", "joint", JOINT_N3, 0.1, 1e20),
    # with an absolute KAPPA_TOL, |kappa| = 2.5e-13 at 1e13 and 2.5e-20 at 1e20 read as
    # matching sine angles, so no ascent ran (22.9236 instead of 23.6371 bps/Hz at 1e13)
    length_unit_row("proposed-1e13", "proposed", {}, 0.5, 1e13),
    length_unit_row("proposed-n3-1e20", "proposed", {"n_antennas": 3, "span_l": 2.0}, 0.5, 1e20),
    # with the slack's absolute 1e-9 in user lengths, chain_dp_start's aligned chain
    # ended at 10.05 units on a 4-unit span and the slack accepted it (23.4491
    # instead of 23.6371 bps/Hz)
    length_unit_row("proposed-1e-12", "proposed", {}, 0.5, 1e-12),
    # the same 1e-9 was 1e4 grid steps: the grid ran past span_l and the minimum
    # gap fell to one step, d_min / 3, so the count passed the cap
    length_unit_row("aps-n4-1e-12", "aps", {**GRID_N4, "d_min": 0.3}, 0.1, 1e-12),
    length_unit_row("fpa-1e20", "fpa", {}, 0.5, 1e20, xfail=(
        "fpa spaces its array by the absolute REFERENCE_SPACING = 0.5, not half a wavelength")),
    # past a wavelength of about 6.7e141 kappa^2 in user units was not a normal
    # float, so the users read as matching sine angles and the uniform spread stayed
    length_unit_row("proposed-1e163", "proposed", {}, 0.5, 1e163),
]
# The scheme x unit matrix: every case at every unit, a cell that a row above
# already holds under that row's id.  With lengths compared in user units, 24
# cells failed: all six cases at 1e-300, where SystemConfig refused the scaled
# system since 2 kappa^2 n overflowed; all but the n = 28 case at 1e-150 and
# 1e-12; and the four position-solve cases at 1e163 and 1e300.
LENGTH_UNITS = {
    "1e-300": 1e-300, "1e-150": 1e-150, "1e-12": 1e-12, "1e-6": 1e-6, "0.5": 0.5, "3": 3.0,
    "1e3": 1e3, "1e13": 1e13, "1e20": 1e20, "1e100": 1e100, "1e163": 1e163, "1e300": 1e300,
}
LENGTH_UNIT_CASES = {
    "proposed": ("proposed", {}, 0.5),
    "ao": ("ao", {}, 0.5),
    "ma_mrt": ("ma_mrt", {}, 0.5),
    "aps-n4-d0.3": ("aps", {**GRID_N4, "d_min": 0.3}, 0.1),
    "joint-n3-d0.3": ("joint", {**JOINT_N3, "d_min": 0.3}, 0.1),
    "proposed-n28": ("proposed", {"n_antennas": 28, "span_l": 20.0}, 0.5),
}
LENGTH_UNIT_ROWS += [
    length_unit_row(f"{case}-{unit_id}", *row, unit)
    for case, row in LENGTH_UNIT_CASES.items()
    for unit_id, unit in LENGTH_UNITS.items()
    if (*row, unit) not in [tuple(r.values) for r in LENGTH_UNIT_ROWS]
]


@pytest.mark.parametrize("scheme, system, step, unit", LENGTH_UNIT_ROWS)
def test_schemes_keep_their_rate_in_any_length_unit(scheme, system, step, unit):
    """Scaling span_l, d_min, wavelength and the grid step by unit scales the positions by unit and keeps the rate."""

    def solve(scale):
        cfg = SystemConfig(**system)
        cfg = replace(cfg, span_l=cfg.span_l * scale, d_min=cfg.d_min * scale, wavelength=cfg.wavelength * scale)
        if scheme == "joint":
            joint = brute_force_joint(cfg, GridSpec(step * scale, 1e-3))
            return joint.x, joint.min_rate
        res = run_scheme(scheme, cfg, step * scale)
        return res.x, res.snr.min_rate

    x_unit, rate_unit = solve(1.0)
    x, rate = solve(unit)
    assert rate == pytest.approx(rate_unit, rel=1e-9)
    assert np.allclose(x / unit, x_unit, rtol=1e-9, atol=1e-9)


# the period of the default phase difference, in wavelengths
DEFAULT_PERIOD = 2.0 * math.pi / abs(SystemConfig().kappa)


@pytest.mark.parametrize(
    "scheme, system, step, rate",
    [
        # span_l is 5e-10 wavelengths short of the aligned chain, two periods long: a
        # slack of a plain 1e-9 wavelengths would take the chain, 5e-7 past span_l
        pytest.param("proposed", {"n_antennas": 3, "d_min": 500.0, "wavelength": 1e3,
                                  "span_l": 2.0 * DEFAULT_PERIOD * 1e3 - 5e-7},
                     0.5, 23.177495269562414, id="chain-wavelength-1e3"),
        # span_l is 5e-10 grid steps short of the fifth grid point: a slack of a plain
        # 1e-9 grid steps would let a subset end there, 5e-7 past span_l
        pytest.param("aps", {"n_antennas": 4, "d_min": 1e3, "wavelength": 1e3, "span_l": 4e3 - 5e-7},
                     1e3, 22.91719861856253, id="grid-step-1e3"),
    ],
)
def test_slack_in_wavelengths_or_grid_steps_is_no_looser_than_in_user_lengths(scheme, system, step, rate):
    """At a unit above one length, the kernels allow 1e-9 user lengths, not 1e-9 units: the rate keeps its bits."""
    cfg = SystemConfig(**system)
    res = run_scheme(scheme, cfg, step)
    assert res.x[-1] <= cfg.span_l
    assert res.snr.min_rate == rate


# ---------------------------------------------------------------------------
# Dominance


def test_proposed_dominates_simpler_schemes():
    cfg = SystemConfig()
    prop = proposed_scheme(cfg).snr.min_rate
    for scheme in (Scheme.APS, Scheme.MA_MRT, Scheme.FPA):
        other = run_scheme(scheme, cfg).snr.min_rate
        assert prop >= other - 1e-9
