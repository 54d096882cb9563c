"""Position optimization tests.

Oracles used here:
  * a naive repeated-scan pool-adjacent-violators reference plus the
    variational inequality of Euclidean projection certify project_polytope,
    and that reference and the max-min formula both check the stack-based
    isotonic pass under it;
  * central finite differences check the correlation-excess gradient;
  * the identity sum_{i != j} cos(kappa (x_i - x_j)) = f^2 - n ties the
    excess to the correlation through an independent route;
  * difference-space grid searches give the global optimum for n = 2, 3;
  * an exhaustive non-decreasing-tuple enumeration checks the surrogate
    maximizer on a deliberately small box;
  * an exact analytic Hessian checks the curvature bound 2 kappa^2 n;
  * a scalar SCA loop (the naive pool-adjacent-violators projection, the
    O(n^2) pairwise excess and gradient, the same per-round curvature)
    checks the one-start kernel;
  * an itertools enumeration of nondecreasing slack tuples on a grid checks
    the chain-DP start, and the whole-period chain checks its aligned case.
"""

import functools
import itertools
import logging
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ma_multicast import (
    SystemConfig,
    load_config,
    run_single,
    correlation,
    multi_start_sca,
    project_polytope,
    sca_optimize,
    uniform_positions,
)
from ma_multicast import posopt
from ma_multicast.baselines import Scheme, aps_search, run_scheme
from ma_multicast.posopt import (
    DP_MAX_STEPS,
    KAPPA_TOL,
    _isotonic,
    _sca,
    _surrogate_step,
    chain_dp_start,
    random_positions,
)
from ma_multicast.config import FEASIBILITY_TOL
from ma_multicast.sysmodel import validate_positions

from correlation_reference import (
    correlation_excess,
    correlation_excess_grad,
    curvature_bound,
    max_min_isotonic,
    surrogate_value,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records the config of every SCA kernel run; one solve runs one per start."""
    calls = []
    original = posopt._sca

    def counting(cfg, *args, **kwargs):
        calls.append(cfg)
        return original(cfg, *args, **kwargs)

    monkeypatch.setattr(posopt, "_sca", counting)
    return calls


def naive_pav(y):
    """Repeated left-to-right merging; quadratic time but obviously correct."""
    blocks = [[v] for v in y]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks) - 1):
            a = sum(blocks[i]) / len(blocks[i])
            b = sum(blocks[i + 1]) / len(blocks[i + 1])
            if a > b + 0.0:
                blocks[i] = blocks[i] + blocks[i + 1]
                del blocks[i + 1]
                changed = True
                break
    out = []
    for blk in blocks:
        out.extend([sum(blk) / len(blk)] * len(blk))
    return np.array(out)


def reference_projection(z, span_l, d_min):
    """Project via the shift trick and the naive PAV, clipping to the box."""
    n = len(z)
    offsets = d_min * np.arange(n)
    u = naive_pav(np.asarray(z, dtype=float) - offsets)
    u = np.clip(u, 0.0, span_l - (n - 1) * d_min)
    return u + offsets


def feasible_probe(rng, n, span_l, d_min):
    hi = span_l - (n - 1) * d_min
    u = np.sort(rng.uniform(0.0, hi, n))
    return u + d_min * np.arange(n)


# ---------------------------------------------------------------------------
# Polytope projection


def test_projection_matches_naive_reference():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        span_l = (n - 1) * 0.5 + float(rng.uniform(0.2, 3.0))
        z = rng.uniform(-2.0, span_l + 2.0, n)
        got = project_polytope(z, span_l, 0.5)
        want = reference_projection(z, span_l, 0.5)
        assert np.max(np.abs(got - want)) < 1e-10


def test_projection_variational_inequality():
    # <z - Pz, y - Pz> <= 0 for every feasible y characterizes the projection
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        span_l = (n - 1) * 0.5 + float(rng.uniform(0.2, 3.0))
        z = rng.uniform(-2.0, span_l + 2.0, n)
        p = project_polytope(z, span_l, 0.5)
        for _ in range(30):
            y = feasible_probe(rng, n, span_l, 0.5)
            assert float((z - p) @ (y - p)) <= 1e-9


def test_projection_fixed_point_and_nonexpansive():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        span_l = (n - 1) * 0.5 + float(rng.uniform(0.2, 3.0))
        x = feasible_probe(rng, n, span_l, 0.5)
        assert np.max(np.abs(project_polytope(x, span_l, 0.5) - x)) < 1e-12
        za = rng.uniform(-2.0, span_l + 2.0, n)
        zb = rng.uniform(-2.0, span_l + 2.0, n)
        pa = project_polytope(za, span_l, 0.5)
        pb = project_polytope(zb, span_l, 0.5)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(za - zb) + 1e-12


def test_batched_isotonic_matches_naive_pav():
    rng = np.random.default_rng(52)
    for n in range(1, 65):
        rows = [
            rng.normal(size=n),
            np.sort(rng.normal(size=n)),  # already monotone: a fixed point
            np.round(rng.normal(size=n) * 2.0) / 2.0,  # many ties
            np.full(n, 0.25),
            -np.sort(rng.uniform(size=n)),  # fully decreasing: one block
        ]
        for y in rows + [rng.uniform(-3.0, 3.0, n) for _ in range(3)]:
            got = _isotonic(y)
            assert got.shape == y.shape
            assert np.max(np.abs(got - naive_pav(y))) < 1e-12, n
            assert np.max(np.abs(got - max_min_isotonic(y))) < 1e-12, n
        assert np.max(np.abs(_isotonic(rows[1]) - rows[1])) < 1e-12


def test_projection_rejects_empty_polytope():
    with pytest.raises(ValueError):
        project_polytope(np.zeros(4), 1.0, 0.5)  # needs span >= 1.5
    with pytest.raises(ValueError):
        project_polytope(np.zeros((2, 4)), 4.0, 0.5)  # one vector only


# ---------------------------------------------------------------------------
# Correlation objective and derivatives


def test_reference_kappa_value():
    # 2 pi (sin(9 pi / 10) - sin(pi / 4)) with wavelength 1
    kappa = SystemConfig().kappa
    want = 2.0 * math.pi * (math.sin(9 * math.pi / 10) - math.sin(math.pi / 4))
    assert kappa == pytest.approx(want, rel=1e-15)
    assert kappa == pytest.approx(-2.501271899, rel=1e-9)


def test_correlation_matches_direct_sum():
    rng = np.random.default_rng(44)
    cfg = SystemConfig()
    for _ in range(50):
        x = feasible_probe(rng, 5, 4.0, 0.5)
        direct = abs(np.exp(1j * cfg.kappa * x).sum())
        assert correlation(x, cfg) == pytest.approx(direct, rel=1e-12)


def test_excess_equals_correlation_squared_minus_n():
    rng = np.random.default_rng(45)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        x = feasible_probe(rng, n, cfg.span_l, 0.5)
        f = correlation(x, cfg)
        assert correlation_excess(x, cfg.kappa) == pytest.approx(f * f - n, rel=1e-9, abs=1e-9)


def test_excess_gradient_matches_finite_differences():
    rng = np.random.default_rng(46)
    h = 1e-6
    for _ in range(60):
        n = int(rng.integers(2, 7))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        x = feasible_probe(rng, n, cfg.span_l, 0.5)
        g = correlation_excess_grad(x, cfg.kappa)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (correlation_excess(x + e, cfg.kappa) - correlation_excess(x - e, cfg.kappa)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=5e-5, abs=5e-5)


def test_curvature_bound_formula_and_reference_value():
    cfg = SystemConfig()
    k, n = abs(cfg.kappa), cfg.n_antennas
    delta = curvature_bound(cfg.kappa, n)
    assert delta == pytest.approx(2.0 * k * k * n, rel=1e-12)
    assert delta == pytest.approx(10.0 * k * k, rel=1e-12)  # n = 5
    assert delta == pytest.approx(62.563611, rel=1e-7)


def exact_excess_hessian(x, kappa):
    """Hessian of sum_{i != k} cos(kappa (x_i - x_k)), entry by entry."""
    c = np.cos(kappa * (x[:, None] - x[None, :]))
    hess = 2.0 * kappa**2 * c
    np.fill_diagonal(hess, 0.0)
    hess[np.diag_indices(x.size)] = -hess.sum(axis=1)
    return hess


def test_curvature_bound_covers_exact_hessian_and_is_tight():
    rng = np.random.default_rng(54)
    worst = 0.0
    for n in (2, 3, 4, 5, 8, 12, 16, 24, 32):
        for _ in range(40):
            kappa = float(rng.uniform(-6.0, 6.0))
            period = 2.0 * math.pi / abs(kappa)
            if rng.uniform() < 0.5:
                x = np.sort(rng.uniform(0.0, 3.0 * n, n))
            else:
                # phasors nearly aligned: spacings close to whole periods
                x = period * np.cumsum(rng.integers(1, 3, n)) + rng.normal(0.0, 1e-3, n)
            hess = exact_excess_hessian(x, kappa)
            if n <= 5:
                h = 1e-5
                fd = np.array([
                    (correlation_excess_grad(x + h * e, kappa) - correlation_excess_grad(x - h * e, kappa))
                    / (2.0 * h)
                    for e in np.eye(n)
                ])
                assert np.max(np.abs(fd - hess)) <= 1e-5 * (1.0 + np.max(np.abs(hess)))
            eig = np.linalg.eigvalsh(-hess)
            delta = curvature_bound(kappa, n)
            # the bound covers both ends of the spectrum
            assert eig[-1] <= delta * (1.0 + 1e-12)
            assert eig[0] >= -delta * (1.0 + 1e-12)
            worst = max(worst, eig[-1] / delta)
    assert worst > 0.999


def test_excess_hessian_norm_within_bound():
    rng = np.random.default_rng(47)
    h = 1e-5
    for n in range(2, 7):
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        delta = curvature_bound(cfg.kappa, cfg.n_antennas)
        for _ in range(10):
            x = feasible_probe(rng, n, cfg.span_l, 0.5)
            hess = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    ei = np.zeros(n)
                    ej = np.zeros(n)
                    ei[i] = h
                    ej[j] = h
                    hess[i, j] = (
                        correlation_excess(x + ei + ej, cfg.kappa)
                        - correlation_excess(x + ei - ej, cfg.kappa)
                        - correlation_excess(x - ei + ej, cfg.kappa)
                        + correlation_excess(x - ei - ej, cfg.kappa)
                    ) / (4 * h * h)
            assert np.linalg.norm(hess, 2) <= delta * (1.0 + 1e-6) + 1e-6


# ---------------------------------------------------------------------------
# Surrogate


def test_surrogate_minorizes_excess():
    rng = np.random.default_rng(48)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        x_k = feasible_probe(rng, n, cfg.span_l, 0.5)
        x = feasible_probe(rng, n, cfg.span_l, 0.5)
        f1_k = correlation_excess(x_k, cfg.kappa)
        g = correlation_excess_grad(x_k, cfg.kappa)
        delta = curvature_bound(cfg.kappa, cfg.n_antennas)
        assert surrogate_value(x, x_k, f1_k, g, delta) <= correlation_excess(x, cfg.kappa) + 1e-9
        assert surrogate_value(x_k, x_k, f1_k, g, delta) == pytest.approx(f1_k, rel=1e-12)


def test_solve_surrogate_against_enumeration():
    # small box so a 1e-3-grid enumeration of sorted tuples is exhaustive
    cfg = SystemConfig(n_antennas=4, span_l=1.56, d_min=0.5)
    delta = curvature_bound(cfg.kappa, cfg.n_antennas)
    hi = cfg.span_l - 3 * cfg.d_min  # 0.06
    offsets = cfg.d_min * np.arange(4)
    grid = np.round(np.linspace(0.0, hi, 61), 9)
    candidates = np.array(
        [c for c in itertools.combinations_with_replacement(grid, 4)]
    ) + offsets  # non-decreasing u tuples cover the whole polytope
    rng = np.random.default_rng(49)
    for _ in range(5):
        x_k = feasible_probe(rng, 4, cfg.span_l, 0.5)
        g = correlation_excess_grad(x_k, cfg.kappa)
        got = _surrogate_step(x_k, g, delta, cfg.span_l, cfg.d_min)
        # the maximizer of the minorant is the projection of x_k + g / delta
        z = x_k + g / delta
        dist = ((candidates - z) ** 2).sum(axis=1)
        want = candidates[int(np.argmin(dist))]
        assert np.max(np.abs(got - want)) <= 2e-3


def test_solve_surrogate_zero_gradient_returns_anchor():
    cfg = SystemConfig(n_antennas=4, span_l=4.0)
    x_k = np.array([0.0, 0.5, 1.0, 4.0])
    out = _surrogate_step(x_k, np.zeros(4), 10.0, cfg.span_l, cfg.d_min)
    assert np.array_equal(out, x_k)


# ---------------------------------------------------------------------------
# SCA runs


def test_sca_trace_monotone_and_improving():
    rng = np.random.default_rng(50)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.5)
        init = feasible_probe(rng, n, cfg.span_l, 0.5)
        x, trace = sca_optimize(cfg, init)
        vals = trace.f1_history
        assert vals.size == trace.iterations + 1
        assert np.array_equal(trace.x, x)
        assert np.all(np.diff(vals) >= -1e-9)
        assert correlation_excess(x, cfg.kappa) >= correlation_excess(init, cfg.kappa) - 1e-9


def test_sca_zero_kappa_short_circuit():
    th = 0.7
    cfg = SystemConfig(theta_su=(th, math.pi - th))  # equal sines
    init = uniform_positions(cfg)
    x, trace = sca_optimize(cfg, init)
    assert np.array_equal(x, init)
    assert trace.iterations == 0
    assert trace.converged


def test_sca_two_antennas_reaches_grid_optimum():
    # f depends only on the spacing, so sweep it; the single-start run from
    # the uniform init can stall on the boundary, the multi-start must not
    cfg = SystemConfig(n_antennas=2, span_l=4.0)
    init = uniform_positions(cfg)
    x_single, _trace = sca_optimize(cfg, init)
    assert correlation_excess(x_single, cfg.kappa) >= correlation_excess(init, cfg.kappa) - 1e-9
    deltas = np.arange(0.5, 4.0 + 1e-12, 1e-3)
    grid_best = np.max(np.abs(1.0 + np.exp(1j * cfg.kappa * deltas)))
    x_multi = multi_start_sca(cfg).x
    assert correlation(x_multi, cfg) >= grid_best - 1e-3


def test_sca_three_antennas_multi_start_near_grid():
    cfg = SystemConfig(n_antennas=3, span_l=4.0)
    d1 = np.arange(0.5, 3.5 + 1e-12, 0.02)
    best = 0.0
    for a in d1:
        d2 = np.arange(0.5, 4.0 - a + 1e-12, 0.02)
        vals = np.abs(1.0 + np.exp(1j * cfg.kappa * a) + np.exp(1j * cfg.kappa * (a + d2)))
        best = max(best, float(vals.max()))
    x = multi_start_sca(cfg).x
    assert correlation(x, cfg) >= best * (1.0 - 0.01)


def test_sca_five_antennas_matches_fine_grid_selection():
    cfg = SystemConfig()  # n = 5, span 4
    x = multi_start_sca(cfg).x
    ref = aps_search(cfg, grid_step=0.05)
    f_ref = correlation(ref.x, cfg)
    assert correlation(x, cfg) >= f_ref * (1.0 - 0.01)


def test_position_solve_deterministic_and_best_of_two_starts():
    for n, span_l in ((3, 3.0), (5, 4.0), (8, 6.0), (16, 10.0)):
        cfg = SystemConfig(n_antennas=n, span_l=span_l)
        trace = multi_start_sca(cfg)
        xa = trace.x
        posopt.multi_start_sca.cache_clear()  # recompute, not a cache hit
        xb = multi_start_sca(cfg).x
        assert np.array_equal(xa, xb)
        # the winner is the better of the two one-row runs
        starts = (uniform_positions(cfg), chain_dp_start(cfg))
        runs = [sca_optimize(cfg, start)[0] for start in starts]
        f_runs = [correlation_excess(x, cfg.kappa) for x in runs]
        assert correlation_excess(xa, cfg.kappa) == pytest.approx(max(f_runs), rel=1e-12)
        assert min(np.max(np.abs(xa - x)) for x in runs) < 1e-11
        assert trace.converged


def test_position_solve_keeps_the_uniform_start_when_kappa_is_zero():
    th = 0.7
    cfg = SystemConfig(theta_su=(th, math.pi - th))  # equal sines
    trace = multi_start_sca(cfg)
    x = trace.x
    assert np.array_equal(x, uniform_positions(cfg))
    assert trace.converged and trace.iterations == 0


def test_position_solve_breaks_f1_ties_on_the_smaller_x(monkeypatch):
    cfg = SystemConfig()

    def trace(f1, x):
        return posopt.ScaTrace(f1_history=np.array([f1]), x=np.array(x), converged=True, iterations=0)

    low = trace(3.0, [0.0, 1.0, 2.0, 3.0, 4.0])
    tied = trace(3.0 + 0.5 * posopt.TIE_TOL, [0.0, 1.0, 2.0, 3.5, 4.0])
    better = trace(3.0 + 2.0 * posopt.TIE_TOL, [0.0, 1.0, 2.5, 3.0, 4.0])
    for runs, winner in (
        ([low, tied], low), ([tied, low], low),
        ([better, low], better), ([low, better], better),
    ):
        # one ascent per start, handed out in start order
        monkeypatch.setattr(posopt, "_sca", lambda cfg, start, runs=iter(runs): next(runs))
        posopt.multi_start_sca.cache_clear()
        assert multi_start_sca(cfg) is winner


def test_random_positions_feasible():
    rng = np.random.default_rng(51)
    cfg = SystemConfig(n_antennas=6, span_l=3.2)
    for _ in range(200):
        x = random_positions(cfg, rng)
        assert x[0] >= 0.0
        assert x[-1] <= cfg.span_l + 1e-12
        assert np.all(np.diff(x) >= cfg.d_min - 1e-12)


# ---------------------------------------------------------------------------
# The SCA kernel against a scalar loop


def scalar_sca(cfg, init, tol=1e-8, max_iter=500):
    """One start at a time: naive PAV projection and the O(n^2) pairwise sums.

    Each round's curvature is 2 kappa^2 max(|s|, 1) at the current point,
    with |s| = sqrt(f1 + n) from the pairwise excess; a zero slope keeps x.
    """
    n = cfg.n_antennas
    x = np.array(init, dtype=float)
    f1 = correlation_excess(x, cfg.kappa)
    for k in range(1, max_iter + 1):
        g = correlation_excess_grad(x, cfg.kappa)
        delta = 2.0 * cfg.kappa**2 * max(math.sqrt(max(f1 + n, 0.0)), 1.0)
        x_new = x if not g.any() else reference_projection(x + g / delta, cfg.span_l, cfg.d_min)
        f1_new = correlation_excess(x_new, cfg.kappa)
        improvement = f1_new - f1
        x, f1 = x_new, f1_new
        if improvement < tol:
            return x, k, True
    return x, max_iter, False


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 28, 32])
def test_batched_kernel_matches_scalar_loop(n):
    rng = np.random.default_rng(1000 + n)
    starts_per_seed = 4 if n < 28 else 2
    for span_extra in (1.5, 4.0):
        cfg = SystemConfig(
            n_antennas=n,
            span_l=(n - 1) * 0.5 + span_extra,
            theta_su=tuple(float(t) for t in np.sort(rng.uniform(0.1, math.pi - 0.1, 2))),
        )
        starts = [uniform_positions(cfg)]
        starts += [random_positions(cfg, rng) for _ in range(starts_per_seed - 1)]
        for init in starts:
            trace = _sca(cfg, init)
            x_ref, iters_ref, conv_ref = scalar_sca(cfg, init)
            assert trace.iterations == iters_ref
            assert trace.converged == conv_ref
            assert np.max(np.abs(trace.x - x_ref)) < 1e-11
            f_ref = correlation(x_ref, cfg)
            assert correlation(trace.x, cfg) == pytest.approx(f_ref, rel=1e-12)


def test_local_curvature_minorizes_everywhere():
    """2 kappa^2 |s_k| gives a minorant of f1 at any y, however far from x_k."""
    rng = np.random.default_rng(56)
    worst = -math.inf
    for _ in range(3000):
        n = int(rng.integers(2, 33))
        kappa = float(rng.uniform(-8.0, 8.0))
        x_k = rng.uniform(-5.0, 5.0, n)
        y = x_k + rng.normal(0.0, float(rng.choice([1e-3, 0.1, 1.0, 5.0])), n)
        f1_k = correlation_excess(x_k, kappa)
        delta = 2.0 * kappa**2 * abs(np.exp(1j * kappa * x_k).sum())
        lower = surrogate_value(y, x_k, f1_k, correlation_excess_grad(x_k, kappa), delta)
        worst = max(worst, (lower - correlation_excess(y, kappa)) / max(1.0, abs(f1_k)))
    assert worst <= 1e-12


def test_every_sca_step_stays_on_or_above_its_minorant(monkeypatch):
    """Each round's delta is at most 2 kappa^2 n and its step ends on or above the minorant."""
    calls = []
    original = posopt._surrogate_step

    def recording(x_k, g, delta, span_l, d_min):
        x_new = original(x_k, g, delta, span_l, d_min)
        calls.append((x_k, g, delta, x_new))
        return x_new

    monkeypatch.setattr(posopt, "_surrogate_step", recording)
    rng = np.random.default_rng(55)
    steps = 0
    for n in (2, 3, 4, 5, 8, 16):
        for _ in range(8):
            cfg = SystemConfig(
                n_antennas=n,
                span_l=(n - 1) * 0.5 + float(rng.uniform(0.1, 8.0)),
                theta_su=tuple(float(t) for t in np.sort(rng.uniform(0.0, math.pi, 2))),
            )
            delta_max = curvature_bound(cfg.kappa, cfg.n_antennas)
            calls.clear()
            traces = [_sca(cfg, feasible_probe(rng, n, cfg.span_l, cfg.d_min)) for _ in range(3)]
            assert len(calls) == sum(t.iterations for t in traces)
            for x_k, g, delta, x_new in calls:
                assert 0.0 < delta <= delta_max * (1.0 + 1e-15)
                f1_k = correlation_excess(x_k, cfg.kappa)
                f1_new = correlation_excess(x_new, cfg.kappa)
                lower = surrogate_value(x_new, x_k, f1_k, g, delta)
                scale = max(1.0, abs(f1_k))
                assert f1_new >= lower - 1e-12 * scale
                assert f1_new >= f1_k - 1e-12 * scale
                steps += 1
    assert steps > 500


def test_kernel_rejects_infeasible_start():
    cfg = SystemConfig(n_antennas=3, span_l=2.0)
    with pytest.raises(ValueError, match="feasible"):
        _sca(cfg, np.array([0.0, 0.2, 1.0]))


def test_kernel_checks_feasibility_on_entry_and_exit_only(monkeypatch):
    calls = []
    original = posopt.validate_positions

    def counting(x, *args):
        calls.append(np.array(x))
        return original(x, *args)

    monkeypatch.setattr(posopt, "validate_positions", counting)
    rounds = set()
    for cfg in (
        SystemConfig(),
        SystemConfig(n_antennas=16, span_l=20.0),
        SystemConfig(theta_su=(0.7, math.pi - 0.7)),  # kappa = 0: no rounds
    ):
        start = uniform_positions(cfg)
        calls.clear()
        trace = _sca(cfg, start)
        assert len(calls) == 2
        assert np.array_equal(calls[0], start)
        assert np.array_equal(calls[1], trace.x)
        rounds.add(trace.iterations)
    assert 0 in rounds and max(rounds) > 2


@pytest.mark.parametrize("d, rounds", [(2e-13, 1), (1e-13, 0)])
def test_position_solve_at_the_curvature_edge(d, rounds):
    # kappa about 1.10e-12 runs the rounds with delta >= 2 KAPPA_TOL^2; about
    # 5.5e-13 takes the short-circuit and keeps the uniform start
    cfg = SystemConfig(theta_su=(0.5, 0.5 + d))
    assert (abs(cfg.kappa) >= KAPPA_TOL) == (rounds > 0)
    trace = multi_start_sca(cfg)
    x = trace.x
    assert trace.iterations == rounds and trace.converged
    validate_positions(x, cfg.span_l, cfg.d_min)
    assert correlation(x, cfg) == pytest.approx(cfg.n_antennas, abs=1e-12)
    if rounds == 0:
        assert np.array_equal(x, uniform_positions(cfg))


# ---------------------------------------------------------------------------
# Chain-DP start


def reference_kappa(cfg):
    return (2.0 * math.pi / cfg.wavelength) * (math.sin(cfg.theta_su[1]) - math.sin(cfg.theta_su[0]))


def aligned_chain(cfg):
    """x_i = (i - 1) ceil(d_min / P) P, P = wavelength / |sin theta_2 - sin theta_1|, and
    whether it fits the span: every spacing is then a whole number of phase periods."""
    period = cfg.wavelength / abs(math.sin(cfg.theta_su[1]) - math.sin(cfg.theta_su[0]))
    pitch = math.ceil(cfg.d_min / period) * period
    n = cfg.n_antennas
    return pitch * np.arange(n), (n - 1) * pitch <= cfg.span_l + FEASIBILITY_TOL


def dp_reference_grid(cfg, steps=None):
    """Slack values k H / M, k = 0..M, with H = span_l - (n - 1) d_min and M the fewest
    steps of at most min(0.025 wavelength, (pi / 64) / |kappa|), but at most DP_MAX_STEPS."""
    hi = max(cfg.span_l - (cfg.n_antennas - 1) * cfg.d_min, 0.0)
    if steps is None:
        h = min(0.025 * cfg.wavelength, (math.pi / 64.0) / abs(reference_kappa(cfg)))
        steps = min(math.ceil(hi / h), DP_MAX_STEPS)
    return np.linspace(0.0, hi, steps + 1)


def reference_chain_dp(cfg, phases=64):
    """The chain-DP start computed in one table: the aligned chain when it fits within
    the feasibility slack, else every phase at once, the whole (n, M + 1) value table of
    the winning phase, and the walk back by the first argmax over each row's prefix."""
    n, d_min, kappa = cfg.n_antennas, cfg.d_min, reference_kappa(cfg)
    period = 2.0 * math.pi / abs(kappa)
    pitch = math.ceil(d_min / period) * period
    if (n - 1) * pitch <= cfg.span_l + FEASIBILITY_TOL + 2.0 ** -49 * cfg.span_l:
        return pitch * np.arange(n)
    u = dp_reference_grid(cfg)
    turn = np.exp(1j * kappa * d_min * np.arange(n))
    wave = np.exp(1j * (kappa * u[:, None] - (2.0 * math.pi / phases) * np.arange(phases)))
    best = np.zeros(wave.shape)
    for r in turn:
        best = np.maximum.accumulate(best, axis=0) + (wave * r).real
    wave = wave[:, np.argmax(best.max(axis=0))]
    value = np.zeros((n + 1, u.size))
    for i, r in enumerate(turn):
        value[i + 1] = np.maximum.accumulate(value[i]) + (wave * r).real
    chosen = [u.size - 1]
    for row in value[:0:-1]:
        chosen.append(int(np.argmax(row[: chosen[-1] + 1])))
    return u[chosen[:0:-1]] + d_min * np.arange(n)


def brute_force_dp_argmax(cfg, phases=64):
    """Argmax of sum_i cos(kappa x_i - psi) over every nondecreasing tuple of grid
    slacks and every phase.

    The sum is Re(exp(-j psi) s), s the tuple's phasor sum, so one phasor sum
    per tuple scores every phase.
    """
    n = cfg.n_antennas
    u = dp_reference_grid(cfg)
    tuples = u[np.array(list(itertools.combinations_with_replacement(range(u.size), n)))]
    x = tuples + cfg.d_min * np.arange(n)
    s = np.exp(1j * reference_kappa(cfg) * x).sum(axis=1)
    best = np.full(s.size, -np.inf)
    for p in range(phases):
        np.maximum(best, (s * np.exp(-2j * math.pi * p / phases)).real, out=best)
    row = int(np.argmax(best))
    return x[row], float(best[row])


def grid_distance(values, grid):
    """Largest distance from a value to its nearest grid point."""
    return np.max(np.min(np.abs(values[:, None] - grid[None, :]), axis=1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_dp_start_matches_brute_force(n):
    rng = np.random.default_rng(60 + n)
    checked = 0
    while checked < 5:
        cfg = SystemConfig(
            n_antennas=n,
            span_l=(n - 1) * 0.5 + float(rng.uniform(0.1, {2: 1.5, 3: 0.6, 4: 0.25}[n])),
            theta_su=tuple(float(t) for t in np.sort(rng.uniform(0.0, math.pi, 2))),
        )
        if aligned_chain(cfg)[1]:
            continue  # the start is the aligned chain, tested below
        kappa = reference_kappa(cfg)
        want_x, want_value = brute_force_dp_argmax(cfg)
        got = chain_dp_start(cfg)
        phase_sums = np.cos(kappa * got[:, None] - 2.0 * math.pi * np.arange(64) / 64).sum(axis=0)
        assert phase_sums.max() == pytest.approx(want_value, abs=1e-9)
        assert np.max(np.abs(got - want_x)) < 1e-9
        checked += 1


def test_chain_dp_start_is_feasible_and_on_the_grid():
    rng = np.random.default_rng(62)
    for n in (2, 3, 5, 8, 16, 32, 64):
        for _ in range(3):
            cfg = SystemConfig(
                n_antennas=n,
                span_l=(n - 1) * 0.5 + float(rng.uniform(0.0, 10.0)),
                theta_su=tuple(float(t) for t in np.sort(rng.uniform(0.0, math.pi, 2))),
            )
            x = chain_dp_start(cfg)
            assert x.shape == (n,)
            validate_positions(x, cfg.span_l, cfg.d_min)
            chain, fits = aligned_chain(cfg)
            if fits:
                assert np.max(np.abs(x - chain)) < 1e-12 * n
            else:
                assert grid_distance(x - cfg.d_min * np.arange(n), dp_reference_grid(cfg)) < 1e-9


def test_chain_dp_start_keeps_the_span_endpoint():
    # default angles: |1 + exp(j kappa d)| rises over d in [1.26, 2.3], so the
    # best pair spans the whole aperture, and the slack grid holds H = 1.8
    cfg = SystemConfig(n_antennas=2, span_l=2.3)
    x = chain_dp_start(cfg)
    assert x[0] == 0.0 and x[1] == pytest.approx(2.3, abs=1e-12)
    inner = np.array([0.0, 0.5 + dp_reference_grid(cfg)[-2]])
    assert correlation(x, cfg) > correlation(inner, cfg)


@pytest.mark.parametrize("n, span", [(3, 2.0), (5, 3.0), (5, 4.0), (8, 4.5), (8, 10.0)])
def test_chain_dp_start_stays_feasible_when_span_l_sits_off_a_grid_point(n, span):
    # span_l within 2e-9 of a multiple of a grid step, where rounding can
    # leave a chain just short of d_min and the solve would raise on its own
    # start
    for k in range(-2, 3):
        cfg = SystemConfig(n_antennas=n, span_l=span + k * 1e-9)
        validate_positions(chain_dp_start(cfg), cfg.span_l, cfg.d_min)
        x = multi_start_sca(cfg).x
        validate_positions(x, cfg.span_l, cfg.d_min)


def test_chain_dp_start_just_under_the_minimum_span_is_the_tightest_chain():
    # span_l 1e-9 under (n - 1) d_min passes the config check; the slack range
    # is then empty and every spacing is d_min
    cfg = SystemConfig(n_antennas=5, span_l=2.0 - 1e-9)
    x = chain_dp_start(cfg)
    assert np.array_equal(x, cfg.d_min * np.arange(5))
    validate_positions(x, cfg.span_l, cfg.d_min)
    validate_positions(multi_start_sca(cfg).x, cfg.span_l, cfg.d_min)


@pytest.mark.parametrize("d_min, wavelength", [(1e-6, 1.0), (0.5, 1e-4)])
def test_chain_dp_grid_stays_bounded_for_a_tiny_step(d_min, wavelength):
    # a grid step tied to d_min = 1e-6 would need about 8e6 points and 2 GB
    # per table; at wavelength 1e-4 the aligned chain fits
    cfg = SystemConfig(n_antennas=5, d_min=d_min, wavelength=wavelength)
    tracemalloc.start()
    try:
        trace = multi_start_sca(cfg)
        x = trace.x
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    validate_positions(chain_dp_start(cfg), cfg.span_l, cfg.d_min)
    validate_positions(x, cfg.span_l, cfg.d_min)
    assert correlation(x, cfg) >= correlation(uniform_positions(cfg), cfg) - 1e-9


def test_chain_dp_grid_holds_a_chain_when_n_exceeds_the_step_cap():
    n = DP_MAX_STEPS + 2
    cfg = SystemConfig(n_antennas=n, span_l=1.0, d_min=1.0 / (2 * n))
    x = chain_dp_start(cfg)
    assert x.shape == (n,)
    validate_positions(x, cfg.span_l, cfg.d_min)
    # the whole solve at this n: the O(n) projection keeps it to a few arrays of n
    tracemalloc.start()
    try:
        x = multi_start_sca(cfg).x
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
    assert x.shape == (n,)
    validate_positions(x, cfg.span_l, cfg.d_min)


def test_chain_dp_start_lies_on_the_capped_grid():
    # nearly equal sines: the phase period (131) overruns the span, so the
    # aligned chain does not fit, and steps of 0.025 across the slack range
    # 198 would take 7 920 points; the DP_MAX_STEPS cap binds
    cfg = SystemConfig(n_antennas=5, span_l=200.0, theta_su=(0.7, 0.71))
    assert not aligned_chain(cfg)[1]
    x = chain_dp_start(cfg)
    validate_positions(x, cfg.span_l, cfg.d_min)
    u = x - cfg.d_min * np.arange(5)
    assert u[0] > 0.0  # an interior point, so the grid it lies on matters
    capped = dp_reference_grid(cfg)
    assert capped.size == DP_MAX_STEPS + 1
    assert grid_distance(u, capped) < 1e-9
    assert grid_distance(u, dp_reference_grid(cfg, steps=7920)) > 1e-6


def test_chain_dp_start_returns_the_aligned_chain_exactly_when_it_fits():
    rng = np.random.default_rng(63)
    for n in (2, 3, 5, 8, 16, 32):
        for _ in range(3):
            theta = tuple(float(t) for t in np.sort(rng.uniform(0.0, math.pi, 2)))
            d_min = float(rng.uniform(0.1, 1.0))
            chain, _fits = aligned_chain(SystemConfig(n_antennas=n, d_min=d_min, theta_su=theta, span_l=1e6))
            length = chain[-1]
            for span_l in (length + float(rng.uniform(0.0, 3.0)), length, length - 0.5 * FEASIBILITY_TOL):
                cfg = SystemConfig(n_antennas=n, d_min=d_min, theta_su=theta, span_l=span_l)
                x = chain_dp_start(cfg)
                assert np.max(np.abs(x - chain)) < 1e-12 * n
                assert correlation(x, cfg) == pytest.approx(n, abs=1e-9 * n)
            # short of the chain by more than the tolerance: the chain would be infeasible
            cfg = SystemConfig(n_antennas=n, d_min=d_min, theta_su=theta, span_l=length - 2.0 * FEASIBILITY_TOL)
            x = chain_dp_start(cfg)
            validate_positions(x, cfg.span_l, cfg.d_min)
            assert np.max(np.abs(x - chain)) > FEASIBILITY_TOL


def test_chain_dp_start_matches_the_one_table_reference():
    # phase blocks, entering rows and the recomputed walk give the positions of
    # the one-table DP bit for bit, including where DP_MAX_STEPS binds, where
    # the slack grid is a single point and where M + 1 passes the pass budget
    rng = np.random.default_rng(64)
    cfgs = [
        SystemConfig(n_antennas=28, span_l=20.0),
        SystemConfig(n_antennas=64, span_l=40.0),
        SystemConfig(n_antennas=5, span_l=200.0, theta_su=(0.7, 0.71)),
        SystemConfig(n_antennas=37, span_l=240.0, theta_su=(0.7, 0.71)),
        SystemConfig(n_antennas=5, span_l=2.0 - 1e-9),
    ]
    for _ in range(520):
        n = int(rng.integers(2, 65))
        d_min = float(rng.uniform(0.1, 1.0))
        cfgs.append(SystemConfig(
            n_antennas=n,
            d_min=d_min,
            span_l=(n - 1) * d_min + float(rng.uniform(0.0, 4.0)),
            wavelength=float(rng.choice([0.5, 1.0, 1.0, 1.0, 2.0])),
            theta_su=tuple(float(t) for t in np.sort(rng.uniform(0.0, math.pi, 2))),
        ))
    for cfg in cfgs:
        assert np.array_equal(chain_dp_start(cfg), reference_chain_dp(cfg)), cfg
    assert dp_reference_grid(cfgs[2]).size == dp_reference_grid(cfgs[3]).size == DP_MAX_STEPS + 1


def test_chain_dp_start_memory_is_flat_in_n():
    # one (n, M + 1) value table at n = 256 on span 160 is 5.2 MB; the phase
    # blocks and the sqrt(n) entering rows stay near 0.7 MB
    cfg = SystemConfig(n_antennas=256, span_l=160.0)
    tracemalloc.start()
    try:
        x = chain_dp_start(cfg)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    validate_positions(x, cfg.span_l, cfg.d_min)


# ---------------------------------------------------------------------------
# Shared position solve


def test_run_single_runs_the_kernel_once(kernel_calls):
    exp = load_config(REPO_ROOT / "configs" / "default.json")
    report = run_single(exp)
    assert {"proposed", "ao", "ma_mrt"} <= set(report["schemes"])
    assert kernel_calls == [exp.system] * 2  # one solve: the uniform and the chain-DP start


def test_shared_solve_hands_out_its_read_only_trace(kernel_calls):
    cfg = SystemConfig(n_antennas=4, span_l=3.0)
    trace = multi_start_sca(cfg)
    want = trace.x.copy()
    # the schemes that need the positions hold the solve's own x, and none can write to it
    for scheme in (Scheme.PROPOSED, Scheme.AO, Scheme.MA_MRT):
        res = run_scheme(scheme, cfg)
        assert res.x is trace.x
        with pytest.raises(ValueError):
            res.x[:] = -1.0
    assert multi_start_sca(cfg) is trace and len(kernel_calls) == 2
    assert np.array_equal(trace.x, want)
    for frozen in (trace.x, trace.f1_history):
        with pytest.raises(ValueError):
            frozen[0] = 0.0
    with pytest.raises(AttributeError):
        trace.converged = False


def test_shared_solve_is_keyed_on_the_config_alone(kernel_calls):
    cfg = SystemConfig(n_antennas=4, span_l=3.0)
    multi_start_sca(cfg)
    multi_start_sca(SystemConfig(n_antennas=4, span_l=3.0))  # equal config: a hit
    assert len(kernel_calls) == 2  # two starts, one solve
    multi_start_sca(replace(cfg, span_l=3.5))
    multi_start_sca(replace(cfg, theta_su=(0.3, 2.0)))
    assert len(kernel_calls) == 6
    # every scheme that needs the positions reuses the solve
    for scheme in (Scheme.PROPOSED, Scheme.AO, Scheme.MA_MRT):
        run_scheme(scheme, cfg)
    assert len(kernel_calls) == 6


def test_unconverged_solve_warns_once_per_distinct_solve(caplog, monkeypatch):
    # a 20-round cap: both starts at n = 28 need more, the default n = 5 fewer
    monkeypatch.setattr(posopt, "_sca", functools.partial(posopt._sca, max_iter=20))
    cfg = SystemConfig(n_antennas=28, span_l=20.0, theta_su=(0.3, 2.0))
    with caplog.at_level(logging.WARNING, logger="ma_multicast.posopt"):
        trace = multi_start_sca(cfg)
        multi_start_sca(cfg)  # cache hit: no second warning
        converged = multi_start_sca(SystemConfig())
    assert not trace.converged and trace.iterations == 20
    assert converged.converged
    warnings = [r for r in caplog.records if r.name == "ma_multicast.posopt"]
    assert len(warnings) == 1
    assert "n=28" in warnings[0].getMessage() and "max_iter" in warnings[0].getMessage()
