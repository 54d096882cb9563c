"""Position optimization tests.

Oracles used here:
  * a naive repeated-scan pool-adjacent-violators reference plus the
    variational inequality of Euclidean projection certify project_polytope;
  * central finite differences check the correlation-excess gradient;
  * the identity sum_{i != j} cos(kappa (x_i - x_j)) = f^2 - n ties the
    excess to the correlation through an independent route;
  * difference-space grid searches give the global optimum for n = 2, 3;
  * an exhaustive non-decreasing-tuple enumeration checks the surrogate
    maximizer on a deliberately small box;
  * a per-start scalar SCA loop (pool-adjacent violators, O(n^2)
    pairwise excess and gradient) checks the batched kernel.
"""

import itertools
import logging
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from ma_multicast import (
    SystemConfig,
    load_config,
    run_single,
    correlation,
    correlation_excess,
    correlation_excess_grad,
    correlation_objective,
    curvature_bound,
    multi_start_sca,
    project_polytope,
    sca_optimize,
    uniform_positions,
)
from ma_multicast import posopt
from ma_multicast.baselines import aps_search
from ma_multicast.posopt import (
    DegenerateObjectiveError,
    _isotonic_rows,
    _sca_rows,
    random_positions,
    solve_surrogate,
    surrogate_value,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records the config of every batched SCA kernel run."""
    calls = []
    original = posopt._sca_rows

    def counting(cfg, *args, **kwargs):
        calls.append(cfg)
        return original(cfg, *args, **kwargs)

    monkeypatch.setattr(posopt, "_sca_rows", counting)
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
        y = np.vstack(rows + [rng.uniform(-3.0, 3.0, n) for _ in range(3)])
        got = _isotonic_rows(y)
        want = np.vstack([naive_pav(row) for row in y])
        assert np.max(np.abs(got - want)) < 1e-12, n
        assert np.max(np.abs(got[1] - y[1])) < 1e-12


def test_projection_rows_match_one_vector_projection():
    rng = np.random.default_rng(53)
    for n in (1, 2, 5, 16, 33):
        span_l = (n - 1) * 0.5 + 2.0
        z = rng.uniform(-2.0, span_l + 2.0, (6, n))
        got = project_polytope(z, span_l, 0.5)
        want = np.vstack([project_polytope(row, span_l, 0.5) for row in z])
        assert np.max(np.abs(got - want)) < 1e-12


def test_projection_rejects_empty_polytope():
    with pytest.raises(ValueError):
        project_polytope(np.zeros(4), 1.0, 0.5)  # needs span >= 1.5


# ---------------------------------------------------------------------------
# Correlation objective and derivatives


def test_reference_kappa_value():
    # 2 pi (sin(9 pi / 10) - sin(pi / 4)) with wavelength 1
    obj = correlation_objective(SystemConfig())
    want = 2.0 * math.pi * (math.sin(9 * math.pi / 10) - math.sin(math.pi / 4))
    assert obj.kappa == pytest.approx(want, rel=1e-15)
    assert obj.kappa == pytest.approx(-2.501271899, rel=1e-9)


def test_correlation_matches_direct_sum():
    rng = np.random.default_rng(44)
    cfg = SystemConfig()
    obj = correlation_objective(cfg)
    for _ in range(50):
        x = feasible_probe(rng, 5, 4.0, 0.5)
        direct = abs(np.exp(1j * obj.kappa * x).sum())
        assert correlation(x, obj) == pytest.approx(direct, rel=1e-12)


def test_excess_equals_correlation_squared_minus_n():
    rng = np.random.default_rng(45)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        obj = correlation_objective(cfg)
        x = feasible_probe(rng, n, cfg.span_l, 0.5)
        f = correlation(x, obj)
        assert correlation_excess(x, obj) == pytest.approx(f * f - n, rel=1e-9, abs=1e-9)


def test_excess_gradient_matches_finite_differences():
    rng = np.random.default_rng(46)
    h = 1e-6
    for _ in range(60):
        n = int(rng.integers(2, 7))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        obj = correlation_objective(cfg)
        x = feasible_probe(rng, n, cfg.span_l, 0.5)
        g = correlation_excess_grad(x, obj)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (correlation_excess(x + e, obj) - correlation_excess(x - e, obj)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=5e-5, abs=5e-5)


def test_curvature_bound_formula_and_reference_value():
    cfg = SystemConfig()
    obj = correlation_objective(cfg)
    k, n = abs(obj.kappa), cfg.n_antennas
    want = math.sqrt(4.0 * k**4 * n * (n - 1) ** 2 + 4.0 * n * (n - 1) * k**4)
    delta = curvature_bound(obj)
    assert delta == pytest.approx(want, rel=1e-12)
    # closed form 2 k^2 n sqrt(n - 1) equals the root expression
    assert delta == pytest.approx(2.0 * k * k * n * math.sqrt(n - 1.0), rel=1e-12)
    assert delta == pytest.approx(20.0 * k * k, rel=1e-12)  # n = 5


def test_excess_hessian_norm_within_bound():
    rng = np.random.default_rng(47)
    h = 1e-5
    for n in range(2, 7):
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        obj = correlation_objective(cfg)
        delta = curvature_bound(obj)
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
                        correlation_excess(x + ei + ej, obj)
                        - correlation_excess(x + ei - ej, obj)
                        - correlation_excess(x - ei + ej, obj)
                        + correlation_excess(x - ei - ej, obj)
                    ) / (4 * h * h)
            assert np.linalg.norm(hess, 2) <= delta * (1.0 + 1e-6) + 1e-6


# ---------------------------------------------------------------------------
# Surrogate


def test_surrogate_minorizes_excess():
    rng = np.random.default_rng(48)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        obj = correlation_objective(cfg)
        x_k = feasible_probe(rng, n, cfg.span_l, 0.5)
        x = feasible_probe(rng, n, cfg.span_l, 0.5)
        f1_k = correlation_excess(x_k, obj)
        g = correlation_excess_grad(x_k, obj)
        delta = curvature_bound(obj)
        assert surrogate_value(x, x_k, f1_k, g, delta) <= correlation_excess(x, obj) + 1e-9
        assert surrogate_value(x_k, x_k, f1_k, g, delta) == pytest.approx(f1_k, rel=1e-12)


def test_solve_surrogate_against_enumeration():
    # small box so a 1e-3-grid enumeration of sorted tuples is exhaustive
    cfg = SystemConfig(n_antennas=4, span_l=1.56, d_min=0.5)
    obj = correlation_objective(cfg)
    delta = curvature_bound(obj)
    hi = cfg.span_l - 3 * cfg.d_min  # 0.06
    offsets = cfg.d_min * np.arange(4)
    grid = np.round(np.linspace(0.0, hi, 61), 9)
    candidates = np.array(
        [c for c in itertools.combinations_with_replacement(grid, 4)]
    ) + offsets  # non-decreasing u tuples cover the whole polytope
    rng = np.random.default_rng(49)
    for _ in range(5):
        x_k = feasible_probe(rng, 4, cfg.span_l, 0.5)
        g = correlation_excess_grad(x_k, obj)
        got = solve_surrogate(x_k, g, delta, cfg)
        # the maximizer of the minorant is the projection of x_k + g / delta
        z = x_k + g / delta
        dist = ((candidates - z) ** 2).sum(axis=1)
        want = candidates[int(np.argmin(dist))]
        assert np.max(np.abs(got - want)) <= 2e-3


def test_solve_surrogate_zero_gradient_returns_anchor():
    cfg = SystemConfig(n_antennas=4, span_l=4.0)
    x_k = np.array([0.0, 0.5, 1.0, 4.0])
    out = solve_surrogate(x_k, np.zeros(4), 10.0, cfg)
    assert np.array_equal(out, x_k)
    with pytest.raises(DegenerateObjectiveError):
        solve_surrogate(x_k, np.ones(4), 0.0, cfg)


def test_solve_surrogate_rows_match_one_vector_solves():
    rng = np.random.default_rng(51)
    for n in (2, 3, 5, 8, 16):
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.0)
        obj = correlation_objective(cfg)
        delta = curvature_bound(obj)
        x_k = np.array([feasible_probe(rng, n, cfg.span_l, 0.5) for _ in range(6)])
        g = np.array([correlation_excess_grad(row, obj) for row in x_k])
        g[2] = 0.0  # a zero-slope row keeps its anchor
        got = solve_surrogate(x_k, g, delta, cfg)
        want = np.vstack([solve_surrogate(a, b, delta, cfg) for a, b in zip(x_k, g)])
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(got[2], x_k[2])
    with pytest.raises(ValueError, match="feasible"):
        solve_surrogate(np.array([[0.0, 0.5, 1.0], [0.0, 0.2, 1.0]]), np.ones((2, 3)), 1.0,
                        SystemConfig(n_antennas=3, span_l=2.0))


# ---------------------------------------------------------------------------
# SCA runs


def test_sca_trace_monotone_and_improving():
    rng = np.random.default_rng(50)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        cfg = SystemConfig(n_antennas=n, span_l=(n - 1) * 0.5 + 2.5)
        obj = correlation_objective(cfg)
        init = feasible_probe(rng, n, cfg.span_l, 0.5)
        x, trace = sca_optimize(cfg, init)
        vals = trace.f1_history
        assert vals.size == trace.iterations + 1
        assert np.array_equal(trace.x, x)
        assert np.all(np.diff(vals) >= -1e-9)
        assert correlation_excess(x, obj) >= correlation_excess(init, obj) - 1e-9


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
    obj = correlation_objective(cfg)
    init = uniform_positions(cfg)
    x_single, _trace = sca_optimize(cfg, init)
    assert correlation_excess(x_single, obj) >= correlation_excess(init, obj) - 1e-9
    deltas = np.arange(0.5, 4.0 + 1e-12, 1e-3)
    grid_best = np.max(np.abs(1.0 + np.exp(1j * obj.kappa * deltas)))
    x_multi, _ = multi_start_sca(cfg, n_starts=10, seed=0)
    assert correlation(x_multi, obj) >= grid_best - 1e-3


def test_sca_three_antennas_multi_start_near_grid():
    cfg = SystemConfig(n_antennas=3, span_l=4.0)
    obj = correlation_objective(cfg)
    d1 = np.arange(0.5, 3.5 + 1e-12, 0.02)
    best = 0.0
    for a in d1:
        d2 = np.arange(0.5, 4.0 - a + 1e-12, 0.02)
        vals = np.abs(1.0 + np.exp(1j * obj.kappa * a) + np.exp(1j * obj.kappa * (a + d2)))
        best = max(best, float(vals.max()))
    x, _ = multi_start_sca(cfg, n_starts=10, seed=0)
    assert correlation(x, obj) >= best * (1.0 - 0.01)


def test_sca_five_antennas_matches_fine_grid_selection():
    cfg = SystemConfig()  # n = 5, span 4
    obj = correlation_objective(cfg)
    x, _ = multi_start_sca(cfg, n_starts=10, seed=0)
    ref = aps_search(cfg, grid_step=0.05)
    f_ref = correlation(ref.x, obj)
    assert correlation(x, obj) >= f_ref * (1.0 - 0.01)


def test_multi_start_deterministic_and_single_start():
    cfg = SystemConfig(n_antennas=3, span_l=3.0)
    xa, _ = multi_start_sca(cfg, n_starts=5, seed=7)
    posopt._solve_positions.cache_clear()  # recompute, not a cache hit
    xb, _ = multi_start_sca(cfg, n_starts=5, seed=7)
    assert np.array_equal(xa, xb)
    x1, _ = multi_start_sca(cfg, n_starts=1, seed=7)
    xu, _ = sca_optimize(cfg, uniform_positions(cfg))
    assert np.array_equal(x1, xu)


def test_random_positions_feasible():
    rng = np.random.default_rng(51)
    cfg = SystemConfig(n_antennas=6, span_l=3.2)
    for _ in range(200):
        x = random_positions(cfg, rng)
        assert x[0] >= 0.0
        assert x[-1] <= cfg.span_l + 1e-12
        assert np.all(np.diff(x) >= cfg.d_min - 1e-12)


# ---------------------------------------------------------------------------
# Batched kernel against a per-start scalar loop


def scalar_sca(cfg, init, tol=1e-8, max_iter=500):
    """One start at a time: PAV projection and the O(n^2) pairwise sums."""
    obj = correlation_objective(cfg)
    delta = curvature_bound(obj)
    x = np.array(init, dtype=float)
    f1 = correlation_excess(x, obj)
    for k in range(1, max_iter + 1):
        g = correlation_excess_grad(x, obj)
        x_new = solve_surrogate(x, g, delta, cfg)
        f1_new = correlation_excess(x_new, obj)
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
        obj = correlation_objective(cfg)
        starts = [uniform_positions(cfg)]
        starts += [random_positions(cfg, rng) for _ in range(starts_per_seed - 1)]
        traces = _sca_rows(cfg, np.array(starts))
        for init, trace in zip(starts, traces):
            x_ref, iters_ref, conv_ref = scalar_sca(cfg, init)
            assert trace.iterations == iters_ref
            assert trace.converged == conv_ref
            assert np.max(np.abs(trace.x - x_ref)) < 1e-11
            f_ref = correlation(x_ref, obj)
            assert correlation(trace.x, obj) == pytest.approx(f_ref, rel=1e-12)


def test_kernel_rejects_infeasible_start():
    cfg = SystemConfig(n_antennas=3, span_l=2.0)
    with pytest.raises(ValueError, match="feasible"):
        _sca_rows(cfg, np.array([[0.0, 0.5, 1.0], [0.0, 0.2, 1.0]]))


# ---------------------------------------------------------------------------
# Shared position solve


def test_run_single_runs_the_kernel_once(kernel_calls):
    exp = load_config(REPO_ROOT / "configs" / "default.json")
    report = run_single(exp)
    assert {"proposed", "ao", "ma_mrt"} <= set(report["schemes"])
    assert kernel_calls == [exp.system]


def test_shared_solve_hands_out_copies(kernel_calls):
    cfg = SystemConfig(n_antennas=4, span_l=3.0)
    x1, trace1 = multi_start_sca(cfg, n_starts=4, seed=3)
    want = x1.copy()
    x1[:] = -1.0
    x2, trace2 = multi_start_sca(cfg, n_starts=4, seed=3)
    assert np.array_equal(x2, want)
    assert trace2 is trace1 and len(kernel_calls) == 1
    for frozen in (trace1.x, trace1.f1_history):
        with pytest.raises(ValueError):
            frozen[0] = 0.0
    with pytest.raises(AttributeError):
        trace1.converged = False


def test_shared_solve_misses_on_new_seed_config_or_starts(kernel_calls):
    cfg = SystemConfig(n_antennas=4, span_l=3.0)
    multi_start_sca(cfg, n_starts=4, seed=3)
    multi_start_sca(cfg, n_starts=4, seed=3)
    assert len(kernel_calls) == 1
    multi_start_sca(cfg, n_starts=4, seed=4)
    multi_start_sca(replace(cfg, span_l=3.5), n_starts=4, seed=3)
    multi_start_sca(cfg, n_starts=5, seed=3)
    assert len(kernel_calls) == 4


def test_unconverged_solve_warns_once_per_distinct_solve(caplog):
    cfg = SystemConfig(n_antennas=28, span_l=20.0, theta_su=(0.3, 2.0))
    with caplog.at_level(logging.WARNING, logger="ma_multicast.posopt"):
        _x, trace = multi_start_sca(cfg, n_starts=2, seed=1)
        multi_start_sca(cfg, n_starts=2, seed=1)  # cache hit: no second warning
        _x, converged = multi_start_sca(SystemConfig(), n_starts=2, seed=1)
    assert not trace.converged and trace.iterations == 500
    assert converged.converged
    warnings = [r for r in caplog.records if r.name == "ma_multicast.posopt"]
    assert len(warnings) == 1
    assert "n=28" in warnings[0].getMessage() and "max_iter" in warnings[0].getMessage()
