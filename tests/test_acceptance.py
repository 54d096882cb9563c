"""Acceptance suite: ten numbered criteria, one verdict line per criterion.

Each test prints "[PASS] criterion k" or "[FAIL] criterion k" with a short
metric before asserting, so a transcript of this module reads as a checklist.
"""

import json
import math
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from ma_multicast import (
    CaseLabel,
    GridSpec,
    SystemConfig,
    ao_scheme,
    aps_search,
    correlation,
    fpa_scheme,
    joint_vs_decoupled,
    ma_mrt,
    main,
    min_snr_from_projections,
    multi_start_sca,
    optimize_mixing,
    projection_coefficients,
    proposed_scheme,
    random_positions,
    sca_optimize,
    theta_at,
    theta_coefficients,
    uniform_positions,
    validate_positions,
)
from ma_multicast import oracle, posopt

from correlation_reference import (
    best_t,
    correlation_excess,
    correlation_excess_grad,
    curvature_bound,
    kernel_curvature,
    min_snr_from_correlation,
    surrogate_value,
)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def random_config(rng, n=None, span=None):
    """Random two-user geometry with a minimum angle separation."""
    n = int(n if n is not None else rng.integers(2, 9))
    while True:
        th = rng.uniform(0.0, math.pi, 2)
        if abs(math.sin(th[1]) - math.sin(th[0])) >= 0.05:
            break
    d = np.exp(rng.uniform(math.log(20.0), math.log(500.0), 2))
    span_l = float(span if span is not None else (n - 1) * 0.5 + rng.uniform(0.5, 4.0))
    return SystemConfig(
        n_antennas=n,
        span_l=span_l,
        d_su=(float(d[0]), float(d[1])),
        theta_su=(float(th[0]), float(th[1])),
    )


def fd_hessian(fun, x, h=1e-5):
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            xpp = x.copy()
            xpp[[i, j]] += (h, h)
            xpm = x.copy()
            xpm[[i, j]] += (h, -h)
            xmp = x.copy()
            xmp[[i, j]] += (-h, h)
            xmm = x.copy()
            xmm[[i, j]] += (-h, -h)
            hess[i, j] = (fun(xpp) - fun(xpm) - fun(xmp) + fun(xmm)) / (4.0 * h * h)
    return 0.5 * (hess + hess.T)


def correlation_bounds(cfg, n_max, step=0.0025, phases=256):
    """Certified brackets f_lo <= f* <= f_hi of the best channel correlation.

    f*(n) is the maximum of |sum_i exp(j kappa x_i)| over n positions with
    x_1 >= 0, x_{i+1} - x_i >= d_min and x_n <= span_l.  Numpy only: kappa
    comes from the config fields, and nothing is shared with the package's
    optimizers or enumerators.

    For each phase phi_k = 2 pi k / phases, a chain dynamic program maximizes
    sum_i cos(kappa x_i - phi_k) exactly over positions on the grid
    {0, step, ..., span_l}.  Each such sum is the real part of a rotated
    correlation at a feasible point, so the best one, f_lo, is at most f*.
    Rounding an optimal x* to the nearest grid point keeps it feasible (step
    divides d_min and span_l, and rounding is monotone) and moves each phasor
    by at most |kappa| step / 2, and some phi_k lies within pi / phases of the
    angle of the rounded phasor sum.  Hence
    f* <= f_lo / cos(pi / phases) + n |kappa| step / 2 = f_hi.

    Returns {n: (f_lo, f_hi)} for n in 2..n_max.
    """
    cells = round(cfg.span_l / step)
    gap = round(cfg.d_min / step)
    if abs(cells * step - cfg.span_l) > 1e-12 or abs(gap * step - cfg.d_min) > 1e-12:
        raise ValueError("step must divide both span_l and d_min")
    kappa = (2.0 * math.pi / cfg.wavelength) * (
        math.sin(cfg.theta_su[1]) - math.sin(cfg.theta_su[0])
    )
    phi = (2.0 * math.pi / phases) * np.arange(phases)
    gain = np.cos(kappa * step * np.arange(cells + 1)[None, :] - phi[:, None])
    # best[k, g]: largest phase-k sum of the antennas so far, the last at grid point g
    best = gain
    bounds = {}
    for n in range(2, n_max + 1):
        reach = np.full_like(gain, -np.inf)
        reach[:, gap:] = np.maximum.accumulate(best, axis=1)[:, : cells + 1 - gap]
        best = gain + reach
        f_lo = float(best.max())
        bounds[n] = (f_lo, f_lo / math.cos(math.pi / phases) + n * abs(kappa) * step / 2.0)
    return bounds


def slack_lower_bound(cfg, step, phases):
    """A lower bound f_lo <= f* of the best channel correlation, for any span_l and d_min.

    Numpy only, like correlation_bounds, but its grid needs no common step of
    span_l and d_min.  In the slack u_i = x_i - (i - 1) d_min the feasible
    set is 0 <= u_1 <= ... <= u_n <= H = span_l - (n - 1) d_min, so every
    nondecreasing tuple on linspace(0, H, ceil(H / step) + 1) is a feasible
    array.  For each phase phi_k = 2 pi k / phases, a chain dynamic program
    maximizes sum_i cos(kappa x_i - phi_k) exactly over those tuples; each
    such sum is the real part of a rotated correlation at a feasible point,
    so the best one is at most f*.
    """
    n = cfg.n_antennas
    kappa = (2.0 * math.pi / cfg.wavelength) * (
        math.sin(cfg.theta_su[1]) - math.sin(cfg.theta_su[0])
    )
    hi = cfg.span_l - (n - 1) * cfg.d_min
    u = np.linspace(0.0, hi, math.ceil(hi / step) + 1)
    phi = (2.0 * math.pi / phases) * np.arange(phases)
    # best[k, g]: largest phase-k sum of the antennas so far, the last at slack u[g]
    best = np.zeros((phases, u.size))
    for i in range(n):
        gain = np.cos(kappa * (u + i * cfg.d_min)[None, :] - phi[:, None])
        best = np.maximum.accumulate(best, axis=1) + gain
    return float(best.max())


def matched_filter_trend_leg(cfg, ns, rates):
    """MA-MRT leg of criterion 8, with the trend taken from correlation_bounds.

    A matched filter toward user 1 gives the SNRs rho_1 n and rho_2 f^2 / n,
    so at optimal positions the rate is log2(1 + min(rho_1 n, rho_2 f*^2 / n)).
    The leg holds when (a) every rate lies inside the bracket that the
    oracle's f_lo and f_hi give, i.e. the positions are globally optimal to the
    oracle's resolution, (b) consecutive brackets are disjoint, so the oracle
    decides the direction of each step, and (c) each step of the rates moves
    in that direction.  cfg supplies the geometry; n is taken from ns.
    """
    rho = [
        10.0 ** ((cfg.ps_dbm - cfg.sigma2_dbm) / 10.0) / d ** cfg.tau for d in cfg.d_su
    ]
    bounds = correlation_bounds(cfg, max(ns))
    gamma = {
        n: [min(rho[0] * n, rho[1] * f * f / n) for f in bounds[n]] for n in ns
    }
    in_bracket = all(
        math.log2(1.0 + gamma[n][0]) - 1e-9 <= r <= math.log2(1.0 + gamma[n][1])
        for n, r in zip(ns, rates)
    )
    directions = []
    for (a, ra), (b, rb) in zip(zip(ns, rates), zip(ns[1:], rates[1:])):
        if gamma[a][1] < gamma[b][0]:
            directions.append(("up", rb > ra))
        elif gamma[b][1] < gamma[a][0]:
            directions.append(("down", rb < ra))
        else:
            directions.append(("undecided", False))
    ok = in_bracket and all(follows for _, follows in directions)
    brackets = " ".join(
        f"[{bounds[n][0] ** 2 / n:.4f}, {bounds[n][1] ** 2 / n:.4f}]" for n in ns
    )
    values = (
        "rates " + " ".join(f"{r:.4f}" for r in rates)
        + f"; rates in oracle brackets: {in_bracket}"
        + f"; f^2/n brackets {brackets}"
        + "; oracle steps " + " ".join(d for d, _ in directions)
        + "; steps followed " + " ".join(str(f) for _, f in directions)
    )
    return "matched-filter baseline follows the optimal-correlation oracle", ok, values


@pytest.fixture(scope="module")
def antenna_sweep():
    """Scheme rates over n in {4..8} at a span of 5, shared by criteria 7-8."""
    rates = {"proposed": {}, "ao": {}, "ma_mrt": {}}
    for n in range(4, 9):
        cfg = SystemConfig(n_antennas=n, span_l=5.0)
        rates["proposed"][n] = proposed_scheme(cfg).snr.min_rate
        rates["ao"][n] = ao_scheme(cfg).snr.min_rate
        rates["ma_mrt"][n] = ma_mrt(cfg).snr.min_rate
    return rates


def test_criterion_01_min_snr_path_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng)
        x = random_positions(cfg, rng)
        t = float(rng.uniform())
        f = correlation(x, cfg)
        direct = min_snr_from_correlation(t, f, cfg)
        projected = min_snr_from_projections(t, x, cfg)
        worst = max(worst, rel_diff(direct, projected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report(1, ok, f"worst rel diff {worst:.2e} over 1000 draws in {elapsed:.2f} s")


def test_criterion_02_projection_identities():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng)
        x = random_positions(cfg, rng)
        a, b, c = projection_coefficients(x, cfg)
        n = cfg.n_antennas
        worst = max(
            worst,
            abs(a - math.sqrt(n)) / math.sqrt(n),
            abs(b * b + c * c - n) / n,
        )
    ok = worst <= 1e-9
    assert report(2, ok, f"worst identity error {worst:.2e} over 1000 draws")


def test_criterion_03_minorization_and_curvature():
    rng = np.random.default_rng(303)
    worst_violation = -math.inf
    for _ in range(500):
        cfg = random_config(rng)
        for _ in range(20):
            x_k = random_positions(cfg, rng)
            x = random_positions(cfg, rng)
            # the kernel's curvature at x_k, at most the bound 2 kappa^2 n checked below
            delta = kernel_curvature(x_k, cfg.kappa)
            f1_k = correlation_excess(x_k, cfg.kappa)
            g = correlation_excess_grad(x_k, cfg.kappa)
            lower = surrogate_value(x, x_k, f1_k, g, delta)
            worst_violation = max(worst_violation, lower - correlation_excess(x, cfg.kappa))
    worst_excess = 0.0
    for n in range(2, 7):
        for _ in range(100):
            cfg = random_config(rng, n=n)
            delta = curvature_bound(cfg.kappa, cfg.n_antennas)
            x = random_positions(cfg, rng)
            hess = fd_hessian(lambda y: correlation_excess(y, cfg.kappa), x)
            spectral = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
            worst_excess = max(worst_excess, spectral - delta * (1.0 + 1e-6))
    ok = worst_violation <= 1e-9 and worst_excess <= 1e-4
    assert report(
        3,
        ok,
        f"minorization slack {worst_violation:.2e} on 10000 pairs, "
        f"hessian excess {worst_excess:.2e} on 500 draws",
    )


def test_criterion_04_sca_monotone_ascent():
    rng = np.random.default_rng(404)
    worst_drop = 0.0
    worst_net = math.inf
    for k in range(60):
        cfg = random_config(rng)
        init = uniform_positions(cfg) if k % 3 == 0 else random_positions(cfg, rng)
        f1_init = correlation_excess(init, cfg.kappa)
        _x, trace = sca_optimize(cfg, init)
        values = list(trace.f1_history)
        drops = [a - b for a, b in zip(values, values[1:])]
        worst_drop = max(worst_drop, max(drops, default=0.0))
        worst_net = min(worst_net, values[-1] - f1_init)
    ok = worst_drop <= 1e-9 and worst_net >= -1e-9
    assert report(
        4, ok, f"largest step drop {worst_drop:.2e}, smallest net gain {worst_net:.2e}"
    )


def test_criterion_05_closed_form_mixing_vs_grid():
    rng = np.random.default_rng(505)
    crafted = [
        SystemConfig(),
        SystemConfig(d_su=(20.0, 500.0)),
        SystemConfig(d_su=(500.0, 20.0)),
        SystemConfig(theta_su=(0.7853981633974483, math.pi - 0.7853981633974483)),
    ]
    configs = crafted + [random_config(rng) for _ in range(196)]
    seen = set()
    worst = 0.0
    lowest_margin = math.inf
    for cfg in configs:
        x = random_positions(cfg, rng)
        f = correlation(x, cfg)
        coeffs = theta_coefficients(f, cfg)
        t_star, label = optimize_mixing(coeffs, cfg.n_antennas)
        seen.add(label)
        theta_closed = float(theta_at(coeffs, t_star))
        gains = (np.array([g]) for g in projection_coefficients(x, cfg))
        j_raw, _theta_raw = oracle._grid_peaks(*gains, cfg.snr_scales, 1e-5)
        t_raw = float(np.linspace(0.0, 1.0, 100_001)[j_raw[0]])
        _t_ref, theta_ref = best_t(x, cfg, 1e-5)
        worst = max(worst, rel_diff(theta_closed, theta_ref))
        lowest_margin = min(lowest_margin, t_raw - (f / cfg.n_antennas - 1e-5))
    ok = worst <= 1e-6 and seen == set(CaseLabel) and lowest_margin >= -1e-12
    assert report(
        5,
        ok,
        f"worst rel diff {worst:.2e} over 200 configs, cases "
        f"{sorted(lab.value for lab in seen)}, grid argmax margin {lowest_margin:.2e}",
    )


def test_criterion_06_separation_certificate():
    rng = np.random.default_rng(606)
    grid = GridSpec(position_step=0.05, t_step=1e-4)
    start = time.perf_counter()
    worst_gap = worst_excess = -math.inf
    all_passed = True
    for n in (2, 3):
        for _ in range(10):
            cfg = random_config(rng, n=n, span=2.0)
            outcome = joint_vs_decoupled(cfg, grid)
            all_passed = all_passed and outcome["passed"]
            all_passed = all_passed and (
                outcome["rate_decoupled"]
                >= outcome["rate_joint"] - outcome["epsilon_rate"] - 1e-9
            )
            all_passed = all_passed and outcome["joint_excess_rel"] <= 1e-9
            worst_gap = max(worst_gap, outcome["gap_rate"] - outcome["epsilon_rate"])
            worst_excess = max(worst_excess, outcome["joint_excess_rel"])
    elapsed = time.perf_counter() - start
    ok = all_passed and elapsed <= 60.0
    assert report(
        6,
        ok,
        f"20 angle pairs, worst gap minus bound {worst_gap:.2e}, "
        f"worst joint excess {worst_excess:.2e}, {elapsed:.1f} s",
    )


def test_criterion_07_alternating_optimization_parity(antenna_sweep):
    worst = max(
        rel_diff(antenna_sweep["ao"][n], antenna_sweep["proposed"][n])
        for n in range(4, 9)
    )
    ok = worst <= 0.01
    assert report(7, ok, f"worst relative rate gap {worst:.2e} over n in 4..8")


def test_criterion_08_trend_suite(antenna_sweep):
    ns = list(range(4, 9))
    legs = []

    prop = [antenna_sweep["proposed"][n] for n in ns]
    legs.append(
        (
            "proposed strictly increasing in n",
            all(b > a for a, b in zip(prop, prop[1:])),
            " ".join(f"{r:.4f}" for r in prop),
        )
    )

    mrt = [antenna_sweep["ma_mrt"][n] for n in ns]
    legs.append(matched_filter_trend_leg(SystemConfig(span_l=5.0), ns, mrt))

    fpa = [fpa_scheme(SystemConfig(span_l=float(l))).snr.min_rate for l in range(3, 11)]
    legs.append(("fixed array constant in span", max(fpa) - min(fpa) == 0.0,
                 f"variation {max(fpa) - min(fpa):.1e}"))

    r9 = proposed_scheme(SystemConfig(span_l=9.0)).snr.min_rate
    r10 = proposed_scheme(SystemConfig(span_l=10.0)).snr.min_rate
    legs.append(
        ("span 9 to 10 change <= 0.5%", abs(r10 - r9) / r9 <= 0.005,
         f"change {abs(r10 - r9) / r9:.2%}")
    )

    cfg = SystemConfig()
    r_prop = proposed_scheme(cfg).snr.min_rate
    r_aps = aps_search(cfg, 0.5).snr.min_rate
    legs.append(
        ("grid selection within 5% of proposed", rel_diff(r_prop, r_aps) <= 0.05,
         f"gap {rel_diff(r_prop, r_aps):.3%}")
    )

    r_mrt = ma_mrt(cfg).snr.min_rate
    r_fpa = fpa_scheme(cfg).snr.min_rate
    dominated = (
        r_prop >= r_aps - 1e-9
        and r_prop >= r_mrt - 1e-9
        and r_prop >= r_fpa - 1e-9
        and all(
            antenna_sweep["proposed"][n] >= antenna_sweep["ma_mrt"][n] - 1e-9
            for n in ns
        )
    )
    legs.append(("proposed dominates the baselines", dominated, ""))

    failures = [
        f"{name} violated ({values})" for name, flag, values in legs if not flag
    ]
    ok = not failures
    detail = "; ".join(failures) if failures else f"all {len(legs)} trend legs hold"
    assert report(8, ok, detail), "criterion 8 trend legs violated: " + "; ".join(failures)


@pytest.mark.parametrize("span_l, ns", [(10.0, (16,)), (20.0, (28, 32)), (40.0, (64,))])
def test_large_array_solve_reaches_the_oracle_lower_bound(span_l, ns):
    """At 16-64 antennas the shared solve is no worse than the oracle's best grid point.

    A 0.005 grid with 128 phases gives f_lo = 17.41259 at n = 64 on span 40,
    fine enough to reject a solve that stops at 17.41239, short of the
    optimum near 17.41272.
    """
    bounds = correlation_bounds(
        SystemConfig(n_antennas=max(ns), span_l=span_l), max(ns), step=0.005, phases=128
    )
    for n in ns:
        cfg = SystemConfig(n_antennas=n, span_l=span_l)
        trace = multi_start_sca(cfg)
        x = trace.x
        f = correlation(x, cfg)
        assert f >= bounds[n][0] - 1e-9, (n, f, bounds[n][0])
        assert trace.converged, n


# n = 36-39 on span 20 stop at max_iter on the winning start, so their
# convergence is pinned by a strict xfail; at n = 39 the solve also ends
# 5.3e-5 under f_lo, even when it is allowed to converge
STALLED_ON_SPAN_20 = (36, 37, 38, 39)


@pytest.mark.parametrize(
    "span_l, ns",
    [
        (20.0, (16, 20, 24, 28, 32, 36, 37, 38)),
        (40.0, (40, 48, 56, 64)),
        pytest.param(
            20.0, (39,), marks=pytest.mark.xfail(strict=True, reason="f ends 5.3e-5 under f_lo")
        ),
    ],
)
def test_large_array_solve_lies_inside_the_oracle_bracket(span_l, ns):
    """At 16-64 antennas the shared solve's correlation lies in [f_lo, f_hi].

    With a 0.0025 grid and 64 phases the brackets are 0.4-1.3% wide, so a
    solve that stops well short of the optimum, or a correlation that
    overshoots what any feasible array reaches, fails.
    """
    bounds = correlation_bounds(
        SystemConfig(n_antennas=max(ns), span_l=span_l), max(ns), step=0.0025, phases=64
    )
    for n in ns:
        cfg = SystemConfig(n_antennas=n, span_l=span_l)
        trace = multi_start_sca(cfg)
        x = trace.x
        f = correlation(x, cfg)
        f_lo, f_hi = bounds[n]
        assert f_lo - 1e-9 <= f <= f_hi, (n, f, f_lo, f_hi)
        assert trace.converged or (span_l == 20.0 and n in STALLED_ON_SPAN_20), n


@pytest.mark.xfail(
    strict=True,
    reason="the winning uniform start stops at max_iter 500; it needs 694-1 000 rounds",
)
@pytest.mark.parametrize("n", STALLED_ON_SPAN_20)
def test_large_array_solve_converges_on_span_20(n):
    trace = multi_start_sca(SystemConfig(n_antennas=n, span_l=20.0))
    assert trace.converged, (n, trace.iterations)


@pytest.mark.parametrize(
    "cfg",
    [
        SystemConfig(n_antennas=28, span_l=20.0),
        # span_l and d_min share no grid step, so correlation_bounds cannot
        # take this config; the solve converges after 240 rounds at
        # f = 4.0588403, 6.2e-5 under the oracle's f_lo = 4.0589020
        pytest.param(
            SystemConfig(
                n_antennas=24,
                span_l=18.652535633590137,
                d_min=0.697919735955771,
                theta_su=(1.0883341345809308, 2.713409177919908),
            ),
            marks=pytest.mark.xfail(strict=True, reason="f ends 6.2e-5 under the slack grid's f_lo"),
            id="n24-off-grid",
        ),
    ],
    ids=["n28-span20", None],
)
def test_position_solve_reaches_the_slack_grid_lower_bound(cfg):
    f_lo = slack_lower_bound(cfg, step=0.005, phases=128)
    trace = multi_start_sca(cfg)
    x = trace.x
    f = correlation(x, cfg)
    assert f >= f_lo - 1e-9, (f, f_lo, trace.converged, trace.iterations)


def test_aligned_regime_solve_reaches_full_correlation():
    # the phase difference has period P = 1.33737 > d_min, and 31 P fits in
    # the span, so the chain x_i = (i - 1) P aligns every phasor (f = n); an
    # ascent from elsewhere stops at f = 31.99999897 with its end antennas
    # pinned at 0 and span_l, a whole period from the chain, so the chain-DP
    # start must return the chain itself
    cfg = SystemConfig(
        n_antennas=32,
        span_l=45.4700347835771,
        d_min=0.25,
        theta_su=(0.16994055233248953, 1.1601471462975412),
    )
    trace = multi_start_sca(cfg)
    x = trace.x
    f = correlation(x, cfg)
    assert f >= cfg.n_antennas - 1e-9 * cfg.n_antennas, (f, trace.converged)


def test_criterion_09_cli_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps(
            {
                "system": {"n_antennas": 3, "span_l": 2.0},
                "schemes": ["proposed", "fpa"],
                "seed": 2,
                "n_starts": 3,
            }
        ),
        encoding="utf-8",
    )
    commands = {
        "optimize": (["optimize", "--config", str(cfg_path)], "json"),
        "beampattern": (
            ["beampattern", "--config", str(cfg_path), "--points", "25"],
            "csv",
        ),
        "sweep-n": (
            ["sweep-n", "--config", str(cfg_path), "--n-min", "2", "--n-max", "4"],
            "csv",
        ),
        "sweep-l": (
            ["sweep-l", "--config", str(cfg_path), "--l-min", "1.5", "--l-max", "2.5",
             "--l-step", "0.5"],
            "csv",
        ),
        "validate": (["validate", "--quick"], "json"),
    }
    problems = []
    for name, (argv, ext) in commands.items():
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}.{ext}"
            posopt.multi_start_sca.cache_clear()  # each run solves afresh
            code = main(argv + ["--out", str(out)])
            if code != 0:
                problems.append(f"{name} exited {code}")
                break
            payloads.append(out.read_bytes())
        if len(payloads) == 2 and payloads[0] != payloads[1]:
            problems.append(f"{name} output differs between runs")
    capsys.readouterr()
    ok = not problems
    detail = "; ".join(problems) if problems else "5 subcommands byte-identical"
    assert report(9, ok, detail)


def test_criterion_10_surrogate_projection_correctness():
    rng = np.random.default_rng(1010)
    worst_gap = 0.0
    for _ in range(10):
        hi = float(rng.uniform(0.02, 0.05))
        cfg = random_config(rng, n=4, span=1.5 + hi)
        x_k = random_positions(cfg, rng)
        delta = kernel_curvature(x_k, cfg.kappa)
        g = correlation_excess_grad(x_k, cfg.kappa)
        solved = posopt._surrogate_step(x_k, g, delta, cfg.span_l, cfg.d_min)
        validate_positions(solved, cfg.span_l, cfg.d_min)
        target = x_k + g / delta
        slack = np.linspace(0.0, hi, 41)
        chains = np.array(list(combinations_with_replacement(slack, 4)))
        candidates = chains + cfg.d_min * np.arange(4)
        dist_oracle = math.sqrt(float(((candidates - target) ** 2).sum(axis=1).min()))
        dist_solved = float(np.linalg.norm(solved - target))
        # the exact projection must dominate every grid candidate
        assert dist_solved <= dist_oracle + 1e-12
        worst_gap = max(worst_gap, dist_oracle - dist_solved)
    cfg0 = SystemConfig(n_antennas=4, span_l=2.0)
    x_k0 = uniform_positions(cfg0)
    delta0 = kernel_curvature(x_k0, cfg0.kappa)
    fixed = np.array_equal(posopt._surrogate_step(x_k0, np.zeros(4), delta0, cfg0.span_l, cfg0.d_min), x_k0)
    ok = worst_gap <= 2e-3 and fixed
    assert report(
        10,
        ok,
        f"grid gap {worst_gap:.2e} over 10 instances, zero-gradient fixed point "
        f"{'exact' if fixed else 'broken'}",
    )
