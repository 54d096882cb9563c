"""The `validate` self-check suite: random configs cross-checked against the oracles.

Only `validate` runs it, so the other commands load neither this module nor
the oracle it calls.  Its draws come from a fixed seed, so every report is
deterministic.
"""

import math

import numpy as np

from . import _pcg64
from .beamformer import (
    ThetaCoefficients,
    _clamp_mixing,
    _projection_gains,
    _theta_coefficients,
    _theta_from_gains,
    optimize_mixing,
    theta_at,
)
from .config import SystemConfig
from .oracle import GridSpec, _best_t_rows, joint_vs_decoupled
from .posopt import _correlation_rows, random_positions
from .sysmodel import validate_position_rows

VALIDATION_SEED = 20240517
# the PCG64 (state, inc) of numpy.random.default_rng(VALIDATION_SEED), as
# its bit_generator.state["state"] reports them (numpy 2.4.6)
VALIDATION_STATE = (0x629DF5546F385E619840E9800539C1D3, 0x7F512A6A0918932316DACC757CE1EE1D)


def _random_validation_config(rng, n=None, span=None) -> SystemConfig:
    """A config drawn from rng, a numpy Generator or _pcg64.PCG64 (they draw alike)."""
    n = int(n if n is not None else rng.integers(2, 9))
    while True:
        th1, th2 = rng.uniform(0.0, math.pi, 2)
        if abs(math.sin(th2) - math.sin(th1)) >= 0.05:
            break
    d1, d2 = np.exp(rng.uniform(math.log(20.0), math.log(500.0), 2))
    span_l = span if span is not None else (n - 1) * 0.5 + rng.uniform(0.5, 4.0)
    return SystemConfig(
        n_antennas=n,
        span_l=float(span_l),
        d_su=(float(d1), float(d2)),
        theta_su=(float(th1), float(th2)),
    )


def _row_table(cfgs, x, t) -> np.ndarray:
    """The table rows of configs of equal n at positions x, checked as one (B, n) array.

    Each row holds one sample's n, correlation f, gains (a, b, c), SNR
    scales (s1, s2) and mixing t, in that order.
    """
    n, kappa, kappa1, kappa2, s1, s2, spans, d_mins = np.array(
        [[c.n_antennas, c.kappa, *c.kappas, *c.snr_scales, c.span_l, c.d_min] for c in cfgs]
    ).T[:, :, None]
    validate_position_rows(x, spans, d_mins)
    gains = _projection_gains(x, (kappa1, kappa2))
    return np.column_stack([n, _correlation_rows(x, kappa), *gains, s1, s2, t])


def _sampled_check(rng, samples: int, name: str, tol: float, score, draw_t=False) -> dict:
    """Worst of score over samples random configs, each at random positions.

    Each sample draws its config, positions and, with draw_t, a mixing t
    (NaN without), in that order.  Each group of equal n gives its rows of
    the table (_row_table), and score takes the whole table in one call and
    returns one value per row.
    """
    groups = {}
    for _ in range(samples):
        cfg = _random_validation_config(rng)
        x = random_positions(cfg, rng)
        t = rng.uniform() if draw_t else math.nan
        groups.setdefault(cfg.n_antennas, []).append((cfg, x, t))
    tables = []
    for draws in groups.values():
        cfgs, x, t = zip(*draws)
        tables.append(_row_table(cfgs, np.array(x), t))
    # np.max, unlike Python's max, lets a NaN through, so the check fails on it
    worst = float(np.max(score(np.concatenate(tables)), initial=0.0))
    return {
        "name": name,
        "samples": samples,
        "worst_rel_diff": worst,
        "passed": bool(worst <= tol),
    }


def _rel_diffs(va, vb) -> np.ndarray:
    return np.abs(va - vb) / np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1e-300)


def _path_equivalence_diffs(rows) -> np.ndarray:
    # the correlation route (va) and the projection route (vb), kept apart
    n, f, a, b, c, s1, s2, t = rows.T
    t = _clamp_mixing(t)
    va = theta_at(_theta_coefficients(f, n, s1, s2), t)
    return _rel_diffs(va, _theta_from_gains(a, b, c, t, s1, s2))


def _projection_identity_diffs(rows) -> np.ndarray:
    n, _f, a, b, c, *_ = rows.T
    return np.maximum(np.abs(a - np.sqrt(n)) / np.sqrt(n), np.abs(b * b + c * c - n) / n)


def _mixing_rule_diffs(rows) -> np.ndarray:
    # the closed form, one row at a time, against the grid oracle on all rows at once
    n, f, a, b, c, s1, s2, _t = rows.T
    coeffs = _theta_coefficients(f, n, s1, s2)
    theta_closed = []
    # each row's coefficients as Python floats, as theta_coefficients gives them
    for n_i, *row in np.array([n, coeffs.a1, coeffs.a2, coeffs.a3, coeffs.f_max]).T.tolist():
        coeffs_i = ThetaCoefficients(*row)
        theta_closed.append(theta_at(coeffs_i, optimize_mixing(coeffs_i, n_i)[0]))
    _t_ref, theta_ref = _best_t_rows(a, b, c, (s1, s2), t_step=1e-5)
    return _rel_diffs(np.array(theta_closed), theta_ref)


def _check_separation(rng, pairs_per_n: int, grid: GridSpec) -> dict:
    details = []
    passed = True
    for n in (2, 3):
        for _ in range(pairs_per_n):
            cfg = _random_validation_config(rng, n=n, span=2.0)
            outcome = joint_vs_decoupled(cfg, grid)
            outcome["n_antennas"] = n
            outcome["theta_su"] = list(cfg.theta_su)
            details.append(outcome)
            passed = passed and outcome["passed"]
    return {
        "name": "separation_certificate",
        "grid": {"position_step": grid.position_step, "t_step": grid.t_step},
        "runs": details,
        "passed": bool(passed),
    }


def run_validate(quick: bool = False) -> tuple:
    """Deterministic self-check suite; returns (report, all_passed).

    Its draws are numpy.random.default_rng(VALIDATION_SEED)'s, bit for bit,
    from a stream that starts at that generator's recorded VALIDATION_STATE
    and leaves numpy.random unloaded.
    """
    rng = _pcg64.PCG64(*VALIDATION_STATE)
    samples = 40 if quick else 200
    checks = [
        _sampled_check(rng, samples, "min_snr_path_equivalence", 1e-9, _path_equivalence_diffs, True),
        _sampled_check(rng, samples, "projection_identities", 1e-9, _projection_identity_diffs),
        _sampled_check(rng, 10 if quick else 40, "closed_form_mixing_vs_grid", 1e-6, _mixing_rule_diffs),
        _check_separation(
            rng,
            pairs_per_n=2 if quick else 6,
            grid=GridSpec(0.1, 1e-3) if quick else GridSpec(0.05, 1e-4),
        ),
    ]
    passed = all(c["passed"] for c in checks)
    return {"quick": quick, "checks": checks, "passed": passed}, passed
