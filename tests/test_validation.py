"""Tests for the validate suite (ma_multicast.validation): its report, its
batched checks against the per-sample loops they replace, and its stream."""

import json
import math

import numpy as np
import pytest

from ma_multicast import (
    SystemConfig,
    correlation,
    min_snr_from_projections,
    projection_coefficients,
    random_positions,
    run_validate,
    theta_at,
)
from ma_multicast import _pcg64, posopt, validation
from ma_multicast.beamformer import _projection_gains, _theta_coefficients, _theta_from_gains
from ma_multicast.oracle import _best_t_rows
from ma_multicast.posopt import _correlation_rows
from ma_multicast.validation import VALIDATION_SEED

from correlation_reference import min_snr_from_correlation


def test_run_validate_quick_passes():
    report, passed = run_validate(quick=True)
    assert passed
    assert report["quick"] is True
    names = [check["name"] for check in report["checks"]]
    assert names == [
        "min_snr_path_equivalence",
        "projection_identities",
        "closed_form_mixing_vs_grid",
        "separation_certificate",
    ]
    assert all(check["passed"] for check in report["checks"])


def test_run_validate_is_deterministic():
    first, _ = run_validate(quick=True)
    second, _ = run_validate(quick=True)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def path_equivalence_reference(cfg, x, t):
    """One sample of min_snr_path_equivalence through the scalar routes."""
    f = correlation(x, cfg)
    va = min_snr_from_correlation(t, f, cfg)
    vb = min_snr_from_projections(t, x, cfg)
    return abs(va - vb) / max(abs(va), abs(vb), 1e-300)


def projection_identity_reference(cfg, x, t):
    """One sample of projection_identities through projection_coefficients."""
    a, b, c = projection_coefficients(x, cfg)
    n = cfg.n_antennas
    return max(abs(a - math.sqrt(n)) / math.sqrt(n), abs(b * b + c * c - n) / n)


# (name, per-sample reference, batched diffs, draws a mixing t) in validate's order
BATCHED_CHECKS = [
    ("min_snr_path_equivalence", path_equivalence_reference, validation._path_equivalence_diffs, True),
    ("projection_identities", projection_identity_reference, validation._projection_identity_diffs, False),
]


def per_sample_loop(rng, samples, reference, draw_t):
    """The loop the batched checks replace: config, positions, t, then the value, per sample."""
    rows = []
    for _ in range(samples):
        cfg = validation._random_validation_config(rng)
        x = random_positions(cfg, rng)
        t = float(rng.uniform()) if draw_t else math.nan
        rows.append((cfg, x, t, reference(cfg, x, t)))
    return rows


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("samples", [40, 200])
def test_batched_checks_match_the_per_sample_loop_bit_for_bit(samples):
    # validate's quick and full sample counts, from its seed, in its check order
    rng_ref = np.random.default_rng(VALIDATION_SEED)
    rng = np.random.default_rng(VALIDATION_SEED)
    for name, reference, diffs, draw_t in BATCHED_CHECKS:
        rows = per_sample_loop(rng_ref, samples, reference, draw_t)
        assert {cfg.n_antennas for cfg, *_ in rows} == set(range(2, 9))
        for n in range(2, 9):
            cfgs, xs, ts, want = zip(*(r for r in rows if r[0].n_antennas == n))
            got = diffs(validation._row_table(cfgs, np.array(xs), ts))
            assert np.array_equal(bits(got), bits(want)), (name, n)
        report = validation._sampled_check(rng, samples, name, 1e-9, diffs, draw_t)
        # same draws in the same order, and the worst of the same values
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert bits(report["worst_rel_diff"]) == bits(max(r[3] for r in rows))


@pytest.mark.parametrize("samples", [40, 200])
def test_batched_routes_match_the_scalar_entry_points_bit_for_bit(samples):
    rng = np.random.default_rng(VALIDATION_SEED)
    rows = per_sample_loop(rng, samples, lambda cfg, x, t: None, True)
    for n in range(2, 9):
        cfgs, xs, ts, _ = zip(*(r for r in rows if r[0].n_antennas == n))
        x, t = np.array(xs), np.array(ts)
        scales = np.array([c.snr_scales for c in cfgs]).T
        f = _correlation_rows(x, np.array([[c.kappa] for c in cfgs]))
        gains = _projection_gains(x, np.array([c.kappas for c in cfgs]).T[:, :, None])
        va = theta_at(_theta_coefficients(f, n, *scales), t)
        vb = _theta_from_gains(*gains, t, *scales)
        for i, cfg in enumerate(cfgs):
            f_i = correlation(x[i], cfg)
            assert bits(f[i]) == bits(f_i)
            assert np.array_equal(bits([g[i] for g in gains]), bits(projection_coefficients(x[i], cfg)))
            assert bits(va[i]) == bits(min_snr_from_correlation(t[i], f_i, cfg))
            assert bits(vb[i]) == bits(min_snr_from_projections(t[i], x[i], cfg))


def test_correlation_rows_round_as_python_abs():
    # np.abs of a complex array differs from Python's abs in about a third
    # of these sums; the rows helper must not
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 6.0, (3000, 5)), axis=1)
    kappa = rng.uniform(-6.0, 6.0, (3000, 1))
    want = [abs(np.exp(1j * k[0] * row).sum()) for k, row in zip(kappa, x)]
    assert np.array_equal(bits(_correlation_rows(x, kappa)), bits(want))
    cfg = SystemConfig()
    assert bits(correlation(x[0], cfg)) == bits(abs(np.exp(1j * cfg.kappa * x[0]).sum()))


@pytest.mark.parametrize("quick", [True, False])
def test_validate_report_is_the_one_numpy_default_rng_gives(monkeypatch, quick):
    # the stdlib stream draws what numpy.random.default_rng draws, so the
    # whole report, every float of it, is the same
    starts = []

    def numpy_stream(state, inc):
        starts.append({"state": state, "inc": inc})
        return np.random.default_rng(VALIDATION_SEED)

    report, passed = run_validate(quick)
    monkeypatch.setattr(_pcg64, "PCG64", numpy_stream)
    posopt.multi_start_sca.cache_clear()
    reference, reference_passed = run_validate(quick)
    # the reference run really drew from numpy's stream, from the one start
    # that numpy reports after seeding with VALIDATION_SEED
    assert starts == [np.random.default_rng(VALIDATION_SEED).bit_generator.state["state"]]
    assert passed and reference_passed
    assert json.dumps(report, sort_keys=True) == json.dumps(reference, sort_keys=True)


def test_sampled_check_fails_on_a_nan_difference():
    def diffs(rows):
        out = np.zeros(len(rows))
        out[-1] = math.nan
        return out

    report = validation._sampled_check(np.random.default_rng(VALIDATION_SEED), 10, "check", 1e-9, diffs)
    assert math.isnan(report["worst_rel_diff"]) and report["passed"] is False


def test_sampled_check_rejects_a_group_with_an_infeasible_row(monkeypatch):
    draws = []

    def positions(cfg, rng):
        x = random_positions(cfg, rng)
        draws.append(x)
        if len(draws) == 3:
            x[-1] = cfg.span_l + 1e-6
        return x

    monkeypatch.setattr(validation, "random_positions", positions)
    for _name, _reference, diffs, draw_t in BATCHED_CHECKS:
        draws.clear()
        with pytest.raises(ValueError, match="feasible"):
            validation._sampled_check(
                np.random.default_rng(VALIDATION_SEED), 10, "check", 1e-9, diffs, draw_t
            )


@pytest.mark.parametrize("quick, samples", [(True, 10), (False, 40)])
def test_mixing_check_runs_the_grid_oracle_once_over_every_row(monkeypatch, quick, samples):
    calls = []

    def counted(a, b, c, scales, t_step):
        calls.append(a.size)
        return _best_t_rows(a, b, c, scales, t_step)

    monkeypatch.setattr(validation, "_best_t_rows", counted)
    _report, passed = run_validate(quick)
    assert passed
    # one call for the whole check, over the rows of every n it drew
    assert calls == [samples]
