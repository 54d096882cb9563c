"""System model tests.

Oracles used here:
  * scalar cmath loops recompute steering vectors and beam gains entry by
    entry, independent of the vectorized numpy path;
  * hand-derived power conversions pin the dBm defaults;
  * Cauchy-Schwarz bounds the gain of any unit-norm beamformer.
"""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from ma_multicast import (
    SystemConfig,
    beam_gain,
    beam_pattern,
    dbm_to_watt,
    snr_pair,
    steering_vector,
    validate_positions,
)
from ma_multicast.sysmodel import SnrPair, validate_position_rows


def scalar_steering(x, theta, wavelength=1.0):
    return [cmath.exp(1j * (2.0 * math.pi / wavelength) * xi * math.sin(theta)) for xi in x]


def scalar_gain(w, x, theta, wavelength=1.0):
    acc = 0.0 + 0.0j
    for wi, hi in zip(w, scalar_steering(x, theta, wavelength)):
        acc += hi * wi
    return abs(acc) ** 2


def random_feasible(rng, n, span_l, d_min):
    hi = span_l - (n - 1) * d_min
    u = np.sort(rng.uniform(0.0, hi, n))
    return u + d_min * np.arange(n)


def random_unit_beamformer(rng, n):
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    return w / np.linalg.norm(w)


# ---------------------------------------------------------------------------
# Power conversions and SNR scale


def test_dbm_to_watt_known_values():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watt(25.0) == pytest.approx(10.0 ** (-0.5), rel=1e-15)
    assert dbm_to_watt(-80.0) == pytest.approx(1e-11, rel=1e-15)


def test_default_config_snr_scales():
    # 10^(-0.5) W / (100^2 * 10^(-11) W) = 10^6.5
    cfg = SystemConfig()
    assert cfg.snr_scales[0] == pytest.approx(10.0**6.5, rel=1e-12)
    assert cfg.snr_scales[1] == pytest.approx(10.0**6.5, rel=1e-12)


def defining_constants(c):
    """snr_scales, kappas and kappa of c from their defining expressions."""
    rate = 2.0 * math.pi / c.wavelength
    return (
        tuple(c.ps_w / (d**c.tau * c.sigma2_w) for d in c.d_su),
        tuple(rate * math.sin(t) for t in c.theta_su),
        rate * (math.sin(c.theta_su[1]) - math.sin(c.theta_su[0])),
    )


def derived_constants(c):
    return c.snr_scales, c.kappas, c.kappa


def test_snr_scale_tracks_distance():
    cfg = SystemConfig(d_su=(50.0, 200.0))
    assert cfg.snr_scales[0] == pytest.approx(dbm_to_watt(25.0) / (50.0**2 * 1e-11), rel=1e-12)
    assert cfg.snr_scales[1] == pytest.approx(dbm_to_watt(25.0) / (200.0**2 * 1e-11), rel=1e-12)
    cfg4 = SystemConfig(tau=4.0)
    assert cfg4.snr_scales[0] == pytest.approx(dbm_to_watt(25.0) / (100.0**4 * 1e-11), rel=1e-12)
    # the derived constants are computed once per config, by the defining expressions
    odd = SystemConfig(ps_dbm=13.7, sigma2_dbm=-91.3, tau=2.7, wavelength=0.37, theta_su=(0.3, 2.9))
    for c in (cfg, cfg4, odd, SystemConfig(theta_su=(0.5, 0.5))):
        assert derived_constants(c) == defining_constants(c)
    # replace builds a new config and recomputes them from its own fields
    moved = dataclasses.replace(cfg, d_su=(200.0, 50.0), tau=3.0)
    assert moved.snr_scales[0] == dbm_to_watt(25.0) / (200.0**3.0 * dbm_to_watt(-80.0))
    assert moved.snr_scales[1] == dbm_to_watt(25.0) / (50.0**3.0 * dbm_to_watt(-80.0))
    assert dataclasses.replace(moved, d_su=(50.0, 200.0), tau=2.0).snr_scales[1] == cfg.snr_scales[1]
    changes = [
        {"theta_su": (0.3, 2.9)}, {"wavelength": 0.37}, {"d_su": (200.0, 50.0)}, {"tau": 3.0},
    ]
    for change in changes:
        changed = dataclasses.replace(cfg, **change)
        assert derived_constants(changed) == defining_constants(changed)
        assert derived_constants(changed) != derived_constants(cfg)
    # the derived constants are not fields: asdict, equality and hashing see the inputs only
    derived = {"snr_scales", "kappas", "kappa"}
    assert derived.isdisjoint(f.name for f in dataclasses.fields(SystemConfig))
    assert derived.isdisjoint(dataclasses.asdict(cfg))
    assert [f.name for f in dataclasses.fields(SystemConfig)] == list(dataclasses.asdict(cfg))
    assert dataclasses.asdict(cfg) == {
        "n_antennas": 5, "span_l": 4.0, "d_min": 0.5, "wavelength": 1.0, "tau": 2.0,
        "ps_dbm": 25.0, "sigma2_dbm": -80.0, "d_su": (50.0, 200.0),
        "theta_su": (math.pi / 4.0, 9.0 * math.pi / 10.0),
    }
    twin = SystemConfig(d_su=(50.0, 200.0))
    assert twin == cfg and hash(twin) == hash(cfg)
    assert hash(cfg) == hash(tuple(getattr(cfg, f.name) for f in dataclasses.fields(cfg)))
    assert moved != cfg
    # overwriting them changes neither equality nor the hash
    for name in derived:
        object.__setattr__(twin, name, None)
    assert twin == cfg and hash(twin) == hash(cfg)


# ---------------------------------------------------------------------------
# Config validation


def test_default_config_matches_reference_setup():
    cfg = SystemConfig()
    assert cfg.n_antennas == 5
    assert cfg.span_l == 4.0
    assert cfg.d_min == 0.5
    assert cfg.wavelength == 1.0
    assert cfg.tau == 2.0
    assert cfg.d_su == (100.0, 100.0)
    assert cfg.theta_su[0] == pytest.approx(math.pi / 4.0)
    assert cfg.theta_su[1] == pytest.approx(9.0 * math.pi / 10.0)


def test_default_config_overrides():
    cfg = SystemConfig(n_antennas=3, span_l=2.0)
    assert cfg.n_antennas == 3
    assert cfg.span_l == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_antennas": 1},
        {"n_antennas": 2.5},
        {"span_l": 0.0},
        {"span_l": -1.0},
        {"d_min": -0.5},
        {"n_antennas": 10, "span_l": 4.0},  # (N-1) d_min > L
        {"theta_su": (-0.1, 1.0)},
        {"theta_su": (0.5, 3.3)},
        {"d_su": (0.0, 100.0)},
        {"tau": 0.0},
        {"wavelength": 0.0},
        {"ps_dbm": math.nan},
        {"span_l": math.inf},
        {"tau": math.inf},
        {"d_su": (math.inf, 100.0)},
        {"wavelength": math.inf},
        # finite fields whose SNR scale ps / (d^tau sigma^2) is not a
        # positive finite float
        {"ps_dbm": 4000.0},
        {"sigma2_dbm": -4000.0},
        {"d_su": (1e300, 100.0)},
        {"tau": 400.0},
        # a finite scale whose product with n_antennas, the largest SNR, is not
        {"ps_dbm": 3036.0},
        {"ps_dbm": 3040.0},
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


SCALE_MESSAGE = "ps_dbm, sigma2_dbm, d_su and tau must give each user a positive SNR scale"
WAVELENGTH_MESSAGE = "wavelength must keep 2 pi / wavelength finite"


def first_written(row, row_id):
    """A row whose message has changed wording, under the id it was written with, so that it keeps its name."""
    return pytest.param(*row, id=row_id)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # fields that break two checks name the first: each field is read in
        # the table order of config.SYSTEM_FIELDS, then come the checks across fields
        first_written(({"d_su": ("far", 1.0), "n_antennas": 1}, "n_antennas: must be >= 2"),
                      "kwargs0-could not convert string to float"),
        first_written(({"n_antennas": 1, "span_l": -1.0}, "n_antennas: must be >= 2"),
                      "kwargs1-n_antennas must be an integer >= 2"),
        first_written(({"n_antennas": 2.0}, "n_antennas: expected an integer"),
                      "kwargs2-n_antennas must be an integer >= 2"),
        first_written(({"span_l": math.nan, "d_min": -1.0}, "span_l: must be finite"),
                      "kwargs3-span_l must be positive and finite"),
        first_written(({"d_min": 0.0, "wavelength": 0.0}, "d_min: must be positive"),
                      "kwargs4-d_min must be positive and finite"),
        first_written(({"n_antennas": 10, "wavelength": 0.0}, "wavelength: must be positive"),
                      "kwargs5-infeasible geometry: (n_antennas - 1) * d_min = 4.5 exceeds span_l = 4"),
        first_written(({"wavelength": math.inf, "tau": 0.0}, "wavelength: must be finite"),
                      "kwargs6-wavelength must be positive and finite"),
        first_written(({"tau": -2.0, "ps_dbm": math.inf}, "tau: must be positive"),
                      "kwargs7-tau must be positive and finite"),
        first_written(({"sigma2_dbm": math.nan, "d_su": (0.0, 1.0)}, "sigma2_dbm: must be finite"),
                      "kwargs8-ps_dbm and sigma2_dbm must be finite"),
        first_written(({"d_su": (1.0, 2.0, 3.0), "theta_su": (4.0, 5.0)}, "d_su: expected a pair of numbers"),
                      "kwargs9-d_su must be a pair"),
        first_written(({"d_su": (100.0, math.nan), "ps_dbm": 4000.0}, "d_su[1]: must be finite"),
                      "kwargs10-d_su must be a pair"),
        first_written(({"theta_su": (0.5,), "ps_dbm": 4000.0}, "theta_su: expected a pair of numbers"),
                      "kwargs11-theta_su must be a pair of angles in [0, pi]"),
        first_written(({"theta_su": (0.5, math.nan)}, "theta_su[1]: must be finite"),
                      "kwargs12-theta_su must be a pair of angles in [0, pi]"),
        ({"ps_dbm": 4000.0}, SCALE_MESSAGE),  # dBm to watts overflows
        ({"d_su": (1e300, 100.0)}, SCALE_MESSAGE),  # d^tau overflows
        ({"sigma2_dbm": -4000.0}, SCALE_MESSAGE),  # noise power 0
        ({"ps_dbm": -4000.0}, SCALE_MESSAGE),  # scale 0
        ({"ps_dbm": 3036.0}, SCALE_MESSAGE),  # scale * n_antennas overflows
        first_written(({"n_antennas": 10**400, "wavelength": 0.0}, "n_antennas: must be <= 4098"),
                      "kwargs18-n_antennas must convert to a finite float"),
        # an infinite phase rate; the solve squares only the phase rate per
        # wavelength, so no bound on 2 kappa^2 n_antennas is left to check
        first_written(({"wavelength": 5e-324}, WAVELENGTH_MESSAGE),
                      "kwargs19-wavelength must keep 2 pi / wavelength and 2 kappa^2 n_antennas finite"),
        # the geometry is compared in wavelengths: 4.5 wavelengths do not fit 4, though
        # the overrun of 5e-13 lies far inside an absolute 1e-9 of user lengths
        ({"n_antennas": 4, "span_l": 4e-12, "d_min": 1.5e-12, "wavelength": 1e-12},
         "infeasible geometry: (n_antennas - 1) * d_min = 4.5e-12 exceeds span_l = 4e-12"),
        # integers past the float range name their own field, as the JSON path does
        ({"span_l": 10**400}, "span_l: must be finite"),
        ({"d_min": 10**400}, "d_min: must be finite"),
        ({"wavelength": 10**400}, "wavelength: must be finite"),
        ({"tau": 10**400}, "tau: must be finite"),
        ({"ps_dbm": 10**400}, "ps_dbm: must be finite"),
        ({"span_l": True}, "span_l: expected a number"),
        ({"span_l": "4"}, "span_l: expected a number"),
        # an n past the float range is past the cap, which its reader checks as an int
        first_written(({"n_antennas": 10**400}, "n_antennas: must be <= 4098"),
                      "kwargs28-n_antennas must convert to a finite float"),
        # each element of a pair is read on its own
        ({"d_su": (0.0, 1.0)}, "d_su[0]: must be positive"),
        ({"theta_su": (0.5, 4.0)}, "theta_su[1]: must lie in [0, pi]"),
        # the geometry is the first check across fields
        ({"n_antennas": 10, "ps_dbm": 4000.0}, "infeasible geometry: (n_antennas - 1) * d_min = 4.5 exceeds span_l = 4"),
        # the cap is a check of n_antennas alone: it comes before the geometry
        ({"n_antennas": 4099, "span_l": 1.0}, "n_antennas: must be <= 4098"),
    ],
)
def test_config_rejection_names_the_first_broken_check(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SystemConfig(**kwargs)


def test_config_normalises_its_numeric_fields():
    cfg = SystemConfig(n_antennas=np.int64(4), d_su=[np.float64(40.0), 80], theta_su=(1, np.float32(0.5)))
    assert type(cfg.n_antennas) is int and cfg.n_antennas == 4
    assert cfg.d_su == (40.0, 80.0) and cfg.theta_su == (1.0, float(np.float32(0.5)))
    assert all(type(v) is float for v in cfg.d_su + cfg.theta_su + cfg.snr_scales + cfg.kappas)
    assert cfg == SystemConfig(n_antennas=4, d_su=(40.0, 80.0), theta_su=(1.0, float(np.float32(0.5))))
    # numpy registers its integer types as numbers.Integral, and not its floats
    assert SystemConfig(n_antennas=np.uint8(4)).n_antennas == 4
    with pytest.raises(ValueError, match="n_antennas: expected an integer"):
        SystemConfig(n_antennas=np.float64(4.0))


def test_validate_positions_accepts_feasible():
    x = validate_positions([0.0, 0.5, 1.2, 4.0], 4.0, 0.5)
    assert isinstance(x, np.ndarray)
    assert x.dtype == float


def test_validate_positions_rejects_violations():
    with pytest.raises(ValueError, match="infeasible.*spacing"):
        validate_positions([0.0, 0.4], 4.0, 0.5)
    with pytest.raises(ValueError, match="infeasible.*left of the aperture"):
        validate_positions([-0.1, 0.5], 4.0, 0.5)
    with pytest.raises(ValueError, match="infeasible.*aperture span"):
        validate_positions([0.0, 4.1], 4.0, 0.5)
    with pytest.raises(ValueError, match="infeasible.*spacing"):
        validate_positions([1.0, 0.0], 4.0, 0.5)  # unsorted
    with pytest.raises(ValueError):
        validate_positions([[0.0, 1.0]], 4.0, 0.5)  # not 1-D
    for x in ([0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="^positions must be finite$"):
            validate_positions(x, 4.0, 0.5)


def test_validate_positions_tolerates_boundary_noise():
    validate_positions([0.0, 0.5 - 1e-12, 4.0 + 1e-12], 4.0, 0.5)


def test_row_check_holds_each_row_to_its_own_bounds_as_validate_positions_does():
    # rows a tolerance either side of each bound, with (B, 1) columns of span_l and d_min
    rng = np.random.default_rng(12)
    nudge = np.array([-2e-9, -0.5e-9, 0.0, 0.5e-9, 2e-9])
    for _ in range(300):
        span_l, d_min = rng.uniform(1.5, 3.0), rng.choice([0.25, 0.5])
        x = np.array([0.0, d_min, span_l]) + rng.choice(nudge, 3)
        try:
            validate_positions(x, span_l, d_min)
            want = True
        except ValueError:
            want = False
        rows = np.vstack([[0.0, 0.5, 1.0], x])
        spans, d_mins = np.array([[1.0], [span_l]]), np.array([[0.5], [d_min]])
        if want:
            validate_position_rows(rows, spans, d_mins)
        else:
            with pytest.raises(ValueError, match="feasible"):
                validate_position_rows(rows, spans, d_mins)
    # the first row fits a span of 1 but not the second row's
    with pytest.raises(ValueError, match="feasible"):
        validate_position_rows(np.array([[0.0, 0.5, 1.0], [0.0, 0.5, 2.0]]), np.array([[2.0], [1.0]]), 0.5)
    # the row check does not go through validate_positions' finiteness check
    with pytest.raises(ValueError, match="^infeasible positions: not all finite$"):
        validate_position_rows(np.array([[0.0, 0.5, 1.0], [0.0, 0.5, math.nan]]), 4.0, 0.5)


# ---------------------------------------------------------------------------
# Steering vectors against the scalar oracle


def test_steering_vector_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(0.0, 10.0, n))
        theta = float(rng.uniform(0.0, math.pi))
        lam = float(rng.uniform(0.25, 4.0))
        got = steering_vector(x, theta, lam)
        want = scalar_steering(x, theta, lam)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_steering_vector_unit_modulus():
    rng = np.random.default_rng(8)
    x = np.sort(rng.uniform(0.0, 5.0, 6))
    h = steering_vector(x, 1.234)
    assert np.allclose(np.abs(h), 1.0, atol=1e-14)


def test_steering_vector_needs_only_sorted_nonnegative_positions():
    # no span and no minimum spacing: coincident and far-out antennas are fine
    assert steering_vector([0.0, 0.0, 1e6], 0.7).shape == (3,)
    steering_vector([-1e-12, 0.0], 0.7)  # within the feasibility tolerance
    with pytest.raises(ValueError, match="infeasible.*spacing"):
        steering_vector([0.0, 1.0, 0.5], 0.7)
    with pytest.raises(ValueError, match="infeasible.*left of the aperture"):
        steering_vector([-0.1, 0.5], 0.7)
    with pytest.raises(ValueError, match="^theta must be finite$"):
        steering_vector([0.0, 0.5], math.nan)


def test_steering_translation_is_global_phase():
    # shifting every antenna by s multiplies the vector by a unit scalar,
    # so inner-product magnitudes cannot change
    rng = np.random.default_rng(9)
    x = random_feasible(rng, 5, 4.0, 0.5)
    h0 = steering_vector(x, 0.9)
    h1 = steering_vector(x + 0.37, 0.9)
    phase = h1[0] / h0[0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(h1 - phase * h0)) < 1e-12


# ---------------------------------------------------------------------------
# Beam gains


def test_beam_gain_matches_scalar_oracle():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = random_feasible(rng, n, 6.0, 0.5)
        w = random_unit_beamformer(rng, n)
        theta = float(rng.uniform(0.0, math.pi))
        got = beam_gain(w, x, theta)
        want = scalar_gain(w, x, theta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_beam_gain_bounded_by_n():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        x = random_feasible(rng, n, 6.0, 0.5)
        w = random_unit_beamformer(rng, n)
        theta = float(rng.uniform(0.0, math.pi))
        assert beam_gain(w, x, theta) <= n + 1e-9


def test_matched_beamformer_reaches_n():
    rng = np.random.default_rng(12)
    n = 6
    x = random_feasible(rng, n, 6.0, 0.5)
    theta = 1.1
    h = steering_vector(x, theta)
    w = np.conj(h) / math.sqrt(n)
    assert beam_gain(w, x, theta) == pytest.approx(n, rel=1e-12)


def test_beam_gain_rejects_unnormalized():
    x = np.array([0.0, 0.5])
    with pytest.raises(ValueError):
        beam_gain(np.array([1.0, 1.0]), x, 0.5)
    with pytest.raises(ValueError, match="^beamformer must be a 1-D vector$"):
        beam_gain(np.array([[1.0, 0.0]]), x, 0.5)
    with pytest.raises(ValueError, match="^beamformer length does not match the number of antennas$"):
        beam_gain(np.array([1.0]), x, 0.5)


def test_beam_pattern_matches_pointwise_gain():
    rng = np.random.default_rng(13)
    x = random_feasible(rng, 5, 4.0, 0.5)
    w = random_unit_beamformer(rng, 5)
    thetas = np.linspace(0.0, math.pi, 37)
    pat = beam_pattern(w, x, thetas)
    for th, g in zip(thetas, pat):
        assert g == pytest.approx(beam_gain(w, x, float(th)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("wavelength", [0.0, -1.0, math.nan])
def test_steering_vector_and_beam_pattern_refuse_a_wavelength_that_is_not_positive(wavelength):
    # beam_pattern divided by zero at 0, and mirrored the pattern below it
    for call in (
        lambda: steering_vector([0.0, 0.5], 0.3, wavelength),
        lambda: beam_pattern([1.0, 0.0], [0.0, 0.5], [0.3, 1.2], wavelength),
    ):
        with pytest.raises(ValueError, match="^wavelength must be positive$"):
            call()


# ---------------------------------------------------------------------------
# SNR pairs


def test_snr_pair_is_scaled_beam_gain():
    # the same operations as beam_gain, so equality must be exact
    rng = np.random.default_rng(14)
    cfg = SystemConfig(d_su=(80.0, 230.0))
    x = random_feasible(rng, 5, 4.0, 0.5)
    w = random_unit_beamformer(rng, 5)
    snr = snr_pair(w, x, cfg)
    assert snr.gamma_u1 == cfg.snr_scales[0] * beam_gain(w, x, cfg.theta_su[0])
    assert snr.gamma_u2 == cfg.snr_scales[1] * beam_gain(w, x, cfg.theta_su[1])


def test_snr_pair_min_rate_definition():
    rng = np.random.default_rng(15)
    cfg = SystemConfig()
    x = random_feasible(rng, 5, 4.0, 0.5)
    w = random_unit_beamformer(rng, 5)
    snr = snr_pair(w, x, cfg)
    assert snr.min_rate == pytest.approx(
        math.log2(1.0 + min(snr.gamma_u1, snr.gamma_u2)), rel=1e-15
    )


def test_snr_pair_rejects_bad_norm():
    cfg = SystemConfig(n_antennas=2, span_l=4.0)
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        snr_pair(np.array([0.9, 0.1j]), x, cfg)
    with pytest.raises(ValueError, match="^beamformer length does not match the number of antennas$"):
        snr_pair(np.array([1.0, 0.0, 0.0]), x, cfg)


# a NaN entry gives a NaN norm^2, which a test for |norm^2 - 1| > tol lets pass
NON_FINITE_BEAMFORMERS = [[math.nan, 0.5], [0.5, complex(0.0, math.nan)], [math.inf, 0.5]]


def test_beam_gain_rejects_non_finite_beamformers():
    for w in NON_FINITE_BEAMFORMERS:
        with pytest.raises(ValueError, match="norm"):
            beam_gain(w, [0.0, 0.5], 0.3)


def test_beam_pattern_rejects_non_finite_beamformers():
    for w in NON_FINITE_BEAMFORMERS:
        with pytest.raises(ValueError, match="norm"):
            beam_pattern(w, [0.0, 0.5], [0.3, 1.2])


def test_snr_pair_rejects_non_finite_beamformers():
    cfg = SystemConfig(n_antennas=2, span_l=4.0)
    for w in NON_FINITE_BEAMFORMERS:
        with pytest.raises(ValueError, match="norm"):
            snr_pair(w, [0.0, 0.5], cfg)


def test_snr_pair_from_gammas_rejects_nan():
    for gammas in [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)]:
        with pytest.raises(ValueError, match="nonnegative"):
            SnrPair.from_gammas(*gammas)
