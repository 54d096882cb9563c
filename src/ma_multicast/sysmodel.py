"""Physical model of a linear movable-antenna multicast downlink.

Antenna positions are lengths in the unit of the carrier wavelength (the
config's length unit), transmit power and noise power in dBm, user angles in
radians.  Every function here is pure.

The array response has one contract.  steering_vector and beam_pattern check
the positions (sorted, nonnegative, finite), then the wavelength, then the
angles; beam_pattern then checks the beamformer (a 1-D unit-norm vector of
one entry per antenna).  snr_pair checks the positions against its config,
then the beamformer.  Each input is checked once per call.
"""

import math

import numpy as np

from .config import Record, SystemConfig, feasibility_slack

# Allowed deviation of ||w||^2 from 1 for anything used as a beamformer.
UNIT_NORM_TOL = 1e-12


class SnrPair(Record):
    """Receive SNRs of both users and the resulting common rate."""

    gamma_u1: float
    gamma_u2: float
    min_rate: float

    @classmethod
    def from_gammas(cls, gamma_u1: float, gamma_u2: float) -> "SnrPair":
        # written so that a NaN fails too
        if not (gamma_u1 >= 0.0 and gamma_u2 >= 0.0):
            raise ValueError("SNRs must be nonnegative")
        return cls(gamma_u1, gamma_u2, math.log2(1.0 + min(gamma_u1, gamma_u2)))


def validate_position_rows(x: np.ndarray, span_l, d_min) -> None:
    """Check that every row of a (B, n) array is finite, starts at or after 0,
    keeps the minimum spacing and ends within the span.

    span_l and d_min are one value each, or (B, 1) columns of one per row.
    Each row's slack is feasibility_slack of its largest position magnitude,
    which holds for a span of inf too.  The message names the first of those
    constraints that some row breaks.
    """
    if not np.isfinite(x).all():
        raise ValueError("infeasible positions: not all finite")
    tol = feasibility_slack(np.abs(x).max(axis=-1, keepdims=True))
    if (x[:, :1] < -tol).any():
        raise ValueError("infeasible positions: a first position lies left of the aperture")
    if (x[:, 1:] - x[:, :-1] < d_min - tol).any():
        raise ValueError("infeasible positions: an adjacent spacing is below the minimum")
    if (x[:, -1:] > span_l + tol).any():
        raise ValueError("infeasible positions: a last position exceeds the aperture span")


def validate_positions(x, span_l: float, d_min: float) -> np.ndarray:
    """Check the ascending/spacing/aperture constraints and return x as floats."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("positions must form a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("positions must be finite")
    validate_position_rows(x[None, :], span_l, d_min)
    return x


def check_positions(x, cfg: SystemConfig) -> np.ndarray:
    """validate_positions, plus one position per configured antenna."""
    x = validate_positions(x, cfg.span_l, cfg.d_min)
    if x.size != cfg.n_antennas:
        raise ValueError("positions do not match n_antennas")
    return x


def _phase_rate(wavelength) -> float:
    """2 pi / wavelength, after refusing a wavelength that is not positive."""
    if not (wavelength > 0.0):
        raise ValueError("wavelength must be positive")
    return 2.0 * math.pi / wavelength


def _steering_inputs(x, thetas, wavelength):
    """x as floats and 2 pi / wavelength, after checking x, the wavelength and the angles."""
    x = validate_positions(x, math.inf, 0.0)
    rate = _phase_rate(wavelength)
    if not np.isfinite(thetas).all():
        raise ValueError("theta must be finite")
    return x, rate


def steering_vector(x, theta: float, wavelength: float = 1.0) -> np.ndarray:
    """Unit-modulus steering vector of the array seen from direction theta.

    Parameters
    ----------
    x : array-like
        Ascending antenna positions, in the unit of ``wavelength``.
    theta : float
        Physical angle of the user in radians.
    wavelength : float
        Carrier wavelength, in the config's length unit.
    """
    x, rate = _steering_inputs(x, theta, wavelength)
    return np.exp(1j * (rate * math.sin(theta)) * x)


def _check_unit_norm(w, n: int) -> np.ndarray:
    """w as a complex 1-D vector, after checking its unit norm and its n entries."""
    w = np.asarray(w, dtype=complex)
    if w.ndim != 1:
        raise ValueError("beamformer must be a 1-D vector")
    nrm2 = float(np.vdot(w, w).real)
    # written so that a NaN or inf entry, whose norm^2 is NaN or inf, fails too
    if not (abs(nrm2 - 1.0) <= UNIT_NORM_TOL):
        raise ValueError(f"beamformer norm^2 = {nrm2!r} is not 1 within {UNIT_NORM_TOL:g}")
    if w.size != n:
        raise ValueError("beamformer length does not match the number of antennas")
    return w


def _gain(w: np.ndarray, x: np.ndarray, phase: float) -> float:
    """|exp(j phase x)^T w|^2, for checked w and x and the phase rate of one user."""
    return float(abs(np.exp(1j * phase * x) @ w) ** 2)


def beam_pattern(w, x, thetas, wavelength: float = 1.0) -> np.ndarray:
    """Array gains |h(theta)^T w|^2 of a unit-norm beamformer over a batch of
    angles; each lies in [0, N].

    One batched matrix product over all angles.  It equals
    |steering_vector(x, theta, wavelength)^T w|^2 at each angle within
    rounding, since the phases take np.sin where steering_vector takes
    math.sin.
    """
    thetas = np.asarray(thetas, dtype=float)
    x, rate = _steering_inputs(x, thetas, wavelength)
    w = _check_unit_norm(w, x.size)
    return np.abs(np.exp(1j * np.outer(rate * np.sin(thetas), x)) @ w) ** 2


def snr_pair(w, x, cfg: SystemConfig) -> SnrPair:
    """Receive SNRs of both users under beamformer w and positions x.

    After check_positions and the beamformer check, each user's gain is
    _gain at cfg.kappas[i], scaled by the user's SNR scale.  cfg.kappas[i]
    is the same float as steering_vector's phase rate (2 pi / wavelength)
    sin theta_i, so each gain equals
    |steering_vector(x, theta_i, cfg.wavelength)^T w|^2 bit for bit.
    """
    x = check_positions(x, cfg)
    return _snr_pair(_check_unit_norm(w, x.size), x, cfg)


def _snr_pair(w: np.ndarray, x: np.ndarray, cfg: SystemConfig) -> SnrPair:
    """snr_pair for a checked complex w and checked float positions x of cfg."""
    return SnrPair.from_gammas(*(c * _gain(w, x, kappa) for c, kappa in zip(cfg.snr_scales, cfg.kappas)))
