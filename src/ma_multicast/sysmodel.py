"""Physical model of a linear movable-antenna multicast downlink.

Antenna positions are expressed in carrier wavelengths, transmit power and
noise power in dBm, user angles in radians.  Every function here is pure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, feasibility_slack

# Allowed deviation of ||w||^2 from 1 for anything used as a beamformer.
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SnrPair:
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


def _as_position_array(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("positions must form a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("positions must be finite")
    return x


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
    x = _as_position_array(x)
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


def steering_vector(x, theta: float, wavelength: float = 1.0) -> np.ndarray:
    """Unit-modulus steering vector of the array seen from direction theta.

    Parameters
    ----------
    x : array-like
        Ascending antenna positions in wavelengths.
    theta : float
        Physical angle of the user in radians.
    wavelength : float
        Carrier wavelength in the same unit as ``x``.
    """
    x = validate_positions(x, math.inf, 0.0)
    rate = _phase_rate(wavelength)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    phase = rate * math.sin(theta)
    return np.exp(1j * phase * x)


def _check_unit_norm(w) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.ndim != 1:
        raise ValueError("beamformer must be a 1-D vector")
    nrm2 = float(np.vdot(w, w).real)
    # written so that a NaN or inf entry, whose norm^2 is NaN or inf, fails too
    if not (abs(nrm2 - 1.0) <= UNIT_NORM_TOL):
        raise ValueError(f"beamformer norm^2 = {nrm2!r} is not 1 within {UNIT_NORM_TOL:g}")
    return w


def beam_gain(w, x, theta: float, wavelength: float = 1.0) -> float:
    """Array gain |h(theta)^T w|^2 of a unit-norm beamformer; lies in [0, N]."""
    w = _check_unit_norm(w)
    h = steering_vector(x, theta, wavelength)
    if h.size != w.size:
        raise ValueError("beamformer length does not match the number of antennas")
    return float(abs(h @ w) ** 2)


def beam_pattern(w, x, thetas, wavelength: float = 1.0) -> np.ndarray:
    """Array gain evaluated over a batch of angles."""
    w = _check_unit_norm(w)
    x = _as_position_array(x)
    thetas = np.asarray(thetas, dtype=float)
    phases = _phase_rate(wavelength) * np.sin(thetas)
    ent = np.exp(1j * np.outer(phases, x))
    return np.abs(ent @ w) ** 2


def snr_pair(w, x, cfg: SystemConfig) -> SnrPair:
    """Receive SNRs of both users under beamformer w and positions x.

    Each user's gain is beam_gain's, bit for bit by construction: after
    check_positions, snr_pair calls beam_gain at the user's angle and
    cfg.wavelength and scales it by the user's SNR scale.  beam_gain's phase
    rate (2 pi / wavelength) sin theta_i is the same float as cfg.kappas[i],
    which the correlation and projection routes use.
    """
    x = check_positions(x, cfg)
    gamma = tuple(c * beam_gain(w, x, theta, cfg.wavelength) for c, theta in zip(cfg.snr_scales, cfg.theta_su))
    return SnrPair.from_gammas(*gamma)
