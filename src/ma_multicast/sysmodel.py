"""Physical model of a linear movable-antenna multicast downlink.

Antenna positions are expressed in carrier wavelengths, transmit power and
noise power in dBm, user angles in radians.  Every function here is pure.
"""

import math
from dataclasses import dataclass

import numpy as np

# Absolute slack applied to every geometric feasibility check.
FEASIBILITY_TOL = 1e-9
# Allowed deviation of ||w||^2 from 1 for anything used as a beamformer.
UNIT_NORM_TOL = 1e-12


def exceeds_span(n: int, spacing: float, span_l: float) -> bool:
    """Whether n antennas spacing apart overrun span_l by more than FEASIBILITY_TOL."""
    return (n - 1) * spacing > span_l + FEASIBILITY_TOL


def dbm_to_watt(dbm: float) -> float:
    """Convert a power figure in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Constants of one downlink instance.

    Defaults encode the benchmark setup used throughout the test suite:
    both users 100 m away at angles pi/4 and 9*pi/10, 25 dBm transmit
    power, -80 dBm noise, free-space-like path-loss exponent 2, unit
    wavelength and half-wavelength minimum spacing on a 4-wavelength
    aperture with five antennas.

    Building the config, or rebuilding it with dataclasses.replace, computes
    three derived constants once.  They are plain attributes, not fields, so
    equality, hashing and asdict see only the inputs.

    Attributes
    ----------
    kappas : tuple
        Each user's phase rate (2 pi / wavelength) sin(theta_i).
    kappa : float
        Phase rate of the correlation, (2 pi / wavelength)
        (sin(theta_2) - sin(theta_1)).
    snr_scales : tuple
        Each user's SNR prefactor ps / (d^tau * sigma^2).
    """

    n_antennas: int = 5
    span_l: float = 4.0
    d_min: float = 0.5
    wavelength: float = 1.0
    tau: float = 2.0
    ps_dbm: float = 25.0
    sigma2_dbm: float = -80.0
    d_su: tuple = (100.0, 100.0)
    theta_su: tuple = (math.pi / 4.0, 9.0 * math.pi / 10.0)

    def __post_init__(self):
        d_su = tuple(map(float, self.d_su))
        theta_su = tuple(map(float, self.theta_su))
        n = self.n_antennas
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("n_antennas must be an integer >= 2")
        n = int(n)
        if not (0.0 < self.span_l < math.inf):
            raise ValueError("span_l must be positive and finite")
        if not (0.0 < self.d_min < math.inf):
            raise ValueError("d_min must be positive and finite")
        if exceeds_span(n, self.d_min, self.span_l):
            raise ValueError(
                "infeasible geometry: (n_antennas - 1) * d_min = "
                f"{(n - 1) * self.d_min:g} exceeds span_l = {self.span_l:g}"
            )
        if not (0.0 < self.wavelength < math.inf):
            raise ValueError("wavelength must be positive and finite")
        if not (0.0 < self.tau < math.inf):
            raise ValueError("tau must be positive and finite")
        if not (math.isfinite(self.ps_dbm) and math.isfinite(self.sigma2_dbm)):
            raise ValueError("ps_dbm and sigma2_dbm must be finite")
        if len(d_su) != 2 or not (0.0 < d_su[0] < math.inf and 0.0 < d_su[1] < math.inf):
            raise ValueError("d_su must be a pair of positive finite distances")
        if len(theta_su) != 2 or not (
            0.0 <= theta_su[0] <= math.pi and 0.0 <= theta_su[1] <= math.pi
        ):
            raise ValueError("theta_su must be a pair of angles in [0, pi]")
        try:
            ps_w, sigma2_w = self.ps_w, self.sigma2_w
            c1 = ps_w / (d_su[0] ** self.tau * sigma2_w)
            c2 = ps_w / (d_su[1] ** self.tau * sigma2_w)
        except (OverflowError, ZeroDivisionError):
            c1 = c2 = math.nan
        # the largest beam gain is n_antennas, so scale * n is the largest SNR
        if not (0.0 < c1 and c1 * n < math.inf and 0.0 < c2 and c2 * n < math.inf):
            raise ValueError(
                "ps_dbm, sigma2_dbm, d_su and tau must give each user a positive "
                "SNR scale ps / (d^tau * sigma^2) whose product with n_antennas "
                "is finite"
            )
        rate = 2.0 * math.pi / self.wavelength
        sin1, sin2 = math.sin(theta_su[0]), math.sin(theta_su[1])
        object.__setattr__(self, "n_antennas", n)
        object.__setattr__(self, "d_su", d_su)
        object.__setattr__(self, "theta_su", theta_su)
        object.__setattr__(self, "snr_scales", (c1, c2))
        object.__setattr__(self, "kappas", (rate * sin1, rate * sin2))
        object.__setattr__(self, "kappa", rate * (sin2 - sin1))

    @property
    def ps_w(self) -> float:
        return dbm_to_watt(self.ps_dbm)

    @property
    def sigma2_w(self) -> float:
        return dbm_to_watt(self.sigma2_dbm)


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
    The message names the first of those constraints that some row breaks.
    """
    tol = FEASIBILITY_TOL
    if not np.isfinite(x).all():
        raise ValueError("infeasible positions: not all finite")
    if x[:, 0].min() < -tol:
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
    if not (wavelength > 0.0):
        raise ValueError("wavelength must be positive")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    phase = (2.0 * math.pi / wavelength) * math.sin(theta)
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
    phases = (2.0 * math.pi / wavelength) * np.sin(thetas)
    ent = np.exp(1j * np.outer(phases, x))
    return np.abs(ent @ w) ** 2


def snr_pair(w, x, cfg: SystemConfig) -> SnrPair:
    """Receive SNRs of both users under beamformer w and positions x.

    Each user's gain is beam_gain's, bit for bit: the steering vector is
    exp(1j * kappa_i * x) with the config's phase rate kappa_i.
    """
    x = check_positions(x, cfg)
    w = _check_unit_norm(w)
    if w.size != x.size:
        raise ValueError("beamformer length does not match the number of antennas")
    gamma = tuple(
        c * float(abs(np.exp(1j * k * x) @ w) ** 2) for c, k in zip(cfg.snr_scales, cfg.kappas)
    )
    return SnrPair.from_gammas(*gamma)
