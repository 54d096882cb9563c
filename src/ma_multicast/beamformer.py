"""Closed-form beamforming for the two-user max-min multicast problem.

Given fixed antenna positions the optimal unit beamformer lives in the span
of the two conjugated steering vectors; a single mixing parameter t in [0, 1]
trades the users off, and the best t follows from a three-case analysis.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import SystemConfig
from .sysmodel import check_positions

# Below this norm the component of user 2's steering vector orthogonal to
# user 1's is considered numerically absent (channels parallel).
PARALLEL_TOL = 1e-8
# Relative slack for the endpoint comparisons of the case analysis.
CASE_SLACK = 1e-12


class CaseLabel(str, Enum):
    CROSSING = "crossing"
    LEFT_ENDPOINT = "left_endpoint"
    RIGHT_ENDPOINT = "right_endpoint"
    DEGENERATE_PARALLEL = "degenerate_parallel"


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Unit-norm transmit vector, its mixing parameter and the case it came from."""

    w: np.ndarray
    t: float
    case_label: CaseLabel | None = None


@dataclass(frozen=True)
class ThetaCoefficients:
    """Coefficients of the min-SNR objective as a function of the mixing t alone."""

    a1: float
    a2: float
    a3: float
    f_max: float


def _split(x, kappas) -> tuple:
    """h1, user 2's channel projected onto h1 (p), and the remainder h2 - p.

    x is one position vector or a (B, n) array of them, one per row; kappas
    holds the users' phase rates (SystemConfig.kappas), each one value or a
    (B, 1) column.
    """
    x = np.asarray(x, dtype=float)
    kappa1, kappa2 = kappas
    h1 = np.exp(1j * kappa1 * x)
    h2 = np.exp(1j * kappa2 * x)
    # h1 has unit-modulus entries, so ||h1||^2 = n
    ip = (np.conj(h1) * h2).sum(axis=-1)
    p = h1 * np.expand_dims(ip / x.shape[-1], -1)
    return h1, p, h2 - p


def _projection_gains(x, kappas) -> tuple:
    """Gains (a, b, c) of _split, one per position vector in x."""
    h1, p, perp = _split(x, kappas)
    b = np.linalg.norm(p, axis=-1)
    c = np.linalg.norm(perp, axis=-1)
    along = (h1 * np.conj(p)).sum(axis=-1)
    # orthogonal channels: the in-span direction degenerates to h1 itself
    a = np.where(
        b < PARALLEL_TOL, math.sqrt(x.shape[-1]), np.abs(along) / np.maximum(b, 1e-300)
    )
    return a, b, c


def _theta_from_gains(a, b, c, t, scale1, scale2):
    """Worst-user SNR at mixing t from the gains and the SNR scales; broadcasts over arrays."""
    # parallel channels: the complement direction carries nothing
    c_eff = np.where(c < PARALLEL_TOL, 0.0, c)
    y1 = scale1 * np.square(a * t)
    y2 = scale2 * np.square(b * t + c_eff * np.sqrt(np.maximum(1.0 - t * t, 0.0)))
    return np.minimum(y1, y2)


def projection_coefficients(x, cfg: SystemConfig) -> tuple:
    """Gains (a, b, c) of the two users along and across the shared direction.

    a is user 1's gain along the in-span unit direction, b and c are user 2's
    gains along that direction and its orthogonal complement.  Computed from
    actual vector projections, not from any simplified expression.
    """
    x = check_positions(x, cfg)
    return tuple(float(g) for g in _projection_gains(x, cfg.kappas))


def _clamp_mixing(t):
    """Mixing t, or an array of them, checked against [0, 1] and clamped onto it."""
    if not np.all((-CASE_SLACK <= t) & (t <= 1.0 + CASE_SLACK)):
        raise ValueError("mixing parameter t must lie in [0, 1]")
    return np.clip(t, 0.0, 1.0)


def min_snr_from_projections(t: float, x, cfg: SystemConfig) -> float:
    """Worst-user SNR computed through explicit projections of the channels."""
    a, b, c = projection_coefficients(x, cfg)
    return float(_theta_from_gains(a, b, c, _clamp_mixing(t), *cfg.snr_scales))


def _theta_coefficients(f_max, n, scale1, scale2) -> ThetaCoefficients:
    """theta_coefficients for n antennas; n, f_max and the SNR scales may be arrays, one per row."""
    if not np.all((-1e-9 <= f_max) & (f_max <= n + 1e-9)):
        raise ValueError(f"correlation f_max = {f_max!r} outside [0, n_antennas]")
    f_max = np.clip(f_max, 0.0, n)
    a2 = np.sqrt(scale2) * f_max / np.sqrt(n)
    a3 = np.sqrt(scale2 * np.maximum(n - f_max * f_max / n, 0.0))
    return ThetaCoefficients(a1=scale1 * n, a2=a2, a3=a3, f_max=f_max)


def theta_coefficients(f_max: float, cfg: SystemConfig) -> ThetaCoefficients:
    """The mixing objective's constants for one correlation value, as Python floats."""
    c = _theta_coefficients(f_max, cfg.n_antennas, *cfg.snr_scales)
    return ThetaCoefficients(float(c.a1), float(c.a2), float(c.a3), float(c.f_max))


def theta_at(coeffs: ThetaCoefficients, t) -> np.ndarray | float:
    """Evaluate the min-SNR objective from its coefficients; accepts arrays."""
    t = np.asarray(t, dtype=float)
    y1 = coeffs.a1 * t * t
    y2 = (coeffs.a2 * t + coeffs.a3 * np.sqrt(np.maximum(1.0 - t * t, 0.0))) ** 2
    out = np.minimum(y1, y2)
    return float(out) if out.ndim == 0 else out


def optimize_mixing(coeffs: ThetaCoefficients, n: int) -> tuple:
    """Best mixing parameter for the min of the two SNR branches.

    The first branch grows with t, the second peaks at t = f/n and falls
    afterwards, so the maximizer is either an endpoint of [f/n, 1] or the
    crossing of the branches inside it.

    The optimum never decreases as the correlation f grows.  With
    t = cos(psi) and f/n = cos(phi), phi in [0, pi/2], the branches are
    n c_1 cos^2(psi) and n c_2 cos^2(phi - psi), c_i being user i's SNR scale,
    and some maximizer psi lies in [0, phi]: above phi both branches fall.  A
    larger f' gives phi' < phi, and psi' = min(psi, phi') does at least as
    well as psi on both branches, since cos^2(psi') >= cos^2(psi) and
    0 <= phi' - psi' <= phi - psi.
    """
    a1, a2, a3 = coeffs.a1, coeffs.a2, coeffs.a3
    scale = math.sqrt(a2 * a2 + a3 * a3)
    if a3 <= CASE_SLACK * scale:
        return 1.0, CaseLabel.DEGENERATE_PARALLEL
    t_left = min(max(coeffs.f_max / n, 0.0), 1.0)
    y1_left = a1 * t_left * t_left
    y2_left = (a2 * t_left + a3 * math.sqrt(max(1.0 - t_left * t_left, 0.0))) ** 2
    y1_right = a1
    y2_right = a2 * a2
    slack = CASE_SLACK * max(y1_left, y2_left, y1_right, y2_right)
    if y2_left < y1_left - slack:
        return t_left, CaseLabel.LEFT_ENDPOINT
    if y2_right > y1_right + slack:
        return 1.0, CaseLabel.RIGHT_ENDPOINT
    # hypot scales before squaring, so SNR scales near the float limit do not overflow
    norm = math.hypot(a2 - math.sqrt(a1), a3)
    return min(max(a3 / norm, 0.0), 1.0), CaseLabel.CROSSING


def build_beamformer(
    x, t: float, cfg: SystemConfig, case_label: CaseLabel | None = None
) -> Beamformer:
    """Assemble the unit beamformer for mixing t at positions x.

    The vector is t times the unit in-span direction plus sqrt(1 - t^2)
    times the unit complement direction (both conjugated), then rotated so
    its first significant entry is real nonnegative.
    """
    x = check_positions(x, cfg)
    t = float(_clamp_mixing(t))
    n = cfg.n_antennas
    h1, p, perp = _split(x, cfg.kappas)
    b = float(np.linalg.norm(p))
    c = float(np.linalg.norm(perp))
    if b < PARALLEL_TOL:
        p_hat = np.conj(h1) / math.sqrt(n)
    else:
        p_hat = np.conj(p) / b
    if c < PARALLEL_TOL:
        # parallel channels: only the in-span direction exists
        w = np.conj(h1) / math.sqrt(n)
        t = 1.0
        case_label = CaseLabel.DEGENERATE_PARALLEL
    else:
        w = t * p_hat + math.sqrt(1.0 - t * t) * np.conj(perp) / c
    sig = np.flatnonzero(np.abs(w) > 1e-12)
    if sig.size:
        lead = w[sig[0]]
        w = w * (np.conj(lead) / abs(lead))
    w = w / np.linalg.norm(w)
    return Beamformer(w=w, t=t, case_label=case_label)
