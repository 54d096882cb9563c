"""The proposed correlation-first scheme and the comparison schemes.

Alternating optimization (AO) runs as the closed-form beamformer at its
start: its position step, a concave minorization of the worst-user array gain
for the current beamformer, is a proven fixed point of that beamformer (proof
in ao_scheme), so the alternation never moves a start, and its best start is
the shared position solve.  The remaining schemes quantize the aperture
(APS), keep the optimized positions but point at user 1 only (MA-MRT), or fix
a half-wavelength grid (FPA).
"""

import math
from dataclasses import dataclass

import numpy as np

from .beamformer import (
    Beamformer,
    build_beamformer,
    optimize_mixing,
    theta_coefficients,
)
from .config import REFERENCE_SPACING, Scheme, SystemConfig, exceeds_span
from .posopt import (
    ScaTrace,
    _correlation_rows,
    _first_best,
    _grid_combination_chunks,
    correlation,
    multi_start_sca,
)
from .sysmodel import SnrPair, snr_pair

APS_MAX_COMBINATIONS = 10_000_000
# absolute window for treating two grid subsets as tied on the objective
APS_TIE_TOL = 1e-9


class InfeasibleSchemeError(ValueError):
    """The configured geometry cannot host this scheme: a bad input, not a fault."""


@dataclass(frozen=True, eq=False)
class SchemeResult:
    scheme: Scheme
    x: np.ndarray
    w: Beamformer
    snr: SnrPair
    trace: ScaTrace | None = None


def closed_form_beamformer(x, cfg: SystemConfig) -> Beamformer:
    """Optimal beamformer for fixed positions via the three-case mixing rule."""
    f = correlation(x, cfg)
    t, label = optimize_mixing(theta_coefficients(f, cfg), cfg.n_antennas)
    return build_beamformer(x, t, cfg, label)


def _closed_form_result(
    scheme: Scheme, x, cfg: SystemConfig, trace: ScaTrace | None = None
) -> SchemeResult:
    """The closed-form beamformer at x and the SNRs it gives, as scheme's result."""
    bf = closed_form_beamformer(x, cfg)
    return SchemeResult(scheme, x, bf, snr_pair(bf.w, x, cfg), trace)


def proposed_scheme(cfg: SystemConfig) -> SchemeResult:
    """Correlation-first decoupled design: optimize positions, then the beamformer."""
    trace = multi_start_sca(cfg)
    return _closed_form_result(Scheme.PROPOSED, trace.x, cfg, trace)


def ao_scheme(cfg: SystemConfig) -> SchemeResult:
    """AO warm-started at the shared correlation-ascent positions.

    AO runs as the closed-form beamformer at its start: its position step is
    a fixed point of the closed-form beamformer (proof below), so the
    alternation stays at the start.  The best start is the shared solve's x:
    with f/n = cos(phi), the closed-form optimum is
    theta*(f) = n max_psi min(c_1 cos^2 psi, c_2 cos^2(phi - psi)), which never
    decreases as f grows (proof in optimize_mixing).  AO therefore returns the
    decoupled solution, with no iteration count of its own.

    Proof.  Write g_i = |h_i(x)^T w|^2 and c_i for user i's SNR scale.  For
    fixed x the closed-form w maximizes min(c_1 g_1, c_2 g_2) over unit w.
    Rotating the phase phi_k of one entry w_k keeps ||w|| = 1, so the
    optimality (KKT) weights mu_i >= 0 give sum_i mu_i c_i dg_i/dphi_k = 0.
    Moving x_k rotates user i's k-th phasor by kappa_i dx_k, so
    dg_i/dx_k = kappa_i dg_i/dphi_k, and theta_i in [0, pi] gives
    kappa_i >= 0.  In the crossing case a convex combination of the two
    users' scaled position gradients c_i grad_i therefore vanishes.  In the
    left and right endpoint cases (and for parallel channels) the binding
    user's gain already sits at its global maximum n, so its gradient is
    zero.  In both cases every concave minorant
    min_i(c_i g_i + c_i grad_i . d) - delta ||d||^2 / 2 of the worst-user gain
    around x peaks at d = 0, for any curvature delta > 0, so no step of
    majorization-minimization on the positions can move x.
    tests/test_baselines.py keeps that step as a scalar reference, checks
    the certificate above on random configs, and checks that the closed-form
    beamformer matches the reference start by start.
    """
    return _closed_form_result(Scheme.AO, multi_start_sca(cfg).x, cfg)


# ---------------------------------------------------------------------------
# Grid / fixed-array schemes


def aps_search(cfg: SystemConfig, grid_step: float = REFERENCE_SPACING) -> SchemeResult:
    """Exhaustive correlation maximization over a quantized aperture.

    Candidate positions live on {0, grid_step, 2 grid_step, ...}; subsets keep
    the minimum spacing.  The correlation depends only on the spacings and is
    unchanged by reversing them, so only subsets with x_1 = 0 and spacings no
    greater than their reverse are scored; every other subset is a translate
    or a mirror of one of them.  Other subsets can still tie up to summation
    rounding (any two with the same inter-element difference multiset do),
    so the winner is the first subset, in lexicographic order, whose
    correlation lies within APS_TIE_TOL of the best: the same one a search
    over every subset would pick.  The subsets are scored in the
    enumerator's chunks, under the pass budget, and the winner does not
    depend on where they end (posopt._first_best).  Refuses blow-ups beyond
    APS_MAX_COMBINATIONS anchored candidates, mirrors included.
    """
    if not (grid_step > 0.0):
        raise ValueError("grid_step must be positive")
    try:
        count, chunks = _grid_combination_chunks(cfg.span_l, cfg.d_min, grid_step, cfg.n_antennas)
    except ValueError as exc:
        raise InfeasibleSchemeError(str(exc)) from exc
    if count > APS_MAX_COMBINATIONS:
        # a count can run to thousands of digits, past what str() converts
        shown = count if count < 10**18 else "more than 1e18"
        raise InfeasibleSchemeError(
            f"{shown} candidate subsets exceed the cap {APS_MAX_COMBINATIONS}; "
            "use a coarser grid_step"
        )
    _, x = _first_best(chunks, lambda pos: (_correlation_rows(pos, cfg.kappa), pos), lambda best: APS_TIE_TOL)
    return _closed_form_result(Scheme.APS, x, cfg)


def ma_mrt(cfg: SystemConfig) -> SchemeResult:
    """Optimized positions but a matched filter pointed at user 1 only."""
    trace = multi_start_sca(cfg)
    h1 = np.exp(1j * cfg.kappas[0] * trace.x)
    w = np.conj(h1) / math.sqrt(cfg.n_antennas)
    bf = Beamformer(w=w, t=1.0, case_label=None)
    return SchemeResult(Scheme.MA_MRT, trace.x, bf, snr_pair(w, trace.x, cfg), trace)


def fpa_scheme(cfg: SystemConfig) -> SchemeResult:
    """Fixed array at half-wavelength spacing with the optimal beamformer."""
    n = cfg.n_antennas
    if exceeds_span(n, REFERENCE_SPACING, cfg.span_l):
        raise InfeasibleSchemeError("fixed half-wavelength array does not fit the aperture")
    # two antennas d_min apart overrun a span of one fixed spacing
    if exceeds_span(2, cfg.d_min, REFERENCE_SPACING):
        raise InfeasibleSchemeError("fixed half-wavelength spacing violates d_min")
    x = REFERENCE_SPACING * np.arange(n, dtype=float)
    return _closed_form_result(Scheme.FPA, x, cfg)


def run_scheme(
    scheme: Scheme, cfg: SystemConfig, aps_grid_step: float = REFERENCE_SPACING
) -> SchemeResult:
    """Dispatch a scheme by name; every scheme is deterministic."""
    scheme = Scheme(scheme)
    if scheme is Scheme.PROPOSED:
        return proposed_scheme(cfg)
    if scheme is Scheme.AO:
        return ao_scheme(cfg)
    if scheme is Scheme.APS:
        return aps_search(cfg, grid_step=aps_grid_step)
    if scheme is Scheme.MA_MRT:
        return ma_mrt(cfg)
    return fpa_scheme(cfg)
