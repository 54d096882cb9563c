"""The proposed correlation-first scheme and the comparison schemes.

Alternating optimization (AO) re-solves the beamformer in closed form for the
current positions, then improves the positions for the current beamformer by
successive concave minorization of the worst-user array gain.  The remaining
schemes quantize the aperture (APS), keep the optimized positions but point at
user 1 only (MA-MRT), or fix a half-wavelength grid (FPA).
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beamformer import (
    Beamformer,
    build_beamformer,
    optimize_mixing,
    theta_coefficients,
)
from .posopt import (
    _grid_combination_chunks,
    correlation,
    correlation_objective,
    multi_start_sca,
    project_polytope,
    uniform_positions,
    random_positions,
)
from .sysmodel import (
    FEASIBILITY_TOL,
    SnrPair,
    SystemConfig,
    snr_pair,
    steering_vector,
    user_kappas,
    validate_positions,
)

log = logging.getLogger(__name__)

APS_MAX_COMBINATIONS = 10_000_000
# absolute window for treating two grid subsets as tied on the objective
APS_TIE_TOL = 1e-9
# Half-wavelength spacing used by the fixed-array and quantized-grid schemes.
REFERENCE_SPACING = 0.5


class InfeasibleSchemeError(ValueError):
    """The configured geometry cannot host this scheme: a bad input, not a fault."""


class Scheme(str, Enum):
    PROPOSED = "proposed"
    AO = "ao"
    APS = "aps"
    MA_MRT = "ma_mrt"
    FPA = "fpa"


@dataclass(frozen=True, eq=False)
class SchemeResult:
    scheme: Scheme
    x: np.ndarray
    w: Beamformer
    snr: SnrPair
    trace: object = None


@dataclass(frozen=True, eq=False)
class AoTrace:
    """Worst-user rates recorded after each beamformer update."""

    min_rates: list
    outer_iterations: int
    converged: bool


def closed_form_beamformer(x, cfg: SystemConfig) -> Beamformer:
    """Optimal beamformer for fixed positions via the three-case mixing rule."""
    obj = correlation_objective(cfg)
    f = correlation(x, obj)
    t, label = optimize_mixing(theta_coefficients(f, cfg), cfg.n_antennas)
    return build_beamformer(x, t, cfg, label)


def proposed_scheme(cfg: SystemConfig) -> SchemeResult:
    """Correlation-first decoupled design: optimize positions, then the beamformer."""
    x, trace = multi_start_sca(cfg)
    bf = closed_form_beamformer(x, cfg)
    return SchemeResult(Scheme.PROPOSED, x, bf, snr_pair(bf.w, x, cfg), trace)


# ---------------------------------------------------------------------------
# Alternating optimization


def _gains_and_grads(x: np.ndarray, w: np.ndarray, kappas: np.ndarray):
    """|h_i(x)^T w|^2 and its position gradient for both users, row by row.

    x and w are (B, n); returns gains of shape (2, B) and gradients of
    shape (2, B, n), user first.
    """
    v = w * np.exp(1j * kappas[:, None, None] * x)
    s = v.sum(axis=-1)
    gains = np.abs(s) ** 2
    grads = -2.0 * kappas[:, None, None] * np.imag(np.conj(s)[..., None] * v)
    return gains, grads


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _ao_position_rows(
    x_k: np.ndarray,
    w: np.ndarray,
    cfg: SystemConfig,
    max_rounds: int = 30,
    inner_iters: int = 200,
    tol: float = 1e-10,
) -> np.ndarray:
    """Improve min_i c_i |h_i(x)^T w|^2 from every row of x_k while staying feasible.

    Row r starts at x_k[r] under its own beamformer w[r]; the rows share
    every step and each stops on its own.  Each round freezes a concave
    quadratic minorant per user (shared curvature delta_w, branch slopes
    scaled to a common unit) and ascends their pointwise minimum by projected
    supergradient steps with the diminishing schedule 2 / (delta_w (k + 2))
    suited to its delta_w-strong concavity, keeping the best iterate so the
    true objective never decreases.

    delta_w = 2 kappa^2 n bounds each gain's Hessian: with u = w * exp(j kappa x)
    it is -2 kappa^2 times the Laplacian with edge weights Re(conj(u_i) u_k), and
    Gershgorin gives ||H|| <= 2 kappa^2 sqrt(n - 1) <= 2 kappa^2 n for unit w.
    """
    kappas = np.array(user_kappas(cfg))
    c = np.array([cfg.snr_scale(0), cfg.snr_scale(1)])
    s = (c / c.max())[:, None]
    n = cfg.n_antennas
    delta_w = 2.0 * float(np.max(np.abs(kappas))) ** 2 * n

    def objective(y, w_rows):
        return (s * _gains_and_grads(y, w_rows, kappas)[0]).min(axis=0)

    x = np.array(x_k, dtype=float)
    val = objective(x, w)
    active = np.arange(x.shape[0])  # rows still in the rounds loop
    for _ in range(max_rounds):
        xa = x[active]
        gains, grads = _gains_and_grads(xa, w[active], kappas)

        def phi(y, rows):
            # rows index the round's active rows
            d = y - xa[rows]
            q = 0.5 * delta_w * _row_dot(d, d)
            return (s * (gains[:, rows] + _row_dot(grads[:, rows], d)) - q).min(axis=0)

        everyone = np.arange(active.size)
        best_y, best_phi = xa.copy(), phi(xa, everyone)
        # each branch's own maximizer is a natural candidate before iterating
        cands = project_polytope(
            (xa + s[:, :, None] * grads / delta_w).reshape(-1, n), cfg.span_l, cfg.d_min
        ).reshape(2, active.size, n)
        for cand in cands:
            phi_cand = phi(cand, everyone)
            better = phi_cand > best_phi
            best_y[better], best_phi[better] = cand[better], phi_cand[better]
        y = best_y.copy()
        inner = everyone  # rows still in the step loop
        for k in range(inner_iters):
            y_in = y[inner]
            d = y_in - xa[inner]
            branch = s * (gains[:, inner] + _row_dot(grads[:, inner], d))
            i_star = np.argmin(branch, axis=0)
            step = s[i_star] * grads[i_star, inner] - delta_w * d
            alpha = 2.0 / (delta_w * (k + 2.0))
            y_new = project_polytope(y_in + alpha * step, cfg.span_l, cfg.d_min)
            move = np.linalg.norm(y_new - y_in, axis=1)
            y[inner] = y_new
            phi_y = phi(y_new, inner)
            better = phi_y > best_phi[inner]
            best_y[inner[better]], best_phi[inner[better]] = y_new[better], phi_y[better]
            inner = inner[move > 1e-13 * (1.0 + np.linalg.norm(y_new, axis=1))]
            if inner.size == 0:
                break
        val_new = objective(best_y, w[active])
        improvement = val_new - val[active]
        take = val_new >= val[active]
        x[active[take]], val[active[take]] = best_y[take], val_new[take]
        active = active[improvement >= tol]
        if active.size == 0:
            break
    return x


def _ao_rows(
    cfg: SystemConfig, starts: np.ndarray, outer_tol: float = 1e-8, max_outer: int = 100
) -> list:
    """Alternate closed-form beamforming and position ascent from every row of starts.

    The rows run side by side: each outer iteration takes one batched
    position step for the rows still alternating, and a row stops on its own
    once its rate gain falls below outer_tol.  Returns one SchemeResult per
    row.
    """
    x = np.array(starts, dtype=float)
    bfs = [closed_form_beamformer(row, cfg) for row in x]
    rates = [[] for _ in bfs]
    converged = np.zeros(len(bfs), dtype=bool)
    active = np.arange(len(bfs))
    for _ in range(max_outer):
        for r in active:
            rates[r].append(snr_pair(bfs[r].w, x[r], cfg).min_rate)
            converged[r] = len(rates[r]) > 1 and rates[r][-1] - rates[r][-2] < outer_tol
        active = active[~converged[active]]
        if active.size == 0:
            break
        w = np.array([bfs[r].w for r in active])
        x[active] = _ao_position_rows(x[active], w, cfg)
        for r in active:
            bfs[r] = closed_form_beamformer(x[r], cfg)
    results = []
    for r, bf in enumerate(bfs):
        snr = snr_pair(bf.w, x[r], cfg)
        if not converged[r]:
            # ran out of outer iterations: report the final synchronized pair
            rates[r].append(snr.min_rate)
        trace = AoTrace(
            min_rates=rates[r], outer_iterations=len(rates[r]) - 1, converged=bool(converged[r])
        )
        results.append(SchemeResult(Scheme.AO, x[r].copy(), bf, snr, trace))
    return results


def ao_optimize(
    cfg: SystemConfig, init_x, outer_tol: float = 1e-8, max_outer: int = 100
) -> SchemeResult:
    """Alternate closed-form beamforming and position ascent from init_x.

    The one-row case of the batched kernel that ao_scheme runs.
    """
    x = validate_positions(init_x, cfg.span_l, cfg.d_min)
    if x.size != cfg.n_antennas:
        raise ValueError("init_x does not match n_antennas")
    (result,) = _ao_rows(cfg, x[None, :], outer_tol, max_outer)
    return result


def ao_scheme(cfg: SystemConfig, n_starts: int = 10, seed: int = 0) -> SchemeResult:
    """AO restarted from the uniform spread and n_starts - 1 random starts.

    The alternation stops at whatever block fixed point the first beamformer
    balance pins it to, so a single run can settle well below the best known
    operating point.  The benchmark therefore takes the best over those
    starts, drawn from seed, plus a warm start at the shared correlation-ascent
    positions; from that last start AO either certifies the decoupled
    solution as a fixed point or improves on it.  All starts run as the rows
    of one kernel call; rate ties go to the earliest start.
    """
    rng = np.random.default_rng(seed)
    starts = [uniform_positions(cfg)]
    starts += [random_positions(cfg, rng) for _ in range(max(n_starts, 1) - 1)]
    warm, _trace = multi_start_sca(cfg)
    starts.append(warm)
    best = None
    for result in _ao_rows(cfg, np.array(starts)):
        if best is None or result.snr.min_rate > best.snr.min_rate:
            best = result
    if not best.trace.converged:
        log.warning(
            "ao n=%d span_l=%g n_starts=%d seed=%d: the best AO run stopped at "
            "max_outer (%d outer iterations) without converging",
            cfg.n_antennas, cfg.span_l, n_starts, seed, best.trace.outer_iterations,
        )
    return best


# ---------------------------------------------------------------------------
# Grid / fixed-array schemes


def aps_search(cfg: SystemConfig, grid_step: float = REFERENCE_SPACING) -> SchemeResult:
    """Exhaustive correlation maximization over a quantized aperture.

    Candidate positions live on {0, grid_step, 2 grid_step, ...}; subsets keep
    the minimum spacing.  The correlation depends only on the spacings, so
    only subsets with x_1 = 0 are scored; every other subset is a translate
    of one of them.  Exact ties go to the lexicographically smallest subset,
    the same one a search over every translate would pick.  Refuses blow-ups
    beyond APS_MAX_COMBINATIONS anchored candidates.
    """
    if not (grid_step > 0.0):
        raise ValueError("grid_step must be positive")
    try:
        count, chunks = _grid_combination_chunks(
            cfg.span_l, cfg.d_min, grid_step, cfg.n_antennas, chunk=100_000
        )
    except ValueError as exc:
        raise InfeasibleSchemeError(str(exc)) from exc
    if count > APS_MAX_COMBINATIONS:
        raise InfeasibleSchemeError(
            f"{count} candidate subsets exceed the cap {APS_MAX_COMBINATIONS}; "
            "use a coarser grid_step"
        )
    obj = correlation_objective(cfg)
    best_f = -math.inf
    best_x = None
    # Only x_1 = 0 subsets are enumerated, but those with identical
    # inter-element difference multisets (a mirrored spacing, for one) still
    # give the same objective up to summation rounding, so ties are resolved
    # within a small absolute window; enumeration order is lexicographic and
    # the first hit wins.
    for pos in chunks:
        f = np.abs(np.exp(1j * obj.kappa * pos).sum(axis=1))
        j = int(np.flatnonzero(f >= f.max() - APS_TIE_TOL)[0])
        if f[j] > best_f + APS_TIE_TOL:
            best_f = float(f[j])
            best_x = pos[j].copy()
    bf = closed_form_beamformer(best_x, cfg)
    return SchemeResult(Scheme.APS, best_x, bf, snr_pair(bf.w, best_x, cfg))


def ma_mrt(cfg: SystemConfig) -> SchemeResult:
    """Optimized positions but a matched filter pointed at user 1 only."""
    x, trace = multi_start_sca(cfg)
    h1 = steering_vector(x, cfg.theta_su[0], cfg.wavelength)
    w = np.conj(h1) / math.sqrt(cfg.n_antennas)
    bf = Beamformer(w=w, t=1.0, case_label=None)
    return SchemeResult(Scheme.MA_MRT, x, bf, snr_pair(w, x, cfg), trace)


def fpa_scheme(cfg: SystemConfig) -> SchemeResult:
    """Fixed array at half-wavelength spacing with the optimal beamformer."""
    n = cfg.n_antennas
    if (n - 1) * REFERENCE_SPACING > cfg.span_l + FEASIBILITY_TOL:
        raise InfeasibleSchemeError("fixed half-wavelength array does not fit the aperture")
    if cfg.d_min > REFERENCE_SPACING + FEASIBILITY_TOL:
        raise InfeasibleSchemeError("fixed half-wavelength spacing violates d_min")
    x = REFERENCE_SPACING * np.arange(n, dtype=float)
    bf = closed_form_beamformer(x, cfg)
    return SchemeResult(Scheme.FPA, x, bf, snr_pair(bf.w, x, cfg))


def run_scheme(
    scheme: Scheme,
    cfg: SystemConfig,
    n_starts: int = 10,
    seed: int = 0,
    aps_grid_step: float = REFERENCE_SPACING,
) -> SchemeResult:
    """Dispatch a scheme by name with shared defaults.

    n_starts and seed steer only AO's restarts; the position solve shared by
    proposed, ma_mrt and AO's warm start is deterministic.
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.PROPOSED:
        return proposed_scheme(cfg)
    if scheme is Scheme.AO:
        return ao_scheme(cfg, n_starts=n_starts, seed=seed)
    if scheme is Scheme.APS:
        return aps_search(cfg, grid_step=aps_grid_step)
    if scheme is Scheme.MA_MRT:
        return ma_mrt(cfg)
    return fpa_scheme(cfg)
