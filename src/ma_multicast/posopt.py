"""Antenna position optimization by successive concave minorization.

The channel correlation of the two users depends on the positions only
through the phase differences kappa * (x_i - x_j).  Each round maximizes a
concave quadratic lower bound of the correlation objective exactly, via a
Euclidean projection onto the spacing polytope.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import FEASIBILITY_TOL, SystemConfig, validate_positions

# |kappa| below this means the users are angularly indistinguishable and the
# objective is constant in x.
KAPPA_TOL = 1e-12
# f1 ties closer than this are broken lexicographically on x.
TIE_TOL = 1e-12


class DegenerateObjectiveError(ValueError):
    """Raised when the surrogate has no curvature (every feasible x is optimal)."""


@dataclass(frozen=True)
class CorrelationObjective:
    """Angular frequency of the correlation objective and the array size."""

    kappa: float
    n: int


@dataclass(frozen=True, eq=False)
class ScaTrace:
    """Iterate log of one surrogate-ascent run."""

    iterates: list
    converged: bool
    iterations: int


def correlation_objective(cfg: SystemConfig) -> CorrelationObjective:
    kappa = (2.0 * math.pi / cfg.wavelength) * (
        math.sin(cfg.theta_su[1]) - math.sin(cfg.theta_su[0])
    )
    return CorrelationObjective(kappa=kappa, n=cfg.n_antennas)


def correlation(x, obj: CorrelationObjective) -> float:
    """Channel correlation f(x) = |sum_n exp(j kappa x_n)|, in [0, n]."""
    x = np.asarray(x, dtype=float)
    return float(abs(np.exp(1j * obj.kappa * x).sum()))


def correlation_excess(x, obj: CorrelationObjective) -> float:
    """Pairwise part f(x)^2 - n of the squared correlation."""
    x = np.asarray(x, dtype=float)
    d = x[:, None] - x[None, :]
    return float(np.cos(obj.kappa * d).sum()) - obj.n


def correlation_excess_grad(x, obj: CorrelationObjective) -> np.ndarray:
    """Gradient of the pairwise correlation term."""
    x = np.asarray(x, dtype=float)
    d = x[:, None] - x[None, :]
    return 2.0 * obj.kappa * np.sin(obj.kappa * d).sum(axis=0)


def curvature_bound(obj: CorrelationObjective) -> float:
    """Frobenius-type bound on the spectral norm of the objective's Hessian."""
    k4 = obj.kappa ** 4
    n = obj.n
    return math.sqrt(4.0 * k4 * n * (n - 1) ** 2 + 4.0 * n * (n - 1) * k4)


def _pav_nondecreasing(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the nondecreasing cone (pool adjacent violators)."""
    sums = []
    counts = []
    for val in y:
        s, c = float(val), 1
        # merge while the running block mean exceeds the incoming one
        while sums and sums[-1] * c > s * counts[-1]:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    out = np.empty(len(y), dtype=float)
    pos = 0
    for s, c in zip(sums, counts):
        out[pos : pos + c] = s / c
        pos += c
    return out


def project_polytope(z, span_l: float, d_min: float) -> np.ndarray:
    """Euclidean projection onto {0 <= x_1, x_i - x_{i-1} >= d_min, x_n <= span_l}.

    Subtracting the cumulative minimum spacings turns the constraints into an
    order cone with box bounds, whose projection is isotonic regression
    followed by clipping.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("z must be a non-empty 1-D array")
    n = z.size
    hi = span_l - (n - 1) * d_min
    if hi < -FEASIBILITY_TOL:
        raise ValueError("polytope is empty: span_l < (n - 1) * d_min")
    hi = max(hi, 0.0)
    offsets = d_min * np.arange(n)
    u = _pav_nondecreasing(z - offsets)
    np.clip(u, 0.0, hi, out=u)
    return u + offsets


def surrogate_value(x, x_k, f1_k: float, g, delta: float) -> float:
    """Concave quadratic minorant of the correlation excess around x_k."""
    x = np.asarray(x, dtype=float)
    x_k = np.asarray(x_k, dtype=float)
    step = x - x_k
    return f1_k + float(g @ step) - 0.5 * delta * float(step @ step)


def solve_surrogate(x_k, g, delta: float, cfg: SystemConfig) -> np.ndarray:
    """Exact maximizer of the quadratic minorant over the spacing polytope."""
    x_k = validate_positions(x_k, cfg.span_l, cfg.d_min)
    g = np.asarray(g, dtype=float)
    if delta <= 0.0:
        raise DegenerateObjectiveError("surrogate curvature must be positive")
    if not np.any(g):
        # zero slope: x_k itself maximizes the minorant
        return x_k.copy()
    return project_polytope(x_k + g / delta, cfg.span_l, cfg.d_min)


def uniform_positions(cfg: SystemConfig) -> np.ndarray:
    """Evenly spread positions covering the whole aperture."""
    return (cfg.span_l / (cfg.n_antennas - 1)) * np.arange(cfg.n_antennas)


def random_positions(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Random feasible positions: sorted slack values plus the spacing offsets."""
    hi = cfg.span_l - (cfg.n_antennas - 1) * cfg.d_min
    u = np.sort(rng.uniform(0.0, max(hi, 0.0), cfg.n_antennas))
    return u + cfg.d_min * np.arange(cfg.n_antennas)


def _grid_combination_chunks(span_l: float, d_min: float, step: float, n: int, chunk: int):
    """Feasible n-subsets of the grid {0, step, 2 step, ...} within the aperture.

    Returns (count, chunks): the number of subsets whose consecutive spacings
    are at least d_min, and an iterator over them in lexicographic order as
    float position arrays of at most chunk rows.
    """
    m = int(math.floor(span_l / step + FEASIBILITY_TOL)) + 1
    gap = max(1, math.ceil((d_min - FEASIBILITY_TOL) / step))
    reduced = m - (n - 1) * (gap - 1)
    if reduced < n:
        raise ValueError("no feasible antenna subset on this grid")
    values = step * np.arange(m)
    shift = (gap - 1) * np.arange(n)

    def chunks():
        combos = itertools.combinations(range(reduced), n)
        while block := list(itertools.islice(combos, chunk)):
            yield values[np.asarray(block, dtype=int) + shift]

    return math.comb(reduced, n), chunks()


def sca_optimize(cfg: SystemConfig, init, tol: float = 1e-8, max_iter: int = 500):
    """Ascend the correlation excess from init; returns (x, ScaTrace).

    Each round solves the quadratic minorant exactly, so the recorded f1
    values never decrease.  Stops once the improvement falls below tol.
    """
    obj = correlation_objective(cfg)
    x = validate_positions(init, cfg.span_l, cfg.d_min)
    if x.size != cfg.n_antennas:
        raise ValueError("init does not match n_antennas")
    f1 = correlation_excess(x, obj)
    iterates = [(x.copy(), f1)]
    if abs(obj.kappa) < KAPPA_TOL:
        # users at matching sine angles: f is constant, nothing to move
        return x, ScaTrace(iterates=iterates, converged=True, iterations=0)
    delta = curvature_bound(obj)
    converged = False
    for _ in range(max_iter):
        g = correlation_excess_grad(x, obj)
        x_new = solve_surrogate(x, g, delta, cfg)
        f1_new = correlation_excess(x_new, obj)
        iterates.append((x_new, f1_new))
        improvement = f1_new - f1
        x, f1 = x_new, f1_new
        if improvement < tol:
            converged = True
            break
    return x, ScaTrace(iterates=iterates, converged=converged, iterations=len(iterates) - 1)


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for ai, bi in zip(a, b):
        if ai < bi:
            return True
        if ai > bi:
            return False
    return False


def multi_start_sca(cfg: SystemConfig, n_starts: int = 10, seed: int = 0):
    """Best of one uniform-spacing start plus n_starts - 1 random feasible starts.

    Deterministic for a fixed seed; exact f1 ties go to the lexicographically
    smaller position vector.  Returns (x, ScaTrace) of the winning run.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    obj = correlation_objective(cfg)
    starts = [uniform_positions(cfg)]
    starts += [random_positions(cfg, rng) for _ in range(n_starts - 1)]
    best_x, best_trace, best_f1 = None, None, -math.inf
    for init in starts:
        x, trace = sca_optimize(cfg, init)
        f1 = correlation_excess(x, obj)
        if best_x is None or f1 > best_f1 + TIE_TOL:
            take = True
        elif f1 >= best_f1 - TIE_TOL:
            take = _lex_less(x, best_x)
        else:
            take = False
        if take:
            best_x, best_trace, best_f1 = x, trace, f1
    return best_x, best_trace
