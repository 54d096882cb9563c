"""Antenna position optimization by successive concave minorization.

The channel correlation of the two users depends on the positions only
through the phase differences kappa * (x_i - x_j).  Each round maximizes a
concave quadratic lower bound of the correlation objective exactly, via a
Euclidean projection onto the spacing polytope.  The curvature of that bound
adapts to the current point: 2 kappa^2 |s|, with s the phasor sum there, is
a valid minorant curvature everywhere and never exceeds the global bound
2 kappa^2 n (majorization-minimization, Sun, Babu & Palomar 2017).  Each
ascent checks feasibility once on entry and once on exit; its rounds do not
re-check it, since each projection is feasible by construction.

The position solve runs one ascent per start, from the uniform spread and
from the chain-DP start.  The latter is the aligned chain, whose spacings
are whole periods of the phase difference, when it fits the span;
otherwise a chain dynamic program maximizes sum_i cos(kappa x_i - psi)
exactly on a grid of the slack coordinates, for the best of a few phases
psi.  multi_start_sca memoises the winning trace per config, so every
scheme that needs the correlation-optimal positions shares one solve and
reads its read-only positions.

Each kernel counts lengths in its own unit, converted on entry and back on
exit: the ascent and the chain-DP start work in wavelengths, with the phase
rate kappa wavelength, and the grid-subset enumerator in grid steps.  So
every constant a kernel compares a length with is a number of wavelengths
or grid steps, and its slack, feasibility_slack in that unit, is never
looser than the user-unit check its output meets.
"""

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, exceeds_span, feasibility_slack
from .sysmodel import check_positions, validate_positions

log = logging.getLogger(__name__)

# The phase rate per wavelength, |kappa| wavelength = 2 pi |sin theta_2 -
# sin theta_1|, the one the position solve uses: below this the users are
# angularly indistinguishable and the objective is constant in x.
KAPPA_TOL = 1e-12
# The position solve's window: of the starts whose f1 lies within it of the
# best, the lexicographically first x wins (_first_best).
TIE_TOL = 1e-12
# The ascent stops once a round gains less than SCA_TOL in f1, or after
# SCA_MAX_ITER rounds.
SCA_TOL = 1e-8
SCA_MAX_ITER = 500
# Distinct configs whose position solve is kept for reuse.
SOLVE_CACHE_SIZE = 8
# Phases psi = 2 pi p / DP_PHASES tried by the chain-DP start.
DP_PHASES = 64
# Most grid steps across the slack range of the chain-DP start; bounds each
# of its value rows at DP_MAX_STEPS + 1 entries.
DP_MAX_STEPS = 4096
# Most points that one pass of a grid search holds at once: the chain DP's
# phase blocks, the enumerator's chunks of grid subsets (which APS and the
# joint oracle score), and oracle's mixing-grid blocks and rescans stay under
# it, so memory stays flat in the grid size and the row count.  Neither the
# per-element arithmetic nor any result depends on it.
_PASS_BUDGET = 4096


@dataclass(frozen=True, eq=False)
class ScaTrace:
    """Log of one surrogate-ascent run.

    f1_history[k] is the correlation excess after k rounds (entry 0 is the
    start) and x the final positions; both arrays are read-only.
    """

    f1_history: np.ndarray
    x: np.ndarray
    converged: bool
    iterations: int


def _correlation_rows(x, kappa) -> np.ndarray:
    """|sum_n exp(j kappa x_n)| of x or of each row of it; kappa is one value or a (B, 1) column.

    np.hypot rounds as Python's abs of one complex does; np.abs of a complex
    array can differ from it by an ulp.
    """
    s = np.exp(1j * kappa * np.asarray(x, dtype=float)).sum(axis=-1)
    return np.hypot(s.real, s.imag)


def correlation(x, cfg: SystemConfig) -> float:
    """Channel correlation f(x) = |sum_n exp(j kappa x_n)|, in [0, n], with cfg's kappa."""
    return float(_correlation_rows(x, cfg.kappa))


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Projection of y onto the nondecreasing cone by pool adjacent violators.

    One left-to-right pass keeps a stack of blocks, each with its sum and
    size; a value that falls below the mean of the block before it merges
    with it, and the merged block keeps merging backwards while it violates
    the order (Best & Chakravarti 1990).  O(n) time and memory.
    """
    sums, sizes = [], []
    for total in y.tolist():
        size = 1
        while sums and sums[-1] / sizes[-1] > total / size:
            total += sums.pop()
            size += sizes.pop()
        sums.append(total)
        sizes.append(size)
    return np.repeat(np.array(sums) / np.array(sizes), sizes)


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
    # SystemConfig's own feasibility test, so every config it accepts projects
    if exceeds_span(n, d_min, span_l):
        raise ValueError("polytope is empty: span_l < (n - 1) * d_min")
    hi = max(span_l - (n - 1) * d_min, 0.0)
    offsets = d_min * np.arange(n)
    u = _isotonic(z - offsets)
    np.clip(u, 0.0, hi, out=u)
    return u + offsets


def _surrogate_step(x_k: np.ndarray, g: np.ndarray, delta: float, span_l: float, d_min: float) -> np.ndarray:
    """Exact maximizer of the quadratic minorant over the spacing polytope.

    x_k is a feasible position vector, g its slope and delta > 0 the
    curvature.  A zero slope returns x_k itself, since x_k maximizes its own
    minorant.  It checks neither that x_k is feasible nor that delta is
    positive: _sca proves both.
    """
    if not g.any():
        return x_k
    return project_polytope(x_k + g / delta, span_l, d_min)


def uniform_positions(cfg: SystemConfig) -> np.ndarray:
    """Evenly spread positions covering the whole aperture."""
    return (cfg.span_l / (cfg.n_antennas - 1)) * np.arange(cfg.n_antennas)


def random_positions(cfg: SystemConfig, rng) -> np.ndarray:
    """Random feasible positions: sorted slack values plus the spacing offsets.

    rng is anything with numpy's uniform(low, high, size): a
    numpy.random.Generator, or validate's stdlib stream _pcg64.PCG64, which
    draws the same values as the Generator whose recorded state it starts
    from.
    """
    hi = cfg.span_l - (cfg.n_antennas - 1) * cfg.d_min
    u = np.sort(rng.uniform(0.0, max(hi, 0.0), cfg.n_antennas))
    return u + cfg.d_min * np.arange(cfg.n_antennas)


def _grid_combination_chunks(span_l: float, d_min: float, step: float, n: int):
    """Feasible x_1 = 0 subsets of the grid {0, step, ...}, one per mirror pair.

    Correlation and both projection gains depend only on the spacings, and
    every feasible subset has a translate with x_1 = 0 that keeps its
    spacings.  Reversing the spacings mirrors the array, which conjugates
    both channels up to a phase and so keeps the correlation and the gains
    too.  Of an anchored subset and its mirror, only the one whose spacing
    sequence is lexicographically no greater than its reverse is yielded
    (every subset is yielded at n = 2, where each is its own mirror).  For
    anchored subsets, comparing spacings lexicographically is comparing
    positions, so the kept subset is the first of its tied translates and
    mirrors, and a first-wins tie rule picks the same tuple as over the full
    grid.

    Returns (count, chunks): the number of anchored subsets whose consecutive
    spacings are at least d_min and whose last point is at most span_l, each
    within feasibility_slack(span_l / step, step), mirrors included, which
    is what the callers' caps count; and an iterator over the kept subsets
    in lexicographic order as float position arrays, never empty, each from
    a block of max(1, _PASS_BUDGET // n) anchored subsets.  The bounds are
    counted in grid steps, so the slack is 1e-9 grid steps or 1e-9 user
    lengths, whichever is smaller: never looser than validate_positions'
    slack on the positions step k.
    """
    span = span_l / step
    last = span + feasibility_slack(span, step)
    if not math.isfinite(last):
        raise ValueError(f"span_l / step = {last} leaves no finite count of grid points")
    # Python ints: at a step far below span_l the counts pass any fixed-width integer
    m = math.floor(last) + 1
    gap = max(1, math.ceil(d_min / step - feasibility_slack(span, step)))
    reduced = m - (n - 1) * (gap - 1)
    if reduced < n:
        raise ValueError("no feasible antenna subset on this grid")

    def chunks():
        # built on the first chunk, so a caller refusing the count allocates nothing
        values = step * np.arange(m)
        shift = (gap - 1) * np.arange(n)
        combos = ((0,) + c for c in itertools.combinations(range(1, reduced), n - 1))
        while block := list(itertools.islice(combos, max(1, _PASS_BUDGET // n))):
            idx = np.asarray(block, dtype=int)
            # the spacings of idx + shift differ from these by a constant
            d = np.diff(idx, axis=1)
            delta = d - d[:, ::-1]
            first = np.argmax(delta != 0, axis=1)
            kept = idx[delta[np.arange(len(idx)), first] <= 0]
            if len(kept):
                yield values[kept + shift]

    return math.comb(reduced - 1, n - 1), chunks()


def _first_best(chunks, score, window) -> tuple:
    """The first row, over all chunks in order, whose score lies within window(best) of the best score.

    score(chunk) returns (values, *columns): one float score per row of the
    chunk, then arrays indexed by row.  The result is the winning row's
    (value, *column entries), each entry copied.  A row that does not beat
    every row before it never wins, so only such record rows are kept, and
    of them only those inside the window of the best score so far: memory
    stays flat in the row count, and the winner does not depend on where
    the chunks end.  Pruning is safe when best - window(best) never
    decreases as best grows, so that a record outside the window now stays
    outside it.
    """
    best, records = -math.inf, []
    for chunk in chunks:
        values, *columns = score(chunk)
        # the best score before each row: a row that does not beat it never wins
        ahead = np.maximum.accumulate(np.concatenate(([best], values[:-1])))
        records += [
            (float(values[k]), *(np.copy(col[k]) for col in columns)) for k in np.flatnonzero(values > ahead)
        ]
        best = records[-1][0]
        records = [rec for rec in records if rec[0] >= best - window(best)]
    return records[0]


def _chain_dp(wave: np.ndarray, turn: np.ndarray, best=None) -> np.ndarray:
    """Value row of the chain DP after the antennas whose turns are given.

    The row holds, at each grid point, the best gain sum of the antennas so
    far with the last of them there; antenna i's gains on the grid are
    Re(wave turn[i]).  best is the row entering the first of them, zeros
    (no antenna yet) when not given; a given row is updated in place.
    """
    if best is None:
        best = np.zeros(wave.shape)
    for r in turn:
        np.maximum.accumulate(best, axis=0, out=best)
        best += (wave * r).real
    return best


def chain_dp_start(cfg: SystemConfig) -> np.ndarray:
    """Positions that maximize sum_i cos(kappa x_i - psi), best over phases psi.

    When every spacing can be a whole number of periods P = 2 pi / |kappa|,
    the aligned chain x_i = (i - 1) ceil(d_min / P) P is returned: all
    phasors agree, so it is the exact optimum f = n.  Otherwise the slack
    u_i = x_i - (i - 1) d_min turns the polytope into 0 <= u_1 <= ... <= u_n
    <= H = span_l - (n - 1) d_min, and for a fixed phase psi the sum is
    maximized exactly on the grid linspace(0, H, M + 1) by a prefix-max
    dynamic program in O(n M).  The step H / M moves the phase kappa u by at
    most pi / 64 and u by at most 0.025 wavelengths, unless M reaches
    DP_MAX_STEPS.  Each such sum is a lower bound of the correlation
    |sum_i exp(j kappa x_i)| at the same positions.

    It works in wavelengths, as _sca does: on entry it takes the phase rate
    kappa wavelength, span_l / wavelength and d_min / wavelength, and on exit
    it multiplies the positions by the wavelength.  The aligned chain fits
    when exceeds_span in wavelengths, with the wavelength as its unit, says
    so, which is never looser than the user-unit check the positions meet
    in _sca.

    A first pass runs the phases psi = 2 pi p / DP_PHASES in blocks of
    _PASS_BUDGET // (M + 1) at once, keeping only the current antenna's
    values.  A second pass reruns the winning phase and keeps only the row
    entering every k-th antenna, k = isqrt(n) + 1.  The walk back from the
    last antenna recomputes each run of at most k rows from its entering
    row and picks each antenna's point as the first argmax of its row up to
    the next antenna's point.  So memory stays at O(_PASS_BUDGET + sqrt(n) M)
    floats, flat in n, for about twice the single-phase work.  Ties go to
    the first phase and the smallest u.  Needs |kappa| wavelength >=
    KAPPA_TOL, so that the period, at most 2 pi / KAPPA_TOL = 6.3e12
    wavelengths, is finite.
    """
    lam, n = cfg.wavelength, cfg.n_antennas
    kappa, span, d_min = cfg.kappa * lam, cfg.span_l / lam, cfg.d_min / lam
    period = 2.0 * math.pi / abs(kappa)
    pitch = math.ceil(d_min / period) * period
    if not exceeds_span(n, pitch, span, lam):
        return lam * (pitch * np.arange(n))
    hi = max(span - (n - 1) * d_min, 0.0)
    h_max = min(0.025, (math.pi / 64.0) / abs(kappa))
    u = np.linspace(0.0, hi, min(math.ceil(hi / h_max), DP_MAX_STEPS) + 1)
    psi = (2.0 * math.pi / DP_PHASES) * np.arange(DP_PHASES)
    # antenna i sits at u + (i - 1) d_min, which turns its phasor by kappa (i - 1) d_min
    turn = np.exp(1j * kappa * d_min * np.arange(n))
    # first pass: the phases in blocks under the pass budget, each keeping its best end value
    block = max(1, _PASS_BUDGET // u.size)
    peaks = [
        _chain_dp(np.exp(1j * (kappa * u[:, None] - psi[p : p + block])), turn).max(axis=0)
        for p in range(0, DP_PHASES, block)
    ]
    wave = np.exp(1j * (kappa * u - psi[int(np.argmax(np.concatenate(peaks)))]))
    # second pass: the winning phase, keeping the row entering antennas 0, k, 2k, ...
    k = math.isqrt(n) + 1
    entering = [np.zeros(u.size)]
    for i in range(k, n, k):
        entering.append(_chain_dp(wave, turn[i - k : i], entering[-1].copy()))
    # walk back: each run of k rows is recomputed from its entering row
    chosen, end = [], u.size
    for i in reversed(range(0, n, k)):
        best = entering.pop()
        rows = [_chain_dp(wave, (r,), best).copy() for r in turn[i : i + k]]
        for row in reversed(rows):
            end = int(np.argmax(row[:end])) + 1
            chosen.append(end - 1)
    return lam * (u[chosen[::-1]] + d_min * np.arange(n))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _sca(cfg: SystemConfig, start) -> ScaTrace:
    """Ascend the correlation excess from one start; returns its ScaTrace.

    With s = sum_n exp(j kappa x_n), f1 = |s|^2 - n and its gradient
    2 kappa Im(s conj(exp(j kappa x))) cost O(n).  Each round solves the
    quadratic minorant exactly with the curvature
    delta_k = 2 kappa^2 max(|s_k|, 1) of the current point, so f1 never
    decreases.  delta_k is a valid curvature everywhere, not only near x_k:
    with phi = arg s_k, |s(y)|^2 >= 2 Re(conj(s_k) s(y)) - |s_k|^2
    = 2 |s_k| sum_i cos(kappa y_i - phi) - |s_k|^2, with equality and equal
    slope at y = x_k, and each cosine has curvature at most kappa^2.  Since
    |s_k| <= n, delta_k never exceeds the global curvature 2 kappa^2 n; the
    floor only keeps it positive at s_k = 0, where the slope is zero.  The
    ascent stops once the improvement falls below SCA_TOL or after
    SCA_MAX_ITER rounds.

    The ascent works in wavelengths: after the start's check in user units,
    it takes x / wavelength, span_l / wavelength, d_min / wavelength and the
    phase rate per wavelength kappa_w = kappa wavelength, and it multiplies
    the last iterate by the wavelength before that iterate's check in user
    units.  Each projection ends, up to rounding, at most at the larger of
    the span and (n - 1) d_min in wavelengths, and SystemConfig has checked
    the latter against the span in wavelengths, with the wavelength as the
    unit of feasibility_slack: no looser than that exit check.

    The round loop re-checks neither feasibility nor delta_k.  Rounds run
    only when |kappa_w| >= KAPPA_TOL, and |kappa_w| <= 2 pi, so
    delta_k = 2 kappa_w^2 max(|s_k|, 1) lies in [2e-24, 8 pi^2 n]: a
    positive normal float at every wavelength.  Each anchor is either the
    start or the previous round's polytope projection.
    The start is checked once on entry and the last iterate once on exit.
    """
    lam = cfg.wavelength
    kappa, span, d_min = cfg.kappa * lam, cfg.span_l / lam, cfg.d_min / lam
    x = validate_positions(start, cfg.span_l, cfg.d_min) / lam
    n = x.size
    e = np.exp(1j * kappa * x)
    s = e.sum()
    history = [np.abs(s) ** 2 - n]
    # users at matching sine angles: f is constant, nothing to move
    converged = abs(kappa) < KAPPA_TOL
    while not converged and len(history) <= SCA_MAX_ITER:
        g = 2.0 * kappa * np.imag(s * np.conj(e))
        delta = 2.0 * kappa ** 2 * max(np.abs(s), 1.0)
        x = _surrogate_step(x, g, delta, span, d_min)
        e = np.exp(1j * kappa * x)
        s = e.sum()
        history.append(np.abs(s) ** 2 - n)
        converged = history[-1] - history[-2] < SCA_TOL
    x = validate_positions(lam * x, cfg.span_l, cfg.d_min)
    return ScaTrace(
        f1_history=_frozen(history), x=_frozen(x), converged=bool(converged), iterations=len(history) - 1
    )


def sca_optimize(cfg: SystemConfig, init):
    """Ascend the correlation excess from init, under SCA_TOL and SCA_MAX_ITER; returns (x, ScaTrace)."""
    trace = _sca(cfg, check_positions(init, cfg))
    return trace.x.copy(), trace


@functools.lru_cache(maxsize=SOLVE_CACHE_SIZE)
def multi_start_sca(cfg: SystemConfig) -> ScaTrace:
    """Best SCA run from the uniform start and the chain-DP start.

    Deterministic: the runs, sorted by their final x (stably, so the
    uniform start stays first on equal x), are ranked by _first_best on the
    last f1 = |s|^2 - n each ascent computed, with the window TIE_TOL: the
    lexicographically first x whose f1 lies within TIE_TOL of the best
    wins.  Returns the winning run's ScaTrace.  The solve is memoised on
    cfg, so the schemes that share these positions share one solve and an
    unconverged solve warns once per config; every caller reads the same
    read-only trace.x.
    """
    starts = [uniform_positions(cfg)]
    if abs(cfg.kappa * cfg.wavelength) >= KAPPA_TOL:
        # with kappa = 0 every x is optimal and the uniform start stays
        starts.append(chain_dp_start(cfg))
    traces = sorted((_sca(cfg, start) for start in starts), key=lambda trace: tuple(trace.x))
    f1 = np.array([trace.f1_history[-1] for trace in traces])
    _, k = _first_best([np.arange(len(traces))], lambda k: (f1[k], k), lambda best: TIE_TOL)
    best = traces[int(k)]
    if not best.converged:
        log.warning(
            "position solve n=%d span_l=%g: the winning SCA start stopped at "
            "max_iter (%d rounds) without converging",
            cfg.n_antennas, cfg.span_l, best.iterations,
        )
    return best
