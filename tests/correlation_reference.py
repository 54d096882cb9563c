"""Reference correlation math that the tests compare the package against.

The kernel (posopt._sca) works from the phasor sum s = sum exp(j kappa x)
in O(n) per round, with the curvature 2 kappa^2 max(|s|, 1) of its current
point, and projects by a stack-based pool-adjacent-violators pass.  These are
the independent routes: the O(n^2) pairwise excess and its gradient, the
global curvature bound 2 kappa^2 n with its Hessian proof, the quadratic
minorant evaluated directly, and the max-min formula for isotonic
regression.  Beside them sit the min SNR through the correlation, the route
the projection route is checked against, and the oracle's mixing search run
on one position vector.  Not a test module; the tests import it.
"""

import numpy as np

from ma_multicast import oracle, projection_coefficients, theta_at, theta_coefficients


def correlation_excess(x, kappa: float) -> float:
    """Pairwise part f(x)^2 - n of the squared correlation, n being x's size."""
    x = np.asarray(x, dtype=float)
    d = x[:, None] - x[None, :]
    return float(np.cos(kappa * d).sum()) - x.size


def correlation_excess_grad(x, kappa: float) -> np.ndarray:
    """Gradient of the pairwise correlation term."""
    x = np.asarray(x, dtype=float)
    d = x[:, None] - x[None, :]
    return 2.0 * kappa * np.sin(kappa * d).sum(axis=0)


def curvature_bound(kappa: float, n: int) -> float:
    """Global curvature 2 kappa^2 n of the correlation excess; it is tight.

    The SCA kernel does not use it: each round takes the smaller curvature
    2 kappa^2 max(|s|, 1) of its current point (posopt._sca), and this is
    the upper bound on that per-round curvature that the tests check against.

    With e = exp(j kappa x) and s = sum(e), the Hessian of f1 = |s|^2 - n is
    -2 kappa^2 L, where L = diag(Re(e_i conj(s))) - Re(e e^H) is the Laplacian
    of the complete graph on the antennas with edge weights
    w_ik = cos(kappa (x_i - x_k)).  For any v,
    v^T L v = sum_{i<k} w_ik (v_i - v_k)^2, and |w_ik| <= 1 while
    sum_{i<k} (v_i - v_k)^2 = n |v|^2 - (sum v)^2 <= n |v|^2, so
    -n I <= L <= n I and ||H|| <= 2 kappa^2 n.  The quadratic with this
    curvature therefore minorizes f1 around any point.  The bound is attained
    in the limit of aligned phasors, where L tends to n I - 1 1^T.
    """
    return 2.0 * kappa ** 2 * n


def surrogate_value(x, x_k, f1_k: float, g, delta: float) -> float:
    """Concave quadratic minorant of the correlation excess around x_k."""
    x = np.asarray(x, dtype=float)
    x_k = np.asarray(x_k, dtype=float)
    step = x - x_k
    return f1_k + float(g @ step) - 0.5 * delta * float(step @ step)


def max_min_isotonic(y) -> np.ndarray:
    """Projection of y onto the nondecreasing cone by the max-min formula.

    x_i = max_{j<=i} min_{k>=i} mean(y_j..y_k) (Best & Chakravarti 1990),
    from one cumulative sum in O(n^2) array work with no Python loop; no
    block merging as in pool adjacent violators.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    csum = np.concatenate(([0.0], np.cumsum(y)))
    idx = np.arange(n)
    width = np.maximum(idx[None, :] - idx[:, None] + 1, 1)
    # means[j, k] = mean(y_j..y_k), meaningful for k >= j only
    means = (csum[None, 1:] - csum[:n, None]) / width
    # tail[j, i] = min_{k >= i} means[j, k]
    tail = np.minimum.accumulate(means[:, ::-1], axis=1)[:, ::-1]
    tail[idx[:, None] > idx[None, :]] = -np.inf
    return tail.max(axis=0)


def kernel_curvature(x_k, kappa: float) -> float:
    """The SCA kernel's curvature 2 kappa^2 max(|s_k|, 1) at x_k."""
    s_k = np.exp(1j * kappa * np.asarray(x_k, dtype=float)).sum()
    return 2.0 * kappa ** 2 * max(abs(s_k), 1.0)


def min_snr_from_correlation(t: float, f: float, cfg) -> float:
    """Worst-user SNR as a function of the mixing t in [0, 1] and the correlation f."""
    return theta_at(theta_coefficients(f, cfg), t)


def best_t(x, cfg, t_step: float) -> tuple:
    """oracle._best_t_rows on the one row of x's projection gains, as floats (t, theta)."""
    gains = (np.array([g]) for g in projection_coefficients(x, cfg))
    t, theta = oracle._best_t_rows(*gains, cfg.snr_scales, t_step)
    return float(t[0]), float(theta[0])
