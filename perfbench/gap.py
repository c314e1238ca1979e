"""Frank-Wolfe optimality gap of a dual solution, for ``train_gap_rel``.

For a concave value function h maximized over a feasible set A, the
Frank-Wolfe gap at a is  max_{b in A} grad h(a)'(b - a).  It is zero only
at a maximizer and bounds h* - h(a) from above (Jaggi, ICML 2013), so it
certifies how far a returned dual vector is from optimal.

Every feasible set here is a box [0, C]^N, optionally intersected with the
hyperplane u'b = 0 for a +-1 vector u (the labels y for the classifier,
the stacked [1; -1] for the paired regression dual).  The linear
maximization over that set is solved exactly by sorting.

The gradients and objectives come from the package's public functions and
are evaluated outside every timed region.
"""

from dataclasses import replace

import numpy as np

from adakern.kernel import gaussian_gram
from adakern.solver import dual_gradient, dual_objective
from adakern.svr import svr_gradients, svr_objective


def linear_max(g, u, C):
    """max g'b over {0 <= b <= C, u'b = 0} for a +-1 vector u.

    By LP duality the maximum equals min over lam of
    phi(lam) = C * sum_i max(0, g_i - lam u_i).  phi is convex and
    piecewise linear with its kinks at lam = u_i g_i, so its minimum sits at
    one of them; all kinks are evaluated at once from sorted prefix sums.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.sort(g[u > 0])       # terms max(0, p_i - lam)
    q = np.sort(-g[u < 0])      # terms max(0, lam - q_i)
    kinks = np.concatenate([p, q])
    cum_p = np.concatenate([[0.0], np.cumsum(p)])
    cum_q = np.concatenate([[0.0], np.cumsum(q)])
    above = np.searchsorted(p, kinks, side="right")
    below = np.searchsorted(q, kinks, side="left")
    plus = (cum_p[-1] - cum_p[above]) - kinks * (p.size - above)
    minus = kinks * below - cum_q[below]
    return C * float(np.min(plus + minus))


def box_max(g, C):
    """max g'b over the box [0, C]^N alone."""
    return C * float(np.maximum(np.asarray(g, dtype=float), 0.0).sum())


def relative(gap, h):
    """Gap scaled by max(1, |h|), the form ``train_gap_rel`` reports."""
    return gap / max(1.0, abs(h))


def svm_gap(alpha, y, K, config):
    """(gap, h) of the adaptive classifier dual at ``alpha``."""
    g = dual_gradient(alpha, y, K, config)
    h = dual_objective(alpha, y, K, config)
    return linear_max(g, y, config.C) - float(g @ alpha), h


def svr_gap(alpha_hat, alpha_check, y, K, epsilon, config):
    """(gap, h) of the paired regression dual on the stacked state."""
    g_hat, g_check = svr_gradients(alpha_hat, alpha_check, K, y, epsilon, config)
    h = svr_objective(alpha_hat, alpha_check, y, K, epsilon, config)
    g = np.concatenate([g_hat, g_check])
    z = np.concatenate([alpha_hat, alpha_check])
    u = np.concatenate([np.ones(alpha_hat.size), -np.ones(alpha_check.size)])
    return linear_max(g, u, config.C) - float(g @ z), h


def block_gap(model):
    """(gap, h) of the block-separable problem a decomposition model solves.

    Each k-means block is a box-constrained dual with the nuclear weight
    and the hyperplane dropped; the problem separates over blocks, so its
    gap and value are the sums over blocks.
    """
    config = replace(model.config, tau=0.0)
    gap = h = 0.0
    for c in range(int(model.assignment.max()) + 1):
        idx = np.flatnonzero(model.assignment == c)
        a, y = model.alpha[idx], model.y[idx]
        K = gaussian_gram(model.X[idx], model.sigma)
        g = dual_gradient(a, y, K, config)
        gap += box_max(g, config.C) - float(g @ a)
        h += dual_objective(a, y, K, config)
    return gap, h
