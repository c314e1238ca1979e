"""Checks of the gap evaluator against brute force on small random problems.

Run with:  python3 -m pytest perfbench/test_gap.py
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gap import box_max, linear_max  # noqa: E402


def kink_enumeration(g, u, C):
    """min over every kink lam = u_i g_i of C * sum_j max(0, g_j - lam u_j)."""
    return min(C * float(np.maximum(g - lam * u, 0.0).sum()) for lam in u * g)


def vertex_enumeration(g, u, C):
    """max g'b over the vertices of {0 <= b <= C, u'b = 0}.

    A vertex has at most one coordinate strictly inside (0, C); fix every
    other coordinate at 0 or C and solve the hyperplane for the free one.
    """
    n = g.size
    best = -np.inf
    for free in range(n):
        rest = [i for i in range(n) if i != free]
        for corners in itertools.product((0.0, C), repeat=n - 1):
            b = np.zeros(n)
            b[rest] = corners
            b[free] = -u[free] * float(u[rest] @ b[rest])
            if -1e-12 <= b[free] <= C + 1e-12:
                best = max(best, float(g @ b))
    return best


def random_problem(rng, n):
    g = rng.normal(0.0, 2.0, n)
    u = rng.choice([-1.0, 1.0], n)
    return g, u, float(rng.uniform(0.5, 3.0))


@pytest.mark.parametrize("seed", range(40))
def test_linear_max_matches_kink_enumeration(seed):
    rng = np.random.default_rng(seed)
    g, u, C = random_problem(rng, int(rng.integers(1, 40)))
    assert linear_max(g, u, C) == pytest.approx(kink_enumeration(g, u, C),
                                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(40))
def test_linear_max_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    g, u, C = random_problem(rng, int(rng.integers(1, 9)))
    assert linear_max(g, u, C) == pytest.approx(vertex_enumeration(g, u, C),
                                                rel=1e-12, abs=1e-12)


def test_linear_max_with_ties_and_one_sided_constraint():
    g = np.array([1.0, 1.0, -1.0, 2.0])
    assert linear_max(g, np.ones(4), 1.5) == 0.0
    u = np.array([1.0, -1.0, 1.0, -1.0])
    assert linear_max(g, u, 1.0) == pytest.approx(vertex_enumeration(g, u, 1.0))


def test_box_max_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    g = rng.normal(size=6)
    best = max(float(g @ np.array(b))
               for b in itertools.product((0.0, 2.0), repeat=6))
    assert box_max(g, 2.0) == pytest.approx(best)
