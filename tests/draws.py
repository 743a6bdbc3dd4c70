"""Seeded random inputs for the property tests, and the check of the lines they target.

Each case draws from ``np.random.default_rng(seed)`` with its seed in the
test id, so a failure reproduces from the id alone and no edit elsewhere
changes which inputs a case sees.
"""

import numpy as np

EDGE_SHARE = 0.2


def floats(rng, shape, lo, hi, subnormal=True, log=False):
    """Floats in [lo, hi], about one in five an edge of the range.

    The rest are uniform, or log-uniform with ``log`` (0 < lo). The edges
    are lo, hi, the signed zeros and, unless ``subnormal`` is False, the
    smallest subnormals, each where it lies in the range.
    """
    if log:
        values = np.exp(rng.uniform(np.log(lo), np.log(hi), shape))
    else:
        values = rng.uniform(lo, hi, shape)
    tiny = (5e-324, -5e-324) if subnormal else ()
    edges = np.array([lo, hi] + [z for z in (0.0, -0.0, *tiny) if lo <= z <= hi])
    at_edge = rng.random(shape) < EDGE_SHARE
    values = np.where(at_edge, edges[rng.integers(0, len(edges), shape)], values)
    return values if np.ndim(values) else float(values)


WALL_VALUES = (0.0, -0.0, 1e-300)


def wall_lines(rng, lines, n, lo=0.0, hi=1.0):
    """(lines, n) lines for the line-boundary tests, each next to the following one.

    Even lines draw from [lo, hi] (see ``floats``) and hold 0.0, -0.0 and
    1e-300 in their two wall cells, each value on each side; odd lines draw
    the same way times 10^6. So the lines laid end to end put every small
    wall cell next to a large line's wall cell.
    """
    values = floats(rng, (lines, n), lo, hi)
    values[1::2] *= 1e6
    small = values[0::2]
    walls = np.resize(np.array(WALL_VALUES), 2 * len(small))
    small[:, 0], small[:, -1] = walls[0::2], walls[1::2]
    values[0::2] = small
    return values


def assert_walls_positive_zero(problem, a, jac):
    """Every wall slot of u, of the flux and of both bands of ``problem`` at state a is +0.0.

    ``jac``, the problem's Jacobian at a, is a Tridiagonal or a TridiagonalLowRank (whose
    ``tri`` is read).
    """
    tri = getattr(jac, "tri", jac)
    for slots in (problem.potential(a)[1], problem.flux(a), tri.lower, tri.upper):
        walls = slots[..., -1]
        assert not walls.any() and not np.signbit(walls).any()
