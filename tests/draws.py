"""Seeded random inputs for the property tests.

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
