"""Shared fixtures: the standard measure matrix and cached profiles.

The "table" entry is a deterministic random valid piecewise-linear convex
potential (fixed seed) so every run exercises an unstructured measure
without golden-value drift.
"""

import numpy as np
import pytest

from radsurf import bodies
from radsurf import potential as pot
from radsurf import functionals as fn
from radsurf.bodies import Polytope

TABLE_SEED = 20260814


def make_random_table(seed=TABLE_SEED):
    rng = np.random.default_rng(seed)
    nseg = 9
    steps = rng.uniform(0.2, 0.9, nseg)
    knots = np.cumsum(steps)
    # cumsum of positive increments => slopes positive and strictly increasing
    slopes = np.cumsum(rng.uniform(0.05, 0.6, nseg))
    values = np.cumsum(slopes * steps)
    return knots, values


def standard_measures():
    knots, values = make_random_table()
    return [
        ("gaussian", pot.gaussian()),
        ("gp1", pot.power(1.0)),
        ("gp4", pot.power(4.0)),
        ("ball", pot.ball(1.0)),
        ("table", pot.tabulated(knots, values)),
    ]


MEASURE_NAMES = [name for name, _ in standard_measures()]


@pytest.fixture(scope="session")
def get_profile():
    """Memoized (measure name, dimension) -> MeasureProfile."""
    cache = {}
    measures = dict(standard_measures())

    def _get(name, d):
        key = (name, d)
        if key not in cache:
            cache[key] = fn.profile(measures[name], d)
        return cache[key]

    return _get


def circumscribed_polytope(d, rho, n, seed):
    """n random facets all tangent to the sphere of radius rho."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return Polytope(directions=dirs, offsets=np.full(n, float(rho)))


def whole_draw(rng, S, normals, m):
    """(theta, sets, radii) of a facet's whole draw of S directions with
    the first q of m coordinates, as `bodies._facet_draw` and
    `bodies._direction_blocks` make it: the n unit base rows, collected
    from the blocks, the B normal sets and the (n, B) radii, or the scalar
    1.0 where every radius is 1, so that direction (r, b) is
    radii[r, b] theta_r Q_b.  Not for RQMC at q = 2 with replicates of two
    sizes, whose short replicates score a base of their own."""
    draw = bodies._facet_draw(rng, S, normals, m)
    sets, n, _ = draw
    blocks = list(bodies._direction_blocks(
        rng, np.empty(n * sets.shape[0]), S, m, draw))
    assert all(np.array_equal(blk[1], sets) for blk in blocks)
    theta = np.concatenate([blk[0] for blk in blocks])
    radii = [blk[2] for blk in blocks]
    return theta, sets, (1.0 if np.isscalar(radii[0])
                         else np.concatenate([r.T for r in radii]))


def pytest_terminal_summary(terminalreporter):
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
