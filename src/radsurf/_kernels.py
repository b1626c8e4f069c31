"""Monte Carlo counting kernels.

Counts are exact integers, so chunking never changes results.
"""

import numpy as np


def facet_accept_count(dirs, scales, normals, base, offsets):
    """Count samples y_k = anchor + scales[k] * dirs[k] satisfying every
    constraint  base[j] + scales[k] * <dirs[k], normals[j]> <= offsets[j].
    """
    if normals.shape[0] == 0:
        return int(dirs.shape[0])
    g = dirs @ normals.T
    ok = np.all(base[None, :] + scales[:, None] * g <= offsets[None, :], axis=1)
    return int(np.count_nonzero(ok))


def polytope_shell_counts(pts, normals, offsets, eps):
    """Classify points against the polytope {x : <x, normals[j]> <= offsets[j]}.

    Returns (inside, shell) where shell counts points with maximal
    constraint violation in (0, eps] -- i.e. inside the offset-relaxed
    polytope but outside the polytope itself.
    """
    v = (pts @ normals.T - offsets[None, :]).max(axis=1)
    inside = int(np.count_nonzero(v <= 0.0))
    shell = int(np.count_nonzero((v > 0.0) & (v <= eps)))
    return inside, shell
