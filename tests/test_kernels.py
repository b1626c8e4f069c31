import numpy as np
import pytest

from radsurf._kernels import facet_accept_count, polytope_shell_counts


def _workload(seed, n=2048, k=7, d=5):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scales = rng.gamma(2.0, 1.0, n)
    normals = rng.standard_normal((k, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    base = rng.uniform(-0.5, 0.5, k)
    offsets = rng.uniform(0.2, 1.5, k)
    return dirs, scales, normals, base, offsets


def _accept_loop(dirs, scales, normals, base, offsets):
    """Per-sample reference: test each constraint in turn, stop at the first
    violated one."""
    count = 0
    for u, s in zip(dirs, scales):
        count += all(b + s * float(np.dot(u, x)) <= o
                     for x, b, o in zip(normals, base, offsets))
    return count


def _shell_loop(pts, normals, offsets, eps):
    """Per-point reference for polytope_shell_counts."""
    inside = shell = 0
    for p in pts:
        v = max(float(np.dot(p, x)) - o for x, o in zip(normals, offsets))
        inside += v <= 0.0
        shell += 0.0 < v <= eps
    return inside, shell


# The reference loops are the scalar algorithm the vectorized kernels
# replace, so each seeded workload must give the same exact counts.


@pytest.mark.parametrize("seed", range(5))
def test_facet_accept_count_backends_agree(seed):
    dirs, scales, normals, base, offsets = _workload(seed)
    count = facet_accept_count(dirs, scales, normals, base, offsets)
    assert count == _accept_loop(dirs, scales, normals, base, offsets)
    assert 0 < count < dirs.shape[0]


def test_facet_accept_count_no_constraints():
    dirs, scales, _, _, _ = _workload(11)
    empty = np.zeros((0, 5))
    assert facet_accept_count(dirs, scales, empty, np.zeros(0), np.zeros(0)) \
        == dirs.shape[0]


def test_facet_accept_count_manual_case():
    # 3 samples along e0 from the origin, one constraint x0 <= 1
    dirs = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    scales = np.array([0.5, 1.0, 2.0])
    normals = np.array([[1.0, 0.0]])
    base = np.array([0.0])
    offsets = np.array([1.0])
    assert facet_accept_count(dirs, scales, normals, base, offsets) == 2


@pytest.mark.parametrize("seed", range(5))
def test_shell_counts_backends_agree(seed):
    rng = np.random.default_rng(100 + seed)
    pts = rng.standard_normal((4096, 6))
    k = 9
    normals = rng.standard_normal((k, 6))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.5, 2.0, k)
    for eps in (1e-3, 1e-2):  # the wider shell is never empty here
        counts = polytope_shell_counts(pts, normals, offsets, eps)
        assert counts == _shell_loop(pts, normals, offsets, eps)
        inside, shell = counts
        assert inside > 0 and inside + shell <= pts.shape[0]
    assert shell > 0


def test_shell_counts_manual_case():
    # cube [-1,1]^2; one point inside, one in the eps shell, one far out
    pts = np.array([[0.0, 0.0], [1.0005, 0.0], [2.0, 2.0]])
    eye = np.eye(2)
    normals = np.vstack([eye, -eye])
    offsets = np.ones(4)
    inside, shell = polytope_shell_counts(pts, normals, offsets, 1e-3)
    assert (inside, shell) == (1, 1)
