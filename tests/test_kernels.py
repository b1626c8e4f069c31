import numpy as np
import pytest

from radsurf import _kernels, bodies, construction
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


def _accept_dense64(dirs, scales, normals, base, offsets):
    """Dense float64 reference: the whole product at once, every pair
    compared (the kernel body before float32 filtering)."""
    if normals.shape[0] == 0:
        return int(dirs.shape[0])
    g = dirs @ normals.T
    ok = np.all(base[None, :] + scales[:, None] * g <= offsets[None, :], axis=1)
    return int(np.count_nonzero(ok))


def _shell_loop(pts, normals, offsets, eps):
    """Per-point reference for polytope_shell_counts."""
    shell = 0
    for p in pts:
        v = max(float(np.dot(p, x)) - o for x, o in zip(normals, offsets))
        shell += 0.0 < v <= eps
    return shell


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


def _near_boundary_workload(seed, n=400, d=256, pairs=40, gap=1e-9):
    """Samples whose fate is decided by one constraint that they meet to
    within +-gap, far below float32 resolution.

    Sample i < 2 pairs has scale s0 and constraint i has normal dirs[i], so
    every other chosen constraint is slack for it by s0 (1 - cos); the
    offset of constraint i puts sample i at base_i + s0 - offsets_i = +-gap
    (violated for even i, met for odd i).  The remaining samples and
    constraints are generic.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    s0 = 30.0
    scales = rng.uniform(0.5 * s0, 1.2 * s0, n)
    scales[:2 * pairs] = s0
    extra = rng.standard_normal((60, d))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    normals = np.vstack([dirs[:2 * pairs], extra])
    base = rng.uniform(-3.0, 3.0, normals.shape[0])
    offsets = base + 0.9 * s0
    near = np.arange(2 * pairs)
    value = base[near] + s0 * np.einsum("ij,ij->i", dirs[near], normals[near])
    sign = np.where(near % 2 == 0, 1.0, -1.0)
    offsets[near] = value - sign * gap
    return (dirs, scales, normals, base, offsets), near, sign


def _float32_sign(dirs, scales, normals, base, offsets, near):
    """Sign of base + s <a, x> - offsets on the near pairs, in float32 only."""
    g = np.einsum("ij,ij->i", dirs[near].astype(np.float32),
                  normals[near].astype(np.float32))
    c = (offsets[near] - base[near]).astype(np.float32)
    return np.sign(scales[near].astype(np.float32) * g - c)


@pytest.mark.parametrize("seed", range(3))
def test_facet_accept_count_near_boundary_matches_loop(seed):
    args, near, sign = _near_boundary_workload(seed)
    dirs, scales, normals, base, offsets = args
    # float64 resolves the +-1e-9 gaps; float32 alone gets some wrong
    g64 = np.einsum("ij,ij->i", dirs[near], normals[near])
    value = base[near] + scales[near] * g64 - offsets[near]
    assert np.array_equal(np.sign(value), sign)
    assert np.any(_float32_sign(*args, near) != sign)
    count = facet_accept_count(*args)
    assert count == _accept_loop(*args)
    assert count == _accept_dense64(*args)
    # each near sample is decided by its gap: the met ones (odd) survive
    alone = [facet_accept_count(dirs[[i]], scales[[i]], normals, base, offsets)
             for i in near]
    assert alone == list((sign < 0).astype(int))


def test_facet_accept_count_large_shape_matches_dense_float64():
    # d = 1024, k = 3000: unit neighbour normals and the non-unit rows of
    # R^T from the QR factorisation of projected normals, as facet MC builds
    rng = np.random.default_rng(21)
    n, d = 2000, 1024  # two blocks of constraints
    X = rng.standard_normal((3001, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X0 = X[0]
    P = X[1:1201] - np.outer(X[1:1201] @ X0, X0)
    R = np.linalg.qr(P.T, mode="r")  # (d, 1200)
    normals = np.vstack([X[1201:], R.T])
    assert normals.shape == (3000, d)
    norms = np.linalg.norm(normals, axis=1)
    assert np.abs(norms[:1800] - 1.0).max() < 1e-12
    assert np.abs(norms[1800:] - 1.0).max() > 1e-3
    r = 2.0
    cos = normals @ X0
    base = r * cos
    offsets = np.full(normals.shape[0], r)
    z = rng.standard_normal((n, d))
    z -= np.outer(z @ X0, X0)
    dirs = z / np.linalg.norm(z, axis=1, keepdims=True)
    scales = rng.uniform(0.0, 24.0, n)
    count = facet_accept_count(dirs, scales, normals, base, offsets)
    assert count == _accept_dense64(dirs, scales, normals, base, offsets)
    assert 0 < count < n


def test_facet_accept_count_huge_offsets():
    dirs, scales, normals, base, offsets = _workload(4, k=9)
    ref = _accept_loop(dirs, scales, normals, base, offsets)
    assert 0 < ref < dirs.shape[0]
    huge = offsets.copy()
    huge[[1, 5]] = 1e300  # finite, far beyond float32
    assert facet_accept_count(dirs, scales, normals, base, huge) \
        == _accept_dense64(dirs, scales, normals, base, huge) \
        == _accept_loop(dirs, scales, normals, base, huge)
    huge[:] = 1e300
    assert facet_accept_count(dirs, scales, normals, base, huge) \
        == dirs.shape[0]
    assert facet_accept_count(dirs, scales, normals, base, -huge) == 0


@pytest.mark.parametrize("d, subsample, samples",
                         [(1024, 2, 500), (256, 4, 2000)])
def test_facet_values_counts_match_dense_float64(get_profile, monkeypatch,
                                                 d, subsample, samples):
    # construction polytopes: at d = 1024 (N = 5007) u has all d - 1
    # in-plane coordinates and the normals are the reflected unit rows; at
    # d = 256 (N = 69) u has 68 coordinates and the normals are the
    # non-unit rows of the triangular factor
    prof = get_profile("gaussian", d)
    spec = construction.plan(prof, c_rho=1.0, seed=3)
    body = construction.sample_polytope(spec, prof)
    picked = np.arange(subsample)
    _, _, acc, att = bodies._facet_values(prof, body, samples, 9,
                                          facet_indices=picked)
    monkeypatch.setattr(_kernels, "facet_accept_count", _accept_dense64)
    _, _, ref, ref_att = bodies._facet_values(prof, body, samples, 9,
                                              facet_indices=picked)
    assert att.all() and ref_att.all()
    assert np.array_equal(acc, ref)
    assert np.all((0 < acc) & (acc < samples))


@pytest.mark.parametrize("seed", range(5))
def test_shell_counts_backends_agree(seed):
    rng = np.random.default_rng(100 + seed)
    pts = rng.standard_normal((4096, 6))
    k = 9
    normals = rng.standard_normal((k, 6))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.5, 2.0, k)
    for eps in (1e-3, 1e-2):  # the wider shell is never empty here
        shell = polytope_shell_counts(pts, normals, offsets, eps)
        assert shell == _shell_loop(pts, normals, offsets, eps)
        assert shell <= pts.shape[0]
    assert shell > 0


def test_shell_counts_manual_case():
    # cube [-1,1]^2; one point inside, one in the eps shell, one far out
    pts = np.array([[0.0, 0.0], [1.0005, 0.0], [2.0, 2.0]])
    eye = np.eye(2)
    normals = np.vstack([eye, -eye])
    offsets = np.ones(4)
    assert polytope_shell_counts(pts, normals, offsets, 1e-3) == 1
