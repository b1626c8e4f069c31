import numpy as np
import pytest

from radsurf import _kernels, bodies, construction
from radsurf._kernels import (facet_accept_count, facet_chords,
                              polytope_shell_counts)

from conftest import whole_draw


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


# --- facet chords ----------------------------------------------------------


def _chords_loop(dirs, normals, base, offsets):
    """Per-sample reference: narrow [0, inf) constraint by constraint."""
    lo, hi = np.zeros(dirs.shape[0]), np.full(dirs.shape[0], np.inf)
    for r, u in enumerate(dirs):
        a, b = 0.0, np.inf
        for x, bj, oj in zip(normals, base, offsets):
            t, c = float(np.dot(u, x)), oj - bj
            if t > 0.0:
                b = min(b, c / t)
            elif t < 0.0:
                a = max(a, c / t)
            elif c < 0.0:
                b = -np.inf
        if a < b:
            lo[r], hi[r] = a, b
        else:
            lo[r] = hi[r] = 0.0
    return lo, hi


def _chords_dense64(dirs, normals, base, offsets):
    """Dense float64 reference: every (sample, constraint) ratio at once."""
    n = dirs.shape[0]
    if normals.shape[0] == 0:
        return np.zeros(n), np.full(n, np.inf)
    t = dirs @ normals.T
    c = (offsets - base)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = c / t
    hi = np.where(t > 0.0, ratio, np.inf).min(axis=1)
    lo = np.maximum(np.where(t < 0.0, ratio, 0.0).max(axis=1), 0.0)
    hi[np.any((t == 0.0) & (c < 0.0), axis=1)] = -np.inf
    empty = ~(lo < hi)
    lo[empty] = hi[empty] = 0.0
    return lo, hi


def _reflected(dirs, normals, base, offsets):
    """The kernel's arguments with the directions [dirs; -dirs], whose
    chords `facet_chords(dirs, ...)` returns."""
    return np.vstack([dirs, -dirs]), normals, base, offsets


def _stacked_dense64(dirs, normals, base, offsets, budget=None, y32=None):
    """`_chords_dense64` of [dirs; -dirs] against each set of a (k, q)
    array or an (R, k, q) stack, in `facet_chords`' order: the chords of
    dirs against every set, then those of -dirs.  The kernel's block
    budget and float32 buffer play no part in a dense product."""
    sets = normals if normals.ndim == 3 else normals[None]
    n = dirs.shape[0]
    per_set = [_chords_dense64(*_reflected(dirs, x, base, offsets))
               for x in sets]
    return tuple(np.concatenate([e[:n] for e in ends] + [e[n:] for e in ends])
                 for ends in zip(*per_set))


def _assert_same_chords(got, ref, dirs, normals, base, offsets):
    """Equal chord ends up to float64 rounding of the inner products: 1/end
    is an inner product over a slack, so compare the reciprocals within
    4 (d + 4) u' |a_r| max_j |x_j| / |c_j|."""
    d = dirs.shape[1]
    with np.errstate(divide="ignore"):
        Y = (np.linalg.norm(normals, axis=1) / np.abs(offsets - base)).max()
    tol = 4 * (d + 4) * 2.0 ** -53 * np.linalg.norm(dirs, axis=1) * Y
    for g, r in zip(got, ref):
        assert np.array_equal(g == 0.0, r == 0.0)
        assert np.array_equal(np.isinf(g), np.isinf(r))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.all((g == r) | (np.abs(1.0 / g - 1.0 / r) <= tol))


def _chord_workload(seed, n=2048, k=5, d=5):
    """`_workload` without scales and with slacks offsets - base in
    [0.2, 1.5], but -0.2 on the first constraint.  The first direction
    leans away from every normal, so its chord is unbounded above."""
    dirs, _, normals, base, offsets = _workload(seed, n, k, d)
    away = -np.linalg.pinv(normals) @ np.ones(k)
    dirs[0] = away / np.linalg.norm(away)
    offsets = base + np.abs(offsets)
    offsets[0] = base[0] - 0.2
    return dirs, normals, base, offsets


def _tiny_blocks(monkeypatch, itemsize):
    """Make every `_row_extremes` call take its rows in blocks of 3 (2 when
    3 divides them), so that a test crosses block boundaries and its last
    block is partial: the budget is set per call to that many rows of
    products of `itemsize` bytes.  A float64 product under a float32
    budget takes blocks of one row."""
    row_extremes = _kernels._row_extremes

    def tiny(dirs, sets, inv, budget, y32):
        rows = 3 if dirs.shape[0] % 3 else 2
        budget = rows * itemsize * sets.shape[0] * sets.shape[1]
        return row_extremes(dirs, sets, inv, budget, y32)

    monkeypatch.setattr(_kernels, "_row_extremes", tiny)


def _force_float32(monkeypatch):
    monkeypatch.setattr(_kernels, "_FLOAT32_MIN_D", 0)
    monkeypatch.setattr(_kernels, "_FLOAT32_MIN_K", 0)


@pytest.fixture(params=["float64", "float32", "float64-rows", "float32-rows"])
def chord_path(request, monkeypatch):
    """Runs a test on both products of the kernel: float64 (the default at
    these sizes) and the filtered float32 one, forced; each also in blocks
    of a few rows (`_tiny_blocks`)."""
    product = request.param.split("-")[0]
    if product == "float32":
        _force_float32(monkeypatch)
    if request.param.endswith("-rows"):
        _tiny_blocks(monkeypatch, 4 if product == "float32" else 8)
    return product


@pytest.mark.parametrize("seed", range(5))
def test_facet_chords_match_loop_and_dense_float64(chord_path, seed):
    # upper ends (finite or not), lower ends and empty chords all occur
    args = _chord_workload(seed)
    got = facet_chords(*args)
    both = _reflected(*args)
    _assert_same_chords(got, _chords_loop(*both), *both)
    _assert_same_chords(got, _chords_dense64(*both), *both)
    lo, hi = got
    assert np.any(np.isinf(hi)) and np.any(np.isfinite(hi) & (hi > 0.0))
    assert np.any(lo > 0.0) and np.any(hi == 0.0)


def test_facet_chords_no_constraints():
    dirs = _chord_workload(11)[0]
    lo, hi = facet_chords(dirs, np.zeros((0, 5)), np.zeros(0), np.zeros(0))
    assert np.array_equal(lo, np.zeros(2 * dirs.shape[0]))
    assert np.array_equal(hi, np.full(2 * dirs.shape[0], np.inf))


def test_facet_chords_manual_case(chord_path):
    # constraints x0 <= 1, x0 >= 0.5 (as -x0 <= -0.5), x1 <= 0 (slack 0)
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    base = np.zeros(3)
    offsets = np.array([1.0, -0.5, 0.0])
    dirs = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                     [0.0, -1.0], [1.0, -1.0], [1.0, 1.0]])
    lo, hi = facet_chords(dirs, normals, base, offsets)
    # then the reflected directions: only -(-1, 0) = (1, 0) meets x0 >= 0.5
    assert lo.tolist() == [0.5, 0.25, 0.0, 0.0, 0.0, 0.5, 0.0,
                           0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0]
    assert hi.tolist() == [1.0, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0,
                           0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def _near_tie_workload(seed, n=400, d=256, pairs=40, gap=1e-9, side=1.0):
    """Samples whose chord end is set by one of two constraints that agree
    to within a relative gap, far below float32 resolution.

    Sample i < pairs has constraints 2i and 2i + 1 with the normals e_i
    and e_i + p_i, e_i = side * dirs[i] and p_i a perpendicular of length
    1e-3 (so both read 1 along e_i, but round differently in float32), and
    slacks 1 and 1 + sign_i gap: the upper end of direction e_i is
    min(1, 1 + sign_i gap).  With side = 1 the pair sets the row maximum
    of the product, with side = -1 its row minimum (the end of the
    reflected direction -dirs[i]).  Every other chosen constraint is slack
    for it; the remaining samples and constraints are generic.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lean = rng.standard_normal((pairs, d))
    lean -= np.einsum("ij,ij->i", lean, dirs[:pairs])[:, None] * dirs[:pairs]
    lean *= 1e-3 / np.linalg.norm(lean, axis=1, keepdims=True)
    extra = rng.standard_normal((60, d))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    pair_normals = np.repeat(side * dirs[:pairs], 2, axis=0)
    pair_normals[1::2] += lean
    normals = np.vstack([pair_normals, extra])
    base = rng.uniform(-3.0, 3.0, normals.shape[0])
    offsets = base + 3.0
    sign = np.where(np.arange(pairs) % 2 == 0, 1.0, -1.0)
    offsets[0:2 * pairs:2] = base[0:2 * pairs:2] + 1.0
    offsets[1:2 * pairs:2] = base[1:2 * pairs:2] + 1.0 + sign * gap
    return (dirs, normals, base, offsets), sign


def _check_near_ties(seed, side):
    args, sign = _near_tie_workload(seed, side=side)
    dirs, normals, base, offsets = args
    pairs = sign.size
    # float32 orders some pairs wrongly: the constraint it ranks higher is
    # the one that does not set the end
    a32 = (side * dirs[:pairs]).astype(np.float32)
    x32 = normals[:2 * pairs].astype(np.float32)
    i32 = (1.0 / (offsets - base)[:2 * pairs]).astype(np.float32)
    t32 = np.einsum("ij,ij->i", np.repeat(a32, 2, axis=0), x32) * i32
    assert np.any((t32[0::2] > t32[1::2]) != (sign > 0))
    lo, hi = facet_chords(*args)
    both = _reflected(*args)
    _assert_same_chords((lo, hi), _chords_loop(*both), *both)
    _assert_same_chords((lo, hi), _chords_dense64(*both), *both)
    # the nearer constraint of each pair sets the end, to well below the gap
    want = 1.0 + np.minimum(sign * 1e-9, 0.0)
    rows = np.arange(pairs) + (0 if side > 0 else dirs.shape[0])
    assert np.all(np.abs(hi[rows] - want) < 1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_facet_chords_near_ties_match_loop(chord_path, seed):
    _check_near_ties(seed, 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_facet_chords_near_ties_at_the_row_minimum_match_loop(chord_path,
                                                              seed):
    # the reflected directions' ends come from the row minimum of the same
    # product: the float32 filter's minimum side
    _check_near_ties(seed, -1.0)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_float32_chords_in_tiny_blocks_are_the_default_block_chords(
        monkeypatch, side):
    # a block's candidates are filtered against its own rows' extremes, so
    # the blocking moves no candidate and no recheck
    _force_float32(monkeypatch)
    args, _ = _near_tie_workload(0, side=side)
    dirs, normals, base, offsets = args
    assert _kernels._chord_margins(dirs, normals, 1.0 / (offsets - base)) \
        is not None
    want = facet_chords(*args)
    _tiny_blocks(monkeypatch, 4)
    got = facet_chords(*args)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_float32_chords_with_a_reused_buffer_are_the_fresh_chords(
        monkeypatch):
    # facet MC hands the kernel one float32 buffer for all its facets; what
    # an earlier call left in it, and its extra length, change nothing
    _force_float32(monkeypatch)
    args, _ = _near_tie_workload(0, side=1.0)
    dirs, normals = args[:2]
    want = facet_chords(*args)
    y32 = np.full(normals.size + 7, np.float32(3.5))
    for _ in range(2):
        got = facet_chords(*args, y32=y32)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert not np.all(y32[:normals.size] == np.float32(3.5))


def test_chords_whose_float32_product_could_overflow_run_in_float64(
        monkeypatch):
    # one slack of 1e-31 scales its normal by 1e31, so P > 2^100 and the
    # float32 filter's error bound no longer holds: the margins are None
    # and the product runs in float64, with the bits of the float64 path
    # that the shape takes below _FLOAT32_MIN_K constraints
    n, k, d = 64, 1024, 384
    assert d >= _kernels._FLOAT32_MIN_D and k >= _kernels._FLOAT32_MIN_K
    dirs, normals, base, offsets = _chord_workload(3, n, k, d)
    base[1], offsets[1] = 0.0, 1e-31
    inv = np.divide(1.0, offsets - base, out=np.zeros(k),
                    where=offsets > base)
    assert inv.max() > 2.0 ** 100
    assert _kernels._chord_margins(dirs, normals, inv) is None
    got = facet_chords(dirs, normals, base, offsets)
    monkeypatch.setattr(_kernels, "_FLOAT32_MIN_K", k + 1)
    want = facet_chords(dirs, normals, base, offsets)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert np.any(np.isfinite(got[1]) & (got[1] > 0.0))


def test_facet_chords_large_shape_matches_dense_float64():
    # d = 1024, k = 3000 (the float32 product with its float64 recheck, in
    # several blocks of rows): unit neighbour normals and the non-unit rows
    # of R^T from the QR factorisation of projected normals, as facet MC
    # builds them
    rng = np.random.default_rng(21)
    n, d = 2000, 1024
    X = rng.standard_normal((3001, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X0 = X[0]
    P = X[1:1201] - np.outer(X[1:1201] @ X0, X0)
    R = np.linalg.qr(P.T, mode="r")  # (d, 1200)
    normals = np.vstack([X[1201:], R.T])
    assert normals.shape[0] >= _kernels._FLOAT32_MIN_K
    assert d >= _kernels._FLOAT32_MIN_D
    assert 4 * n * normals.shape[0] > _kernels._BLOCK_BYTES
    r = 2.0
    base = r * (normals @ X0)
    offsets = np.full(normals.shape[0], r)
    z = rng.standard_normal((n, d))
    z -= np.outer(z @ X0, X0)
    dirs = z / np.linalg.norm(z, axis=1, keepdims=True)
    got = facet_chords(dirs, normals, base, offsets)
    both = _reflected(dirs, normals, base, offsets)
    _assert_same_chords(got, _chords_dense64(*both), *both)
    assert np.array_equal(got[0], np.zeros(2 * n))
    assert np.all(np.isfinite(got[1]))


def test_facet_chords_huge_offsets(chord_path):
    dirs, normals, base, offsets = _chord_workload(4, k=9)
    offsets[0] = base[0] + 0.2  # every slack positive
    huge = offsets.copy()
    huge[[1, 5]] = 1e300  # finite, far beyond float32
    for offs in (huge, np.full(9, 1e300)):
        got = facet_chords(dirs, normals, base, offs)
        both = _reflected(dirs, normals, base, offs)
        _assert_same_chords(got, _chords_loop(*both), *both)
    assert np.all(got[1] > 1e299)  # one in 2^9 rows would be inf
    lo, hi = facet_chords(dirs, normals, base, np.full(9, -1e300))
    assert not lo.any() and not hi.any()  # every chord empty


def test_facet_chords_nonpositive_slack_cases(chord_path):
    # facet MC rows of a redundant facet and of a slab: the parallel
    # neighbour projects to (nearly) 0 in the facet's hyperplane
    dirs = _chord_workload(2, d=4)[0]
    tiny = np.array([[1e-17, 0.0, -1e-17, 0.0]])
    zero = np.zeros((1, 4))
    for normals in (tiny, zero):
        # seen from the outer facet at 1.0, the inner one at 0.5 cuts the
        # whole hyperplane: every chord is empty or starts past 1e16, where
        # no radius table reaches
        lo, hi = facet_chords(dirs, normals, np.array([1.0]), np.array([0.5]))
        assert np.all((hi == 0.0) | (lo > 1e16))
        assert not hi.any() if normals is zero else lo.any()
        # the inner facet sees the outer one (slab: the opposite side) as
        # no constraint at all
        lo, hi = facet_chords(dirs, normals, np.array([0.5]), np.array([1.0]))
        assert not lo.any() and np.all(hi > 1e16)
    # zero slack: empty where the neighbour's normal leans forward
    normals = np.array([[0.0, 1.0, 0.0, 0.0]])
    lo, hi = facet_chords(dirs, normals, np.zeros(1), np.zeros(1))
    both = np.vstack([dirs, -dirs])
    assert np.array_equal(hi == 0.0, both[:, 1] > 0.0)
    assert np.all(np.isinf(hi[both[:, 1] < 0.0])) and not lo.any()


def test_facet_chords_of_a_stack_of_one_set_are_the_unstacked_chords(
        chord_path):
    # every slack positive, and one negative: the filtered (or float64)
    # product and the dense branch both take a (1, k, q) stack as (k, q)
    for offsets_first in (0.2, -0.2):
        dirs, normals, base, offsets = _chord_workload(6, k=9)
        offsets[0] = base[0] + offsets_first
        want = facet_chords(dirs, normals, base, offsets)
        got = facet_chords(dirs, normals[None], base, offsets)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _facet_arguments(X, rho):
    """facet_chords' normals, base and offsets for facet 0 of the polytope
    {<x, X_j> <= rho_j}, as facet MC builds them."""
    Xx = X @ X[0]
    normals = bodies._gram_factor(bodies._hyperplane_coordinates(X, 0, Xx))
    return normals, rho[0] * Xx[1:], rho[1:]


@pytest.mark.parametrize("case", ["positive", "nonpositive", "q = d-1"])
def test_facet_chords_of_rotated_normals_are_those_of_rotated_directions(
        case):
    # <theta Q, x> = <theta, x Q^T>, and the chord of rho v is the chord of
    # v divided by rho: the stack of rotated normals, divided by the radii,
    # gives the chords of the directions rho theta Q_k themselves
    rng = np.random.default_rng(8)
    d, N = (6, 10) if case == "q = d-1" else (12, 8)
    X = rng.standard_normal((N, d))
    rho = np.full(N, 1.5)
    if case == "nonpositive":
        # a near-parallel neighbour nearer the origin: c_1 < 0
        X[1] = X[0] + 1e-2 * rng.standard_normal(d)
        rho[0], rho[1] = 2.0, 0.5
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    normals, base, offsets = _facet_arguments(X, rho)
    q = normals.shape[1]
    assert ((offsets - base).min() < 0.0) == (case == "nonpositive")
    n = 3000
    theta, sets, radii = whole_draw(np.random.default_rng(9), n, normals, d - 1)
    # the same draw with normals I gives the rotations: Q_b^T = I Q_b^T
    eyes = bodies._facet_draw(np.random.default_rng(9), n, np.eye(q), d - 1)[0]
    rotations = eyes.swapaxes(1, 2)
    assert sets.ndim == 3 and np.isscalar(radii) == (case == "q = d-1")
    assert np.array_equal(sets, normals @ eyes)
    lo, hi = (e.reshape(2, -1) for e in facet_chords(theta, sets, base, offsets))
    # set-major, as the chords come: theta Q_b for every b in turn
    u = np.concatenate(list(theta @ rotations))
    radii = np.broadcast_to(radii, (theta.shape[0], sets.shape[0])).T.ravel()
    lo, hi = lo / radii, hi / radii
    u *= radii[:, None]
    want = (e.reshape(2, -1) for e in facet_chords(u, normals, base, offsets))
    for g, w in zip((lo, hi), want):
        assert np.array_equal(g == 0.0, w == 0.0)
        assert np.array_equal(np.isinf(g), np.isinf(w))
        assert np.allclose(g, w, rtol=1e-12, atol=0.0)
    assert np.any(lo > 0.0) == (case == "nonpositive")
    assert np.any(np.isfinite(hi) & (hi > 0.0))


@pytest.mark.parametrize("d, subsample, samples",
                         [(1024, 2, 500), (256, 4, 2000)])
def test_facet_values_counts_match_dense_float64(get_profile, monkeypatch,
                                                 d, subsample, samples):
    # construction polytopes: at d = 1024 (N = 5007) u has all d - 1
    # in-plane coordinates, the normals are the reflected unit rows and
    # the kernel takes its float32 product; at d = 256 (N = 69) u has 68
    # coordinates, the normals are the non-unit rows of the triangular
    # factor and the kernel gets them as a stack of rotated sets.  The
    # weights F(hi) - F(lo) equal those of dense float64 chords of the
    # directions and their reflections up to the rounding of the chord
    # ends.
    prof = get_profile("gaussian", d)
    spec = construction.plan(prof, c_rho=1.0, seed=3)
    body = construction.sample_polytope(spec, prof)
    picked = np.arange(subsample)
    val, err, acc, att = bodies._facet_values(prof, body, samples, 9,
                                              facet_indices=picked)
    monkeypatch.setattr(_kernels, "facet_chords", _stacked_dense64)
    rval, rerr, ref, ref_att = bodies._facet_values(prof, body, samples, 9,
                                                    facet_indices=picked)
    assert att.all() and ref_att.all()
    for got, want in ((acc, ref), (val, rval), (err, rerr)):
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
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
