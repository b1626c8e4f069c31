import collections
import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from radsurf import _kernels, bodies
from radsurf.errors import InputError, NumericsError, QuadratureError
from radsurf.bodies import (
    Ball,
    CubeCheck,
    HalfSpace,
    HyperRectangle,
    Polytope,
    Slab,
    SphereShell,
    SurfaceEstimate,
    _InverseCdfTable,
    _facet_table,
    _facet_values,
    _gram_factor,
    _hyperplane_coordinates,
    _radial_table,
    _sphere_coordinates,
    as_facets,
    cube_lebesgue_check,
    halfspace_surface,
    minkowski_fd_surface,
    polytope_surface_mc,
    sample_points,
    slab_surface,
    sphere_argmax,
    sphere_surface,
)
from radsurf.functionals import _REL_TOL, _radial_law, log_ball_volume, profile
from radsurf.potential import ball, shell, tabulated

from conftest import MEASURE_NAMES, circumscribed_polytope, whole_draw


# --- exact formulas --------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 10, 50])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 2.0])
def test_gaussian_halfspace_is_marginal_density(d, rho, get_profile):
    # the gaussian boundary value of a half-space at offset rho is the 1-d
    # marginal density exp(-rho^2/2)/sqrt(2 pi), independent of dimension
    est = halfspace_surface(get_profile("gaussian", d), rho)
    assert est.method == "exact" and est.std_error == 0.0
    expected = math.exp(-rho * rho / 2.0) / math.sqrt(2 * math.pi)
    assert est.value == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("d", [3, 5, 12])
@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9])
def test_ball_halfspace_closed_form(d, rho, get_profile):
    m = d - 1
    expected = math.exp(log_ball_volume(d - 1) - log_ball_volume(d)) * (
        1.0 - rho * rho
    ) ** (m / 2.0)
    est = halfspace_surface(get_profile("ball", d), rho)
    assert est.value == pytest.approx(expected, rel=1e-9)


def test_ball_halfspace_where_the_support_edge_rounds_outward():
    # hypot(rho, sqrt(R^2 - rho^2)) > R for these offsets: the peak of the
    # facet integrand sits on that edge and must take the left limit
    R, d = 0.7, 5
    pr = profile(ball(R), d)
    rhos = [r for r in np.linspace(0.01, 0.69, 200)
            if math.hypot(r, math.sqrt(R * R - r * r)) > R]
    assert len(rhos) >= 3
    for rho in rhos[:3]:
        expected = math.exp(log_ball_volume(d - 1) - log_ball_volume(d)) * (
            1.0 - (rho / R) ** 2) ** ((d - 1) / 2.0) / R
        assert halfspace_surface(pr, rho).value == pytest.approx(
            expected, rel=1e-9)


def test_ball_halfspace_d3_is_three_quarters(get_profile):
    est = halfspace_surface(get_profile("ball", 3), 0.0)
    assert est.value == pytest.approx(0.75, rel=1e-10)


@pytest.mark.parametrize("rho, expected", [
    (0.0, 0.335063038088), (0.5, 0.394348845540), (0.95, 1.046234001099)])
def test_shell_halfspace_in_the_plane_is_the_chord_over_the_annulus(rho,
                                                                    expected):
    # uniform on the annulus 0.9 <= |x| <= 1 in R^2: the boundary measure of
    # {x_0 <= rho} is the length of the line x_0 = rho inside the annulus
    # over its area.  I_0(rho) has no finite value at s = 0 while the line
    # crosses the hole (rho < 0.9), so its law peaks mid-annulus
    R, eps = 1.0, 0.1
    pr = profile(shell(R, eps, allow_non_logconcave=True), 2)
    closed = 2.0 * (math.sqrt(R * R - rho * rho)
                    - math.sqrt(max((R - eps) ** 2 - rho * rho, 0.0))) / (
        math.pi * (R * R - (R - eps) ** 2))
    assert closed == pytest.approx(expected, abs=1e-12)
    assert halfspace_surface(pr, rho).value == pytest.approx(closed, rel=1e-12)


def test_halfspace_outside_support_is_zero(get_profile):
    est = halfspace_surface(get_profile("ball", 4), 1.5)
    assert est.value == 0.0


@pytest.mark.parametrize("name, d, rho", [
    ("gaussian", 3, 1e4), ("gaussian", 3, 1e6), ("gaussian", 64, 1e4),
    ("gaussian", 64, 1e6), ("gp4", 8, 100.0),
])
def test_halfspace_far_in_the_tail_is_zero(get_profile, name, d, rho):
    # the value underflows; a quadrature there would meet the rounding of
    # phi(rho), far above its target, and raise
    assert halfspace_surface(get_profile(name, d), rho).value == 0.0


@pytest.mark.parametrize("d", [3, 7, 33])
def test_ball_unit_sphere_surface_is_d(d, get_profile):
    # equality case of the rough bound m J_{m-1} / J_m
    assert sphere_surface(get_profile("ball", d), 1.0).value == pytest.approx(
        d, rel=1e-12
    )


@pytest.mark.parametrize("d", [2, 6, 20])
def test_gaussian_sphere_closed_form(d, get_profile):
    pr = get_profile("gaussian", d)
    m = d - 1
    for R in (0.5, 1.0, pr.t0, 2.5):
        log_jm = 0.5 * (m - 1) * math.log(2.0) + math.lgamma(0.5 * (m + 1))
        expected = math.exp(m * math.log(R) - R * R / 2 - log_jm)
        assert sphere_surface(pr, R).value == pytest.approx(expected, rel=1e-10)


def test_sphere_outside_support_warns_and_returns_zero(get_profile):
    with pytest.warns(UserWarning):
        est = sphere_surface(get_profile("ball", 5), 2.0)
    assert est.value == 0.0


def test_sphere_rejects_nonpositive_radius(get_profile):
    with pytest.raises(InputError):
        sphere_surface(get_profile("gaussian", 3), 0.0)


@pytest.mark.parametrize("name", MEASURE_NAMES)
def test_sphere_argmax_matches_t0(name, get_profile):
    pr = get_profile(name, 9)
    assert sphere_argmax(pr) == pytest.approx(pr.t0, rel=1e-6)


def test_slab_is_sum_of_halfspaces(get_profile):
    pr = get_profile("gp4", 6)
    s = slab_surface(pr, 0.4, 1.1)
    expected = halfspace_surface(pr, 0.4).value + halfspace_surface(pr, 1.1).value
    assert s.value == pytest.approx(expected, rel=1e-12)


def test_halfspace_rejects_negative_offset(get_profile):
    with pytest.raises(InputError):
        halfspace_surface(get_profile("gaussian", 3), -0.5)


def test_exact_formulas_reject_non_finite_input(get_profile):
    pr = get_profile("gaussian", 5)
    with pytest.raises(InputError):
        sphere_surface(pr, math.inf)  # was an "exact" nan
    with pytest.raises(InputError):
        sphere_surface(pr, math.nan)
    with pytest.raises(InputError):
        halfspace_surface(pr, math.nan)  # was a QuadratureError
    # a plane at infinity misses the support; slab:rho2=inf relies on it
    assert halfspace_surface(pr, math.inf).value == 0.0


# --- body validation -------------------------------------------------------


def test_body_validation_gates():
    with pytest.raises(InputError):
        SphereShell(0.0)
    with pytest.raises(InputError):
        Ball(-1.0)
    with pytest.raises(InputError):
        HalfSpace(direction=[1.0, 1.0], offset=0.5)  # not unit length
    with pytest.raises(InputError):
        HalfSpace(direction=[1.0, 0.0], offset=-0.1)
    with pytest.raises(InputError, match="half-space direction must be finite"):
        HalfSpace(direction=[math.nan, 0.0, 0.0], offset=1.0)
    with pytest.raises(InputError):
        Slab(direction=[0.0, 1.0], rho1=-1.0, rho2=0.5)  # empty
    with pytest.raises(InputError):
        Polytope(directions=[[1.0, 0.0]], offsets=[0.0])  # offset not > 0
    with pytest.raises(InputError):
        Polytope(directions=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0])
    with pytest.raises(InputError):
        HyperRectangle(half_widths=[1.0, -1.0])
    p = Polytope(directions=[[0.6, 0.8], [0.0, 1.0]], offsets=[1.0, 2.0])
    assert p.n_facets == 2 and p.dim == 2


def test_slab_with_a_nan_offset_says_so(get_profile):
    # nan fails -rho1 < rho2 too; the message names the nan, not emptiness
    pr = get_profile("gaussian", 3)
    for rho1, rho2 in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(InputError, match="slab offset is not a number"):
            Slab(direction=[1.0, 0.0, 0.0], rho1=rho1, rho2=rho2)
        with pytest.raises(InputError, match="slab offset is not a number"):
            slab_surface(pr, rho1, rho2)
    # infinite offsets stay accepted: an open side
    assert slab_surface(pr, 0.5, math.inf).value == \
        halfspace_surface(pr, 0.5).value
    Slab(direction=[1.0, 0.0, 0.0], rho1=math.inf, rho2=math.inf)


def test_polytope_with_a_nan_offset_says_so():
    with pytest.raises(InputError, match="polytope offset is not a number"):
        Polytope(directions=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, math.nan])


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_polytope_with_an_infinite_offset_says_so(bad):
    # not "strictly positive": +inf is positive, and -inf is named the same
    with pytest.raises(InputError, match="polytope offsets must be finite"):
        Polytope(directions=[[1.0, 0.0], [0.0, 1.0]], offsets=[bad, 1.0])


def test_polytope_with_a_zero_offset_says_so():
    with pytest.raises(InputError, match="polytope offsets must be strictly positive"):
        Polytope(directions=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 0.0])


def test_surface_estimate_gates():
    with pytest.raises(InputError):
        SurfaceEstimate(1.0, 0.1, "exact", 0)
    with pytest.raises(InputError):
        SurfaceEstimate(1.0, 0.0, "magic", 0)


# --- sampling --------------------------------------------------------------


def test_ball_sampler_radial_distribution(get_profile):
    pr = get_profile("ball", 5)
    pts = sample_points(pr, 100_000, seed=7)
    r = np.linalg.norm(pts, axis=1)
    # uniform ball: P(|X| <= x) = x^d
    res = stats.kstest(r, lambda x: np.clip(x, 0, 1) ** 5)
    assert res.statistic < 1.63 / math.sqrt(len(r))  # alpha = 0.01


def test_gaussian_sampler_radial_distribution(get_profile):
    pr = get_profile("gaussian", 8)
    pts = sample_points(pr, 100_000, seed=11)
    r = np.linalg.norm(pts, axis=1)
    res = stats.kstest(r, stats.chi(df=8).cdf)
    assert res.statistic < 1.63 / math.sqrt(len(r))


def test_sampler_isotropy(get_profile):
    pr = get_profile("gp1", 4)
    n = 200_000
    pts = sample_points(pr, n, seed=3)
    second = pr.variance + pr.expectation**2
    tol = 4.0 * math.sqrt(second / (n * pr.d))
    assert np.all(np.abs(pts.mean(axis=0)) < tol)


def test_sampler_determinism(get_profile):
    pr = get_profile("table", 4)
    a = sample_points(pr, 5000, seed=42)
    b = sample_points(pr, 5000, seed=42)
    c = sample_points(pr, 5000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("k", [3, 7, 8, 12])  # k < d-1, k = d-1, k > d-1
@pytest.mark.parametrize("x_kind", ["generic", "+e0", "-e0", "x0=0"])
def test_hyperplane_coordinates_keep_the_projected_gram_matrix(k, x_kind):
    d = 9
    rng = np.random.default_rng(k)
    x = {"generic": _unit(rng.standard_normal(d)),
         "+e0": np.eye(d)[0], "-e0": -np.eye(d)[0],
         "x0=0": _unit(np.concatenate(([0.0], rng.standard_normal(d - 1))))}[x_kind]
    A = rng.standard_normal((k, d))
    P = A - np.outer(A @ x, x)  # the rows projected into x^perp
    out = np.full((k, d - 1), np.nan)
    for i in (0, k // 2, k):  # x first, among the other rows, last
        X = np.insert(A, i, x, axis=0)
        H = _hyperplane_coordinates(X, i, X @ x)
        assert H.shape == (k, d - 1)
        F = _gram_factor(H)
        assert F.shape == (k, min(k, d - 1))
        assert np.abs(H @ H.T - P @ P.T).max() < 1e-12
        assert np.abs(F @ F.T - P @ P.T).max() < 1e-12
        # the buffer form writes the same rows, whatever it held before
        assert _hyperplane_coordinates(X, i, X @ x, out=out) is out
        assert np.array_equal(out, H)


def test_sphere_coordinates_of_a_full_vector_draw_no_chi2():
    n, m = 1000, 6
    rng, ref = bodies._rng(3), bodies._rng(3)
    w = _sphere_coordinates(rng, n, m, m)
    g = ref.standard_normal((n, m))
    assert np.abs(np.linalg.norm(w, axis=1) - 1.0).max() < 1e-12
    assert np.allclose(w, g / np.linalg.norm(g, axis=1)[:, None], rtol=1e-15)
    # nothing more was drawn: both streams continue alike
    assert rng.random() == ref.random()
    # k < m completes |w| with a chi^2 draw, so rows are shorter than 1
    w = _sphere_coordinates(rng, n, m - 1, m)
    assert np.all(np.linalg.norm(w, axis=1) < 1.0)


@pytest.mark.parametrize("n, q, m", [
    (500, 1, 1), (500, 1, 6),
    (500, bodies._ROTATE_MAX_Q + 1, bodies._ROTATE_MAX_Q + 1),
    (500, bodies._ROTATE_MAX_Q + 1, 2 * bodies._ROTATE_MAX_Q),
])
def test_rotated_coordinates_without_rotation_are_the_sphere_draw(n, q, m):
    # q <= 1 and q > _ROTATE_MAX_Q: one set, the normals themselves, and no
    # rotation.  At q = m the directions are the plain sphere draw, bit for
    # bit; at q < m the draw takes the chi^2_(m-q) lengths Y first, then g,
    # and the radius sqrt(|g_r|^2 / (|g_r|^2 + Y_r)) times the unit row
    # g_r / |g_r| is the plain law g_r / sqrt(|g_r|^2 + Y_r)
    rng, ref = bodies._rng(7), bodies._rng(7)
    normals = np.eye(q)
    draw = bodies._facet_draw(rng, n, normals, m)
    sets, rows, lengths = draw
    assert sets.shape == (1, q, q) and np.array_equal(sets[0], normals)
    assert rows == n
    [(got, got_sets, radii, out)] = bodies._direction_blocks(
        rng, np.empty(n), n, m, draw)
    assert got_sets is sets and out.shape == (1, n)
    if q == m:
        assert lengths is None and radii == 1.0
        want = _sphere_coordinates(ref, n, q, m)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    else:
        Y = ref.chisquare(m - q, (n, 1))
        assert np.array_equal(lengths[0], Y) and lengths[1].shape == (n, 0)
        g = ref.standard_normal((n, q))
        sq = np.einsum("ij,ij->i", g, g)
        assert np.array_equal(got, g / np.sqrt(sq)[:, None])
        assert np.allclose(radii.T * got, g / np.sqrt(sq + Y[:, 0])[:, None],
                           rtol=1e-14, atol=0.0)
    assert rng.random() == ref.random()


def _rotated_blocks(q, m, n=4000, blocks=200):
    """(u, first, rotated) per block from independent streams: the n
    directions that facet MC scores, rebuilt from the draw as the first n
    of radii[r, b] theta_r Q_b in (r, b) row-major order, and, over the
    base rows r whose B directions are all scored, the unit directions
    theta_r Q_1 and theta_r Q_b for every b > 1."""
    for blk in range(blocks):
        # with normals I the sets are the Q_b^T
        theta, sets, radii = whole_draw(bodies._rng(blk), n, np.eye(q), m)
        B = sets.shape[0]
        n0 = -(-n // B)
        assert B > 1 and theta.shape == (n0, q) and sets.shape == (B, q, q)
        dirs = (theta @ sets.swapaxes(1, 2)).swapaxes(0, 1)  # [r, b]
        u = (dirs * np.broadcast_to(radii, (n0, B))[..., None]).reshape(-1, q)
        yield u[:n], dirs[:n0 - 1, 0], dirs[:n0 - 1, 1:].swapaxes(0, 1)


def _within(stats_per_block, truth, nsigma=5.0):
    """The blocks' mean within nsigma of truth, elementwise, with the
    standard error from the spread across the independent blocks."""
    a = np.asarray(stats_per_block)
    mean = a.mean(axis=0)
    se = a.std(axis=0, ddof=1) / math.sqrt(a.shape[0])
    return np.all(np.abs(mean - truth) <= nsigma * se)


@pytest.mark.parametrize("q, m", [
    (bodies._RQMC_MAX_Q + 1, bodies._RQMC_MAX_Q + 1), (5, 9)])
def test_rotated_block_is_isotropic_and_pairwise_independent(q, m):
    # E[u u^T] = I E|u|^2 / q, with E|u|^2 = q / m; for a base row under
    # two rotations <theta Q_1, theta Q_b> has mean 0 and mean square
    # 1 / q.  Rows that are pairwise independent make the variance of a
    # block's mean var / n, whatever the higher-order dependence: rows
    # that shared one rotation or one theta would inflate it up to B-fold.
    n = 4000
    second, dots, squares, means, variances = [], [], [], [], []
    for u, theta, rotated in _rotated_blocks(q, m, n):
        second.append(u.T @ u / n)
        c = np.einsum("ij,kij->ki", theta, rotated)
        dots.append(c.mean())
        squares.append((c * c).mean())
        means.append(u[:, 0].mean())
        variances.append(u[:, 0].var(ddof=1))
    assert _within(second, np.eye(q) / m)
    assert _within(dots, 0.0)
    assert _within(squares, 1.0 / q)
    ratio = np.var(means, ddof=1) / (np.mean(variances) / n)
    assert 0.5 <= ratio <= 1.5  # 5 sigma for a variance of 200 blocks


def _gaussian_box_surface(h):
    """The closed-form Gaussian surface of the box with half-widths h."""
    mass = 2.0 * stats.norm.cdf(h) - 1.0
    return sum(2.0 * stats.norm.pdf(h[j]) * np.prod(np.delete(mass, j))
               for j in range(h.size))


@pytest.mark.parametrize("d", [8, 16, bodies._RQMC_MAX_Q + 2])
def test_facet_mc_matches_the_gaussian_box_with_rotations(d, get_profile):
    # d = 8 and 16 score RQMC directions, d = _RQMC_MAX_Q + 2 rotated rows
    pr = get_profile("gaussian", d)
    h = np.linspace(0.6, 1.6, d) * pr.t0 / math.sqrt(d)
    S = 20_000
    sets = bodies._facet_draw(bodies._rng(0), S, np.eye(d - 1), d - 1)[0]
    assert sets.shape[0] > 1
    exact = _gaussian_box_surface(h)
    est = polytope_surface_mc(pr, HyperRectangle(h), S, seed=5)
    assert abs(est.value - exact) <= 4.0 * est.std_error


# --- inverse-CDF tables ----------------------------------------------------


_MAX_KNOTS = 1 << 16  # _InverseCdfTable's default cap


@pytest.mark.parametrize("d", [3, 16])
@pytest.mark.parametrize("phi", [
    ball(1.0),
    tabulated([0.5, 1.0, 1.5, 2.0], [0.1, 0.4, 1.0, 1.9], "cutoff"),
], ids=["ball", "cutoff-table"])
def test_cutoff_tables_converge_below_the_knot_cap(phi, d):
    pr = profile(phi, d)
    tables = [_radial_table(pr)] + [
        _facet_table(_radial_law(pr.phi, pr.m - 1, f * pr.t0))
        for f in (0.0, 0.35, 0.9)]
    for table in tables:
        assert table.grid.size - 1 < _MAX_KNOTS


def test_ball_facet_cdf_matches_closed_form(get_profile):
    # on the ball the facet density is s^(m-1) up to the support edge, so
    # on the table window [a, b] the CDF is (s^m - a^m) / (b^m - a^m)
    pr = get_profile("ball", 16)
    m = pr.m
    table = _facet_table(_radial_law(pr.phi, m - 1, 0.35 * pr.t0))
    a, b = table.grid[0], table.grid[-1]
    assert b == pytest.approx(math.sqrt(1.0 - 0.35 ** 2), rel=1e-15)
    s = np.linspace(a, b, 10_001)
    exact = (s ** m - a ** m) / (b ** m - a ** m)
    assert np.abs(table.cdf_at(s) - exact).max() < 1e-6


@pytest.mark.parametrize("d", [3, 64])
@pytest.mark.parametrize("name", MEASURE_NAMES)
def test_cdf_at_is_np_interp_bit_for_bit(name, d, get_profile):
    # the knot interval comes from index arithmetic on the uniform grid;
    # the values must be np.interp's, at and around every knot, outside
    # the window and at 0 and inf, without a warning (no 0 * inf)
    pr = get_profile(name, d)
    table = _facet_table(_radial_law(pr.phi, pr.m - 1, 0.35 * pr.t0))
    g = table.grid
    t = np.concatenate([
        g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),
        [0.0, math.inf, g[0] - 1.0, 0.5 * g[0], g[-1] + 1.0, 2.0 * g[-1]],
        np.random.default_rng(7).uniform(g[0], g[-1], 10_000),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table.cdf_at(t)
    want = np.interp(t, g, table.cdf)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_table_with_a_jump_inside_its_window_raises():
    # the midpoint error at a density jump only halves per doubling, so
    # refinement hits the knot cap before the tolerance
    with pytest.raises(NumericsError, match="midpoint CDF error"):
        _InverseCdfTable(lambda t: np.where(t < 0.3, 0.0, -1.0),
                         0.0, 1.0, 0.0)


# --- facet Monte Carlo -----------------------------------------------------


def test_as_facets_covers_every_facet_body():
    e = np.array([0.0, 1.0, 0.0])
    dirs, offs = as_facets(HalfSpace(e, 0.0))  # origin on the boundary
    assert np.array_equal(dirs, [e]) and np.array_equal(offs, [0.0])
    dirs, offs = as_facets(Slab(e, 0.4, 0.9))
    assert np.array_equal(dirs, [e, -e]) and np.array_equal(offs, [0.9, 0.4])
    dirs, offs = as_facets(Slab(e, -0.2, 0.9))  # origin outside
    assert np.array_equal(dirs, [e, -e]) and np.array_equal(offs, [0.9, -0.2])
    dirs, offs = as_facets(HyperRectangle([0.5, 1.0, 2.0]))
    eye = np.eye(3)
    assert np.array_equal(dirs, np.vstack([eye, -eye]))
    assert np.array_equal(offs, [0.5, 1.0, 2.0, 0.5, 1.0, 2.0])
    poly = Polytope(directions=[e], offsets=[0.7])
    dirs, offs = as_facets(poly)
    assert dirs is poly.directions and offs is poly.offsets
    for body in (Ball(1.0), SphereShell(1.0)):
        with pytest.raises(InputError):
            as_facets(body)


def test_box_mc_equals_box_as_polytope(get_profile):
    pr = get_profile("gaussian", 3)
    h = np.array([0.6, 1.0, 1.4])
    box = polytope_surface_mc(pr, HyperRectangle(h), 2000, seed=4)
    eye = np.eye(3)
    poly = Polytope(np.vstack([eye, -eye]), np.concatenate([h, h]))
    assert box == polytope_surface_mc(pr, poly, 2000, seed=4)


def test_a_facet_far_in_the_tail_adds_nothing(get_profile):
    # a redundant facet whose half-space value underflows is skipped, as a
    # facet outside the support is; the box's facets keep their streams
    pr = get_profile("gaussian", 3)
    box = HyperRectangle(np.ones(3))
    X, rho = as_facets(box)
    far = Polytope(np.vstack([X, np.eye(3)[:1]]), np.append(rho, 1e4))
    assert (polytope_surface_mc(pr, far, 1000, seed=1)
            == polytope_surface_mc(pr, box, 1000, seed=1))


def test_mc_rejects_a_repeated_facet_row(get_profile):
    # both copies of a repeated row accept the whole face, so it would be
    # scored twice: 0.7896 for this box, whose surface is 0.6767
    pr = get_profile("gaussian", 3)
    box = HyperRectangle(np.ones(3))
    X, rho = as_facets(box)
    twice = Polytope(np.vstack([X, X[:1]]), np.append(rho, rho[0]))
    with pytest.raises(InputError, match="rows 0 and 6"):
        polytope_surface_mc(pr, twice, 20_000, seed=1)
    with pytest.raises(InputError, match="rows 0 and 6"):
        _facet_values(pr, twice, 100, 1, facet_indices=[6])
    # facets other than the copies still run, on their own streams
    subset = _facet_values(pr, twice, 100, 1, facet_indices=[1, 2])
    assert np.array_equal(subset[0], _facet_values(pr, box, 100, 1,
                                                   facet_indices=[1, 2])[0])
    # a parallel row at another offset is a redundant facet, not a repeat
    parallel = Polytope(np.vstack([X, X[:1]]), np.append(rho, 2.0))
    est = polytope_surface_mc(pr, parallel, 20_000, seed=1)
    assert est.value == polytope_surface_mc(pr, box, 20_000, seed=1).value


def _with_rows(box, rows, offsets):
    X, rho = as_facets(box)
    return Polytope(np.vstack([X, *rows]), np.append(rho, offsets))


def test_mc_rejects_a_row_that_repeats_another_to_rounding(get_profile):
    # (1, 1 + 1e-15, 0) normalised is (1, 1, 0)/sqrt(2) to rounding; scored
    # as a second facet it read 0.68769 +- 0.00040 for a body of 0.66353
    pr = get_profile("gaussian", 3)
    box = HyperRectangle(np.ones(3))
    diag = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    near = np.array([1.0, 1.0 + 1e-15, 0.0])
    near /= np.linalg.norm(near)
    # a row the unit gate passes 5e-13 short of unit length read 0.71674
    for row, offset in ((near, 1.0), (diag * (1.0 - 5e-13), 1.0),
                        (diag, 1.0 + 1e-13)):
        with pytest.raises(InputError, match="rows 6 and 7 are the same"):
            polytope_surface_mc(pr, _with_rows(box, [diag, row], [1.0, offset]),
                                2000, seed=1)
    one = polytope_surface_mc(pr, _with_rows(box, [diag], [1.0]), 20_000, seed=1)
    # a row 1e-4 rad away is a facet of its own, which takes half the face
    turn = math.pi / 4.0 + 1e-4
    tilted = np.array([math.cos(turn), math.sin(turn), 0.0])
    two = polytope_surface_mc(pr, _with_rows(box, [diag, tilted], [1.0, 1.0]),
                              20_000, seed=1)
    assert abs(two.value - one.value) <= 4.0 * math.hypot(one.std_error,
                                                          two.std_error)
    # a parallel row 1e-11 further out is a redundant facet
    outer = _with_rows(box, [diag, diag], [1.0, 1.0 + 1e-11])
    assert polytope_surface_mc(pr, outer, 20_000, seed=1).value == one.value


def test_mc_checks_the_dimension_and_the_sample_count(get_profile):
    pr = get_profile("gaussian", 3)
    with pytest.raises(InputError, match=r"R\^4, measure in R\^3"):
        polytope_surface_mc(pr, HyperRectangle(np.ones(4)), 100, seed=1)
    with pytest.raises(InputError, match="samples_per_facet must be >= 1"):
        polytope_surface_mc(pr, HyperRectangle(np.ones(3)), 0, seed=1)


def test_single_facet_polytope_equals_halfspace(get_profile):
    pr = get_profile("gaussian", 4)
    body = Polytope(directions=[[0.0, 1.0, 0.0, 0.0]], offsets=[0.8])
    est = polytope_surface_mc(pr, body, samples_per_facet=2000, seed=5)
    exact = halfspace_surface(pr, 0.8).value
    assert est.method == "facet-mc"
    assert est.value == pytest.approx(exact, rel=1e-12)
    assert est.std_error == 0.0  # acceptance is exactly 1


def test_opposing_facets_match_slab(get_profile):
    pr = get_profile("gp4", 3)
    e = [1.0, 0.0, 0.0]
    body = Polytope(directions=[e, [-1.0, 0.0, 0.0]], offsets=[0.9, 0.4])
    est = polytope_surface_mc(pr, body, samples_per_facet=2000, seed=5)
    exact = slab_surface(pr, 0.4, 0.9).value
    assert est.value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("name", ["gaussian", "table"])
def test_facet_mc_matches_slab_off_the_origin(name, get_profile):
    # the slab {1 <= x_0 <= 2} misses the origin: each facet reads its
    # offset through rho^2 (the law at |rho|) and the signed products
    # rho <X_i, X_j>, and both chords are the whole hyperplane
    pr = get_profile(name, 3)
    slab = Slab(direction=[1.0, 0.0, 0.0], rho1=-1.0, rho2=2.0)
    est = polytope_surface_mc(pr, slab, samples_per_facet=2000, seed=5)
    assert est.value == pytest.approx(slab_surface(pr, -1.0, 2.0).value,
                                      rel=1e-12)
    assert est.std_error == 0.0


def test_redundant_facet_contributes_nothing(get_profile):
    pr = get_profile("gaussian", 3)
    e = [1.0, 0.0, 0.0]
    body = Polytope(directions=[e, e], offsets=[0.5, 1.0])
    est = polytope_surface_mc(pr, body, samples_per_facet=4000, seed=2)
    assert est.value == pytest.approx(halfspace_surface(pr, 0.5).value, rel=1e-12)


def test_facet_mc_determinism_and_seed_sensitivity(get_profile):
    pr = get_profile("gaussian", 6)
    body = circumscribed_polytope(6, 1.8, 10, seed=99)
    a = polytope_surface_mc(pr, body, samples_per_facet=3000, seed=21)
    b = polytope_surface_mc(pr, body, samples_per_facet=3000, seed=21)
    c = polytope_surface_mc(pr, body, samples_per_facet=3000, seed=22)
    assert (a.value, a.std_error) == (b.value, b.std_error)
    assert a.value != c.value


def test_facet_values_subset_reproduces_full_run(get_profile):
    # per-facet RNG streams: evaluating a subset must reproduce the same
    # numbers as the corresponding entries of the full evaluation
    pr = get_profile("gaussian", 5)
    body = circumscribed_polytope(5, 1.5, 8, seed=17)
    full = _facet_values(pr, body, 1000, seed=9)
    sub = _facet_values(pr, body, 1000, seed=9, facet_indices=[2, 5, 6])
    assert np.array_equal(full[0][[2, 5, 6]], sub[0])
    assert np.array_equal(full[2][[2, 5, 6]], sub[2])


def test_facet_values_keep_one_table_per_distinct_offset(get_profile,
                                                        monkeypatch):
    # the box's offsets a, b, a, c repeat, but not next to each other: the
    # facets run in order of |rho|, so each distinct offset gets one law,
    # each table is freed before the next one is built, and every value is
    # the facet's own, bit for bit
    pr = get_profile("gaussian", 4)
    body = HyperRectangle([0.6, 0.9, 0.6, 1.2])
    alone = [_facet_values(pr, body, 300, seed=7, facet_indices=[i])
             for i in range(8)]
    laws, tables = [], []
    halfspace_law = bodies._halfspace_law

    class Table(_InverseCdfTable):
        __slots__ = ("__weakref__",)

    def counting_law(prof, dist):
        laws.append(dist)
        return halfspace_law(prof, dist)

    def tracked_table(law):
        assert sum(t() is not None for t in tables) <= 1
        table = Table(law.logf_vec, *law.window, law.log_peak)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(bodies, "_halfspace_law", counting_law)
    monkeypatch.setattr(bodies, "_facet_table", tracked_table)
    together = _facet_values(pr, body, 300, seed=7)
    assert laws == [0.6, 0.9, 1.2] and len(tables) == 3
    for got, want in zip(together, zip(*alone)):
        want = np.concatenate(want)
        assert np.array_equal(got, want)
        if got.dtype == float:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_facet_mc_agrees_with_exact_on_simplex(get_profile):
    pr = get_profile("gaussian", 3)
    body = circumscribed_polytope(3, 1.2, 6, seed=31)
    est = polytope_surface_mc(pr, body, samples_per_facet=40_000, seed=13)
    fd = minkowski_fd_surface(pr, body, epsilon=1e-3, samples=2_000_000, seed=14)
    z = (est.value - fd.value) / math.hypot(est.std_error, fd.std_error)
    assert abs(z) < 4.0


def test_facet_mc_matches_gaussian_partial_box_in_high_dimension(get_profile):
    # {|x_j| <= h_j, j < 3} in R^256: 6 facets, so every facet sees k = 5
    # neighbours (one of them antiparallel) and draws 5 direction
    # coordinates.  Gaussian surface: sum_j 2 phi(h_j) prod_{l != j} (2 Phi(h_l) - 1).
    d = 256
    pr = get_profile("gaussian", d)
    h = np.array([0.5, 1.0, 1.5])
    eye = np.eye(d)[:3]
    body = Polytope(np.vstack([eye, -eye]), np.concatenate([h, h]))
    exact = _gaussian_box_surface(h)
    est = polytope_surface_mc(pr, body, samples_per_facet=20_000, seed=3)
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_facet_mc_matches_gaussian_wedge_in_high_dimension(get_profile,
                                                           monkeypatch):
    # two half-spaces <x, X_i> <= rho_i with <X_1, X_2> = c in R^64 (k = 1):
    # sum_i phi(rho_i) Phi((rho_j - c rho_i) / sqrt(1 - c^2)).  With no
    # nodes allowed the closed form cannot certify, so both facets sample.
    monkeypatch.setattr(bodies, "_CUT_MAX_NODES", 0)
    d = 64
    pr = get_profile("gaussian", d)
    c = 0.3
    X = np.zeros((2, d))
    X[0, 0] = 1.0
    X[1, 0], X[1, 1] = c, math.sqrt(1.0 - c * c)
    rho = np.array([0.8, 1.2])
    exact = sum(
        stats.norm.pdf(rho[i])
        * stats.norm.cdf((rho[1 - i] - c * rho[i]) / math.sqrt(1.0 - c * c))
        for i in range(2)
    )
    est = polytope_surface_mc(pr, Polytope(X, rho), samples_per_facet=20_000,
                              seed=8)
    assert est.samples == 40_000
    assert abs(est.value - exact) <= 4.0 * est.std_error


#: (c, rho_0, rho_1): two rows with <X_0, X_1> = c at offsets rho_i
_WEDGES = {
    "c=0.3": (0.3, 0.8, 1.2),
    "c=-0.6": (-0.6, 0.8, 0.5),
    "c=0.9": (0.9, 1.0, 1.1),
    "negative slack": (0.9, 1.0, 0.5),  # seen from facet 0: 0.5 - 0.9
    "zero slack": (0.5, 1.0, 0.5),  # seen from facet 0: 0.5 - 0.5
    "slab": (-1.0, 0.7, 0.4),
    "nested rows": (1.0, 0.7, 1.3),
}


def _gaussian_wedge(d, c, rho):
    """The two rows of product c in R^d and the Gaussian surface of
    {<x, X_i> <= rho_i}: sum_i phi(rho_i) Phi(kappa_i), kappa_i =
    (rho_j - c rho_i) / sqrt(1 - c^2), and for parallel rows (c = +-1)
    phi(rho_i) where the slack rho_j - c rho_i is positive."""
    X = np.zeros((2, d))
    X[0, 0] = 1.0
    X[1, 0], X[1, 1] = c, math.sqrt(1.0 - c * c)
    surface = 0.0
    for i in range(2):
        slack = rho[1 - i] - c * rho[i]
        share = (float(slack > 0.0) if abs(c) == 1.0
                 else stats.norm.cdf(slack / math.sqrt(1.0 - c * c)))
        surface += stats.norm.pdf(rho[i]) * share
    return X, surface


@pytest.mark.parametrize("case", list(_WEDGES))
@pytest.mark.parametrize("d", [3, 4, 16, 64])
def test_one_neighbour_facets_are_the_gaussian_wedge(d, case, get_profile,
                                                    monkeypatch):
    # k = 1: each facet is hs (1 - mu) by quadrature, with no direction
    # drawn and no radius table built.  It meets the closed form within 4
    # std_errors plus hs's own quadrature tolerance, which no std_error
    # covers (at d = 3 it takes the break at |kappa|)
    c, *rho = _WEDGES[case]
    X, exact = _gaussian_wedge(d, c, rho)
    tables, facet_table = [], bodies._facet_table
    monkeypatch.setattr(bodies, "_facet_table",
                        lambda law: tables.append(law) or facet_table(law))
    est = polytope_surface_mc(get_profile("gaussian", d), Polytope(X, rho),
                              samples_per_facet=1, seed=8)
    assert est.samples == 0 and est.note == "" and not tables
    assert abs(est.value - exact) <= 4.0 * est.std_error + _REL_TOL * exact


def test_one_cut_share_covers_every_slack(get_profile, monkeypatch):
    # p = 1 - mu for one neighbour: 1/2 at zero slack, 1 or 0 for parallel
    # rows, p(-sigma) = 1 - p(sigma), 1 - M(kappa) of `_pair_cut_means` for
    # a positive slack, and None when no rule may run
    _, law = bodies._halfspace_law(get_profile("gaussian", 16), 1.0)
    share = bodies._one_cut_share
    assert share(law, 15, 0.0, 0.3) == (0.5, 0.0)
    assert share(law, 15, 0.4, -1.0) == (1.0, 0.0)
    assert share(law, 15, -0.6, 1.0) == (0.0, 0.0)
    p, err = share(law, 15, 0.5, 0.6)
    below, below_err = share(law, 15, -0.5, 0.6)
    assert 0.0 <= err <= _REL_TOL * p and below_err <= _REL_TOL * below
    assert p + below == pytest.approx(1.0, rel=0.0, abs=1e-15)
    mu, mu_err = bodies._pair_cut_means(law, 15, np.array([0.5 / 0.8]),
                                        math.inf)
    assert p == pytest.approx(1.0 - mu[0], rel=0.0, abs=err + mu_err + 1e-15)
    monkeypatch.setattr(bodies, "_CUT_MAX_NODES", bodies._PAIR_NODES // 2)
    assert share(law, 15, 0.5, 0.6) is None


def test_closed_form_facets_reproduce_in_any_subset(get_profile):
    pr = get_profile("gaussian", 16)
    X, _ = _gaussian_wedge(16, 0.3, [0.8, 1.2])
    body = Polytope(X, [0.8, 1.2])
    full = _facet_values(pr, body, 100, seed=2)
    assert not full[3].any()  # nothing sampled
    for picked in ([1], [1, 0]):
        sub = _facet_values(pr, body, 100, seed=2, facet_indices=picked)
        for a, b in zip(full, sub):
            assert np.array_equal(a[picked], b)


def test_all_facets_zero_acceptance_note(get_profile):
    # tiny simplex at d = 8: every chord is shorter than 1e-7, while the
    # facet density s^6 exp(-s^2/2) keeps its table window above 6e-5, so
    # every sample scores 0
    pr = get_profile("gaussian", 8)
    dirs = np.vstack([-np.eye(8), np.full(8, 1.0 / math.sqrt(8.0))])
    body = Polytope(directions=dirs, offsets=np.full(9, 1e-9))
    est = polytope_surface_mc(pr, body, samples_per_facet=500, seed=1)
    assert est.value == 0.0
    assert math.isnan(est.std_error)
    assert "zero acceptance" in est.note


def test_one_sample_per_facet_has_no_std_error(get_profile):
    # the Gaussian box 1 x 1 x 2: one sample per facet has no sample
    # variance, so the std_error is NaN with a note, not 0; two samples
    # give a finite, positive one and no note
    pr = get_profile("gaussian", 3)
    box = HyperRectangle(np.array([1.0, 1.0, 2.0]))
    _, err, _, att = _facet_values(pr, box, 1, 0)
    assert att.all() and np.all(np.isnan(err))
    one = polytope_surface_mc(pr, box, samples_per_facet=1, seed=0)
    assert math.isfinite(one.value) and math.isnan(one.std_error)
    assert one.note == "unreliable: one sample per facet gives no sample variance"
    _, err, _, _ = _facet_values(pr, box, 2, 0)
    assert np.all(np.isfinite(err))
    two = polytope_surface_mc(pr, box, samples_per_facet=2, seed=0)
    assert math.isfinite(two.std_error) and two.std_error > 0.0
    assert two.note == ""


def _table_terms(pr, rho):
    """The std_error of a facet body whose pair means have no spread: the
    table terms 2 hs cdf_error of its facets, in quadrature."""
    terms = []
    for r in rho:
        hs, law = bodies._halfspace_law(pr, abs(r))
        terms.append(2.0 * hs * _facet_table(law).cdf_error)
    return math.sqrt(math.fsum(t * t for t in terms))


def test_tiny_triangle_gets_perimeter_times_density(get_profile):
    # at d = 2 the facet density is flat near 0, so chords of 1e-9 keep
    # their weight: the estimate is the perimeter 6 sqrt(3) r times the
    # density 1/(2 pi) at the origin (to O(r^2)).  Both directions of a
    # side give the same chord, so the spread is at rounding level and the
    # std_error is the table terms alone.  The table CDF is linear on its
    # first knot interval, off by about 1e-6 relative there.
    pr = get_profile("gaussian", 2)
    ang = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    r = 1e-9
    body = Polytope(directions=dirs, offsets=np.full(3, r))
    est = polytope_surface_mc(pr, body, samples_per_facet=500, seed=1)
    exact = 6.0 * math.sqrt(3.0) * r / (2.0 * math.pi)
    assert est.value == pytest.approx(exact, rel=1e-5)
    assert est.std_error == pytest.approx(_table_terms(pr, body.offsets),
                                          rel=1e-12)
    assert est.note == ""


@pytest.mark.parametrize("name", ["gaussian", "gp4", "table"])
def test_pair_mean_is_the_edge_integral_in_two_dimensions(name, get_profile):
    # at d = 2 a facet's direction is +-1, so the pair mean of u and -u
    # scores the whole edge: the estimate is the integral of the density
    # along the three edges, to the table's 1e-6, with no sample variance,
    # so the std_error is the table terms alone
    pr = get_profile(name, 2)
    ang = np.array([0.3, 2.4, 4.3])
    X = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rho = np.array([0.8, 1.0, 1.3]) * pr.t0
    exact = 0.0
    for i in range(3):
        tangent = np.array([-X[i, 1], X[i, 0]])
        t = np.delete(X @ tangent, i)
        c = np.delete(rho, i) - rho[i] * np.delete(X @ X[i], i)
        s_lo, s_hi = (c / t)[t < 0].max(), (c / t)[t > 0].min()
        # the table's kinks, where |x| crosses a knot
        knots = np.asarray(getattr(pr.phi, "knots", []))
        s_knot = np.sqrt(np.square(knots[knots > rho[i]]) - rho[i] ** 2)
        kinks = np.concatenate([-s_knot, [0.0], s_knot])
        exact += quad(lambda s: math.exp(
            pr.log_normalizer - float(pr.phi.value(math.hypot(rho[i], s)))),
            s_lo, s_hi, points=kinks[(s_lo < kinks) & (kinks < s_hi)],
            epsabs=0.0, epsrel=1e-12, limit=200)[0]
    est = polytope_surface_mc(pr, Polytope(X, rho), samples_per_facet=200,
                              seed=1)
    assert est.value == pytest.approx(exact, rel=1e-6)
    assert est.std_error == pytest.approx(_table_terms(pr, rho), rel=1e-12)


def _gaussian_facet_integral(X, rho, angles=1 << 16):
    """Exact Gaussian boundary measure of the polytope {<x, X_i> <= rho_i}
    in R^3: on facet i the density is phi(rho_i) times the planar standard
    normal around the foot point, whose mass along a ray is
    exp(-lo^2 / 2) - exp(-hi^2 / 2); the rays' angle is integrated by the
    midpoint rule (the integrand is continuous and piecewise smooth)."""
    theta = (np.arange(angles) + 0.5) * (2.0 * math.pi / angles)
    total = 0.0
    for i in range(X.shape[0]):
        e = np.linalg.svd(X[i][None, :])[2][1:]  # a basis of X_i^perp
        u = np.outer(np.cos(theta), e[0]) + np.outer(np.sin(theta), e[1])
        t = u @ np.delete(X, i, axis=0).T
        c = np.delete(rho, i) - rho[i] * np.delete(X @ X[i], i)
        assert np.all(c > 0.0)  # the foot point lies inside the facet
        with np.errstate(divide="ignore"):
            hi = np.where(t > 0.0, c / t, np.inf).min(axis=1)
        mass = -np.expm1(-0.5 * hi * hi).mean()
        total += stats.norm.pdf(rho[i]) * mass
    return total


@pytest.mark.parametrize("case", ["box", "polytope"])
def test_pair_mean_std_error_is_calibrated(case, get_profile):
    # over 300 seeds at 200 samples per facet, (value - truth) / std_error
    # has standard deviation 1 within its sampling spread (about 0.04).
    # On the box w(u) = w(-u), so a std_error from the 2S single scores
    # would read sqrt(2) too small, and the spread about 1.4.
    pr = get_profile("gaussian", 3)
    if case == "box":
        h = np.array([0.6, 1.0, 1.4])
        body = HyperRectangle(h)
        truth = _gaussian_box_surface(h)
    else:
        body = circumscribed_polytope(3, 1.2, 6, seed=31)
        truth = _gaussian_facet_integral(body.directions, body.offsets)
    z = []
    for seed in range(300):
        est = polytope_surface_mc(pr, body, samples_per_facet=200, seed=seed)
        z.append((est.value - truth) / est.std_error)
    assert 0.85 <= np.std(z) <= 1.15
    assert abs(np.mean(z)) < 0.25  # unbiased: 4 standard errors of the mean


def _simplex_box_wedge(get_profile):
    """(profile, body) pairs: a circumscribed simplex and a box at d = 3, a
    two-facet wedge at d = 64 and one at d = 3 whose second facet cuts the
    first one's foot point off (so chords on the first facet start past 0)."""
    wedge = np.zeros((2, 64))
    wedge[0, 0] = 1.0
    wedge[1, 0], wedge[1, 1] = 0.3, math.sqrt(1.0 - 0.09)
    sharp = np.array([[1.0, 0.0, 0.0], [math.sqrt(0.75), 0.5, 0.0]])
    return [
        (get_profile("gaussian", 3), circumscribed_polytope(3, 1.2, 4, seed=31)),
        (get_profile("gaussian", 3), HyperRectangle([0.6, 1.0, 1.4])),
        (get_profile("gaussian", 64), Polytope(wedge, [0.8, 1.2])),
        (get_profile("gaussian", 3), Polytope(sharp, [1.0, 0.5])),
    ]


def test_facet_std_error_below_the_binomial_one(get_profile, monkeypatch):
    # 0 <= w <= 1, so the sample variance of w is at most the binomial
    # p (1 - p) S / (S - 1) of the same mean: deterministic, per facet.
    # The wedges sample too: their closed form is given no nodes.
    monkeypatch.setattr(bodies, "_CUT_MAX_NODES", 0)
    S = 3000
    cases = _simplex_box_wedge(get_profile) + [
        (get_profile("gp1", 8), circumscribed_polytope(8, 4.0, 12, seed=5))]
    for pr, body in cases:
        _, rho = as_facets(body)
        values, errors, accepted, _ = _facet_values(pr, body, S, seed=4)
        hs = np.array([halfspace_surface(pr, r).value for r in rho])
        p = values / hs
        assert np.allclose(accepted / S, p, rtol=1e-14, atol=0.0)
        assert np.all((0.0 < p) & (p < 1.0))
        bound = hs * np.sqrt(p * (1.0 - p) / (S - 1))
        assert np.all(errors <= bound * (1.0 + 1e-12))
        assert np.all(errors > 0.0)


# --- randomised QMC directions ---------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 7, bodies._RQMC_MAX_Q])
def test_rqmc_base_is_fixed_unit_rows(q):
    base = bodies._rqmc_base(40, q)
    assert base.shape == (40, q) and not base.flags.writeable
    assert bodies._rqmc_base(40, q) is base
    assert np.abs(np.linalg.norm(base, axis=1) - 1.0).max() < 1e-15
    if q == 2:
        # 40 equally spaced angles on half the circle: with the antithetic
        # rows, 80 on the whole circle
        angles = np.arctan2(base[:, 1], base[:, 0])
        assert np.allclose(np.diff(angles), math.pi / 40, rtol=0, atol=1e-14)
    else:
        # a Kronecker sequence: the base of 39 rows is the first 39 of 40
        assert np.array_equal(bodies._rqmc_base(39, q), base[:39])


def test_rqmc_replicates_cover_exactly_the_samples():
    # B rotated copies of n = ceil(S / B) base rows, the first S % B (or
    # all B) one row longer: RQMC takes B = 16, a Gaussian base
    # isqrt(S // q), capped at its value for _ROTATE_MAX_SAMPLES samples,
    # and q <= 1 or q > _ROTATE_MAX_Q one unrotated set of S rows; q < m
    # takes (n, B) chi^2_(m-q) and (n, B - 1) chi^2_q lengths
    draw, cap = bodies._facet_draw, bodies._ROTATE_MAX_SAMPLES
    above = bodies._ROTATE_MAX_Q + 1
    for q, m in ((1, 1), (1, 6), (above, above), (above, above + 1)):
        sets, n, lengths = draw(bodies._rng(0), 100, np.eye(q), m)
        assert sets.shape == (1, q, q) and np.array_equal(sets[0], np.eye(q))
        assert n == 100
        assert (lengths is None) == (q == m)
    for q, m in ((5, 5), (5, 6), (bodies._RQMC_MAX_Q + 1,) * 2):
        for S in (2, 5, 15, 16, 17, 40, 2500, 2 * cap):
            sets, n, lengths = draw(bodies._rng(S), S, np.eye(q), m)
            B = sets.shape[0]
            long = S - B * (n - 1)
            assert sets.shape == (B, q, q) and 1 <= long <= B
            assert long * n + (B - long) * (n - 1) == S
            if q < m:
                assert [a.shape for a in lengths] == [(n, B), (n, B - 1)]
            else:
                assert lengths is None
            if bodies._is_rqmc(q, m):
                assert B == min(16, S)
            else:
                assert B == max(1, math.isqrt(min(S, cap) // q))


def _score_case(pr, d):
    """A box, or at d = 12 a polytope of 6 random facets, whose
    q = 5 < d - 1 directions take radii."""
    if d != 12:
        return HyperRectangle(np.linspace(0.6, 1.4, d) * pr.t0 / math.sqrt(d))
    X = np.random.default_rng(12).standard_normal((6, d))
    return Polytope(X / np.linalg.norm(X, axis=1)[:, None], np.full(6, 0.6 * pr.t0))


@pytest.mark.parametrize("d, S", [(3, 5), (3, 40), (8, 5), (8, 17), (8, 40),
                                  (12, 40), (12, 333), (25, 5), (25, 333)])
def test_rqmc_facet_scores_exactly_its_samples(d, S, get_profile):
    # rebuild each facet's S directions from its draw, with normals I so
    # that the sets are the Q_b^T, and score them with unrotated normals.
    # RQMC (d = 3, 8): replicate b is the base of its size rotated by Q_b,
    # the first S % B replicates one direction longer; compare the value
    # and the replicate std_error.  A Gaussian base (d = 12, 25): the
    # first S of radii[r, b] theta_r Q_b in (r, b) order, rebuilt from the
    # stream in the draw's order (the rotations, the chi^2 lengths Y and X
    # when q < d - 1, the Gaussian rows g), with X_r0 = |g_r|^2; compare
    # the value and the per-direction std_error with its table term
    pr = get_profile("gaussian", d)
    body = _score_case(pr, d)
    X, rho = as_facets(body)
    values, errors, accepted, _ = _facet_values(pr, body, S, seed=3)
    for i in range(X.shape[0]):
        Xx = X @ X[i]
        normals = _gram_factor(_hyperplane_coordinates(X, i, Xx))
        q = normals.shape[1]
        sets, n, _ = bodies._facet_draw(bodies._rng(3, i), S, np.eye(q), d - 1)
        B = sets.shape[0]
        hs, law = bodies._halfspace_law(pr, abs(rho[i]))
        table = _facet_table(law)

        def pair_means(u):
            lo, hi, _ = _kernels.facet_chords(u, normals,
                                              rho[i] * np.delete(Xx, i),
                                              np.delete(rho, i),
                                              table.top, 1.0)
            w = table.cdf_at(hi) - table.cdf_at(lo)
            return 0.5 * (w[:u.shape[0]] + w[u.shape[0]:])

        if not bodies._is_rqmc(q, d - 1):
            ref = bodies._rng(3, i)
            rotations = bodies._haar(ref, B, q)
            radii = 1.0
            if q < d - 1:
                chi_y = ref.chisquare(d - 1 - q, (n, B))
                chi_x = ref.chisquare(q, (n, B - 1))
            g = ref.standard_normal((n, q))
            sq = np.square(g).sum(axis=1)
            if q < d - 1:
                chi_x = np.column_stack([sq, chi_x])
                radii = np.sqrt(chi_x / (chi_x + chi_y))
            theta = g / np.sqrt(sq)[:, None]
            dirs = (theta @ rotations).swapaxes(0, 1)  # [r, b]
            u = dirs * np.broadcast_to(radii, (n, B))[..., None]
            w = pair_means(u.reshape(-1, q)[:S])
            assert accepted[i] == pytest.approx(w.sum(), rel=1e-12)
            assert values[i] == pytest.approx(hs * w.mean(), rel=1e-12)
            assert errors[i] == pytest.approx(hs * math.hypot(
                w.std(ddof=1) / math.sqrt(S), 2.0 * table.cdf_error), rel=1e-9)
            continue
        long = S - B * (n - 1)
        sizes = [n] * long + [n - 1] * (B - long)
        sums = np.array([
            pair_means(bodies._rqmc_base(size, q) @ sets[b].T).sum()
            for b, size in enumerate(sizes)])
        p = sums.sum() / S
        assert accepted[i] == pytest.approx(sums.sum(), rel=1e-12)
        assert values[i] == pytest.approx(hs * p, rel=1e-12)
        spread = math.sqrt(np.square(sums - np.array(sizes) * p).sum()
                           * B / (B - 1)) / S
        assert errors[i] == pytest.approx(
            hs * math.hypot(spread, 2.0 * table.cdf_error), rel=1e-9)


@pytest.mark.parametrize("d", [3, 8, 16, bodies._RQMC_MAX_Q + 2, 64,
                               bodies._ROTATE_MAX_Q + 2, 100])
def test_rqmc_facet_values_do_not_depend_on_the_chunk(d, get_profile,
                                                      monkeypatch):
    # boxes: RQMC at q = d - 1 = 2 and 7, a Gaussian base at q = 24 and
    # one unrotated set at q = 81, where nothing but g is drawn (no chi^2
    # lengths); construction polytopes at d = 16, whose N = 2 facets have
    # q = 1 < d - 1 (one unrotated set and chi^2 lengths), and at d = 64,
    # whose q = 6 < d - 1 directions are rotated and take chi^2 lengths;
    # at d = 100 90 random facets, q = 89 > _ROTATE_MAX_Q and q < d - 1.
    # A chunk scores base rows against all B sets, the rotations and the
    # lengths are drawn once per facet and the Gaussian rows in order, so
    # any chunking scores the same directions, and the pair means are
    # summarized once: the figures are those of one pass, bit for bit
    if d in (16, 64):
        pr, body = _construction_body(get_profile, d)
        assert as_facets(body)[0].shape[0] - 1 < d - 1
    elif d == 100:
        pr = get_profile("gaussian", d)
        X = np.random.default_rng(100).standard_normal((90, d))
        body = Polytope(X / np.linalg.norm(X, axis=1)[:, None], np.full(90, 2.5))
    else:
        pr = get_profile("gaussian", d)
        body = HyperRectangle(np.linspace(0.6, 1.4, d) * pr.t0 / math.sqrt(d))
    picked = None if d <= 16 else range(4)
    S = 3001  # S % 16 = 9: replicates of two sizes
    whole = _facet_values(pr, body, S, seed=6, facet_indices=picked)
    for chunk in (700, 160):  # 43 and 10 base rows per chunk at B = 16
        monkeypatch.setattr(bodies, "_CHUNK", chunk)
        _same_bits(_facet_values(pr, body, S, seed=6, facet_indices=picked),
                   whole)
    assert np.all(whole[1] > 0.0)


def test_rqmc_std_error_covers_the_table_error(get_profile):
    # at q = 2 the spread of 16 replicates of 6250 equally spaced directions
    # falls below the radius table's CDF error; the std_error adds twice
    # that error, so it still covers the bias of the table
    pr = get_profile("gaussian", 3)
    h = np.array([0.6, 1.0, 1.4])
    truth = _gaussian_box_surface(h)
    for seed in range(10):
        est = polytope_surface_mc(pr, HyperRectangle(h), 100_000, seed)
        assert abs(est.value - truth) <= 4.0 * est.std_error


def test_rqmc_std_error_is_calibrated_at_q7(get_profile):
    # a d = 8 box (q = 7): over 300 seeds (value - truth) / std_error has
    # standard deviation 1 within its sampling spread, and mean 0
    pr = get_profile("gaussian", 8)
    h = np.linspace(0.6, 1.6, 8) * pr.t0 / math.sqrt(8)
    truth = _gaussian_box_surface(h)
    assert bodies._is_rqmc(7, 7)
    z = [(est.value - truth) / est.std_error
         for est in (polytope_surface_mc(pr, HyperRectangle(h), 200, seed)
                     for seed in range(300))]
    assert 0.85 <= np.std(z) <= 1.15
    assert abs(np.mean(z)) < 0.25


def _binomial_facet_mc(pr, body, S, seed):
    """The 0/1 estimator that conditional acceptance replaces: a radius
    from the facet table per sample, accepted or not, dense float64."""
    X, rho = as_facets(body)
    d = X.shape[1]
    value = var = 0.0
    for i, r in enumerate(rho):
        hs, law = bodies._halfspace_law(pr, r)
        Xx = X @ X[i]
        normals = _gram_factor(_hyperplane_coordinates(X, i, Xx))
        base = r * np.delete(Xx, i)
        rng = bodies._rng(seed, i)
        s = _facet_table(law).sample(rng.random(S))
        u = _sphere_coordinates(rng, S, normals.shape[1], d - 1)
        p = np.all(base + s[:, None] * (u @ normals.T) <= np.delete(rho, i),
                   axis=1).mean()
        value += hs * p
        var += hs * hs * p * (1.0 - p) / S
    return value, math.sqrt(var)


def test_conditional_acceptance_agrees_with_the_binomial_estimator(get_profile):
    for pr, body in _simplex_box_wedge(get_profile):
        est = polytope_surface_mc(pr, body, samples_per_facet=20_000, seed=13)
        ref, ref_se = _binomial_facet_mc(pr, body, 20_000, seed=14)
        assert est.std_error < ref_se
        assert abs(est.value - ref) <= 4.0 * math.hypot(est.std_error, ref_se)


# --- facets on two threads ------------------------------------------------


def _pooled(monkeypatch, workers):
    """Runs `_facet_values` on `workers` threads whatever the call and the
    host (1: on the calling thread); returns the set of thread ids that
    draw facet directions.  Skips where numpy's BLAS cannot be pinned, as
    the pool then does not run."""
    if workers > 1 and bodies._blas_threads() is None:
        pytest.skip("numpy's BLAS exports no thread-count symbols")
    threads = set()
    draw = bodies._facet_draw
    # the first draw of each thread waits until `workers` threads draw, so
    # that the pool cannot hand a job to a thread that is done and idle
    started, barrier = set(), threading.Barrier(workers)

    def recorded(*args):
        ident = threading.get_ident()
        threads.add(ident)
        if ident not in started and len(started) < workers:
            started.add(ident)
            barrier.wait(timeout=60)
        return draw(*args)

    monkeypatch.setattr(bodies, "_facet_workers", lambda *args: workers)
    monkeypatch.setattr(bodies, "_facet_draw", recorded)
    return threads


def _same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _construction_body(get_profile, d):
    from radsurf import construction

    prof = get_profile("gaussian", d)
    return prof, construction.sample_polytope(
        construction.plan(prof, c_rho=1.0, seed=3), prof)


def test_facet_workers_follow_the_sample_floor_and_memory():
    S = bodies._POOL_MIN_SAMPLES
    cpus = min(2, len(os.sched_getaffinity(0)))
    assert bodies._facet_workers(S, 69, 256, 4) == cpus  # construct-d256
    assert bodies._facet_workers(S, 69, 256, 1) == 1
    assert bodies._facet_workers(S - 1, 69, 256, 4) == 1
    # k q = 63 products per sample, then 64
    assert bodies._facet_workers(S, 10, 8, 4) == 1
    assert bodies._facet_workers(S, 17, 5, 4) == cpus
    # at d = 1024 a facet's 5006 neighbour normals take 41 MB
    assert bodies._facet_workers(S, 5007, 1024, 2) == 1


@pytest.mark.parametrize("case", ["box", "construction-d256", "subset"])
def test_two_workers_give_the_bits_of_one(case, get_profile, monkeypatch):
    if case == "box":
        # repeated half-widths: each |rho| group is dealt to both workers
        prof = get_profile("gaussian", 9)
        body = HyperRectangle([0.5, 0.8, 0.5, 1.1, 0.8, 0.5, 0.9, 1.1, 0.5])
        picked = None
    else:
        prof, body = _construction_body(get_profile, 256)
        picked = [0, 1, 2, 3] if case != "subset" else [9, 2, 40]
    S = bodies._POOL_MIN_SAMPLES
    # the floor and the memory rule put these calls on the pool
    assert bodies._facet_workers(S, *as_facets(body)[0].shape, 3) == min(
        2, len(os.sched_getaffinity(0)))
    threads = _pooled(monkeypatch, 1)
    one = _facet_values(prof, body, S, 5, facet_indices=picked)
    assert threads == {threading.get_ident()}
    threads = _pooled(monkeypatch, 2)
    two = _facet_values(prof, body, S, 5, facet_indices=picked)
    assert len(threads) == 2 and threading.get_ident() in threads
    _same_bits(two, one)
    assert one[3].all()


def test_a_facet_alone_has_the_bits_it_has_among_others(get_profile):
    # alone, facet 9 runs on one worker; among others, on the pool.  A call
    # that meets the pool's floors takes the pool's block budget and one
    # OpenBLAS thread on one worker too, so its figures are the same bits
    prof, body = _construction_body(get_profile, 256)
    S = bodies._POOL_MIN_SAMPLES
    assert bodies._facet_workers(S, *as_facets(body)[0].shape, 1) == 1
    alone = _facet_values(prof, body, S, 5, facet_indices=[9])
    among = _facet_values(prof, body, S, 5, facet_indices=[9, 2, 40])
    _same_bits([a[:1] for a in among], alone)


def test_more_workers_than_cores_give_the_same_bits(get_profile,
                                                    monkeypatch):
    # four workers with a short switch interval: every facet still writes
    # only its own slot
    prof = get_profile("gaussian", 9)
    body = HyperRectangle([0.5, 0.8, 0.5, 1.1, 0.8, 0.5, 0.9, 1.1, 0.5])
    _pooled(monkeypatch, 1)
    one = _facet_values(prof, body, 2000, seed=5)
    threads = _pooled(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = _facet_values(prof, body, 2000, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 4
    _same_bits(four, one)


def test_tables_and_laws_are_built_on_the_calling_thread(get_profile,
                                                         monkeypatch):
    # the benchmark's tracer wraps both and is single-threaded
    callers = []
    law, table = bodies._halfspace_law, bodies._facet_table

    def law_here(*args):
        callers.append(threading.get_ident())
        return law(*args)

    def table_here(*args):
        callers.append(threading.get_ident())
        return table(*args)

    monkeypatch.setattr(bodies, "_halfspace_law", law_here)
    monkeypatch.setattr(bodies, "_facet_table", table_here)
    threads = _pooled(monkeypatch, 2)
    prof = get_profile("gaussian", 4)
    _facet_values(prof, HyperRectangle([0.6, 0.9, 0.6, 1.2]), 2000, seed=7)
    assert len(threads) == 2
    assert len(callers) == 6 and set(callers) == {threading.get_ident()}


def test_pool_pins_blas_and_restores_it(get_profile, monkeypatch):
    _pooled(monkeypatch, 2)
    get_threads, set_threads = bodies._blas_threads()
    seen = []
    chords = _kernels.facet_chords

    def recorded(*args, **kwargs):
        seen.append(get_threads())
        return chords(*args, **kwargs)

    def failing(*args, **kwargs):
        if threading.get_ident() != caller:
            raise RuntimeError("worker fails")
        return chords(*args, **kwargs)

    caller = threading.get_ident()
    prof = get_profile("gaussian", 4)
    box = HyperRectangle([0.6, 0.9, 0.6, 1.2])
    before = get_threads()
    threads_before = threading.active_count()
    set_threads(2)
    try:
        monkeypatch.setattr(_kernels, "facet_chords", recorded)
        _facet_values(prof, box, 2000, seed=7)
        assert seen and set(seen) == {1}
        assert get_threads() == 2
        monkeypatch.setattr(_kernels, "facet_chords", failing)
        with pytest.raises(RuntimeError, match="worker fails"):
            _facet_values(prof, box, 2000, seed=7)
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert threading.active_count() == threads_before


def test_missing_blas_symbol_runs_on_the_calling_thread(get_profile,
                                                        monkeypatch):
    prof = get_profile("gaussian", 4)
    box = HyperRectangle([0.6, 0.9, 0.6, 1.2])
    threads = _pooled(monkeypatch, 2)
    two = _facet_values(prof, box, 2000, seed=7)
    assert len(threads) == 2
    monkeypatch.setattr(bodies, "_BLAS_THREAD_SYMBOLS",
                        ("scipy_openblas_get_num_threads64_", "no_such_symbol"))
    assert bodies._blas_threads() is None
    threads.clear()
    _same_bits(_facet_values(prof, box, 2000, seed=7), two)
    assert threads == {threading.get_ident()}


def test_no_thread_outlives_a_call_or_the_import(get_profile):
    out = subprocess.run(
        [sys.executable, "-c",
         "import threading, radsurf; print(threading.active_count())"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "1"
    prof, body = _construction_body(get_profile, 256)
    before = threading.active_count()
    _facet_values(prof, body, bodies._POOL_MIN_SAMPLES, 5, facet_indices=[0, 1])
    assert threading.active_count() == before


def test_every_radius_table_carries_its_slopes(get_profile):
    pr = get_profile("gaussian", 5)
    for table in (_radial_table(pr),
                  _facet_table(_radial_law(pr.phi, pr.m - 1, 0.35 * pr.t0))):
        assert table.slope.shape == table.grid.shape
        t = np.linspace(table.grid[0], table.grid[-1], 1001)
        assert np.array_equal(table.cdf_at(t), np.interp(t, table.grid,
                                                         table.cdf))
        # exactly 1 from `top` on (the facet chord kernel's window top),
        # short of the window's end, and below 1 a knot before it
        past = np.append(np.linspace(table.top, 2.0 * table.grid[-1], 1001),
                         np.inf)
        assert np.all(table.cdf_at(past) == 1.0)
        k = int(np.searchsorted(table.grid, table.top))
        assert k < table.grid.size - 1 and table.grid[k] == table.top
        assert table.cdf_at(table.grid[k - 1]) < 1.0


# --- one solve per radial law ----------------------------------------------


@pytest.fixture
def law_builds(monkeypatch):
    """Counts `_radial_law` builds (under both names that call it) and the
    window solves of each law built: returns (laws, solves by law id)."""
    from radsurf import functionals

    laws, solves = [], collections.Counter()
    build, solve = functionals._radial_law, functionals._RadialLaw.window.func

    def counted_build(*args, **kwargs):
        laws.append(build(*args, **kwargs))
        return laws[-1]

    def counted_solve(law):
        solves[id(law)] += 1
        return solve(law)

    window = functools.cached_property(counted_solve)
    window.__set_name__(functionals._RadialLaw, "window")
    monkeypatch.setattr(functionals._RadialLaw, "window", window)
    monkeypatch.setattr(functionals, "_radial_law", counted_build)
    monkeypatch.setattr(bodies, "_radial_law", counted_build)
    return laws, solves


def test_profile_builds_each_moment_law_once(law_builds):
    laws, solves = law_builds
    pr = profile(tabulated([0.5, 1.0, 1.5, 2.0], [0.1, 0.4, 1.0, 1.9]), 9)
    assert len(laws) == 4  # I_k(0) for k = m-1 .. m+2
    assert [solves[id(law)] for law in laws] == [1, 1, 1, 1]
    assert pr.t0 == laws[0].peak  # I_m(0), built first


def test_facet_mc_builds_one_law_per_distinct_offset(get_profile, law_builds):
    laws, solves = law_builds
    pr = get_profile("gaussian", 5)
    laws.clear()  # the profile's laws, when it was not cached yet
    solves.clear()
    box = HyperRectangle(pr.t0 * np.array([0.3, 0.45, 0.6, 0.75, 0.9]))
    polytope_surface_mc(pr, box, 100, seed=0)  # 10 facets, 5 offsets
    assert len(laws) == 5
    assert [solves[id(law)] for law in laws] == [1] * 5


def test_point_radius_table_is_built_once_per_profile(law_builds):
    laws, _ = law_builds
    phi = tabulated([0.5, 1.0, 1.5, 2.0], [0.1, 0.4, 1.0, 1.9])
    pr = profile(phi, 5)
    laws.clear()
    e = np.eye(5)[0]
    fd = [minkowski_fd_surface(pr, body, 1e-2, 20_000, seed=3)
          for body in (Ball(pr.t0), HalfSpace(e, 0.5), Ball(pr.t0))]
    sample_points(pr, 100, seed=1)
    assert len(laws) == 1  # I_m(0), once for the four calls
    assert _radial_table(pr) is _radial_table(pr)
    # a fresh profile of the same measure builds its own table, and the
    # values do not depend on which build they read
    assert fd[0] == fd[2]
    fresh = profile(phi, 5)
    laws.clear()
    assert minkowski_fd_surface(fresh, Ball(pr.t0), 1e-2, 20_000,
                                seed=3) == fd[0]
    assert len(laws) == 1


# --- Minkowski finite-difference oracle ------------------------------------


def test_fd_matches_exact_ball(get_profile):
    pr = get_profile("gaussian", 3)
    est = minkowski_fd_surface(pr, Ball(1.0), epsilon=1e-3,
                               samples=1_000_000, seed=123)
    exact = sphere_surface(pr, 1.0).value
    assert abs(est.value - exact) < 4.0 * est.std_error + 0.01 * exact


def test_fd_matches_exact_halfspace_and_slab(get_profile):
    pr = get_profile("gaussian", 4)
    hs = HalfSpace(direction=[1.0, 0.0, 0.0, 0.0], offset=0.6)
    est = minkowski_fd_surface(pr, hs, epsilon=1e-3, samples=400_000, seed=5)
    exact = halfspace_surface(pr, 0.6).value
    assert abs(est.value - exact) < 4.0 * est.std_error + 0.01 * exact

    slab = Slab(direction=[0.0, 1.0, 0.0, 0.0], rho1=0.7, rho2=1.2)
    est2 = minkowski_fd_surface(pr, slab, epsilon=1e-3, samples=400_000, seed=6)
    exact2 = slab_surface(pr, 0.7, 1.2).value
    assert abs(est2.value - exact2) < 4.0 * est2.std_error + 0.01 * exact2


def test_fd_box_agrees_with_facet_mc(get_profile):
    pr = get_profile("gaussian", 3)
    h = np.array([0.8, 1.0, 1.2])
    box = HyperRectangle(half_widths=h)
    eye = np.eye(3)
    poly = Polytope(directions=np.vstack([eye, -eye]), offsets=np.concatenate([h, h]))
    fd = minkowski_fd_surface(pr, box, epsilon=1e-3, samples=1_000_000, seed=8)
    mc = polytope_surface_mc(pr, poly, samples_per_facet=40_000, seed=9)
    z = (fd.value - mc.value) / math.hypot(fd.std_error, mc.std_error)
    assert abs(z) < 4.0


def test_fd_matches_exact_halfspace_in_high_dimension(get_profile):
    # one facet row: each chunk draws the radius and one coordinate
    pr = get_profile("gaussian", 256)
    e = np.zeros(256)
    e[7] = 1.0
    est = minkowski_fd_surface(pr, HalfSpace(e, 0.5), epsilon=1e-2,
                               samples=1_000_000, seed=21)
    exact = halfspace_surface(pr, 0.5).value
    assert abs(est.value - exact) < 4.0 * est.std_error + 0.01 * exact


def test_fd_matches_exact_slab_off_the_origin(get_profile):
    # rho1 < 0: the slab {0.3 <= x_2 <= 1.1} misses the origin, and its two
    # rows are antiparallel, so the triangular factor R is singular
    pr = get_profile("gaussian", 16)
    e = np.zeros(16)
    e[2] = 1.0
    slab = Slab(direction=e, rho1=-0.3, rho2=1.1)
    est = minkowski_fd_surface(pr, slab, epsilon=1e-2, samples=1_000_000,
                               seed=22)
    exact = slab_surface(pr, -0.3, 1.1).value
    assert abs(est.value - exact) < 4.0 * est.std_error + 0.01 * exact


def test_fd_polytope_with_few_facets_agrees_with_facet_mc(get_profile):
    # N = 5 < d = 64: FD draws 5 projected coordinates per point
    pr = get_profile("gaussian", 64)
    body = circumscribed_polytope(64, 1.0, 5, seed=23)
    fd = minkowski_fd_surface(pr, body, epsilon=1e-2, samples=1_000_000,
                              seed=24)
    mc = polytope_surface_mc(pr, body, samples_per_facet=20_000, seed=25)
    z = (fd.value - mc.value) / math.hypot(fd.std_error, mc.std_error)
    assert abs(z) < 4.0


def test_fd_polytope_with_many_facets_agrees_with_facet_mc(get_profile):
    # N = 20 >= d = 8: FD draws full directions against the unit rows X
    pr = get_profile("gaussian", 8)
    body = circumscribed_polytope(8, 1.5, 20, seed=27)
    fd = minkowski_fd_surface(pr, body, epsilon=5e-3, samples=2_000_000,
                              seed=28)
    mc = polytope_surface_mc(pr, body, samples_per_facet=20_000, seed=29)
    z = (fd.value - mc.value) / math.hypot(fd.std_error, mc.std_error)
    assert abs(z) < 4.0


def test_fd_without_shell_hits_is_flagged(get_profile):
    # Ball(10) under the Gaussian in R^3: no sample reaches the shell
    pr = get_profile("gaussian", 3)
    est = minkowski_fd_surface(pr, Ball(10.0), epsilon=1e-3, samples=100_000,
                               seed=0)
    assert est.value == 0.0
    assert math.isnan(est.std_error)
    assert est.note == "unreliable: no sample in the eps shell"
    hit = minkowski_fd_surface(pr, Ball(1.0), epsilon=1e-3, samples=100_000,
                               seed=0)
    assert hit.value > 0.0 and math.isfinite(hit.std_error) and not hit.note


def test_fd_ball_draws_only_radii(get_profile):
    # a full chunk of points at d = 1024 would hold 512 MB
    pr = get_profile("gaussian", 1024)
    tracemalloc.start()
    try:
        minkowski_fd_surface(pr, Ball(pr.t0), epsilon=1e-3, samples=200_000,
                             seed=26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fd_determinism(get_profile):
    pr = get_profile("gp1", 3)
    a = minkowski_fd_surface(pr, Ball(1.5), epsilon=1e-3, samples=50_000, seed=4)
    b = minkowski_fd_surface(pr, Ball(1.5), epsilon=1e-3, samples=50_000, seed=4)
    assert (a.value, a.std_error) == (b.value, b.std_error)
    # every kind of draw, over more than one chunk
    e = np.array([0.0, 0.6, 0.8])
    for body in (Ball(1.5), HalfSpace(e, 0.4), Slab(e, -0.2, 0.9),
                 circumscribed_polytope(3, 0.8, 2, seed=5),
                 circumscribed_polytope(3, 0.8, 6, seed=5),
                 HyperRectangle([0.8, 1.0, 1.2])):
        a = minkowski_fd_surface(pr, body, epsilon=1e-2, samples=70_000, seed=4)
        b = minkowski_fd_surface(pr, body, epsilon=1e-2, samples=70_000, seed=4)
        assert (a.value, a.std_error) == (b.value, b.std_error)
        assert a.value > 0.0


def test_fd_rejects_surfaces_and_bad_epsilon(get_profile):
    pr = get_profile("gaussian", 3)
    with pytest.raises(InputError):
        minkowski_fd_surface(pr, SphereShell(1.0), epsilon=1e-3,
                             samples=1000, seed=0)
    with pytest.raises(InputError):
        minkowski_fd_surface(pr, Ball(1.0), epsilon=0.0, samples=1000, seed=0)
    for eps in (math.nan, math.inf):
        with pytest.raises(InputError, match="epsilon"):
            minkowski_fd_surface(pr, Ball(1.0), epsilon=eps, samples=1000,
                                 seed=0)
    with pytest.raises(InputError):
        minkowski_fd_surface(pr, Ball(1.0), epsilon=1e-3, samples=0, seed=0)
    with pytest.raises(InputError, match="R\\^4"):
        minkowski_fd_surface(pr, HalfSpace([1.0, 0.0, 0.0, 0.0], 0.5),
                             epsilon=1e-3, samples=1000, seed=0)


# --- Lebesgue cube reference -----------------------------------------------


def test_cube_check_surface_and_identity():
    for d in (1, 2, 8, 64):
        c = cube_lebesgue_check(d)
        assert isinstance(c, CubeCheck)
        assert c.surface == 2.0 * d
        # Var|X| is computed as d/12 - (E|X|)^2 for the unit cube
        assert c.expectation**2 + c.variance == pytest.approx(d / 12.0, rel=1e-13)


def test_cube_check_needs_a_positive_integer_dimension():
    for d in (0, 2.5):
        with pytest.raises(InputError, match="dimension must be a positive integer"):
            cube_lebesgue_check(d)


def test_cube_check_one_dimensional_closed_form():
    c = cube_lebesgue_check(1)
    assert c.expectation == pytest.approx(0.25, rel=1e-12)
    assert c.variance == pytest.approx(1.0 / 48.0, rel=1e-12)


@pytest.mark.parametrize("d, reference", [
    (8, 0.80563677805076462410),
    (512, 6.5306957128718826873),
    (4096, 18.474757508032994543),
])
def test_cube_expectation_matches_high_precision_reference(d, reference):
    # references: mpmath at 40 digits, split at b = 8 sqrt(12/d) with the
    # tail integrated as 1/b - int_b^inf c^d / u^2.  Large d needs log c
    # accurate at small s, where the closed form cancels; no
    # IntegrationWarning may pass unchecked
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = cube_lebesgue_check(d)
    assert c.expectation == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_cube_check_raises_when_the_quadrature_misses_its_target(monkeypatch):
    monkeypatch.setattr(bodies, "quad", lambda *a, **k: (1.0, 1e-6))
    with pytest.raises(QuadratureError) as info:
        cube_lebesgue_check(4096)
    assert info.value.achieved_error == 1e-6


def test_cube_expectation_asymptote():
    # E|X| / sqrt(d) climbs toward 1/sqrt(12) = 0.28868
    vals = [cube_lebesgue_check(d).expectation / math.sqrt(d) for d in (8, 512)]
    assert 0.28 < vals[0] < vals[1] < 0.29


# --- the pair-cut control variate -------------------------------------------


@functools.lru_cache(maxsize=None)
def _float32_polytope(d, N, seed):
    """N random unit facets of R^d at the Gaussian plan's offset (c_rho =
    1), or the plan's own polytope when N is None, whose facets take the
    float32 chord product."""
    from radsurf import construction, functionals, potential
    prof = functionals.profile(potential.gaussian(), d)
    spec = construction.plan(prof, c_rho=1.0, seed=seed)
    if N is not None:
        spec = construction.PolytopeSpec(spec.rho, spec.W, N, N, 1.0, seed)
    body = construction.sample_polytope(spec, prof)
    assert _kernels.filtered(1, body.n_facets - 1, d - 1)
    return prof, body


def _facet_inputs(prof, body, i):
    """facet i's kernel arguments, law and table, as `_facet_values` builds
    them."""
    X, rho = as_facets(body)
    Xx = X @ X[i]
    normals = _gram_factor(_hyperplane_coordinates(X, i, Xx))
    hs, law = bodies._halfspace_law(prof, abs(rho[i]))
    return (normals, rho[i] * np.delete(Xx, i), np.delete(rho, i),
            np.delete(Xx, i), law, _facet_table(law))


@pytest.mark.parametrize("d, N", [(512, 1100), (1100, 1030)])
def test_pair_cut_excess_is_nonnegative_on_every_direction(d, N):
    # z = w + sum_j r_j - 1 >= 0 on every drawn direction and reflection,
    # up to the rounding of its k + 2 terms (k its in-window cuts); at
    # d = 1100 the 1029 neighbours leave q < d - 1 coordinates, so every
    # direction has its own radius and its own threshold
    prof, body = _float32_polytope(d, N, 2)
    normals, base, offsets, _, _, table = _facet_inputs(prof, body, 3)
    theta, _, radii = whole_draw(bodies._rng(7, 3), 2500, normals, d - 1)
    assert np.isscalar(radii) == (normals.shape[1] == d - 1)
    radii = np.broadcast_to(radii, (theta.shape[0], 1)).ravel()
    lo, hi, cuts = _kernels.facet_chords(theta, normals, base, offsets,
                                         table.top, radii, cuts=True)
    assert cuts is not None and not lo.any()
    w = table.cdf_at(hi)
    z = bodies._cut_excess(w, cuts, table)
    k = np.bincount(cuts[0], minlength=w.size)
    assert np.count_nonzero(k >= 2) > 100 and np.any(z > 1e-3)
    assert np.all(z >= -(k + 2) * 2.0 ** -52)
    # with one cut, the cut alone ends the chord: z = 0 up to rounding
    one = k == 1
    assert one.any() and np.all(np.abs(z[one]) <= 3 * 2.0 ** -52)


def test_pair_cut_means_match_direct_expectations():
    # the Chebyshev table against `expect` at single kappa and against scipy
    # quad, from kappa -> 0 (M -> 1/2) through the construction's range,
    # and 0 for a parallel neighbour (kappa = inf)
    from radsurf.functionals import _cap_tail
    prof, body = _float32_polytope(1024, None, 5)
    _, _, _, _, law, _ = _facet_inputs(prof, body, 0)
    kappa = np.concatenate([np.linspace(1e-9, 6.0, 300), [np.inf]])
    mu, err = bodies._pair_cut_means(law, 1023, kappa, math.inf)
    assert err < 1e-9 and mu[-1] == 0.0
    a, b = law.window

    def density(s):
        return math.exp(law.logf(s) - law.log_peak)

    norm = quad(density, a, b, points=[law.peak], epsabs=0.0, epsrel=1e-13,
                limit=400)[0]
    for i in (0, 1, 57, 170, 299):
        k = kappa[i]
        direct, direct_err = law.expect(lambda s: _cap_tail(1022, k / s), 64)
        assert abs(mu[i] - direct) <= err + direct_err + 1e-14
        by_quad = quad(lambda s: density(s) * _cap_tail(1022, k / s), a, b,
                       points=[law.peak], epsabs=0.0, epsrel=1e-13,
                       limit=400)[0] / norm
        assert abs(mu[i] - by_quad) <= err + 1e-12
    assert abs(mu[0] - 0.5) < 1e-8


@pytest.mark.parametrize("d, N, seed, facets", [
    (1024, None, 5, (2236, 2379)),
    (512, 1100, 2, (0, 1)),
])
def test_pair_cut_variate_agrees_with_the_plain_score(monkeypatch, d, N, seed,
                                                      facets):
    # the variate at S samples against the plain score at 10 S, within
    # 4 sigma, with a smaller std_error at equal samples (sum_j mu_ij is
    # 0.18 on the construction facets, 0.48 on the random ones)
    prof, body = _float32_polytope(d, N, seed)
    S = 1000
    cv = _facet_values(prof, body, S, 9, facet_indices=list(facets))
    monkeypatch.setattr(bodies, "_CV_MAX_SUM", -math.inf)
    plain = _facet_values(prof, body, 10 * S, 9, facet_indices=list(facets))
    for v, e, pv, pe in zip(cv[0], cv[1], plain[0], plain[1]):
        assert abs(v - pv) <= 4.0 * math.hypot(e, pe)
        assert e < pe * math.sqrt(10.0) / (2.0 if N is None else 1.2)


def test_expected_surface_at_d1024_meets_the_exact_value(get_profile):
    from radsurf import construction
    pr = get_profile("gaussian", 1024)
    est = construction.expected_surface(pr, c_rho=1.0, trials=8,
                                        samples_per_facet=400,
                                        facet_subsample=2, seed=3)
    assert abs(est.value - 0.563149) <= 4.0 * est.std_error


def test_pair_cut_table_stops_where_its_first_points_pass_the_limit(
        get_profile, monkeypatch):
    # a d = 520 box, whose neighbours cut off more than _CV_MAX_SUM: with a
    # check tolerance of 0 the table doubles its degree to _PAIR_MAX_DEGREE,
    # but the first degree's points already bound the sum above the limit
    from radsurf import functionals
    prof = get_profile("gaussian", 520)
    box = HyperRectangle(np.linspace(2.6, 3.4, 520))
    _, base, offsets, Xx, law, _ = _facet_inputs(prof, box, 0)
    with np.errstate(divide="ignore"):
        kappa = (offsets - base) / np.sqrt((1.0 - Xx) * (1.0 + Xx))
    calls = []
    expect = functionals._RadialLaw.expect

    def counted(self, g, nodes):
        calls.append(nodes)
        return expect(self, g, nodes)

    monkeypatch.setattr(functionals._RadialLaw, "expect", counted)
    monkeypatch.setattr(bodies, "_PAIR_TOL", 0.0)
    assert bodies._pair_cut_means(law, 519, kappa, bodies._CV_MAX_SUM) is None
    assert len(calls) == 1
    mu, _ = bodies._pair_cut_means(law, 519, kappa, math.inf)
    assert mu.sum() > bodies._CV_MAX_SUM and len(calls) > 2


def test_facets_outside_the_variate_keep_their_bits(get_profile):
    # float32-product facets that score the plain pair means, with the
    # values and accepted counts they had before the variate: a box whose
    # neighbours cut off more than _CV_MAX_SUM, and a facet with a
    # nonpositive slack (their std_errors carry the 2 cdf_error table term)
    prof = get_profile("gaussian", 520)
    box = HyperRectangle(np.linspace(2.6, 3.4, 520))
    _, _, _, Xx, law, _ = _facet_inputs(prof, box, 0)
    slack = 2.6 * (1.0 - Xx)
    with np.errstate(divide="ignore"):
        kappa = slack / np.sqrt((1.0 - Xx) * (1.0 + Xx))
    assert bodies._pair_cut_means(law, 519, kappa, math.inf)[0].sum() \
        > bodies._CV_MAX_SUM
    assert bodies._pair_cut_means(law, 519, kappa, bodies._CV_MAX_SUM) is None
    got = _facet_values(prof, box, 500, 11, facet_indices=[0, 777])
    want = (["0x1.2b16eb8916487p-9", "0x1.8040e6d040fc8p-11"],
            ["0x1.80b7b28df837fp-13", "0x1.f025724474effp-15"],
            ["0x1.4ffd7b7148e2cp+6", "0x1.46f213d03f305p+6"])
    for g, w in zip(got, want):
        assert [x.hex() for x in g] == w
    prof = get_profile("gaussian", 400)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1100, 400))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[1] -= (X[1] @ X[0]) * X[0]
    X[1] = np.cos(0.3) * X[0] + np.sin(0.3) * X[1] / np.linalg.norm(X[1])
    rho = np.full(1100, 3.2)
    rho[1] = 3.2 * np.cos(0.3) - 0.1  # the slack seen from facet 0: -0.1
    got = _facet_values(prof, Polytope(X, rho), 500, 12, facet_indices=[0])
    want = (["0x1.7d71d51105f4dp-12"], ["0x1.64502ed4c2426p-16"],
            ["0x1.312b1045fcfd8p+6"])
    for g, w in zip(got, want):
        assert [x.hex() for x in g] == w


def test_every_estimator_keeps_its_bits(get_profile):
    # (value, std_error, accepted) of one facet per scoring rule: the
    # pair-cut variate with per-row radii (q = 1029 < d - 1, sum_j mu_ij =
    # 0.497), an RQMC box at q = 2 whose short replicates score a base of
    # their own, and a construction facet of rotated Gaussian rows scored
    # against a stack of float64 sets
    prof = get_profile("gaussian", 1100)
    X = np.random.default_rng(4).standard_normal((1030, 1100))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    body = Polytope(X, np.full(1030, 0.10 * prof.t0))
    pr3 = get_profile("gaussian", 3)
    box = HyperRectangle(np.linspace(0.6, 1.4, 3) * pr3.t0 / math.sqrt(3))
    pr64 = get_profile("gaussian", 64)
    from radsurf import construction
    spec = construction.plan(pr64, c_rho=1.0, seed=3)
    cases = [
        ((prof, body, 300, 5, [0]),
         ("0x1.fef78024e2f8bp-11", "0x1.6203fb568d75ap-16",
          "0x1.7f27cd3d1ad4dp+7")),
        ((pr3, box, 2500, 7, [1]),
         ("0x1.48aeb3064b26bp-4", "0x1.258ed749af3f0p-20",
          "0x1.5ee5f8f517a7fp+9")),
        ((pr64, construction.sample_polytope(spec, pr64), 2000, 9, [0]),
         ("0x1.8123078d89e59p-5", "0x1.126a37f0c845cp-12",
          "0x1.ad5c3aa46baa2p+10")),
    ]
    for (pr, solid, S, seed, facets), want in cases:
        got = _facet_values(pr, solid, S, seed, facet_indices=facets)
        assert tuple(float(g[0]).hex() for g in got[:3]) == want
