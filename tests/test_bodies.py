import collections
import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from radsurf import bodies
from radsurf.errors import InputError, NumericsError
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
from radsurf.functionals import _radial_law, log_ball_volume, profile
from radsurf.potential import ball, tabulated

from conftest import MEASURE_NAMES, circumscribed_polytope


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


def test_halfspace_outside_support_is_zero(get_profile):
    est = halfspace_surface(get_profile("ball", 4), 1.5)
    assert est.value == 0.0


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
    H = _hyperplane_coordinates(A, x)
    assert H.shape == (k, d - 1)
    F = _gram_factor(H)
    assert F.shape == (k, min(k, d - 1))
    assert np.abs(H @ H.T - P @ P.T).max() < 1e-12
    assert np.abs(F @ F.T - P @ P.T).max() < 1e-12


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
    dirs, offs = as_facets(HyperRectangle([0.5, 1.0, 2.0]))
    eye = np.eye(3)
    assert np.array_equal(dirs, np.vstack([eye, -eye]))
    assert np.array_equal(offs, [0.5, 1.0, 2.0, 0.5, 1.0, 2.0])
    poly = Polytope(directions=[e], offsets=[0.7])
    dirs, offs = as_facets(poly)
    assert dirs is poly.directions and offs is poly.offsets
    for body in (Slab(e, -0.2, 0.9), Ball(1.0), SphereShell(1.0)):
        with pytest.raises(InputError):
            as_facets(body)


def test_box_mc_equals_box_as_polytope(get_profile):
    pr = get_profile("gaussian", 3)
    h = np.array([0.6, 1.0, 1.4])
    box = polytope_surface_mc(pr, HyperRectangle(h), 2000, seed=4)
    eye = np.eye(3)
    poly = Polytope(np.vstack([eye, -eye]), np.concatenate([h, h]))
    assert box == polytope_surface_mc(pr, poly, 2000, seed=4)


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
    mass = 2.0 * stats.norm.cdf(h) - 1.0
    exact = sum(2.0 * stats.norm.pdf(h[j]) * np.prod(np.delete(mass, j))
                for j in range(3))
    est = polytope_surface_mc(pr, body, samples_per_facet=20_000, seed=3)
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_facet_mc_matches_gaussian_wedge_in_high_dimension(get_profile):
    # two half-spaces <x, X_i> <= rho_i with <X_1, X_2> = c in R^64 (k = 1):
    # sum_i phi(rho_i) Phi((rho_j - c rho_i) / sqrt(1 - c^2)).
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
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_all_facets_zero_acceptance_note(get_profile):
    # tiny triangle far inside the bulk: hyperplane samples essentially never
    # land on the polytope boundary, so every facet reports zero acceptance
    pr = get_profile("gaussian", 2)
    ang = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    body = Polytope(directions=dirs, offsets=np.full(3, 1e-9))
    est = polytope_surface_mc(pr, body, samples_per_facet=500, seed=1)
    assert est.value == 0.0
    assert math.isnan(est.std_error)
    assert "zero acceptance" in est.note


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


def test_cube_check_one_dimensional_closed_form():
    c = cube_lebesgue_check(1)
    assert c.expectation == pytest.approx(0.25, rel=1e-12)
    assert c.variance == pytest.approx(1.0 / 48.0, rel=1e-12)


def test_cube_expectation_asymptote():
    # E|X| / sqrt(d) climbs toward 1/sqrt(12) = 0.28868
    vals = [cube_lebesgue_check(d).expectation / math.sqrt(d) for d in (8, 512)]
    assert 0.28 < vals[0] < vals[1] < 0.29
