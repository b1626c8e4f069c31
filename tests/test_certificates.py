import dataclasses
import itertools
import math

import numpy as np
import pytest

from radsurf.errors import InputError, NormalizationError
from radsurf import functionals
from radsurf.bodies import (
    HalfSpace,
    HyperRectangle,
    Polytope,
    Slab,
    as_facets,
    halfspace_surface,
    polytope_surface_mc,
    slab_surface,
    sphere_surface,
)
from radsurf.certificates import (
    BoundaryPoint,
    Lambda,
    _facet_radius_range,
    annulus_remainder_bound,
    certificate_upper_bound,
    psi,
    xi1,
    xi2_lower,
)
from radsurf.functionals import profile, rough_upper_bound
from radsurf.potential import ball, tabulated

from conftest import circumscribed_polytope


def test_boundary_point_gates():
    BoundaryPoint(1.0, 0.5)
    with pytest.raises(InputError):
        BoundaryPoint(0.0, 0.5)
    with pytest.raises(InputError):
        BoundaryPoint(1.0, 1.5)
    with pytest.raises(InputError):
        BoundaryPoint(1.0, -0.1)


# --- deficit psi ------------------------------------------------------------


def test_psi_gaussian_closed_form(get_profile):
    pr = get_profile("gaussian", 3)  # m = 2, t0 = sqrt(2)
    assert psi(pr, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert psi(pr, 1.0) == pytest.approx(3.0 - 2.0 * math.log(2.0), rel=1e-12)
    assert psi(pr, -0.5) == pytest.approx(
        0.25 - 1.0 + 2.0 * math.log(2.0), rel=1e-12
    )
    with pytest.raises(InputError):
        psi(pr, -1.0)


def test_psi_two_sided_monotone(get_profile):
    pr = get_profile("gp4", 9)
    xs = np.linspace(0.0, 1.5, 12)
    up = [psi(pr, float(x)) for x in xs]
    down = [psi(pr, float(-x)) for x in xs[xs < 1.0]]
    assert all(b >= a - 1e-12 for a, b in zip(up, up[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(down, down[1:]))
    assert up[0] == pytest.approx(0.0, abs=1e-12)


def test_psi_infinite_past_cutoff(get_profile):
    pr = get_profile("ball", 5)
    assert math.isinf(psi(pr, 0.5))


def test_psi_is_reexported_from_functionals():
    assert psi is functionals.psi


# --- one-nat step Lambda -----------------------------------------------------


@pytest.mark.parametrize("d", [5, 17, 101])
def test_lambda_gaussian_closed_form(d, get_profile):
    pr = get_profile("gaussian", d)
    for t in (0.5 * pr.t0, pr.t0, 1.5 * pr.t0):
        expected = math.sqrt(1.0 + 2.0 / (t * t)) - 1.0
        assert Lambda(pr, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["gaussian", "gp4", "table"])
def test_lambda_at_mode_below_inverse_m(name, get_profile):
    for d in (5, 17, 101):
        pr = get_profile(name, d)
        lam = Lambda(pr, pr.t0)
        assert lam is not None
        # one nat of climb costs at most a 1/m relative step at the mode
        assert lam <= 1.0 / pr.m + 1e-12


def test_lambda_bounded_by_inverse_slope(get_profile):
    # phi convex: phi((1+L)t) - phi(t) >= L t phi'(t), so L <= 1/(t phi'(t))
    pr = get_profile("gp1", 12)
    for t in (0.7 * pr.t0, pr.t0, 2.0 * pr.t0):
        lam = Lambda(pr, t)
        cap = 1.0 / (t * float(pr.phi.derivative(t)))
        assert lam <= cap * (1.0 + 1e-9)


def test_lambda_infeasible_near_hard_cutoff(get_profile):
    pr = get_profile("ball", 5)
    assert Lambda(pr, 0.9) is None  # flat potential up to the jump


def test_lambda_infeasible_where_the_edge_step_rounds_past_the_cutoff():
    # (1 + (R/t - 1)) t rounds past R for some t; the edge step reads phi(R)
    assert Lambda(profile(ball(0.7), 5), 0.01) is None
    for R in (0.7, 1.5, 3.3):
        pr = profile(ball(R), 4)
        for t in np.linspace(0.0, R, 202)[1:-1]:
            assert Lambda(pr, float(t)) is None, (R, t)


def test_one_nat_solvers_reject_a_potential_that_never_climbs(get_profile):
    # phi stays 0 forever, so without a cutoff no step climbs one nat
    pr = dataclasses.replace(get_profile("gaussian", 3),
                             phi=tabulated([1.0], [0.0]))
    with pytest.raises(NormalizationError):
        Lambda(pr, 1.0)
    with pytest.raises(NormalizationError):
        xi2_lower(pr, BoundaryPoint(1.0, 0.5))


def test_lambda_domain_gates(get_profile):
    pr = get_profile("ball", 5)
    with pytest.raises(InputError):
        Lambda(pr, 0.0)
    with pytest.raises(InputError):
        Lambda(pr, 1.0)  # on the cutoff
    with pytest.raises(InputError):
        Lambda(get_profile("gaussian", 5), -1.0)


# --- xi1 ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gaussian", "gp1", "ball"])
def test_xi1_reciprocal_of_sphere_surface(name, get_profile):
    pr = get_profile(name, 7)
    radii = (0.4 * pr.t0, pr.t0, min(1.9 * pr.t0, 0.98 * pr.support_radius))
    for R in radii:
        v = xi1(pr, BoundaryPoint(R, 1.0)) * sphere_surface(pr, R).value
        assert v == pytest.approx(1.0, rel=1e-9)


def test_xi1_at_mode_equals_lambda_ratio_times_t0(get_profile):
    pr = get_profile("gaussian", 10)
    assert xi1(pr, BoundaryPoint(pr.t0, 1.0)) == pytest.approx(
        pr.lambda_ratio * pr.t0, rel=1e-12
    )


def test_xi1_scales_linearly_in_alpha(get_profile):
    pr = get_profile("gp4", 6)
    full = xi1(pr, BoundaryPoint(1.3, 1.0))
    assert xi1(pr, BoundaryPoint(1.3, 0.25)) == pytest.approx(
        0.25 * full, rel=1e-12
    )
    assert xi1(pr, BoundaryPoint(1.3, 0.0)) == 0.0


def test_xi1_outside_support_rejected(get_profile):
    with pytest.raises(InputError):
        xi1(get_profile("ball", 5), BoundaryPoint(1.5, 1.0))


# --- xi2 lower bound ---------------------------------------------------------


def test_xi2_gaussian_closed_forms(get_profile):
    pr = get_profile("gaussian", 3)
    y = pr.t0  # sqrt(2)
    # radial direction: (y+t)^2 - y^2 = 2  =>  t = sqrt(y^2+2) - y = 2 - sqrt(2)
    assert xi2_lower(pr, BoundaryPoint(y, 1.0)) == pytest.approx(
        (2.0 - math.sqrt(2.0)) / math.e, rel=1e-9
    )
    # tangential: y^2 + t^2 - y^2 = 2  =>  t = sqrt(2), for any y
    for yy in (0.3, 1.0, 2.5):
        assert xi2_lower(pr, BoundaryPoint(yy, 0.0)) == pytest.approx(
            math.sqrt(2.0) / math.e, rel=1e-9
        )


def test_xi2_ball_reaches_the_cutoff(get_profile):
    pr = get_profile("ball", 6)
    assert xi2_lower(pr, BoundaryPoint(0.5, 1.0)) == pytest.approx(
        0.5 / math.e, rel=1e-12
    )
    assert xi2_lower(pr, BoundaryPoint(0.5, 0.0)) == pytest.approx(
        math.sqrt(0.75) / math.e, rel=1e-12
    )
    with pytest.raises(InputError):
        xi2_lower(pr, BoundaryPoint(1.0, 1.0))


def test_xi2_reads_the_edge_where_the_edge_step_rounds_past_the_cutoff():
    pr = profile(ball(0.7), 4)
    y, a, R = 0.105, 0.5, 0.7
    t_edge = -y * a + math.sqrt(y * y * a * a + R * R - y * y)
    assert xi2_lower(pr, BoundaryPoint(y, a)) == t_edge / math.e


# --- global certificate ------------------------------------------------------


def test_certificate_sphere_limit(get_profile):
    # a fine circumscribed polytope behaves like its inscribed sphere, and
    # the xi1 branch reproduces the exact sphere value (rho > t_{m+1})
    pr = get_profile("gaussian", 6)
    body = circumscribed_polytope(6, 3.0, 300, seed=123)
    cert = certificate_upper_bound(pr, body)
    sph = sphere_surface(pr, 3.0).value
    assert cert.binding == "xi1"
    assert cert.value == pytest.approx(sph, rel=1e-6)
    assert cert.value >= sph * (1.0 - 1e-12)  # never below the true value


def test_certificate_halfspace_through_origin_falls_back_to_rough(get_profile):
    pr = get_profile("gaussian", 4)
    cert = certificate_upper_bound(pr, HalfSpace([1.0, 0.0, 0.0, 0.0], 0.0))
    assert cert.binding == "rough"
    assert cert.min_xi1 == 0.0
    assert math.isinf(cert.xi1_bound)
    assert cert.value == pytest.approx(rough_upper_bound(pr), rel=1e-12)
    # and it is still a valid upper bound for the half-space itself
    assert cert.value >= halfspace_surface(pr, 0.0).value


def test_certificate_dominates_halfspace_and_slab(get_profile):
    pr = get_profile("gaussian", 4)
    hs = HalfSpace([1.0, 0.0, 0.0, 0.0], 1.0)
    cert = certificate_upper_bound(pr, hs)
    assert cert.value >= halfspace_surface(pr, 1.0).value
    slab = Slab([1.0, 0.0, 0.0, 0.0], 0.6, 1.1)
    cert2 = certificate_upper_bound(pr, slab)
    assert cert2.value >= slab_surface(pr, 0.6, 1.1).value


@pytest.mark.parametrize("name,d", [("gaussian", 3), ("gp1", 8)])
def test_certificate_sound_on_random_polytopes(name, d, get_profile):
    pr = get_profile(name, d)
    for j, seed in enumerate((501, 502, 503)):
        rho = (0.5 + 0.4 * j) * pr.t0
        body = circumscribed_polytope(d, rho, d + 2 + j, seed=seed)
        cert = certificate_upper_bound(pr, body)
        est = polytope_surface_mc(pr, body, samples_per_facet=8000, seed=seed)
        assert est.value - 3.0 * est.std_error <= cert.value
        assert cert.value <= rough_upper_bound(pr) * (1.0 + 1e-12)


def _cube(d, h):
    eye = np.eye(d)
    return Polytope(directions=np.vstack([eye, -eye]), offsets=np.full(2 * d, h))


def test_certificate_cube_sound(get_profile):
    pr = get_profile("gaussian", 4)
    body = _cube(4, 1.0)
    cert = certificate_upper_bound(pr, body)
    est = polytope_surface_mc(pr, body, samples_per_facet=10_000, seed=77)
    assert est.value - 3.0 * est.std_error <= cert.value


def test_certificate_box_equals_box_as_polytope(get_profile):
    pr = get_profile("gp4", 4)
    h = np.array([0.5, 0.8, 1.1, 1.7])
    eye = np.eye(4)
    poly = Polytope(np.vstack([eye, -eye]), np.concatenate([h, h]))
    assert certificate_upper_bound(pr, HyperRectangle(h)) == \
        certificate_upper_bound(pr, poly)


@pytest.mark.parametrize("h", [38.2, 40.0])
def test_certificate_reports_xi1_beyond_the_double_range(h, get_profile):
    # log xi1 is about h^2/2: exp overflows, 1/xi1 = exp(-log xi1) is
    # subnormal at h = 38.2 and below the smallest double at h = 40
    pr = get_profile("gaussian", 3)
    cert = certificate_upper_bound(pr, HyperRectangle(np.full(3, h)))
    assert cert.min_xi1 == math.inf
    assert cert.binding == "xi1"
    assert cert.value == cert.xi1_bound
    assert 0.0 < cert.xi1_bound < 1e-300
    assert cert.xi1_bound >= halfspace_surface(pr, h).value
    if h == 40.0:
        assert cert.xi1_bound == math.ulp(0.0)


def test_certificate_rejects_bodies_outside_support(get_profile):
    pr = get_profile("ball", 4)
    body = Polytope(directions=np.eye(4), offsets=np.full(4, 2.0))
    with pytest.raises(InputError):
        certificate_upper_bound(pr, body)


def test_certificate_dimension_mismatch(get_profile):
    pr = get_profile("gaussian", 5)
    body = circumscribed_polytope(3, 1.0, 4, seed=1)
    with pytest.raises(InputError):
        certificate_upper_bound(pr, body)


def _ray_inverse_xi1(pr, body, n, seed):
    """1/xi1 at the boundary points y(u) = t(u) u hit by n uniform rays u;
    alpha = <u, x_i> for the facet i the ray leaves through."""
    dirs, offs = as_facets(body)
    u = np.random.default_rng(seed).standard_normal((n, pr.d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    G = u @ dirs.T
    with np.errstate(divide="ignore"):
        t = np.where(G > 0.0, offs / G, np.inf)
    i = t.argmin(axis=1)
    rows = np.arange(n)
    return np.array([
        1.0 / xi1(pr, BoundaryPoint(float(r), float(a)))
        for r, a in zip(t[rows, i], G[rows, i])
    ])


@pytest.mark.parametrize("d,h", [(16, 0.9), (32, 0.6)])
def test_certificate_cube_dominates_every_ray(d, h, get_profile):
    # the corner radius h sqrt(d) lies below r* = sqrt(m+1) = sqrt(d), so
    # sup 1/xi1 over the cube is attained at a corner, where alpha = 1/sqrt(d)
    pr = get_profile("gaussian", d)
    body = _cube(d, h)
    cert = certificate_upper_bound(pr, body)
    corner = 1.0 / xi1(pr, BoundaryPoint(h * math.sqrt(d), 1.0 / math.sqrt(d)))
    assert _ray_inverse_xi1(pr, body, 20_000, seed=d).max() <= cert.value
    assert corner <= cert.value <= corner * (1.0 + 1e-4)
    assert cert.binding == "xi1" and cert.grid_points == 1


def test_certificate_dominates_every_ray_on_a_random_polytope(get_profile):
    pr = get_profile("gp1", 5)
    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((14, 5))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    body = Polytope(dirs, pr.t0 * rng.uniform(0.3, 1.2, 14))
    cert = certificate_upper_bound(pr, body)
    samples = _ray_inverse_xi1(pr, body, 20_000, seed=5)
    assert np.isfinite(samples).all()
    assert samples.max() <= cert.value


# --- reach bound -------------------------------------------------------------


def test_facet_radius_range_is_the_box_corner():
    d, h = 16, 0.9
    dirs, offs = as_facets(_cube(d, h))
    r_hi = _facet_radius_range(dirs, offs, math.inf)
    assert h * math.sqrt(d) <= r_hi <= h * math.sqrt(d) * (1.0 + 2e-6)
    # an off-centre box: every axis reaches out on its longer side
    upper, lower = np.array([0.5, 2.0, 1.0]), np.array([1.5, 0.3, 1.0])
    eye = np.eye(3)
    r_hi = _facet_radius_range(np.vstack([eye, -eye]),
                               np.concatenate([upper, lower]), math.inf)
    corner = float(np.linalg.norm(np.maximum(upper, lower)))
    assert corner <= r_hi <= corner * (1.0 + 2e-6)


def test_facet_radius_range_infinite_when_unbounded_or_capped():
    d = 256
    u = np.random.default_rng(3).standard_normal(d)
    u /= np.linalg.norm(u)
    assert math.isinf(_facet_radius_range(*as_facets(Slab(u, 1.0, 1.0)), math.inf))
    assert math.isinf(
        _facet_radius_range(*as_facets(HalfSpace([1.0, 0.0, 0.0], 0.5)), math.inf)
    )
    dirs, offs = as_facets(_cube(16, 0.9))
    assert math.isinf(_facet_radius_range(dirs, offs, 3.0))  # box radius 3.6


def test_facet_radius_range_dominates_every_vertex():
    rng = np.random.default_rng(8)
    dirs = rng.standard_normal((9, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    offs = rng.uniform(0.5, 2.0, 9)
    r_vertex = 0.0
    for rows in itertools.combinations(range(9), 3):
        A = dirs[list(rows)]
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        v = np.linalg.solve(A, offs[list(rows)])
        if np.all(dirs @ v <= offs + 1e-9):
            r_vertex = max(r_vertex, float(np.linalg.norm(v)))
    r_hi = _facet_radius_range(dirs, offs, math.inf)
    assert 0.0 < r_vertex <= r_hi < math.inf


# --- one-nat step vs deficit scan -------------------------------------------


@pytest.mark.parametrize("m", [64, 256])
def test_lambda_deficit_product_floor(m, get_profile):
    # Lambda(t) m (psi(x) + 2) stays above 1.5 along the annulus radii
    # t = t0 (1+x)/(1+1/m)^2 -- the margin the annulus argument leans on
    pr = get_profile("gaussian", m + 1)
    for x in np.linspace(0.0, math.log(m) / math.sqrt(m), 21):
        t = pr.t0 * (1.0 + x) / (1.0 + 1.0 / m) ** 2
        val = Lambda(pr, t) * m * (psi(pr, float(x)) + 2.0)
        assert val >= 1.5


# --- annulus remainder -------------------------------------------------------


def test_annulus_remainder_frozen_values(get_profile):
    assert annulus_remainder_bound(get_profile("gaussian", 145)) == pytest.approx(
        1.02127937033345, rel=1e-10
    )
    assert annulus_remainder_bound(get_profile("ball", 10)) == pytest.approx(
        6.23972625261915, rel=1e-10
    )


def test_annulus_remainder_small_compared_to_scaling_target(get_profile):
    # the remainder term must not swamp sqrt(m)/(sqrt(lambda_sum) t0)
    pr = get_profile("gaussian", 145)
    target = math.sqrt(pr.m) / (math.sqrt(pr.lambda_sum) * pr.t0)
    assert annulus_remainder_bound(pr) <= target


def test_annulus_remainder_infeasible_mu_rejected(get_profile):
    pr = get_profile("gaussian", 145)
    with pytest.raises(InputError, match="tail hypothesis"):
        annulus_remainder_bound(pr, mu=1e-4)
    with pytest.raises(InputError):
        annulus_remainder_bound(get_profile("gaussian", 5))  # m too small
