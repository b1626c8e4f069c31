import dataclasses
import math

import mpmath as mp
import pytest

from radsurf.errors import InputError, NormalizationError
from radsurf.functionals import (
    log_ball_volume,
    mu_candidate,
    profile,
    psi,
    rough_upper_bound,
    solve_t0,
    tail_mass_bound,
    theorem_bound,
    theorem_bound_probabilistic,
)
from radsurf.potential import ball, gaussian, power, tabulated

from conftest import make_random_table


@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_gaussian_t0_closed_form(d):
    pr = profile(gaussian(), d)
    assert pr.t0 == pytest.approx(math.sqrt(d - 1), rel=1e-12)


@pytest.mark.parametrize("d", [5, 17, 65, 257, 1025])
def test_gaussian_t0_exact_when_m_is_a_power_of_four(d):
    # t0 = sqrt(m) is a power of two: the bracket must not treat the exact
    # root as the false side of the bisection
    assert solve_t0(gaussian(), d - 1) == math.sqrt(d - 1)
    assert profile(gaussian(), d).t0 == math.sqrt(d - 1)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("d", [3, 9, 33])
def test_power_t0_closed_form(p, d):
    # t phi'(t) = t^p = m
    pr = profile(power(p), d)
    assert pr.t0 == pytest.approx((d - 1) ** (1.0 / p), rel=1e-12)


@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
def test_ball_t0_is_cutoff(R):
    pr = profile(ball(R), 7)
    assert pr.t0 == pytest.approx(R, rel=1e-14)


@pytest.mark.parametrize("d", [3, 8, 40])
def test_gaussian_radial_moments_closed_form(d):
    m = d - 1
    pr = profile(gaussian(), d)
    for k in (m - 1, m, m + 1):
        expected = 0.5 * (k - 1) * math.log(2.0) + math.lgamma(0.5 * (k + 1))
        assert pr.log_J[k] == pytest.approx(expected, rel=1e-12)
    # |X| is chi with d degrees of freedom
    mean = math.sqrt(2.0) * math.exp(
        math.lgamma(0.5 * (d + 1)) - math.lgamma(0.5 * d)
    )
    assert pr.expectation == pytest.approx(mean, rel=1e-12)
    assert pr.variance == pytest.approx(d - mean * mean, rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 4.0])
def test_power_radial_moments_closed_form(p):
    d = 12
    m = d - 1
    pr = profile(power(p), d)
    for k in (m, m + 1):
        expected = ((k + 1) / p - 1.0) * math.log(p) + math.lgamma((k + 1) / p)
        assert pr.log_J[k] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d", [3, 11, 64])
def test_ball_moments_and_spread_closed_form(d):
    m = d - 1
    pr = profile(ball(1.0), d)
    assert pr.log_J[m] == pytest.approx(-math.log(m + 1), abs=1e-12)
    assert pr.expectation == pytest.approx(d / (d + 1), rel=1e-12)
    assert pr.variance == pytest.approx(
        d / (d + 2) - (d / (d + 1)) ** 2, rel=1e-9
    )
    # uniform ball: phi = 0 inside, so the inner spread equation
    # -m log(1 - x) = 1 solves in closed form; the outer spread hits the cutoff
    assert pr.lambda_i == pytest.approx(1.0 - math.exp(-1.0 / m), rel=1e-10)
    assert pr.lambda_o == 0.0


def test_gaussian_spread_frozen_values():
    pr = profile(gaussian(), 3)
    assert pr.lambda_i == pytest.approx(0.6017609517349668, rel=1e-10)
    assert pr.lambda_o == pytest.approx(0.7737511721266271, rel=1e-10)
    assert pr.lambda_sum == pr.lambda_i + pr.lambda_o
    assert pr.lambda_ratio == pytest.approx(
        math.exp(pr.log_J[2] - pr.log_gm_t0) / pr.t0, rel=1e-12
    )


@pytest.mark.parametrize("name_d", [("gaussian", 3), ("gaussian", 40),
                                    ("gp1", 9), ("gp4", 16), ("table", 8)])
def test_spread_solves_unit_deficit(name_d, get_profile):
    # lambda_i / lambda_o are defined by a one-nat drop of g_m off the mode
    name, d = name_d
    pr = get_profile(name, d)
    m = pr.m

    def deficit(x):
        t = (1.0 + x) * pr.t0
        return (pr.phi.value(t) - pr.phi.value(pr.t0)
                - m * math.log1p(x))

    assert deficit(-pr.lambda_i) == pytest.approx(1.0, abs=1e-8)
    assert deficit(pr.lambda_o) == pytest.approx(1.0, abs=1e-8)


def test_quadrature_matches_mpmath_reference():
    mp.mp.dps = 30
    knots, values = make_random_table()
    cases = [
        (gaussian(), 64, lambda t: t * t / 2, ()),
        (ball(1.0), 64, lambda t: mp.mpf(0), (mp.mpf(1),)),
        (power(4.0), 16, lambda t: t**4 / 4, ()),
    ]
    for phi, d, f, cut in cases:
        pr = profile(phi, d)
        m = d - 1
        hi = cut[0] if cut else mp.inf
        Jm = mp.quad(lambda t: t**m * mp.e ** (-f(t)), [0, hi])
        Jm1 = mp.quad(lambda t: t ** (m + 1) * mp.e ** (-f(t)), [0, hi])
        assert pr.log_J[m] == pytest.approx(float(mp.log(Jm)), abs=1e-11)
        assert pr.expectation == pytest.approx(float(Jm1 / Jm), rel=1e-11)


def test_tabulated_quadrature_matches_mpmath_reference():
    # piecewise-linear integrand: mpmath needs the kinks as breakpoints
    mp.mp.dps = 30
    knots, values = make_random_table()
    pr = profile(tabulated(knots, values), 8)
    m = 7
    grid = [mp.mpf(0)] + [mp.mpf(float(k)) for k in knots]
    gv = [mp.mpf(0)] + [mp.mpf(float(v)) for v in values]
    end_slope = (gv[-1] - gv[-2]) / (grid[-1] - grid[-2])

    def f(t):
        if t >= grid[-1]:
            return gv[-1] + end_slope * (t - grid[-1])
        lo, hi = 0, len(grid) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if grid[mid] <= t:
                lo = mid
            else:
                hi = mid
        w = (t - grid[lo]) / (grid[lo + 1] - grid[lo])
        return gv[lo] * (1 - w) + gv[lo + 1] * w

    pts = grid + [mp.inf]
    Jm = mp.quad(lambda t: t**m * mp.e ** (-f(t)), pts)
    Jm1 = mp.quad(lambda t: t ** (m + 1) * mp.e ** (-f(t)), pts)
    assert pr.log_J[m] == pytest.approx(float(mp.log(Jm)), abs=1e-11)
    assert pr.expectation == pytest.approx(float(Jm1 / Jm), rel=1e-11)


def test_bound_formulas_recompute_from_fields(get_profile):
    for name, d in (("gaussian", 10), ("ball", 10), ("gp4", 17), ("table", 6)):
        pr = get_profile(name, d)
        assert theorem_bound(pr) == pytest.approx(
            math.sqrt(pr.m) / (math.sqrt(pr.lambda_ratio) * pr.t0), rel=1e-14
        )
        assert theorem_bound_probabilistic(pr) == pytest.approx(
            math.sqrt(pr.d) / (math.sqrt(pr.expectation) * pr.variance**0.25),
            rel=1e-14,
        )
        assert rough_upper_bound(pr) == pytest.approx(
            pr.m * math.exp(pr.log_J[pr.m - 1] - pr.log_J[pr.m]),
            rel=1e-14,
        )


def test_gaussian_frozen_reference_values(get_profile):
    pr = get_profile("gaussian", 10)
    assert pr.t0 == pytest.approx(3.0, rel=1e-12)
    assert math.exp(pr.log_J[9]) == pytest.approx(384.0, rel=1e-10)
    assert pr.lambda_ratio == pytest.approx(0.58538804077, rel=1e-9)
    assert theorem_bound(pr) == pytest.approx(1.30700749227, rel=1e-9)
    assert rough_upper_bound(pr) == pytest.approx(3.0843277598, rel=1e-9)
    # for the gaussian the rough bound coincides with E|X| in one dim up:
    # m J_{m-1}/J_m = m / E_{d-1}|X| relation is measure-specific; pin the
    # variance instead
    assert pr.variance == pytest.approx(0.486922270128, rel=1e-9)


def test_theorem_bound_probabilistic_frozen_values(get_profile):
    assert theorem_bound_probabilistic(get_profile("ball", 10)) == pytest.approx(
        11.512986533313164, rel=1e-10
    )
    assert theorem_bound_probabilistic(get_profile("gaussian", 10)) == pytest.approx(
        2.155533759866195, rel=1e-10
    )


def test_lambda_outer_stops_exactly_at_the_cutoff():
    # the profile stays within a nat of its peak up to the cutoff R = 3.5,
    # and t0 (1 + x_max) rounds past R: the edge test must still read R
    phi = tabulated([1.0, 3.5], [0.5, 2.0], extrapolation="cutoff")
    pr = profile(phi, 2)
    x_max = 3.5 / pr.t0 - 1.0
    assert pr.t0 * (1.0 + x_max) > 3.5
    assert pr.lambda_o == x_max


def test_tail_mass_bound_frozen_and_sound(get_profile):
    pr = get_profile("gaussian", 3)
    deficit = psi(pr, 1.0)
    bound = tail_mass_bound(pr.phi, pr.m, pr.t0, 1.0, deficit)
    assert math.exp(bound) == pytest.approx(0.1284111515552577, rel=1e-10)
    # sound: it dominates the true tail int_{2 t0}^inf t^2 e^{-t^2/2} dt
    mp.mp.dps = 30
    true_tail = float(
        mp.quad(lambda t: t**2 * mp.e ** (-(t**2) / 2), [2 * pr.t0, mp.inf])
    )
    assert math.exp(bound) >= true_tail
    with pytest.raises(InputError):
        tail_mass_bound(pr.phi, pr.m, pr.t0, -1.0, deficit)
    with pytest.raises(InputError):
        tail_mass_bound(pr.phi, pr.m, pr.t0, 1.0, 0.0)
    with pytest.raises(InputError):
        tail_mass_bound(pr.phi, pr.m, pr.t0, 1.0, deficit + 0.1)  # exceeds deficit


def test_mu_candidate_feasibility(get_profile):
    mu, ok = mu_candidate(get_profile("gaussian", 17))
    assert ok and mu == pytest.approx(math.log(16) / 4.0, rel=1e-12)
    _, ok_big = mu_candidate(get_profile("gaussian", 145))
    assert ok_big
    _, ok_small = mu_candidate(get_profile("gaussian", 5))
    assert not ok_small
    _, ok_tiny = mu_candidate(get_profile("gaussian", 145), mu=1e-4)
    assert not ok_tiny
    with pytest.raises(InputError):
        mu_candidate(get_profile("gaussian", 17), mu=-1.0)


def test_profile_rejects_unnormalizable_measure():
    flat = tabulated([1.0], [0.0])  # phi stays 0 forever
    with pytest.raises(NormalizationError):
        profile(flat, 5)
    with pytest.raises(NormalizationError):
        solve_t0(flat, 4)


def test_profile_dimension_gate():
    with pytest.raises(InputError):
        profile(gaussian(), 1)


def test_value_at_cutoff_is_left_limit():
    assert ball(1.0).value(1.0) == 0.0
    assert math.isinf(ball(1.0).value(1.5))
    assert gaussian().value(2.0) == pytest.approx(2.0, rel=1e-12)


def test_log_ball_volume_closed_forms():
    assert log_ball_volume(2) == pytest.approx(math.log(math.pi), rel=1e-14)
    assert log_ball_volume(3) == pytest.approx(
        math.log(4.0 * math.pi / 3.0), rel=1e-14
    )
    assert log_ball_volume(1) == pytest.approx(math.log(2.0), rel=1e-14)


def test_profile_logarithms_are_floats_and_m_follows_d(get_profile):
    pr = get_profile("gaussian", 1024)  # J_m alone overflows a double here
    logs = [pr.log_gm_t0, pr.log_Jm, pr.log_normalizer, *pr.log_J.values()]
    assert all(type(x) is float for x in logs)
    assert pr.log_Jm > 700.0
    assert "m" not in {f.name for f in dataclasses.fields(pr)}
    assert pr.m == 1023
    assert dataclasses.replace(pr, d=5).m == 4


def test_support_radius_and_normalizer(get_profile):
    pr = get_profile("ball", 6)
    assert pr.support_radius == 1.0
    # normalizer: C_d = 1 / (d nu_d J_m); total mass of the density is 1
    total = (
        math.log(pr.d)
        + log_ball_volume(pr.d)
        + pr.log_J[pr.m]
        + pr.log_normalizer
    )
    assert total == pytest.approx(0.0, abs=1e-12)
