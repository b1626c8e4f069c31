import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from radsurf import construction
from radsurf.errors import DegeneratePlanError, InputError, QuadratureError
from radsurf.bodies import halfspace_surface
from radsurf.construction import (
    PolytopeSpec,
    cap_probability,
    expected_surface,
    expected_surface_exact,
    plan,
    sample_polytope,
)


# --- planning ----------------------------------------------------------------


def test_plan_ball_closed_form(get_profile):
    # uniform ball: lambda_i = 1 - e^(-1/m), lambda_o = 0, t0 = 1, so every
    # planned quantity has a closed form
    pr = get_profile("ball", 10)
    sp = plan(pr, c_rho=0.2, seed=0)
    lam = 1.0 - math.exp(-1.0 / 9.0)
    rho = 0.2 / math.sqrt(9.0 * lam)
    assert sp.rho == pytest.approx(rho, rel=1e-12)
    assert sp.W == pytest.approx(lam, rel=1e-12)
    q = rho / (1.0 + lam)
    n_real = 3.0 * rho * (1.0 - q * q) ** -4.5
    assert sp.N_real == pytest.approx(n_real, rel=1e-12)
    assert sp.N_eff == 1
    # frozen values, for the record
    assert sp.rho == pytest.approx(0.20558055846928, rel=1e-12)
    assert sp.N_real == pytest.approx(0.722647425741884, rel=1e-12)


def test_plan_recomputes_from_profile_fields(get_profile):
    for name, d in (("gaussian", 16), ("gp4", 33), ("table", 24)):
        pr = get_profile(name, d)
        sp = plan(pr, c_rho=1.0)
        lam = pr.lambda_sum
        assert sp.rho == pytest.approx(
            pr.t0 / math.sqrt(lam * pr.m), rel=1e-13
        )
        assert sp.W == pytest.approx(lam * pr.t0, rel=1e-13)
        q = sp.rho / (pr.t0 + sp.W)
        assert sp.N_real == pytest.approx(
            math.exp(0.5 * math.log(pr.m) + math.log(sp.rho / pr.t0)
                     - 0.5 * pr.m * math.log1p(-q * q)),
            rel=1e-12,
        )
        assert sp.N_eff == max(1, round(sp.N_real))


def test_plan_facet_count_grows_with_dimension(get_profile):
    ns = [plan(get_profile("gaussian", d), c_rho=1.0).N_real
          for d in (16, 64, 256)]
    assert ns[0] < ns[1] < ns[2]
    assert ns[0] == pytest.approx(2.15639, rel=1e-5)
    assert ns[2] == pytest.approx(68.8751, rel=1e-5)


def test_plan_degenerate_offset_rejected(get_profile):
    with pytest.raises(InputError, match="degenerates"):
        plan(get_profile("gaussian", 8), c_rho=1.0)
    with pytest.raises(InputError):
        plan(get_profile("gaussian", 16), c_rho=-0.5)


@pytest.mark.parametrize("name, d", [("gaussian", 3), ("gp1", 8),
                                     ("gp4", 2)])
def test_plan_where_no_c_rho_works_says_so(get_profile, name, d):
    # the annulus half-width W reaches t0: rho >= t0 - W for every c_rho
    prof = get_profile(name, d)
    assert prof.lambda_sum >= 1.0
    for c_rho in (1e-6, 1.0):
        with pytest.raises(DegeneratePlanError,
                           match="no c_rho gives a polytope") as exc:
            plan(prof, c_rho=c_rho)
        assert "smaller c_rho" not in str(exc.value)


@pytest.mark.parametrize("d, c_rho", [(4096, 8.0), (16384, 5.0),
                                      (65536, 5.0)])
def test_plan_with_more_facets_than_doubles_hold_says_so(get_profile, d,
                                                         c_rho):
    # log N exceeds log(DBL_MAX): e^log_N would overflow
    with pytest.raises(DegeneratePlanError,
                       match=r"N = e\^[0-9.]+ facets, beyond the double range"):
        plan(get_profile("gaussian", d), c_rho=c_rho)


def test_plan_rejects_non_finite_c_rho(get_profile):
    for c_rho in (math.nan, math.inf):
        with pytest.raises(InputError, match="c_rho"):
            plan(get_profile("gaussian", 16), c_rho=c_rho)


# --- cap probability ---------------------------------------------------------


def test_cap_probability_matches_direct_quadrature(get_profile):
    pr = get_profile("gaussian", 17)  # m = 16
    for r in (0.8, 1.7, 3.1):
        for rho in (0.0, 0.2, 0.5, 0.79):
            num = quad(lambda t: (1 - t * t / (r * r)) ** ((pr.m - 2) / 2),
                       rho, r)[0]
            den = quad(lambda t: (1 - t * t / (r * r)) ** ((pr.m - 2) / 2),
                       -r, r)[0]
            assert cap_probability(pr, r, rho) == pytest.approx(
                num / den, abs=1e-12
            )


def test_cap_probability_closed_forms(get_profile):
    pr3 = get_profile("gaussian", 3)  # m = 2: caps are linear in height
    for r, rho in ((1.0, 0.25), (2.0, 1.5), (1.0, 1e-9)):
        assert cap_probability(pr3, r, rho) == pytest.approx(
            (r - rho) / (2 * r), rel=1e-12
        )
    pr = get_profile("gaussian", 9)
    assert cap_probability(pr, 1.7, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert cap_probability(pr, 1.0, 1.0) == 0.0
    assert cap_probability(pr, 1.0, 2.0) == 0.0


@pytest.mark.parametrize("r, rho", [(math.nan, 0.3), (1.0, math.nan)])
def test_cap_probability_rejects_nan(r, rho, get_profile):
    with pytest.raises(InputError):
        cap_probability(get_profile("gaussian", 5), r, rho)


def test_cap_probability_monotonicities(get_profile):
    pr = get_profile("gaussian", 12)
    rs = np.linspace(0.5, 3.0, 11)
    ps = [cap_probability(pr, float(r), 0.4) for r in rs]
    assert all(b >= a for a, b in zip(ps, ps[1:]))          # grows with r
    rhos = np.linspace(0.0, 1.4, 11)
    qs = [cap_probability(pr, 1.5, float(x)) for x in rhos]
    assert all(b <= a for a, b in zip(qs, qs[1:]))          # falls with rho


def test_cap_probability_tracks_gaussian_tail(get_profile):
    # in the operating regime a = rho sqrt(m)/r <= 2 the cap probability is
    # a constant-factor match for the normal tail (ratio in [0.48, 1.02]
    # over m in 8..256; assert the safe band)
    for m in (8, 64, 256):
        pr = get_profile("gaussian", m + 1)
        for r in np.linspace(0.6 * pr.t0, 1.4 * pr.t0, 5):
            for a in np.linspace(0.1, 2.0, 8):
                rho = float(a * r / math.sqrt(m))
                p = cap_probability(pr, float(r), rho)
                tail = norm.sf(a)
                assert tail / 3.0 <= p <= 1.05 * tail


def test_cap_probability_keeps_relative_precision_deep_in_the_tail(get_profile):
    # r = t0 and rho = the c_rho = 1 plan offset of the gaussian; references
    # are 0.5 I_{1-q^2}(m/2, 1/2) at q = rho/r by mpmath (50 digits).  The
    # form 0.5 (1 - I_{q^2}(1/2, m/2)) loses p to cancellation: relative
    # error 1.4e-9 at d = 4096, and 0.0 at d = 65536.
    cases = (
        (4096, 63.99218702310462, 5.65654732115281, 7.25334582304834e-9),
        (65536, 255.99804686754936, 11.313670135803585, 5.27406021921368e-30),
    )
    for d, r, rho, ref in cases:
        p = cap_probability(get_profile("gaussian", d), r, rho)
        # conditioning: (m/2) * (relative rounding of 1 - q^2) ~ 1e-11 at m = 65535
        rel = 1e-10 if d > 4096 else 1e-12
        assert p == pytest.approx(ref, rel=rel, abs=0.0)


def test_cap_probability_gates(get_profile):
    pr = get_profile("gaussian", 5)
    with pytest.raises(InputError):
        cap_probability(pr, 0.0, 0.1)
    with pytest.raises(InputError):
        cap_probability(pr, 1.0, -0.1)


# --- sampling the polytope ---------------------------------------------------


def test_sample_polytope_shape_and_determinism(get_profile):
    pr = get_profile("gaussian", 16)
    sp = plan(pr, c_rho=1.0, seed=5)
    body = sample_polytope(sp, pr)
    body2 = sample_polytope(sp, pr)
    assert body.n_facets == sp.N_eff
    assert body.dim == 16
    assert np.allclose(np.linalg.norm(body.directions, axis=1), 1.0, atol=1e-12)
    assert np.all(body.offsets == sp.rho)
    assert np.array_equal(body.directions, body2.directions)
    other = sample_polytope(PolytopeSpec(sp.rho, sp.W, sp.N_real, sp.N_eff,
                                         sp.c_rho, seed=6), pr)
    assert not np.array_equal(body.directions, other.directions)


# --- expected surface --------------------------------------------------------


def test_expected_surface_single_facet_degenerate_case(get_profile):
    # ball d=10 at c_rho = 0.2: N_eff = 1, so the "polytope" is one half-space
    # and the Monte Carlo is exact (acceptance 1 on the only facet)
    pr = get_profile("ball", 10)
    sp = plan(pr, c_rho=0.2)
    est = expected_surface(pr, c_rho=0.2, trials=1, samples_per_facet=2000,
                           seed=0)
    assert est.value == pytest.approx(
        halfspace_surface(pr, sp.rho).value, rel=1e-14
    )
    assert est.value == pytest.approx(1.065018108267023, rel=1e-12)
    assert est.std_error == 0.0
    assert "single trial" in est.note


def test_expected_surface_determinism(get_profile):
    pr = get_profile("gaussian", 16)
    a = expected_surface(pr, c_rho=1.0, trials=4, samples_per_facet=1500, seed=3)
    b = expected_surface(pr, c_rho=1.0, trials=4, samples_per_facet=1500, seed=3)
    c = expected_surface(pr, c_rho=1.0, trials=4, samples_per_facet=1500, seed=4)
    assert (a.value, a.std_error, a.samples) == (b.value, b.std_error, b.samples)
    assert a.value != c.value


def test_expected_surface_error_shrinks_with_trials(get_profile):
    pr = get_profile("gaussian", 16)
    e8 = expected_surface(pr, c_rho=1.0, trials=8, samples_per_facet=2000, seed=0)
    e32 = expected_surface(pr, c_rho=1.0, trials=32, samples_per_facet=2000, seed=0)
    ratio = e8.std_error / e32.std_error
    assert 1.1 < ratio < 3.5  # ~2 expected; the spread estimate is noisy
    assert e8.note == ""


@pytest.mark.parametrize("samples", [1, 2])
def test_expected_surface_std_error_at_one_and_two_samples(get_profile,
                                                           monkeypatch,
                                                           samples):
    # one sample per facet gives no MC error: a single trial reports NaN
    # with a note, several trials exactly their spread.  Two samples give
    # finite errors, and several trials at least their spread.
    pr = get_profile("gp4", 16)  # N_eff = 4 (k = 3 samples), no subsampling
    single = expected_surface(pr, c_rho=1.0, trials=1,
                              samples_per_facet=samples, seed=5)
    assert math.isfinite(single.value)
    if samples == 1:
        assert math.isnan(single.std_error)
        assert single.note == (
            "unreliable: one sample per facet gives no sample variance")
    else:
        assert math.isfinite(single.std_error)
        assert "single trial" in single.note
    trial_values = []
    facet_values = construction._facet_values

    def record(*args, **kwargs):
        out = facet_values(*args, **kwargs)
        trial_values.append(out[0].sum())
        return out

    monkeypatch.setattr(construction, "_facet_values", record)
    est = expected_surface(pr, c_rho=1.0, trials=3, samples_per_facet=samples,
                           seed=5)
    spread = float(np.std(trial_values, ddof=1)) / math.sqrt(3)
    assert spread > 0.0 and est.note == ""
    if samples == 1:
        assert est.std_error == spread
    else:
        assert est.std_error >= spread


def test_expected_surface_subsample_equals_full_when_not_binding(get_profile):
    # subsampling more facets than exist must reproduce the full evaluation
    pr = get_profile("gaussian", 16)  # N_eff = 2
    full = expected_surface(pr, c_rho=1.0, trials=3, samples_per_facet=1000,
                            facet_subsample=None, seed=9)
    capped = expected_surface(pr, c_rho=1.0, trials=3, samples_per_facet=1000,
                              facet_subsample=64, seed=9)
    assert (full.value, full.std_error) == (capped.value, capped.std_error)


def test_expected_surface_below_rough_bound(get_profile):
    # every convex body obeys the moment-ratio bound, hence so does the
    # average over random polytopes
    from radsurf.functionals import rough_upper_bound

    pr = get_profile("gaussian", 64)
    est = expected_surface(pr, c_rho=1.0, trials=4, samples_per_facet=2000,
                           seed=1)
    assert est.value > 0.0
    assert est.value <= rough_upper_bound(pr) + 4.0 * est.std_error
    assert est.samples > 0


def test_expected_surface_gates(get_profile):
    pr = get_profile("gaussian", 16)
    with pytest.raises(InputError):
        expected_surface(pr, trials=0)
    with pytest.raises(InputError):
        expected_surface(pr, samples_per_facet=0)
    with pytest.raises(InputError):
        expected_surface(pr, facet_subsample=0)


# --- the exact expectation ------------------------------------------------


# E[surface] of the Gaussian plan at c_rho = 1 by scipy quad on 32 pieces of
# the law's window (quadrature error at most 6.3e-15), to 6 digits
EXACT_PLAN = {16: 0.275253, 64: 0.328413, 256: 0.424973, 1024: 0.563149}


@pytest.mark.parametrize("d", sorted(EXACT_PLAN))
def test_expected_surface_exact_reproduces_the_quadrature_table(get_profile, d):
    est = expected_surface_exact(get_profile("gaussian", d), c_rho=1.0)
    assert (est.method, est.std_error, est.samples) == ("exact", 0.0, 0)
    assert abs(est.value - EXACT_PLAN[d]) < 5e-7


def test_expected_surface_exact_of_one_facet_is_the_halfspace(get_profile):
    pr = get_profile("gaussian", 8)
    spec = plan(pr, c_rho=0.2)
    assert spec.N_eff == 1
    est = expected_surface_exact(pr, c_rho=0.2)
    assert abs(est.value - halfspace_surface(pr, spec.rho).value) <= 1e-12


@pytest.mark.parametrize("name", ["gp4", "table"])
def test_expected_surface_exact_agrees_with_monte_carlo(get_profile, name):
    # a smooth and a kinked potential at d = 16: the mean over random
    # polytopes by facet MC lies within 4 sigma
    pr = get_profile(name, 16)
    exact = expected_surface_exact(pr, c_rho=1.0).value
    mc = expected_surface(pr, c_rho=1.0, trials=64, samples_per_facet=500,
                          seed=4)
    assert abs(mc.value - exact) <= 4.0 * mc.std_error


def test_expected_surface_exact_raises_when_its_rule_does_not_converge(
        get_profile, monkeypatch):
    monkeypatch.setattr(construction, "_EXACT_NODES", 1)
    monkeypatch.setattr(construction, "_EXACT_MAX_NODES", 2)
    with pytest.raises(QuadratureError, match="did not converge"):
        expected_surface_exact(get_profile("gaussian", 64), c_rho=1.0)


def test_expected_surface_exact_serves_plans_too_large_to_sample(get_profile):
    # the plan that sample_polytope cannot allocate still has its value
    pr = get_profile("gaussian", 256)
    spec = plan(pr, c_rho=3.0)
    with pytest.raises(DegeneratePlanError):
        sample_polytope(spec, pr)
    est = expected_surface_exact(pr, c_rho=3.0)
    assert 0.0 < est.value < 2.0 * expected_surface_exact(pr, c_rho=1.0).value


def test_two_facet_plans_draw_nothing_and_meet_the_exact_value(get_profile):
    # at d = 16 the Gaussian plan has N_eff = 2 facets with one neighbour
    # each: every trial is its polytope's closed form, so no direction is
    # drawn, and the mean over polytopes lies within 4 sigma of the exact
    # expectation
    pr = get_profile("gaussian", 16)
    exact = expected_surface_exact(pr, c_rho=1.0).value
    for trials, seed in ((2, 0), (64, 1)):
        est = expected_surface(pr, c_rho=1.0, trials=trials,
                               samples_per_facet=20_000, seed=seed)
        assert est.samples == 0 and est.note == ""
        assert abs(est.value - exact) <= 4.0 * est.std_error
