"""End-to-end acceptance suite.

Ten independent criteria covering the exact identities, the scaling laws,
the Monte Carlo oracles, certificate soundness, the random-polytope
construction, the counterexample measures, and full determinism.  Each
criterion prints (and records) a single PASS/FAIL line; the recorded lines
are replayed after the run by a terminal-summary hook.
"""

import math

import numpy as np
import pytest

from radsurf.bodies import (
    Ball,
    HalfSpace,
    cube_lebesgue_check,
    halfspace_surface,
    minkowski_fd_surface,
    polytope_surface_mc,
    sphere_surface,
)
from radsurf.certificates import certificate_upper_bound
from radsurf.construction import expected_surface
from radsurf.functionals import (
    profile,
    rough_upper_bound,
    theorem_bound,
    theorem_bound_probabilistic,
)
from radsurf.potential import shell

from conftest import MEASURE_NAMES, circumscribed_polytope

RESULTS = []

E = math.e


def report(n, label, ok, detail=""):
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" -- {detail}"
    print(line)
    RESULTS.append(line)
    assert ok, line


def _slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# --- deterministic recomputable Monte Carlo pieces (shared with criterion 10)


def compute_fd(get_profile):
    pr = get_profile("gaussian", 3)
    ball_est = minkowski_fd_surface(pr, Ball(1.0), epsilon=1e-3,
                                    samples=10_000_000, seed=123)
    hs_est = minkowski_fd_surface(
        pr, HalfSpace([1.0, 0.0, 0.0], 0.0), epsilon=1e-3,
        samples=10_000_000, seed=123,
    )
    return ball_est, hs_est


def compute_polytope_cases(get_profile):
    out = []
    k = 0
    for d in (3, 8, 16):
        for name in ("gaussian", "gp1"):
            pr = get_profile(name, d)
            for j in range(4 if d == 3 else 3):
                rho = (0.35 + 0.3 * j) * pr.t0
                n = d + 1 + 2 * j
                seed = 1000 + k
                k += 1
                body = circumscribed_polytope(d, rho, n, seed)
                cert = certificate_upper_bound(pr, body)
                est = polytope_surface_mc(pr, body, samples_per_facet=10_000,
                                          seed=seed)
                out.append((name, d, est, cert, rough_upper_bound(pr)))
    return out


CONSTRUCTION_GRID = ((16, 256), (64, 96), (256, 16))


def compute_construction(get_profile):
    out = {}
    for d, trials in CONSTRUCTION_GRID:
        pr = get_profile("gaussian", d)
        out[d] = expected_surface(pr, c_rho=1.0, trials=trials,
                                  samples_per_facet=20_000,
                                  facet_subsample=64, seed=0)
    return out


@pytest.fixture(scope="session")
def fd_results(get_profile):
    return compute_fd(get_profile)


@pytest.fixture(scope="session")
def polytope_results(get_profile):
    return compute_polytope_cases(get_profile)


@pytest.fixture(scope="session")
def construction_results(get_profile):
    return compute_construction(get_profile)


# --- criteria ----------------------------------------------------------------


def test_criterion_01_exact_identities(get_profile):
    worst = (0.0, "")
    for name in MEASURE_NAMES:
        for d in (4, 8, 16, 64, 256):
            pr = get_profile(name, d)
            m = pr.m
            logJ = pr.log_J[m].log
            cell = f"{name} d={d}"
            # the mode column dominates at least 1/(m+1) of the moment
            assert (pr.log_gm_t0.log + math.log(pr.t0 / (m + 1))
                    <= logJ + 1e-9), cell
            # one-nat spread window around the mode
            ratio = math.exp(logJ - pr.log_gm_t0.log) / (pr.lambda_sum * pr.t0)
            assert 1 / E - 1e-9 <= ratio <= (E + 1) / E + 1e-9, cell
            # spread bands
            lo = (E / (E + 1)) / (m + 1)
            hi = 2 * math.sqrt(2 * math.pi) * E / math.sqrt(m)
            assert lo <= pr.lambda_sum <= hi, cell
            assert pr.lambda_i >= lo, cell
            # the potential stays below m at the mode (left limit at cutoffs)
            assert pr.phi.value(pr.t0) <= m + 1e-12, cell
            # moment identity E|X| = J_{m+1}/J_m
            rel = abs(math.exp(pr.log_J[m + 1].log - logJ) - pr.expectation)
            rel /= pr.expectation
            assert rel < 1e-10, cell
            if rel > worst[0]:
                worst = (rel, cell)
    report(1, "exact identities on 5 measures x 5 dimensions", True,
           f"25 cells, worst moment-identity rel err {worst[0]:.1e}")


def test_criterion_02_gaussian_scaling(get_profile):
    ds = [8, 16, 32, 64, 128, 256, 512]
    tbs = [theorem_bound(get_profile("gaussian", d)) for d in ds]
    slope = _slope(ds, tbs)
    rats = [tb / d**0.25 for tb, d in zip(tbs, ds)]
    var = max(rats) / min(rats)
    ok = abs(slope - 0.25) <= 0.03 and var < 2.0
    report(2, "gaussian scaling target grows like d^(1/4)", ok,
           f"slope {slope:.4f} (want 0.25±0.03), prefactor variation x{var:.3f}")


def test_criterion_03_power_family_scaling():
    ds = [16, 32, 64, 128, 256, 512]
    details = []
    ok = True
    for p in (1.0, 2.0, 4.0):
        from radsurf.potential import power

        tbs = [theorem_bound(profile(power(p), d)) for d in ds]
        slope = _slope(ds, tbs)
        target = 0.75 - 1.0 / p
        ok = ok and abs(slope - target) <= 0.05
        details.append(f"p={p:g}: {slope:+.4f} vs {target:+.2f}")
    report(3, "power-potential scaling exponents 3/4 - 1/p", ok,
           "; ".join(details))


def test_criterion_04_ball_measure(get_profile):
    ds = list(range(3, 129))
    worst = 0.0
    for d in ds:
        v = sphere_surface(get_profile("ball", d), 1.0).value
        worst = max(worst, abs(v - d) / d)
    tbs = [theorem_bound(get_profile("ball", d)) for d in ds]
    slope = _slope(ds, tbs)
    ok = worst < 1e-9 and abs(slope - 1.0) <= 0.03
    report(4, "uniform ball: unit-sphere value d, scaling slope 1", ok,
           f"worst sphere rel err {worst:.1e}, slope {slope:.4f}")


def test_criterion_05_halfspace_values(get_profile):
    c = 1.0 / math.sqrt(2 * math.pi)
    ok = True
    for d in (2, 10, 100):
        for rho in (0.0, 0.5, 2.0):
            v = halfspace_surface(get_profile("gaussian", d), rho).value
            ok = ok and abs(v - c * math.exp(-rho * rho / 2)) <= 1e-8
    v3 = halfspace_surface(get_profile("ball", 3), 0.0).value
    ok = ok and abs(v3 - 0.75) <= 1e-8
    worst = 0.0
    for name in MEASURE_NAMES:
        pr = get_profile(name, 256)
        r = halfspace_surface(pr, 0.0).value * pr.t0 / math.sqrt(pr.m)
        worst = max(worst, abs(r / c - 1.0))
    ok = ok and worst <= 0.05
    report(5, "half-space values: gaussian constant, ball 3/4, "
              "universal sqrt(m)/t0 limit", ok,
           f"worst limit deviation {worst:.2%} at d=256")


def test_criterion_06_finite_difference_oracle(get_profile, fd_results):
    pr = get_profile("gaussian", 3)
    ball_est, hs_est = fd_results
    exact_b = sphere_surface(pr, 1.0).value
    exact_h = halfspace_surface(pr, 0.0).value
    db = abs(ball_est.value - exact_b)
    dh = abs(hs_est.value - exact_h)
    ok_b = db <= max(0.02 * exact_b, 3.0 * ball_est.std_error)
    ok_h = dh <= max(0.02 * exact_h, 3.0 * hs_est.std_error)
    report(6, "Minkowski difference quotient matches exact formulas", ok_b and ok_h,
           f"ball dev {db / exact_b:.2%} ({db / ball_est.std_error:.1f} sigma), "
           f"half-space dev {dh / exact_h:.2%} ({dh / hs_est.std_error:.1f} sigma)")


def test_criterion_07_certificate_soundness(polytope_results):
    bad = []
    for name, d, est, cert, rough in polytope_results:
        if not (est.value - 3.0 * est.std_error <= cert.value
                <= rough * (1 + 1e-12)):
            bad.append(f"{name} d={d}")
    report(7, "certificates dominate MC on 20 random circumscribed polytopes",
           not bad, f"{len(polytope_results)} cases" +
           (f"; violations: {', '.join(bad)}" if bad else ""))


def test_criterion_08_construction_scaling(get_profile, construction_results):
    ds = [d for d, _ in CONSTRUCTION_GRID]
    vals, ratios, ok = [], [], True
    for d in ds:
        est = construction_results[d]
        tb = theorem_bound(get_profile("gaussian", d))
        vals.append(est.value)
        ratios.append(est.value / tb)
        ok = ok and est.value + 3.0 * est.std_error >= 0.05 * tb \
            and est.value - 3.0 * est.std_error > 0
    slope = _slope(ds, vals)
    ok = ok and slope >= 0.15
    report(8, "random polytopes realize >= 5% of the scaling target, growing",
           ok, "ratios " + ", ".join(f"d={d}: {r:.3f}" for d, r in
                                     zip(ds, ratios)) + f"; slope {slope:.4f}")


def test_criterion_09_counterexamples():
    # cube under the Lebesgue-style moment bound: the probabilistic target
    # underestimates the true surface by a growing power of d
    ds = [8, 16, 32, 64, 128, 256, 512]
    ratios = []
    ok = True
    for d in ds:
        c = cube_lebesgue_check(d)
        ok = ok and c.surface == 2.0 * d
        tbp = math.sqrt(d) / (math.sqrt(c.expectation) * c.variance**0.25)
        ratios.append(c.surface / tbp)
    slope = _slope(ds, ratios)
    ok = ok and abs(slope - 0.75) <= 0.1
    # thin shell: boundary measure of the core sphere dwarfs the moment target
    pr = profile(shell(1.0, 1e-5, allow_non_logconcave=True), 51)
    ratio = sphere_surface(pr, 1.0 - 5e-6).value / theorem_bound_probabilistic(pr)
    ok = ok and ratio > 10.0
    report(9, "cube and thin-shell counterexamples break the moment target",
           ok, f"cube ratio slope {slope:.4f} (want 0.75±0.1), "
               f"shell excess x{ratio:.1f}")


def test_criterion_10_determinism(get_profile, fd_results, polytope_results,
                                  construction_results):
    fd2 = compute_fd(get_profile)
    same_fd = all(
        (a.value, a.std_error, a.samples) == (b.value, b.std_error, b.samples)
        for a, b in zip(fd_results, fd2)
    )
    poly2 = compute_polytope_cases(get_profile)
    same_poly = all(
        (a[2].value, a[2].std_error, a[3].value)
        == (b[2].value, b[2].std_error, b[3].value)
        for a, b in zip(polytope_results, poly2)
    )
    cons2 = compute_construction(get_profile)
    same_cons = all(
        (construction_results[d].value, construction_results[d].std_error)
        == (cons2[d].value, cons2[d].std_error)
        for d, _ in CONSTRUCTION_GRID
    )
    report(10, "every Monte Carlo criterion reruns byte-identically",
           same_fd and same_poly and same_cons,
           f"fd={same_fd}, polytopes={same_poly}, construction={same_cons}")
