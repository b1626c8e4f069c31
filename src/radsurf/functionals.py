"""Scalar functionals of a radial measure: moments, the characteristic
radius, spread parameters, and the maximal-surface-area bounds.

Everything here is driven by the radial profile g_k(t) = t^k exp(-phi(t)).
For a measure on R^d the relevant exponent is m = d - 1, and the central
objects are

* ``t0``      -- the maximizer of g_m (root of t phi'(t) = m, or the support
                 radius when the profile is still rising at a hard cutoff);
* ``J_k``     -- the moment integrals  J_k = int_0^inf t^k exp(-phi(t)) dt;
* ``lambda``  -- the relative width of the band where g_m stays within a
                 factor e of its maximum (inner and outer parts);
* ``lambda_ratio`` -- J_m / (t0 g_m(t0)), the effective width used by the
                 maximal surface area law  max_Q mu(dQ) ~ sqrt(m) / (sqrt(
                 lambda_ratio) t0).

Every radial integral of the package is one member of the family

    I_k(rho) = int_0^{s_max} s^k exp(-phi(sqrt(rho^2 + s^2))) ds,
    s_max = sqrt(R^2 - rho^2)  (R the support radius),

and `_radial_law(phi, k, rho)` is the one place that builds its integrand,
peak, support edge and window.  Each operation builds each law it needs
once and reads everything from it (a law solves its window once):

* `profile` builds I_k(0), k = m-1 .. m+2: ``J_k`` are their integrals,
  ``t0`` is the peak of I_m(0), and the peak of I_{m+1}(0), which the
  certificate reads, is kept on the profile (`_next_mode`);
* the half-space boundary measure at offset rho is C_d m nu_m I_{m-1}(rho),
  and facet Monte Carlo builds that law once per distinct facet offset, for
  both this value and the on-hyperplane radius table;
* the point sampler builds I_m(0) once per profile for its radius table,
  `bodies.sphere_argmax` builds it per call, and
  `solve_t0(phi, k)` builds I_k(0) for its peak alone.

Expectations over a law, E_s[g(s)] under the normalised integrand, come
from `_RadialLaw.expect`: a Gauss-Legendre rule on each piece of the
window, with the gap to the rule of twice as many nodes as its error, for
many functions g at once.  Facet Monte Carlo's pair-cut means and
`construction.expected_surface_exact` read it.

All integrals are evaluated in the log domain: the integrand is normalized
by its peak value and restricted to the window where it stays within
exp(-60) of the peak, which keeps every exponent in range for any dimension.
The quadrature's relative error on the window is checked to be at most
1e-10; the mass the window cuts off is not yet bounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, gammaln

from .errors import InputError, NormalizationError, QuadratureError
from .potential import RadialPotential

__all__ = [
    "MeasureProfile",
    "solve_t0",
    "solve_lambda_inner",
    "solve_lambda_outer",
    "profile",
    "theorem_bound",
    "theorem_bound_probabilistic",
    "rough_upper_bound",
    "tail_mass_bound",
    "mu_candidate",
    "psi",
    "log_ball_volume",
]

#: Window half-depth in nats: integrands are truncated where they fall this
#: far below their peak (exp(-60) ~ 8.8e-27 of the peak value).
WINDOW_NATS = 60.0

#: Relative error estimate every radial quadrature must stay within.
_REL_TOL = 1e-10


#: The most bisection steps of `_pred_edge`; it stops earlier once the
#: midpoint rounds to an end of the bracket.
_BISECT_STEPS = 200


def _pred_edge(pred, t_true, t_false):
    """Boundary point of a monotone predicate by bisection.

    ``pred`` holds at ``t_true`` and fails at ``t_false`` (either ordering).
    Returns the point adjacent to the True side, to machine precision.
    Plain bisection is used throughout: it is safe for kinked (tabulated)
    potentials where Newton steps are not.
    """
    a, b = t_true, t_false
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if pred(mid):
            a = mid
        else:
            b = mid
    return a


_BRACKET_CAP = 1e154


def _one_nat_step(phi, r, rise, x_edge):
    """The step x at which rise(x, phi(r(x))) first exceeds one nat,
    by bisection from x = 0, where it must be at most one.

    r(x) is the radius that step x reaches, nondecreasing in x; phi is read
    at min(r(x), R), so a step that rounds past the support radius R reads
    the edge value.  x_edge is the step that reaches R (inf without a
    cutoff); returns None when the rise there is at most one nat.  Without
    a cutoff the bracket doubles up to 1e154 (NormalizationError beyond).
    """
    R = phi.support_radius

    def pred(x):
        return rise(x, phi.value(min(r(x), R))) <= 1.0

    if math.isfinite(x_edge):
        if pred(x_edge):
            return None
        hi = x_edge
    else:
        hi = 1.0
        while pred(hi):
            hi *= 2.0
            if hi > _BRACKET_CAP:
                raise NormalizationError(
                    "the profile never climbs one nat within a step of "
                    "1e154; the measure is not normalizable"
                )
    return _pred_edge(pred, 0.0, hi)


@dataclass(frozen=True)
class _RadialLaw:
    """The integrand s^k exp(-phi(sqrt(rho^2 + s^2))) of I_k(rho) on
    [0, s_max], built by `_radial_law`.

    ``logf`` is its logarithm (-inf where phi is infinite), ``logf_vec``
    the same on arrays, and ``breaks`` the images of the potential's kinks.
    The window is solved once, on first use.
    """

    logf: Callable[[float], float]
    logf_vec: Callable[[np.ndarray], np.ndarray]
    peak: float
    log_peak: float
    s_max: float
    breaks: Tuple[float, ...]

    @cached_property
    def window(self):
        """[a, b] where the integrand stays within WINDOW_NATS of its peak."""
        logf, peak, hi = self.logf, self.peak, self.s_max
        target = self.log_peak - WINDOW_NATS

        def pred(s):
            return logf(s) >= target

        if peak == 0.0 or logf(0.0) >= target:
            a = 0.0
        else:
            a = _pred_edge(pred, peak, 0.0)

        if math.isfinite(hi):
            b = hi if logf(hi) >= target else _pred_edge(pred, peak, hi)
        else:
            anchor = peak
            span = max(peak, 1.0)
            while pred(peak + span):
                anchor = peak + span
                span *= 2.0
                if anchor > 1e300:
                    raise QuadratureError("integrand window extends beyond 1e300")
            b = _pred_edge(pred, anchor, peak + span)
        return a, b

    def log_integral(self):
        """log I_k(rho) by one `quad` call on the peak-normalized integrand
        over the window, with the kinks and the peak inside it as break
        points.  QuadratureError (with the achieved error) when the error
        estimate exceeds _REL_TOL relative; that checks the window only."""
        a, b = self.window
        logf, log_peak = self.logf, self.log_peak

        def f(s):
            return math.exp(min(logf(s) - log_peak, 0.0))

        pts = sorted(x for x in (*self.breaks, self.peak) if a < x < b)
        val, err = quad(f, a, b, points=pts or None, limit=800,
                        epsabs=0.0, epsrel=1e-12)
        if err > _REL_TOL * abs(val):
            raise QuadratureError(
                f"quadrature did not converge: error estimate {err:.3e} "
                f"exceeds {_REL_TOL:.1e} x {abs(val):.6e}",
                achieved_error=err,
            )
        return log_peak + math.log(val)

    def expect(self, g, nodes, points=()):
        """(E[g(s)], error) under the law's density, normalised on its
        window: a Gauss-Legendre rule of `nodes` and of 2 `nodes` nodes on
        each piece of the window between its ends, the peak, the kinks and
        the `points` inside it (where g is not smooth), the value from the
        finer rule and the error the two rules' gap.

        g maps the nodes, a 1-D array, to an array whose last axis runs
        over them, so one call gives the expectations of many functions;
        the value and the error have g's other axes.  Like `log_integral`
        it leaves out the mass beyond the window, exp(-WINDOW_NATS) of the
        peak and below."""
        a, b = self.window
        ends = np.array(sorted({a, b, *(x for x in (*self.breaks, self.peak,
                                                    *points) if a < x < b)}))
        half = 0.5 * np.diff(ends)
        mid = ends[:-1] + half
        rules = []
        for n in (nodes, 2 * nodes):
            x, w = _gauss_legendre(n)
            s = (mid[:, None] + half[:, None] * x).ravel()
            f = (half[:, None] * w).ravel() * np.exp(
                np.minimum(self.logf_vec(s) - self.log_peak, 0.0))
            rules.append(np.asarray(g(s)) @ f / f.sum())
        return rules[1], np.abs(rules[1] - rules[0])


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    read-only and cached."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _cap_tail(m, q):
    """P(u_1 > q) for u uniform on the unit sphere of R^(m+1) and q >= 0,
    on arrays: 0.5 I_{(1-q)(1+q)}(m/2, 1/2), the regularized incomplete
    beta ratio read as the upper tail so that it keeps full relative
    precision as it goes to 0, and 0 from q = 1 on.  Below q = 1e-4, where
    (1 - q)(1 + q) rounds away most of q^2 (at q = 1e-9 and m = 1022 the
    upper form is off by 1e-8), it is read as 0.5 (1 - I_{q^2}(1/2, m/2)),
    which keeps its digits there: the tail is above 0.15 up to m = 1e8."""
    q = np.asarray(q, dtype=float)
    low = q < 1e-4
    out = np.empty(q.shape)
    out[low] = 1.0 - betainc(0.5, 0.5 * m, q[low] * q[low])
    q = q[~low]
    out[~low] = betainc(0.5 * m, 0.5, np.maximum((1.0 - q) * (1.0 + q), 0.0))
    return 0.5 * out


def _radial_law(phi, k, rho=0.0):
    """The integrand of I_k(rho) = int_0^{s_max} s^k exp(-phi(r)) ds,
    r = sqrt(rho^2 + s^2), with its peak, as a `_RadialLaw`.

    The log-integrand is unimodal: s^2 phi'(r)/r - k is nondecreasing in s
    and the peak is where it crosses zero, found by bisection (the
    potential may be kinked).  When it never reaches zero below a hard
    cutoff the peak is s_max.  For k = 0 the peak is s = 0 when the
    density is finite there, else (annular support) the midpoint of the
    reachable annulus.  s_max is the largest double with
    hypot(rho, s_max) <= R, so logf(s_max) is finite; the vectorised form
    reads phi at min(hypot(rho, s), R) because np.hypot can round past R
    there.

    Raises NormalizationError when the peak lies beyond 1e154 (the profile
    never turns over) or below 1e-154 (it peaks at radius 0), and
    InputError for a finite support radius whose square overflows.
    """
    R = phi.support_radius
    s_max = math.inf
    if math.isfinite(R):
        if math.isinf(R * R):
            raise InputError(f"support radius {R:g} is too large: its square "
                             "overflows")
        s_max = math.sqrt(R * R - rho * rho)
        while math.hypot(rho, s_max) > R:
            s_max = math.nextafter(s_max, 0.0)

    def logf(s):
        if s < 0.0:
            return -math.inf
        v = phi.value(math.hypot(rho, s))
        if not math.isfinite(v):
            return -math.inf
        if k == 0:
            return -v
        return -math.inf if s == 0.0 else k * math.log(s) - v

    def logf_vec(s):
        s = np.asarray(s, dtype=float)
        val = phi.value(np.minimum(np.hypot(rho, s), R))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = k * np.log(s) - val if k else -val
        return np.where(np.isfinite(val) & ((s > 0) | (k == 0)), out, -np.inf)

    if k == 0:
        if math.isfinite(logf(0.0)):
            peak = 0.0
        elif math.isfinite(R):
            r_mid = 0.5 * (max(rho, phi.inner_support_radius) + R)
            peak = math.sqrt(max(r_mid * r_mid - rho * rho, 0.0))
        else:
            raise InputError("potential must be finite at the origin")
    else:

        def excess(s):
            r = math.hypot(rho, s)
            return s * s * phi.derivative(r) / r - k

        if math.isfinite(s_max):
            hi = s_max * (1.0 - 1e-12)
        else:
            hi = 1.0
            while excess(hi) <= 0.0:
                hi *= 2.0
                if hi > _BRACKET_CAP:
                    raise NormalizationError(
                        "radial profile t^m exp(-phi(t)) never turns over; "
                        "the measure is not normalizable"
                    )
        if excess(hi) <= 0.0:
            peak = s_max  # still rising at the cutoff
        else:
            lo = hi
            while excess(lo) > 0.0:
                lo *= 0.5
                if lo < 1.0 / _BRACKET_CAP:
                    raise NormalizationError("radial profile peaks at radius 0")
            peak = _pred_edge(lambda s: excess(s) <= 0.0, lo, hi)

    breaks = tuple(math.sqrt(t * t - rho * rho)
                   for t in phi.interior_knots() if t > rho)
    return _RadialLaw(logf, logf_vec, peak, logf(peak), s_max, breaks)


def solve_t0(phi, m):
    """Maximizer of the radial profile t^m exp(-phi(t)) for integer m >= 1:
    the peak of I_m(0).

    Interior maximizers solve t phi'(t) = m (the left side is nondecreasing
    for convex nondecreasing phi); when the profile is still rising at a
    hard support cutoff the cutoff radius itself is returned.  Raises
    NormalizationError when the profile never turns over, i.e. the measure
    cannot be normalized.
    """
    if m < 1:
        raise InputError(f"radial exponent must be >= 1, got {m}")
    return _radial_law(phi, m).peak


def _deficit(phi, m, t0):
    """The log-profile deficit
    x -> phi(t0 (1+x)) - phi(t0) - m log(1+x),  x > -1,
    with phi(t0) evaluated once.  It is log g_m(t0) - log g_m(t0 (1+x)):
    zero at x = 0 and nonnegative when t0 is the mode of g_m, and +inf
    beyond the support."""
    phi_t0 = phi.value(t0)

    def deficit(x):
        return phi.value(t0 * (1.0 + x)) - phi_t0 - m * math.log1p(x)

    return deficit


def solve_lambda_inner(phi, m, t0):
    """Relative inner width: smallest u in (0, 1) with
    g_m(t0 (1 - u)) = g_m(t0) / e, i.e.
    phi(t0(1-u)) - phi(t0) - m log(1-u) = 1."""
    deficit = _deficit(phi, m, t0)
    return _pred_edge(lambda u: deficit(-u) <= 1.0, 0.0, 1.0)


def solve_lambda_outer(phi, m, t0):
    """Relative outer width: the drop radius of g_m beyond t0.

    Solves phi(t0(1+x)) - phi(t0) - m log(1+x) = 1 for x > 0.  When the
    support ends before the profile has dropped by a full nat the distance
    to the support edge is returned instead (0 when t0 is itself the
    cutoff), so the outer width always measures how far beyond t0 the
    profile stays within a factor e of its peak.
    """
    x_max = phi.support_radius / t0 - 1.0
    if x_max <= 0.0:
        return 0.0
    phi_t0 = phi.value(t0)
    x = _one_nat_step(phi, lambda x: t0 * (1.0 + x),
                      lambda x, v: v - phi_t0 - m * math.log1p(x), x_max)
    return x_max if x is None else x


@dataclass(frozen=True)
class MeasureProfile:
    """Memoized scalar functionals of a radial measure on R^d.

    Holds everything downstream consumers (surface formulas, certificates,
    the polytope construction) need, so the potential is only integrated
    once per (phi, d) pair.  ``log_gm_t0`` and ``log_J`` hold natural logs.
    """

    phi: RadialPotential
    d: int
    t0: float
    log_gm_t0: float
    log_J: Dict[int, float]
    lambda_i: float
    lambda_o: float
    expectation: float
    variance: float

    @property
    def m(self):  # the radial exponent
        return self.d - 1

    @property
    def lambda_sum(self):
        return self.lambda_i + self.lambda_o

    @property
    def lambda_ratio(self):
        """J_m / (t0 g_m(t0)): the effective relative width of the profile."""
        return math.exp(self.log_Jm - math.log(self.t0) - self.log_gm_t0)

    @property
    def log_Jm(self):
        return self.log_J[self.m]

    @property
    def log_normalizer(self):
        """log C_d for the density C_d exp(-phi(|x|)): C_d = 1/(d nu_d J_m)."""
        return -(math.log(self.d) + log_ball_volume(self.d) + self.log_Jm)

    @property
    def support_radius(self):
        return self.phi.support_radius


def profile(phi, d):
    """Compute the full functional profile of the measure exp(-phi(|x|)) on R^d."""
    if int(d) != d or d < 2:
        raise InputError(f"dimension must be an integer >= 2, got {d}")
    d = int(d)
    m = d - 1
    law_m = _radial_law(phi, m)  # t0 is its peak and g_m(t0) its peak value
    t0 = law_m.peak
    laws = {k: law_m if k == m else _radial_law(phi, k)
            for k in (m - 1, m, m + 1, m + 2)}
    log_J = {k: law.log_integral() for k, law in laws.items()}
    expectation = math.exp(log_J[m + 1] - log_J[m])
    second_moment = math.exp(log_J[m + 2] - log_J[m])
    variance = second_moment - expectation * expectation
    if variance <= 0.0:
        raise QuadratureError(
            "moment cancellation: second central moment not resolvable "
            "at quadrature accuracy"
        )
    prof = MeasureProfile(
        phi=phi,
        d=d,
        t0=t0,
        log_gm_t0=law_m.log_peak,
        log_J=log_J,
        lambda_i=solve_lambda_inner(phi, m, t0),
        lambda_o=solve_lambda_outer(phi, m, t0),
        expectation=expectation,
        variance=variance,
    )
    object.__setattr__(prof, "_t_next", laws[m + 1].peak)
    return prof


def _next_mode(prof):
    """t_{m+1}, the peak of I_{m+1}(0) (`solve_t0(phi, m + 1)`), which the
    certificate reads.  `profile` keeps it on the profile, beside the
    radius table of `bodies._radial_table`: no dataclass field, so equality
    and repr ignore it.  A profile built otherwise solves it on first use
    and keeps it."""
    t = vars(prof).get("_t_next")
    if t is None:
        t = solve_t0(prof.phi, prof.m + 1)
        object.__setattr__(prof, "_t_next", t)
    return t


def theorem_bound(prof):
    """Scaling law for the maximal boundary measure:
    sqrt(m) / (sqrt(lambda_ratio) t0)."""
    return math.sqrt(prof.m) / (math.sqrt(prof.lambda_ratio) * prof.t0)


def theorem_bound_probabilistic(prof):
    """Moment form of the scaling law:
    sqrt(d) / (sqrt(E|X|) (Var|X|)^(1/4))."""
    return math.sqrt(prof.d) / (
        math.sqrt(prof.expectation) * prof.variance ** 0.25
    )


def rough_upper_bound(prof):
    """Dimension-dependent bound m J_{m-1} / J_m valid for every convex body."""
    return prof.m * math.exp(prof.log_J[prof.m - 1] - prof.log_J[prof.m])


def psi(prof, x):
    """Log-profile deficit at radius (1+x) t0:

        psi(x) = phi((1+x) t0) - phi(t0) - m log(1+x),  x > -1.

    Zero at x = 0, nonnegative, nondecreasing in |x| on each side of 0
    (t0 maximizes the log profile); +inf once (1+x) t0 leaves the support.
    """
    if not x > -1.0:
        raise InputError(f"deficit argument must be > -1, got {x}")
    return _deficit(prof.phi, prof.m, prof.t0)(x)


def tail_mass_bound(phi, m, t0, x, psi_floor):
    """Natural logarithm of an upper bound for the unnormalized radial tail
    int_{(1+x) t0}^inf t^m exp(-phi(t)) dt.

    The caller supplies any positive psi_floor not exceeding the log-profile
    deficit psi = phi((1+x)t0) - phi(t0) - m log(1+x); the bound is then
    x t0 g_m(t0) / (psi_floor e^psi_floor), the estimate a bound on the
    mass beyond the 60-nat quadrature window would start from.
    """
    if x <= 0:
        raise InputError(f"tail bound requires x > 0, got {x}")
    if psi_floor <= 0:
        raise InputError(f"tail bound requires psi_floor > 0, got {psi_floor}")
    deficit = _deficit(phi, m, t0)(x)
    if not psi_floor <= deficit + 1e-12 * max(1.0, abs(deficit)):
        raise InputError(
            f"tail hypothesis not satisfied: psi_floor={psi_floor:.6g} "
            f"exceeds the log-profile deficit {deficit:.6g} at x={x:.6g}"
        )
    log_g_t0 = m * math.log(t0) - phi.value(t0)
    return math.log(x) + math.log(t0) + log_g_t0 - math.log(psi_floor) - psi_floor


def mu_candidate(prof, mu=None):
    """Candidate annulus half-width for the remainder bound, with its check.

    Default candidate mu = log(m)/sqrt(m).  Returns (mu, ok) where ok
    requires the chain  psi(mu) >= log(mu sqrt(m / lambda_sum)) >= 1,
    i.e. the profile drops fast enough beyond (1+mu) t0 for the annulus
    remainder bound to hold with this mu.
    """
    m = prof.m
    if mu is None:
        mu = math.log(m) / math.sqrt(m) if m > 1 else 1.0
    if mu <= 0:
        raise InputError(f"annulus half-width must be positive, got {mu}")
    lam = prof.lambda_sum
    log_term = math.log(mu * math.sqrt(m / lam)) if lam > 0 else math.inf
    ok = psi(prof, mu) >= log_term >= 1.0
    return mu, bool(ok)


def log_ball_volume(d):
    """log of the volume of the unit ball in R^d."""
    return float(0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0))
