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

All integrals are evaluated in the log domain: the integrand is normalized
by its peak value and restricted to the window where it stays within
exp(-60) of the peak, which keeps every exponent in range for any dimension
while bounding the truncation error far below the 1e-10 relative target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import InputError, NormalizationError, QuadratureError
from .potential import RadialPotential

__all__ = [
    "LogScalar",
    "MeasureProfile",
    "solve_t0",
    "log_Jm",
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
    "log_peaked_integral",
    "integrand_window",
    "profile_window",
]

#: Window half-depth in nats: integrands are truncated where they fall this
#: far below their peak.  exp(-60) ~ 8.8e-27 keeps truncation error far
#: below the 1e-10 relative quadrature target.
WINDOW_NATS = 60.0

_REL_TOL = 1e-10


@dataclass(frozen=True)
class LogScalar:
    """A positive scalar stored as its natural logarithm."""

    log: float

    @classmethod
    def from_value(cls, x):
        if x <= 0:
            raise InputError(f"LogScalar requires a positive value, got {x}")
        return cls(math.log(x))

    @property
    def value(self):
        return math.exp(self.log)

    def __float__(self):
        return self.value

    def __mul__(self, other):
        return LogScalar(self.log + other.log)

    def __truediv__(self, other):
        return LogScalar(self.log - other.log)


def _pred_edge(pred, t_true, t_false, iters=200):
    """Boundary point of a monotone predicate by bisection.

    ``pred`` holds at ``t_true`` and fails at ``t_false`` (either ordering).
    Returns the point adjacent to the True side, to machine precision.
    Plain bisection is used throughout: it is safe for kinked (tabulated)
    potentials where Newton steps are not.
    """
    a, b = t_true, t_false
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if pred(mid):
            a = mid
        else:
            b = mid
    return a


def edge_value(phi, t):
    """phi(t), using the limit from below exactly on the support boundary."""
    R = phi.support_radius
    if math.isfinite(R) and R * (1.0 - 1e-15) <= t <= R:
        return float(phi.left_value(min(t, R)))
    return float(phi.value(t))


_BRACKET_CAP = 1e154


def solve_t0(phi, m):
    """Maximizer of the radial profile t^m exp(-phi(t)) for integer m >= 1.

    Interior maximizers solve t phi'(t) = m (the left side is nondecreasing
    for convex nondecreasing phi); when the profile is still rising at a
    hard support cutoff the cutoff radius itself is returned.  Raises
    NormalizationError when the profile never turns over, i.e. the measure
    cannot be normalized.
    """
    if m < 1:
        raise InputError(f"radial exponent must be >= 1, got {m}")

    def nu(t):
        return t * float(phi.derivative(t))

    R = phi.support_radius
    if math.isfinite(R):
        hi = R * (1.0 - 1e-12)
        if nu(hi) <= m:
            return R
    else:
        hi = 1.0
        while nu(hi) < m:
            hi *= 2.0
            if hi > _BRACKET_CAP:
                raise NormalizationError(
                    "radial profile t^m exp(-phi(t)) never turns over; "
                    "the measure is not normalizable"
                )
    lo = hi
    while nu(lo) >= m:
        lo *= 0.5
        if lo < 1.0 / _BRACKET_CAP:
            # phi' explodes immediately at the origin; maximizer underflows
            raise NormalizationError("radial profile peaks at radius 0")
    return _pred_edge(lambda t: nu(t) <= m, lo, hi)


def _log_profile(phi, k):
    """Scalar log-integrand t -> k log t - phi(t) (-inf outside support)."""

    def logf(t):
        if t <= 0.0:
            return -math.inf if k > 0 else -float(phi.value(0.0))
        v = float(phi.value(t))
        if not math.isfinite(v):
            return -math.inf
        return k * math.log(t) - v

    return logf


def _profile_peak(phi, k):
    """Argmax of t^k exp(-phi(t)) together with the peak log value."""
    if k >= 1:
        peak = solve_t0(phi, k)
    elif float(phi.value(0.0)) == 0.0:
        peak = 0.0
    elif math.isfinite(phi.support_radius):
        # density vanishing at the origin with a hard cutoff (shell-like):
        # the flat top is reached at the boundary from below
        peak = phi.support_radius
    else:
        raise InputError("potential must be finite at the origin")
    if peak == 0.0:
        log_peak = -float(phi.value(0.0))
    else:
        log_peak = k * math.log(peak) - edge_value(phi, peak)
    return peak, log_peak


def integrand_window(logf, peak, log_peak, lo, hi, logf_at_hi=None,
                     drop=WINDOW_NATS):
    """[a, b] on which a unimodal log-integrand stays within ``drop`` nats
    of its peak value.

    ``logf`` need only be evaluated strictly inside (lo, hi); the value at
    a finite right endpoint may be supplied separately as ``logf_at_hi``
    (the limit from below at a hard support cutoff).
    """
    target = log_peak - drop

    def pred(t):
        return logf(t) >= target

    if peak == lo or logf(lo) >= target:
        a = lo
    else:
        a = _pred_edge(pred, peak, lo)

    if math.isfinite(hi):
        edge = logf(hi) if logf_at_hi is None else logf_at_hi
        b = hi if edge >= target else _pred_edge(pred, peak, hi)
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


def _quad_window(f, a, b, breaks, rel_tol=_REL_TOL):
    """Adaptive quadrature on [a, b] with interior break points.

    Raises QuadratureError (with the achieved error estimate) when the
    requested relative accuracy cannot be certified after refinement.
    """
    pts = sorted(x for x in breaks if a < x < b)
    val, err = quad(f, a, b, points=pts or None, limit=200,
                    epsabs=0.0, epsrel=1e-12)
    if err > rel_tol * abs(val):
        val, err = quad(f, a, b, points=pts or None, limit=800,
                        epsabs=0.0, epsrel=1e-12)
    if err > rel_tol * abs(val):
        raise QuadratureError(
            f"quadrature did not converge: error estimate {err:.3e} "
            f"exceeds {rel_tol:.1e} x {abs(val):.6e}",
            achieved_error=err,
        )
    return val


def log_peaked_integral(logf, peak, log_peak, lo, hi, breaks=(),
                        logf_at_hi=None, rel_tol=_REL_TOL):
    """log of int exp(logf(t)) dt for a unimodal log-integrand.

    The integral is restricted to the window where logf stays within
    WINDOW_NATS of its peak (truncation error ~ exp(-60), far below the
    relative tolerance) and evaluated peak-normalized so no exponential
    ever overflows.
    """
    a, b = integrand_window(logf, peak, log_peak, lo, hi, logf_at_hi)

    def f(t):
        return math.exp(min(logf(t) - log_peak, 0.0))

    pts = list(breaks)
    if a < peak < b:
        pts.append(peak)
    val = _quad_window(f, a, b, pts, rel_tol=rel_tol)
    return log_peak + math.log(val)


def profile_window(phi, k):
    """The active radial window [a, b] of the profile t^k exp(-phi(t))."""
    peak, log_peak = _profile_peak(phi, k)
    logf = _log_profile(phi, k)
    hi = phi.support_radius
    at_hi = None
    if math.isfinite(hi):
        at_hi = k * math.log(hi) - edge_value(phi, hi)
    return integrand_window(logf, peak, log_peak, 0.0, hi, at_hi)


def log_Jm(phi, k):
    """log J_k, J_k = int_0^inf t^k exp(-phi(t)) dt, as a LogScalar.

    Peak-normalized Laplace quadrature: locate the mode of the integrand,
    restrict to the 60-nat window around it, and integrate
    exp(log-integrand - peak) with the potential's kinks as break points.
    Relative accuracy 1e-10 or a QuadratureError.
    """
    if k < 0:
        raise InputError(f"moment exponent must be >= 0, got {k}")
    peak, log_peak = _profile_peak(phi, k)
    logf = _log_profile(phi, k)
    hi = phi.support_radius
    at_hi = None
    if math.isfinite(hi):
        at_hi = k * math.log(hi) - edge_value(phi, hi)
    log_val = log_peaked_integral(
        logf, peak, log_peak, 0.0, hi,
        breaks=phi.interior_knots(), logf_at_hi=at_hi,
    )
    return LogScalar(log_val)


def _deficit(phi, m, t0):
    """The log-profile deficit
    x -> phi(t0 (1+x)) - phi(t0) - m log(1+x),  x > -1,
    with phi(t0) evaluated once.  It is log g_m(t0) - log g_m(t0 (1+x)):
    zero at x = 0 and nonnegative when t0 is the mode of g_m.  Uses the
    limit from below on a support cutoff and is +inf beyond it.  A given
    radius t replaces t0 (1+x), whose rounding can differ from it."""
    phi_t0 = edge_value(phi, t0)

    def deficit(x, t=None):
        if t is None:
            t = t0 * (1.0 + x)
        return edge_value(phi, t) - phi_t0 - m * math.log1p(x)

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
    deficit = _deficit(phi, m, t0)
    R = phi.support_radius
    if math.isfinite(R):
        x_max = R / t0 - 1.0
        if x_max <= 0.0:
            return 0.0
        # at R itself: t0 (1 + x_max) can round past the cutoff
        if deficit(x_max, R) <= 1.0:
            return x_max
        return _pred_edge(lambda x: deficit(x) <= 1.0, 0.0, x_max)
    hi = 1.0
    while deficit(hi) <= 1.0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise NormalizationError(
                "radial profile never drops below 1/e of its peak; "
                "the measure is not normalizable"
            )
    return _pred_edge(lambda x: deficit(x) <= 1.0, 0.0, hi)


@dataclass(frozen=True)
class MeasureProfile:
    """Memoized scalar functionals of a radial measure on R^d.

    Holds everything downstream consumers (surface formulas, certificates,
    the polytope construction) need, so the potential is only integrated
    once per (phi, d) pair.
    """

    phi: RadialPotential
    d: int
    m: int
    t0: float
    log_gm_t0: LogScalar
    log_J: Dict[int, LogScalar]
    lambda_i: float
    lambda_o: float
    expectation: float
    variance: float

    @property
    def lambda_sum(self):
        return self.lambda_i + self.lambda_o

    @property
    def lambda_ratio(self):
        """J_m / (t0 g_m(t0)): the effective relative width of the profile."""
        return math.exp(self.log_J[self.m].log - math.log(self.t0) - self.log_gm_t0.log)

    @property
    def log_Jm(self):
        return self.log_J[self.m]

    @property
    def log_normalizer(self):
        """log C_d for the density C_d exp(-phi(|x|)): C_d = 1/(d nu_d J_m)."""
        return LogScalar(
            -(math.log(self.d) + log_ball_volume(self.d) + self.log_J[self.m].log)
        )

    @property
    def support_radius(self):
        return self.phi.support_radius


def profile(phi, d):
    """Compute the full functional profile of the measure exp(-phi(|x|)) on R^d."""
    if int(d) != d or d < 2:
        raise InputError(f"dimension must be an integer >= 2, got {d}")
    d = int(d)
    m = d - 1
    t0 = solve_t0(phi, m)
    log_gm_t0 = LogScalar(m * math.log(t0) - edge_value(phi, t0))
    log_J = {k: log_Jm(phi, k) for k in (m - 1, m, m + 1, m + 2)}
    expectation = math.exp(log_J[m + 1].log - log_J[m].log)
    second_moment = math.exp(log_J[m + 2].log - log_J[m].log)
    variance = second_moment - expectation * expectation
    if variance <= 0.0:
        raise QuadratureError(
            "moment cancellation: second central moment not resolvable "
            "at quadrature accuracy"
        )
    return MeasureProfile(
        phi=phi,
        d=d,
        m=m,
        t0=t0,
        log_gm_t0=log_gm_t0,
        log_J=log_J,
        lambda_i=solve_lambda_inner(phi, m, t0),
        lambda_o=solve_lambda_outer(phi, m, t0),
        expectation=expectation,
        variance=variance,
    )


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
    return prof.m * math.exp(prof.log_J[prof.m - 1].log - prof.log_J[prof.m].log)


def psi(prof, x):
    """Log-profile deficit at radius (1+x) t0:

        psi(x) = phi((1+x) t0) - phi(t0) - m log(1+x),  x > -1.

    Zero at x = 0, nonnegative, nondecreasing in |x| on each side of 0
    (t0 maximizes the log profile); +inf once (1+x) t0 leaves the support.
    """
    if not x > -1.0:
        raise InputError(f"deficit argument must be > -1, got {x}")
    if (1.0 + x) * prof.t0 > prof.support_radius:
        return math.inf
    return _deficit(prof.phi, prof.m, prof.t0)(x)


def tail_mass_bound(phi, m, t0, x, psi_floor):
    """Upper bound for the unnormalized radial tail
    int_{(1+x) t0}^inf t^m exp(-phi(t)) dt, as a LogScalar.

    The caller supplies any positive psi_floor not exceeding the log-profile
    deficit psi = phi((1+x)t0) - phi(t0) - m log(1+x); the bound is then
    x t0 g_m(t0) / (psi_floor e^psi_floor).  This is the estimate that
    justifies the 60-nat quadrature truncation window.
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
    log_g_t0 = m * math.log(t0) - edge_value(phi, t0)
    return LogScalar(
        math.log(x) + math.log(t0) + log_g_t0 - math.log(psi_floor) - psi_floor
    )


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
    return 0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0)
