"""Pointwise certificates bounding the boundary measure of convex bodies.

Every boundary point y of a convex body, with outward normal n_y, carries
the weight

    xi1(y) = exp(phi(|y|)) * alpha * |y|^(-m) * J_m,   alpha = cos(y, n_y),

and the boundary measure of the body is at most 1 / min_{y in dQ} xi1(y):
the radial projection y -> t y sweeps the whole space from dQ, and xi1 is
exactly the Jacobian weight that makes the swept mass comparable to the
boundary integral.  A companion weight xi2 measures how far one can travel
from y along the normal before the density drops by a factor e; its
computable lower bound t1/e certifies the same kind of inequality in
normal coordinates.

This module evaluates both weights exactly, assembles the global
`certificate_upper_bound` for facet bodies in closed form (one xi1
evaluation at the inradius facet; the moment-ratio bound m J_{m-1}/J_m is
the fallback), and bounds the boundary mass outside the critical annulus
(1-lambda_i) t0 <= |x| <= (1+mu) t0.

The closed form reads xi1 at r = min(cap, r_hi), where cap = min(t_{m+1}, R)
minimises xi1 and r_hi bounds the reach max |x| of the body.  A witness, a
point of the body with |x| >= cap (1 + 1e-6) found along a few rays, settles
r = cap with no linear program: the LP bound r_hi would reach cap as well,
and r = cap is sound for any body because nothing below the minimiser of
xi1 is claimed.  Only a body with no witness pays one LP per signed axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtri

from .bodies import HalfSpace, HyperRectangle, Polytope, Slab, _unit_rows, as_facets
from .errors import InputError
from .functionals import (
    MeasureProfile,
    mu_candidate,
    psi,
    rough_upper_bound,
    _next_mode,
    _one_nat_step,
)

__all__ = [
    "BoundaryPoint",
    "CertificateReport",
    "psi",
    "Lambda",
    "xi1",
    "xi2_lower",
    "certificate_upper_bound",
    "annulus_remainder_bound",
]

@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point reduced to what the certificates see: its distance
    from the origin and the cosine alpha of the angle between the point and
    the outward normal there (1 on a sphere, rho/|y| on a facet at offset
    rho, 0 where the boundary is radial)."""

    radius: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InputError(f"boundary point radius must be > 0, got {self.radius}")
        if not (0.0 <= self.alpha <= 1.0):
            raise InputError(f"alpha must lie in [0, 1], got {self.alpha}")


def Lambda(prof: MeasureProfile, t: float) -> Optional[float]:
    """Relative outward step raising the potential by one nat:
    the root of phi((1+L) t) = phi(t) + 1.

    Returns None (infeasible) when the potential never climbs a full nat
    below its support cutoff, as happens for hard-cutoff measures near the
    edge (there the jump, not a root, absorbs the nat).  Raises
    NormalizationError when it never climbs a nat without a cutoff.
    """
    R = prof.support_radius
    if not (t > 0 and t < R):
        raise InputError(
            f"Lambda needs t in the open support interval, got {t}"
        )
    base = prof.phi.value(t)
    if not math.isfinite(base):
        raise InputError(f"potential not finite at t={t}")
    return _one_nat_step(prof.phi, lambda s: (1.0 + s) * t,
                         lambda s, v: v - base, R / t - 1.0)


def xi1(prof: MeasureProfile, point: BoundaryPoint) -> float:
    """Radial-sweep weight of a boundary point:
    exp(phi(|y|)) * alpha * |y|^(-m) * J_m.

    Reciprocal of the sphere surface when |y| = R, alpha = 1; zero at
    tangency (alpha = 0).
    """
    if point.radius > prof.support_radius:
        raise InputError(
            f"boundary point radius {point.radius} lies outside the support"
        )
    if point.alpha == 0.0:
        return 0.0
    log_h = (
        prof.phi.value(point.radius)
        - prof.m * math.log(point.radius)
        + prof.log_Jm
    )
    try:
        return point.alpha * math.exp(log_h)
    except OverflowError:
        return math.inf


def xi2_lower(prof: MeasureProfile, point: BoundaryPoint) -> float:
    """Lower bound t1/e on the normal-coordinate weight xi2.

    t1 is the largest step along the outward normal keeping the potential
    within one nat of its value at y:
    phi(sqrt(|y|^2 + t^2 + 2 t |y| alpha)) - phi(|y|) = 1, found by
    bisection; for hard-cutoff measures that never climb a nat, t1 is the
    step that reaches the support boundary.  Raises NormalizationError when
    the potential never climbs a nat without a cutoff.
    """
    y, a = point.radius, point.alpha
    R = prof.support_radius
    if y >= R:
        raise InputError(
            f"boundary point radius {y} must be interior to the support"
        )
    base = prof.phi.value(y)
    t_edge = -y * a + math.sqrt(y * y * a * a + R * R - y * y)
    t1 = _one_nat_step(
        prof.phi, lambda t: math.sqrt(y * y + t * t + 2.0 * t * y * a),
        lambda t, v: v - base, t_edge)
    return (t_edge if t1 is None else t1) / math.e


# ---------------------------------------------------------------------------
# global polytope certificate


@dataclass(frozen=True)
class CertificateReport:
    """Certified upper bound on a facet body's boundary measure.

    value = min(xi1_bound, rough_bound); `binding` names the active term
    ("xi1" or "rough").  xi1_bound is 1/min_{y in dQ} xi1(y) (inf when the
    minimum is 0, e.g. a hyperplane through the origin); rough_bound is the
    body-independent moment ratio m J_{m-1}/J_m.  grid_points counts the
    xi1 evaluations, which the closed form makes 1.
    """

    value: float
    xi1_bound: float
    rough_bound: float
    binding: str
    min_xi1: float
    grid_points: int


def _direction_net(d: int, n: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors: a Kronecker sequence on
    [0,1)^d (powers of the d-dimensional plastic ratio) pushed through the
    normal quantile and normalized.

    Nothing in radsurf calls it; it stays because perfbench/tracing.py
    wraps it by name as a per-layer metric.
    """
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    alpha = x ** -np.arange(1, d + 1)
    k = np.arange(1, n + 1)[:, None]
    u = np.modf(k * alpha[None, :] + 0.5)[0]
    return _unit_rows(ndtri(np.clip(u, 1e-12, 1.0 - 1e-12)))


#: subgradient steps `_reach_witness` takes before it leaves the reach to
#: the LPs
_WITNESS_STEPS = 64
#: sharpness of the softmax over <u, x_j>/c_j, relative to its maximum
_WITNESS_SOFTMAX = 20.0
#: angle in radians of the first step; step k turns by _WITNESS_TURN/sqrt(k+1)
_WITNESS_TURN = 0.3
#: weight of the all-ones diagonal in the first ray, relative to the
#: largest entry of the rows x_j/c_j
_WITNESS_TIE = 1e-3


def _reach_witness(dirs, offs, cap):
    """A point x with dirs x <= offs in float64 and |x| >= cap (1 + 1e-6),
    or None when none was found.

    Every offset must be finite and positive, and there must be at least
    as many rows as dimensions.  The ray t u stays in the body up to
    t = 1/g(u), where g(u) = max_j <u, x_j>/c_j.  The first ray is
    u = -sum_j x_j/c_j plus a fixed tie-breaker along the all-ones diagonal
    (_WITNESS_TIE of the rows' largest entry), and each further one takes
    a softmax-weighted subgradient step on g along the sphere; the search
    stops at the first ray that reaches past `cap`.
    A candidate is returned only once it passes both checks as computed.
    """
    d = dirs.shape[1]
    goal = cap * (1.0 + 1e-6)

    def holds(x):
        return np.linalg.norm(x) >= goal and np.all(dirs @ x <= offs)

    a = dirs / offs[:, None]
    # the tie-breaker: where the rows cancel (a centred box) the first ray
    # is the diagonal, and where one row is parallel to the sum (a box off
    # centre along one axis) the steps leave that row toward it
    tie = _WITNESS_TIE * np.abs(a).max() / math.sqrt(d)
    u = tie - a.sum(axis=0)
    for k in range(_WITNESS_STEPS):
        u /= np.linalg.norm(u)
        s = a @ u
        g = s.max()
        if g <= 0.0:
            x = 2.0 * goal * u  # the ray never leaves the body
            return x if holds(x) else None
        if g * goal < 1.0:
            # halfway to the exit in log scale: both checks keep a margin
            x = math.sqrt(goal / g) * u
            if holds(x):
                return x
        w = np.exp(_WITNESS_SOFTMAX * (s / g - 1.0))
        grad = (w @ a) / w.sum()
        grad -= (grad @ u) * u
        norm = np.linalg.norm(grad)
        if norm == 0.0:
            return None
        u -= _WITNESS_TURN / math.sqrt(k + 1.0) / norm * grad
    return None


def _facet_radius_range(dirs, offs, cap):
    """Sound upper bound r_hi on max |x| over {x : dirs x <= offs}: the
    corner radius of the bounding box, from one LP per signed axis.

    Returns inf when the body is unbounded, and as soon as the radius of
    the axes solved so far reaches `cap`, since the caller only uses
    min(cap, r_hi).  Every offset must be finite (the LP solver takes no
    infinite bound).
    """
    d = dirs.shape[1]
    sq = 0.0
    for j in range(d):
        reach = 0.0
        for sign in (-1.0, 1.0):
            c = np.zeros(d)
            c[j] = sign  # minimizing sign * x_j gives max |x_j| on that side
            res = linprog(c, A_ub=dirs, b_ub=offs, bounds=(None, None),
                          method="highs")
            if res.status != 0:
                # The origin is feasible, so any other outcome means the LP
                # is unbounded; HiGHS presolve reports the unbounded slab
                # as status 2 "infeasible" rather than 3.
                return math.inf
            reach = max(reach, -res.fun)
            if math.sqrt(sq + reach * reach) >= cap:
                return math.inf
        sq += reach * reach
    # HiGHS meets its primal and dual feasibility tolerances of 1e-7; the
    # relative 1e-6 round-up keeps r_hi above the true box radius.
    return math.sqrt(sq) * (1.0 + 1e-6)


def certificate_upper_bound(
    prof: MeasureProfile,
    body: Union[Polytope, HalfSpace, Slab, HyperRectangle],
) -> CertificateReport:
    """Certified upper bound on the boundary measure of a facet body.

    On facet i, alpha = rho_i/|y| is forced by the geometry, so with r = |y|

        log xi1 = log rho_i + log J_m + phi(r) - (m+1) log r,

    which is increasing in rho_i and unimodal in r with its minimum at the
    mode r* = t_{m+1} of the (m+1)-radial profile.  Every boundary point
    has rho_i >= r_in = min_i rho_i and r_in <= r <= min(r_hi, R), where R
    is the support radius and r_hi an upper bound on max |x| over the body.
    So min_{dQ} xi1 is at least the single evaluation at rho = r_in and
    r = clip(r*, r_in, min(r_hi, R)); it is attained when the facet at
    r_in (always non-redundant) reaches that radius.  The reported value
    is min(1/min xi1, m J_{m-1}/J_m).  The radial sweep needs the origin
    in the body, so a slab that misses it is an InputError.

    With cap = min(r*, R) and r_in < cap, the radius is r = min(cap, r_hi).
    Rows with offset +inf are dropped.  With fewer rows left than
    dimensions some v has dirs v = 0, the line through v lies in the body,
    r_hi = inf and r = cap.  Otherwise `_reach_witness` first looks for a
    point of the body with |x| >= cap (1 + 1e-6), which takes a few
    matrix-vector products.  If it finds one, r = cap.  This is the value
    the reach LPs of `_facet_radius_range` give: their box radius is at
    least |x|, so they return inf or a bound above cap (their tolerance is
    below the 1e-6 margin), and min(cap, r_hi) = cap in both cases.  It is also sound
    whatever the reach, since cap minimises xi1 over all of [r_in, R].
    The LPs run only when no witness is found.
    """
    dirs, offs = as_facets(body)
    if dirs.shape[1] != prof.d:
        raise InputError(
            f"body lives in R^{dirs.shape[1]}, measure in R^{prof.d}"
        )
    phi, m = prof.phi, prof.m
    R_sup = prof.support_radius
    r_in = float(offs.min())
    if r_in < 0.0:
        raise InputError(
            "certificate needs the origin inside the body (every offset >= 0)"
        )
    if r_in >= R_sup:
        raise InputError(
            "certificate found no boundary points: every facet lies "
            "outside the support"
        )
    if r_in == 0.0:
        best = -math.inf  # hyperplane through the origin: alpha = 0
    else:
        # r* = t_{m+1} minimizes exp(phi(r)) / r^(m+1)
        cap = min(_next_mode(prof), R_sup)
        r = r_in
        if r_in < cap:
            # a row with offset +inf constrains nothing
            finite = offs < math.inf
            dirs, offs = dirs[finite], offs[finite]
            r = cap
            if (dirs.shape[0] >= dirs.shape[1]
                    and _reach_witness(dirs, offs, cap) is None):
                r = min(cap, _facet_radius_range(dirs, offs, cap))
        best = (math.log(r_in) + prof.log_Jm + phi.value(r)
                - (m + 1) * math.log(r))

    try:
        min_xi1 = math.exp(best)
    except OverflowError:
        # xi1 beyond the double range: 1/xi1 = exp(-best), kept positive so
        # that it stays an upper bound when it underflows
        min_xi1 = math.inf
        xi1_bound = max(math.exp(-best), math.ulp(0.0))
    else:
        xi1_bound = 1.0 / min_xi1 if min_xi1 > 0.0 else math.inf
    rough = rough_upper_bound(prof)
    if xi1_bound <= rough:
        return CertificateReport(xi1_bound, xi1_bound, rough, "xi1",
                                 min_xi1, 1)
    return CertificateReport(rough, xi1_bound, rough, "rough", min_xi1, 1)


# ---------------------------------------------------------------------------
# annulus remainder


def annulus_remainder_bound(prof: MeasureProfile, mu: Optional[float] = None) -> float:
    """Upper bound on the boundary mass any convex body can carry outside
    the annulus (1-lambda_i) t0 <= |x| <= (1+mu) t0.

    Needs mu to satisfy the tail hypothesis
    psi(mu) >= log(mu sqrt(m/lambda_sum)) >= 1 (checked; default mu is
    log(m)/sqrt(m)).  The bound is the sum of an inner-cap term
    exp(phi(t0) - m)/(lambda_sum t0) and an outer-tail term
    (1 + mu m / p) exp(-p) / (lambda_sum t0) with p = log(mu sqrt(m/lambda_sum)).
    """
    mu, ok = mu_candidate(prof, mu)
    if not ok:
        raise InputError(
            f"annulus half-width mu={mu:.6g} fails the tail hypothesis: "
            f"need psi(mu) >= log(mu*sqrt(m/lambda_sum)) >= 1"
        )
    m, t0, lam = prof.m, prof.t0, prof.lambda_sum
    p = math.log(mu * math.sqrt(m / lam))
    inner = math.exp(prof.phi.value(t0) - m) / (lam * t0)
    outer = (1.0 + mu * m / p) * math.exp(-p) / (lam * t0)
    return inner + outer
