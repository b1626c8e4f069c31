"""Convex bodies and their boundary measure under a radial measure.

The boundary measure ("surface area") of a convex body Q under the
probability measure with density C_d exp(-phi(|x|)) is the integral of the
density over the boundary dQ.  Symmetric bodies admit exact formulas:

* sphere of radius R:      R^m exp(-phi(R)) / J_m
* half-space at offset r:  C_d m nu_m int_0^inf s^(m-1) exp(-phi(sqrt(r^2+s^2))) ds
* slab:                    two half-space boundaries

(m = d-1, nu_k the unit-ball volume in R^k, J_m the radial moment).
Polytopes are integrated facet by facet with Monte Carlo acceptance
sampling on each facet's hyperplane.  Independently of all that, the
Minkowski difference quotient [mu(Q + eps B) - mu(Q)] / eps is estimated by
direct sampling as a validation oracle.

Densities at a hard support cutoff use the limit from below.  Under this
convention the ball-uniform measure gives its own boundary sphere the
surface value d, the equality case of the rough bound m J_{m-1}/J_m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from . import _kernels
from .errors import InputError
from .functionals import (
    MeasureProfile,
    edge_value,
    integrand_window,
    log_ball_volume,
    log_peaked_integral,
    profile_window,
    _pred_edge,
)

__all__ = [
    "SphereShell",
    "Ball",
    "HalfSpace",
    "Slab",
    "Polytope",
    "HyperRectangle",
    "as_facets",
    "SurfaceEstimate",
    "sphere_surface",
    "sphere_argmax",
    "halfspace_surface",
    "slab_surface",
    "polytope_surface_mc",
    "minkowski_fd_surface",
    "sample_points",
    "cube_lebesgue_check",
    "CubeCheck",
]

_CHUNK = 1 << 16  # fixed sampling chunk: part of the determinism contract

_UNIT_TOL = 1e-12


def _as_unit_rows(vecs, what):
    v = np.atleast_2d(np.asarray(vecs, dtype=float))
    if not np.all(np.isfinite(v)):
        raise InputError(f"{what} must be finite")
    norms = np.linalg.norm(v, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise InputError(f"{what} must be unit vectors (to {_UNIT_TOL:g})")
    return v


@dataclass(frozen=True)
class SphereShell:
    """The sphere |x| = R, as a surface (the boundary of Ball(R))."""

    R: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise InputError(f"sphere radius must be positive, got {self.R}")


@dataclass(frozen=True)
class Ball:
    R: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise InputError(f"ball radius must be positive, got {self.R}")


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """{x : <x, direction> <= offset} with offset >= 0 (origin inside)."""

    direction: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(
            self, "direction", _as_unit_rows(self.direction, "half-space direction")[0]
        )
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise InputError(f"half-space offset must be >= 0, got {self.offset}")


@dataclass(frozen=True, eq=False)
class Slab:
    """{x : -rho1 <= <x, direction> <= rho2}, nonempty (-rho1 < rho2)."""

    direction: np.ndarray
    rho1: float
    rho2: float

    def __post_init__(self):
        object.__setattr__(
            self, "direction", _as_unit_rows(self.direction, "slab direction")[0]
        )
        if not (-self.rho1 < self.rho2):
            raise InputError(
                f"empty slab: need -rho1 < rho2, got rho1={self.rho1}, rho2={self.rho2}"
            )


@dataclass(frozen=True, eq=False)
class Polytope:
    """{x : <x, directions[i]> <= offsets[i]} with the origin strictly interior."""

    directions: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        dirs = _as_unit_rows(self.directions, "polytope facet directions")
        offs = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if offs.ndim != 1 or offs.shape[0] != dirs.shape[0]:
            raise InputError("polytope needs one offset per facet direction")
        if not np.all(np.isfinite(offs)) or np.any(offs <= 0.0):
            raise InputError("polytope offsets must be strictly positive")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "offsets", offs)

    @property
    def n_facets(self):
        return self.directions.shape[0]

    @property
    def dim(self):
        return self.directions.shape[1]


@dataclass(frozen=True, eq=False)
class HyperRectangle:
    """{x : |x_j| <= half_widths[j]}."""

    half_widths: np.ndarray

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.half_widths, dtype=float))
        if h.ndim != 1 or not np.all(np.isfinite(h)) or np.any(h <= 0.0):
            raise InputError("half-widths must be positive reals")
        object.__setattr__(self, "half_widths", h)


def as_facets(body):
    """(directions, offsets) of a facet body, read as the constraints
    <x, directions[i]> <= offsets[i].

    Covers Polytope, HalfSpace, Slab (origin inside: rho1, rho2 >= 0) and
    HyperRectangle.  Offsets may be 0 (origin on the boundary), which the
    Polytope gate rejects.
    """
    if isinstance(body, Polytope):
        return body.directions, body.offsets
    if isinstance(body, HalfSpace):
        return body.direction[None, :], np.array([body.offset])
    if isinstance(body, Slab):
        if body.rho1 < 0.0 or body.rho2 < 0.0:
            raise InputError(
                "facet bodies need the origin inside the slab (rho1, rho2 >= 0)"
            )
        return (
            np.vstack([body.direction, -body.direction]),
            np.array([body.rho2, body.rho1]),
        )
    if isinstance(body, HyperRectangle):
        eye = np.eye(body.half_widths.size)
        return (
            np.vstack([eye, -eye]),
            np.concatenate([body.half_widths, body.half_widths]),
        )
    raise InputError(
        f"expected a facet body (polytope, halfspace, slab or box), "
        f"got {type(body).__name__}"
    )


@dataclass(frozen=True)
class SurfaceEstimate:
    """Boundary-measure value with its uncertainty and provenance.

    ``method`` is one of "exact", "facet-mc", "minkowski-fd"; exact values
    carry zero std_error.  ``note`` flags degenerate estimates (e.g. zero
    Monte Carlo acceptance, where std_error is NaN and meaningless).
    """

    value: float
    std_error: float
    method: str
    samples: int
    note: str = ""

    def __post_init__(self):
        if self.method not in ("exact", "facet-mc", "minkowski-fd"):
            raise InputError(f"unknown estimate method {self.method!r}")
        if self.method == "exact" and self.std_error != 0.0:
            raise InputError("exact estimates carry zero std_error")


# ---------------------------------------------------------------------------
# exact formulas


def sphere_surface(prof: MeasureProfile, R: float) -> SurfaceEstimate:
    """Exact boundary measure of the sphere |x| = R:
    R^m exp(-phi(R)) / J_m, with the left-limit density at a hard cutoff."""
    if not (R > 0):
        raise InputError(f"sphere radius must be positive, got {R}")
    if R > prof.support_radius:
        warnings.warn(
            "sphere lies outside the measure support; boundary measure is 0",
            stacklevel=2,
        )
        return SurfaceEstimate(0.0, 0.0, "exact", 0)
    log_val = prof.m * math.log(R) - edge_value(prof.phi, R) - prof.log_Jm.log
    return SurfaceEstimate(math.exp(log_val), 0.0, "exact", 0)


def sphere_argmax(prof: MeasureProfile) -> float:
    """Radius maximizing sphere_surface, by golden-section search on the
    log profile.  Coincides with prof.t0 (consistency check of the solver)."""
    phi, m = prof.phi, prof.m
    a, b = profile_window(phi, m)

    def logf(R):
        return m * math.log(R) - edge_value(phi, R) if R > 0 else -math.inf

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv * (b - a)
    e = a + inv * (b - a)
    fc, fe = logf(c), logf(e)
    while b - a > 1e-9 * max(1.0, abs(b)):
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - inv * (b - a)
            fc = logf(c)
        else:
            a, c, fc = c, e, fe
            e = a + inv * (b - a)
            fe = logf(e)
    return 0.5 * (a + b)


def _halfspace_parts(phi, m, rho):
    """Ingredients of the facet integral
    int_0^{s_max} s^(m-1) exp(-phi(sqrt(rho^2 + s^2))) ds:
    (logf, peak, log_peak, s_max, logf_at_hi, breaks).

    The log-integrand is unimodal: s^2 phi'(r)/r - (m-1) (with r =
    sqrt(rho^2+s^2)) is nondecreasing in s and crosses zero at the peak;
    when it never reaches zero below a hard cutoff, the peak sits at the
    cutoff with the left-limit value.
    """
    R = phi.support_radius
    s_max = math.sqrt(R * R - rho * rho) if math.isfinite(R) else math.inf

    def r_of(s):
        return math.hypot(rho, s)

    def logf(s):
        if s < 0.0:
            return -math.inf
        v = float(phi.value(r_of(s)))
        if not math.isfinite(v):
            return -math.inf
        if m == 1:
            return -v
        return -math.inf if s == 0.0 else (m - 1) * math.log(s) - v

    def log_at(s):
        # limit from below when s touches the support cutoff
        v = edge_value(phi, r_of(s))
        if m == 1:
            return -v
        return -math.inf if s == 0.0 else (m - 1) * math.log(s) - v

    if m == 1:
        if math.isfinite(logf(0.0)):
            peak = 0.0
        else:
            # annular support (flat potential on the annulus): any radius
            # inside works; take the midpoint of the reachable band
            r_mid = 0.5 * (max(rho, phi.inner_support_radius) + R)
            peak = math.sqrt(max(r_mid * r_mid - rho * rho, 0.0))
        log_peak = log_at(peak)
    else:

        def excess(s):
            r = r_of(s)
            return s * s * float(phi.derivative(r)) / r - (m - 1.0)

        if math.isfinite(s_max):
            hi = s_max * (1.0 - 1e-12)
            if excess(hi) <= 0.0:
                peak = s_max
            else:
                lo = hi
                while excess(lo) > 0.0:
                    lo *= 0.5
                peak = _pred_edge(lambda s: excess(s) <= 0.0, lo, hi)
        else:
            hi = 1.0
            while excess(hi) <= 0.0:
                hi *= 2.0
            lo = hi
            while excess(lo) > 0.0 and lo > 1e-300:
                lo *= 0.5
            peak = _pred_edge(lambda s: excess(s) <= 0.0, lo, hi)
        log_peak = log_at(peak)

    breaks = [
        math.sqrt(k * k - rho * rho)
        for k in phi.interior_knots()
        if k > rho
    ]
    at_hi = log_at(s_max) if math.isfinite(s_max) else None
    return logf, peak, log_peak, s_max, at_hi, breaks


def halfspace_surface(prof: MeasureProfile, rho: float) -> SurfaceEstimate:
    """Exact boundary measure of a half-space whose boundary hyperplane has
    distance rho from the origin:
    C_d m nu_m int_0^inf s^(m-1) exp(-phi(sqrt(rho^2+s^2))) ds."""
    if rho < 0:
        raise InputError(f"half-space offset must be >= 0, got {rho}")
    if rho >= prof.support_radius:
        return SurfaceEstimate(0.0, 0.0, "exact", 0)
    phi, m = prof.phi, prof.m
    logf, peak, log_peak, s_max, at_hi, breaks = _halfspace_parts(phi, m, rho)
    log_I = log_peaked_integral(logf, peak, log_peak, 0.0, s_max,
                                breaks=breaks, logf_at_hi=at_hi)
    log_val = (
        prof.log_normalizer.log + math.log(m) + log_ball_volume(m) + log_I
    )
    return SurfaceEstimate(math.exp(log_val), 0.0, "exact", 0)


def slab_surface(prof: MeasureProfile, rho1: float, rho2: float) -> SurfaceEstimate:
    """Exact boundary measure of the slab {-rho1 <= <x, theta> <= rho2}:
    the sum of its two parallel hyperplane boundaries (each at its distance
    from the origin)."""
    if not (-rho1 < rho2):
        raise InputError(f"empty slab: rho1={rho1}, rho2={rho2}")
    v1 = halfspace_surface(prof, abs(rho1)).value
    v2 = halfspace_surface(prof, abs(rho2)).value
    return SurfaceEstimate(v1 + v2, 0.0, "exact", 0)


# ---------------------------------------------------------------------------
# sampling


class _InverseCdfTable:
    """Monotone inverse-CDF interpolation table on a density's active window.

    The grid is refined (doubling from `knots`) until the midpoint
    interpolation error of the CDF is below `tol` in probability.
    """

    __slots__ = ("grid", "cdf")

    def __init__(self, logf_vec, a, b, log_peak, knots=4096, tol=1e-6,
                 max_knots=1 << 16):
        if not b > a:
            raise InputError("empty sampling window")
        n = knots
        while True:
            fine = np.linspace(a, b, 2 * n + 1)
            w = np.exp(np.minimum(logf_vec(fine) - log_peak, 0.0))
            seg = 0.5 * (w[1:] + w[:-1]) * np.diff(fine)
            c = np.concatenate(([0.0], np.cumsum(seg)))
            if c[-1] <= 0.0:
                raise InputError("density vanishes on the sampling window")
            c /= c[-1]
            coarse = c[::2]
            mid_err = np.abs(c[1::2] - 0.5 * (coarse[:-1] + coarse[1:])).max()
            if mid_err <= tol or n >= max_knots:
                break
            n *= 2
        grid = fine[::2]
        cdf = np.maximum.accumulate(coarse)
        cdf[0], cdf[-1] = 0.0, 1.0
        self.grid = grid
        self.cdf = cdf

    def sample(self, u):
        """Map uniforms in [0, 1) to radii by linear interpolation."""
        idx = np.searchsorted(self.cdf, u, side="right") - 1
        idx = np.clip(idx, 0, self.grid.size - 2)
        dc = self.cdf[idx + 1] - self.cdf[idx]
        frac = (u - self.cdf[idx]) / np.where(dc > 0.0, dc, 1.0)
        return self.grid[idx] + frac * (self.grid[idx + 1] - self.grid[idx])

    def cdf_at(self, t):
        """Table CDF (used by distribution-fit tests)."""
        return np.interp(t, self.grid, self.cdf)


def _radial_table(prof: MeasureProfile) -> _InverseCdfTable:
    phi, m = prof.phi, prof.m
    a, b = profile_window(phi, m)

    def logf_vec(t):
        t = np.asarray(t, dtype=float)
        val = np.asarray(phi.value(t), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = m * np.log(t) - val
        return np.where(np.isfinite(val) & (t > 0), out, -np.inf)

    return _InverseCdfTable(logf_vec, a, b, prof.log_gm_t0.log)


def _facet_table(prof: MeasureProfile, rho: float) -> _InverseCdfTable:
    """Inverse-CDF table for the on-hyperplane radial density
    s^(m-1) exp(-phi(sqrt(rho^2+s^2)))."""
    phi, m = prof.phi, prof.m
    logf, peak, log_peak, s_max, at_hi, _ = _halfspace_parts(phi, m, rho)
    a, b = integrand_window(logf, peak, log_peak, 0.0, s_max, at_hi)

    def logf_vec(s):
        s = np.asarray(s, dtype=float)
        r = np.hypot(rho, s)
        val = np.asarray(phi.value(r), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (m - 1) * np.log(s) - val if m > 1 else -val
        good = np.isfinite(val) & ((s > 0) | (m == 1))
        return np.where(good, out, -np.inf)

    return _InverseCdfTable(logf_vec, a, b, log_peak)


def _point_chunk(rng, table, d, n):
    """n points: radius by inverse CDF, direction by normalized Gaussian.
    Draw order (radii, then directions) is part of the determinism contract."""
    r = table.sample(rng.random(n))
    z = rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return z * (r / norms)[:, None]


def sample_points(prof: MeasureProfile, n: int, seed: int) -> np.ndarray:
    """(n, d) array of i.i.d. points distributed per the measure."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    table = _radial_table(prof)
    out = np.empty((n, prof.d))
    done = 0
    while done < n:
        take = min(_CHUNK, n - done)
        out[done:done + take] = _point_chunk(rng, table, prof.d, take)
        done += take
    return out


# ---------------------------------------------------------------------------
# polytope facet Monte Carlo


def _facet_values(prof, body, samples_per_facet, seed, facet_indices=None):
    """Per-facet boundary contributions value_i = halfspace(rho_i) * p_i.

    p_i is the Monte Carlo acceptance rate of points sampled on facet i's
    hyperplane (radius from the exact on-hyperplane density, direction
    uniform in the hyperplane) against all other constraints.  Each facet
    consumes an independent RNG stream derived from (seed, facet index),
    so any facet subset reproduces exactly.

    Returns (values, std_errors, accepted, attempted) arrays over the
    requested facets.
    """
    X, rho = as_facets(body)
    N, d = X.shape
    idx = np.arange(N) if facet_indices is None else np.asarray(facet_indices, int)
    S = int(samples_per_facet)
    if S < 1:
        raise InputError("samples_per_facet must be >= 1")

    hs_cache, table_cache = {}, {}
    values = np.zeros(idx.size)
    errors = np.zeros(idx.size)
    accepted = np.zeros(idx.size, dtype=np.int64)
    attempted = np.zeros(idx.size, dtype=bool)

    for pos, i in enumerate(idx):
        r = float(rho[i])
        if r not in hs_cache:
            hs_cache[r] = halfspace_surface(prof, r).value
        hs = hs_cache[r]
        if hs == 0.0:
            continue  # facet outside the support: exact zero contribution
        if r not in table_cache:
            table_cache[r] = _facet_table(prof, r)
        table = table_cache[r]

        others = np.concatenate((np.arange(i), np.arange(i + 1, N)))
        Xo = np.ascontiguousarray(X[others])
        ro = np.ascontiguousarray(rho[others])
        base = np.ascontiguousarray(r * (Xo @ X[i]))

        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((int(seed), int(i))))
        )
        acc = 0
        left = S
        while left:
            n = min(_CHUNK, left)
            left -= n
            s = table.sample(rng.random(n))
            z = rng.standard_normal((n, d))
            z -= np.outer(z @ X[i], X[i])
            norms = np.linalg.norm(z, axis=1)
            norms[norms == 0.0] = 1.0
            u = np.ascontiguousarray(z / norms[:, None])
            acc += _kernels.facet_accept_count(u, np.ascontiguousarray(s),
                                               Xo, base, ro)
        p = acc / S
        values[pos] = hs * p
        errors[pos] = hs * math.sqrt(p * (1.0 - p) / S)
        accepted[pos] = acc
        attempted[pos] = True
    return values, errors, accepted, attempted


def polytope_surface_mc(prof: MeasureProfile, body,
                        samples_per_facet: int, seed: int) -> SurfaceEstimate:
    """Boundary measure of a facet body (see `as_facets`) by facet-wise
    hyperplane Monte Carlo.

    When every sampled facet reports zero acceptance the estimate is 0 and
    the std_error is NaN with an explanatory note (the binomial error model
    carries no information in that regime).
    """
    dim = as_facets(body)[0].shape[1]
    if dim != prof.d:
        raise InputError(f"body lives in R^{dim}, measure in R^{prof.d}")
    if int(samples_per_facet) < 1:
        raise InputError(
            f"samples_per_facet must be >= 1, got {samples_per_facet}"
        )
    values, errors, accepted, attempted = _facet_values(
        prof, body, samples_per_facet, seed
    )
    total = float(values.sum())
    err = float(np.sqrt((errors ** 2).sum()))
    note = ""
    if attempted.any() and accepted.sum() == 0:
        err = math.nan
        note = "unreliable: zero acceptance on every facet"
    return SurfaceEstimate(total, err, "facet-mc",
                           int(samples_per_facet) * int(attempted.sum()), note)


# ---------------------------------------------------------------------------
# Minkowski finite-difference oracle


def _inflation_counts(body, pts, eps):
    """(inside, shell) counts; shell = inside the eps-inflated body but not
    the body.  Exact Euclidean distance except for polytopes, which use the
    offset relaxation (over-counts near edges by O(eps^2))."""
    if isinstance(body, Ball):
        v = np.linalg.norm(pts, axis=1) - body.R
    elif isinstance(body, HalfSpace):
        v = pts @ body.direction - body.offset
    elif isinstance(body, Slab):
        t = pts @ body.direction
        v = np.maximum(t - body.rho2, -t - body.rho1)
    elif isinstance(body, HyperRectangle):
        q = np.abs(pts) - body.half_widths[None, :]
        v = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = int(np.count_nonzero(np.all(q <= 0.0, axis=1)))
        shell = int(np.count_nonzero((v > 0.0) & (v <= eps)))
        return inside, shell
    elif isinstance(body, Polytope):
        return _kernels.polytope_shell_counts(
            np.ascontiguousarray(pts),
            np.ascontiguousarray(body.directions),
            np.ascontiguousarray(body.offsets),
            eps,
        )
    else:
        raise InputError(
            f"finite-difference surface needs a solid body, got {type(body).__name__}"
        )
    inside = int(np.count_nonzero(v <= 0.0))
    shell = int(np.count_nonzero((v > 0.0) & (v <= eps)))
    return inside, shell


def minkowski_fd_surface(prof: MeasureProfile, body, epsilon: float,
                         samples: int, seed: int) -> SurfaceEstimate:
    """Minkowski difference quotient [mu(body + eps B) - mu(body)] / eps by
    direct sampling from the measure.  Validation oracle for the exact and
    facet-MC surfaces (first-order biased in eps; std_error is binomial)."""
    if epsilon <= 0:
        raise InputError(f"inflation epsilon must be positive, got {epsilon}")
    samples = int(samples)
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    table = _radial_table(prof)
    shell_total = 0
    done = 0
    while done < samples:
        n = min(_CHUNK, samples - done)
        pts = _point_chunk(rng, table, prof.d, n)
        _, shell = _inflation_counts(body, pts, epsilon)
        shell_total += shell
        done += n
    p = shell_total / samples
    value = p / epsilon
    std_error = math.sqrt(p * (1.0 - p) / samples) / epsilon
    return SurfaceEstimate(value, std_error, "minkowski-fd", samples)


# ---------------------------------------------------------------------------
# the cube counterexample (not rotation invariant)


@dataclass(frozen=True)
class CubeCheck:
    surface: float
    expectation: float
    variance: float


def cube_lebesgue_check(d: int) -> CubeCheck:
    """Lebesgue measure on the unit cube: exact surface 2d, and E|X|,
    Var|X| by one-dimensional quadrature.

    E|X|^2 = d/12 exactly.  E|X| uses the identity
    sqrt(a) = (1/(2 sqrt(pi))) int_0^inf (1 - e^(-s a)) s^(-3/2) ds,
    which factorizes over independent coordinates: with
    c(s) = E[e^(-s x^2)] = sqrt(pi/s) erf(sqrt(s)/2) for x ~ U[-1/2, 1/2],
    E|X| = (1/sqrt(pi)) int_0^inf (1 - c(u^2)^d) / u^2 du  (s = u^2).

    The cube measure is not rotation invariant; this record feeds the
    demonstration that the scaling law fails off the rotation-invariant
    class (surface 2d vs the law's ~d^(1/4) prediction).
    """
    if int(d) != d or d < 1:
        raise InputError(f"dimension must be a positive integer, got {d}")
    d = int(d)

    def c_of(s):
        if s < 1e-8:
            return 1.0 - s / 12.0 + s * s / 160.0
        return math.sqrt(math.pi / s) * erf(0.5 * math.sqrt(s))

    def integrand(u):
        if u < 1e-9:
            return d / 12.0
        s = u * u
        return -math.expm1(d * math.log(c_of(s))) / s

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                    limit=400)
    expectation = val / math.sqrt(math.pi)
    variance = d / 12.0 - expectation * expectation
    return CubeCheck(surface=2.0 * d, expectation=expectation,
                     variance=variance)
