"""Convex bodies and their boundary measure under a radial measure.

The boundary measure ("surface area") of a convex body Q under the
probability measure with density C_d exp(-phi(|x|)) is the integral of the
density over the boundary dQ.  Symmetric bodies admit exact formulas:

* sphere of radius R:      R^m exp(-phi(R)) / J_m
* half-space at offset r:  C_d m nu_m int_0^inf s^(m-1) exp(-phi(sqrt(r^2+s^2))) ds
* slab:                    two half-space boundaries

(m = d-1, nu_k the unit-ball volume in R^k, J_m the radial moment).
Polytopes are integrated facet by facet with Monte Carlo on each facet's
hyperplane: per sample, by rotation invariance, only the q = min(N-1, d-1)
direction coordinates that the other facets' normals can see, and the
radius integrated out exactly over the chord of accepted radii, with the
CDF of the on-hyperplane radius table, and each direction scored together
with its reflection (antithetic pairs).  Every facet draws its directions
with one draw (`_facet_draw`): B sets of its neighbour normals, Haar
rotations of them for 2 <= q <= _ROTATE_MAX_Q and the normals themselves
(B = 1) otherwise, and a base of ceil(S / B) unit rows scored against every
set.  When q = d-1 <= _RQMC_MAX_Q the base is a fixed low-discrepancy set
under B = _RQMC_REPLICATES rotations (randomised quasi-Monte Carlo), and
the std_error comes from the spread of the replicate means; otherwise the
base is normalised Gaussian rows under about sqrt(S / q) rotations (one
unrotated set for q <= 1 or q > _ROTATE_MAX_Q), every two directions are
independent, and the std_error comes from their sample spread.  Facets on
the chord kernel's float32 product whose neighbours cut off little score a
control variate: the overlap of the cuts, with the first-order sum of the
pair cuts known by quadrature (`_pair_cut_means`).  As
<theta Q, x> = <theta, x Q^T>, the draw rotates the k neighbour normals
instead of the directions, and a direction's radius rho > 0, from one
chi^2 law, goes to the chord kernel, which returns the chord ends divided
by it (the chord of rho v is the chord of v over rho).  A facet's
statistics come from one array of its S pair means.  No facet's
directions depend on the chunking: in facet Monte Carlo _CHUNK only
bounds the memory of a block.
The facets of one call run on two threads, with the bits of one, when
each has at least _POOL_MIN_SAMPLES samples, a chord product of at least
_POOL_MIN_PRODUCTS products per sample, and neighbour normals that fit in
half of the chord kernel's 8 MB block budget (`_facet_values`).
Independently, the Minkowski difference quotient
[mu(Q + eps B) - mu(Q)] / eps is estimated by direct sampling as a
validation oracle, which likewise draws only what the body's shell test
reads; it and `sample_points`, whose points are i.i.d., draw directions
with `_sphere_coordinates`.

The ball-uniform measure gives its own boundary sphere the surface value
d (phi(R) is the limit from below), the equality case of the rough bound
m J_{m-1}/J_m.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, ndtri

from . import _kernels
from .errors import InputError, NumericsError, QuadratureError
from .functionals import (MeasureProfile, _REL_TOL, _cap_tail, log_ball_volume,
                          _radial_law)

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

# fixed sampling chunk: part of the determinism contract of the FD oracle
# and `sample_points`; in facet Monte Carlo it only bounds a block's memory
_CHUNK = 1 << 16

_UNIT_TOL = 1e-12

# The most direction coordinates for which facet Monte Carlo rotates the
# normals (`_facet_draw`): B Haar rotations of the k neighbour normals,
# scored against a base of ceil(S / B) unit rows.  The rotations cost
# B (q^3 + k q^2) for their QR factors and the k rotated normals, against
# the n q normals they save.
# The threshold was timed when the n directions were rotated instead, at an
# extra n q^2 (on a 2-core x86 host with OpenBLAS, rotated against plain
# draws into R^1023: at q = 68 2.2x faster at 20000 directions and 1.2x at
# 2500; at q = 80 2.0x and 1.3x; at q = 96 1.8x and 1.0x, and 0.7x at 1000;
# at q = 128 slower at every n up to 20000).  Facets with q <= 1 or
# q > _ROTATE_MAX_Q score S Gaussian base rows against the normals
# themselves (B = 1, no rotation).
_ROTATE_MAX_Q = 80

# The sample count beyond which a Gaussian base's rotation count
# B = isqrt(S // q) stops growing: the stack of B k q rotated normals stays
# at most what it takes at 2^16 samples.
_ROTATE_MAX_SAMPLES = 1 << 16

# The most direction coordinates q = d - 1 for which facet Monte Carlo
# scores randomised QMC directions (`_facet_draw` with
# `_rqmc_base`): _RQMC_REPLICATES Haar rotations of one fixed low-discrepancy
# base, so the std_error has _RQMC_REPLICATES - 1 degrees of freedom.  The
# threshold was set by std_error^2 x seconds against the rotated i.i.d.
# draw (2-core x86 host with OpenBLAS; Gaussian polytopes of d + 3 and 2d
# random facets at 0.65 and 0.8 t0, 4 facets each, 60 seeds): at 2500
# samples per facet 1.5-1.7x better at q = 15, 1.1-1.4x at q = 19, 1.1x at
# q = 23, 0.95-1.1x at q = 24, 0.85-1.0x at q = 31 and 0.6-0.7x at q = 47;
# at 20000 samples 2.4-2.5x at q = 15, 1.4-1.9x at q = 23 and 1.2-1.4x at
# q = 31.
_RQMC_MAX_Q = 23
_RQMC_REPLICATES = 16

# The largest sum of pair-cut means, sum_j mu_ij, at which a facet on the
# float32 chord product scores the pair-cut control variate
# (`_facet_values`).  Set by std_error^2 x seconds, variate over plain, at
# 2000 samples per facet (2-core x86 host; Gaussian; mean std_error^2 of 3
# to 5 seeds; the variate took 0.75-1.04x the plain score's time at sums
# up to 0.18 and 1.1-1.5x from 0.21 to 0.93): construction polytopes at
# d = 1024 (sum 0.18) 9-12x, random polytopes of 1100 facets at d = 400
# and 512 (sum 0.21 to 9.4) 5.3-5.8x at 0.21, 3.0-3.5x at 0.30, 1.4-1.7x at
# 0.47, 0.91-1.10x at 0.57, 0.68-0.79x at 0.70, 0.41-0.50x at 0.86,
# 0.06-0.08x at 1.6 and 0.0003x at 5.4, and boxes at d = 520 15-20x at
# 0.11, 1.9-2.1x at 0.47, 1.0-1.1x at 0.67, 0.41-0.49x at 0.93 and 0.06x
# at 1.8.
_CV_MAX_SUM = 0.6

# The pair-cut table (`_pair_cut_means`) starts from a Chebyshev
# interpolant of this degree and doubles it until its checked error is at
# most _PAIR_TOL, or until it reaches _PAIR_MAX_DEGREE; the error it
# reaches enters the std_error.
_PAIR_DEGREE = 16
_PAIR_MAX_DEGREE = 512
_PAIR_TOL = 1e-9
# Gauss-Legendre nodes per window piece of the pair-cut table's `expect`
# (checked against twice as many): at d = 1024 the two rules agree to 1e-12
_PAIR_NODES = 16

# The floors of `_facet_workers`: samples per facet, and products per
# sample in the chord product (k q: k neighbour normals of q coordinates),
# the part of a facet that runs without the GIL.  Below 8192 samples the
# GIL, held between a chunk's small numpy calls, made two workers slower
# (2-core x86 host: 2500-sample polytopes at d <= 16, by 20-40%).  Right
# after a threaded OpenBLAS product, whose idle helper thread keeps spinning
# on a core for a while, two threads took 1.06-1.22x one thread's time at
# every size (same host, 4 facets x 20000 samples, d = 3 to 256); after a
# pause, 0.63-0.75x from k q = 256 to 4624 but 0.76-1.02x from k q = 4 to
# 49, too small a gain to risk on small facets.
_POOL_MIN_SAMPLES = 8192
_POOL_MIN_PRODUCTS = 64

# numpy's bundled OpenBLAS exports its thread count under these names
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_set_num_threads64_")

# exp(x) is 0.0 below this, with a margin for the rounding of x
_LOG_UNDERFLOW = math.log(math.ulp(0.0)) - 1.0

_ONE_SAMPLE_NOTE = "unreliable: one sample per facet gives no sample variance"


def _rng(*key):
    """The PCG64 generator seeded by the integer tuple `key`."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(tuple(int(k) for k in key)))
    )


def _unit_rows(z):
    """The rows of z scaled to unit length in place, and z; zero rows stay
    zero."""
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    z /= norms[:, None]
    return z


def _as_unit_rows(vecs, what):
    v = np.atleast_2d(np.asarray(vecs, dtype=float))
    if not np.all(np.isfinite(v)):
        raise InputError(f"{what} must be finite")
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
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
            raise InputError(
                f"half-space offset must be finite and >= 0, got {self.offset}"
            )


def _check_slab_offsets(rho1, rho2):
    """InputError unless -rho1 < rho2 (an infinite offset is an open side)."""
    if math.isnan(rho1) or math.isnan(rho2):
        raise InputError(f"slab offset is not a number: rho1={rho1}, rho2={rho2}")
    if not -rho1 < rho2:
        raise InputError(f"empty slab: need -rho1 < rho2, got rho1={rho1}, rho2={rho2}")


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
        _check_slab_offsets(self.rho1, self.rho2)


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
        if np.any(np.isnan(offs)):
            raise InputError("polytope offset is not a number")
        if np.any(np.isinf(offs)):
            raise InputError("polytope offsets must be finite")
        if np.any(offs <= 0.0):
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

    Covers Polytope, HalfSpace, Slab and HyperRectangle.  Offsets may be 0
    (origin on the boundary), which the Polytope gate rejects, and a slab
    that misses the origin has a negative one.
    """
    if isinstance(body, Polytope):
        return body.directions, body.offsets
    if isinstance(body, HalfSpace):
        return body.direction[None, :], np.array([body.offset])
    if isinstance(body, Slab):
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
    R^m exp(-phi(R)) / J_m."""
    if not (0 < R < math.inf):
        raise InputError(f"sphere radius must be positive and finite, got {R}")
    if R > prof.support_radius:
        warnings.warn(
            "sphere lies outside the measure support; boundary measure is 0",
            stacklevel=2,
        )
        return SurfaceEstimate(0.0, 0.0, "exact", 0)
    log_val = prof.m * math.log(R) - prof.phi.value(R) - prof.log_Jm
    return SurfaceEstimate(math.exp(log_val), 0.0, "exact", 0)


def sphere_argmax(prof: MeasureProfile) -> float:
    """Radius maximizing sphere_surface, by golden-section search on the
    log profile.  Coincides with prof.t0 (consistency check of the solver)."""
    law = _radial_law(prof.phi, prof.m)
    a, b = law.window
    logf = law.logf

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


def halfspace_surface(prof: MeasureProfile, rho: float) -> SurfaceEstimate:
    """Exact boundary measure of a half-space whose boundary hyperplane has
    distance rho from the origin:
    C_d m nu_m int_0^inf s^(m-1) exp(-phi(sqrt(rho^2+s^2))) ds,
    i.e. C_d m nu_m I_{m-1}(rho) (see `functionals`)."""
    if not (rho >= 0):  # inf is allowed: the plane misses every support
        raise InputError(f"half-space offset must be >= 0, got {rho}")
    return SurfaceEstimate(_halfspace_law(prof, rho)[0], 0.0, "exact", 0)


def _halfspace_law(prof, rho):
    """(C_d m nu_m I_{m-1}(rho), the law of I_{m-1}(rho)) for rho >= 0;
    (0.0, None) when the hyperplane misses the support.  The value is 0.0
    without quadrature when log_peak + log(b - a) bounds it below underflow
    (the peak-normalized integrand is at most 1 on the window [a, b]): far
    in the tail the rounding of phi(rho) would swamp the quadrature target."""
    if rho >= prof.support_radius:
        return 0.0, None
    m = prof.m
    law = _radial_law(prof.phi, m - 1, rho)
    log_scale = prof.log_normalizer + math.log(m) + log_ball_volume(m)
    a, b = law.window
    if log_scale + law.log_peak + math.log(b - a) < _LOG_UNDERFLOW:
        return 0.0, law
    return math.exp(log_scale + law.log_integral()), law


def slab_surface(prof: MeasureProfile, rho1: float, rho2: float) -> SurfaceEstimate:
    """Exact boundary measure of the slab {-rho1 <= <x, theta> <= rho2}:
    the sum of its two parallel hyperplane boundaries (each at its distance
    from the origin)."""
    _check_slab_offsets(rho1, rho2)
    v1 = halfspace_surface(prof, abs(rho1)).value
    v2 = halfspace_surface(prof, abs(rho2)).value
    return SurfaceEstimate(v1 + v2, 0.0, "exact", 0)


# ---------------------------------------------------------------------------
# sampling


#: Inverse-CDF tables start from this many knots and double until the
#: midpoint interpolation error of the CDF is at most _TABLE_TOL.
_TABLE_KNOTS = 4096
_TABLE_TOL = 1e-6


class _InverseCdfTable:
    """Monotone inverse-CDF interpolation table on a density's active window.

    The grid is refined (doubling from _TABLE_KNOTS) until the midpoint
    interpolation error of the CDF is below _TABLE_TOL in probability;
    NumericsError when that needs more than `max_knots` knots.  `cdf_error`
    is the midpoint error that the final grid reaches.  `slope` is what
    `cdf_at` reads.  `top` is the first knot at which the CDF rounds to 1:
    `cdf_at` reads exactly 1 at and above it, at or below the window's end.
    """

    __slots__ = ("grid", "cdf", "slope", "cdf_error", "top")

    def __init__(self, logf_vec, a, b, log_peak, max_knots=1 << 16):
        if not b > a:
            raise InputError("empty sampling window")
        n = _TABLE_KNOTS
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
            if mid_err <= _TABLE_TOL:
                break
            if n >= max_knots:
                raise NumericsError(
                    f"inverse-CDF table did not converge: midpoint CDF error "
                    f"{mid_err:.3e} exceeds {_TABLE_TOL:.0e} at {n} knots"
                )
            n *= 2
        grid = fine[::2]
        cdf = np.maximum.accumulate(coarse)
        cdf[0], cdf[-1] = 0.0, 1.0
        self.grid = grid
        self.cdf = cdf
        self.cdf_error = float(mid_err)
        # np.interp's slope on each knot interval, and 0 past the last knot
        self.slope = np.append(np.diff(cdf) / np.diff(grid), 0.0)
        # the knots from here on hold 1, and so do the intervals between
        # them (slope 0), which is where cdf_at puts every t >= top
        self.top = float(grid[np.argmax(cdf == 1.0)])

    def sample(self, u):
        """Map uniforms in [0, 1) to radii by linear interpolation."""
        idx = np.searchsorted(self.cdf, u, side="right") - 1
        idx = np.clip(idx, 0, self.grid.size - 2)
        dc = self.cdf[idx + 1] - self.cdf[idx]
        frac = (u - self.cdf[idx]) / np.where(dc > 0.0, dc, 1.0)
        return self.grid[idx] + frac * (self.grid[idx + 1] - self.grid[idx])

    def cdf_at(self, t):
        """The piecewise-linear CDF that `sample` inverts: P(sample <= t)
        for a uniform input, 0 below the window and 1 above it.

        Bit for bit np.interp(t, grid, cdf), with its formula, but without
        its binary search: the grid is uniform, so a point's knot interval
        is its offset over the knot spacing, which rounding can put one
        knot off; one comparison on each side corrects that.
        """
        g, c, slope = self.grid, self.cdf, self.slope
        x = np.clip(t, g[0], g[-1])
        # fmin maps nan to the last interval, where the formula gives nan
        scale = (g.size - 1) / (g[-1] - g[0])
        j = np.fmin((x - g[0]) * scale, g.size - 2).astype(np.intp)
        j -= x < g[j]
        j += x >= g[j + 1]
        return slope[j] * (x - g[j]) + c[j]


def _radial_table(prof: MeasureProfile) -> _InverseCdfTable:
    """Inverse-CDF table of the point radius: the law of I_m(0).  Built on
    the first call for a profile and kept on it (profiles are immutable;
    the table is no dataclass field, so equality and repr ignore it)."""
    table = vars(prof).get("_radius_table")
    if table is None:
        law = _radial_law(prof.phi, prof.m)
        table = _InverseCdfTable(law.logf_vec, *law.window, law.log_peak)
        object.__setattr__(prof, "_radius_table", table)
    return table


def _facet_table(law) -> _InverseCdfTable:
    """Inverse-CDF table for the on-hyperplane radial density
    s^(m-1) exp(-phi(sqrt(rho^2+s^2))), given its law of I_{m-1}(rho)."""
    return _InverseCdfTable(law.logf_vec, *law.window, law.log_peak)


def _pair_cut_means(law, n, kappa, limit):
    """(mu, error): the pair-cut means mu_j = M(kappa_j) of a facet law for
    the kappa_j > 0 of its neighbours, and one bound on the error of every
    mu_j; None when sum_j mu_j exceeds `limit`.
    M(kappa) = E_s[T_n(kappa / s)], s from `law` (the facet's radius law)
    and T_n(tau) = P(u_1 > tau) for u uniform on the unit sphere of R^n
    (`_cap_tail` with n - 1), is the probability that a neighbour at slack
    sigma and unit normal of in-plane length sqrt(1 - c^2),
    kappa = sigma / sqrt(1 - c^2), cuts off a point of the facet's
    hyperplane.  An infinite kappa (a parallel neighbour) gives 0.

    With few distinct kappa each is its own `_RadialLaw.expect`.  Otherwise
    M is its Chebyshev interpolant over the kappa range, checked as
    `_InverseCdfTable` checks its grid: at the extrema of the interpolant's
    degree, which interleave with its nodes, and with the degree doubled
    from _PAIR_DEGREE until it is within _PAIR_TOL of M there, or reaches
    _PAIR_MAX_DEGREE.  The error is that check's plus the largest
    quadrature error of `expect`.  M is nonincreasing, so the first
    degree's points already bound the sum from below (each mu_j by M at the
    next point above kappa_j, less its quadrature error), and a sum that
    bound puts above `limit` ends the table there."""
    mu = np.zeros(kappa.size)
    fin = np.isfinite(kappa)
    ks = kappa[fin]
    if ks.size == 0:
        return mu, 0.0

    def tails(grid):
        return law.expect(lambda s: _cap_tail(n - 1, grid[:, None] / s),
                          _PAIR_NODES)

    uniq = np.unique(ks)
    if uniq.size <= 2 * _PAIR_DEGREE:
        vals, err = tails(uniq)
        mu[fin] = vals[np.searchsorted(uniq, ks)]
        return (mu, float(err.max())) if mu.sum() <= limit else None
    cheb = np.polynomial.chebyshev
    mid, half = 0.5 * (uniq[-1] + uniq[0]), 0.5 * (uniq[-1] - uniq[0])
    deg = _PAIR_DEGREE
    while True:
        nodes, check = cheb.chebpts1(deg + 1), cheb.chebpts2(deg + 2)
        grid = mid + half * np.concatenate([nodes, check])
        vals, err = tails(grid)
        if deg == _PAIR_DEGREE:
            order = np.argsort(grid)
            low = np.append(vals[order] - err[order], 0.0)  # 0 above the grid
            if low[np.searchsorted(grid[order], ks)].sum() > limit:
                return None
        coef = cheb.chebfit(nodes, vals[:deg + 1], deg)
        check_err = float(np.abs(cheb.chebval(check, coef) - vals[deg + 1:]).max())
        if check_err <= _PAIR_TOL or deg >= _PAIR_MAX_DEGREE:
            break
        deg *= 2
    mu[fin] = cheb.chebval((ks - mid) / half, coef)
    return (mu, check_err + float(err.max())) if mu.sum() <= limit else None


def _pair_cut_sum(law, d, shape, slack, c):
    """(sum_j mu_ij, the summed error of the mu_ij) when a facet in R^d
    with (k, q) neighbour normals of that `shape`, slacks sigma_ij and
    products c_j = <X_i, X_j> scores the pair-cut variate
    (`_facet_values`), else None: its chords must come from the float32
    product, every slack must be positive and the sum at most
    _CV_MAX_SUM."""
    if not (_kernels.filtered(1, *shape) and slack.min() > 0.0):
        return None
    with np.errstate(divide="ignore"):
        kappa = slack / np.sqrt(np.maximum((1.0 - c) * (1.0 + c), 0.0))
    means = _pair_cut_means(law, d - 1, kappa, _CV_MAX_SUM)
    if means is None:
        return None
    return float(means[0].sum()), shape[0] * means[1]


def _cut_excess(w, cuts, table):
    """z = w + sum_j r_j - 1 for each direction of a `facet_chords` call on
    the float32 product, in the layout of w: r_j = 1 - F(t_j) over the
    direction's in-window cuts (rows, ends), t_j the end that cut j alone
    sets, on the direction's radius scale as the chord ends are, and F the
    table's CDF.  The cuts along a ray are nested half-lines, so
    1 - w = max_j r_j <= sum_j r_j and z >= 0 up to rounding."""
    rows, ends = cuts
    r = 1.0 - table.cdf_at(ends)
    excess = np.bincount(rows, weights=r, minlength=w.size)
    return (w + excess.reshape(w.shape)) - 1.0


def _point_chunk(rng, table, k, d, n):
    """The first k <= d coordinates of n points in R^d: radius by inverse
    CDF, then a uniform direction (`_sphere_coordinates` with m = d).  Draw
    order (radii, then directions) is part of the determinism contract."""
    r = table.sample(rng.random(n))
    return r[:, None] * _sphere_coordinates(rng, n, k, d)


def _sphere_coordinates(rng, n, k, m):
    """(n, k) array: the first 1 <= k <= m coordinates of n uniform unit
    vectors in R^m, g / sqrt(|g|^2 + chi^2_(m-k)) with g ~ N(0, I_k).
    Draws g, then the chi^2 completion if k < m."""
    g = rng.standard_normal((n, k))
    sq = np.einsum("ij,ij->i", g, g)
    if k < m:
        sq += rng.chisquare(m - k, n)
    g /= np.sqrt(sq)[:, None]
    return g


def _haar(rng, count, q):
    """count Haar-distributed q x q orthogonal matrices: the QR factors of
    a Gaussian stack, their columns multiplied by the signs of R's diagonal
    (Mezzadri 2007)."""
    Q, T = np.linalg.qr(rng.standard_normal((count, q, q)))
    Q *= np.where(np.diagonal(T, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    return Q


@functools.lru_cache(maxsize=8)
def _rqmc_base(n, q):
    """The fixed low-discrepancy base of n unit rows in R^q (q >= 2) that
    the RQMC draw rotates, read-only and cached: for q = 2 the angles
    pi (j + 1/2) / n, j < n, equally spaced over half the circle (the
    antithetic -u covers the other half); for q >= 3 ndtri of the
    Kronecker points frac(1/2 + j alpha), j = 1 .. n, alpha_l = g^-l with
    g the root of g^(q+1) = g + 1 (the generalised golden ratio, Roberts
    2018), normalised.  Row j does not depend on n for q >= 3."""
    if q == 2:
        a = (np.arange(n) + 0.5) * (math.pi / n)
        z = np.stack([np.cos(a), np.sin(a)], axis=1)
    else:
        g, last = 2.0, 0.0
        while g != last:
            g, last = (1.0 + g) ** (1.0 / (q + 1)), g
        alpha = g ** -np.arange(1.0, q + 1)
        t = np.modf(0.5 + np.arange(1.0, n + 1)[:, None] * alpha)[0]
        z = _unit_rows(ndtri(t))
    z.flags.writeable = False
    return z


def _is_rqmc(q, m):
    """Whether facet MC scores RQMC directions with q of m coordinates."""
    return 2 <= q == m <= _RQMC_MAX_Q


def _facet_draw(rng, S, normals, m):
    """A facet's draw of its S directions with the first q of m
    coordinates, for the (k, q) `normals`, up to its base rows:
    (sets, n, lengths).  Direction (r, b) is rho_rb theta_r Q_b for
    n = ceil(S / B) unit base rows theta_r and B normal sets
    sets[b] = normals Q_b^T, and the S scored ones are the first S in
    (n, B) row-major order.  B and Q_b:

    * RQMC (`_is_rqmc`): B = min(_RQMC_REPLICATES, S) Haar rotations
      (`_haar`).
    * 2 <= q <= _ROTATE_MAX_Q otherwise: B = max(1, isqrt(min(S,
      _ROTATE_MAX_SAMPLES) // q)) Haar rotations.
    * q <= 1 or q > _ROTATE_MAX_Q: B = 1 and no rotation, sets normals[None].

    lengths is None when q = 0 or q = m, where rho = 1; else (Y, X), Y an
    (n, B) draw of chi^2_(m-q) and X an (n, B - 1) draw of chi^2_q, and
    rho_rb^2 = X_rb / (X_rb + Y_rb), with X_r0 = |g_r|^2 from the base
    row's own Gaussian vector (`_direction_blocks`).  Draws the rotations,
    then Y, then X; the base rows come per block."""
    q = normals.shape[1]
    rotated = 2 <= q <= _ROTATE_MAX_Q
    B = (min(_RQMC_REPLICATES, S) if _is_rqmc(q, m) else
         max(1, math.isqrt(min(S, _ROTATE_MAX_SAMPLES) // q)) if rotated else 1)
    n = -(-S // B)
    sets = normals @ _haar(rng, B, q).swapaxes(1, 2) if rotated else normals[None]
    lengths = ((rng.chisquare(m - q, (n, B)), rng.chisquare(q, (n, B - 1)))
               if 0 < q < m else None)
    return sets, n, lengths


def _direction_blocks(rng, w, S, m, draw):
    """A facet's directions block by block, from its `_facet_draw`, each
    as (theta, sets, radii, out): the chords of theta against every set,
    divided by the radii, score the pair means that go into `out`, a
    (sets, rows) view of the pair-mean buffer w of n B entries, direction
    (r, b) at r B + b.  A block scores _CHUNK // B base rows against all B
    sets.  Its base rows are the `_rqmc_base` rows of the block for RQMC,
    else the block's own n_blk q Gaussian rows g, drawn here in block
    order and scaled to unit length; with lengths the radii are
    sqrt(X / (X + Y)), X_r0 = |g_r|^2.  The RQMC base of n - 1 rows is the
    first n - 1 of n, so a short replicate's last-row score falls in the
    unused tail, except at q = 2 = m, where the short replicates score
    their own base of n - 1 angles."""
    sets, n, lengths = draw
    B, q = sets.shape[0], sets.shape[2]
    rows = w.reshape(n, B)
    if _is_rqmc(q, m):
        long = S - B * (n - 1)
        groups = [(_rqmc_base(n, q), 0, B)] if q > 2 or long == B else [
            (_rqmc_base(n, q), 0, long), (_rqmc_base(n - 1, 2), long, B)]
        for base, s0, s1 in groups:
            for blk in _kernels._blocks(base.shape[0], _CHUNK // B):
                yield base[blk], sets[s0:s1], 1.0, rows[blk, s0:s1].T
        return
    for blk in _kernels._blocks(n, _CHUNK // B):
        g = rng.standard_normal((blk.stop - blk.start, q))
        sq = np.einsum("ij,ij->i", g, g)
        g /= np.sqrt(sq)[:, None]
        radii = 1.0
        if lengths is not None:  # (Y, X), with X_r0 = |g_r|^2
            x = np.column_stack((sq, lengths[1][blk]))
            radii = np.sqrt(x / (x + lengths[0][blk])).T
        yield g, sets, radii, rows[blk].T


def _replicate_error(buf, S, p, B):
    """The replicate spread of an RQMC facet's mean p of its S pair means,
    laid out in buf as `_direction_blocks` writes them: the spread of the B
    i.i.d. replicate sums T_b of n_b directions about n_b p,
    sqrt(B / (B - 1) sum_b (T_b - n_b p)^2) / S (with equal n_b the sample
    variance of the replicate means over B)."""
    rows = buf.reshape(-1, B)
    n = rows.shape[0]
    long = S - B * (n - 1)
    sums = rows[:n - 1].sum(axis=0)
    sums[:long] += rows[n - 1, :long]
    sizes = np.full(B, n - 1.0)
    sizes[:long] += 1.0
    var = float(np.square(sums - sizes * p).sum()) * B / (B - 1)
    return math.sqrt(var) / S


def _gram_factor(A):
    """Rows with the Gram matrix A A^T of the (k, m) array A in min(k, m)
    columns: R^T from A^T = Q R when k < m, else A itself."""
    k, m = A.shape
    return np.linalg.qr(A.T, mode="r").T if k < m else A


def _hyperplane_coordinates(X, i, Xx, out=None):
    """The rows of X other than row i, projected into x^perp (x = X[i], a
    unit vector), in an orthonormal basis of x^perp: A H without its first
    column, A the other rows and H = I - 2 h h^T / |h|^2, h = x + sign(x_0)
    e_0, the reflection that maps x to -sign(x_0) e_0.  Xx is the product
    X @ x, which the caller has at hand.  O(km) for the k other rows of
    length m; written into `out` (k, m - 1) when given."""
    x = X[i]
    sign = 1.0 if x[0] >= 0.0 else -1.0
    c = -1.0 / (1.0 + abs(x[0]))  # -2 / |h|^2
    Ah = np.delete(Xx + sign * X[:, 0], i)  # A h
    if out is None:
        out = np.empty((X.shape[0] - 1, X.shape[1] - 1))
    np.multiply.outer(Ah, c * x[1:], out=out)  # A h c h[1:]^T
    out[:i] += X[:i, 1:]
    out[i:] += X[i + 1:, 1:]
    return out


def sample_points(prof: MeasureProfile, n: int, seed: int) -> np.ndarray:
    """(n, d) array of i.i.d. points distributed per the measure."""
    rng = _rng(seed)
    table = _radial_table(prof)
    out = np.empty((n, prof.d))
    for blk in _kernels._blocks(n, _CHUNK):
        out[blk] = _point_chunk(rng, table, prof.d, prof.d, blk.stop - blk.start)
    return out


# ---------------------------------------------------------------------------
# polytope facet Monte Carlo


def _pool_floors(S, N, d):
    """Whether a `_facet_values` call with S samples per facet on N facets
    in R^d meets the pool's floors: S >= _POOL_MIN_SAMPLES,
    k q >= _POOL_MIN_PRODUCTS (k = N - 1 neighbour normals of
    q = min(k, d - 1) coordinates) and a facet's neighbour normals,
    k (d - 1) float64 entries, fit in half of _kernels._BLOCK_BYTES.  Each
    worker holds its own normals, so at d = 1024, where they take 41 MB,
    the call stays on one thread."""
    k = N - 1
    return (S >= _POOL_MIN_SAMPLES and k * min(k, d - 1) >= _POOL_MIN_PRODUCTS
            and 16 * k * (d - 1) <= _kernels._BLOCK_BYTES)


def _facet_workers(S, N, d, facets):
    """Threads for a `_facet_values` call of `facets` facets with S samples
    each on N facets in R^d: min(2, usable CPUs, facets) when the call
    meets `_pool_floors`, else 1."""
    if not _pool_floors(S, N, d):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(2, cpus, facets))


def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, looked
    up in the library of numpy's core module; None when either is
    missing."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = (getattr(lib, name) for name in _BLAS_THREAD_SYMBOLS)
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _facet_values(prof, body, samples_per_facet, seed, facet_indices=None):
    """Per-facet boundary contributions value_i = halfspace(|rho_i|) * p_i.

    p_i is the probability that a point y = rho_i X_i + s u on facet i's
    hyperplane meets the k = N-1 other constraints, with the radius s from
    the exact on-hyperplane density and the direction u uniform on the unit
    sphere of X_i^perp.  For each direction the accepted radii form one
    chord [lo, hi] (`_kernels.facet_chords`), so the radius is integrated
    out exactly: a direction u scores w(u) = F(hi) - F(lo), F the CDF of
    the radius table (the piecewise-linear CDF that its sampler inverts),
    and p_i = E[w].  This is directional simulation; by
    Rao-Blackwellisation var(w) <= p_i (1 - p_i), the variance of scoring
    each sample's acceptance 0 or 1.  The reflection -u is uniform too, and
    its chord comes from the same product (`facet_chords` returns both), so
    a sample scores the pair mean (w(u) + w(-u)) / 2 (antithetic variates,
    Hammersley and Morton 1956): still unbiased, with half of var(w) when
    w(u) and w(-u) are uncorrelated, less when they are negatively
    correlated, and var(w) itself when w(u) = w(-u), as on a box.

    One rule scores every facet.  It picks the scored pair means x (those
    of w, or of z for the pair-cut variate below), an offset (0, or
    1 - sum_j mu_ij for the variate) and table terms, and reports the
    value hs (offset + mean x) and the std_error hs hypot(spread, terms).
    The spread is that of the B replicate means with RQMC directions
    (below, `_replicate_error`), else sqrt(var / S), var the sample
    variance of the S values of x, which with i.i.d. or pairwise
    independent directions holds whatever the pair correlation.  The table
    terms bound biases that the spread does not see: F is the radius
    table's CDF, not the exact one, and each read of it errs by up to its
    CDF error (`_InverseCdfTable.cdf_error`).  The plain score takes none;
    RQMC takes 2 cdf_error, the bound on the bias of w = F(hi) - F(lo),
    which the replicate spread can undercut at q = 2; the variate takes
    the summed error of its mu_ij and (2 + c) cdf_error, c the mean number
    of cuts per direction (F enters w once and each r_j once).  The
    std_error does not cover the error of hs itself (the quadrature's
    1e-10).  It is NaN at S = 1, where no spread is defined.  Both figures
    are taken from one array of pair means, after the last chunk.

    Pair-cut control variate.  A facet scores z = w + sum_j r_j - 1 in
    place of w when its chords come from the kernel's float32 product
    (`_kernels.filtered`: one normal set, which every q > _ROTATE_MAX_Q
    has, and enough neighbours and coordinates), every slack
    sigma_ij = rho_j - rho_i <X_i, X_j> is positive, and the pair-cut means
    sum to at most _CV_MAX_SUM.  Along a direction, neighbour j alone cuts
    off the mass r_j = 1 - F(t_j) beyond the end t_j of the chord it alone
    leaves.  The cuts along a ray are nested half-lines, so
    1 - w = max_j r_j <= sum_j r_j and z >= 0, and E[r_j] = mu_ij, the
    pair-cut mean of `_pair_cut_means` (the probability that j cuts off a
    point of the hyperplane, a 1-D expectation over the facet's law).  So
    p_i = 1 - sum_j mu_ij + E[z], and only the overlap of the cuts is
    sampled.  r_j is 0 unless t_j lies below the table's `top`, from which
    its CDF reads exactly 1, and the kernel returns exactly those cuts (and
    reads chord ends at or above it as inf, which keeps w's bits).  The
    value is hs (1 - sum_j mu_ij + mean z), z from the same draw's pair
    means, and the std_error follows the rule above.  accepted stays the
    sum of the pair means of w, and the draw and the RNG stream are the
    plain score's.  At d = 1024 (construction polytopes,
    sum_j mu_ij = 0.18) the variance fell 8-9x at the same time; as
    sum_j mu_ij grows the sum overcounts the nested cuts and the variate
    loses (_CV_MAX_SUM's measurement).

    Acceptance reads u only through its products with the neighbour
    normals projected into X_i^perp, whose law depends on those normals
    only through their Gram matrix.  So the normals are written in
    coordinates of X_i^perp (one buffer per worker, reused by its facets)
    and cut to q = min(k, d-1) columns with that Gram matrix, and u is the
    first q coordinates of a uniform unit vector in R^(d-1).  Rank-deficient
    neighbours (parallel facets, slabs) need no special case.

    A facet reads its offset rho_i only through rho_i^2, in the radial law
    (built at |rho_i|), and through the signed anchor products rho_i
    <X_i, X_j>, so the origin may lie outside the body.

    Every facet draws its directions with one draw (`_facet_draw`,
    `_direction_blocks`): B sets of normals, a base of n = ceil(S / B)
    unit rows theta_r, and direction (r, b) is rho_rb theta_r Q_b.  For
    2 <= q <= _ROTATE_MAX_Q the Q_b are B Haar rotations from the QR
    factors of a Gaussian stack (Mezzadri 2007); for q <= 1 or
    q > _ROTATE_MAX_Q, B = 1 and Q_0 = I.  S % B of the B copies of the
    base have S // B + 1 directions and the rest S // B, so exactly S are
    scored.  A chunk scores _CHUNK // B base rows against all B sets, and
    only the Gaussian base rows are drawn per chunk, in order, so no
    facet's directions or figures depend on _CHUNK.  The base is one of
    two:

    RQMC, when q = d-1 (every radius 1) and
    2 <= q <= _RQMC_MAX_Q: B = min(_RQMC_REPLICATES, S), and the base is
    fixed and low-discrepancy (`_rqmc_base`: equally spaced angles at
    q = 2, a Kronecker sequence through ndtri above).  Each rotated base
    row is uniform, so each replicate mean is unbiased, and the replicates
    are i.i.d., so the spread of their means gives the std_error (B - 1
    degrees of freedom).  Since w is continuous and piecewise smooth in u,
    a rotated base set errs far less than as many i.i.d. directions (Owen
    1997 for scrambled nets): at 2500 samples per facet the variance fell
    about 10^6-fold at q = 2, 2-3.6x at q = 7 and 1-1.8x at q = 15
    (Gaussian boxes and polytopes).

    Otherwise the base is n Gaussian rows g_r, theta_r = g_r / |g_r|,
    under about sqrt(S / q) rotations, or under none for q <= 1 or
    q > _ROTATE_MAX_Q.  When 0 < q < d-1 each direction has its own
    radius, the length of the first q coordinates of a uniform unit vector
    in R^(d-1): rho^2 = X / (X + Y) with X ~ chi^2_q and Y ~ chi^2_(d-1-q)
    independent, so rho^2 ~ Beta(q/2, (d-1-q)/2).  Y is drawn per
    direction; X is |g_r|^2 for b = 0, the base row's own Gaussian vector,
    and a fresh chi^2_q for b >= 1.  With B = 1 this is the plain draw
    g / sqrt(|g|^2 + Y), at one gamma variate per direction.  |g_r| is
    independent of theta_r, so rho_r0 is independent of theta_r and of
    every rotation.  For a fixed theta and a Haar Q, theta Q is uniform
    and independent of theta, so any two directions are independent,
    whether they share a base row, a rotation or neither: (rho_r0,
    theta_r Q_0) and (rho_rb, theta_r Q_b) too, as rho_r0 depends on
    none of theta_r, Q_0, Q_b and rho_rb.  Pairwise independence is all
    that the mean and the sample variance use: the variance of the mean is
    still var / S, and the std_error above is unbiased for it in the same
    way.  Only higher-order dependence differs (the rows of one rotation
    keep their mutual angles).  This is not a reflection of u: a signed
    permutation keeps w(u) and w(u P D) correlated, a Haar rotation does
    not.  At q = 0 (N = 1) nothing is drawn and every chord is [0, inf).

    No rotated direction is built.  Since <theta Q, x> = <theta, x Q^T>,
    the draw turns the k normals into the sets normals Q^T, a k q^2 product
    per rotation in place of one q^2 product per direction, which
    `facet_chords` scores theta against (normals alone when B = 1 without
    rotation), with the directions' radii: the chord of rho v is the chord
    of v divided by rho (rho > 0), so the kernel returns both ends of each
    chord divided by the direction's radius.  The chords equal those of
    the built directions up to rounding.

    Each facet consumes an independent RNG stream derived from
    (seed, facet index), so any facet subset reproduces exactly, in any
    order.  The facets run in stable order of |rho_i|: one half-space law
    and radius table is built per distinct |rho_i|, and only the current
    one is kept.  A facet draws the Gaussian stack of its B rotations
    when it is rotated, then, when 0 < q < d-1, all of Y as an (n, B)
    array and all of X as an (n, B - 1) array (16 bytes per direction,
    beside the 8 of the pair means), then, for a Gaussian base, the rows g
    of each chunk in turn.

    Returns (values, std_errors, accepted, attempted) arrays over the
    requested facets; accepted is the sum of the pair means, the expected
    number of accepted radii.  Callers check samples_per_facet >= 1.

    InputError when an evaluated facet's row repeats another row to
    rounding, in direction and offset: both copies would accept the whole
    face, so it would count twice.  The unit gate lets a row's norm be
    u = _UNIT_TOL off 1, so two rows of one direction can have X_j.X_i as
    low as (1 - u)^2 > 1 - 2u, and the product's rounding adds at most
    d eps / 2, below 2u up to d = 18 000.  So row j repeats row i when
    X_j.X_i >= 1 - 4u and |rho_j - rho_i| <= 4u |rho_i|, one test on the
    facet's products Xx.  Rows at one offset less than about
    sqrt(8u) = 2.8e-6 rad apart are refused too: the norms the gate lets
    through move X_j.X_i as much as such an angle does.

    The facets of a call run on `_facet_workers` threads, with the bits
    of one: two from _POOL_MIN_SAMPLES samples per facet and
    _POOL_MIN_PRODUCTS products per sample, when the neighbour normals
    take at most half of _kernels._BLOCK_BYTES, else one.  Every call runs
    one loop over the |rho_i| groups: the calling thread builds a group's
    law and table (the benchmark's tracer wraps both, and it is
    single-threaded), deals its facets round-robin to itself and the pool
    threads, each worker with its own normals, float32 buffers and
    _BLOCK_BYTES / max(2, workers) of block budget, and waits for the
    group before it builds the next table.  One ExitStack opens the pool
    and pins numpy's OpenBLAS to one thread (`_blas_threads`); it shuts the
    pool down and restores the earlier count before the call returns, also
    when a facet raises.  A call that meets `_pool_floors` pins OpenBLAS
    and halves the block budget on one worker too (one facet, one CPU):
    OpenBLAS rounds the last columns of a product, those past a multiple
    of 8, by the product's length and thread count (0.3.31 with its
    Haswell kernels, 2-core x86 host), so the float64 chords and the
    figures would otherwise depend on the worker count.  Without
    the thread-count symbols the call runs on one thread with the whole
    budget.
    """
    X, rho = as_facets(body)
    N, d = X.shape
    idx = np.arange(N) if facet_indices is None else np.asarray(facet_indices, int)
    S = int(samples_per_facet)

    values = np.zeros(idx.size)
    errors = np.zeros(idx.size)
    accepted = np.zeros(idx.size)
    attempted = np.zeros(idx.size, dtype=bool)

    workers = _facet_workers(S, N, d, idx.size)
    # the pool's layout also on one worker (see above)
    blas = _blas_threads() if workers > 1 or _pool_floors(S, N, d) else None
    if blas is None:
        workers = 1
    budget = _kernels._BLOCK_BYTES // (1 if blas is None else max(2, workers))
    # per worker: the normals of its facets in turn, and their float32 copy
    buffers = [(np.empty((N - 1, d - 1)), np.empty((N - 1) * (d - 1), np.float32))
               for _ in range(workers)]

    def facet(pos, law, table, hs, coords, y32):
        i = idx[pos]
        Xx = X @ X[i]
        tol = 4.0 * _UNIT_TOL  # rows equal to row i to rounding (see above)
        same = (Xx >= 1.0 - tol) & (np.abs(rho - rho[i]) <= tol * abs(rho[i]))
        same[i] = False
        if same.any():
            j = int(np.argmax(same))
            raise InputError(f"facet rows {min(i, j)} and {max(i, j)} are "
                             "the same hyperplane (direction and offset)")
        c = np.delete(Xx, i)
        base = float(rho[i]) * c
        ro = np.delete(rho, i)
        normals = _gram_factor(_hyperplane_coordinates(X, i, Xx, out=coords))
        cv = _pair_cut_sum(law, d, normals.shape, ro - base, c)

        rng = _rng(seed, i)
        draw = _facet_draw(rng, S, normals, d - 1)
        buf = np.empty(draw[1] * draw[0].shape[0])
        zs, cut_count = [], 0
        for theta, sets, radii, out in _direction_blocks(rng, buf, S, d - 1,
                                                         draw):
            lo, hi, cuts = _kernels.facet_chords(
                theta, sets, base, ro, table.top, radii,
                cuts=cv is not None, budget=budget, y32=y32)
            # theta against every set, then -theta, each half shaped as out
            lo, hi = (e.reshape(2, *out.shape) for e in (lo, hi))
            u = table.cdf_at(hi)
            if lo.any():
                u -= table.cdf_at(lo)
            out[...] = 0.5 * (u[0] + u[1])
            if cuts is None:
                cv = None  # the float64 product: no cuts to score
            elif cv is not None:
                z = _cut_excess(u, cuts, table)
                zs.append(0.5 * (z[0] + z[1]).ravel())
                cut_count += cuts[0].size
        # the scored pair means x, an offset and the table terms (see above)
        w = buf[:S]  # the pair means
        rqmc = _is_rqmc(normals.shape[1], d - 1)
        x, offset, terms = w, 0.0, ()
        if cv is not None:  # z's pair means in place of w's
            x, offset = np.concatenate(zs), 1.0 - cv[0]
            terms = (cv[1], (2.0 + cut_count / (2 * S)) * table.cdf_error)
        elif rqmc:
            terms = (2.0 * table.cdf_error,)
        mean = float(x.sum()) / S
        values[pos] = hs * (offset + mean)
        if S == 1:  # no spread is defined
            errors[pos] = math.nan
        else:
            spread = (_replicate_error(buf, S, mean, draw[0].shape[0]) if rqmc
                      else math.sqrt(np.square(x - mean).sum() / (S - 1) / S))
            errors[pos] = hs * math.hypot(spread, *terms)
        accepted[pos] = float(w.sum())
        attempted[pos] = True

    def deal(positions, law, table, hs, j):
        for pos in positions[j::workers]:
            facet(pos, law, table, hs, *buffers[j])

    with contextlib.ExitStack() as stack:
        if blas is not None:
            get_threads, set_threads = blas
            stack.callback(set_threads, get_threads())
            set_threads(1)
        if workers > 1:
            pool = stack.enter_context(ThreadPoolExecutor(workers - 1))
        # one law and table per distinct |rho_i| inside the support, in order
        # of |rho_i|; a facet outside it contributes exactly 0
        order = np.argsort(np.abs(rho[idx]), kind="stable")
        for dist, group in itertools.groupby(
                order, key=lambda pos: abs(float(rho[idx[pos]]))):
            hs, law = _halfspace_law(prof, dist)
            if hs == 0.0:
                continue
            positions, table = list(group), _facet_table(law)
            jobs = [pool.submit(deal, positions, law, table, hs, j)
                    for j in range(1, workers)]  # none with one worker
            deal(positions, law, table, hs, 0)
            for job in jobs:
                job.result()
    return values, errors, accepted, attempted


def polytope_surface_mc(prof: MeasureProfile, body,
                        samples_per_facet: int, seed: int) -> SurfaceEstimate:
    """Boundary measure of a facet body (see `as_facets`) by facet-wise
    hyperplane Monte Carlo.

    When every sample of every facet scores 0 (each chord misses its
    facet's radius table) the estimate is 0 and the std_error is NaN with
    an explanatory note: the sample variance carries no information then.
    With one sample per facet there is no sample variance: the std_error
    is NaN, with a note, too.
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
    elif attempted.any() and int(samples_per_facet) == 1:
        note = _ONE_SAMPLE_NOTE
    return SurfaceEstimate(total, err, "facet-mc",
                           int(samples_per_facet) * int(attempted.sum()), note)


# ---------------------------------------------------------------------------
# Minkowski finite-difference oracle


def minkowski_fd_surface(prof: MeasureProfile, body, epsilon: float,
                         samples: int, seed: int) -> SurfaceEstimate:
    """Minkowski difference quotient [mu(body + eps B) - mu(body)] / eps by
    direct sampling from the measure.  Validation oracle for the exact and
    facet-MC surfaces (first-order biased in eps; std_error is binomial).

    Each chunk of _CHUNK points draws the radii r from the law of I_m(0),
    then only what the body's shell test reads:

    * Ball: nothing more; the test is r - R in (0, eps].
    * Any other facet body, with N rows X, draws the first k = min(N, d)
      coordinates of the points (`_point_chunk`), k = d for a box.  A box
      tests the exact Euclidean distance.  Any other (Slab with rho1 < 0
      too) reads x only through x X^T, whose law depends on X only through
      its Gram matrix, so the k coordinates x' suffice: it tests x' F^T,
      F = `_gram_factor(X)`.  The test is the offset relaxation (largest
      violation in (0, eps]), which over-counts near edges by O(eps^2).

    With no sample in the shell the value is 0 and the std_error NaN, with
    an explanatory note, as in `polytope_surface_mc`.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InputError(
            f"inflation epsilon must be positive and finite, got {epsilon}"
        )
    samples = int(samples)
    if samples < 1:
        raise InputError("samples must be >= 1")
    d = prof.d
    if isinstance(body, (HalfSpace, Slab, Polytope, HyperRectangle)):
        X, offsets = as_facets(body)
        if X.shape[1] != d:
            raise InputError(f"body lives in R^{X.shape[1]}, measure in R^{d}")
        F = _gram_factor(X)
    elif not isinstance(body, Ball):
        raise InputError(
            f"finite-difference surface needs a solid body, got {type(body).__name__}"
        )
    rng = _rng(seed)
    table = _radial_table(prof)
    shell_total = 0
    for blk in _kernels._blocks(samples, _CHUNK):
        n = blk.stop - blk.start
        if isinstance(body, Ball):
            shell = _kernels.shell_count(table.sample(rng.random(n)) - body.R,
                                         epsilon)
        else:
            x = _point_chunk(rng, table, F.shape[1], d, n)  # k = d for a box
            if isinstance(body, HyperRectangle):
                q = np.maximum(np.abs(x) - body.half_widths, 0.0)
                shell = _kernels.shell_count(np.linalg.norm(q, axis=1), epsilon)
            else:
                shell = _kernels.polytope_shell_counts(x, F, offsets, epsilon)
        shell_total += shell
    p = shell_total / samples
    value = p / epsilon
    std_error = math.sqrt(p * (1.0 - p) / samples) / epsilon
    note = ""
    if shell_total == 0:
        std_error = math.nan
        note = "unreliable: no sample in the eps shell"
    return SurfaceEstimate(value, std_error, "minkowski-fd", samples, note)


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
    class (surface 2d vs the law's ~d^(1/4) prediction).  QuadratureError
    when the quadrature cannot certify a relative error of _REL_TOL.
    """
    if int(d) != d or d < 1:
        raise InputError(f"dimension must be a positive integer, got {d}")
    d = int(d)

    def log_c(s):
        if s >= 1.0:
            return math.log(math.sqrt(math.pi / s) * erf(0.5 * math.sqrt(s)))
        # the closed form loses the digits of log c ~ -s/12 to cancellation;
        # twelve terms of 1 - c(s) = sum_k -(-s/4)^k / (k! (2k+1)) reach
        # double precision for s < 1
        return math.log1p(sum((-s / 4.0) ** k / (math.factorial(k) * (2 * k + 1))
                              for k in range(1, 13)))

    def integrand(u):
        if u < 1e-9:
            return d / 12.0
        s = u * u
        return -math.expm1(d * log_c(s)) / s

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                    limit=400)
    if err > _REL_TOL * val:
        raise QuadratureError(
            f"cube E|X| quadrature did not converge at d={d}: error "
            f"estimate {err:.3e} exceeds {_REL_TOL:.1e} x {val:.6e}",
            achieved_error=err,
        )
    expectation = val / math.sqrt(math.pi)
    variance = d / 12.0 - expectation * expectation
    return CubeCheck(surface=2.0 * d, expectation=expectation,
                     variance=variance)
