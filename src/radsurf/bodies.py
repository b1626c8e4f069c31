"""Convex bodies and their boundary measure under a radial measure.

The boundary measure ("surface area") of a convex body Q under the
probability measure with density C_d exp(-phi(|x|)) is the integral of the
density over the boundary dQ.  Symmetric bodies admit exact formulas:

* sphere of radius R:      R^m exp(-phi(R)) / J_m
* half-space at offset r:  C_d m nu_m int_0^inf s^(m-1) exp(-phi(sqrt(r^2+s^2))) ds
* slab:                    two half-space boundaries

(m = d-1, nu_k the unit-ball volume in R^k, J_m the radial moment).
Polytopes are integrated facet by facet with Monte Carlo on each facet's
hyperplane: per sample, by rotation invariance, only the min(N-1, d-1)
direction coordinates that the other facets' normals can see, and the
radius integrated out exactly over the chord of accepted radii, with the
CDF of the on-hyperplane radius table, and each direction scored together
with its reflection (antithetic pairs).  Up to _ROTATE_MAX_Q coordinates,
each drawn Gaussian row scores R pairwise independent directions: itself
and its images under R - 1 Haar rotations (`_rotated_coordinates`).  As
<theta Q, x> = <theta, x Q^T>, the draw rotates the k neighbour normals
instead of the n directions and hands back the stack of normal sets, and a
direction's radius rho > 0 divides the chord ends afterwards (the chord of
rho v is the chord of v over rho).  A facet's statistics come from one
array of its S pair means, so they do not depend on the chunking.
The facets of one call run on two threads when each has at least
_POOL_MIN_SAMPLES samples, a chord product of at least _POOL_MIN_PRODUCTS
products per sample, and neighbour normals that fit in half of the chord
kernel's 8 MB block budget: the calling thread builds each offset's
law and table and shares the facets with one pool thread, the two split
the block budget, and numpy's OpenBLAS is pinned to one thread while they
run.  Every facet draws from its own stream into its own slot, so the bits
do not depend on the threads.
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

import ctypes
import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from . import _kernels
from .errors import InputError, NumericsError, QuadratureError
from .functionals import MeasureProfile, _REL_TOL, log_ball_volume, _radial_law

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

_OUTER_ENTRIES = 1 << 18  # float64 entries of one rank-1 update step

# The most direction coordinates that facet Monte Carlo draws in rotated
# blocks (`_rotated_coordinates`).  The rotations cost (R - 1)(q^3 + k q^2)
# for their QR factors and the k rotated normals, against the n q normals
# they save.  The threshold was timed when the n directions were rotated
# instead, at an extra n q^2 (on a 2-core x86 host with OpenBLAS, rotated
# against plain draws into R^1023: at q = 68 2.2x faster at 20000
# directions and 1.2x at 2500; at q = 80 2.0x and 1.3x; at q = 96 1.8x and
# 1.0x, and 0.7x at 1000; at q = 128 slower at every n up to 20000).
_ROTATE_MAX_Q = 80

# Facet Monte Carlo runs the facets of a call on two threads only from
# _POOL_MIN_SAMPLES samples per facet and _POOL_MIN_PRODUCTS products per
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
    NumericsError when that needs more than `max_knots` knots.  `slope`,
    which only `cdf_at` reads, is built when `slopes` is true and is None
    otherwise.
    """

    __slots__ = ("grid", "cdf", "slope")

    def __init__(self, logf_vec, a, b, log_peak, max_knots=1 << 16, slopes=True):
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
        # np.interp's slope on each knot interval, and 0 past the last knot
        self.slope = np.append(np.diff(cdf) / np.diff(grid), 0.0) if slopes else None

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
    the table is no dataclass field, so equality and repr ignore it).  It
    is only sampled, so it carries no slopes."""
    table = vars(prof).get("_radius_table")
    if table is None:
        law = _radial_law(prof.phi, prof.m)
        table = _InverseCdfTable(law.logf_vec, *law.window, law.log_peak,
                                 slopes=False)
        object.__setattr__(prof, "_radius_table", table)
    return table


def _facet_table(law) -> _InverseCdfTable:
    """Inverse-CDF table for the on-hyperplane radial density
    s^(m-1) exp(-phi(sqrt(rho^2+s^2))), given its law of I_{m-1}(rho)."""
    return _InverseCdfTable(law.logf_vec, *law.window, law.log_peak)


def _point_chunk(rng, table, d, n):
    """n points: radius by inverse CDF, then a uniform direction
    (`_sphere_coordinates` with k = m = d).  Draw order (radii, then
    directions) is part of the determinism contract."""
    r = table.sample(rng.random(n))
    return r[:, None] * _sphere_coordinates(rng, n, d, d)


def _sphere_coordinates(rng, n, k, m):
    """(n, k) array: the first k <= m coordinates of n uniform unit vectors
    in R^m, g / sqrt(|g|^2 + chi^2_(m-k)) with g ~ N(0, I_k).  Draws g,
    then the chi^2 completion if k < m; k = 0 draws nothing."""
    if k == 0:
        return np.empty((n, 0))
    g = rng.standard_normal((n, k))
    sq = np.einsum("ij,ij->i", g, g)
    if k < m:
        sq += rng.chisquare(m - k, n)
    g /= np.sqrt(sq)[:, None]
    return g


def _rotation_count(n, q):
    """R, the directions that `_rotated_coordinates` scores per drawn
    Gaussian row in a chunk of n directions with q coordinates: about
    sqrt(n / q), which balances the n q / R normals of the rows against the
    (R - 1) q^2 of the rotations; 1 (no rotation) for q = 1 and above
    _ROTATE_MAX_Q."""
    if 2 <= q <= _ROTATE_MAX_Q:
        return max(1, min(n, math.isqrt(n // q)))
    return 1


def _rotated_coordinates(rng, n, normals, m):
    """The draw of n directions with the first q coordinates of uniform
    unit vectors in R^m, pairwise independent, for the (k, q) `normals`:
    (theta, sets, radii) such that the directions are the first n rows of
    [theta; theta Q_1; ...; theta Q_(R-1)], each scaled by its radius, and
    sets = [normals; normals Q_1^T; ...], whose products with theta are
    those of the directions with normals, R = `_rotation_count(n, q)`.

    With R = 1 theta is `_sphere_coordinates(rng, n, q, m)`, bit for bit,
    sets is normals and radii is 1.0.  Otherwise it draws n0 = ceil(n / R)
    Gaussian rows g and normalises them to theta = g / |g|, then the R - 1
    Haar rotations Q_k (the QR factors of a Gaussian stack, their columns
    multiplied by the signs of R's diagonal, Mezzadri 2007), then, when
    q < m, the n radii sqrt(Beta(q/2, (m-q)/2)), the law of the length of
    the first q coordinates (radii 1.0 when q = m).  For a fixed theta and
    a Haar Q, theta Q is uniform and independent of theta, so any two
    directions are independent, whether they share a base row or not."""
    q = normals.shape[1]
    R = _rotation_count(n, q)
    if R == 1:
        return _sphere_coordinates(rng, n, q, m), normals, 1.0
    theta = _sphere_coordinates(rng, -(-n // R), q, q)
    Q, T = np.linalg.qr(rng.standard_normal((R - 1, q, q)))
    Q *= np.where(np.diagonal(T, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    radii = np.sqrt(rng.beta(0.5 * q, 0.5 * (m - q), n)) if q < m else 1.0
    sets = np.concatenate([normals[None], normals @ Q.swapaxes(1, 2)])
    return theta, sets, radii


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
    out[:i] = X[:i, 1:]
    out[i:] = X[i + 1:, 1:]
    ch = c * x[1:]  # c h[1:]
    step = max(1, _OUTER_ENTRIES // ch.size)
    for j in range(0, Ah.size, step):
        out[j:j + step] += np.outer(Ah[j:j + step], ch)
    return out


def sample_points(prof: MeasureProfile, n: int, seed: int) -> np.ndarray:
    """(n, d) array of i.i.d. points distributed per the measure."""
    rng = _rng(seed)
    table = _radial_table(prof)
    out = np.empty((n, prof.d))
    for blk in _kernels._blocks(n, _CHUNK):
        out[blk] = _point_chunk(rng, table, prof.d, blk.stop - blk.start)
    return out


# ---------------------------------------------------------------------------
# polytope facet Monte Carlo


def _facet_workers(S, N, d, facets):
    """Threads for a `_facet_values` call of `facets` facets with S samples
    each on N facets in R^d: min(2, usable CPUs, facets) when
    S >= _POOL_MIN_SAMPLES, k q >= _POOL_MIN_PRODUCTS (k = N - 1 neighbour
    normals of q = min(k, d - 1) coordinates) and a facet's neighbour
    normals, k (d - 1) float64 entries, fit in half of
    _kernels._BLOCK_BYTES, else 1.  Each worker holds its own normals, so
    at d = 1024, where they take 41 MB, the call stays on one thread."""
    k = N - 1
    if (S < _POOL_MIN_SAMPLES or k * min(k, d - 1) < _POOL_MIN_PRODUCTS
            or 16 * k * (d - 1) > _kernels._BLOCK_BYTES):
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
    correlated, and var(w) itself when w(u) = w(-u), as on a box.  The
    std_error is hs sqrt(var / S), var the sample variance of the S pair
    means, which holds whatever the pair correlation; NaN at S = 1, where
    the sample variance is undefined.  Both are taken from one array of
    the S pair means, so they do not depend on how the samples are chunked.

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

    The directions of a chunk of n samples come from
    `_rotated_coordinates`: with 2 <= q <= _ROTATE_MAX_Q it draws
    n0 = ceil(n / R) Gaussian rows, R = `_rotation_count(n, q)` (about
    sqrt(n / q)), and scores each normalised row theta at theta and at
    theta Q_1, ..., theta Q_(R-1), with R - 1 Haar rotations from the QR
    factors of a Gaussian stack (Mezzadri 2007), then gives every row a
    fresh radius sqrt(Beta(q/2, (d-1-q)/2)) when q < d-1.  For a fixed
    theta and a Haar Q, theta Q is uniform and independent of theta, so
    any two directions of the chunk are independent, whether they share a
    base row or not.  Pairwise independence is all that the mean and the
    sample variance use: the variance of the mean is still var / S, and the
    std_error above is unbiased for it in the same way.  Only higher-order
    dependence differs (the rows of one rotation keep their mutual
    angles).  This is not a reflection of u: a signed permutation keeps
    w(u) and w(u P D) correlated, a Haar rotation does not.

    No direction rho theta Q_k is built.  Since <theta Q, x> = <theta, x Q^T>,
    the draw turns the k normals into the sets normals Q_k^T, (R - 1) k q^2
    flops in place of n q^2, and hands back the stack of all R sets, which
    `facet_chords` scores theta against (normals alone with R = 1).  The chord
    of rho v is the chord of v divided by rho (rho > 0), so both ends of
    each of the first n chords are divided by the direction's radius.  The
    chords equal those of the built directions up to rounding.

    Each facet consumes an independent RNG stream derived from
    (seed, facet index), so any facet subset reproduces exactly, in any
    order.  The facets run in stable order of |rho_i|: one half-space law
    and radius table is built per distinct |rho_i|, and only the current
    one is kept.  Per chunk of _CHUNK samples the draw order is: g, then
    the Haar stack, then the radii when q < d-1 (with R = 1: g, then the
    chi^2 completion when q < d-1, as `_sphere_coordinates` draws).

    Returns (values, std_errors, accepted, attempted) arrays over the
    requested facets; accepted is the sum of the pair means, the expected
    number of accepted radii.

    The facets of a call run on `_facet_workers` threads, with the same
    bits as on one: two from _POOL_MIN_SAMPLES samples per facet and
    _POOL_MIN_PRODUCTS products per sample, when the neighbour normals
    take at most half of _kernels._BLOCK_BYTES, else the calling thread
    alone.  The calling thread builds each |rho_i| group's law and table
    (the benchmark's tracer wraps both, and it is single-threaded), deals
    the group's facets round-robin to itself and one pool thread, each
    with its own normals and float32 buffers, and builds the next table
    once the group is done.  The workers share one block budget: each
    chord product is blocked under _BLOCK_BYTES divided by the workers.
    While the pool is open numpy's OpenBLAS runs on one thread
    (`_blas_threads`); the earlier count is restored when the call ends,
    also when a facet raises.  Without the thread-count symbols the call
    runs on one thread.  The pool is shut down before the call returns.
    """
    X, rho = as_facets(body)
    N, d = X.shape
    idx = np.arange(N) if facet_indices is None else np.asarray(facet_indices, int)
    S = int(samples_per_facet)
    if S < 1:
        raise InputError("samples_per_facet must be >= 1")

    values = np.zeros(idx.size)
    errors = np.zeros(idx.size)
    accepted = np.zeros(idx.size)
    attempted = np.zeros(idx.size, dtype=bool)

    workers = _facet_workers(S, N, d, idx.size)
    blas = _blas_threads() if workers > 1 else None
    if blas is None:
        workers = 1
    budget = _kernels._BLOCK_BYTES // workers
    # per worker: the normals of its facets in turn, and their float32 copy
    buffers = [(np.empty((N - 1, d - 1)), np.empty((N - 1) * (d - 1), np.float32))
               for _ in range(workers)]

    def facet(pos, table, hs, coords, y32):
        i = idx[pos]
        Xx = X @ X[i]
        base = float(rho[i]) * np.delete(Xx, i)
        ro = np.delete(rho, i)
        normals = _gram_factor(_hyperplane_coordinates(X, i, Xx, out=coords))

        rng = _rng(seed, i)
        w = np.empty(S)  # the pair means
        for blk in _kernels._blocks(S, _CHUNK):
            n = blk.stop - blk.start
            theta, sets, radii = _rotated_coordinates(rng, n, normals, d - 1)
            lo, hi = _kernels.facet_chords(theta, sets, base, ro, budget, y32)
            # theta against every set, then -theta: the first n of each half;
            # the chord of rho v is that of v divided by rho
            lo, hi = (e.reshape(2, -1)[:, :n] for e in (lo, hi))
            hi /= radii
            u = table.cdf_at(hi)
            if lo.any():
                lo /= radii
                u -= table.cdf_at(lo)
            w[blk] = 0.5 * (u[0] + u[1])
        total = float(w.sum())
        values[pos] = hs * (total / S)
        sq = float(np.square(w - w.mean()).sum())
        errors[pos] = hs * math.sqrt(sq / (S - 1) / S) if S > 1 else math.nan
        accepted[pos] = total
        attempted[pos] = True

    def deal(positions, table, hs, j):
        for pos in positions[j::workers]:
            facet(pos, table, hs, *buffers[j])

    def groups():
        """(positions, table, hs) per distinct |rho_i| inside the support,
        in order of |rho_i|; a facet outside it contributes exactly 0."""
        order = np.argsort(np.abs(rho[idx]), kind="stable")
        for dist, group in itertools.groupby(
                order, key=lambda pos: abs(float(rho[idx[pos]]))):
            hs, law = _halfspace_law(prof, dist)
            if hs != 0.0:
                yield list(group), _facet_table(law), hs

    if workers == 1:
        for group in groups():
            deal(*group, 0)
    else:
        get_threads, set_threads = blas
        threads = get_threads()
        set_threads(1)
        try:
            with ThreadPoolExecutor(workers - 1) as pool:
                for group in groups():
                    jobs = [pool.submit(deal, *group, j) for j in range(1, workers)]
                    deal(*group, 0)
                    for job in jobs:
                        job.result()
        finally:
            set_threads(threads)
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
    * HyperRectangle: full points (`_point_chunk`), tested by the exact
      Euclidean distance to the box.
    * Any other facet body (Slab with rho1 < 0 too), with N rows X: the
      test reads x = r u only through x X^T, whose law depends on X only
      through its Gram matrix, so the chunk draws the first min(N, d)
      coordinates w of a uniform unit vector and tests r w F^T, with
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
        elif isinstance(body, HyperRectangle):
            q = np.abs(_point_chunk(rng, table, d, n)) - body.half_widths
            shell = _kernels.shell_count(
                np.linalg.norm(np.maximum(q, 0.0), axis=1), epsilon)
        else:
            r = table.sample(rng.random(n))
            w = _sphere_coordinates(rng, n, F.shape[1], d)
            shell = _kernels.polytope_shell_counts(r[:, None] * w, F,
                                                   offsets, epsilon)
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
