"""Convex bodies and their boundary measure under a radial measure.

The boundary measure ("surface area") of a convex body Q under the
probability measure with density C_d exp(-phi(|x|)) is the integral of the
density over the boundary dQ.  Symmetric bodies admit exact formulas:

* sphere of radius R:      R^m exp(-phi(R)) / J_m
* half-space at offset r:  C_d m nu_m int_0^inf s^(m-1) exp(-phi(sqrt(r^2+s^2))) ds
* slab:                    two half-space boundaries

(m = d-1, nu_k the unit-ball volume in R^k, J_m the radial moment).
Polytopes are integrated facet by facet with Monte Carlo acceptance
sampling on each facet's hyperplane: a radius from the exact on-hyperplane
density and, by rotation invariance, only the min(N-1, d-1) direction
coordinates that the other facets' normals can see.  Independently, the
Minkowski difference quotient [mu(Q + eps B) - mu(Q)] / eps is estimated
by direct sampling as a validation oracle, which likewise draws only what
the body's shell test reads.  Both draw directions with
`_sphere_coordinates`.

The ball-uniform measure gives its own boundary sphere the surface value
d (phi(R) is the limit from below), the equality case of the rough bound
m J_{m-1}/J_m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from . import _kernels
from .errors import InputError, NumericsError
from .functionals import MeasureProfile, log_ball_volume, _radial_law

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


def _rng(*key):
    """The PCG64 generator seeded by the integer tuple `key`."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(tuple(int(k) for k in key)))
    )


def _unit_rows(z):
    """Rows of z scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


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
    if isinstance(body, Slab) and (body.rho1 < 0.0 or body.rho2 < 0.0):
        raise InputError(
            "facet bodies need the origin inside the slab (rho1, rho2 >= 0)"
        )
    return _constraint_rows(body)


def _constraint_rows(body):
    """`as_facets` without its origin gate: any slab, a negative offset
    included."""
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
    if not (R > 0):
        raise InputError(f"sphere radius must be positive, got {R}")
    if R > prof.support_radius:
        warnings.warn(
            "sphere lies outside the measure support; boundary measure is 0",
            stacklevel=2,
        )
        return SurfaceEstimate(0.0, 0.0, "exact", 0)
    log_val = prof.m * math.log(R) - float(prof.phi.value(R)) - prof.log_Jm.log
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
    if rho < 0:
        raise InputError(f"half-space offset must be >= 0, got {rho}")
    return SurfaceEstimate(_halfspace_law(prof, rho)[0], 0.0, "exact", 0)


def _halfspace_law(prof, rho):
    """(C_d m nu_m I_{m-1}(rho), the law of I_{m-1}(rho)) for rho >= 0;
    (0.0, None) when the hyperplane misses the support."""
    if rho >= prof.support_radius:
        return 0.0, None
    m = prof.m
    law = _radial_law(prof.phi, m - 1, rho)
    return math.exp(prof.log_normalizer.log + math.log(m) + log_ball_volume(m)
                    + law.log_integral()), law


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


#: Inverse-CDF tables start from this many knots and double until the
#: midpoint interpolation error of the CDF is at most _TABLE_TOL.
_TABLE_KNOTS = 4096
_TABLE_TOL = 1e-6


class _InverseCdfTable:
    """Monotone inverse-CDF interpolation table on a density's active window.

    The grid is refined (doubling from _TABLE_KNOTS) until the midpoint
    interpolation error of the CDF is below _TABLE_TOL in probability;
    NumericsError when that needs more than `max_knots` knots.
    """

    __slots__ = ("grid", "cdf")

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
    """Inverse-CDF table of the point radius: the law of I_m(0)."""
    law = _radial_law(prof.phi, prof.m)
    return _InverseCdfTable(law.logf_vec, *law.window, law.log_peak)


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


def _gram_factor(A):
    """Rows with the Gram matrix A A^T of the (k, m) array A in min(k, m)
    columns: R^T from A^T = Q R when k < m, else A itself."""
    k, m = A.shape
    return np.linalg.qr(A.T, mode="r").T if k < m else A


def _hyperplane_coordinates(A, x):
    """The rows A projected into x^perp (x a unit vector) in an orthonormal
    basis of x^perp: A H without its first column, with H = I - 2 h h^T /
    |h|^2, h = x + sign(x_0) e_0, the reflection that maps x to
    -sign(x_0) e_0.  O(km) for A of shape (k, m), one allocation."""
    h = x.copy()
    sign = 1.0 if x[0] >= 0.0 else -1.0
    h[0] += sign
    c = -1.0 / (1.0 + abs(x[0]))  # -2 / |h|^2
    F = np.outer(A @ h, c * h[1:])
    F += A[:, 1:]
    return F


def sample_points(prof: MeasureProfile, n: int, seed: int) -> np.ndarray:
    """(n, d) array of i.i.d. points distributed per the measure."""
    rng = _rng(seed)
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

    p_i is the Monte Carlo acceptance rate of points y = rho_i X_i + s u
    sampled on facet i's hyperplane against the k = N-1 other constraints:
    the radius s from the exact on-hyperplane density, the direction u
    uniform on the unit sphere of X_i^perp.  Acceptance reads u only
    through its products with the neighbour normals projected into
    X_i^perp, whose law depends on those normals only through their Gram
    matrix.  So the normals are written in coordinates of X_i^perp and cut
    to q = min(k, d-1) columns with that Gram matrix, and u is the first q
    coordinates of a uniform unit vector in R^(d-1).  Rank-deficient
    neighbours (parallel facets, slabs) need no special case.

    Each facet consumes an independent RNG stream derived from
    (seed, facet index), so any facet subset reproduces exactly.  Per chunk
    of _CHUNK samples the draw order is: radii, then g, then the chi^2
    completion when q < d-1.

    Returns (values, std_errors, accepted, attempted) arrays over the
    requested facets.
    """
    X, rho = as_facets(body)
    N, d = X.shape
    idx = np.arange(N) if facet_indices is None else np.asarray(facet_indices, int)
    S = int(samples_per_facet)
    if S < 1:
        raise InputError("samples_per_facet must be >= 1")

    per_offset = {}  # rho -> (half-space value, radius table or None)
    values = np.zeros(idx.size)
    errors = np.zeros(idx.size)
    accepted = np.zeros(idx.size, dtype=np.int64)
    attempted = np.zeros(idx.size, dtype=bool)

    for pos, i in enumerate(idx):
        r = float(rho[i])
        if r not in per_offset:
            hs, law = _halfspace_law(prof, r)
            per_offset[r] = hs, (_facet_table(law) if hs != 0.0 else None)
        hs, table = per_offset[r]
        if hs == 0.0:
            continue  # facet outside the support: exact zero contribution

        others = np.concatenate((np.arange(i), np.arange(i + 1, N)))
        Xo = X[others]
        ro = rho[others]
        base = r * (Xo @ X[i])
        normals = _gram_factor(_hyperplane_coordinates(Xo, X[i]))
        del Xo

        rng = _rng(seed, i)
        acc = 0
        left = S
        while left:
            n = min(_CHUNK, left)
            left -= n
            s = table.sample(rng.random(n))
            u = _sphere_coordinates(rng, n, normals.shape[1], d - 1)
            acc += _kernels.facet_accept_count(u, s, normals, base, ro)
        del normals, u  # freed before the next facet allocates its own
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


def _shell_count(v, eps):
    """How many violations v lie in the shell (0, eps]."""
    return int(np.count_nonzero((v > 0.0) & (v <= eps)))


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
        X, offsets = _constraint_rows(body)
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
    done = 0
    while done < samples:
        n = min(_CHUNK, samples - done)
        if isinstance(body, Ball):
            shell = _shell_count(table.sample(rng.random(n)) - body.R, epsilon)
        elif isinstance(body, HyperRectangle):
            q = np.abs(_point_chunk(rng, table, d, n)) - body.half_widths
            shell = _shell_count(np.linalg.norm(np.maximum(q, 0.0), axis=1),
                                 epsilon)
        else:
            r = table.sample(rng.random(n))
            w = _sphere_coordinates(rng, n, F.shape[1], d)
            shell = _kernels.polytope_shell_counts(r[:, None] * w, F,
                                                   offsets, epsilon)
        shell_total += shell
        done += n
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
