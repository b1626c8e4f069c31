"""Radial potentials defining rotation-invariant measures on R^d.

A measure with density proportional to exp(-phi(|x|)) is rotation invariant,
and it is log-concave exactly when phi : [0, inf) -> [0, inf] is convex and
nondecreasing.  We normalize phi(0) = 0; the constant factor is absorbed by
the normalizer downstream.

Conventions shared by every potential:

* ``support_radius`` is the radius R beyond which the density vanishes
  (``math.inf`` when the measure has full support).  ``value`` is finite
  on the support up to and including R and ``+inf`` beyond it: on a hard
  cutoff ``value(R)`` is the limit from below, so a density on the
  support boundary (the sphere |x| = R, the edge of a facet) reads
  ``value`` there.
* ``value`` and ``derivative`` accept floats or numpy arrays and broadcast.
  ``derivative`` is the right-hand derivative at kinks and is only
  meaningful strictly inside the support.
* Potentials are immutable and carry no caches; memoized quantities live in
  the measure profile built by :mod:`radsurf.functionals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import GateError, InputError

__all__ = [
    "RadialPotential",
    "GaussianPotential",
    "PowerPotential",
    "BallPotential",
    "TabulatedPotential",
    "ShellDensity",
    "gaussian",
    "power",
    "ball",
    "shell",
    "tabulated",
    "load_table",
    "parse_measure",
    "probe_potential",
]


def _match(t, out):
    """Return a scalar when the input was scalar, else the array."""
    return out if out.ndim else float(out)


class RadialPotential:
    """Base class for radial potentials; subclasses fill in the contract."""

    kind: ClassVar[str] = ""
    is_log_concave: ClassVar[bool] = True
    support_radius: float = math.inf
    #: radius below which the density vanishes (0 except for annular kinds)
    inner_support_radius: float = 0.0

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def interior_knots(self):
        """Kink radii strictly inside the support (quadrature break points)."""
        return ()


@dataclass(frozen=True)
class GaussianPotential(RadialPotential):
    """phi(t) = t^2 / 2, the standard Gaussian measure."""

    kind: ClassVar[str] = "gaussian"
    support_radius: float = math.inf

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return _match(t, 0.5 * t * t)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return _match(t, t.copy())


@dataclass(frozen=True)
class PowerPotential(RadialPotential):
    """phi(t) = t^p / p with p >= 1."""

    p: float
    kind: ClassVar[str] = "gp"
    support_radius: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise InputError(f"power exponent must satisfy p >= 1, got {self.p}")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return _match(t, np.power(t, self.p) / self.p)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return _match(t, np.power(t, self.p - 1.0))


@dataclass(frozen=True)
class BallPotential(RadialPotential):
    """Uniform measure on the ball of radius R: phi = 0 on |x| <= R, +inf
    outside."""

    R: float = 1.0
    kind: ClassVar[str] = "ball"

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise InputError(f"ball radius must be positive, got {self.R}")

    @property
    def support_radius(self):
        return self.R

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return _match(t, np.where(t <= self.R, 0.0, math.inf))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return _match(t, np.zeros_like(t))


@dataclass(frozen=True, eq=False)
class TabulatedPotential(RadialPotential):
    """Piecewise-linear convex potential through (0,0) and the given knots.

    knots must be strictly increasing and positive; segment slopes (taking
    the implicit anchor at the origin into account) must be nonnegative and
    nondecreasing, which is exactly convexity plus monotonicity of the
    interpolant.  Extrapolation beyond the last knot is either ``linear``
    (continue the last slope; full support) or ``cutoff`` (hard support
    boundary at the last knot).
    """

    knots: np.ndarray
    values: np.ndarray
    extrapolation: str = "linear"

    kind: ClassVar[str] = "tabulated"

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.knots, dtype=float))
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if k.ndim != 1 or v.shape != k.shape or k.size == 0:
            raise InputError("knots and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(v))):
            raise InputError("table entries must be finite")
        if k[0] <= 0.0 or np.any(np.diff(k) <= 0.0):
            raise InputError("knots must be strictly increasing and positive")
        if self.extrapolation not in ("linear", "cutoff"):
            raise InputError(f"unknown extrapolation {self.extrapolation!r}")
        grid = np.concatenate(([0.0], k))
        vals = np.concatenate(([0.0], v))
        slopes = np.diff(vals) / np.diff(grid)
        slack = 1e-12 * max(1.0, float(np.abs(slopes).max()))
        if slopes[0] < -slack or np.any(np.diff(slopes) < -slack):
            raise InputError(
                "table is not convex nondecreasing: segment slopes must be "
                "nonnegative and nondecreasing"
            )
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_slopes", np.maximum(slopes, 0.0))

    @property
    def support_radius(self):
        return math.inf if self.extrapolation == "linear" else float(self.knots[-1])

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._grid, self._vals)
        last_k = self._grid[-1]
        if self.extrapolation == "linear":
            tail = t > last_k
            out = np.where(
                tail, self._vals[-1] + self._slopes[-1] * (t - last_k), out
            )
        else:
            out = np.where(t > last_k, math.inf, out)
        return _match(t, out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._grid, t, side="right") - 1
        idx = np.clip(idx, 0, self._slopes.size - 1)
        return _match(t, self._slopes[idx])

    def interior_knots(self):
        if self.extrapolation == "linear":
            return tuple(float(x) for x in self.knots)
        return tuple(float(x) for x in self.knots[:-1])


@dataclass(frozen=True)
class ShellDensity(RadialPotential):
    """Radial density supported on the thin annulus (R - eps, R].

    This is the canonical non-log-concave counterexample: the effective
    potential is 0 on the annulus and +inf elsewhere (including at the
    origin), so it violates phi(0) = 0 and convexity.  Construction is
    gated behind an explicit opt-in; see :func:`shell`.
    """

    R: float = 1.0
    eps: float = 1e-3
    kind: ClassVar[str] = "shell"
    is_log_concave: ClassVar[bool] = False

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise InputError(f"shell radius must be positive, got {self.R}")
        if not (0.0 < self.eps <= self.R):
            raise InputError(
                f"shell width must satisfy 0 < eps <= R, got eps={self.eps}"
            )

    @property
    def support_radius(self):
        return self.R

    @property
    def inner_radius(self):
        return self.R - self.eps

    @property
    def inner_support_radius(self):
        return self.R - self.eps

    def value(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t > self.inner_radius) & (t <= self.R)
        return _match(t, np.where(inside, 0.0, math.inf))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return _match(t, np.zeros_like(t))

    def interior_knots(self):
        return (self.inner_radius,)


def gaussian():
    return GaussianPotential()

def power(p):
    return PowerPotential(p=float(p))

def ball(R=1.0):
    return BallPotential(R=float(R))

def tabulated(knots, values, extrapolation="linear"):
    return TabulatedPotential(knots=knots, values=values, extrapolation=extrapolation)


def shell(R=1.0, eps=1e-3, *, allow_non_logconcave=False):
    """Build the thin-shell counterexample measure.

    Refused by default: the shell density is not log-concave, so none of
    the log-concave surface-area guarantees apply to it.
    """
    if not allow_non_logconcave:
        raise GateError(
            "the shell measure is not log-concave, and the maximal surface "
            "area bounds assume a log-concave measure; pass "
            "allow_non_logconcave=True (CLI: --allow-non-logconcave) to "
            "study it as a counterexample"
        )
    return ShellDensity(R=float(R), eps=float(eps))


def load_table(path, extrapolation="linear"):
    """Load a tabulated potential from a two-column text file.

    Rows are ``t value`` pairs, ``#`` starts a comment, and the first data
    row must be ``0 0`` (the origin anchor).
    """
    rows = []
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(f"cannot read table file {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(
                    f"{path}:{lineno}: expected two columns, got {len(parts)}"
                )
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: table file contains no data rows")
    if rows[0] != (0.0, 0.0):
        raise InputError(f"{path}: first data row must be '0 0'")
    knots = np.array([r[0] for r in rows[1:]])
    values = np.array([r[1] for r in rows[1:]])
    if knots.size == 0:
        raise InputError(f"{path}: table needs at least one knot beyond the origin")
    return tabulated(knots, values, extrapolation)


_MEASURE_KINDS = ("gaussian", "gp", "ball", "shell", "table")


def parse_measure(spec, *, allow_non_logconcave=False):
    """Parse a measure mini-language string into a potential.

    Grammar: ``gaussian``, ``gp:p=P``, ``ball:R=R``, ``shell:R=R,eps=E``,
    ``table:file=PATH[,extrapolation=linear|cutoff]``.  Parameter keys are
    case-insensitive; the shell kind requires the non-log-concave opt-in.
    """
    name, _, rest = spec.strip().partition(":")
    name = name.strip().lower()
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or not key.strip():
                raise InputError(f"malformed measure parameter {item!r} in {spec!r}")
            params[key.strip().lower()] = val.strip()

    def take(key, default=None, required=False):
        if key in params:
            return params.pop(key)
        if required:
            raise InputError(f"measure {name!r} requires parameter {key}=")
        return default

    def take_float(key, default=None, required=False):
        raw = take(key, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise InputError(f"parameter {key}={raw!r} is not a number") from None

    if name == "gaussian":
        out = gaussian()
    elif name == "gp":
        out = power(take_float("p", required=True))
    elif name == "ball":
        out = ball(take_float("r", default=1.0))
    elif name == "shell":
        out = shell(
            take_float("r", default=1.0),
            take_float("eps", required=True),
            allow_non_logconcave=allow_non_logconcave,
        )
    elif name == "table":
        path = take("file", required=True)
        extrap = take("extrapolation", default="linear")
        out = load_table(path, extrapolation=extrap)
    else:
        raise InputError(
            f"unknown measure kind {name!r}; expected one of {', '.join(_MEASURE_KINDS)}"
        )
    if params:
        raise InputError(
            f"unknown parameter(s) for measure {name!r}: {', '.join(sorted(params))}"
        )
    return out


def probe_potential(phi, npoints=128):
    """Probe the potential contract on a geometric grid inside the support.

    Returns a list of (check_name, passed) pairs.  Used by the CLI invariant
    runner; log-concave kinds must pass every check.
    """
    R = phi.support_radius
    hi = R * (1.0 - 1e-9) if math.isfinite(R) else 64.0
    t = np.geomspace(hi * 1e-6, hi, npoints)
    val = np.asarray(phi.value(t))
    der = np.asarray(phi.derivative(t))
    finite = np.isfinite(val)
    checks = [
        ("value(0) == 0", phi.value(0.0) == 0.0),
        ("values finite inside support", bool(np.all(finite))),
        ("values nonnegative", bool(np.all(val[finite] >= 0.0))),
        ("derivative nonnegative", bool(np.all(der >= 0.0))),
        ("derivative nondecreasing", bool(np.all(np.diff(der) >= -1e-9 * (1.0 + der[-1])))),
    ]
    # derivative consistent with a centered difference away from kinks
    kinks = set(phi.interior_knots())
    mid = [x for x in t[2:-2] if not any(abs(x - k) < 1e-3 * x for k in kinks)]
    mid = np.asarray(mid[: npoints // 2])
    h = np.minimum(1e-6 * np.maximum(mid, 1.0), 0.5 * mid)
    fd = (np.asarray(phi.value(mid + h)) - np.asarray(phi.value(mid - h))) / (2 * h)
    near_kink = np.zeros(mid.shape, dtype=bool)
    for k in kinks:
        near_kink |= np.abs(mid - k) <= h
    ok = np.abs(fd - np.asarray(phi.derivative(mid))) <= 1e-4 * (1.0 + np.abs(fd))
    checks.append(("derivative matches finite difference", bool(np.all(ok | near_kink))))
    return checks
