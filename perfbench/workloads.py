"""Workloads: seeded inputs, the op list of one pass, and the check of
every op.

A workload is built once per process (this is the timed set-up) into a
list of `Op`s that make up one *pass*.  The runner replays the same pass
until the run time is used up, so every pass computes byte-identical
values.  Each op calls one public function of radsurf through its module
attribute (so the tracer can wrap it) and has a check that returns an
empty string when the result is right and the reason otherwise.

Monte Carlo checks use NSIGMA standard errors; the finite-difference
checks add FD_BIAS of the exact value for the difference quotient's bias.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln, ndtr

from radsurf import bodies, certificates, construction, functionals, potential
from radsurf.errors import InputError

NSIGMA = 5.0
FD_BIAS = 0.03
EXACT_RTOL = 1e-8
BOUND_RTOL = 1e-9

#: seed of the standard random table potential (the test suite's table)
TABLE_SEED = 20260814

KINDS = ("profile", "exact", "certificate", "mc", "construct", "fd")


@dataclass(frozen=True)
class Op:
    kind: str  # one of KINDS
    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], str]


@dataclass(frozen=True)
class Size:
    dims: tuple = ()
    mc_samples: int = 0
    construct_samples: int = 0
    construct_subsample: int = 0
    fd_samples: int = 0


SIZES = {
    "validate-lowdim": {
        "full": Size(dims=(3, 8, 16), mc_samples=2500, construct_samples=20_000,
                     construct_subsample=64, fd_samples=40_000),
        "tiny": Size(dims=(3, 16), mc_samples=200, construct_samples=500,
                     construct_subsample=64, fd_samples=2000),
    },
    "construct-d256": {
        "full": Size(dims=(256,), construct_samples=20_000, construct_subsample=4,
                     fd_samples=10_000),
        "tiny": Size(dims=(256,), construct_samples=500, construct_subsample=1,
                     fd_samples=1000),
    },
    "construct-d1024": {
        "full": Size(dims=(1024,), construct_samples=2000, construct_subsample=2,
                     fd_samples=3000),
        "tiny": Size(dims=(1024,), construct_samples=100, construct_subsample=1,
                     fd_samples=500),
    },
}

WORKLOADS = tuple(SIZES)


def random_table(seed=TABLE_SEED):
    """Deterministic random convex piecewise-linear potential (knots, values)."""
    rng = np.random.default_rng(seed)
    nseg = 9
    steps = rng.uniform(0.2, 0.9, nseg)
    knots = np.cumsum(steps)
    slopes = np.cumsum(rng.uniform(0.05, 0.6, nseg))
    return knots, np.cumsum(slopes * steps)


def standard_measures():
    return [
        ("gaussian", potential.gaussian()),
        ("gp1", potential.power(1.0)),
        ("gp4", potential.power(4.0)),
        ("ball", potential.ball(1.0)),
        ("table", potential.tabulated(*random_table())),
    ]


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _seed(rng):
    return int(rng.integers(2 ** 31))


# ---------------------------------------------------------------------------
# reference values


def _closed_t0(phi, m):
    """t0 where it has a closed form, else None."""
    if isinstance(phi, potential.GaussianPotential):
        return math.sqrt(m)
    if isinstance(phi, potential.PowerPotential):
        return m ** (1.0 / phi.p)
    if isinstance(phi, potential.BallPotential):
        return phi.R
    return None


def _gaussian_sphere(m, R):
    log_jm = 0.5 * (m - 1) * math.log(2.0) + gammaln(0.5 * (m + 1))
    return math.exp(m * math.log(R) - 0.5 * R * R - log_jm)


def _gaussian_halfspace(r):
    return math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)


def _box_reference(h, samples):
    """Gaussian measure of the box {|x_j| <= h_j}: boundary measure
    sum_j 2 phi(h_j) prod_{k != j} (2 Phi(h_k) - 1), and the facet-MC
    standard error expected at `samples` per facet."""
    inner = 2.0 * ndtr(h) - 1.0
    dens = np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
    p = np.array([np.prod(np.delete(inner, j)) for j in range(h.size)])
    value = float(np.sum(2.0 * dens * p))
    se = math.sqrt(float(np.sum(2.0 * dens ** 2 * p * (1.0 - p))) / samples)
    return value, se


def _rel_close(value, ref, rtol=EXACT_RTOL):
    if abs(value - ref) <= rtol * abs(ref):
        return ""
    return f"value {value!r} differs from closed form {ref!r}"


def _within_bound(value, bound, what):
    if not math.isfinite(value) or value <= 0.0:
        return f"value {value!r} is not finite and positive"
    if value > bound * (1.0 + BOUND_RTOL):
        return f"value {value!r} exceeds {what} {bound!r}"
    return ""


def _se(est):
    return 0.0 if math.isnan(est.std_error) else est.std_error


# ---------------------------------------------------------------------------
# op builders


def _profile_op(tag, phi, d, ref):
    m = d - 1
    closed = _closed_t0(phi, m)

    def check(prof, ctx):
        if prof != ref:
            return "profile differs from the set-up profile"
        if closed is not None and abs(prof.t0 - closed) > 1e-9 * closed:
            return f"t0 {prof.t0!r} differs from closed form {closed!r}"
        if not (prof.variance > 0 and prof.lambda_i >= 0 and prof.lambda_o >= 0):
            return "degenerate profile"
        return ""

    return Op("profile", f"profile {tag}",
              lambda: functionals.profile(phi, d), check)


def _exact_ops(tag, prof, r1, r2):
    """sphere at t0, half-space at r1, slab (r1, r2)."""
    gaussian = isinstance(prof.phi, potential.GaussianPotential)
    rough = functionals.rough_upper_bound(prof)
    t0, m = prof.t0, prof.m

    def check_with(ref):
        def check(est, ctx):
            if gaussian:
                return _rel_close(est.value, ref())
            return _within_bound(est.value, rough, "the rough bound")

        return check

    return [
        Op("exact", f"sphere {tag}", lambda: bodies.sphere_surface(prof, t0),
           check_with(lambda: _gaussian_sphere(m, t0))),
        Op("exact", f"halfspace {tag}", lambda: bodies.halfspace_surface(prof, r1),
           check_with(lambda: _gaussian_halfspace(r1))),
        Op("exact", f"slab {tag}", lambda: bodies.slab_surface(prof, r1, r2),
           check_with(lambda: _gaussian_halfspace(r1) + _gaussian_halfspace(r2))),
    ]


def _certificate_op(label, prof, body, floor=None):
    """Certificate of a facet body.  Checked against the rough bound and,
    when given, against a known value it has to dominate."""
    rough = functionals.rough_upper_bound(prof)

    def check(rep, ctx):
        ctx[label] = rep
        why = _within_bound(rep.value, rough, "the rough bound")
        if why:
            return why
        if rep.value != min(rep.xi1_bound, rep.rough_bound):
            return "value is not min(xi1_bound, rough_bound)"
        if floor is not None and rep.value < floor * (1.0 - BOUND_RTOL):
            return f"certificate {rep.value!r} below the exact value {floor!r}"
        return ""

    return Op("certificate", label,
              lambda: certificates.certificate_upper_bound(prof, body), check)


def _polytope_mc_op(label, prof, body, samples, seed, cert_label):
    def check(est, ctx):
        cert = ctx.get(cert_label)
        if not math.isfinite(est.value) or est.value < 0.0:
            return f"value {est.value!r} is not finite and >= 0"
        if cert is None:
            return f"certificate {cert_label!r} missing"
        if cert.value < est.value - NSIGMA * _se(est):
            return (f"certificate {cert.value!r} below MC {est.value!r} "
                    f"- {NSIGMA:g} x {est.std_error!r}")
        return ""

    return Op("mc", label,
              lambda: bodies.polytope_surface_mc(prof, body, samples, seed), check)


def _box_op(label, prof, h, samples, seed):
    d = h.size
    body = bodies.Polytope(np.vstack([np.eye(d), -np.eye(d)]), np.concatenate([h, h]))
    if isinstance(prof.phi, potential.GaussianPotential):
        ref, ref_se = _box_reference(h, samples)

        def check(est, ctx):
            tol = NSIGMA * max(_se(est), ref_se)
            if abs(est.value - ref) > tol:
                return f"box MC {est.value!r} vs closed form {ref!r} beyond {tol!r}"
            return ""
    else:
        rough = functionals.rough_upper_bound(prof)

        def check(est, ctx):
            if not math.isfinite(est.value) or est.value < 0.0:
                return f"value {est.value!r} is not finite and >= 0"
            if est.value > rough + NSIGMA * _se(est):
                return f"box MC {est.value!r} exceeds the rough bound {rough!r}"
            return ""

    return Op("mc", label,
              lambda: bodies.polytope_surface_mc(prof, body, samples, seed), check)


def _fd_ops(tag, prof, direction, samples, seed):
    """Minkowski difference quotient on Ball(R) against sphere_surface(R)
    and on a one-facet polytope against halfspace_surface.

    R = t0 is the mode of the radial density, so the quotient's
    first-order bias vanishes there.  Where t0 is the hard support cutoff
    (the ball measure) the outer quotient is 0 by definition while
    sphere_surface takes the limit from below, so R moves in to the inner
    edge of the critical band, t0 (1 - lambda_i).
    """
    t0 = prof.t0
    R = t0 if t0 < prof.support_radius else t0 * (1.0 - prof.lambda_i)
    eps = 0.05 * t0 * prof.lambda_sum
    r_h = 0.01 * t0
    facet = bodies.Polytope(direction[None, :], np.array([r_h]))
    # cached on the first check, which runs in the untraced first pass, so
    # traced passes do not count the reference among the layer calls
    cases = [
        (f"fd ball {tag}", bodies.Ball(R),
         functools.cache(lambda: bodies.sphere_surface(prof, R).value)),
        (f"fd facet {tag}", facet,
         functools.cache(lambda: bodies.halfspace_surface(prof, r_h).value)),
    ]
    ops = []
    for label, body, exact in cases:
        def check(est, ctx, exact=exact):
            ref = exact()
            p0 = min(ref * eps, 1.0)
            tol = NSIGMA * math.sqrt(p0 * (1.0 - p0) / samples) / eps + FD_BIAS * ref
            if abs(est.value - ref) > tol:
                return f"FD {est.value!r} vs exact {ref!r} beyond {tol!r}"
            return ""

        ops.append(Op("fd", label,
                      lambda body=body: bodies.minkowski_fd_surface(
                          prof, body, eps, samples, seed), check))
    return ops


def _construct_op(label, prof, samples, subsample, seed):
    rough = functionals.rough_upper_bound(prof)

    def check(est, ctx):
        return _within_bound(est.value, rough, "the rough bound")

    return Op("construct", label,
              lambda: construction.expected_surface(
                  prof, c_rho=1.0, trials=1, samples_per_facet=samples,
                  facet_subsample=subsample, seed=seed), check)


# ---------------------------------------------------------------------------
# workloads


def _validate_lowdim(seed, size):
    ops = []
    for mi, (name, phi) in enumerate(standard_measures()):
        for d in size.dims:
            tag = f"{name} d={d}"
            rng = _rng(seed, mi, d)
            prof = functionals.profile(phi, d)
            t0 = prof.t0
            ops.append(_profile_op(tag, phi, d, prof))
            ops += _exact_ops(tag, prof, 0.35 * t0, 0.65 * t0)
            for j in range(4 if d == 3 else 3):
                n = d + 1 + 2 * j
                dirs = _unit_rows(rng, n, d)
                offset = (0.35 + 0.3 * j) * t0
                if offset >= prof.support_radius:
                    continue  # no boundary mass: the certificate raises by contract
                body = bodies.Polytope(dirs, np.full(n, offset))
                cert = f"certificate {tag} j={j}"
                ops.append(_certificate_op(cert, prof, body))
                ops.append(_polytope_mc_op(f"mc {tag} j={j}", prof, body,
                                           size.mc_samples, _seed(rng), cert))
            h = t0 / math.sqrt(d) * rng.uniform(0.6, 1.6, d)
            ops.append(_box_op(f"box {tag}", prof, h, size.mc_samples, _seed(rng)))
            ops += _fd_ops(tag, prof, _unit_rows(rng, 1, d)[0], size.fd_samples,
                           _seed(rng))
            try:
                construction.plan(prof, 1.0)
            except InputError:
                continue  # c_rho = 1 degenerates at this (measure, d)
            ops.append(_construct_op(f"construct {tag}", prof, size.construct_samples,
                                     size.construct_subsample, _seed(rng)))
    return ops


def _construct(d, seed, size):
    phi = potential.gaussian()
    rng = _rng(seed, d)
    prof = functionals.profile(phi, d)
    spec = construction.plan(prof, 1.0, seed=seed)
    tag = f"gaussian d={d}"
    rho = spec.rho
    slab = bodies.Slab(_unit_rows(rng, 1, d)[0], rho, rho)
    slab_exact = bodies.slab_surface(prof, rho, rho).value
    return [
        _construct_op(f"construct {tag}", prof, size.construct_samples,
                      size.construct_subsample, _seed(rng)),
        _profile_op(tag, phi, d, prof),
        *_exact_ops(tag, prof, rho, rho),
        _certificate_op(f"certificate slab {tag}", prof, slab, slab_exact),
        *_fd_ops(tag, prof, _unit_rows(rng, 1, d)[0], size.fd_samples, _seed(rng)),
    ]


def build(workload, seed, size="full"):
    """The op list of one pass of `workload` for `seed`; labels are unique."""
    sz = SIZES[workload][size]
    if workload == "validate-lowdim":
        ops = _validate_lowdim(seed, sz)
    else:
        ops = _construct(sz.dims[0], seed, sz)
    if len({op.label for op in ops}) != len(ops):
        raise ValueError(f"duplicate op labels in {workload}")
    return ops
