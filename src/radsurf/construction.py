"""Random circumscribed polytopes realizing the maximal boundary measure.

The polytope is an intersection of N half-spaces {<x, x_i> <= rho} with
i.i.d. uniform directions x_i.  With

    rho = c_rho * t0 / sqrt(lambda_sum * m),
    W   = lambda_sum * t0,
    N   = (sqrt(m) rho / t0) * (1 - rho^2/(t0+W)^2)^(-m/2),

most of the mass of the critical annulus |x| ~ t0 ends up within distance
rho of some facet hyperplane, and the expected boundary measure of the
polytope comes within a constant of the sqrt(m)/(sqrt(lambda) t0) ceiling.
`expected_surface` estimates that expectation by Monte Carlo over
independent polytopes, subsampling facets (they are exchangeable) when N
is large.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bodies import (_ONE_SAMPLE_NOTE, Polytope, SurfaceEstimate,
                     _facet_values, _halfspace_law, _rng, _unit_rows)
from .errors import DegeneratePlanError, InputError, QuadratureError
from .functionals import _REL_TOL, MeasureProfile, _cap_tail

__all__ = [
    "PolytopeSpec",
    "plan",
    "cap_probability",
    "sample_polytope",
    "expected_surface",
    "expected_surface_exact",
]

#: `expected_surface_exact` starts from this many Gauss-Legendre nodes per
#: window piece and doubles them until the rule agrees with the rule of
#: twice as many nodes to _REL_TOL of the value, up to _EXACT_MAX_NODES.
_EXACT_NODES = 64
_EXACT_MAX_NODES = 4096


@dataclass(frozen=True)
class PolytopeSpec:
    """Parameters of one random circumscribed polytope.

    rho: common facet offset; W: half-width of the critical annulus;
    N_real: the facet-count formula before rounding; N_eff: facet count
    actually used, max(1, round(N_real)).
    """

    rho: float
    W: float
    N_real: float
    N_eff: int
    c_rho: float
    seed: int


def plan(prof: MeasureProfile, c_rho: float = 0.2, seed: int = 0) -> PolytopeSpec:
    """Choose the polytope parameters for a measure.

    c_rho scales the facet offset; the classical choice is 1/5, but at
    moderate dimension it often yields N_real < 1 (a single half-space),
    so c_rho = 1 is the useful default for scaling studies.
    """
    if not (math.isfinite(c_rho) and c_rho > 0):
        raise InputError(f"c_rho must be positive and finite, got {c_rho}")
    m, t0, lam = prof.m, prof.t0, prof.lambda_sum
    rho = c_rho * t0 / math.sqrt(lam * m)
    W = lam * t0
    if t0 <= W:
        raise DegeneratePlanError(
            f"the critical annulus reaches the origin at this measure and "
            f"dimension (half-width {W:.6g} >= t0 = {t0:.6g}); no c_rho "
            f"gives a polytope"
        )
    if rho >= t0 - W:
        raise DegeneratePlanError(
            f"facet offset rho={rho:.6g} reaches the annulus inner radius "
            f"{t0 - W:.6g}; the construction degenerates -- use a smaller c_rho"
        )
    q = rho / (t0 + W)
    log_N = 0.5 * math.log(m) + math.log(rho / t0) - 0.5 * m * math.log1p(-q * q)
    if log_N > math.log(sys.float_info.max):
        raise DegeneratePlanError(
            f"the plan asks for N = e^{log_N:.6g} facets, beyond the double "
            f"range -- use a smaller c_rho"
        )
    N_real = math.exp(log_N)
    N_eff = max(1, round(N_real))
    return PolytopeSpec(rho=rho, W=W, N_real=N_real, N_eff=N_eff,
                        c_rho=c_rho, seed=int(seed))


def cap_probability(prof: MeasureProfile, r: float, rho: float) -> float:
    """Probability that a uniform direction on the sphere of radius r has
    cap height above rho, i.e. that a point at radius r is cut off by one
    given facet at offset rho:

        p(r) = int_rho^r (1-t^2/r^2)^((m-2)/2) dt
               / int_{-r}^r (1-t^2/r^2)^((m-2)/2) dt

    for r > rho (0 otherwise), evaluated as the regularized incomplete beta
    ratio 0.5 I_{1-q^2}(m/2, 1/2) with q = rho/r (the closed form of the
    two displayed integrals; `functionals._cap_tail`).  Reading it as the
    upper tail keeps full relative precision as p -> 0, where
    0.5 (1 - I_{q^2}(1/2, m/2)) cancels to nothing; that form serves
    q < 1e-4 instead, where 1 - q^2 rounds q away.
    """
    if not (r > 0):
        raise InputError(f"radius must be positive, got {r}")
    if not (rho >= 0):
        raise InputError(f"offset must be >= 0, got {rho}")
    if r <= rho:
        return 0.0
    return float(_cap_tail(prof.m, rho / r))


def sample_polytope(spec: PolytopeSpec, prof: MeasureProfile) -> Polytope:
    """The random polytope of a spec: N_eff i.i.d. uniform unit directions
    (from spec.seed) with common offset rho.

    DegeneratePlanError when the N_eff x d directions cannot be allocated.
    """
    try:
        z = _rng(spec.seed).standard_normal((spec.N_eff, prof.d))
    except (MemoryError, ValueError):
        raise DegeneratePlanError(
            f"the plan's N_eff = {spec.N_eff} facets in d = {prof.d} are too "
            f"many to allocate -- use a smaller c_rho"
        ) from None
    return Polytope(_unit_rows(z), np.full(spec.N_eff, spec.rho))


def _child_seed(*key) -> int:
    return int(np.random.SeedSequence(tuple(int(k) for k in key))
               .generate_state(1, np.uint64)[0])


def expected_surface(
    prof: MeasureProfile,
    c_rho: float = 0.2,
    trials: int = 1,
    samples_per_facet: int = 10_000,
    facet_subsample: Optional[int] = 64,
    seed: int = 0,
) -> SurfaceEstimate:
    """Monte Carlo estimate of the expected boundary measure of the random
    polytope, averaged over `trials` independent polytopes.

    When N_eff exceeds facet_subsample, each trial evaluates a uniform
    facet subset and scales by N_eff/subsample (unbiased: the facets are
    exchangeable).  With trials >= 2 the reported std_error is the larger
    of the across-trial spread of the trial means (which captures both the
    polytope randomness and the per-facet MC noise) and the pure MC floor;
    a single trial reports only the MC error of that one polytope.  One
    sample per facet gives no MC error: trials >= 2 then report the spread
    alone, and a single trial NaN with a note.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if samples_per_facet < 1:
        raise InputError(
            f"samples_per_facet must be >= 1, got {samples_per_facet}"
        )
    if facet_subsample is not None and facet_subsample < 1:
        raise InputError("facet_subsample must be >= 1 (or None)")
    spec = plan(prof, c_rho, seed=seed)
    N = spec.N_eff

    vals = np.zeros(trials)
    mc_vars = np.zeros(trials)
    total_samples = 0
    for t in range(trials):
        body = sample_polytope(
            replace(spec, seed=_child_seed(seed, t, 0)), prof
        )
        mc_seed = _child_seed(seed, t, 1)
        if facet_subsample is not None and N > facet_subsample:
            picked = np.sort(_rng(_child_seed(seed, t, 2)).choice(
                N, size=facet_subsample, replace=False))
            scale = N / facet_subsample
        else:
            picked = None
            scale = 1.0
        v, e, _, att = _facet_values(prof, body, samples_per_facet,
                                     mc_seed, facet_indices=picked)
        vals[t] = scale * v.sum()
        mc_vars[t] = scale * scale * float((e ** 2).sum())
        total_samples += samples_per_facet * int(att.sum())

    value = float(vals.mean())
    note = ""
    if trials >= 2:
        spread = float(vals.std(ddof=1)) / math.sqrt(trials)
        floor = math.sqrt(mc_vars.sum()) / trials  # NaN at one sample
        std_error = spread if math.isnan(floor) else max(spread, floor)
    else:
        std_error = math.sqrt(mc_vars[0])
        note = "single trial: polytope-to-polytope variability not included"
        if math.isnan(std_error):
            note = _ONE_SAMPLE_NOTE
    return SurfaceEstimate(value, std_error, "facet-mc", total_samples, note)


def expected_surface_exact(prof: MeasureProfile,
                           c_rho: float = 0.2) -> SurfaceEstimate:
    """The expected boundary measure of the plan's random polytope by
    quadrature, with no polytope and no sampling:

        E[surface] = N hs(rho) E_s[(1 - p(sqrt(rho^2 + s^2)))^(N-1)],

    N = N_eff, hs(rho) the half-space surface at the offset rho, s the
    radius of a point on a facet's hyperplane (the law of I_{m-1}(rho))
    and p = `cap_probability`.  A point y of facet i's hyperplane lies on
    the boundary when none of the other N - 1 facets cuts it off; their
    directions are i.i.d. uniform and independent of y, so each cuts it
    off with probability p(|y|), independently, and the N exchangeable
    facets contribute N times the first one's share.  The power is taken
    as exp((N - 1) log1p(-p)).

    It allocates no N x d array, so it also serves plans whose polytope
    `sample_polytope` cannot allocate.  The expectation is
    `_RadialLaw.expect`, with nodes doubled until its error estimate is at
    most _REL_TOL of the value; QuadratureError when that takes more than
    _EXACT_MAX_NODES nodes per window piece.
    """
    spec = plan(prof, c_rho)
    N, rho = spec.N_eff, spec.rho
    hs, law = _halfspace_law(prof, rho)
    if hs == 0.0:
        return SurfaceEstimate(0.0, 0.0, "exact", 0)

    def survival(s):
        p = _cap_tail(prof.m, rho / np.hypot(rho, s))
        return np.exp((N - 1) * np.log1p(-p))

    nodes = _EXACT_NODES
    while True:
        mean, err = law.expect(survival, nodes)
        if err <= _REL_TOL * mean:
            return SurfaceEstimate(N * hs * float(mean), 0.0, "exact", 0)
        if nodes >= _EXACT_MAX_NODES:
            raise QuadratureError(
                f"the expected surface did not converge: error estimate "
                f"{float(err):.3e} exceeds {_REL_TOL:.1e} x {float(mean):.6e} "
                f"at {nodes} nodes", achieved_error=float(err))
        nodes *= 2
