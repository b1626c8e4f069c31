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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import betainc

from .bodies import Polytope, SurfaceEstimate, _facet_values, _rng, _unit_rows
from .errors import DegeneratePlanError, InputError
from .functionals import MeasureProfile

__all__ = [
    "PolytopeSpec",
    "plan",
    "cap_probability",
    "sample_polytope",
    "expected_surface",
]


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
    if rho >= t0 - W:
        raise DegeneratePlanError(
            f"facet offset rho={rho:.6g} reaches the annulus inner radius "
            f"{t0 - W:.6g}; the construction degenerates -- use a smaller c_rho"
        )
    q = rho / (t0 + W)
    log_N = 0.5 * math.log(m) + math.log(rho / t0) - 0.5 * m * math.log1p(-q * q)
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
    two displayed integrals).  Reading it as the upper tail keeps full
    relative precision as p -> 0, where 0.5 (1 - I_{q^2}(1/2, m/2))
    cancels to nothing.
    """
    if r <= 0:
        raise InputError(f"radius must be positive, got {r}")
    if rho < 0:
        raise InputError(f"offset must be >= 0, got {rho}")
    if r <= rho:
        return 0.0
    q = rho / r
    half_m = 0.5 * prof.m  # = (m-2)/2 + 1
    return 0.5 * float(betainc(half_m, 0.5, (1.0 - q) * (1.0 + q)))


def sample_polytope(spec: PolytopeSpec, prof: MeasureProfile) -> Polytope:
    """The random polytope of a spec: N_eff i.i.d. uniform unit directions
    (from spec.seed) with common offset rho."""
    z = _rng(spec.seed).standard_normal((spec.N_eff, prof.d))
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
    a single trial reports only the MC error of that one polytope.
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
        floor = math.sqrt(mc_vars.sum()) / trials
        std_error = max(spread, floor)
    else:
        std_error = math.sqrt(mc_vars[0])
        note = "single trial: polytope-to-polytope variability not included"
    return SurfaceEstimate(value, std_error, "facet-mc", total_samples, note)
