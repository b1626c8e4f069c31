"""Command-line interface.

One executable, six subcommands:

  functionals   characteristic quantities of a measure (t0, lambdas, bounds)
  surface       boundary measure of one body (exact, facet MC, or FD oracle)
  certificate   certified upper bound for a facet body
  construct     the random circumscribed polytope and its expected surface
  sweep         per-dimension CSV of all scaling quantities
  verify        run the invariant suite for a measure, pass/fail table

All floats print with 12 significant digits; identical flags and seed give
byte-identical output.  Exit codes: 0 ok, 1 invariant failure, 2 bad
input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import bodies, certificates, construction, functionals
from .errors import (
    EXIT_BAD_INPUT,
    EXIT_INVARIANT_FAILURE,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    DegeneratePlanError,
    InputError,
    RadsurfError,
)
from .potential import parse_measure, probe_potential

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Validated common options of a CLI invocation."""

    measure_spec: str
    dim: int
    output_format: str = "human"
    seed: int = 0
    allow_non_logconcave: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise InputError(f"dimension must be >= 2, got {self.dim}")
        if self.output_format not in ("json", "csv", "human"):
            raise InputError(f"unknown output format {self.output_format!r}")

    def potential(self):
        return parse_measure(
            self.measure_spec, allow_non_logconcave=self.allow_non_logconcave
        )

    def profile(self):
        return functionals.profile(self.potential(), self.dim)


# ---------------------------------------------------------------------------
# formatting


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".12g")
    return str(x)


def _json_value(x):
    if isinstance(x, float):
        if math.isfinite(x):
            return float(format(x, ".12g"))
        return _fmt(x)
    return x


def _render(rows: List[Dict], fmt: str) -> str:
    if not rows:
        return ""
    if fmt == "json":
        payload = [
            {k: _json_value(v) for k, v in row.items()} for row in rows
        ]
        if len(payload) == 1:
            return json.dumps(payload[0], indent=2) + "\n"
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = list(rows[0].keys())
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in keys])
        return buf.getvalue()
    # human
    lines = []
    if len(rows) == 1:
        width = max(len(k) for k in rows[0])
        for k, v in rows[0].items():
            lines.append(f"{k:<{width}}  {_fmt(v)}")
    else:
        keys = list(rows[0].keys())
        table = [[_fmt(row.get(k, "")) for k in keys] for row in rows]
        widths = [
            max(len(keys[j]), max(len(r[j]) for r in table))
            for j in range(len(keys))
        ]
        lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        for r in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _emit(rows: List[Dict], fmt: str, out: Optional[str]) -> None:
    text = _render(rows, fmt)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# body mini-language


def _parse_params(rest: str) -> Dict[str, str]:
    """k=v pairs separated by commas; commas inside a value (lists) stick
    to the preceding key."""
    params: Dict[str, str] = {}
    last = None
    for tok in rest.split(","):
        if not tok:
            continue
        if "=" in tok:
            key, _, val = tok.partition("=")
            key = key.strip()
            params[key] = val
            last = key
        elif last is not None:
            params[last] += "," + tok
        else:
            raise InputError(f"malformed parameter {tok!r}")
    return params


def _take_float(params, key, what):
    if key not in params:
        raise InputError(f"{what} needs {key}=<value>")
    try:
        return float(params.pop(key))
    except ValueError:
        raise InputError(f"{what}: {key} must be a number") from None


def load_polytope(path: str, dim: int) -> bodies.Polytope:
    """Facets from a text file: one row per facet, d unit-vector
    components then the offset; # starts a comment."""
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read polytope file {path}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"malformed polytope file {path}: {exc}") from None
    if data.shape[1] != dim + 1:
        raise InputError(
            f"polytope rows need {dim} direction components plus an offset "
            f"({dim + 1} columns), file has {data.shape[1]}"
        )
    return bodies.Polytope(data[:, :dim], data[:, dim])


def parse_body(spec: str, dim: int):
    """`sphere:R=..`, `ball:R=..`, `halfspace:rho=..`,
    `slab:rho1=..,rho2=..`, `polytope:file=..`, `box:halfwidths=a,b,..`."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    params = _parse_params(rest)
    e0 = np.zeros(dim)
    e0[0] = 1.0
    if kind == "sphere":
        body = bodies.SphereShell(_take_float(params, "R", "sphere"))
    elif kind == "ball":
        body = bodies.Ball(_take_float(params, "R", "ball"))
    elif kind == "halfspace":
        body = bodies.HalfSpace(e0, _take_float(params, "rho", "halfspace"))
    elif kind == "slab":
        body = bodies.Slab(
            e0,
            _take_float(params, "rho1", "slab"),
            _take_float(params, "rho2", "slab"),
        )
    elif kind == "polytope":
        if "file" not in params:
            raise InputError("polytope needs file=<path>")
        body = load_polytope(params.pop("file"), dim)
    elif kind == "box":
        if "halfwidths" not in params:
            raise InputError("box needs halfwidths=<a,b,...>")
        try:
            h = [float(v) for v in params.pop("halfwidths").split(",")]
        except ValueError:
            raise InputError("box halfwidths must be numbers") from None
        if len(h) != dim:
            raise InputError(
                f"box needs exactly {dim} halfwidths, got {len(h)}"
            )
        body = bodies.HyperRectangle(np.array(h))
    else:
        raise InputError(
            f"unknown body kind {kind!r} (want sphere, ball, halfspace, "
            f"slab, polytope, or box)"
        )
    if params:
        raise InputError(f"unknown body parameters: {sorted(params)}")
    return body


# ---------------------------------------------------------------------------
# subcommands


def _cmd_functionals(args) -> int:
    cfg = _config(args)
    prof = cfg.profile()
    logJ = prof.log_Jm.log
    log_g = prof.log_gm_t0.log
    row = {
        "measure": cfg.measure_spec,
        "d": prof.d,
        "m": prof.m,
        "support_radius": prof.support_radius,
        "t0": prof.t0,
        "g_t0": math.exp(log_g) if log_g < 700 else math.inf,
        "log_Jm": logJ,
        "Jm": math.exp(logJ) if logJ < 700 else math.inf,
        "lambda_i": prof.lambda_i,
        "lambda_o": prof.lambda_o,
        "lambda_sum": prof.lambda_sum,
        "lambda_ratio": prof.lambda_ratio,
        "expectation": prof.expectation,
        "variance": prof.variance,
        "theorem_bound": functionals.theorem_bound(prof),
        "theorem_bound_probabilistic":
            functionals.theorem_bound_probabilistic(prof),
        "rough_upper_bound": functionals.rough_upper_bound(prof),
    }
    _emit([row], cfg.output_format, args.out)
    return EXIT_OK


def _cmd_surface(args) -> int:
    cfg = _config(args)
    prof = cfg.profile()
    body = parse_body(args.body, cfg.dim)
    method = args.method
    if method == "exact":
        if isinstance(body, (bodies.SphereShell, bodies.Ball)):
            est = bodies.sphere_surface(prof, body.R)
        elif isinstance(body, bodies.HalfSpace):
            est = bodies.halfspace_surface(prof, body.offset)
        elif isinstance(body, bodies.Slab):
            est = bodies.slab_surface(prof, body.rho1, body.rho2)
        else:
            raise InputError(
                f"no exact formula for {type(body).__name__}; "
                f"use --method mc or fd"
            )
    elif method == "mc":
        est = bodies.polytope_surface_mc(prof, body, args.samples, cfg.seed)
    elif method == "fd":
        est = bodies.minkowski_fd_surface(
            prof, body, args.eps, args.samples, cfg.seed
        )
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown method {method!r}")
    row = {
        "measure": cfg.measure_spec,
        "d": cfg.dim,
        "body": args.body,
        "value": est.value,
        "std_error": est.std_error,
        "method": est.method,
        "samples": est.samples,
    }
    if est.note:
        row["note"] = est.note
    _emit([row], cfg.output_format, args.out)
    return EXIT_OK


def _cmd_certificate(args) -> int:
    cfg = _config(args)
    prof = cfg.profile()
    body = parse_body(args.body, cfg.dim)
    rep = certificates.certificate_upper_bound(prof, body)
    row = {
        "measure": cfg.measure_spec,
        "d": cfg.dim,
        "body": args.body,
        "value": rep.value,
        "xi1_bound": rep.xi1_bound,
        "rough_bound": rep.rough_bound,
        "binding": rep.binding,
        "min_xi1": rep.min_xi1,
        "grid_points": rep.grid_points,
    }
    _emit([row], cfg.output_format, args.out)
    return EXIT_OK


def _cmd_construct(args) -> int:
    cfg = _config(args)
    prof = cfg.profile()
    spec = construction.plan(prof, args.c_rho, seed=cfg.seed)
    est = construction.expected_surface(
        prof,
        c_rho=args.c_rho,
        trials=args.trials,
        samples_per_facet=args.samples,
        facet_subsample=args.facet_subsample,
        seed=cfg.seed,
    )
    row = {
        "measure": cfg.measure_spec,
        "d": cfg.dim,
        "c_rho": args.c_rho,
        "rho": spec.rho,
        "W": spec.W,
        "N_real": spec.N_real,
        "N_eff": spec.N_eff,
        "value": est.value,
        "std_error": est.std_error,
        "method": est.method,
        "samples": est.samples,
        "theorem_bound": functionals.theorem_bound(prof),
    }
    if est.note:
        row["note"] = est.note
    _emit([row], cfg.output_format, args.out)
    return EXIT_OK


def _parse_dims(spec: str) -> List[int]:
    """`a:b:geometric[:ratio]` (default ratio 2) or a comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or parts[2] != "geometric":
            raise InputError(
                f"dims spec {spec!r} must be a:b:geometric[:ratio] or a comma list"
            )
        a, b = int(parts[0]), int(parts[1])
        ratio = float(parts[3]) if len(parts) == 4 else 2.0
        if a < 2 or b < a or ratio <= 1.0:
            raise InputError(f"bad dims range {spec!r}")
        dims = []
        x = float(a)
        while round(x) <= b:
            if not dims or round(x) > dims[-1]:
                dims.append(int(round(x)))
            x *= ratio
        return dims
    try:
        dims = sorted({int(tok) for tok in spec.split(",") if tok})
    except ValueError:
        raise InputError(f"bad dims list {spec!r}") from None
    if not dims or dims[0] < 2:
        raise InputError("dims must be integers >= 2")
    return dims


def _cmd_sweep(args) -> int:
    fmt = _output_format(args)
    dims = _parse_dims(args.dims)
    rows = []
    for d in dims:
        cfg = RunConfig(args.measure, d, fmt, args.seed,
                        args.allow_non_logconcave)
        prof = cfg.profile()
        try:
            est = construction.expected_surface(
                prof,
                c_rho=args.c_rho,
                trials=args.trials,
                samples_per_facet=args.samples,
                facet_subsample=args.facet_subsample,
                seed=cfg.seed,
            )
            c_est, c_err = est.value, est.std_error
        except DegeneratePlanError:
            c_est = c_err = math.nan
        rows.append({
            "d": d,
            "t0": prof.t0,
            "lambda_ratio": prof.lambda_ratio,
            "theorem_bound": functionals.theorem_bound(prof),
            "theorem_bound_probabilistic":
                functionals.theorem_bound_probabilistic(prof),
            "halfspace_surface": bodies.halfspace_surface(prof, 0.0).value,
            "max_sphere_surface": bodies.sphere_surface(prof, prof.t0).value,
            "construction_estimate": c_est,
            "construction_stderr": c_err,
        })
    _emit(rows, fmt, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check(name, ok, value, note=""):
    return {
        "check": name,
        "status": "PASS" if ok else "FAIL",
        "value": value,
        "note": note,
    }


def _skip(name, note):
    return {"check": name, "status": "SKIP", "value": "", "note": note}


def _verify_rows(cfg: RunConfig) -> List[Dict]:
    prof = cfg.profile()
    phi, m, t0 = prof.phi, prof.m, prof.t0
    logconcave = phi.is_log_concave
    rows = []

    if logconcave:
        probes = probe_potential(phi)
        bad = [n for n, ok in probes if not ok]
        rows.append(_check("potential-probe", not bad, len(probes),
                           "failed: " + ",".join(bad) if bad else ""))
    else:
        rows.append(_skip("potential-probe", "measure is not log-concave"))

    am = bodies.sphere_argmax(prof)
    rows.append(_check(
        "sphere-argmax-matches-t0",
        abs(am - t0) <= 1e-6 * max(1.0, t0),
        am,
    ))

    # t0 g_m(t0) / J_m from the log-scalars: each factor alone overflows
    # for large m
    mass_ratio = math.exp(prof.log_gm_t0.log + math.log(t0) - prof.log_Jm.log)
    lam = prof.lambda_sum

    if logconcave:
        floor = mass_ratio / (m + 1)
        rows.append(_check("radial-mass-floor", floor <= 1 + 1e-9, floor))
        band = 1.0 / (lam * mass_ratio)
        rows.append(_check(
            "radial-mass-band",
            1 / math.e - 1e-9 <= band <= (math.e + 1) / math.e + 1e-9,
            band,
        ))
        lo = (math.e / (math.e + 1)) / (m + 1)
        hi = 2 * math.sqrt(2 * math.pi) * math.e / math.sqrt(m)
        rows.append(_check("lambda-band", lo - 1e-12 <= lam <= hi, lam))
        rows.append(_check(
            "lambda-inner-floor",
            prof.lambda_i >= lo - 1e-12,
            prof.lambda_i,
        ))
        phi_t0 = float(phi.value(t0))
        rows.append(_check("potential-at-t0-below-m", phi_t0 <= m + 1e-9,
                           phi_t0))
        dfi = functionals.psi(prof, -prof.lambda_i)
        ok_i = abs(dfi - 1.0) <= 1e-9
        dfo = functionals.psi(prof, prof.lambda_o)
        edge = (1 + prof.lambda_o) * t0 >= prof.support_radius * (1 - 1e-12)
        ok_o = abs(dfo - 1.0) <= 1e-9 or (edge and dfo <= 1 + 1e-9)
        rows.append(_check("spread-deficit-one", ok_i and ok_o,
                           f"{dfi:.9g}/{dfo:.9g}"))
    else:
        for name in ("radial-mass-floor", "radial-mass-band", "lambda-band",
                     "lambda-inner-floor", "potential-at-t0-below-m",
                     "spread-deficit-one"):
            rows.append(_skip(name, "requires a log-concave measure"))

    R_hi = prof.support_radius if math.isfinite(prof.support_radius) \
        else 3.0 * t0
    R_lo = max(0.3 * t0, phi.inner_support_radius + 1e-9 * t0)
    devs = []
    for R in np.linspace(R_lo, R_hi, 7):
        surface = bodies.sphere_surface(prof, R).value
        if surface >= sys.float_info.min:  # below it xi1 overflows
            xi1 = certificates.xi1(prof, certificates.BoundaryPoint(R, 1.0))
            devs.append(abs(xi1 * surface - 1.0))
    # np.max keeps a nan, so a non-finite product fails, as does no probe
    worst = float(np.max(devs)) if devs else math.nan
    rows.append(_check("sphere-reciprocity", worst <= 1e-9, worst))

    if logconcave:
        rough = functionals.rough_upper_bound(prof)
        hs = bodies.halfspace_surface(prof, 0.0).value
        sp = bodies.sphere_surface(prof, t0).value
        rows.append(_check("halfspace-below-rough-bound",
                           hs <= rough * (1 + 1e-9), hs / rough))
        rows.append(_check("max-sphere-below-rough-bound",
                           sp <= rough * (1 + 1e-9), sp / rough))
    else:
        rows.append(_skip("halfspace-below-rough-bound",
                          "requires a log-concave measure"))
        rows.append(_skip("max-sphere-below-rough-bound",
                          "requires a log-concave measure"))

    caps = [construction.cap_probability(prof, r, 0.4 * t0)
            for r in np.linspace(0.5 * t0, 2.0 * t0, 9)]
    mono = all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))
    half = abs(construction.cap_probability(prof, t0, 0.0) - 0.5)
    rows.append(_check("cap-probability-monotone", mono and half <= 1e-12,
                       caps[-1]))

    if logconcave:
        # a band-scaled eps puts a fixed share of the radial mass in the
        # shell; t0 at the cutoff has an outer quotient of 0, so probe the
        # inner edge of the critical band there
        r_fd = t0 if t0 < 0.99 * prof.support_radius \
            else t0 * (1.0 - prof.lambda_i)
        eps = 0.05 * t0 * lam
        exact = bodies.sphere_surface(prof, r_fd).value
        # the shell is centred on r_fd: the quotient's bias is O(eps^2)
        fd = bodies.minkowski_fd_surface(prof, bodies.Ball(r_fd - 0.5 * eps),
                                         epsilon=eps, samples=200_000,
                                         seed=cfg.seed)
        tol = max(0.05 * exact, 4.0 * fd.std_error)
        # no shell hit: a NaN std_error, no error bar, so the row fails
        ok = math.isfinite(fd.std_error) and abs(fd.value - exact) <= tol
        note = f"exact {exact:.9g}" + (f"; {fd.note}" if fd.note else "")
        rows.append(_check("fd-oracle-matches-sphere", ok, fd.value, note))
    else:
        rows.append(_skip("fd-oracle-matches-sphere",
                          "finite-difference and boundary-integral "
                          "definitions diverge at a density jump"))

    if not logconcave:
        sp = bodies.sphere_surface(
            prof, min(t0, prof.support_radius)).value
        tbp = functionals.theorem_bound_probabilistic(prof)
        ratio = sp / tbp
        rows.append({
            "check": "sphere-exceeds-probabilistic-bound",
            "status": "EXPECTED" if ratio > 1.0 else "FAIL",
            "value": ratio,
            "note": "scaling law needs log-concavity; excess is expected here",
        })
    return rows


def _cmd_verify(args) -> int:
    cfg = _config(args)
    rows = _verify_rows(cfg)
    _emit(rows, cfg.output_format, args.out)
    failed = [r for r in rows if r["status"] == "FAIL"]
    if failed:
        names = ", ".join(r["check"] for r in failed)
        sys.stderr.write(f"invariant failure: {names}\n")
        return EXIT_INVARIANT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _output_format(args) -> str:
    """--format if given, else csv for a file (--out) and human for stdout."""
    if args.format:
        return args.format
    return "csv" if args.out else "human"


def _config(args) -> RunConfig:
    return RunConfig(
        measure_spec=args.measure,
        dim=args.dim,
        output_format=_output_format(args),
        seed=args.seed,
        allow_non_logconcave=args.allow_non_logconcave,
    )


def _add_common(sp, dim=True):
    sp.add_argument("--measure", required=True,
                    help="measure spec, e.g. gaussian, gp:p=3, ball:R=1, "
                         "shell:R=1,eps=1e-3, table:file=phi.txt")
    if dim:
        sp.add_argument("--dim", type=int, required=True,
                        help="ambient dimension d >= 2")
    sp.add_argument("--format", choices=("json", "csv", "human"),
                    default=None,
                    help="output format (default: human on stdout, csv "
                         "with --out)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--allow-non-logconcave", action="store_true",
                    help="accept measures that fail the log-concavity gate")
    sp.add_argument("--out", default=None,
                    help="write the output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="radsurf",
        description="Boundary measure of convex bodies under rotation-"
                    "invariant log-concave measures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("functionals",
                        help="characteristic quantities of the measure")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_functionals)

    sp = sub.add_parser("surface", help="boundary measure of one body")
    _add_common(sp)
    sp.add_argument("--body", required=True,
                    help="sphere:R=.. | ball:R=.. | halfspace:rho=.. | "
                         "slab:rho1=..,rho2=.. | polytope:file=.. | "
                         "box:halfwidths=a,b,..")
    sp.add_argument("--method", choices=("exact", "mc", "fd"),
                    default="exact")
    sp.add_argument("--samples", type=int, default=100_000,
                    help="samples per facet (mc) or total (fd)")
    sp.add_argument("--eps", type=float, default=1e-3,
                    help="inflation step for --method fd")
    sp.set_defaults(fn=_cmd_surface)

    sp = sub.add_parser("certificate",
                        help="certified upper bound for a facet body")
    _add_common(sp)
    sp.add_argument("--body", required=True,
                    help="polytope:file=.. | halfspace:rho=.. | slab:... | "
                         "box:halfwidths=a,b,..")
    sp.set_defaults(fn=_cmd_certificate)

    sp = sub.add_parser("construct",
                        help="random circumscribed polytope estimate")
    _add_common(sp)
    sp.add_argument("--c-rho", type=float, default=1.0, dest="c_rho")
    sp.add_argument("--trials", type=int, default=4)
    sp.add_argument("--samples", type=int, default=10_000,
                    help="MC samples per facet")
    sp.add_argument("--facet-subsample", type=int, default=64)
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("sweep", help="per-dimension scaling table")
    _add_common(sp, dim=False)
    sp.add_argument("--dims", required=True,
                    help="a:b:geometric[:ratio] or comma list, e.g. 8:512:geometric")
    sp.add_argument("--c-rho", type=float, default=1.0, dest="c_rho")
    sp.add_argument("--trials", type=int, default=4)
    sp.add_argument("--samples", type=int, default=4_000)
    sp.add_argument("--facet-subsample", type=int, default=64)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("verify", help="run the invariant suite")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RadsurfError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
