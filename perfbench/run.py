#!/usr/bin/env python3
"""Closed-loop benchmark of radsurf: one caller, one library call (op) at
a time, no server.

    python3 perfbench/run.py --workload validate-lowdim --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program under test is imported from
``src/`` next to this directory, never from an installed copy.  See
README.md in this directory for the workloads, the metrics and the output
schema.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full report is
written to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 6  # fresh processes timing set-up, besides the run's own


def _limit_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= nproc
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(nproc)
    return nproc


def _import_program():
    src = ROOT / "src"
    if not (src / "radsurf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no radsurf sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import radsurf

    if Path(radsurf.__file__).resolve().parent != (src / "radsurf").resolve():
        sys.exit(f"perfbench: imported radsurf from {radsurf.__file__}, not {src}")
    return radsurf


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("validate-lowdim", "construct-d256", "construct-d1024"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal sample sizes, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print it (used internally)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# measurement


def fingerprint(obj):
    """Canonical text of a result: floats in hex, so equal text means
    byte-identical values."""
    import dataclasses

    if isinstance(obj, (bool, int, str, type(None))):
        return repr(obj)
    if isinstance(obj, float):  # numpy float64 included
        return obj.hex()
    if isinstance(obj, dict):
        return "{" + ",".join(f"{fingerprint(k)}:{fingerprint(obj[k])}"
                              for k in sorted(obj)) + "}"
    if dataclasses.is_dataclass(obj):
        from radsurf.potential import RadialPotential

        if isinstance(obj, RadialPotential):
            return type(obj).__name__  # an input, not a computed value
        return type(obj).__name__ + "(" + ",".join(
            f"{f.name}={fingerprint(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)) + ")"
    raise TypeError(f"no fingerprint for {type(obj).__name__}")


def run_pass(ops, tracer=None, speed=None):
    """Run every op once, ticking `speed` before each op when given;
    returns [(op, start, wall seconds, result, failure reason)]."""
    ctx = {}
    records = []
    for op in ops:
        if speed:
            speed.tick()
        span = tracer.start("op." + op.kind) if tracer else None
        t = time.perf_counter()
        try:
            result, why = op.call(), ""
        except Exception as exc:  # an op that raises counts as failed
            result, why = None, f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t
            if tracer:
                tracer.end(span)
        if not why:
            try:
                why = op.check(result, ctx)
            except Exception as exc:
                why = f"check raised {type(exc).__name__}: {exc}"
        records.append((op, t, dt, result, why))
    if speed:
        speed.tick(force=True)  # closes the window of the pass's last op
    return records


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(10 * p) - 1]


def tail_percentile(n):
    """Highest of the usual percentiles with at least 10 ops beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("profile_ms.p50", "ms", "lower"),
    ("profile_ms.p90", "ms", "lower"),
    ("exact_ms.p50", "ms", "lower"),
    ("exact_ms.p90", "ms", "lower"),
    ("certificate_ms.p50", "ms", "lower"),
    ("certificate_ms.p90", "ms", "lower"),
    ("construct_s.p50", "s", "lower"),
    ("facet_samples_per_s", "1/s", "higher"),
    ("mc_relvar_s", "s", "lower"),
    ("fd_samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def op_times(passes, speed):
    """[(op, seconds, result)] for each op of the pass, timed as the median
    over the run's untraced passes of its calls' times at nominal host
    speed (speed.py): the host's slow-downs, which last from seconds to
    whole runs, scale out instead of shifting the figures."""
    plain = [records for traced, _, _, records in passes if not traced]
    return [(op, statistics.median(speed.scale(op.kind, p[i][1], p[i][2]) for p in plain),
             result)
            for i, (op, _, _, result, _) in enumerate(plain[0])]


def end_to_end(timed, setup_s):
    """The end-to-end metrics from the op times of `op_times`."""
    by_kind = {}
    for op, dt, _ in timed:
        by_kind.setdefault(op.kind, []).append(dt)
    m = {"setup_s": setup_s}
    for kind in ("profile", "exact", "certificate"):
        xs = [1e3 * t for t in by_kind[kind]]
        m[f"{kind}_ms.p50"] = percentile(xs, 50)
        m[f"{kind}_ms.p90"] = percentile(xs, 90)
    m["construct_s.p50"] = percentile(by_kind["construct"], 50)

    mc_samples = mc_time = fd_samples = fd_time = 0.0
    relvar = []
    for op, dt, est in timed:
        if est is None:
            continue
        if op.kind in ("mc", "construct"):
            mc_samples += est.samples
            mc_time += dt
            if est.value > 0 and est.std_error > 0:
                relvar.append((est.std_error / est.value) ** 2 * est.samples)
        elif op.kind == "fd":
            fd_samples += est.samples
            fd_time += dt
    m["facet_samples_per_s"] = mc_samples / mc_time
    # (std_error/value)^2 x seconds at one sample: the median relative
    # variance per sample times the mean seconds per sample
    m["mc_relvar_s"] = statistics.median(relvar) * mc_time / mc_samples
    m["fd_samples_per_s"] = fd_samples / fd_time
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def kind_summary(passes, timed):
    """Per op kind: every untraced call in wall seconds (median and the
    highest percentile with at least 10 calls beyond it) and the ops at
    nominal speed."""
    out = {}
    for kind in sorted({op.kind for op, *_ in timed}):
        calls = [dt for traced, _, _, records in passes if not traced
                 for op, _, dt, *_ in records if op.kind == kind]
        tail = tail_percentile(len(calls))
        scaled = [dt for op, dt, _ in timed if op.kind == kind]
        out[kind] = {
            "calls": len(calls),
            "calls_p50_s": percentile(calls, 50),
            "calls_tail_percentile": tail,
            "calls_tail_s": percentile(calls, tail),
            "ops": len(scaled),
            "ops_p50_s": percentile(scaled, 50),
            "ops_p90_s": percentile(scaled, 90),
            "ops_beyond_p90": sum(x > percentile(scaled, 90) for x in scaled),
        }
    return out


def setup_probes(args, n):
    """[(wall, nominal-speed) set-up seconds] of `n` fresh processes, run
    one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["wall_s"], probe["setup_s"]))
    return out


# ---------------------------------------------------------------------------
# provenance


def environment(radsurf, nproc):
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "radsurf_backend": radsurf.BACKEND,
    }


def source_hash():
    """SHA-256 of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src" / "radsurf").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_digest(key, digest):
    """Compare with the digest an earlier run of the same sources, workload
    and seed recorded in this checkout; record it when there is none.
    Returns "new", "match" or "mismatch"."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known:
        return "match" if known[key] == digest else "mismatch"
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return "new"


# ---------------------------------------------------------------------------


def main(argv=None):
    args = _parse(argv)
    nproc = _limit_blas_threads()
    t_setup = time.perf_counter()
    radsurf = _import_program()
    import workloads
    from speed import Speed, scale_now
    from tracing import PER_LAYER, TRACE_METRICS, LayerPatch, Tracer, layer_table, per_layer

    ops = workloads.build(args.workload, args.seed, args.size)
    setup_wall = time.perf_counter() - t_setup
    setup = (setup_wall, scale_now("setup", setup_wall))
    if args.setup_probe:
        print(json.dumps({"wall_s": setup[0], "setup_s": setup[1]}))
        return 0

    tracer = Tracer()
    speed = Speed()
    passes = []  # (traced, wall seconds, ticking seconds, records)
    t_run = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t = time.perf_counter()
        ticking = speed.seconds
        if traced:
            with LayerPatch(tracer):
                records = run_pass(ops, tracer)
        else:
            records = run_pass(ops, speed=speed)
        passes.append((traced, time.perf_counter() - t, speed.seconds - ticking, records))
        done = time.perf_counter() - t_run >= args.seconds
        if done and (not args.trace or len(passes) >= 2):
            break

    # correctness: every check, and every pass equal to the first
    first = [fingerprint(r) if not why else None for *_, r, why in passes[0][3]]
    failures = []
    attempted = 0
    for k, (*_, records) in enumerate(passes):
        for i, (op, _, _, result, why) in enumerate(records):
            attempted += 1
            if not why and k and fingerprint(result) != first[i]:
                why = "value differs from the first pass"
            if why:
                failures.append({"pass": k, "op": op.label, "why": why})
    digest = hashlib.sha256("".join(
        f"{op.label}\t{fp}\n" for (op, *_), fp in zip(passes[0][3], first)).encode()
    ).hexdigest()
    key = (f"{args.workload} seed={args.seed} size={args.size} "
           f"src={source_hash()[:16]} backend={radsurf.BACKEND}")
    digest_status = check_digest(key, digest)
    correct = not failures and digest_status != "mismatch"

    timed = op_times(passes, speed)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": environment(radsurf, nproc),
        "passes": len(passes), "ops_per_pass": len(ops),
        "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "value_digest": digest, "digest_key": key, "digest_status": digest_status,
        "failures": failures[:50],
        "kinds": kind_summary(passes, timed),
        "speed": speed.summary(),
    }
    if args.trace:
        traced = [p for p in passes if p[0]]
        plain = [p for p in passes if not p[0]]
        wall = sum(p[1] for p in traced)
        metrics = per_layer(tracer.spans, tracer.counts, len(traced))
        rows = layer_table(tracer.spans, len(traced), wall)
        metrics["trace.overhead_s"] = (min(p[1] for p in traced)
                                       - min(p[1] - p[2] for p in plain))
        metrics["trace.self_coverage"] = sum(r[3] for r in rows) * len(traced) / wall
        report["layers"] = [
            {"span": r[0], "calls_per_pass": r[1], "incl_s_per_pass": r[2],
             "self_s_per_pass": r[3], "self_share": r[4]} for r in rows]
        report["layer_self_share"] = sum(
            r[4] for r in rows if not r[0].startswith("op."))
        units = {name: unit for name, unit, *_ in PER_LAYER + TRACE_METRICS}
    else:
        setups = [setup] + setup_probes(args, SETUP_PROBES)
        report["setup_wall_s_samples"] = [wall for wall, _ in setups]
        report["setup_s_samples"] = [s for _, s in setups]
        metrics = end_to_end(timed, statistics.median(report["setup_s_samples"]))
        units = {name: unit for name, unit, _ in END_TO_END}
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))
    for name, m in report["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_frac':44s} {report['fail_frac']:>16.6g} ratio")
    print(f"value digest {digest[:16]} ({digest_status}); report {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
