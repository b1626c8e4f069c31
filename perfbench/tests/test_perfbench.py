"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from radsurf import bodies, functionals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _originals():
    found = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracing._targets()]
    found.append((functionals, "quad", functionals.quad))
    found += [(cls, "value", vars(cls)["value"]) for cls in tracing._potential_classes()]
    return found


def test_layer_patch_restores_the_original_functions():
    before = _originals()
    with tracing.LayerPatch(tracing.Tracer()):
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)


def test_layer_patch_restores_after_an_exception():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.LayerPatch(tracing.Tracer()):
            1 / 0
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)


def test_traced_quad_returns_what_quad_returns():
    f = math.exp
    plain = functionals.quad(f, 0.0, 1.0)
    tracer = tracing.Tracer()
    with tracing.LayerPatch(tracer):
        traced = functionals.quad(f, 0.0, 1.0)
    assert traced == plain
    assert tracer.counts["functionals.quad.evals"] > 0


def _scripted(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_arithmetic_on_a_synthetic_nest():
    # A [0, 10] holds B [1, 4] and D [5, 9]; B holds C [2, 3].
    tr = tracing.Tracer(clock=_scripted([0, 1, 2, 3, 4, 5, 9, 10]))
    a = tr.start("A")
    b = tr.start("B")
    c = tr.start("C")
    tr.end(c)
    tr.end(b)
    d = tr.start("D")
    tr.end(d)
    tr.end(a)
    assert tracing.self_times(tr.spans) == [3, 2, 1, 4]
    assert sum(tracing.self_times(tr.spans)) == 10  # self times tile the root


def test_recursive_layer_counts_inclusive_time_once():
    # X [0, 10] holds X [2, 6]
    tr = tracing.Tracer(clock=_scripted([0, 2, 6, 10]))
    outer = tr.start("X")
    inner = tr.start("X")
    tr.end(inner)
    tr.end(outer)
    calls, incl, excl = tracing.layer_totals(tr.spans)
    assert calls["X"] == 2
    assert incl["X"] == 10
    assert excl["X"] == 10


def test_spans_must_close_in_order():
    tr = tracing.Tracer()
    a = tr.start("A")
    tr.start("B")
    with pytest.raises(RuntimeError):
        tr.end(a)


def test_benchmark_json_names_match_the_emitted_metrics():
    layer = [(n, u, b) for n, u, b, *_ in tracing.PER_LAYER] + tracing.TRACE_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layer
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        tuple(x) for x in run.END_TO_END]


def test_speed_scales_by_the_median_factor_of_nearby_ticks():
    sp = speed.Speed()
    sp.times = [0.0, 0.5, 1.0, 5.0]
    sp.logs = {"draw": [math.log(x) for x in (1.0, 2.0, 4.0, 8.0)],
               "interp": [math.log(x) for x in (4.0, 2.0, 1.0, 8.0)]}
    # ticks within WINDOW_S = 1 of [0.2, 0.3]: the first three
    assert sp.at(0.2, 0.3, ("draw",)) == pytest.approx(2.0)
    assert sp.at(0.2, 0.3, ("draw", "interp")) == pytest.approx(2.0)  # all sqrt(4)
    assert sp.scale("construct", 0.2, 0.1) == pytest.approx(0.05)
    # no tick within 1 s of [2.5, 2.6]: the nearest one, at 1.0
    assert sp.at(2.5, 2.6, ("interp",)) == pytest.approx(1.0)
    assert sp.summary()["draw"] == pytest.approx({"min": 1.0, "p50": 3.0, "max": 8.0})


def test_fingerprint_separates_values_by_their_bits():
    a = bodies.SurfaceEstimate(0.1, 0.0, "exact", 0)
    b = bodies.SurfaceEstimate(1.0 / 10.0, 0.0, "exact", 0)
    c = bodies.SurfaceEstimate(math.nextafter(0.1, 1.0), 0.0, "exact", 0)
    assert run.fingerprint(a) == run.fingerprint(b)
    assert run.fingerprint(a) != run.fingerprint(c)


def _tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    out = _tiny(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_run_refuses_a_tree_without_the_program():
    bare = ROOT / ".perfbench" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in ("run.py", "workloads.py", "tracing.py", "speed.py"):
            shutil.copy(ROOT / "perfbench" / f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "construct-d256",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
