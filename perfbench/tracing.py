"""Layer tracing of radsurf from outside the package.

`Tracer` keeps spans (name, start, end, parent) and counters in memory.
`LayerPatch` swaps module and class attributes of radsurf for timing
wrappers inside a ``with`` block and puts the original objects back on
exit, so the package itself carries no tracing code.  `per_layer` turns
the spans and counters of the traced passes into the per-layer metrics
listed in BENCHMARK.json, normalised per pass of the workload.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    """Nested spans and counters of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []

    def start(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def add(self, key, n=1):
        self.counts[key] += n


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children (children of one span never overlap, the run being
    single-threaded)."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans):
    """Per span name: (calls, inclusive seconds, self seconds).

    Inclusive time counts only the outermost span of a name, so a layer
    that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    excl = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        excl[name] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
    return calls, incl, excl


# ---------------------------------------------------------------------------
# wrappers


def _spanned(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(key)
        return fn(*args, **kwargs)

    return wrapper


def _traced_quad(tracer, fn):
    """scipy's quad, asking for its evaluation count (full_output) and
    returning the plain (value, error) pair the caller asked for."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs.get("full_output") or len(args) > 4:
            return _spanned(tracer, "functionals.quad", fn)(*args, **kwargs)
        idx = tracer.start("functionals.quad")
        try:
            out = fn(*args, full_output=1, **kwargs)
        finally:
            tracer.end(idx)
        tracer.add("functionals.quad.evals", out[2]["neval"])
        return out[0], out[1]

    return wrapper


def _on_facet_table(max_knots):
    def on_result(tracer, args, kwargs, table):
        knots = table.grid.size - 1
        tracer.add("bodies._facet_table.knots", knots)
        tracer.add("bodies._facet_table.capped", int(knots >= max_knots))

    return on_result


def _on_facet_values(construction_call):
    def on_result(tracer, args, kwargs, result):
        samples = kwargs.get("samples_per_facet", args[2] if len(args) > 2 else None)
        facets = int(result[3].sum())
        tracer.add("bodies._facet_values.samples", int(samples) * facets)
        if construction_call:
            tracer.add("construction.facets_evaluated", facets)

    return on_result


def _on_accept(tracer, args, kwargs, accepted):
    dirs, _, normals = args[:3]
    n, d = dirs.shape
    k = normals.shape[0]
    tracer.add("kernels.facet_accept_count.samples", n)
    tracer.add("kernels.facet_accept_count.accepted", accepted)
    tracer.add("kernels.facet_accept_count.sample_constraints", n * k)
    tracer.add("kernels.facet_accept_count.flops_computed", 2 * n * k * d)
    tracer.add("kernels.facet_accept_count.bytes_computed", 8 * (n * d + k * d + n * k))


def _on_shell(tracer, args, kwargs, result):
    tracer.add("kernels.polytope_shell_counts.points", args[0].shape[0])


def _on_certificate(tracer, args, kwargs, report):
    tracer.add("certificates.grid_points", report.grid_points)


def _targets():
    """(owner, attribute, layer name, on_result) for every spanned layer."""
    from radsurf import _kernels, bodies, certificates, construction, functionals

    max_knots = inspect.signature(
        bodies._InverseCdfTable.__init__).parameters["max_knots"].default
    return [
        (functionals, "profile", "functionals.profile", None),
        (bodies, "halfspace_surface", "bodies.halfspace_surface", None),
        (bodies, "_facet_table", "bodies._facet_table", _on_facet_table(max_knots)),
        (bodies._InverseCdfTable, "sample", "bodies.radius_draw", None),
        (bodies, "_facet_values", "bodies._facet_values", _on_facet_values(False)),
        (construction, "_facet_values", "bodies._facet_values", _on_facet_values(True)),
        (_kernels, "facet_accept_count", "kernels.facet_accept_count", _on_accept),
        (_kernels, "polytope_shell_counts", "kernels.polytope_shell_counts", _on_shell),
        (bodies, "_point_chunk", "bodies._point_chunk", None),
        (bodies, "_radial_table", "bodies._radial_table", None),
        (certificates, "certificate_upper_bound",
         "certificates.certificate_upper_bound", _on_certificate),
        (certificates, "_facet_radius_range", "certificates._facet_radius_range", None),
        (certificates, "_direction_net", "certificates._direction_net", None),
        (construction, "plan", "construction.plan", None),
        (construction, "sample_polytope", "construction.sample_polytope", None),
    ]


def _potential_classes():
    from radsurf import potential

    return [
        cls for cls in vars(potential).values()
        if isinstance(cls, type) and issubclass(cls, potential.RadialPotential)
        and "value" in vars(cls)
    ]


class LayerPatch:
    """Context manager installing the layer wrappers on radsurf."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        from radsurf import functionals

        try:
            for owner, attr, name, on_result in _targets():
                self._swap(owner, attr,
                           _spanned(self.tracer, name, vars(owner)[attr], on_result))
            self._swap(functionals, "quad", _traced_quad(self.tracer, functionals.quad))
            for cls in _potential_classes():
                self._swap(cls, "value",
                           _counted(self.tracer, "potential.value.calls", vars(cls)["value"]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _swap(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _inclusive(name):
    return lambda calls, incl, excl, counts: incl.get(name, 0.0)


def _self(name):
    return lambda calls, incl, excl, counts: excl.get(name, 0.0)


def _calls(name):
    return lambda calls, incl, excl, counts: float(calls.get(name, 0))


def _count(key):
    return lambda calls, incl, excl, counts: counts.get(key, 0.0)


def _ratio(num, den):
    def get(calls, incl, excl, counts):
        d = counts.get(den, 0.0)
        return counts.get(num, 0.0) / d if d else 0.0

    return get


_A = "kernels.facet_accept_count"

#: (metric name, unit, better, getter, normalised per pass)
PER_LAYER = [
    ("functionals.profile.s", "s/pass", "lower", _inclusive("functionals.profile"), True),
    ("functionals.quad.calls", "count/pass", "lower", _calls("functionals.quad"), True),
    ("functionals.quad.evals", "count/pass", "lower", _count("functionals.quad.evals"), True),
    ("functionals.quad.s", "s/pass", "lower", _inclusive("functionals.quad"), True),
    ("potential.value.calls", "count/pass", "lower", _count("potential.value.calls"), True),
    ("bodies.halfspace_surface.calls", "count/pass", "lower",
     _calls("bodies.halfspace_surface"), True),
    ("bodies.halfspace_surface.s", "s/pass", "lower",
     _inclusive("bodies.halfspace_surface"), True),
    ("bodies._facet_table.calls", "count/pass", "lower", _calls("bodies._facet_table"), True),
    ("bodies._facet_table.s", "s/pass", "lower", _inclusive("bodies._facet_table"), True),
    ("bodies._facet_table.knots", "count/pass", "lower",
     _count("bodies._facet_table.knots"), True),
    ("bodies._facet_table.capped", "count/pass", "lower",
     _count("bodies._facet_table.capped"), True),
    ("bodies.radius_draw.s", "s/pass", "lower", _inclusive("bodies.radius_draw"), True),
    ("bodies._facet_values.self_s", "s/pass", "lower", _self("bodies._facet_values"), True),
    ("bodies._facet_values.samples", "count/pass", "higher",
     _count("bodies._facet_values.samples"), True),
    (_A + ".calls", "count/pass", "lower", _calls(_A), True),
    (_A + ".s", "s/pass", "lower", _inclusive(_A), True),
    (_A + ".samples", "count/pass", "higher", _count(_A + ".samples"), True),
    (_A + ".accept_ratio", "ratio", "higher", _ratio(_A + ".accepted", _A + ".samples"), False),
    (_A + ".constraints_mean", "count", "lower",
     _ratio(_A + ".sample_constraints", _A + ".samples"), False),
    (_A + ".flops_computed", "flop/pass", "lower", _count(_A + ".flops_computed"), True),
    (_A + ".bytes_computed", "B/pass", "lower", _count(_A + ".bytes_computed"), True),
    ("kernels.polytope_shell_counts.s", "s/pass", "lower",
     _inclusive("kernels.polytope_shell_counts"), True),
    ("kernels.polytope_shell_counts.points", "count/pass", "higher",
     _count("kernels.polytope_shell_counts.points"), True),
    ("bodies._point_chunk.s", "s/pass", "lower", _inclusive("bodies._point_chunk"), True),
    ("bodies._radial_table.s", "s/pass", "lower", _inclusive("bodies._radial_table"), True),
    ("certificates.certificate_upper_bound.s", "s/pass", "lower",
     _inclusive("certificates.certificate_upper_bound"), True),
    ("certificates._facet_radius_range.calls", "count/pass", "lower",
     _calls("certificates._facet_radius_range"), True),
    ("certificates._facet_radius_range.s", "s/pass", "lower",
     _inclusive("certificates._facet_radius_range"), True),
    ("certificates._direction_net.s", "s/pass", "lower",
     _inclusive("certificates._direction_net"), True),
    ("certificates.grid_points", "count/pass", "lower", _count("certificates.grid_points"), True),
    ("construction.plan.s", "s/pass", "lower", _inclusive("construction.plan"), True),
    ("construction.sample_polytope.s", "s/pass", "lower",
     _inclusive("construction.sample_polytope"), True),
    ("construction.facets_evaluated", "count/pass", "higher",
     _count("construction.facets_evaluated"), True),
]

#: metrics of the trace itself, computed by the runner
TRACE_METRICS = [
    ("trace.overhead_s", "s/pass", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
]


def per_layer(spans, counts, passes):
    """{metric: value} for PER_LAYER over `passes` traced passes."""
    calls, incl, excl = layer_totals(spans)
    out = {}
    for name, _, _, get, per_pass in PER_LAYER:
        value = get(calls, incl, excl, counts)
        out[name] = value / passes if per_pass else value
    return out


def layer_table(spans, passes, wall):
    """Rows (name, calls/pass, inclusive s/pass, self s/pass, self share of
    the traced wall time), slowest self time first."""
    calls, incl, excl = layer_totals(spans)
    rows = [
        (name, calls[name] / passes, incl[name] / passes, excl[name] / passes,
         excl[name] / wall if wall > 0 else 0.0)
        for name in calls
    ]
    rows.sort(key=lambda r: -r[3])
    return rows
