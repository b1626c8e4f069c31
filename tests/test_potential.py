import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radsurf.errors import GateError, InputError
from radsurf.potential import (
    ball,
    gaussian,
    load_table,
    parse_measure,
    power,
    probe_potential,
    shell,
    tabulated,
)


def test_gaussian_values_and_derivative():
    phi = gaussian()
    t = np.array([0.0, 0.5, 1.0, 3.0])
    assert np.allclose(phi.value(t), t * t / 2, rtol=0, atol=0)
    assert np.allclose(phi.derivative(t), t, rtol=0, atol=0)
    assert phi.value(2.0) == 2.0
    assert math.isinf(phi.support_radius)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0])
def test_power_values_and_derivative(p):
    phi = power(p)
    t = np.array([0.1, 1.0, 2.5])
    assert np.allclose(phi.value(t), t**p / p, rtol=1e-15)
    assert np.allclose(phi.derivative(t), t ** (p - 1), rtol=1e-15)


def test_power_rejects_p_below_one():
    with pytest.raises(InputError):
        power(0.5)
    with pytest.raises(InputError):
        power(0.0)


def assert_cutoff_edge(phi, R, left_limit):
    """phi(R) is the limit from below and the next double is outside the
    support, for scalar and array input alike."""
    beyond = math.nextafter(R, math.inf)
    assert phi.value(R) == left_limit
    assert math.isinf(phi.value(beyond))
    arr = np.asarray(phi.value(np.array([R, beyond])))
    assert arr[0] == left_limit
    assert math.isinf(arr[1])


def test_ball_cutoff_left_limit_convention():
    phi = ball(2.0)
    assert phi.value(1.9) == 0.0
    assert_cutoff_edge(phi, 2.0, 0.0)       # density convention on the sphere
    assert math.isinf(phi.value(2.01))
    assert phi.support_radius == 2.0


def test_ball_rejects_bad_radius():
    for R in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError):
            ball(R)


def test_tabulated_basic_interpolation():
    phi = tabulated([1.0, 2.0], [1.0, 3.0])
    # anchor (0,0), slopes 1 then 2, linear extrapolation keeps slope 2
    assert phi.value(0.5) == 0.5
    assert phi.value(1.5) == 2.0
    assert phi.value(4.0) == pytest.approx(3.0 + 2.0 * 2.0, rel=1e-15)
    assert phi.derivative(0.5) == 1.0
    assert phi.derivative(3.0) == 2.0
    assert math.isinf(phi.support_radius)


def test_tabulated_cutoff_extrapolation():
    phi = tabulated([1.0, 2.0], [1.0, 3.0], extrapolation="cutoff")
    assert phi.support_radius == 2.0
    assert_cutoff_edge(phi, 2.0, 3.0)


def test_tabulated_validation_gates():
    with pytest.raises(InputError):
        tabulated([1.0, 1.0], [1.0, 2.0])        # non-increasing knots
    with pytest.raises(InputError):
        tabulated([0.0, 1.0], [0.0, 1.0])        # knot at the origin
    with pytest.raises(InputError):
        tabulated([1.0, 2.0], [2.0, 1.0])        # decreasing values
    with pytest.raises(InputError):
        tabulated([1.0, 2.0, 3.0], [2.0, 3.0, 3.5])  # concave (slopes 2,1,.5)
    with pytest.raises(InputError):
        tabulated([1.0], [math.inf])
    with pytest.raises(InputError):
        tabulated([1.0, 2.0], [1.0, 2.0], extrapolation="quadratic")
    with pytest.raises(InputError, match="equal length"):
        tabulated([1, 2], [0.5])                 # one value for two knots


@given(
    steps=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=8),
    incs=st.lists(st.floats(0.01, 0.8), min_size=2, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_tabulated_accepts_any_convex_increasing_table(steps, incs):
    n = min(len(steps), len(incs))
    knots = np.cumsum(steps[:n])
    slopes = np.cumsum(incs[:n])
    values = np.cumsum(slopes * np.diff(np.concatenate([[0.0], knots])))
    phi = tabulated(knots, values)
    assert all(ok for _, ok in probe_potential(phi))


@given(
    drop=st.floats(0.05, 0.5),
    base=st.floats(0.2, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_tabulated_rejects_slope_decrease(drop, base):
    # slopes base, base + 1, base + 1 - drop: convexity fails on segment 3
    knots = np.array([1.0, 2.0, 3.0])
    slopes = np.array([base, base + 1.0, base + 1.0 - drop])
    values = np.cumsum(slopes)
    with pytest.raises(InputError):
        tabulated(knots, values)


def test_shell_gate_and_geometry():
    with pytest.raises(GateError):
        shell(1.0, 1e-3)
    phi = shell(1.0, 1e-3, allow_non_logconcave=True)
    assert phi.is_log_concave is False
    assert phi.support_radius == 1.0
    assert phi.inner_support_radius == pytest.approx(1.0 - 1e-3)
    assert math.isinf(phi.value(0.5))
    assert phi.value(1.0 - 5e-4) == 0.0
    assert_cutoff_edge(phi, 1.0, 0.0)
    with pytest.raises(InputError):
        shell(1.0, 2.0, allow_non_logconcave=True)


def test_probe_potential_all_pass_for_builtin_measures():
    for phi in (gaussian(), power(1.0), power(4.0), ball(1.0)):
        report = probe_potential(phi)
        assert report and all(ok for _, ok in report)


class _BadPotential(gaussian().__class__):
    def value(self, t):  # breaks phi(0) = 0
        return super().value(t) + 1.0


def test_probe_potential_flags_nonzero_origin():
    report = dict(probe_potential(_BadPotential()))
    assert not all(report.values())


def test_parse_measure_grammar():
    assert parse_measure("gaussian").kind == "gaussian"
    gp = parse_measure("gp:p=3")
    assert gp.kind == "gp" and gp.p == 3.0
    b = parse_measure("ball:R=2.5")
    assert b.kind == "ball" and b.R == 2.5
    with pytest.raises(GateError):
        parse_measure("shell:R=1,eps=1e-3")
    sh = parse_measure("shell:R=1,eps=1e-3", allow_non_logconcave=True)
    assert sh.R == 1.0 and sh.eps == 1e-3


def test_parse_measure_rejects_bad_specs():
    for spec in ("triangle", "gp", "gp:q=2", "ball:R=0", "gaussian:p=2",
                 "gp:p=abc", ""):
        with pytest.raises(InputError):
            parse_measure(spec)


def test_load_table_roundtrip(tmp_path):
    path = tmp_path / "phi.tsv"
    path.write_text("# radius  potential\n0 0\n1.0 0.5\n2.0 1.5\n3.0 3.0\n")
    phi = load_table(path)
    assert phi.value(2.0) == 1.5
    assert phi.value(2.5) == pytest.approx(2.25)
    via_parse = parse_measure(f"table:file={path}")
    assert via_parse.value(2.5) == phi.value(2.5)
    cut = parse_measure(f"table:file={path},extrapolation=cutoff")
    assert cut.support_radius == 3.0


def test_load_table_errors(tmp_path):
    missing = tmp_path / "nope.tsv"
    with pytest.raises(InputError):
        load_table(missing)
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 0\n1.0 0.5 9.9\n")
    with pytest.raises(InputError, match="bad.tsv:2"):
        load_table(bad)
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing\n")
    with pytest.raises(InputError):
        load_table(empty)
    no_anchor = tmp_path / "no_anchor.tsv"
    no_anchor.write_text("1.0 0.5\n2.0 1.5\n")
    with pytest.raises(InputError, match="first data row"):
        load_table(no_anchor)


def _contract_cases():
    table = tabulated([0.5, 1.25, 2.0], [0.25, 1.0, 2.5])
    cut = tabulated([0.5, 1.25, 2.0], [0.25, 1.0, 2.5], extrapolation="cutoff")
    return {
        "gaussian": gaussian(),
        "power-1": power(1.0),
        "power-2.5": power(2.5),
        "power-4": power(4.0),
        "ball": ball(1.5),
        "table-linear": table,
        "table-cutoff": cut,
        "shell": shell(1.0, 0.25, allow_non_logconcave=True),
    }


@pytest.mark.parametrize("name", list(_contract_cases()))
def test_scalar_evaluation_is_the_array_element_bit_for_bit(name):
    # a float in gives a float out, with the bits of the matching element
    # of the array call: at 0, each kink and its neighbours, the support
    # edges, beyond them and at inf
    phi = _contract_cases()[name]
    t = [0.0, 0.3, 7.0, 1e10, math.inf]
    for e in (*phi.interior_knots(), phi.support_radius):
        if math.isfinite(e):
            t += [math.nextafter(e, 0.0), e, math.nextafter(e, math.inf)]
    t = np.array(sorted(set(t)))
    inside = (t > phi.inner_support_radius) & (t < phi.support_radius)
    if phi.inner_support_radius == 0.0:
        inside |= t == 0.0
    for method, mask in (("value", np.ones_like(inside)), ("derivative", inside)):
        arr = getattr(phi, method)(t[mask])
        assert isinstance(arr, np.ndarray) and arr.shape == t[mask].shape
        for x, want in zip(t[mask], arr):
            got = getattr(phi, method)(float(x))
            assert isinstance(got, float), (method, x, type(got))
            assert got.hex() == float(want).hex(), (method, x, got, want)
