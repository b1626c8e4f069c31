import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from radsurf import cli
from radsurf.bodies import Ball, HalfSpace, HyperRectangle, Polytope, Slab, SphereShell
from radsurf.errors import InputError, NumericsError
from radsurf.cli import RunConfig, _parse_dims, load_polytope, main, parse_body


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- small parsers -----------------------------------------------------------


def test_parse_body_grammar():
    assert isinstance(parse_body("sphere:R=2", 3), SphereShell)
    assert isinstance(parse_body("ball:R=0.5", 3), Ball)
    hs = parse_body("halfspace:rho=0.7", 4)
    assert isinstance(hs, HalfSpace) and hs.offset == 0.7
    assert hs.direction[0] == 1.0  # canonical axis direction
    sl = parse_body("slab:rho1=0.3,rho2=0.9", 3)
    assert isinstance(sl, Slab) and (sl.rho1, sl.rho2) == (0.3, 0.9)
    box = parse_body("box:halfwidths=0.5,1,1.5", 3)
    assert isinstance(box, HyperRectangle)
    assert np.array_equal(box.half_widths, [0.5, 1.0, 1.5])


def test_parse_body_errors():
    for spec in ("donut:R=1", "sphere", "sphere:r=1,extra=2",
                 "box:halfwidths=1,2", "halfspace:rho=abc"):
        with pytest.raises(InputError):
            parse_body(spec, 3)


def test_load_polytope_roundtrip(tmp_path):
    path = tmp_path / "poly.txt"
    rows = np.array([[1.0, 0.0, 0.8], [0.0, 1.0, 1.2], [-1.0, 0.0, 0.6]])
    np.savetxt(path, rows)
    body = load_polytope(str(path), 2)
    assert isinstance(body, Polytope)
    assert body.n_facets == 3
    assert np.allclose(body.offsets, [0.8, 1.2, 0.6])
    with pytest.raises(InputError):
        load_polytope(str(path), 3)  # wrong column count for d=3
    missing = tmp_path / "nope.txt"
    with pytest.raises(InputError):
        load_polytope(str(missing), 2)


def test_parse_dims():
    assert _parse_dims("8:64:geometric") == [8, 16, 32, 64]
    assert _parse_dims("4:36:geometric:3") == [4, 12, 36]
    assert _parse_dims("9,3,27") == [3, 9, 27]
    for bad in ("8:64:linear", "1:8:geometric", "8:4:geometric",
                "8:64:geometric:1", "a,b", "1,2"):
        with pytest.raises(InputError):
            _parse_dims(bad)


def test_runconfig_gates():
    with pytest.raises(InputError):
        RunConfig("gaussian", 1)
    with pytest.raises(InputError):
        RunConfig("gaussian", 3, output_format="yaml")


# --- subcommands -------------------------------------------------------------


def test_functionals_json_fields(capsys):
    code, out, _ = run_cli(capsys, "functionals", "--measure", "gaussian",
                           "--dim", "10", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["t0"] == pytest.approx(3.0, rel=1e-12)
    assert row["Jm"] == pytest.approx(384.0, rel=1e-9)
    assert row["lambda_ratio"] == pytest.approx(0.58538804077, rel=1e-9)
    assert row["theorem_bound"] == pytest.approx(1.30700749227, rel=1e-9)
    assert row["rough_upper_bound"] == pytest.approx(3.0843277598, rel=1e-9)
    assert row["d"] == 10 and row["m"] == 9


def test_functionals_csv_and_human(capsys):
    code, out, _ = run_cli(capsys, "functionals", "--measure", "ball:R=1",
                           "--dim", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and float(rows[0]["t0"]) == 1.0
    code2, out2, _ = run_cli(capsys, "functionals", "--measure", "ball:R=1",
                             "--dim", "5", "--format", "human")
    assert code2 == 0 and "t0" in out2


def test_surface_exact_sphere(capsys):
    code, out, _ = run_cli(capsys, "surface", "--measure", "ball:R=1",
                           "--dim", "7", "--body", "sphere:R=1",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["value"] == pytest.approx(7.0, rel=1e-10)
    assert row["method"] == "exact" and row["std_error"] == 0.0


def test_surface_exact_rejects_box(capsys):
    code, _, err = run_cli(capsys, "surface", "--measure", "gaussian",
                           "--dim", "3", "--body", "box:halfwidths=1,1,1")
    assert code == 2
    assert "exact" in err


def test_surface_mc_and_fd_run(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "surface", "--measure", "gaussian",
                           "--dim", "3", "--body", "box:halfwidths=1,1,1",
                           "--method", "mc", "--samples", "2000",
                           "--format", "json")
    assert code == 0
    mc = json.loads(out)
    code, out, _ = run_cli(capsys, "surface", "--measure", "gaussian",
                           "--dim", "3", "--body", "box:halfwidths=1,1,1",
                           "--method", "fd", "--samples", "200000",
                           "--format", "json")
    assert code == 0
    fd = json.loads(out)
    z = abs(mc["value"] - fd["value"]) / math.hypot(mc["std_error"],
                                                     fd["std_error"])
    assert z < 5.0


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_surface_fd_rejects_non_finite_eps(eps, capsys):
    code, out, err = run_cli(capsys, "surface", "--measure", "gaussian",
                             "--dim", "3", "--body", "ball:R=1",
                             "--method", "fd", "--eps", eps)
    assert code == 2
    assert out == ""
    assert "epsilon" in err


def test_surface_mc_byte_identical(capsys):
    args = ("surface", "--measure", "gp:p=1", "--dim", "4", "--body",
            "slab:rho1=0.5,rho2=1.0", "--method", "mc", "--samples", "3000",
            "--seed", "7", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_certificate_command(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    eye = np.eye(3)
    rows = np.hstack([np.vstack([eye, -eye]), np.full((6, 1), 1.0)])
    np.savetxt(path, rows)
    code, out, _ = run_cli(capsys, "certificate", "--measure", "gaussian",
                           "--dim", "3", "--body", f"polytope:file={path}",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["binding"] in ("xi1", "rough")
    assert row["value"] <= row["rough_bound"] * (1 + 1e-12)
    assert row["value"] > 0


def test_certificate_deep_tail_box_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "certificate", "--measure", "gaussian",
                           "--dim", "3", "--body", "box:halfwidths=40,40,40",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["min_xi1"] == "inf"
    assert row["binding"] == "xi1"
    assert row["value"] == math.ulp(0.0)


def test_certificate_box_matches_polytope_file(capsys, tmp_path):
    path = tmp_path / "box.txt"
    h = np.array([0.7, 1.0, 1.6])
    eye = np.eye(3)
    np.savetxt(path, np.hstack([np.vstack([eye, -eye]),
                                np.concatenate([h, h])[:, None]]))
    rows = []
    for body in ("box:halfwidths=0.7,1,1.6", f"polytope:file={path}"):
        code, out, _ = run_cli(capsys, "certificate", "--measure", "gaussian",
                               "--dim", "3", "--body", body, "--format", "json")
        assert code == 0
        row = json.loads(out)
        assert row.pop("body") == body
        rows.append(row)
    assert rows[0] == rows[1]


def test_surface_mc_halfspace_through_origin(capsys):
    code, out, _ = run_cli(capsys, "surface", "--measure", "gaussian",
                           "--dim", "4", "--body", "halfspace:rho=0",
                           "--method", "mc", "--samples", "500",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    # a lone facet accepts every sample: the exact half-space value
    assert row["value"] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                         rel=1e-9)
    assert row["std_error"] == 0.0


@pytest.mark.parametrize("body", ["ball:R=1", "sphere:R=1"])
@pytest.mark.parametrize("command", [("surface", "--method", "mc"),
                                     ("certificate",)])
def test_round_bodies_are_not_facet_bodies(capsys, command, body):
    code, out, err = run_cli(capsys, *command, "--measure", "gaussian",
                             "--dim", "3", "--body", body)
    assert code == 2
    assert out == "" and "facet body" in err


def test_construct_command_deterministic(capsys):
    args = ("construct", "--measure", "gaussian", "--dim", "16",
            "--trials", "2", "--samples", "1000", "--seed", "3",
            "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    row = json.loads(out1)
    assert row["N_eff"] >= 1 and row["value"] > 0
    assert row["rho"] > 0 and row["theorem_bound"] > 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_construct_degenerate_plan_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "construct", "--measure", "gaussian",
                           "--dim", "8")
    assert code == 2
    assert "degenerates" in err


@pytest.mark.parametrize("cmd, dims", [("construct", "--dim"),
                                        ("sweep", "--dims")])
def test_non_finite_c_rho_exits_2(cmd, dims, capsys):
    code, out, err = run_cli(capsys, cmd, "--measure", "gaussian", dims, "16",
                             "--c-rho", "nan")
    assert code == 2
    assert out == ""
    assert "c_rho" in err


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--measure", "gaussian",
                           "--dims", "8,16", "--trials", "2",
                           "--samples", "500", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["d"]) for r in rows] == [8, 16]
    # d=8 plan is degenerate at c_rho=1: construction columns are nan
    assert rows[0]["construction_estimate"] == "nan"
    assert float(rows[1]["construction_estimate"]) > 0
    for r in rows:
        assert float(r["theorem_bound"]) > 0
        assert float(r["halfspace_surface"]) > 0


@pytest.mark.parametrize("flag", ["--trials", "--samples",
                                  "--facet-subsample", "--c-rho"])
def test_sweep_bad_flag_exits_2(flag, capsys):
    # only a degenerate plan becomes a nan row; a bad flag is an input error
    code, out, err = run_cli(capsys, "sweep", "--measure", "gaussian",
                             "--dims", "16", flag, "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_out_file_writes_csv_quietly(capsys, tmp_path):
    dest = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "functionals", "--measure", "gaussian",
                           "--dim", "4", "--out", str(dest))
    assert code == 0
    assert out == ""
    rows = list(csv.DictReader(dest.open()))
    assert len(rows) == 1
    assert float(rows[0]["t0"]) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_out_file_honours_format(capsys, tmp_path):
    dest = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "functionals", "--measure", "gaussian",
                           "--dim", "4", "--format", "json", "--out", str(dest))
    assert code == 0
    assert out == ""
    row = json.loads(dest.read_text())
    assert row["t0"] == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_twelve_digit_float_formatting():
    assert cli._fmt(1.0 / 3.0) == "0.333333333333"
    assert cli._fmt(float("nan")) == "nan"
    assert cli._fmt(float("inf")) == "inf"
    assert cli._fmt(True) == "true"
    assert cli._fmt(7) == "7"


# --- verify ------------------------------------------------------------------


def test_verify_gaussian_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--measure", "gaussian",
                           "--dim", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    statuses = {r["status"] for r in rows}
    assert statuses <= {"PASS", "SKIP"}
    assert sum(r["status"] == "PASS" for r in rows) >= 10


def test_verify_and_functionals_survive_overflowing_scalars(capsys):
    # at d = 512, g_m(t0) and J_m overflow a double: the radial-mass rows
    # work from their logs and functionals prints g_t0 as inf, like Jm
    code, out, _ = run_cli(capsys, "verify", "--measure", "gaussian",
                           "--dim", "512", "--format", "json")
    assert code == 0
    rows = {r["check"]: r for r in json.loads(out)}
    assert {r["status"] for r in rows.values()} == {"PASS"}
    assert 0.0 < rows["radial-mass-floor"]["value"] <= 1.0
    code, out, _ = run_cli(capsys, "functionals", "--measure", "gaussian",
                           "--dim", "512", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["g_t0"] == "inf" and row["Jm"] == "inf"
    assert row["log_Jm"] > 700


@pytest.mark.parametrize("measure", ["gaussian", "gp:p=2.5"])
def test_verify_reciprocity_skips_radii_where_the_surface_underflows(capsys, measure):
    # at d = 256 the probes out to 3 t0 reach radii where sphere_surface is
    # subnormal and xi1 overflows to inf
    code, out, _ = run_cli(capsys, "verify", "--measure", measure,
                           "--dim", "256", "--format", "json")
    assert code == 0
    rows = {r["check"]: r for r in json.loads(out)}
    assert rows["sphere-reciprocity"]["value"] <= 1e-9


@pytest.mark.parametrize("surface", [0.0, None], ids=["zero", "exact"])
def test_verify_reciprocity_fails_on_a_non_finite_product(monkeypatch, surface):
    from radsurf import bodies, certificates

    monkeypatch.setattr(certificates, "xi1", lambda prof, point: math.inf)
    if surface is not None:
        monkeypatch.setattr(bodies, "sphere_surface", lambda prof, R:
                            bodies.SurfaceEstimate(surface, 0.0, "exact", 0))
    rows = {r["check"]: r for r in cli._verify_rows(RunConfig("gaussian", 3))}
    row = rows["sphere-reciprocity"]
    assert row["status"] == "FAIL"
    assert not math.isfinite(row["value"])


def test_verify_fd_row_on_a_cutoff_measure(capsys):
    # t0 is the support edge: the row probes t0 (1 - lambda_i), where the
    # FD quotient counts samples, not 0.8 t0, where it counted none
    code, out, _ = run_cli(capsys, "verify", "--measure", "ball:R=1",
                           "--dim", "64", "--format", "json")
    assert code == 0
    rows = {r["check"]: r for r in json.loads(out)}
    assert rows["fd-oracle-matches-sphere"]["value"] > 0.0


@pytest.mark.parametrize("measure", ["gaussian", "ball:R=1", "gp:p=1"])
def test_verify_fd_row_in_high_dimension(measure, capsys):
    # FD on a ball draws radii only, so d = 1024 holds no 65536 x d chunk
    code, out, _ = run_cli(capsys, "verify", "--measure", measure,
                           "--dim", "1024", "--format", "json")
    assert code == 0
    rows = {r["check"]: r for r in json.loads(out)}
    assert rows["fd-oracle-matches-sphere"]["status"] == "PASS"


@pytest.mark.parametrize("measure, dim", [("gp:p=1", "1024"),
                                          ("gaussian", "256"),
                                          ("ball:R=1", "16")])
def test_verify_fd_row_within_five_percent(measure, dim, capsys):
    # the band-scaled eps puts enough samples in the shell for the 5% arm
    # of the tolerance to decide, not the 4-sigma one, and the centred
    # shell keeps the first-order bias off the steep edge of a cutoff
    code, out, _ = run_cli(capsys, "verify", "--measure", measure,
                           "--dim", dim, "--format", "json")
    assert code == 0
    row = {r["check"]: r for r in json.loads(out)}["fd-oracle-matches-sphere"]
    exact = float(row["note"].split()[1])
    assert abs(row["value"] - exact) <= 0.05 * exact


def test_verify_fd_row_fails_without_an_error_bar(monkeypatch):
    from radsurf import bodies

    def no_hits(prof, body, epsilon, samples, seed):
        exact = bodies.sphere_surface(prof, body.R).value
        return bodies.SurfaceEstimate(exact, math.nan, "minkowski-fd", samples,
                                      "unreliable: no sample in the eps shell")

    monkeypatch.setattr(bodies, "minkowski_fd_surface", no_hits)
    rows = {r["check"]: r for r in cli._verify_rows(RunConfig("gaussian", 3))}
    row = rows["fd-oracle-matches-sphere"]
    assert row["status"] == "FAIL"
    assert "no sample in the eps shell" in row["note"]


def test_surface_fd_without_shell_hits_prints_a_note(capsys):
    code, out, _ = run_cli(capsys, "surface", "--measure", "gaussian",
                           "--dim", "3", "--body", "ball:R=10", "--method",
                           "fd", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["value"] == 0.0
    assert row["std_error"] == "nan"
    assert row["note"] == "unreliable: no sample in the eps shell"


def test_verify_shell_counterexample_expected(capsys):
    code, out, _ = run_cli(capsys, "verify", "--measure",
                           "shell:R=1,eps=1e-5", "--dim", "51",
                           "--allow-non-logconcave", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    expected = [r for r in rows if r["status"] == "EXPECTED"]
    assert expected, "shell must trip the counterexample check"
    assert not [r for r in rows if r["status"] == "FAIL"]


def test_verify_shell_without_optin_is_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--measure",
                           "shell:R=1,eps=1e-5", "--dim", "51")
    assert code == 2
    assert "log-concave" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    rows = [{"check": "doctored", "status": "FAIL", "value": 0.0, "note": ""}]
    monkeypatch.setattr(cli, "_verify_rows", lambda cfg: rows)
    code, _, err = run_cli(capsys, "verify", "--measure", "gaussian",
                           "--dim", "4")
    assert code == 1
    assert "doctored" in err


# --- exit code mapping -------------------------------------------------------


def test_exit_codes_for_bad_input(capsys):
    code, _, _ = run_cli(capsys, "functionals", "--measure", "nosuch",
                         "--dim", "4")
    assert code == 2
    code, _, _ = run_cli(capsys, "functionals", "--measure", "gaussian",
                         "--dim", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "surface", "--measure", "gaussian",
                         "--dim", "3", "--body", "sphere:R=2", "--method", "fd")
    assert code == 2  # finite differences need a solid body


def test_exit_code_numerical_failure(capsys, monkeypatch):
    def boom(args):
        raise NumericsError("synthetic numerical failure")

    monkeypatch.setattr(cli, "_cmd_functionals", boom)
    code, _, err = run_cli(capsys, "functionals", "--measure", "gaussian",
                           "--dim", "4")
    assert code == 3
    assert "numerical" in err


def test_installed_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "radsurf.cli", "functionals", "--measure",
         "gaussian", "--dim", "4", "--format", "json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["d"] == 4
