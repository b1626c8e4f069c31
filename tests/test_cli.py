import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radsurf import cli
from radsurf.bodies import Ball, HalfSpace, HyperRectangle, Polytope, Slab, SphereShell
from radsurf.errors import InputError, NumericsError
from radsurf.cli import _parse_dims, load_polytope, main, parse_body
from radsurf.functionals import profile
from radsurf.potential import gaussian, parse_measure


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


def test_measures_and_bodies_share_one_grammar():
    # kind and keys are case-insensitive, values stripped, a comma list
    # sticks to its key, empty tokens are skipped
    assert parse_measure(" GP : P = 2 ,").p == 2.0
    assert parse_body("SPHERE:r=1.5,", 3).R == 1.5
    box = parse_body("box:HalfWidths= 0.5, 1,,1.5 ,", 3)
    assert np.array_equal(box.half_widths, [0.5, 1.0, 1.5])
    # a leading bare token and a leftover key are input errors in both
    for parse, spec in ((parse_measure, "ball:2"),
                        (lambda s: parse_body(s, 3), "ball:2"),
                        (parse_measure, "ball:R=2,extra=1"),
                        (lambda s: parse_body(s, 3), "ball:R=2,extra=1")):
        with pytest.raises(InputError):
            parse(spec)


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
    bad = tmp_path / "bad.txt"
    bad.write_text("# n1 n2 offset\n1 0 0.8\n0 one 1.2\n")
    with pytest.raises(InputError, match="bad.txt:3"):
        load_polytope(str(bad), 2)


def test_parse_dims():
    assert _parse_dims("8:64:geometric") == [8, 16, 32, 64]
    assert _parse_dims("4:36:geometric:3") == [4, 12, 36]
    assert _parse_dims("8:64:geometric:1e308") == [8]
    assert _parse_dims("9,3,27") == [3, 9, 27]
    for bad in ("8:64:linear", "1:8:geometric", "8:4:geometric",
                "8:64:geometric:1", "a,b", "1,2"):
        with pytest.raises(InputError):
            _parse_dims(bad)
    with pytest.raises(InputError, match="8.5:64:geometric"):
        _parse_dims("8.5:64:geometric")


def test_parse_dims_ratio_one_ulp_above_one_terminates():
    # the ratio must not crawl one ulp per step: a subprocess with a
    # timeout, so a regression fails instead of hanging the suite
    code = ("from radsurf.cli import _parse_dims; "
            "print(_parse_dims('8:64:geometric:1.0000000000000002'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0
    assert out.stdout == f"{list(range(8, 65))}\n"


@pytest.mark.parametrize("measure", [
    "ball:R=1e300", "ball:R=1.4e154", "shell:R=1e300,eps=1e299", "table"])
def test_support_radius_whose_square_overflows_exits_2(measure, tmp_path):
    # the support edge sqrt(R^2 - rho^2) is inf once R^2 overflows, and a
    # one-ulp search down from it never ends: a subprocess with a timeout,
    # so a regression fails instead of hanging the suite
    if measure == "table":
        path = tmp_path / "phi.tsv"
        path.write_text("0 0\n1 1\n1e300 2e300\n")
        measure = f"table:file={path},extrapolation=cutoff"
    out = subprocess.run(
        [sys.executable, "-m", "radsurf.cli", "functionals", "--measure",
         measure, "--dim", "3", "--allow-non-logconcave"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 2 and out.stdout == ""
    assert "overflows" in out.stderr


def test_bad_dim_and_format_exit_2(capsys):
    code, out, err = run_cli(capsys, "functionals", "--measure", "gaussian",
                             "--dim", "1")
    assert code == 2 and out == "" and "dimension" in err
    with pytest.raises(SystemExit) as exc:
        main(["functionals", "--measure", "gaussian", "--dim", "3",
              "--format", "yaml"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("functionals",),
    ("surface", "--body", "sphere:R=1", "--method", "exact"),
])
def test_negative_seed_exits_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--measure", "gaussian", "--dim", "3",
              "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err and "'-1'" in captured.err


#: SHA-256 of the default stdout of commands that draw no BLAS-dependent
#: Monte Carlo.  A change to the output format or a random stream updates
#: a digest here and says so.
STDOUT_DIGESTS = [
    ("functionals --measure gaussian --dim 10 --format human",
     "3f7f96ddab6f3dcf46d94c8471d8e2e70fad98a26675fea3221aea086c859b28"),
    ("functionals --measure gaussian --dim 10 --format json",
     "d0e39287f94009098e5d2fb9ab2447e5e07e720475833a266405300637ac9bf4"),
    ("functionals --measure gaussian --dim 10 --format csv",
     "1e3bd5bb92e6c3e5004e7346e0e305f4bc7df0ea1e29dfacd719e815a8724a30"),
    ("functionals --measure gp:p=1 --dim 8 --format human",
     "5bddb8f4bfef58b6ba58af7c9e2acd0fa0c064b7645bfd1b8346fab321dfff7c"),
    ("functionals --measure gp:p=1 --dim 8 --format json",
     "1a0172b9c661877c948fc96726f86aa72ed9d71740eb8ad9b4cbd6dc5dee3e11"),
    ("functionals --measure gp:p=1 --dim 8 --format csv",
     "6a9030806df0a0790b39dd80a1049df2c32a26b4064dca959f76389444cf1c7d"),
    ("functionals --measure ball:R=1 --dim 5 --format human",
     "c9d558eab8d3413b20f55b264dcc85c3b2d689f5c83ac8c0ed527e704d1f6b0e"),
    ("functionals --measure ball:R=1 --dim 5 --format json",
     "b9c0bccffa667dbb86fbcda4190e2b6f5335bd11074d470d73ee298fbe1417fa"),
    ("functionals --measure ball:R=1 --dim 5 --format csv",
     "973f957b4200084ca461d65370a478fe2821c921cfa4f8f4f655658c9eecd00c"),
    ("surface --measure gaussian --dim 7 --body sphere:R=2",
     "9dc5ef026666ab38e66ada2c0b726af0eb98b92a1a89c18e8112fc1e0375bbb1"),
    ("surface --measure gaussian --dim 7 --body halfspace:rho=0.5",
     "349b7742715fe479075ae2bec11c5baac5ec23af7705063261de83d833fe7ef9"),
    ("surface --measure gaussian --dim 7 --body slab:rho1=0.5,rho2=1",
     "199c9c4ac911b2cb03592d5f76cb5e579250058ec0b08ce32794acc080cc6007"),
    ("certificate --measure gaussian --dim 3 --body box:halfwidths=1,1,2",
     "c22e79152533f234dac27517a4526318828db284715a4fc8228e3e0d3f56b72c"),
    ("certificate --measure gaussian --dim 3 --body slab:rho1=0.5,rho2=1",
     "0f3dfcb08013c4d5d4a2893881d6d475ab2b7e4b692f419ca658a3470e046c59"),
    ("verify --measure gaussian --dim 6",
     "30150cc4bdb8024e32931080a2a99c039f0053fbc743a785e9f0ce22c25f6141"),
]


@pytest.mark.parametrize("command, digest", STDOUT_DIGESTS,
                         ids=[c for c, _ in STDOUT_DIGESTS])
def test_default_stdout_is_frozen(command, digest, capsys):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_certificate_infinite_slab_matches_its_half_space(capsys):
    # README: slab:rho1=..,rho2=inf is a half-space
    rows = []
    for body in ("slab:rho1=1,rho2=inf", "halfspace:rho=1"):
        code, out, _ = run_cli(capsys, "certificate", "--measure", "gaussian",
                               "--dim", "3", "--body", body, "--format", "json")
        assert code == 0
        row = json.loads(out)
        assert row.pop("body") == body
        rows.append(row)
    assert rows[0] == rows[1]
    assert rows[0]["value"] == pytest.approx(0.925081978823, abs=5e-13)


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


@pytest.mark.parametrize("body", ["halfspace:rho=0.5", "slab:rho1=0.5,rho2=1"])
def test_surface_mc_of_a_halfspace_or_slab_is_exact(body, capsys):
    # no neighbour, or one parallel one: facet MC scores the facets in
    # closed form, so even one sample per facet prints the exact value
    # with std_error 0, no sample and no note
    rows = []
    for method in ("mc", "exact"):
        code, out, _ = run_cli(capsys, "surface", "--measure", "gaussian",
                               "--dim", "3", "--body", body, "--method",
                               method, "--samples", "1", "--format", "json")
        assert code == 0
        rows.append(json.loads(out))
    mc, exact = rows
    assert mc["value"] == exact["value"] and mc["std_error"] == 0.0
    assert mc["samples"] == 0 and "note" not in mc


def test_surface_mc_rejects_a_repeated_polytope_row(capsys, tmp_path):
    path = tmp_path / "box.txt"
    eye = np.eye(3)
    rows = np.hstack([np.vstack([eye, -eye, eye[:1]]), np.ones((7, 1))])
    np.savetxt(path, rows)
    code, out, err = run_cli(capsys, "surface", "--measure", "gaussian",
                             "--dim", "3", "--body", f"polytope:file={path}",
                             "--method", "mc", "--samples", "2000")
    assert code == 2
    assert out == "" and "rows 0 and 6 are the same hyperplane" in err


def test_surface_mc_rejects_a_row_that_repeats_another_to_rounding(capsys,
                                                                  tmp_path):
    path = tmp_path / "near.txt"
    diag = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    near = np.array([1.0, 1.0 + 1e-15, 0.0])
    near /= np.linalg.norm(near)
    eye = np.eye(3)
    rows = np.hstack([np.vstack([eye, -eye, diag, near]), np.ones((8, 1))])
    np.savetxt(path, rows)
    code, out, err = run_cli(capsys, "surface", "--measure", "gaussian",
                             "--dim", "3", "--body", f"polytope:file={path}",
                             "--method", "mc", "--samples", "2000")
    assert code == 2
    assert out == "" and "rows 6 and 7 are the same hyperplane" in err


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


def test_construct_exact_method(capsys):
    code, out, _ = run_cli(capsys, "construct", "--measure", "gaussian",
                           "--dim", "16", "--method", "exact",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert abs(row["value"] - 0.275253) < 5e-7
    assert (row["std_error"], row["method"], row["samples"]) == (
        0.0, "exact", 0)


def test_construct_exact_serves_a_plan_too_large_to_allocate(capsys):
    # N_eff = 7.5e14 at d = 256: mc refuses to allocate the polytope, the
    # quadrature needs none
    args = ("construct", "--measure", "gaussian", "--dim", "256",
            "--c-rho", "3", "--format", "json")
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and "too many to allocate" in err
    code, out, _ = run_cli(capsys, *args, "--method", "exact")
    assert code == 0
    row = json.loads(out)
    assert row["N_eff"] == 745640492374035 and row["method"] == "exact"
    assert 0.0 < row["value"] < row["theorem_bound"]


def test_sweep_exact_method(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--measure", "gaussian",
                           "--dims", "8,16,64", "--method", "exact",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["construction_estimate"] == "nan"  # degenerate at d = 8
    for r, want in zip(rows[1:], (0.275253, 0.328413)):
        assert abs(float(r["construction_estimate"]) - want) < 5e-7
        assert r["construction_stderr"] == "0"


def test_construct_degenerate_plan_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "construct", "--measure", "gaussian",
                           "--dim", "8")
    assert code == 2
    assert "degenerates" in err


def test_construct_where_no_c_rho_works_says_so(capsys):
    # the critical annulus of the gaussian reaches the origin at d = 3
    code, out, err = run_cli(capsys, "construct", "--measure", "gaussian",
                             "--dim", "3", "--c-rho", "1e-6")
    assert code == 2 and out == ""
    assert "reaches the origin" in err and "no c_rho gives a polytope" in err
    assert "smaller c_rho" not in err
    code, out, _ = run_cli(capsys, "sweep", "--measure", "gaussian",
                           "--dims", "3", "--format", "csv")
    assert code == 0
    row, = csv.DictReader(io.StringIO(out))
    assert row["construction_estimate"] == "nan"


@pytest.mark.parametrize("dim", ["256", "1024"])
def test_construct_plan_too_large_to_allocate_fails_cleanly(dim, capsys):
    # N_eff is 7.5e14 at d = 256 (numpy raises MemoryError) and 4.4e30 at
    # d = 1024 (ValueError); neither allocates anything
    code, out, err = run_cli(capsys, "construct", "--measure", "gaussian",
                             "--dim", dim, "--c-rho", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the plan's N_eff = ")
    assert f"in d = {dim} are too many to allocate" in err
    assert err.count("\n") == 1


def test_sweep_plan_too_large_to_allocate_is_a_nan_row(capsys):
    # d = 64: the offset degenerates; d = 256: N_eff = 7.5e14 facets
    code, out, _ = run_cli(capsys, "sweep", "--measure", "gaussian",
                           "--dims", "64,256", "--c-rho", "3",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["d"]) for r in rows] == [64, 256]
    for r in rows:
        assert r["construction_estimate"] == r["construction_stderr"] == "nan"
        assert float(r["theorem_bound"]) > 0


def test_construct_with_more_facets_than_doubles_hold_fails_cleanly(capsys):
    # log N_real = 1304.6 at d = 4096: beyond the double range
    code, out, err = run_cli(capsys, "construct", "--measure", "gaussian",
                             "--dim", "4096", "--c-rho", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: the plan asks for N = e^1304.56 facets")
    assert err.count("\n") == 1


def test_sweep_with_more_facets_than_doubles_hold_is_a_nan_row(capsys):
    # log N_real is 1074.3 at d = 2048 and 1304.6 at d = 4096: both plans
    # overflow a double
    code, out, _ = run_cli(capsys, "sweep", "--measure", "gaussian",
                           "--dims", "2048,4096", "--c-rho", "8",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["d"]) for r in rows] == [2048, 4096]
    for r in rows:
        assert r["construction_estimate"] == r["construction_stderr"] == "nan"
        assert float(r["theorem_bound"]) > 0


def test_surface_mc_slab_off_the_origin(capsys):
    # the slab {1 <= x_0 <= 2} misses the origin; facet MC takes it and
    # matches the exact value, while the certificate refuses it
    args = ("--measure", "gaussian", "--dim", "3",
            "--body", "slab:rho1=-1,rho2=2")
    rows = []
    for method in ("mc", "exact"):
        code, out, _ = run_cli(capsys, "surface", *args, "--method", method,
                               "--samples", "2000", "--format", "json")
        assert code == 0
        rows.append(json.loads(out))
    assert rows[0]["value"] == rows[1]["value"] == 0.295961691032
    code, out, err = run_cli(capsys, "certificate", *args)
    assert code == 2 and out == "" and "origin inside" in err


@pytest.mark.parametrize("cmd, dims", [("construct", "--dim"),
                                        ("sweep", "--dims")])
def test_non_finite_c_rho_exits_2(cmd, dims, capsys):
    code, out, err = run_cli(capsys, cmd, "--measure", "gaussian", dims, "16",
                             "--c-rho", "nan")
    assert code == 2
    assert out == ""
    assert "c_rho" in err


@pytest.mark.parametrize("ratio", ["inf", "nan"])
def test_sweep_non_finite_dims_ratio_exits_2(ratio, capsys):
    # a non-finite ratio is bad input, rejected before any dimension is made
    code, out, err = run_cli(capsys, "sweep", "--measure", "gaussian",
                             "--dims", f"8:64:geometric:{ratio}")
    assert code == 2
    assert out == ""
    assert err == f"error: dims ratio must be finite, got {ratio!r}\n"


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


def test_readme_sweep_example_is_what_the_command_prints(capsys):
    # README's `sweep` example: its command, run, prints the columns the
    # README shows ("..." stands for the ones it leaves out)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("$ radsurf sweep "))
    shown = []
    for line in lines[start + 1:]:
        if line.startswith("```"):
            break
        shown.append(line.split(","))
    header, rows = shown[0], shown[1:]
    code, out, _ = run_cli(capsys, *lines[start].split()[2:])
    assert code == 0
    printed = list(csv.DictReader(io.StringIO(out)))
    assert len(printed) == len(rows)
    for row, got in zip(rows, printed):
        assert len(row) == len(header)
        for key, text in zip(header, row):
            if key != "...":
                assert math.isclose(float(text), float(got[key]),
                                    rel_tol=1e-9), (key, text, got[key])


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


@pytest.mark.parametrize("dest", ["missing/x.csv", "."],
                         ids=["missing-directory", "directory"])
def test_out_file_that_cannot_be_written_exits_2(dest, capsys, tmp_path):
    # like an unreadable input file: an input error, exit 2, one error line
    target = tmp_path / dest
    code, out, err = run_cli(capsys, "functionals", "--measure", "gaussian",
                             "--dim", "3", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write output file {target}: ")
    assert err.count("\n") == 1


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
    rows = {r["check"]: r for r in cli._verify_rows(profile(gaussian(), 3), 0)}
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
    rows = {r["check"]: r for r in cli._verify_rows(profile(gaussian(), 3), 0)}
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
    monkeypatch.setattr(cli, "_verify_rows", lambda prof, seed: rows)
    code, _, err = run_cli(capsys, "verify", "--measure", "gaussian",
                           "--dim", "4")
    assert code == 1
    assert "doctored" in err


# --- exit code mapping -------------------------------------------------------


def test_exit_codes_for_bad_input(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "functionals", "--measure", "nosuch",
                         "--dim", "4")
    assert code == 2
    code, _, _ = run_cli(capsys, "functionals", "--measure", "gaussian",
                         "--dim", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "surface", "--measure", "gaussian",
                         "--dim", "3", "--body", "sphere:R=2", "--method", "fd")
    assert code == 2  # finite differences need a solid body
    code, _, err = run_cli(capsys, "surface", "--measure", "gaussian",
                           "--dim", "3", "--body", "halfspace:rho=inf")
    assert code == 2
    assert "half-space offset must be finite and >= 0, got inf" in err
    code, _, err = run_cli(capsys, "surface", "--measure", "gaussian",
                           "--dim", "3", "--body", "slab:rho1=nan,rho2=1",
                           "--method", "mc")
    assert code == 2
    assert "slab offset is not a number: rho1=nan, rho2=1.0" in err
    poly = tmp_path / "poly.txt"
    poly.write_text("1 0 0 1\n-1 0 0 inf\n0 1 0 1\n")
    code, _, err = run_cli(capsys, "certificate", "--measure", "gaussian",
                           "--dim", "3", "--body", f"polytope:file={poly}")
    assert code == 2
    assert "polytope offsets must be finite" in err


def test_malformed_spec_values_exit_2(capsys, tmp_path):
    # a box halfwidth that is no number, a table with no knot beyond the
    # origin, and a negative shell radius behind the log-concavity opt-in
    table = tmp_path / "origin.tsv"
    table.write_text("0 0\n")
    for argv, message in (
            (("surface", "--measure", "gaussian", "--body",
              "box:halfwidths=1,x,2"), "box halfwidths must be numbers"),
            (("functionals", "--measure", f"table:file={table}"),
             "table needs at least one knot beyond the origin"),
            (("functionals", "--measure", "shell:R=-1,eps=0.1",
              "--allow-non-logconcave"),
             "shell radius must be positive, got -1.0")):
        code, out, err = run_cli(capsys, *argv, "--dim", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_exit_code_numerical_failure(capsys, monkeypatch):
    def boom(args):
        raise NumericsError("synthetic numerical failure")

    monkeypatch.setattr(cli, "_cmd_functionals", boom)
    code, _, err = run_cli(capsys, "functionals", "--measure", "gaussian",
                           "--dim", "4")
    assert code == 3
    assert "numerical" in err


@pytest.mark.parametrize("exc, code, prefix", [
    (ValueError("synthetic bad value"), 2, "error: "),
    (ArithmeticError("synthetic overflow"), 3, "numerical failure: "),
])
def test_exit_codes_of_python_errors(capsys, monkeypatch, exc, code, prefix):
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_functionals", boom)
    got, out, err = run_cli(capsys, "functionals", "--measure", "gaussian",
                            "--dim", "4")
    assert got == code and out == ""
    assert err == f"{prefix}{exc}\n"


def test_installed_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "radsurf.cli", "functionals", "--measure",
         "gaussian", "--dim", "4", "--format", "json"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["d"] == 4
