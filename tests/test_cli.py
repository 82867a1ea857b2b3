import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from psgroupoid import cli
from psgroupoid import expr as ex
from psgroupoid import groupoid2d as g2
from psgroupoid import pathspace as ps


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, expect_code=0):
    code, out, err = run(argv, capsys)
    assert code == expect_code, err or out
    return json.loads(out)


def test_g2d_member_example(capsys):
    data = run_json(["g2d", "member", "--phi", "x1*x2",
                     "--domain", "-10,10,-10,10",
                     "--x", "1,1", "--pi", "-2,0"], capsys)
    assert data == {"member": False}


def test_g2d_member_true(capsys):
    data = run_json(["g2d", "member", "--phi", "x1*x2",
                     "--x", "1,1", "--pi", "0.5,0.25"], capsys)
    assert data == {"member": True}


def test_g2d_mul_example(capsys):
    data = run_json(["g2d", "mul", "--phi", "x1*x2", "--x", "1,1",
                     "--pi", "0.5,0.25", "--x2", "0.75,1.5",
                     "--pi2", "0.1,0.2"], capsys)
    assert data["x"] == [1, 1]
    assert data["pi"] == [0.6125, 0.475]


def test_g2d_pointwise_maps(capsys):
    base = ["--phi", "x1*x2", "--x", "1,1", "--pi", "0.5,0.25"]
    assert run_json(["g2d", "h"] + base, capsys)["h"] == 1.125
    assert run_json(["g2d", "psi"] + base, capsys)["psi"] == 0.125
    assert run_json(["g2d", "xf"] + base, capsys)["xf"] == [0.75, 1.5]
    assert run_json(["g2d", "left"] + base, capsys)["left"] == [1, 1]
    assert run_json(["g2d", "right"] + base, capsys)["right"] == [0.75, 1.5]
    inv = run_json(["g2d", "inv"] + base, capsys)
    assert inv["x"] == [0.75, 1.5]
    assert np.allclose(inv["pi"], [-4 / 9, -2 / 9])


def test_g2d_verify_passes(capsys):
    data = run_json(["g2d", "verify", "--phi", "x1*x2",
                     "--samples", "10", "--seed", "3"], capsys)
    assert data["all_passed"] is True
    assert set(data["checks"]) >= {"identity_elements", "associativity",
                                   "omega_inverse", "product_pullback"}
    assert data["checks"]["identity_elements"]["count"] == 10
    assert data["checks"]["product_pullback"]["count"] == 5


def test_g2d_verify_without_samples_is_a_usage_error(capsys):
    code, out, err = run(["g2d", "verify", "--phi", "x1*x2", "--samples", "0"], capsys)
    assert code == 2 and out == ""
    assert "at least 1 sample" in json.loads(err)["error"]


def test_g2d_verify_reports_an_exhausted_sampler_as_numerical(capsys):
    # phi = 1e6 sends every ray with |pi| > 1e-6 out of the unit square
    code, out, err = run(["g2d", "verify", "--phi", "1e6", "--domain", "0,1,0,1",
                          "--samples", "3"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "sampling failed to find enough groupoid points",
                               "kind": "numerical"}


def test_an_unconverged_ray_integral_is_numerical(capsys):
    code, out, err = run(["g2d", "h", "--phi", "sin(1e4*x1)+2", "--x", "0.3,0.2",
                          "--pi", "0.5,0.5"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ray integral of phi not converged at 1024 nodes",
                               "kind": "numerical"}


def test_a_too_deeply_nested_expression_stays_a_usage_error(capsys):
    code, _, err = run(["expr", "eval", "--expr", "(" * 3000 + "x1" + ")" * 3000,
                        "--vars", "x1=1"], capsys)
    assert code == 2
    assert json.loads(err)["kind"] == "usage"


def test_g2d_verify_fails_when_a_check_never_ran(capsys):
    data = run_json(["g2d", "verify", "--phi", "x1*x2", "--samples", "1",
                     "--seed", "0"], capsys, expect_code=1)
    assert data["all_passed"] is False
    assert data["checks"]["associativity"]["count"] == 0
    assert data["checks"]["associativity"]["passed"] is False


def test_g2d_verify_deterministic(capsys):
    argv = ["g2d", "verify", "--phi", "x2", "--samples", "8", "--seed", "1"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical seed


def test_usage_errors_exit_2(capsys):
    code, out, err = run(["g2d", "member", "--phi", "x1*x2",
                          "--x", "1,1", "--pi", "oops"], capsys)
    assert code == 2
    assert json.loads(err)["kind"] == "usage"
    code, _, err = run(["g2d", "member", "--phi", "x1*(",
                        "--x", "1,1", "--pi", "0,0"], capsys)
    assert code == 2
    code, _, err = run(["nonsense"], capsys)
    assert code == 2


HELP = {  # as printed 80 columns wide
    (): """usage: psgroupoid [-h] {g2d,flow,lie,radial,expr} ...

numerical symplectic groupoids of Poisson structures

positional arguments:
  {g2d,flow,lie,radial,expr}

options:
  -h, --help            show this help message and exit
""",
    ("g2d",): """usage: psgroupoid g2d [-h] {member,mul,inv,left,right,h,psi,xf,verify} ...

2D groupoid maps

positional arguments:
  {member,mul,inv,left,right,h,psi,xf,verify}

options:
  -h, --help            show this help message and exit
""",
    ("flow",): """usage: psgroupoid flow [-h] {solve,gauge,invariants,concat} ...

discretized path operations

positional arguments:
  {solve,gauge,invariants,concat}

options:
  -h, --help            show this help message and exit
""",
    ("lie",): """usage: psgroupoid lie [-h] {roundtrip,mul,holonomy} ...

Lie-dual groupoid operations

positional arguments:
  {roundtrip,mul,holonomy}

options:
  -h, --help            show this help message and exit
""",
    ("radial",): """usage: psgroupoid radial [-h] {analyze} ...

rotation-invariant 3D analysis

positional arguments:
  {analyze}

options:
  -h, --help  show this help message and exit
""",
    ("expr",): """usage: psgroupoid expr [-h] {eval,diff} ...

expression utilities

positional arguments:
  {eval,diff}

options:
  -h, --help   show this help message and exit
""",
    ("flow", "solve"): """usage: psgroupoid flow solve [-h] --structure STRUCTURE --x0 X0 --eta ETA
                             [--grid GRID] [--out OUT]

options:
  -h, --help            show this help message and exit
  --structure STRUCTURE
  --x0 X0
  --eta ETA             semicolon-separated component expressions in u
  --grid GRID
  --out OUT
""",
}


@pytest.mark.parametrize("head", HELP, ids=lambda head: " ".join(head) or "top")
def test_the_help_text(head, capsys, monkeypatch):
    # main builds the subcommands of one group; the help reads as with all
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main([*head, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP[head]


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument group: invalid choice: 'bogus' (choose from 'g2d', 'flow', 'lie', 'radial', 'expr')"),
    (["bogus", "member", "--phi", "x1"],
     "argument group: invalid choice: 'bogus' (choose from 'g2d', 'flow', 'lie', 'radial', 'expr')"),
    ([], "the following arguments are required: group"),
    (["--phi", "x1"], "argument group: invalid choice: 'x1' (choose from 'g2d', 'flow', 'lie', 'radial', 'expr')"),
    (["g2d"], "the following arguments are required: op"),
    (["radial", "analyze", "--f", "R"], "the following arguments are required: --range"),
])
def test_the_usage_errors_of_groups_and_commands(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message, "kind": "usage"}


@pytest.mark.parametrize("head, option, value, tail", [
    (["g2d", "h"], "--phi", "-x1*x2", ["--x", "1,1", "--pi", "0.5,0.25"]),
    (["expr", "eval"], "--expr", "-x1", ["--vars", "x1=2"]),
    (["flow", "solve", "--structure", "phi2d:x1*x2", "--x0", "1,1"], "--eta", "-u;0.2",
     ["--grid", "20"]),
    (["radial", "analyze"], "--f", "-R/(1+(R-1)^3)", ["--range", "0.6,1.4", "--samples", "8"]),
    (["g2d", "h", "--phi", "x1*x2"], "--x", "-.5,1", ["--pi", "0.5,0.25"]),
    (["lie", "roundtrip"], "--xi", "-.3,0.2,0.5", ["--g", "0.8,0.1,0.2,0.55", "--grid", "400"]),
], ids=["phi", "expr", "eta", "f", "x", "xi"])
def test_a_value_that_begins_with_a_dash_is_the_options_value(head, option, value, tail, capsys):
    # these used to exit 2 with "argument --X: expected one argument": only
    # a dash and a digit were joined to the option before them
    joined = run(head + [f"{option}={value}"] + tail, capsys)
    assert joined[0] != 2, joined[2]
    assert run(head + [option, value] + tail, capsys) == joined


def test_the_token_after_a_flag_is_not_its_value(capsys):
    # --csv takes no value, so the -h after it stays the help option
    with pytest.raises(SystemExit) as stop:
        cli.main(["radial", "analyze", "--csv", "-h"])
    assert stop.value.code == 0 and "--csv" in capsys.readouterr().out


def test_flow_solve_invariants_roundtrip(tmp_path, capsys):
    out_file = str(tmp_path / "m.json")
    data = run_json(["flow", "solve", "--structure", "phi2d:x1*x2",
                     "--x0", "1,1", "--eta", "0.5;0.25",
                     "--grid", "400", "--out", out_file], capsys)
    assert data["residual"] < 1e-5
    inv = run_json(["flow", "invariants", "--structure", "phi2d:x1*x2",
                    "--in", out_file], capsys)
    assert inv["passed"] is True
    assert np.allclose(inv["x"], [1, 1])


def test_flow_gauge_preserves_invariants(tmp_path, capsys):
    out_file = str(tmp_path / "m.json")
    run_json(["flow", "solve", "--structure", "phi2d:x1*x2",
              "--x0", "1,1", "--eta", "0.4*u*(1-u);0.2", "--grid", "600",
              "--out", out_file], capsys)
    before = run_json(["flow", "invariants", "--structure", "phi2d:x1*x2",
                       "--in", out_file], capsys)
    flowed_file = str(tmp_path / "m2.json")
    run_json(["flow", "gauge", "--structure", "phi2d:x1*x2",
              "--in", out_file, "--beta", "0.1*u*(1-u)*x2;0.05*u*(1-u)",
              "--time", "0.5", "--out", flowed_file], capsys)
    after = run_json(["flow", "invariants", "--structure", "phi2d:x1*x2",
                      "--in", flowed_file], capsys)
    assert np.allclose(before["pi"], after["pi"], atol=1e-6)


def test_flow_gauge_with_constant_partial(tmp_path, capsys):
    # d2 phi = 0 for phi = sin(x1) + 2
    structure = "phi2d:sin(x1)+2"
    out_file = str(tmp_path / "m.json")
    run_json(["flow", "solve", "--structure", structure, "--x0", "1,1",
              "--eta", "0.1*sin(3.14159*u);0.2*u*(1-u)", "--grid", "1000",
              "--out", out_file], capsys)
    flowed_file = str(tmp_path / "m2.json")
    run_json(["flow", "gauge", "--structure", structure, "--in", out_file,
              "--beta", "0.1*u*(1-u)*x2;0.05*u*(1-u)", "--time", "0.5",
              "--out", flowed_file], capsys)
    before = run_json(["flow", "invariants", "--structure", structure,
                       "--in", out_file], capsys)
    after = run_json(["flow", "invariants", "--structure", structure,
                      "--in", flowed_file], capsys)
    assert np.allclose(before["pi"], after["pi"], atol=1e-6)


def test_flow_concat(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    c = str(tmp_path / "c.json")
    run_json(["flow", "solve", "--structure", "phi2d:x1*x2", "--x0", "1,1",
              "--eta", "0.3*u^2*(1-u)^2;0.2*u^2*(1-u)^2", "--grid", "500",
              "--out", a], capsys)
    with open(a) as fh:
        end = json.load(fh)["X"][-1]
    run_json(["flow", "solve", "--structure", "phi2d:x1*x2",
              "--x0", f"{end[0]},{end[1]}",
              "--eta", "-0.2*u^2*(1-u)^2;0.1*u^2*(1-u)^2", "--grid", "500",
              "--out", b], capsys)
    data = run_json(["flow", "concat", "--in", a, "--in2", b, "--out", c],
                    capsys)
    assert data["N"] == 1000


def test_lie_roundtrip_cli(capsys):
    data = run_json(["lie", "roundtrip", "--spec", "su2",
                     "--xi", "0.3,0.2,0.5", "--g", "0.8,0.1,0.2,0.55",
                     "--grid", "400"], capsys)
    assert data["passed"] is True
    assert data["xi_error"] <= 1e-6 and data["g_error"] <= 1e-6


@pytest.mark.parametrize("grid, passes", [(20, False), (400, True)])
def test_lie_roundtrip_gates_the_solution(grid, passes, capsys):
    # at grid 20 the residual, 6.4e-3, fails the gate of to_groupoid: that
    # used to be reported as a usage error, exit 2, for valid input
    data = run_json(["lie", "roundtrip", "--xi", "1,2,3", "--g", "0.8,0.6,0,0",
                     "--grid", str(grid)], capsys, expect_code=0 if passes else 1)
    assert data["passed"] is passes and data["xi_error"] == 0.0 and data["g_error"] <= 1e-12
    assert (data["residual"] < 1e-4) is passes


@pytest.mark.parametrize("spec, g, passes", [("so3", "1,0,0,0,-1,0,0,0,-1", True),
                                              ("su2", "-1,0,0,0", False)])
def test_lie_roundtrip_at_the_antipode(spec, g, passes, capsys):
    # both elements used to be refused as usage errors, exit 2. The su2
    # round trip is exact (g_error 5e-14), but the gate's second-order end
    # stencils read its residual as 4.5e-5 against 1e-5: the report is
    # printed all the same, and the exit is 1
    data = run_json(["lie", "roundtrip", "--spec", spec, "--xi", "0.3,-0.2,0.5", "--g", g],
                    capsys, expect_code=0 if passes else 1)
    assert data["passed"] is passes and data["xi_error"] == 0.0 and data["g_error"] <= 1e-12
    assert (data["residual"] <= 1e-5) is passes


def test_lie_mul_cli(capsys):
    data = run_json(["lie", "mul", "--spec", "su2", "--xi", "0.3,0.2,0.5",
                     "--g", "1,0,0,0", "--g2", "0.8,0.1,0.2,0.55"], capsys)
    assert data["xi"] == [0.3, 0.2, 0.5]
    q = np.array(data["g"]["quaternion"])
    expect = np.array([0.8, 0.1, 0.2, 0.55])
    assert np.allclose(q, expect / np.linalg.norm(expect), atol=1e-12)


_I3 = "1,0,0,0,1,0,0,0,1"


@pytest.mark.parametrize("spec, g, g2", [
    ("so3", "0,0,0,0,0,0,0,0,0", _I3),
    ("so3", "5,0,0,0,5,0,0,0,5", _I3),
    ("heisenberg3", "1,2,3,0.5,1,4,0,0,1", _I3),
    # the quaternion 2 as its 4x4 matrix; four numbers name a direction
    ("su2", "2,0,0,0,0,2,0,0,0,0,2,0,0,0,0,2", "1,0,0,0"),
])
def test_lie_mul_refuses_a_g_off_the_group(spec, g, g2, capsys):
    # these used to be projected onto the group, zeros onto the identity
    code, out, err = run(["lie", "mul", "--spec", spec, "--xi", "1,2,3",
                          "--g", g, "--g2", g2], capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == f"--g is not an element of the group of {spec}"


@pytest.mark.parametrize("g", ["100,0,0,0", "0.5,0,0,0"])
def test_lie_mul_refuses_a_quaternion_off_unit_length(g, capsys):
    # these used to be normalized, 100,0,0,0 to the identity
    code, out, err = run(["lie", "mul", "--spec", "su2", "--xi", "1,2,3",
                          "--g", g, "--g2", "1,0,0,0"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--g is not a unit quaternion", "kind": "usage"}


def test_lie_mul_accepts_a_group_matrix(capsys):
    data = run_json(["lie", "mul", "--spec", "heisenberg3", "--xi", "1,2,3",
                     "--g", "1,2,3,0,1,4,0,0,1", "--g2", _I3], capsys)
    assert data["g"]["matrix"] == [[1, 2, 3], [0, 1, 4], [0, 0, 1]]


def test_lie_holonomy_cli(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    run_json(["flow", "solve", "--structure", "su2", "--x0", "0.3,0.2,0.5",
              "--eta", "0.2;0.1*u*(1-u);0", "--grid", "300",
              "--out", path], capsys)
    data = run_json(["lie", "holonomy", "--spec", "su2", "--in", path],
                    capsys)
    q = np.array(data["holonomy"]["quaternion"])
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12


def _short_path_file(tmp_path, nodes):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 3, "N": nodes - 1, "X": [[0.3, 0.2, 0.5]] * nodes,
                                "etaU": [[0.2, 0.1, 0.0]] * nodes}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["lie", "holonomy", "--spec", "su2", "--in", "{N=0}"],
    ["flow", "invariants", "--structure", "su2", "--in", "{N=1}"],
    ["flow", "solve", "--structure", "phi2d:x1*x2", "--x0", "1,1",
     "--eta", "0.5;0.25", "--grid", "0"],
    ["lie", "roundtrip", "--xi", "0.3,0.2,0.5", "--g", "0.8,0.1,0.2,0.55", "--grid", "0"],
    ["lie", "roundtrip", "--xi", "0.3,0.2,0.5", "--g", "0.8,0.1,0.2,0.55", "--grid", "1"],
])
def test_too_short_paths_are_usage_errors(argv, tmp_path, capsys):
    # these used to end in ZeroDivisionError or IndexError tracebacks
    files = {"{N=0}": _short_path_file(tmp_path, 1), "{N=1}": _short_path_file(tmp_path, 2)}
    code, _, err = run([files.get(a, a) for a in argv], capsys)
    assert code == 2
    report = json.loads(err)
    assert report["kind"] == "usage" and "at least 3 nodes" in report["error"]


def _huge_path(tmp_path, row):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 3, "N": 2, "X": [[0.0, 0.0, 0.0]] * 3, "etaU": [row] * 3}))
    return str(path)


@pytest.mark.parametrize("spec", ["su2", "so3"])
@pytest.mark.parametrize("row", [[1e300, 0.0, 0.0], [1e300, 1e300, 0.0]])
def test_lie_holonomy_of_a_huge_rotation_is_on_the_group(spec, row, tmp_path, capsys):
    # the steps' closed form holds any finite rotation; the parent's expm
    # overflowed at [1e300, 0, 0] and lost its accuracy at [1e300, 1e300, 0]
    from psgroupoid import lie_dual as ld
    data = run_json(["lie", "holonomy", "--spec", spec, "--in", _huge_path(tmp_path, row)], capsys)
    hol = np.array(data["holonomy"]["matrix"])
    assert np.all(np.isfinite(hol))
    assert ld.builtin_spec(spec).group_membership_defect(hol) <= 1e-15


def test_lie_holonomy_overflow_is_a_numerical_error(tmp_path, capsys):
    # a valid morphism file whose holonomy the floats cannot hold: each
    # heisenberg3 step has the entry w1 w2 / 2 = 1.25e599
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["lie", "holonomy", "--spec", "heisenberg3", "--in",
                              _huge_path(tmp_path, [1e300, 1e300, 0.0])], capsys)
    assert code == 2 and out == "" and caught == []
    assert json.loads(err) == {"error": "matrix exponential overflows", "kind": "numerical"}


def test_flow_solve_overflow_is_a_numerical_error(capsys):
    # X' = -alpha(X) eta with alpha = x1 x2 and eta = (1e3, 1e3) blows up
    # within the first steps; the input is valid, the trajectory overflows
    code, out, err = run(["flow", "solve", "--structure", "phi2d:x1*x2", "--x0", "1,1",
                          "--eta", "1e3;1e3", "--grid", "50"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "value overflows or is not finite", "kind": "numerical"}


def test_radial_analyze_json_and_csv(capsys):
    data = run_json(["radial", "analyze", "--f", "R/(1+(R-1)^3)",
                     "--range", "0.6,1.4", "--samples", "64"], capsys)
    assert data["verdict"] == "singular"
    assert abs(data["critical_points"][0]["R"] - 1.0) < 1e-6
    code, out, _ = run(["radial", "analyze", "--f", "1",
                        "--range", "0.5,2", "--samples", "4", "--csv"],
                       capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,A,dA,C,fiber,period"
    assert len(lines) == 5


def test_expr_eval_and_diff(capsys):
    data = run_json(["expr", "eval", "--expr", "sin(x1)+2",
                     "--vars", "x1=0.5"], capsys)
    assert math.isclose(data["value"], math.sin(0.5) + 2, rel_tol=1e-15)
    data = run_json(["expr", "diff", "--expr", "x1^2*x2", "--var", "x1"],
                    capsys)
    assert data["derivative"] == "2*x1*x2"
    code, _, err = run(["expr", "eval", "--expr", "1/x1", "--vars", "x1=0"],
                       capsys)
    assert code == 2


@pytest.mark.parametrize("src, value", [("x1^2", "1e200"), ("exp(x1)", "1000")])
def test_expr_eval_overflow_is_a_usage_error(src, value, capsys):
    code, out, err = run(["expr", "eval", "--expr", src, "--vars", f"x1={value}"],
                         capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "usage"


NINES = "9" * 401


@pytest.mark.parametrize("argv, message", [
    (["diff", "--expr", "1e400*x1", "--var", "x1"], "number '1e400' overflows a float at offset 0"),
    (["diff", "--expr", f"x1^{NINES}", "--var", "x1"], f"number '{NINES}' overflows a float at offset 3"),
    (["eval", "--expr", "1e400"], "number '1e400' overflows a float at offset 0"),
    (["eval", "--expr", f"x1^-{NINES}", "--vars", "x1=2"], f"number '{NINES}' overflows a float at offset 4"),
])
def test_expr_a_number_that_overflows_a_float_is_a_usage_error(argv, message, capsys):
    # it used to end diff in an OverflowError traceback, with exit code 1
    code, out, err = run(["expr", *argv], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message, "kind": "usage"}


def test_expr_diff_leaves_a_product_of_constants_that_overflows(capsys):
    data = run_json(["expr", "diff", "--expr", "1e200*(1e200*x1)", "--var", "x1"], capsys)
    assert data == {"derivative": "1e+200*1e+200"}


def test_g2d_member_where_phi_is_undefined(capsys):
    data = run_json(["g2d", "member", "--phi", "log(x1)", "--x", "2,1",
                     "--pi", "0,3"], capsys)
    assert data == {"member": False}


def test_json_floats_round_trip_exactly(capsys):
    # json prints the shortest text that reads back to the same double
    data = run_json(["expr", "eval", "--expr", "1/3", "--vars", ""], capsys)
    assert data["value"] == 1.0 / 3.0
    assert run(["expr", "eval", "--expr", "1/10"], capsys)[1] == '{"value": 0.1}\n'


def test_emit_writes_numpy_values_and_refuses_non_finite_ones(capsys):
    cli.emit({"a": np.arange(2), "b": np.float32(0.5), "c": np.bool_(True), "d": (np.int64(3),)})
    assert capsys.readouterr().out == '{"a": [0, 1], "b": 0.5, "c": true, "d": [3]}\n'
    with pytest.raises(cli.CLIError, match="non-finite number in output"):
        cli.emit({"x": [1.0, np.nan]})
    with pytest.raises(TypeError):
        cli.emit({"x": object()})


def _morphism_file(tmp_path, capsys, structure, x0, eta, grid=200):
    path = str(tmp_path / "m.json")
    run_json(["flow", "solve", "--structure", structure, "--x0", x0, "--eta", eta,
              "--grid", str(grid), "--out", path], capsys)
    return path


def test_flow_invariants_of_a_lie_dual_path(tmp_path, capsys):
    path = _morphism_file(tmp_path, capsys, "su2", "0.3,0.2,0.5", "0.2;0.1*u*(1-u);0")
    data = run_json(["flow", "invariants", "--structure", "su2", "--in", path], capsys)
    assert data["passed"] is True and data["xi"] == [0.3, 0.2, 0.5]
    assert abs(np.linalg.norm(data["g"]["quaternion"]) - 1.0) < 1e-12
    assert np.array(data["g"]["matrix"]).shape == (4, 4)


def test_flow_invariants_of_a_radial_path(tmp_path, capsys):
    structure = "radial:R/(1+(R-1)^3)"
    path = _morphism_file(tmp_path, capsys, structure, "0.6,0.3,0.5", "0.2;-0.1;0.3*u")
    data = run_json(["flow", "invariants", "--structure", structure, "--in", path], capsys)
    assert data["passed"] is True
    assert data["radius_drift"] < 1e-9  # |X| is a Casimir
    assert abs(data["radial_residual"] - data["residual"]) < 1e-10


def test_flow_invariants_of_a_constant_structure(tmp_path, capsys):
    matrix = tmp_path / "p.json"
    matrix.write_text(json.dumps({"matrix": [[0.0, 2.0], [-2.0, 0.0]]}))
    structure = f"constant:{matrix}"
    path = _morphism_file(tmp_path, capsys, structure, "1,-1", "0.5;0.25")
    data = run_json(["flow", "invariants", "--structure", structure, "--in", path], capsys)
    # X' = -alpha eta is constant: X(1) = X(0) - (2 * 0.25, -2 * 0.5)
    assert data["passed"] is True and data["x_start"] == [1.0, -1.0]
    assert np.allclose(data["x_end"], [0.5, 0.0], atol=1e-14)


def _glued_x1x2_path():
    """Two tapered straight x1*x2 representatives glued at (x_f, 0): an
    exact path with max |X'| about 21 and Gauss residual about 2.3e-4."""
    p = g2.Phi2D(ex.parse("x1*x2", ["x1", "x2"]))
    xa, pa = np.array([2.0, 2.5]), np.array([0.4, -0.3])
    xb = xa + xa[0] * xa[1] * np.array([-pa[1], pa[0]])
    return ps.concatenate(g2.embed(p, g2.GroupoidPoint2D(xa, pa), N=1000, tapered=True),
                          g2.embed(p, g2.GroupoidPoint2D(xb, [0.3, 0.2]), N=1000, tapered=True))


@pytest.mark.parametrize("eta_offset, code", [(0.0, 0), (0.01, 1)])
def test_flow_invariants_scales_the_bound_with_the_speed(tmp_path, capsys, eta_offset, code):
    # the fast exact path used to fail the absolute bound residual <= --tol
    m = _glued_x1x2_path()
    path = tmp_path / "m.json"
    path.write_text(ps.DiscretizedMorphism(n=2, X=m.X, eta=m.eta + eta_offset).to_json())
    data = run_json(["flow", "invariants", "--structure", "phi2d:x1*x2", "--in", str(path)],
                    capsys, expect_code=code)
    assert data["residual"] > 1e-4 and data["passed"] is (code == 0)
    if code == 0:
        assert np.allclose(data["x"], [2.0, 2.5], atol=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["flow", "invariants", "--structure", "so4", "--in", "m.json"],
     "unknown structure 'so4'; expected phi2d:EXPR, su2, so3, heisenberg3, radial:EXPR, "
     "or constant:FILE"),
    (["flow", "solve", "--structure", "phi2d:x1*x2", "--x0", "1,1", "--eta", "0.5"],
     "--eta needs 2 components for this structure"),
])
def test_flow_usage_errors(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message, "kind": "usage"}


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_flow_gauge_refuses_fewer_than_one_step(tmp_path, capsys, steps):
    # --steps 0 used to end in a ZeroDivisionError, --steps=-3 to print the
    # input path; the flow now works out its own step count, so --steps is gone
    path = _morphism_file(tmp_path, capsys, "phi2d:x1*x2", "1,1", "0.4*u*(1-u);0.2")
    code, out, err = run(["flow", "gauge", "--structure", "phi2d:x1*x2", "--in", path,
                          "--beta", "0.1*u*(1-u)*x2;0", f"--steps={steps}"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"unrecognized arguments: --steps={steps}",
                               "kind": "usage"}


@pytest.mark.parametrize("time", ["inf", "nan"])
def test_flow_gauge_refuses_a_time_that_is_not_finite(tmp_path, capsys, time):
    # --time inf used to write two numpy warnings, then an error naming
    # neither the time nor s_total
    path = _morphism_file(tmp_path, capsys, "phi2d:x1*x2", "1,1", "0.4*u*(1-u);0.2")
    code, out, err = run(["flow", "gauge", "--structure", "phi2d:x1*x2", "--in", path,
                          "--beta", "0.1*u*(1-u)*x2;0", "--time", time], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"gauge_flow needs a finite s_total, got {time}",
                               "kind": "usage"}


def test_an_overflowing_gauge_flow_is_numerical(tmp_path, capsys):
    # every flow overflows, and the finest one's error used to print "kind": "usage"
    path = _morphism_file(tmp_path, capsys, "phi2d:x1*x2", "1,1", "0;0", grid=50)
    code, out, err = run(["flow", "gauge", "--structure", "phi2d:x1*x2", "--in", path,
                          "--beta", "1e200*u*(1-u)*x2;1e200*u*(1-u)*x1"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "value overflows or is not finite", "kind": "numerical"}


def test_flow_gauge_checks_beta_at_the_path_ends(tmp_path, capsys):
    # log(x1) is undefined on half of the box [-2, 2]^2 that construction
    # used to sample; on this path x1 stays in [0.957, 1]
    path = _morphism_file(tmp_path, capsys, "phi2d:x1*x2", "1,1", "0.5*u*(1-u);0.25*u*(1-u)",
                          grid=1000)
    gauge = ["flow", "gauge", "--structure", "phi2d:x1*x2", "--in", path, "--time", "0.1"]
    data = run_json(gauge + ["--beta", "u*(1-u)*log(x1);0"], capsys)
    assert data["residual_after"] < 1e-6
    code, out, err = run(gauge + ["--beta", "x1;0"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "gauge field does not vanish at u = 0", "kind": "usage"}


@pytest.mark.parametrize("name, text, message", [
    ("structure", '{"nomatrix": 1}', 'no "matrix"'),
    ("structure", '{"matrix": {"a": 1}}', "bad structure file"),
    ("structure", '{"matrix": 5}', "antisymmetric square matrix"),
    ("morphism", "[1, 2]", "expected a JSON object, got list"),
    ("morphism", '{"n": null, "N": 2, "X": [], "etaU": []}', "bad morphism file"),
    ("morphism", '{"n": 1, "N": 2, "X": [[0], [NaN], [1]], "etaU": [[0], [0], [0]]}',
     "X and etaU must be finite"),
    ("morphism", '{"n": 1, "N": 2, "X": [[0], [0], [1]], "etaU": [[0], [Infinity], [0]]}',
     "X and etaU must be finite"),
    ("morphism", '{"n": 1, "N": 2, "X": [[0], [1e999], [1]], "etaU": [[0], [0], [0]]}',
     "X and etaU must be finite"),
    ("morphism", '{"n": 2.7, "N": 2, "X": [[1, 1], [1, 1], [1, 1]], "etaU": [[0, 0], [0, 0], [0, 0]]}',
     "bad morphism file"),
    ("morphism", '{"n": 2, "N": 2.9, "X": [[1, 1], [1, 1], [1, 1]], "etaU": [[0, 0], [0, 0], [0, 0]]}',
     "n and N must be integers, got 2 and 2.9"),
    ("morphism", '{"n": true, "N": 2, "X": [[1], [1], [1]], "etaU": [[0], [0], [0]]}',
     "n and N must be integers, got True and 2"),
])
def test_a_malformed_input_file_is_a_usage_error(name, text, message, tmp_path, capsys):
    # these used to end in KeyError and TypeError tracebacks (exit 1), or
    # to load and fail in whatever computation met the NaN first
    path = tmp_path / "f.json"
    path.write_text(text)
    argv = (["flow", "solve", "--structure", f"constant:{path}", "--x0", "0,0", "--eta", "1;0",
             "--grid", "4"] if name == "structure"
            else ["flow", "invariants", "--structure", "phi2d:x1*x2", "--in", str(path)])
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "usage" and message in report["error"]


_SOLVE = ["flow", "solve", "--structure", "phi2d:x1*x2", "--x0", "1,1", "--eta", "0.5;0.25"]
_ROUNDTRIP = ["lie", "roundtrip", "--xi", "0.3,0.2,0.5", "--g", "0.8,0.1,0.2,0.55"]


@pytest.mark.parametrize("argv, message", [
    (_SOLVE + ["--grid", "-5"], "argument --grid: a path needs at least 3 nodes, "
                                "so at least 2 intervals, got -5"),
    (_ROUNDTRIP + ["--grid", "-5"], "argument --grid: a path needs at least 3 nodes, "
                                    "so at least 2 intervals, got -5"),
    (_SOLVE + ["--grid", "1.5"], "argument --grid: expected an integer, got '1.5'"),
    (["flow", "invariants", "--structure", "su2", "--in", "m.json", "--tol", "nan"],
     "argument --tol: expected a finite tolerance of at least 0, got nan"),
    (["flow", "invariants", "--structure", "su2", "--in", "m.json", "--tol", "-1"],
     "argument --tol: expected a finite tolerance of at least 0, got -1"),
    (_ROUNDTRIP + ["--tol", "nan"], "argument --tol: expected a finite tolerance of at least 0, got nan"),
    (_ROUNDTRIP + ["--tol", "inf"], "argument --tol: expected a finite tolerance of at least 0, got inf"),
    (_ROUNDTRIP + ["--tol", "x"], "argument --tol: expected a number, got 'x'"),
    (["g2d", "verify", "--phi", "x1*x2", "--seed", "-1"],
     "argument --seed: expected a seed of at least 0, got -1"),
    (["g2d", "verify", "--phi", "x1*x2", "--seed", "1.5"], "argument --seed: expected an integer, got '1.5'"),
])
def test_a_grid_or_tol_out_of_range_is_a_usage_error(argv, message, capsys):
    # a negative grid used to print numpy's "Number of samples, -4, must be
    # non-negative.", a NaN or negative tol to report a failed check, and a
    # negative seed numpy's "expected non-negative integer"
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message, "kind": "usage"}


@pytest.mark.parametrize("op", ["mul", "inv", "left", "right", "h", "psi", "xf"])
def test_domain_is_an_option_of_member_and_verify_only(op, capsys):
    # no pointwise map reads it, yet a degenerate one used to be refused
    argv = ["g2d", op, "--phi", "x1*x2", "--domain", "1,0,0,1", "--x", "1,1", "--pi", "0,0"]
    code, out, err = run(argv + (["--x2", "1,1", "--pi2", "0,0"] if op == "mul" else []), capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "unrecognized arguments: --domain 1,0,0,1", "kind": "usage"}


@pytest.mark.parametrize("argv, code, unbuffered", [
    (["lie", "roundtrip", "--xi", "1,2,3", "--g", "0.8,0.6,0,0"], 0, "1"),
    (["lie", "roundtrip", "--xi", "1,2,3", "--g", "0.8,0.6,0,0", "--grid", "20"], 1, ""),
    (["radial", "analyze", "--f", "1", "--range", "0.5,1.5", "--csv"], 0, "1"),
    (["radial", "analyze", "--f", "1", "--range", "0.5,1.5", "--csv"], 0, ""),
])
def test_a_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    # a closed stdout used to exit 2 with {"error": "[Errno 32] Broken pipe"};
    # unbuffered, the write fails, and buffered, the flush
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "psgroupoid.cli", *argv], env=env,
                              stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_flow_solve_prints_the_morphism_it_writes(tmp_path, capsys):
    # at grid 50 the end stencils put the residual, 1.3e-4, over the gate:
    # the morphism is printed or written all the same, and the exit is 1
    argv = ["flow", "solve", "--structure", "phi2d:x1*x2", "--x0", "1,1",
            "--eta", "0.4*u*(1-u);0.2", "--grid", "50"]
    printed = run_json(argv, capsys, expect_code=1)
    path = tmp_path / "m.json"
    written = run_json(argv + ["--out", str(path)], capsys, expect_code=1)
    assert written["out"] == str(path) and "morphism" not in written
    assert printed["morphism"] == json.loads(path.read_text())
    assert printed["residual"] == written["residual"]
    assert printed["passed"] is written["passed"] is False


def test_flow_solve_fails_where_invariants_fails(tmp_path, capsys):
    # this solve used to report its residual, 1.1e-3, and exit 0, while
    # flow invariants on the same file reported "passed": false and exit 1
    structure = "radial:1/(R-0.5)"
    path = str(tmp_path / "m.json")
    solved = run_json(["flow", "solve", "--structure", structure, "--x0", "1,0,0",
                       "--eta", "1;1;1", "--grid", "100", "--out", path], capsys,
                      expect_code=1)
    checked = run_json(["flow", "invariants", "--structure", structure, "--in", path],
                       capsys, expect_code=1)
    assert solved["passed"] is checked["passed"] is False
    assert solved["residual"] == checked["residual"] > 1e-3


@pytest.mark.parametrize("x0, c", [("0.5,0.5", [0.3, 0.3, -0.3, -0.3]),
                                   ("1.5,1.5", [-0.3, 0.3, 0.3, -0.3]),
                                   ("1.5,0.5", [0.3, -0.3, 0.3, 0.3])])
def test_flow_solve_on_the_benchmark_grid_passes(x0, c, capsys):
    # the x1*x2 solves of the cli-cold benchmark, at the corners of its draws
    pi_u = "3.141592653589793*u"
    eta = f"{c[0]}*sin({pi_u}) + {c[1]}*sin(2*{pi_u});{c[2]}*sin({pi_u}) + {c[3]}*sin(2*{pi_u})"
    data = run_json(["flow", "solve", "--structure", "phi2d:x1*x2", f"--x0={x0}",
                     "--eta", eta, "--grid", "1000"], capsys)
    assert data["passed"] is True and data["residual"] < 1e-5


@pytest.mark.parametrize("argv, message", [
    (["g2d", "verify", "--phi", "x1*x2", "--domain=-inf,inf,-10,10", "--samples", "2"],
     "sampling needs a rectangle and a pi box of finite size"),
    (["g2d", "member", "--phi", "x1*x2", "--x", "1,1", "--pi", "nan,0"],
     "expected numbers, got NaN in 'nan,0'"),
    (["lie", "mul", "--spec", "su2", "--xi", "1,2,3", "--g", "0,0,0,0", "--g2", "1,0,0,0"],
     "quaternion must have a finite nonzero norm"),
    (["lie", "roundtrip", "--spec", "su2", "--xi", "1,2,3", "--g", ",".join(["0"] * 16)],
     "quaternion must have a finite nonzero norm"),
    (["radial", "analyze", "--f", "R", "--range", "0.5,inf"],
     "range must satisfy 0 < Rmin < Rmax < inf"),
    (["g2d", "verify", "--phi", "x1*x2", "--samples", "3", "--pi-box", "-1"],
     "pi_box must be at least 0, got -1"),
])
def test_bad_numbers_are_usage_errors_without_warnings(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and caught == []
    assert json.loads(err) == {"error": message, "kind": "usage"}


def test_g2d_member_on_an_unbounded_rectangle(capsys):
    data = run_json(["g2d", "member", "--phi", "x1*x2", "--domain=-inf,inf,-10,10",
                     "--x", "1,1", "--pi", "0.5,0.25"], capsys)
    assert data == {"member": True}


def test_verify_exit_code_reflects_failure(capsys, monkeypatch):
    # force an impossible tolerance through the report: a tampered check
    from psgroupoid import groupoid2d as g2

    original = g2.verify_axioms

    def strict(*args, **kw):
        report = original(*args, **kw)
        for entry in report.values():
            entry["passed"] = False
        return report

    monkeypatch.setattr(g2, "verify_axioms", strict)
    code, out, _ = run(["g2d", "verify", "--phi", "0", "--samples", "4"],
                       capsys)
    assert code == 1
    assert json.loads(out)["all_passed"] is False


def test_verify_fails_a_deviation_that_is_not_a_number_in_valid_json(capsys, monkeypatch):
    monkeypatch.setattr(g2, "_h_gradient", lambda p, g: np.full((4, *np.shape(g.x)[1:]), np.nan))
    code, out, _ = run(["g2d", "verify", "--phi", "x1*x2", "--samples", "4"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False
    assert data["checks"]["product_pullback"]["max_dev"] is None


SCIPY_FREE_RUN = """
import contextlib, io, sys
import psgroupoid.cli
assert 'scipy' not in sys.modules and 'numpy.polynomial' not in sys.modules
from psgroupoid import cli, lie_dual as ld
assert 'mpmath' not in sys.modules
for name in ("su2", "so3", "heisenberg3"):
    spec = ld.builtin_spec(name)
    g = ld.expm(spec.rho([0.3, -0.2, 0.5]))
    ld.to_groupoid(spec, ld.from_groupoid(spec, [0.1, 0.2, 0.3], g, N=50))
    ld.holonomy(spec, ld.from_groupoid(spec, [0.1, 0.2, 0.3], g, N=50, tapered=True))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["lie", "roundtrip", "--spec", "so3", "--xi", "1,2,3", "--grid", "400",
                  "--g", "0.36,0.48,-0.8,-0.8,0.6,0,0.48,0.64,0.6"],
                 ["lie", "holonomy", "--in", sys.argv[1]]):
        assert cli.main(argv) == 0
sys.exit('scipy' in sys.modules or 'mpmath' in sys.modules)
"""


def test_import_leaves_scipy_out(tmp_path):
    # importing the CLI, and running the Lie-dual maps and commands on every
    # built-in spec, loads no scipy
    from psgroupoid import lie_dual as ld

    path = tmp_path / "m.json"
    spec = ld.builtin_spec("su2")
    path.write_text(ld.from_groupoid(spec, [0.3, 0.2, 0.5], spec.project(np.eye(4)), N=20).to_json())
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
