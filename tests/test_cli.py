import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psgroupoid import cli


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


def test_lie_mul_cli(capsys):
    data = run_json(["lie", "mul", "--spec", "su2", "--xi", "0.3,0.2,0.5",
                     "--g", "1,0,0,0", "--g2", "0.8,0.1,0.2,0.55"], capsys)
    assert data["xi"] == [0.3, 0.2, 0.5]
    q = np.array(data["g"]["quaternion"])
    expect = np.array([0.8, 0.1, 0.2, 0.55])
    assert np.allclose(q, expect / np.linalg.norm(expect), atol=1e-12)


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


def test_g2d_member_where_phi_is_undefined(capsys):
    data = run_json(["g2d", "member", "--phi", "log(x1)", "--x", "2,1",
                     "--pi", "0,3"], capsys)
    assert data == {"member": False}


def test_json_floats_round_trip_exactly(capsys):
    # 17 significant digits reproduce the binary double exactly
    data = run_json(["expr", "eval", "--expr", "1/3", "--vars", ""], capsys)
    assert data["value"] == 1.0 / 3.0


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


SCIPY_FREE_RUN = """
import contextlib, io, sys
import psgroupoid.cli
assert 'scipy' not in sys.modules and 'numpy.polynomial' not in sys.modules
from psgroupoid import cli, lie_dual as ld
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
sys.exit('scipy' in sys.modules)
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
