"""The public surface: every name a module exports exists, the package
root exports nothing, each CLI command imports only its model, options
no caller set are fixed values now (passing one is a TypeError), and
one module generates code."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psgroupoid import cli
from psgroupoid import expr as ex
from psgroupoid import groupoid2d as g2
from psgroupoid import lie_dual as ld
from psgroupoid import pathspace as ps
from psgroupoid import poisson as po
from psgroupoid import radial3d as rad

MODULES = [ex, po, ps, g2, ld, rad, cli]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_public_function_and_class_is_exported(module):
    public = [name for name, value in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__ == module.__name__]
    assert [name for name in public if name not in module.__all__] == []


IMPORTS_OF_A_COMMAND = """
import contextlib, io, json, sys
import psgroupoid
root = sorted(vars(psgroupoid))
from psgroupoid import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"root": root, "code": code, "loaded": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("argv, left_out", [
    (["expr", "eval", "--expr", "1"],
     ["psgroupoid.groupoid2d", "psgroupoid.lie_dual", "psgroupoid.radial3d", "psgroupoid.pathspace",
      "psgroupoid.poisson", "dataclasses"]),
    (["g2d", "member", "--phi", "x1*x2", "--x", "1,1", "--pi", "0.5,0.25"],
     ["psgroupoid.pathspace", "psgroupoid.poisson", "psgroupoid.lie_dual", "psgroupoid.radial3d"]),
    (["lie", "mul", "--xi", "1,2,3", "--g", "1,0,0,0", "--g2", "1,0,0,0"],
     ["psgroupoid.groupoid2d", "psgroupoid.radial3d"]),
], ids=["expr", "g2d", "lie"])
def test_a_command_imports_only_its_model(argv, left_out):
    # in a fresh interpreter: the root holds only __version__ and dunder
    # names, and the command loads none of the other models, nor path
    # space where it runs no path; an expression needs no dataclasses
    src = str(Path(ps.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORTS_OF_A_COMMAND, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert "__version__" in out["root"]
    assert [n for n in out["root"] if not (n.startswith("__") and n.endswith("__"))] == []
    assert out["code"] == 0
    assert [m for m in left_out if m in out["loaded"]] == []


RETIRED = [
    (g2.verify_axioms, "tolerances"),
    (g2.sample_points, "max_tries"),
    (g2.sample_composable_pairs, "max_tries"),
    (g2.invariants, "structure"),
    (ps.solve_gauss, "N"),
    (ps.GaugeField, "sample_box"),
    (ps.GaugeField, "seed"),
    (ps.GaugeField, "validate"),
    (ps.gauge_flow, "residual_tol"),
    (ps.gauge_flow, "s_steps"),
    (ps.gauge_flow, "check_residual"),
    (ps.require_solution, "message"),
    (ps.concatenate, "junction_eta_tol"),
    (ps.hamiltonian_check, "eps"),
    (ps.hamiltonian_check, "trials"),
    (ps.hamiltonian_check, "seed"),
    (ps.equivariance_defect, "eps"),
    (ps.equivariance_defect, "s_steps"),
    (ld.multiply_lie, "tol"),
    (rad.classify_fiber, "tol"),
    (rad.rescale, "c_margin"),
    (po.constant_structure, "name"),
    (po.two_domain, "name"),
    (po.rot_invariant3, "name"),
    (po.PoissonStructure, "alpha"),
    (po.PoissonStructure, "dalpha"),
    (po.PoissonStructure, "sharp"),
    (po.PoissonStructure, "dsharp"),
]


@pytest.mark.parametrize("fn, option", RETIRED,
                         ids=[f"{fn.__name__}-{option}" for fn, option in RETIRED])
def test_retired_option_is_a_type_error(fn, option):
    with pytest.raises(TypeError, match=option):
        inspect.signature(fn).bind_partial(**{option: None})


def test_only_the_sampling_verifiers_draw_random_numbers():
    # a decision taken on random samples is a guess; the axiom verifier
    # samples by design and reports what it drew
    callers = {}
    for path in sorted(Path(ps.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.random."):
                    callers[f"{path.name}:{node.lineno}"] = f"{path.stem}.{getattr(top, 'name', '')}"
    assert sorted(set(callers.values())) == ["groupoid2d.verify_axioms"], callers


def test_only_expr_compiles_code():
    # one code generator: the compiled loop of solve_gauss comes from expr too
    callers = set()
    for path in sorted(Path(ps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("compile", "exec"):
                callers.add(f"{path.name}:{ast.unparse(node.func)}")
    assert callers == {"expr.py:compile", "expr.py:exec"}
