"""The benchmark's tracer (perfbench/tracer.py) wraps package names it
pins: the Poisson-structure constructors and evaluators, the class
attributes ``PoissonStructure.alpha_at`` / ``dalpha_at`` (placeholders
set to None) and the module attribute ``lie_dual.expm``. This checks that
a traced run still resolves them and sees the poisson and expm calls. No
built-in spec reaches ``expm`` (``from_groupoid`` takes Rodrigues' closed
form), so the traced operation calls ``ld.expm`` itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import numpy as np
import tracer

t = tracer.Tracer()
t.install()
from psgroupoid import expr as ex, lie_dual as ld, poisson as po

structures = [
    po.constant_structure([[0.0, 1.0], [-1.0, 0.0]]),
    po.two_domain(ex.parse("x1*x2", ["x1", "x2"])),
    po.kirillov_kostant(ld.builtin_spec("su2").f),
    po.rot_invariant3(ex.parse("R", ["R"])),
]
spec = ld.builtin_spec("su2")
g = ld.quat_to_matrix([0.8, 0.6, 0.0, 0.0])
t.begin_op(0)
for s in structures:
    po.jacobi_residual(s, np.full(s.n, 0.5))
ld.from_groupoid(spec, [0.1, 0.2, 0.3], g, N=8)
ld.expm(spec.rho([0.1, 0.2, 0.3]))
t.end_op()
print(json.dumps(t.layer_metrics()))
"""


def test_tracer_sees_the_pinned_names():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout)
    assert metrics["poisson.calls"] > 0
    assert metrics["lie_dual.expm_calls"] >= 1
