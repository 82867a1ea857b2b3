"""Command-line front end.

Subcommand groups:

* ``g2d``    — pointwise 2D groupoid maps and the axiom verification suite;
* ``flow``   — constraint solving, gauge flow, invariants, concatenation
               on discretized paths;
* ``lie``    — linear (Lie-dual) structures: roundtrip, product, holonomy;
* ``radial`` — rotation-invariant 3D analysis (area, fibers, verdict);
* ``expr``   — expression evaluation and symbolic differentiation.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
JSON output prints each float in the shortest form that reads back to
the same double; errors go to standard error as a JSON object."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import expr as ex
from . import groupoid2d as g2
from . import lie_dual as ld
from . import pathspace as ps
from . import radial3d as rad
from .poisson import constant_structure, rot_invariant3

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class CLIError(Exception):
    """Usage-level failure (bad arguments, unparsable input)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


# ---------------------------------------------------------------------------
# JSON output

def _plain(value):
    """numpy arrays and scalars as the Python values json writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit(obj, stream=None):
    try:
        text = json.dumps(obj, default=_plain, allow_nan=False)
    except ValueError:
        raise CLIError("non-finite number in output") from None
    print(text, file=stream or sys.stdout)


# ---------------------------------------------------------------------------
# Argument helpers

def _floats(text, count=None):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise CLIError(f"expected comma-separated numbers, got {text!r}")
    if count is not None and len(vals) != count:
        raise CLIError(f"expected {count} comma-separated numbers, got {text!r}")
    if np.isnan(vals).any():
        raise CLIError(f"expected numbers, got NaN in {text!r}")
    return np.array(vals)


def _parse_structure(token):
    """--structure value -> (PoissonStructure, kind, payload)."""
    if token in ("su2", "so3", "heisenberg3"):
        spec = ld.builtin_spec(token)
        return ld.kk_structure(spec), "lie", spec
    if token.startswith("phi2d:"):
        phi = g2.Phi2D.parse(token[len("phi2d:"):])
        return phi.structure(), "phi2d", phi
    if token.startswith("radial:"):
        f = ex.parse(token[len("radial:"):], ["R"])
        return rot_invariant3(f), "radial", f
    if token.startswith("constant:"):
        path = token[len("constant:"):]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as err:
            raise CLIError(f"cannot read structure file: {err}")
        matrix = data["matrix"] if isinstance(data, dict) else data
        return constant_structure(matrix), "constant", None
    raise CLIError(f"unknown structure {token!r}; expected phi2d:EXPR, su2, "
                   "so3, heisenberg3, radial:EXPR, or constant:FILE")


def _load_morphism(path) -> ps.DiscretizedMorphism:
    try:
        with open(path) as fh:
            return ps.DiscretizedMorphism.from_json(fh.read())
    except OSError as err:
        raise CLIError(f"cannot read morphism file: {err}")
    except (KeyError, ValueError, json.JSONDecodeError) as err:
        raise CLIError(f"bad morphism file {path}: {err}")


def _save_morphism(path, m: ps.DiscretizedMorphism):
    try:
        with open(path, "w") as fh:
            fh.write(m.to_json())
    except OSError as err:
        raise CLIError(f"cannot write morphism file: {err}")


def _group_element(spec: ld.LieAlgebraSpec, text):
    vals = _floats(text)
    if spec.name == "su2" and len(vals) == 4:
        return spec.project(ld.quat_to_matrix(vals))  # a quaternion names its direction
    if len(vals) == spec.d * spec.d:
        g = vals.reshape(spec.d, spec.d)
        if spec.group_membership_defect(g) > 1e-8:
            raise CLIError(f"--g is not an element of the group of {spec.name}")
        return spec.project(g)
    raise CLIError(f"--g for {spec.name} takes "
                   + ("a quaternion w,x,y,z" if spec.name == "su2"
                      else f"{spec.d * spec.d} row-major entries"))


def _group_json(spec: ld.LieAlgebraSpec, g):
    out = {"matrix": np.asarray(g)}
    if spec.name == "su2":
        out["quaternion"] = ld.matrix_to_quat(g)
    return out


# ---------------------------------------------------------------------------
# g2d

def _add_g2d(sub):
    p = sub.add_parser("g2d", description="2D groupoid maps")
    ops = p.add_subparsers(dest="op", required=True)
    names = ["member", "mul", "inv", "left", "right", "h", "psi", "xf",
             "verify"]
    for name in names:
        q = ops.add_parser(name)
        q.add_argument("--phi", required=True)
        q.add_argument("--domain", default="-10,10,-10,10")
        if name == "verify":
            q.add_argument("--samples", type=int, default=100)
            q.add_argument("--seed", type=int, default=0)
            q.add_argument("--pi-box", type=float, default=1.0)
        else:
            q.add_argument("--x", required=True)
            q.add_argument("--pi", required=True)
            if name == "mul":
                q.add_argument("--x2", required=True)
                q.add_argument("--pi2", required=True)


def _run_g2d(args) -> int:
    phi = g2.Phi2D.parse(args.phi)
    dom = _floats(args.domain, 4)
    d = g2.Domain2D(dom[0], dom[1], dom[2], dom[3])
    if args.op == "verify":
        report = g2.verify_axioms(phi, d, samples=args.samples,
                                  seed=args.seed, pi_box=args.pi_box)
        ok = all(entry["passed"] for entry in report.values())
        emit({"checks": report, "all_passed": ok})
        return EXIT_OK if ok else EXIT_VERIFY
    g = g2.GroupoidPoint2D(_floats(args.x, 2), _floats(args.pi, 2))
    if args.op == "member":
        emit({"member": g2.contains(phi, d, g)})
    elif args.op == "mul":
        g2nd = g2.GroupoidPoint2D(_floats(args.x2, 2), _floats(args.pi2, 2))
        prod = g2.multiply(phi, g, g2nd)
        emit({"x": prod.x, "pi": prod.pi})
    elif args.op == "inv":
        gi = g2.inverse(phi, g)
        emit({"x": gi.x, "pi": gi.pi})
    elif args.op == "left":
        emit({"left": g2.left(g)})
    elif args.op == "right":
        emit({"right": g2.right(phi, g)})
    elif args.op == "h":
        emit({"h": g2.h_map(phi, g)})
    elif args.op == "psi":
        emit({"psi": g2.psi(phi, g)})
    elif args.op == "xf":
        emit({"xf": g2.x_f(phi, g)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# flow

def _add_flow(sub):
    p = sub.add_parser("flow", description="discretized path operations")
    ops = p.add_subparsers(dest="op", required=True)

    q = ops.add_parser("solve")
    q.add_argument("--structure", required=True)
    q.add_argument("--x0", required=True)
    q.add_argument("--eta", required=True,
                   help="semicolon-separated component expressions in u")
    q.add_argument("--grid", type=int, default=ps.DEFAULT_GRID)
    q.add_argument("--out")

    q = ops.add_parser("gauge")
    q.add_argument("--structure", required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--beta", required=True,
                   help="semicolon-separated components in x1..xn and u, "
                        "vanishing at u=0 and u=1")
    q.add_argument("--time", type=float, default=1.0)
    q.add_argument("--steps", type=int, default=ps.DEFAULT_FLOW_STEPS)
    q.add_argument("--out")

    q = ops.add_parser("invariants")
    q.add_argument("--structure", required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--tol", type=float, default=1e-4)

    q = ops.add_parser("concat")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--in2", required=True)
    q.add_argument("--out")


def _morphism_report(m: ps.DiscretizedMorphism, out_path, extra=None) -> dict:
    report = dict(extra or {})
    report["n"] = m.n
    report["N"] = m.N
    if out_path:
        _save_morphism(out_path, m)
        report["out"] = out_path
    else:
        report["morphism"] = json.loads(m.to_json())
    return report


def _run_flow(args) -> int:
    if args.op == "concat":
        glued = ps.concatenate(_load_morphism(args.infile),
                               _load_morphism(args.in2))
        emit(_morphism_report(glued, args.out))
        return EXIT_OK

    s, kind, payload = _parse_structure(args.structure)

    if args.op == "solve":
        x0 = _floats(args.x0, s.n)
        comps = [ex.parse(src, ["u"]) for src in args.eta.split(";")]
        if len(comps) != s.n:
            raise CLIError(f"--eta needs {s.n} components for this structure")
        u = np.linspace(0.0, 1.0, args.grid + 1)
        eta = np.stack([ex.evaluate(c, {"u": u}) for c in comps], axis=1)
        m = ps.solve_gauss(s, x0, eta)
        emit(_morphism_report(m, args.out,
                              {"residual": ps.gauss_residual(s, m)}))
        return EXIT_OK

    if args.op == "gauge":
        m = _load_morphism(args.infile)
        beta = ps.GaugeField.parse(args.beta.split(";"), s.n)
        flowed = ps.gauge_flow(s, m, beta, s_steps=args.steps,
                               s_total=args.time)
        emit(_morphism_report(flowed, args.out, {
            "residual_before": ps.gauss_residual(s, m),
            "residual_after": ps.gauss_residual(s, flowed),
        }))
        return EXIT_OK

    # invariants
    m = _load_morphism(args.infile)
    residual = ps.gauss_residual(s, m)
    report = {"residual": residual}
    if kind == "phi2d":
        pt = g2.invariants(payload, m, residual_tol=np.inf)
        report["x"] = pt.x
        report["pi"] = pt.pi
    elif kind == "lie":
        spec = payload
        pt = ld.LieGroupoidPoint(xi=m.X[0], g=ld.holonomy(spec, m))
        report["xi"] = pt.xi
        report["g"] = _group_json(spec, pt.g)
    elif kind == "radial":
        radii = np.linalg.norm(m.X, axis=1)
        profile = rad.RadialProfile(payload, float(radii.min()) * 0.9,
                                    float(radii.max()) * 1.1)
        report["radius_drift"] = float(radii.max() - radii.min())
        report["radial_residual"] = rad.radial_gauss_residual(profile, m)
    else:
        report["x_start"] = m.X[0]
        report["x_end"] = m.X[-1]
    report["passed"] = bool(residual <= args.tol)
    emit(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# lie

def _add_lie(sub):
    p = sub.add_parser("lie", description="Lie-dual groupoid operations")
    ops = p.add_subparsers(dest="op", required=True)

    q = ops.add_parser("roundtrip")
    q.add_argument("--spec", default="su2")
    q.add_argument("--xi", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--grid", type=int, default=ps.DEFAULT_GRID)
    q.add_argument("--tol", type=float, default=1e-6)

    q = ops.add_parser("mul")
    q.add_argument("--spec", default="su2")
    q.add_argument("--xi", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--g2", required=True)

    q = ops.add_parser("holonomy")
    q.add_argument("--spec", default="su2")
    q.add_argument("--in", dest="infile", required=True)


def _run_lie(args) -> int:
    spec = ld.builtin_spec(args.spec)
    if args.op == "roundtrip":
        xi = _floats(args.xi, spec.n)
        g = _group_element(spec, args.g)
        m = ld.from_groupoid(spec, xi, g, N=args.grid)
        residual = ps.gauss_residual(ld.kk_structure(spec), m)
        back = ld.to_groupoid(spec, m)
        xi_err = float(np.max(np.abs(back.xi - xi)))
        g_err = float(np.max(np.abs(back.g - g)))
        passed = max(xi_err, g_err) <= args.tol
        emit({"xi": back.xi, "g": _group_json(spec, back.g),
              "residual": residual, "xi_error": xi_err, "g_error": g_err,
              "passed": passed})
        return EXIT_OK if passed else EXIT_VERIFY
    if args.op == "mul":
        xi = _floats(args.xi, spec.n)
        a = ld.LieGroupoidPoint(xi, _group_element(spec, args.g))
        b = ld.LieGroupoidPoint(ld.right_lie(spec, a),
                                _group_element(spec, args.g2))
        prod = ld.multiply_lie(spec, a, b)
        emit({"xi": prod.xi, "g": _group_json(spec, prod.g),
              "right": ld.right_lie(spec, prod)})
        return EXIT_OK
    # holonomy
    m = _load_morphism(args.infile)
    emit({"holonomy": _group_json(spec, ld.holonomy(spec, m))})
    return EXIT_OK


# ---------------------------------------------------------------------------
# radial / expr

def _add_radial(sub):
    p = sub.add_parser("radial", description="rotation-invariant 3D analysis")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("analyze")
    q.add_argument("--f", required=True)
    q.add_argument("--range", dest="rrange", required=True)
    q.add_argument("--samples", type=int, default=512)
    q.add_argument("--csv", action="store_true")


def _run_radial(args) -> int:
    lo, hi = _floats(args.rrange, 2)
    profile = rad.RadialProfile.parse(args.f, float(lo), float(hi))
    report = rad.analyze(profile, args.samples)
    if args.csv:
        sys.stdout.write(rad.analyze_to_csv(report))
    else:
        emit(report)
    return EXIT_OK


def _add_expr(sub):
    p = sub.add_parser("expr", description="expression utilities")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("eval")
    q.add_argument("--expr", required=True)
    q.add_argument("--vars", default="",
                   help="comma-separated name=value assignments")
    q = ops.add_parser("diff")
    q.add_argument("--expr", required=True)
    q.add_argument("--var", required=True)


_EXPR_VARS = ["x1", "x2", "R", "u"]


def _run_expr(args) -> int:
    e = ex.parse(args.expr, _EXPR_VARS)
    if args.op == "diff":
        if args.var not in _EXPR_VARS:
            raise CLIError(f"unknown variable {args.var!r}")
        emit({"derivative": ex.to_string(ex.differentiate(e, args.var))})
        return EXIT_OK
    point = {}
    if args.vars:
        for assign in args.vars.split(","):
            if "=" not in assign:
                raise CLIError(f"bad assignment {assign!r}")
            name, _, val = assign.partition("=")
            if name.strip() not in _EXPR_VARS:
                raise CLIError(f"unknown variable {name.strip()!r}")
            try:
                point[name.strip()] = float(val)
            except ValueError:
                raise CLIError(f"bad number in assignment {assign!r}")
    emit({"value": ex.evaluate(e, point)})
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psgroupoid",
                     description="numerical symplectic groupoids of "
                                 "Poisson structures")
    sub = parser.add_subparsers(dest="group", required=True)
    _add_g2d(sub)
    _add_flow(sub)
    _add_lie(sub)
    _add_radial(sub)
    _add_expr(sub)
    return parser


_RUNNERS = {"g2d": _run_g2d, "flow": _run_flow, "lie": _run_lie,
            "radial": _run_radial, "expr": _run_expr}


def _preprocess(argv):
    """Join ``--flag -1,2`` into ``--flag=-1,2`` so values that begin
    with a negative number are not mistaken for options."""
    out = []
    for tok in sys.argv[1:] if argv is None else argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and tok[1:2].isdigit()):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_preprocess(argv))
        return _RUNNERS[args.group](args)
    except (CLIError, ex.ExprError, ValueError, RuntimeError, OSError) as err:
        emit({"error": str(err), "kind": "usage"}, stream=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
