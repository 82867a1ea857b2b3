"""Command-line front end.

Subcommand groups:

* ``g2d``    — pointwise 2D groupoid maps and the axiom verification suite;
* ``flow``   — constraint solving, gauge flow, invariants, concatenation
               on discretized paths;
* ``lie``    — linear (Lie-dual) structures: roundtrip, product, holonomy;
* ``radial`` — rotation-invariant 3D analysis (area, fibers, verdict);
* ``expr``   — expression evaluation and symbolic differentiation.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(``"kind": "usage"``) or a numerical failure on valid input (``"kind":
"numerical"``: sampler exhaustion, an unconverged ray integral, a matrix
exponential that overflows, a ``flow solve`` trajectory that overflows).
JSON output prints each float in the shortest form that reads back to
the same double; errors go to standard error as a JSON object. Each
command imports only the model modules it runs (``pathspace`` only for
``flow`` and ``lie``, ``groupoid2d`` only for ``g2d`` and ``flow
invariants`` on ``phi2d:``, numpy only where it handles arrays, so not
for ``expr``), and builds the parser of its own group only."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import expr as ex

__all__ = ["CLIError", "emit", "build_parser", "main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
RESIDUAL_TOL = 1e-4  # gate of ``flow solve`` and default of ``flow invariants --tol``


class CLIError(Exception):
    """Usage-level failure (bad arguments, unparsable input)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


# ---------------------------------------------------------------------------
# JSON output

def _plain(value):
    """numpy arrays and scalars as the Python values json writes."""
    import numpy as np
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit(obj, stream=None):
    try:
        text = json.dumps(obj, default=_plain, allow_nan=False)
    except ValueError:
        raise CLIError("non-finite number in output") from None
    _write(text + "\n", stream or sys.stdout)


def _write(text, stream):
    """text to stream, flushed; a reader that closed the pipe ends the output
    and not the command, whose flush at exit then goes to os.devnull."""
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


# ---------------------------------------------------------------------------
# Argument helpers

def _floats(text, count=None):
    import numpy as np
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise CLIError(f"expected comma-separated numbers, got {text!r}")
    if count is not None and len(vals) != count:
        raise CLIError(f"expected {count} comma-separated numbers, got {text!r}")
    if np.isnan(vals).any():
        raise CLIError(f"expected numbers, got NaN in {text!r}")
    return np.array(vals)


def _ranged(convert, kind, valid, need):
    """An argparse type: ``convert`` of the text, if ``valid``; ``kind`` and ``need`` say what is expected."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text}")
        return value
    return parse


_seed = _ranged(int, "an integer", lambda v: v >= 0, "expected a seed of at least 0")
_tol = _ranged(float, "a number", lambda v: 0.0 <= v < math.inf, "expected a finite tolerance of at least 0")


def _add_grid(q):
    """The option --grid of q, a number of intervals."""
    from . import pathspace as ps
    q.add_argument("--grid", default=ps.DEFAULT_GRID, type=_ranged(
        int, "an integer", lambda v: v >= ps.MIN_NODES - 1,
        f"a path needs at least {ps.MIN_NODES} nodes, so at least {ps.MIN_NODES - 1} intervals"))


def _parse_structure(token):
    """--structure value -> (PoissonStructure, kind, payload)."""
    if token in ("su2", "so3", "heisenberg3"):
        from . import lie_dual as ld
        spec = ld.builtin_spec(token)
        return ld.kk_structure(spec), "lie", spec
    if token.startswith("phi2d:"):
        from .poisson import two_domain
        phi = ex.parse(token[len("phi2d:"):], ["x1", "x2"])
        return two_domain(phi), "phi2d", phi
    if token.startswith("radial:"):
        from .poisson import rot_invariant3
        f = ex.parse(token[len("radial:"):], ["R"])
        return rot_invariant3(f), "radial", f
    if token.startswith("constant:"):
        from .poisson import constant_structure
        path = token[len("constant:"):]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as err:
            raise CLIError(f"cannot read structure file: {err}")
        if isinstance(data, dict):
            if "matrix" not in data:
                raise CLIError(f'bad structure file {path}: no "matrix"')
            data = data["matrix"]
        try:
            return constant_structure(data), "constant", None
        except TypeError as err:
            raise CLIError(f"bad structure file {path}: {err}")
    raise CLIError(f"unknown structure {token!r}; expected phi2d:EXPR, su2, "
                   "so3, heisenberg3, radial:EXPR, or constant:FILE")


def _load_morphism(path):
    from . import pathspace as ps
    try:
        with open(path) as fh:
            return ps.DiscretizedMorphism.from_json(fh.read())
    except OSError as err:
        raise CLIError(f"cannot read morphism file: {err}")
    except (KeyError, TypeError, ValueError) as err:
        raise CLIError(f"bad morphism file {path}: {err}")


def _save_morphism(path, m):
    try:
        with open(path, "w") as fh:
            fh.write(m.to_json())
    except OSError as err:
        raise CLIError(f"cannot write morphism file: {err}")


def _group_element(spec, text):
    import numpy as np
    from . import lie_dual as ld
    vals = _floats(text)
    if spec.name == "su2" and len(vals) == 4:
        g = spec.project(ld.quat_to_matrix(vals))  # refuses a zero or infinite norm first
        # a hand-typed quaternion is off unit length by its rounding, not by more
        if abs(np.linalg.norm(vals) - 1.0) > 1e-2:
            raise CLIError("--g is not a unit quaternion")
        return g
    if len(vals) == spec.d * spec.d:
        g = vals.reshape(spec.d, spec.d)
        if spec.group_membership_defect(g) > 1e-8:
            raise CLIError(f"--g is not an element of the group of {spec.name}")
        return spec.project(g)
    raise CLIError(f"--g for {spec.name} takes "
                   + ("a quaternion w,x,y,z" if spec.name == "su2"
                      else f"{spec.d * spec.d} row-major entries"))


def _group_json(spec, g):
    import numpy as np
    from . import lie_dual as ld
    out = {"matrix": np.asarray(g)}
    if spec.name == "su2":
        out["quaternion"] = ld.matrix_to_quat(g)
    return out


# ---------------------------------------------------------------------------
# g2d

def _add_g2d(ops):
    names = ["member", "mul", "inv", "left", "right", "h", "psi", "xf",
             "verify"]
    for name in names:
        q = ops.add_parser(name)
        q.add_argument("--phi", required=True)
        if name in ("member", "verify"):
            q.add_argument("--domain", default="-10,10,-10,10")
        if name == "verify":
            q.add_argument("--samples", type=int, default=100)
            q.add_argument("--seed", type=_seed, default=0)
            q.add_argument("--pi-box", type=float, default=1.0)
        else:
            q.add_argument("--x", required=True)
            q.add_argument("--pi", required=True)
            if name == "mul":
                q.add_argument("--x2", required=True)
                q.add_argument("--pi2", required=True)


def _run_g2d(args) -> int:
    from . import groupoid2d as g2
    phi = g2.Phi2D.parse(args.phi)
    if args.op == "verify":
        report = g2.verify_axioms(phi, g2.Domain2D(*_floats(args.domain, 4)),
                                  samples=args.samples, seed=args.seed, pi_box=args.pi_box)
        ok = all(entry["passed"] for entry in report.values())
        for entry in report.values():  # JSON has no NaN or inf: a deviation that is not finite is null
            entry["max_dev"] = entry["max_dev"] if math.isfinite(entry["max_dev"]) else None
        emit({"checks": report, "all_passed": ok})
        return EXIT_OK if ok else EXIT_VERIFY
    g = g2.GroupoidPoint2D(_floats(args.x, 2), _floats(args.pi, 2))
    if args.op == "member":
        emit({"member": g2.contains(phi, g2.Domain2D(*_floats(args.domain, 4)), g)})
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

def _add_flow(ops):
    q = ops.add_parser("solve")
    q.add_argument("--structure", required=True)
    q.add_argument("--x0", required=True)
    q.add_argument("--eta", required=True,
                   help="semicolon-separated component expressions in u")
    _add_grid(q)
    q.add_argument("--out")

    q = ops.add_parser("gauge")
    q.add_argument("--structure", required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--beta", required=True,
                   help="semicolon-separated components in x1..xn and u, "
                        "vanishing at u=0 and u=1")
    q.add_argument("--time", type=float, default=1.0)
    q.add_argument("--out")

    q = ops.add_parser("invariants")
    q.add_argument("--structure", required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--tol", type=_tol, default=RESIDUAL_TOL)

    q = ops.add_parser("concat")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--in2", required=True)
    q.add_argument("--out")


def _morphism_report(m, out_path, extra=None) -> dict:
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
    import numpy as np
    from . import pathspace as ps
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
        residual, passed = ps.check_solution(s, m, RESIDUAL_TOL)
        emit(_morphism_report(m, args.out,
                              {"residual": residual, "passed": passed}))
        return EXIT_OK if passed else EXIT_VERIFY

    if args.op == "gauge":
        m = _load_morphism(args.infile)
        beta = ps.GaugeField.parse(args.beta.split(";"), s.n)
        flowed = ps.gauge_flow(s, m, beta, s_total=args.time)
        emit(_morphism_report(flowed, args.out, {
            "residual_before": ps.gauss_residual(s, m),
            "residual_after": ps.gauss_residual(s, flowed),
        }))
        return EXIT_OK

    # invariants
    m = _load_morphism(args.infile)
    if kind == "phi2d":  # the Phi2D's own structure, so both residual checks share its compiled contraction
        from . import groupoid2d as g2
        payload = g2.Phi2D(payload)
        s = payload.structure()
    residual, passed = ps.check_solution(s, m, args.tol)
    report = {"residual": residual}
    if kind == "phi2d":
        pt = g2._invariants(payload, m)  # its residual is checked and reported above
        report["x"] = pt.x
        report["pi"] = pt.pi
    elif kind == "lie":
        from . import lie_dual as ld
        spec = payload
        pt = ld.LieGroupoidPoint(xi=m.X[0], g=ld.holonomy(spec, m))
        report["xi"] = pt.xi
        report["g"] = _group_json(spec, pt.g)
    elif kind == "radial":
        from . import radial3d as rad
        radii = np.linalg.norm(m.X, axis=1)
        profile = rad.RadialProfile(payload, float(radii.min()) * 0.9,
                                    float(radii.max()) * 1.1)
        report["radius_drift"] = float(radii.max() - radii.min())
        report["radial_residual"] = rad.radial_gauss_residual(profile, m)
    else:
        report["x_start"] = m.X[0]
        report["x_end"] = m.X[-1]
    report["passed"] = passed
    emit(report)
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# lie

def _add_lie(ops):
    q = ops.add_parser("roundtrip")
    q.add_argument("--spec", default="su2")
    q.add_argument("--xi", required=True)
    q.add_argument("--g", required=True)
    _add_grid(q)
    q.add_argument("--tol", type=_tol, default=1e-6)

    q = ops.add_parser("mul")
    q.add_argument("--spec", default="su2")
    q.add_argument("--xi", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--g2", required=True)

    q = ops.add_parser("holonomy")
    q.add_argument("--spec", default="su2")
    q.add_argument("--in", dest="infile", required=True)


def _run_lie(args) -> int:
    import numpy as np
    from . import lie_dual as ld
    from . import pathspace as ps
    spec = ld.builtin_spec(args.spec)
    if args.op == "roundtrip":
        xi = _floats(args.xi, spec.n)
        g = _group_element(spec, args.g)
        m = ld.from_groupoid(spec, xi, g, N=args.grid)
        residual, solved = ps.check_solution(ld.kk_structure(spec), m, ld.RESIDUAL_TOL)
        back = ld.LieGroupoidPoint(xi=m.X[0], g=ld.holonomy(spec, m))
        xi_err = float(np.max(np.abs(back.xi - xi)))
        g_err = float(np.max(np.abs(back.g - g)))
        passed = solved and max(xi_err, g_err) <= args.tol
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

def _add_radial(ops):
    q = ops.add_parser("analyze")
    q.add_argument("--f", required=True)
    q.add_argument("--range", dest="rrange", required=True)
    q.add_argument("--samples", type=int, default=512)
    q.add_argument("--csv", action="store_true")


def _run_radial(args) -> int:
    from . import radial3d as rad
    lo, hi = _floats(args.rrange, 2)
    profile = rad.RadialProfile.parse(args.f, float(lo), float(hi))
    report = rad.analyze(profile, args.samples)
    if args.csv:
        _write(rad.analyze_to_csv(report), sys.stdout)
    else:
        emit(report)
    return EXIT_OK


def _add_expr(ops):
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

_GROUPS = {  # name: (description, builder of its subcommands, runner)
    "g2d": ("2D groupoid maps", _add_g2d, _run_g2d),
    "flow": ("discretized path operations", _add_flow, _run_flow),
    "lie": ("Lie-dual groupoid operations", _add_lie, _run_lie),
    "radial": ("rotation-invariant 3D analysis", _add_radial, _run_radial),
    "expr": ("expression utilities", _add_expr, _run_expr),
}


def build_parser(group=None) -> argparse.ArgumentParser:
    """The parser of every group, each with its subcommands, or, where
    ``group`` is given, only that one's: the help and the errors of the
    top level read the same."""
    parser = _Parser(prog="psgroupoid",
                     description="numerical symplectic groupoids of "
                                 "Poisson structures")
    sub = parser.add_subparsers(dest="group", required=True)
    for name, (description, add, _) in _GROUPS.items():
        p = sub.add_parser(name, description=description)
        if group in (None, name):
            add(p.add_subparsers(dest="op", required=True))
    return parser


def _flags(parser) -> set:
    """The option strings of ``parser`` and its subcommands that take no value."""
    out = {option for action in parser._actions if action.nargs == 0 for option in action.option_strings}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out.update(*map(_flags, action.choices.values()))
    return out


def _preprocess(argv, flags):
    """Join ``--opt -x`` into ``--opt=-x`` for each option not in ``flags``,
    so values that begin with ``-`` (``-1,2``, ``-.5``, ``-x1*x2``) are not
    mistaken for options; the token after a flag stays as it is."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1] and out[-1] not in flags
                and tok.startswith("-") and not tok.startswith("--")):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # the group is the first argument that is not an option
        parser = build_parser(next((tok for tok in argv if not tok.startswith("-")), ""))
        args = parser.parse_args(_preprocess(argv, _flags(parser)))
        return _GROUPS[args.group][2](args)
    except (CLIError, ex.ExprError, ValueError, RecursionError, OSError) as err:
        kind = "numerical" if isinstance(err, ex.NumericalError) else "usage"
        emit({"error": str(err), "kind": kind}, stream=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as err:  # sampler exhaustion, a ray integral that does not converge
        emit({"error": str(err), "kind": "numerical"}, stream=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
