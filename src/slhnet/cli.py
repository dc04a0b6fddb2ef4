"""Command-line front door.

Subcommands: compose, simulate, steady-state, transfer-function,
eliminate, check.  Exit codes: 0 success, 2 parse error, 3 elaboration
error, 1 anything else.  All numeric output is locale-independent
%.12e; complex values print as re:im pairs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .envelopes import Envelope, ScaledEnvelope
from .errors import ElaborationError, ParseError, SLHNetError
from .hilbert import TRUNC_GUARD, Operator, destroy, identity, sigma_minus
from .dynamics import (
    GaussianEnv,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    FockHierarchy,
    _check_truncation,
    _driven,
    evolve_density,
    evolve_hierarchy,
    fock_hierarchy,
    format_value,
    liouvillian,
    liouvillian_gaussian,
    steady_state,
    trajectory_csv,
    trajectory_json,
)
from .linear import extract_linear, transfer_function
from .netlang import ast_to_dict, build_value, elaborate, parse, CallValue, _Parser, _format_value, tokenize
from .reduction import eliminate_triple, projector_from_states
from .slh import SCHEMA_VERSION, triple_hash, triple_to_json


# --------------------------------------------------------------------------
# observable expressions


def _qubit_ops(label: str) -> dict[str, Operator]:
    sm = sigma_minus(label)
    return {
        "sm": sm,
        "sp": sm.dag(),
        "sz": 2.0 * (sm.dag() * sm) - identity(sm.space),
        "n": sm.dag() * sm,
    }


def _mode_ops(label: str, dim: int) -> dict[str, Operator]:
    a = destroy(label, dim)
    return {
        "a": a,
        "adag": a.dag(),
        "n": a.dag() * a,
        "x": (a + a.dag()) * (1.0 / np.sqrt(2.0)),
        "y": (a.dag() - a) * (1.0j / np.sqrt(2.0)),
    }


def resolve_observable(expr: str, space) -> Operator:
    """Parse an operator expression like '2*cav.n + atom.sz' on ``space``.

    Qualified names resolve greedily against the factor labels of the
    elaborated space, so 'jc.mode.n' is the photon number of the factor
    labeled 'jc.mode'.
    """
    tokens = tokenize(expr)
    p = _Parser(tokens)

    def parse_factor():
        tok = p.peek()
        if tok.kind == "LPAREN":
            p.next()
            out = parse_sum()
            p.expect("RPAREN")
            return out
        if tok.kind in ("NUMBER", "IMAG", "PLUS", "MINUS"):
            return complex(p.parse_scalar())
        if tok.kind in ("IDENT", "in", "out"):
            parts = [p.next().value]
            while p.peek().kind == "DOT":
                p.next()
                nxt = p.peek()
                if nxt.kind not in ("IDENT", "in", "out"):
                    raise ParseError("expected a name after '.'", nxt.line, nxt.column)
                parts.append(p.next().value)
            if len(parts) < 2:
                raise ParseError(f"observable {'.'.join(parts)!r} needs a .attr suffix",
                                 tok.line, tok.column)
            attr = parts[-1]
            label = ".".join(parts[:-1])
            if label not in space.labels:
                raise ParseError(f"unknown mode label {label!r} (have: {sorted(space.labels)})",
                                 tok.line, tok.column)
            dim = space.dim_of(label)
            table = _qubit_ops(label) if dim == 2 else _mode_ops(label, dim)
            if attr not in table:
                raise ParseError(
                    f"unknown attribute {attr!r} for {label!r} (have: {sorted(table)})",
                    tok.line, tok.column,
                )
            return table[attr]
        p.error("an operator, a number or '(' in the observable")

    def parse_term():
        out = parse_factor()
        while p.peek().kind == "STAR":
            p.next()
            out = out * parse_factor()
        return out

    def parse_sum():
        out = parse_term()
        while p.peek().kind in ("PLUS", "MINUS"):
            neg = p.next().kind == "MINUS"
            term = parse_term()
            out = out - term if neg else out + term
        return out

    result = parse_sum()
    if p.peek().kind != "EOF":
        tok = p.peek()
        raise ParseError(f"trailing input in observable: {tok.value!r}", tok.line, tok.column)
    if isinstance(result, complex):
        raise ParseError("observable is a bare scalar", 1, 1)
    return result.embed(space)


def _observables(args, space) -> dict[str, Operator]:
    """``--observables`` (default: each factor's ``sz`` or ``n``), each
    resolved on ``space`` under its own text as name."""
    exprs = (
        [expr.strip() for expr in args.observables.split(",")]
        if args.observables
        else [f"{lbl}.sz" if dim == 2 else f"{lbl}.n" for lbl, dim in space.factors]
    )
    return {expr: resolve_observable(expr, space) for expr in exprs}


# --------------------------------------------------------------------------
# drive specification


def _envelope(value) -> Envelope:
    if not isinstance(value, Envelope):
        raise TypeError("needs an envelope such as gaussian(t0=5.0, sigma=1.0)")
    return value


# Each drive kind's parameters, with the conversion a given value goes through.
_DRIVE_PARAMS = {
    "coherent": {"alpha": complex, "envelope": _envelope},
    "fock": {"n": float, "envelope": _envelope},
    "gaussian": {"N": float, "M": complex, "alpha": complex},
}


def parse_drive_spec(text: str):
    """'vacuum' | 'coherent(alpha=..., envelope=...)' | 'fock(n=..., envelope=...)'
    | 'gaussian(N=..., M=..., alpha=...)' -> ("kind", kwargs).

    A parameter name the kind does not take is a ParseError; a value that
    does not convert is an SLHNetError naming the parameter."""
    p = _Parser(tokenize(text))
    tok = p.peek()
    val = p.parse_value()
    p.expect("EOF")
    if val == "vacuum":
        return ("vacuum", {})
    if not isinstance(val, CallValue):
        raise ParseError(f"bad drive spec {text!r}", tok.line, tok.column)
    kind = val.name
    if kind not in _DRIVE_PARAMS:
        raise ParseError(f"unknown drive kind {kind!r}", tok.line, tok.column)
    convert = _DRIVE_PARAMS[kind]
    unknown = [k for k in val.params if k not in convert]
    if unknown:
        raise ParseError(f"{kind} drives take {', '.join(convert)}, not {', '.join(unknown)}",
                         tok.line, tok.column)
    kwargs = {}
    for key, value in val.params.items():
        try:
            kwargs[key] = convert[key](build_value(value))
        except (TypeError, ValueError) as exc:
            raise SLHNetError(f"{kind} drive: bad {key}={_format_value(value)}: {exc}") from None
    return (kind, kwargs)


# --------------------------------------------------------------------------
# helpers


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    return text


def _compose(path: str):
    text = _load(path)
    nd = parse(text)
    return elaborate(nd)


def _write(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _drives(args) -> dict:
    """``--drive port=spec`` items, port label -> (spec text, (kind, kwargs));
    a port named twice is refused."""
    drives = {}
    for item in args.drive or []:
        if "=" not in item:
            raise SLHNetError(f"--drive needs port=spec, got {item!r}")
        label, text = (part.strip() for part in item.split("=", 1))
        if label in drives:
            raise SLHNetError(f"--drive names port {label!r} twice")
        drives[label] = (text, parse_drive_spec(text))
    return drives


def _count(value: int, flag: str) -> int:
    if value < 1:
        raise SLHNetError(f"{flag} must be at least 1, got {value}")
    return value


# --------------------------------------------------------------------------
# subcommands


def cmd_compose(args) -> int:
    if args.emit == "ast":
        nd = parse(_load(args.file))
        _write(json.dumps(ast_to_dict(nd), indent=2) + "\n", args.output)
        return 0
    res = _compose(args.file)
    _write(triple_to_json(res.triple) + "\n", args.output)
    return 0


def _build_generator(g, drives):
    """The driven triple, ``g`` with every coherent drive wired in, and its
    generator: the vacuum Liouvillian, or for the one fock or gaussian
    drive a run may have, the Fock hierarchy or the Gaussian-input
    generator of the driven triple."""
    ports = list(g.input_names)
    coherent, field = {}, {}
    for label, (_, (kind, kwargs)) in drives.items():
        if label not in ports:
            raise SLHNetError(f"drive port {label!r} is not an exposed input ({ports})")
        if kind == "coherent":
            alpha = kwargs.get("alpha", 1.0)
            if "envelope" in kwargs:
                alpha = ScaledEnvelope(alpha, kwargs["envelope"])
            coherent[ports.index(label) + 1] = alpha
        elif kind != "vacuum":
            field[label] = (kind, kwargs)
    if len(field) > 1:
        raise SLHNetError("a run takes at most one fock or gaussian drive")
    driven = _driven(g, coherent)
    if not field:
        return driven, liouvillian(driven)
    label, (kind, kwargs) = field.popitem()
    if kind == "gaussian":
        env = GaussianEnv(N=kwargs.get("N", 0.0), M=kwargs.get("M", 0.0), alpha=kwargs.get("alpha"))
        return driven, liouvillian_gaussian(driven, env)
    if "envelope" not in kwargs:
        raise SLHNetError("fock drives need an envelope(...)")
    port = driven.input_names.index(label) + 1
    return driven, fock_hierarchy(driven, kwargs["envelope"], kwargs.get("n", 1), driven_port=port)


def _run_simulation(res, args, drives):
    """The driven triple, the sample times and one column per observable."""
    t_eval = np.linspace(args.t0, args.t1, _count(args.samples, "--samples"))
    triple, gen = _build_generator(res.triple, drives)
    obs_ops = _observables(args, triple.space)
    run = dict(method=args.method, dt=args.dt, atol=args.atol, rtol=args.rtol,
               truncation_guard=None if args.no_guard else args.trunc_guard)
    fock = isinstance(gen, FockHierarchy)
    if fock:
        times, traj = evolve_hierarchy(gen, res.initial_state, (args.t0, args.t1), t_eval, **run)
    else:
        traj = evolve_density(gen, res.initial_state, (args.t0, args.t1), t_eval, **run)
        times = traj.times
    columns = {name: list(traj.expect(op)) for name, op in obs_ops.items()}
    if fock:
        columns["flux"] = list(gen.mean_photon_flux(traj, times))
    return triple, times, columns


def cmd_simulate(args) -> int:
    nd = parse(_load(args.file))
    drives = _drives(args)

    def emit(triple, times, columns, out_path):
        if args.format == "csv":
            _write(trajectory_csv(times, columns), out_path)
            return
        meta = {
            "triple_sha256": triple_hash(triple),
            "drives": {label: text for label, (text, _) in drives.items()},
            "tolerances": {"atol": args.atol, "rtol": args.rtol},
            "determinism": "fixed-step, byte-reproducible" if args.method == "fixed" else "adaptive",
            "schema_version": SCHEMA_VERSION,
        }
        _write(trajectory_json(times, columns, meta) + "\n", out_path)

    if args.sweep:
        try:
            target, rng = args.sweep.split("=", 1)
            inst_name, param = target.strip().rsplit(".", 1)
            lo, hi, count = rng.split(":")
            values = np.linspace(float(lo), float(hi), _count(int(count), "the --sweep count"))
        except ValueError:
            raise SLHNetError(f"--sweep needs inst.param=lo:hi:n, got {args.sweep!r}") from None
        if inst_name not in {inst.name for inst in nd.instances}:
            raise SLHNetError(f"--sweep names unknown instance {inst_name!r}")

        base = args.output or "sweep.csv"
        root, dot, ext = base.rpartition(".")
        outs = []
        for k, value in enumerate(values):
            nd.instance(inst_name).params[param] = float(value)
            suffix = f"_{k:03d}"
            outs.append((root + suffix + dot + ext) if dot else base + suffix)
            emit(*_run_simulation(elaborate(nd), args, drives), outs[-1])
        print("\n".join(outs))
        return 0

    emit(*_run_simulation(elaborate(nd), args, drives), args.output)
    return 0


def cmd_steady_state(args) -> int:
    triple, gen = _build_generator(_compose(args.file).triple, _drives(args))
    if isinstance(gen, FockHierarchy):
        raise SLHNetError("steady-state supports vacuum, coherent and gaussian drives only")
    ss = steady_state(gen)
    _check_truncation(ss.rho.space, ss.rho.constant().diagonal().real, TRUNC_GUARD, "in the steady state")
    lines = [
        f"{name},{format_value(ss.expect(op))}" for name, op in _observables(args, triple.space).items()
    ]
    _write("observable,value\n" + "\n".join(lines) + "\n", args.output)
    return 0


def cmd_transfer_function(args) -> int:
    res = _compose(args.file)
    model = extract_linear(res.triple)
    omegas = np.linspace(args.wmin, args.wmax, _count(args.n, "--n"))
    n = model.D.shape[0]
    header = ["omega"]
    for i in range(n):
        for j in range(n):
            header += [f"re_Xi_{i + 1}_{j + 1}", f"im_Xi_{i + 1}_{j + 1}"]
    lines = [",".join(header)]
    for w, Xi in zip(omegas, transfer_function(model, 1j * omegas)):
        row = [f"{w:.12e}"]
        for i in range(n):
            for j in range(n):
                row += [f"{Xi[i, j].real:.12e}", f"{Xi[i, j].imag:.12e}"]
        lines.append(",".join(row))
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_eliminate(args) -> int:
    res = _compose(args.file)
    space = res.triple.space
    kept = {}
    for item in args.p0.split(","):
        if "=" not in item:
            raise SLHNetError(f"--p0 entries need factor=spec, got {item!r}")
        lbl, spec = (s.strip() for s in item.split("=", 1))
        if lbl not in space.labels:
            raise SLHNetError(f"unknown factor {lbl!r} (have: {list(space.labels)})")
        if spec in ("any", "keep"):
            kept[lbl] = None
        elif spec in ("vacuum", "ground"):
            kept[lbl] = 0
        elif spec == "excited":
            kept[lbl] = 1
        elif spec.isdigit():
            kept[lbl] = int(spec)
        else:
            raise SLHNetError(f"--p0 {lbl}={spec}: expected a level number or any|keep|vacuum|ground|excited")
    P0 = projector_from_states(space, kept)
    reduced = eliminate_triple(res.triple, P0, unitarity_tol=args.unitarity_tol)
    _write(triple_to_json(reduced) + "\n", args.output)
    return 0


def cmd_check(args) -> int:
    res = _compose(args.file)
    g = res.triple
    s_resid = g.unitarity_residual()
    h_resid = g.hermiticity_residual()
    print(f"ports: {g.n_ports}")
    print(f"space: {dict(g.space.factors)}")
    print(f"scattering unitarity residual: {s_resid:.3e}")
    print(f"hamiltonian hermiticity residual: {h_resid:.3e}")
    ok = s_resid <= g.check_tol and h_resid <= g.check_tol
    print("status: " + ("ok" if ok else "INVARIANT VIOLATION"))
    return 0 if ok else 1


# --------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slhnet",
        description="Compose quantum input-output networks and simulate their dynamics.",
    )
    ap.add_argument(
        "--version",
        action="version",
        version=f"slhnet {__version__} (triple schema v{SCHEMA_VERSION})",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help=".qnet network description")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--observables", default=None,
                       help="comma-separated operator expressions, e.g. 'cav.n,atom.sz'")
        p.add_argument("--drive", action="append", default=None,
                       help="port=spec, e.g. drive=coherent(alpha=0.5)")

    p = sub.add_parser("compose", help="parse and elaborate a network to one triple")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--emit", choices=["slh", "ast"], default="slh")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("simulate", help="integrate the master equation and write a trajectory")
    common(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--method", choices=["adaptive", "fixed"], default="adaptive")
    p.add_argument("--dt", type=float, default=None, help="step size for --method fixed")
    p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    p.add_argument("--trunc-guard", type=float, default=TRUNC_GUARD)
    p.add_argument("--no-guard", action="store_true")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--sweep", default=None, help="inst.param=lo:hi:n parameter sweep")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("steady-state", help="null-space steady state and observables")
    common(p)
    p.set_defaults(fn=cmd_steady_state)

    p = sub.add_parser("transfer-function", help="linear transfer function on a frequency grid")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--wmin", type=float, default=-10.0)
    p.add_argument("--wmax", type=float, default=10.0)
    p.add_argument("--n", type=int, default=201)
    p.set_defaults(fn=cmd_transfer_function)

    p = sub.add_parser("eliminate", help="adiabatic elimination onto a slow subspace")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--p0", required=True,
                   help="slow-space spec: 'cav=vacuum,atom=any' (any keeps the factor)")
    p.add_argument("--unitarity-tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("check", help="invariant audit of the elaborated triple")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ElaborationError as exc:
        print(f"elaboration error: {exc}", file=sys.stderr)
        return 3
    except SLHNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
