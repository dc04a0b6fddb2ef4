"""The four benchmark workloads: seeded inputs, timed tasks and oracles.

Each workload is a closed loop: one caller issues its tasks back to back
and waits for each answer.  Tasks reach slhnet only through its public
entry points (``netlang.parse``/``elaborate``, the ``dynamics`` builders
and solvers, ``cli.main(argv)``) and are handed generated ``.qnet`` text
or argv, never objects built by the benchmark.  Each task's ``check``
runs outside the timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Calls go through the module attributes, the names the tracer wraps.
from slhnet import cli, dynamics, hilbert, netlang, slh

from oracles import (
    abcd_from_matrix_elements,
    cascade_amplitudes,
    parse_csv,
    parse_json,
    passive_transfer,
    poisson_top,
    require,
    trapezoid,
    unitarity_residual,
)

NAMES = ("loop_compose", "cascade_steady", "pulse_simulate", "cli_corpus")

#: rungs per workload: the full ladder and the tiny one the smoke test uses
RUNGS = {
    "loop_compose": {"full": (5, 10, 20), "smoke": (2, 3)},
    "cascade_steady": {"full": (4, 6, 9), "smoke": (4, 5)},
}


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # Mostly sparse linear algebra: its times are reported at the reference
    # speed of run.calibrate_sparse_lu().  Dense-BLAS and short tasks are not.
    scaled: bool = False


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    small: str | None  # task timed as small_s; None: the median task
    large: str | None  # task timed as large_s; None: the slowest task
    large_runs: int = 1  # runs of the large task in an untraced pass
    inputs: dict = field(default_factory=dict)
    # set by checks for the result record (steady-state residuals etc.)
    notes: dict = field(default_factory=dict)


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _draw(rng, lo: float, hi: float, digits: int = 4) -> float:
    """Uniform draw, rounded so the .qnet text holds the exact value."""
    return round(float(rng.uniform(lo, hi)), digits)


def _draw_alpha(rng, r_lo: float, r_hi: float) -> complex:
    r = rng.uniform(r_lo, r_hi)
    theta = rng.uniform(0.0, 2 * math.pi)
    return complex(round(r * math.cos(theta), 6), round(r * math.sin(theta), 6))


def _complex_literal(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _cascade_text(c1, c2, truncation: int) -> str:
    return (
        f"component c1 = one_sided_cavity(gamma={c1[0]}, delta={c1[1]}, truncation={truncation});\n"
        f"component c2 = one_sided_cavity(gamma={c2[0]}, delta={c2[1]}, truncation={truncation});\n"
        "wire c1.out[1] -> c2.in[1];\n"
        "expose c1.in[1] as drive;\n"
        "expose c2.out[1] as through;\n"
    )


def _guard_headroom(cavities, alpha, truncation: int, times=None) -> None:
    """Refuse inputs whose coherent state would reach the truncation guard."""
    amps = cascade_amplitudes(cavities, alpha, times)
    peak = float(np.max(np.abs(amps) ** 2))
    top = poisson_top(peak, truncation)
    if top > hilbert.TRUNC_GUARD:
        raise ValueError(f"input reaches the truncation guard: top level {top:.2e} at t{truncation}")


# --------------------------------------------------------------------------
# loop_compose: elaborate the four-wire counter-propagating loop


def loop_text(p: dict, truncation: int) -> str:
    f1, f2 = p["f1"], p["f2"]
    return (
        f"component f1 = fabry_perot(gamma1={f1[0]}, gamma2={f1[1]}, delta={f1[2]}, truncation={truncation});\n"
        f"component p1 = phase_shifter(phi={p['phi1']});\n"
        f"component p2 = phase_shifter(phi={p['phi2']});\n"
        f"component f2 = fabry_perot(gamma1={f2[0]}, gamma2={f2[1]}, delta={f2[2]}, truncation={truncation});\n"
        "wire f1.out[1] -> p1.in[1];\n"
        "wire p1.out[1] -> f2.in[1];\n"
        "wire f2.out[2] -> p2.in[1];\n"
        "wire p2.out[1] -> f1.in[2];\n"
        "expose f1.in[1] as right_in;\n"
        "expose f2.in[2] as left_in;\n"
        "expose f2.out[1] as right_out;\n"
        "expose f1.out[2] as left_out;\n"
    )


LOOP_OMEGAS = (-1.3, -0.4, 0.0, 0.7, 2.1)


def loop_compose(seed: int, workdir: Path, scale: str) -> Workload:
    rng = np.random.default_rng(seed)
    params = {
        "f1": (_draw(rng, 1.0, 1.2), _draw(rng, 0.6, 0.8), _draw(rng, 0.3, 0.5)),
        "f2": (_draw(rng, 0.8, 1.0), _draw(rng, 1.2, 1.4), _draw(rng, -0.3, -0.1)),
        "phi1": _draw(rng, 0.4, 0.8),
        "phi2": _draw(rng, 0.4, 0.8),
    }
    rungs = RUNGS["loop_compose"][scale]
    wl = Workload("loop_compose", [], small=f"t{rungs[0]}", large=f"t{rungs[-1]}",
                  inputs={"params": params, "rungs": list(rungs)})
    reference = {}

    def make(truncation):
        text = loop_text(params, truncation)

        def run():
            res = netlang.elaborate(netlang.parse(text))
            return res, slh.triple_to_json(res.triple)

        def check(answer):
            res, text_out = answer
            data = parse_json(text_out)
            require(data["n_ports"] == 2 and data["space"]["dims"] == [truncation] * 2,
                    f"unexpected composed shape {data['n_ports']} ports, dims {data['space']['dims']}")
            s, C, Omega = abcd_from_matrix_elements(res.triple, ["f1", "f2"])
            require(unitarity_residual(s) < 1e-10, f"S is not unitary ({unitarity_residual(s):.2e})")
            xi = passive_transfer(s, C, Omega, LOOP_OMEGAS)
            worst = max(unitarity_residual(x) for x in xi)
            require(worst < 1e-9, f"lossless loop transfer function not unitary ({worst:.2e})")
            if not reference:
                reference["xi"] = xi
            dev = float(np.abs(xi - reference["xi"]).max())
            wl.notes.setdefault("tf_dev_vs_first_rung", {})[f"t{truncation}"] = dev
            require(dev < 1e-12, f"transfer function moved with truncation by {dev:.2e}")

        return Task(f"t{truncation}", run, check)

    wl.tasks = [make(t) for t in rungs]
    return wl


# --------------------------------------------------------------------------
# cascade_steady: coherent-drive steady state of two cascaded cavities


def cascade_steady(seed: int, workdir: Path, scale: str) -> Workload:
    rng = np.random.default_rng(seed)
    c1 = (_draw(rng, 1.8, 2.2), _draw(rng, 0.4, 0.6))
    c2 = (_draw(rng, 2.8, 3.2), _draw(rng, -0.8, -0.6))
    alpha = _draw_alpha(rng, 0.07, 0.09)
    rungs = RUNGS["cascade_steady"][scale]
    for t in rungs:
        _guard_headroom([c1, c2], alpha, t)
    expected = cascade_amplitudes([c1, c2], alpha)
    # ARPACK starts from a random vector, so one input's t9 time ranges
    # over 3.4-5.8 s; an untraced pass runs it four times.
    wl = Workload("cascade_steady", [], small=f"t{rungs[0]}", large=f"t{rungs[-1]}", large_runs=4,
                  inputs={"c1": c1, "c2": c2, "alpha": [alpha.real, alpha.imag], "rungs": list(rungs)})

    def make(truncation):
        text = _cascade_text(c1, c2, truncation)

        def run():
            res = netlang.elaborate(netlang.parse(text))
            gen = dynamics.liouvillian_coherent(res.triple, alpha, port=1)
            ss = dynamics.steady_state(gen)
            values = {}
            for label in ("c1", "c2"):
                a = hilbert.destroy(label, truncation)
                values[f"{label}.a"] = ss.expect(a)
                values[f"{label}.n"] = ss.expect(a.dag() * a)
            return gen, ss, values

        def check(answer):
            gen, ss, values = answer
            rho = ss.rho.constant().toarray()
            require(abs(np.trace(rho) - 1.0) < 1e-10, f"trace(rho) = {np.trace(rho)}")
            require(np.abs(rho - rho.conj().T).max() < 1e-12, "rho is not Hermitian")
            resid = float(np.linalg.norm(gen.static @ rho.reshape(-1)))
            wl.notes.setdefault("steady_residual", {})[f"t{truncation}"] = resid
            require(resid < 1e-8, f"steady-state residual |L rho| = {resid:.2e}")
            for k, label in enumerate(("c1", "c2")):
                da = abs(values[f"{label}.a"] - expected[k])
                dn = abs(values[f"{label}.n"] - abs(expected[k]) ** 2)
                require(da < 1e-6 and dn < 1e-6,
                        f"{label}: <a> off by {da:.2e}, <n> off by {dn:.2e} from the linear solution")

        # Above d^2 = 4096, steady_state takes the sparse-LU (eigs) branch.
        return Task(f"t{truncation}", run, check, scaled=truncation ** 4 > 4096)

    wl.tasks = [make(t) for t in rungs]
    return wl


# --------------------------------------------------------------------------
# pulse_simulate: four `slhnet simulate` runs


SAMPLES = 201


def _check_rows(result: CliResult, samples: int = SAMPLES):
    require(result.code == 0, f"exit code {result.code}: {result.err.strip()}")
    cols = parse_csv(result.out)
    require(len(cols["t"]) == samples, f"{len(cols['t'])} rows, expected {samples}")
    return cols


def _check_coherent_n(cols, cavities, labels, alpha, tol=1e-6):
    t = np.real(cols["t"])
    amps = cascade_amplitudes(cavities, alpha, t)
    for k, label in enumerate(labels):
        dev = float(np.abs(cols[f"{label}.n"] - np.abs(amps[:, k]) ** 2).max())
        require(dev < tol, f"<{label}.n>(t) off the linear ODE by {dev:.2e}")


def pulse_simulate(seed: int, workdir: Path, scale: str) -> Workload:
    rng = np.random.default_rng(seed)
    # Narrow ranges: the adaptive step count, hence the time, follows them.
    cav = (_draw(rng, 1.95, 2.05), _draw(rng, 0.28, 0.32))
    alpha_cav = _draw_alpha(rng, 0.2, 0.3)
    c1 = (_draw(rng, 1.8, 2.2), _draw(rng, 0.4, 0.6))
    c2 = (_draw(rng, 2.8, 3.2), _draw(rng, -0.8, -0.6))
    alpha = _draw_alpha(rng, 0.2, 0.25)
    smoke = scale == "smoke"
    t_big, t_small = (4, 4) if smoke else (10, 6)
    if smoke:
        alpha_cav, alpha = alpha_cav * 0.05, alpha * 0.05
    horizon = {"driven": 4.0 if smoke else 40.0, "cascade": 2.0 if smoke else 20.0,
               "fock": 14.0, "fixed": 1.0 if smoke else 20.0}
    t_cav = 4 if smoke else 10
    _guard_headroom([cav], alpha_cav, t_cav, np.linspace(0.0, horizon["driven"], SAMPLES))
    _guard_headroom([c1, c2], alpha, t_big, np.linspace(0.0, horizon["cascade"], SAMPLES))
    _guard_headroom([c1, c2], alpha, t_small, np.linspace(0.0, horizon["fixed"], SAMPLES))

    workdir.mkdir(parents=True, exist_ok=True)
    f_cav = workdir / "pulse_cavity.qnet"
    f_cav.write_text(
        f"component cav = one_sided_cavity(gamma={cav[0]}, delta={cav[1]}, truncation={t_cav});\n"
        "expose cav.in[1] as drive;\nexpose cav.out[1] as output;\n")
    f_big = workdir / "pulse_cascade_big.qnet"
    f_big.write_text(_cascade_text(c1, c2, t_big))
    f_small = workdir / "pulse_cascade_small.qnet"
    f_small.write_text(_cascade_text(c1, c2, t_small))

    def coherent(z):
        return f"drive=coherent(alpha={_complex_literal(z)})"

    wl = Workload("pulse_simulate", [], small="driven_cavity", large=f"cascade_t{t_big}",
                  inputs={"cav": cav, "alpha_cav": [alpha_cav.real, alpha_cav.imag], "c1": c1,
                          "c2": c2, "alpha": [alpha.real, alpha.imag]})

    def check_driven(r):
        _check_coherent_n(_check_rows(r), [cav], ["cav"], alpha_cav)

    def check_cascade(r):
        _check_coherent_n(_check_rows(r), [c1, c2], ["c1", "c2"], alpha)

    def check_fock(r):
        cols = _check_rows(r)
        photons = trapezoid(cols["flux"], np.real(cols["t"]))
        wl.notes["fock_photons_out"] = photons
        require(abs(photons - 2.0) < 2e-3, f"integrated output flux {photons:.6f}, expected 2")

    fixed_digest = {}

    def check_fixed(r):
        cols = _check_rows(r)
        _check_coherent_n(cols, [c1, c2], ["c1", "c2"], alpha)
        digest = hashlib.sha256(r.out.encode()).hexdigest()
        first = fixed_digest.setdefault("sha256", digest)
        require(digest == first, "fixed-step CSV bytes differ between passes")

    sim = ["simulate"]
    wl.tasks = [
        Task("driven_cavity",
             lambda: run_cli(sim + [str(f_cav), "--t1", str(horizon["driven"]), "--drive", coherent(alpha_cav)]),
             check_driven),
        Task(f"cascade_t{t_big}",
             lambda: run_cli(sim + [str(f_big), "--t1", str(horizon["cascade"]), "--drive", coherent(alpha)]),
             check_cascade),
        Task(f"fock_t{t_small}",
             lambda: run_cli(sim + [str(f_small), "--t1", str(horizon["fock"]), "--drive",
                                    "drive=fock(n=2, envelope=gaussian(t0=5, sigma=1))"]),
             check_fock),
        Task(f"fixed_t{t_small}",
             lambda: run_cli(sim + [str(f_small), "--t1", str(horizon["fixed"]), "--method", "fixed",
                                    "--dt", "0.01", "--drive", coherent(alpha)]),
             check_fixed),
    ]
    for task in wl.tasks:  # sparse right-hand sides in Runge-Kutta loops
        task.scaled = True
    return wl


# --------------------------------------------------------------------------
# cli_corpus: the shipped networks through every subcommand


CORPUS = ("beamsplitter_cascade", "driven_cavity", "fock_atom", "jc_cavity",
          "opo_feedback", "two_cavity_cascade", "vec_elim_loop")
PORTS = {"beamsplitter_cascade": 2, "driven_cavity": 1, "fock_atom": 2, "jc_cavity": 1,
         "opo_feedback": 1, "two_cavity_cascade": 1, "vec_elim_loop": 2}
PASSIVE_LINEAR = ("driven_cavity", "two_cavity_cascade", "vec_elim_loop")
TF_POINTS = 201


def _cavity_params(text: str) -> list[tuple[float, float]]:
    """(gamma, delta) of each one_sided_cavity declared in a .qnet file."""
    out = []
    for args in re.findall(r"one_sided_cavity\(([^)]*)\)", text):
        kv = dict(item.split("=") for item in args.replace(" ", "").split(","))
        out.append((float(kv["gamma"]), float(kv.get("delta", 0.0))))
    return out


def cli_corpus(seed: int, workdir: Path, scale: str, networks: Path) -> Workload:
    rng = np.random.default_rng(seed)
    net = {name: networks / f"{name}.qnet" for name in CORPUS}
    golden = (networks / "golden" / "vec_elim_loop.slh.json").read_text()
    workdir.mkdir(parents=True, exist_ok=True)
    malformed = workdir / "corpus_malformed.qnet"
    malformed.write_text("component c1 = one_sided_cavity(gamma=2.0, truncation=4)\n"
                         "wire c1.out[1] -> c1.in[1];\n")
    bad_wire = workdir / "corpus_bad_wire.qnet"
    bad_wire.write_text("component p = phase_shifter(phi=0.0);\n"
                        "component c = one_sided_cavity(gamma=1.0, truncation=4);\n"
                        "wire c.out[1] -> p.in[1];\n"
                        "wire p.out[1] -> c.in[1];\n")
    wl = Workload("cli_corpus", [], small=None, large=None, inputs={})

    def ok(r: CliResult):
        require(r.code == 0, f"exit code {r.code}: {r.err.strip()}")

    def compose_check(name):
        def check(r):
            ok(r)
            if name == "vec_elim_loop":
                require(r.out == golden, "compose output differs from the golden bytes")
            require(parse_json(r.out)["n_ports"] == PORTS[name], "wrong port count")
        return check

    def check_check(r):
        ok(r)
        require("status: ok" in r.out, "check did not report status: ok")

    def steady_rows(r, names):
        ok(r)
        lines = r.out.splitlines()
        require(lines[0] == "observable,value" and len(lines) == len(names) + 1,
                f"unexpected steady-state table {lines[:3]}")
        vals = dict(line.split(",") for line in lines[1:])
        require(set(vals) == set(names), f"observables {sorted(vals)}")
        return {k: complex(float(v.split(":")[0]), 0.0) for k, v in vals.items()}

    cascade = _cavity_params(net["two_cavity_cascade"].read_text())
    drive_amp = 0.25

    def check_steady_coherent(r):
        vals = steady_rows(r, ["c1.n", "c2.n"])
        amps = cascade_amplitudes(cascade, drive_amp)
        for k, label in enumerate(("c1", "c2")):
            dev = abs(vals[f"{label}.n"] - abs(amps[k]) ** 2)
            require(dev < 2e-6, f"{label}.n off the linear solution by {dev:.2e}")

    def check_steady_vacuum(r):
        vals = steady_rows(r, ["c1.n", "c2.n"])
        require(max(abs(v) for v in vals.values()) < 1e-9, "vacuum steady state is not empty")

    def check_steady_thermal(r):
        vals = steady_rows(r, ["cav.n"])
        require(abs(vals["cav.n"] - 0.1) < 1e-6, f"thermal occupation {vals['cav.n']}, expected N = 0.1")

    def tf_check(name):
        def check(r):
            ok(r)
            lines = r.out.splitlines()
            require(len(lines) == TF_POINTS + 1, f"{len(lines)} lines")
            n = math.isqrt((lines[0].count(",")) // 2)
            require(lines[0].endswith(f"im_Xi_{n}_{n}"), f"bad TF header {lines[0][:60]}")
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            require(rows.shape[1] == 1 + 2 * n * n and np.all(np.isfinite(rows)), "bad TF table")
            if name in PASSIVE_LINEAR:
                require(n == PORTS[name], f"{n}x{n} transfer function for {PORTS[name]} ports")
                xi = (rows[:, 1::2] + 1j * rows[:, 2::2]).reshape(-1, n, n)
                worst = max(unitarity_residual(x) for x in xi)
                require(worst < 1e-9, f"lossless transfer function not unitary ({worst:.2e})")
        return check

    def check_eliminate(r):
        ok(r)
        data = parse_json(r.out)
        require(data["space"]["labels"] == ["jc.qubit"] and data["n_ports"] == 1,
                "eliminated model does not live on the qubit alone")

    driven = _cavity_params(net["driven_cavity"].read_text())

    def check_sim_driven(r):
        _check_coherent_n(_check_rows(r), driven, ["cav"], drive_amp)

    def check_sim_fock(r):
        cols = _check_rows(r)
        photons = trapezoid(cols["flux"], np.real(cols["t"]))
        require(abs(photons - 1.0) < 2e-3, f"integrated output flux {photons:.6f}, expected 1")

    def expect_code(code, text):
        def check(r):
            require(r.code == code, f"exit code {r.code}, expected {code}")
            require(text in r.err, f"stderr lacks {text!r}: {r.err.strip()}")
        return check

    requests = []
    for name in CORPUS:
        requests.append((f"compose:{name}", ["compose", str(net[name])], compose_check(name)))
        requests.append((f"check:{name}", ["check", str(net[name])], check_check))
    requests += [
        ("steady:two_cavity_cascade",
         ["steady-state", str(net["two_cavity_cascade"]), "--drive", f"drive=coherent(alpha={drive_amp})"],
         check_steady_coherent),
        ("steady:beamsplitter_cascade", ["steady-state", str(net["beamsplitter_cascade"])],
         check_steady_vacuum),
        ("steady:driven_cavity",
         ["steady-state", str(net["driven_cavity"]), "--drive", "drive=gaussian(N=0.1, M=0.05)"],
         check_steady_thermal),
    ]
    for name in ("driven_cavity", "two_cavity_cascade", "vec_elim_loop", "opo_feedback"):
        requests.append((f"tf:{name}", ["transfer-function", str(net[name]), "--n", str(TF_POINTS)],
                         tf_check(name)))
    requests += [
        ("eliminate:jc_cavity",
         ["eliminate", str(net["jc_cavity"]), "--p0", "jc.mode=vacuum,jc.qubit=any", "--unitarity-tol", "1e-2"],
         check_eliminate),
        ("simulate:driven_cavity",
         ["simulate", str(net["driven_cavity"]), "--t1", "5", "--drive", f"drive=coherent(alpha={drive_amp})"],
         check_sim_driven),
        ("simulate:fock_atom",
         ["simulate", str(net["fock_atom"]), "--t1", "16", "--drive",
          "guide=fock(n=1, envelope=gaussian(t0=4, sigma=1))"],
         check_sim_fock),
        ("error:malformed", ["compose", str(malformed)], expect_code(2, "parse error")),
        ("error:bad_wire", ["compose", str(bad_wire)], expect_code(3, "algebraic loop")),
    ]
    if scale == "smoke":
        keep = {"compose:vec_elim_loop", "check:driven_cavity", "steady:driven_cavity",
                "tf:opo_feedback", "eliminate:jc_cavity", "simulate:driven_cavity",
                "error:malformed", "error:bad_wire"}
        requests = [r for r in requests if r[0] in keep]
    order = rng.permutation(len(requests))
    wl.tasks = [Task(name, (lambda argv=argv: run_cli(argv)), check)
                for name, argv, check in (requests[i] for i in order)]
    wl.inputs["order"] = [t.name for t in wl.tasks]
    return wl


def build(name: str, seed: int, workdir: Path, networks: Path, scale: str = "full") -> Workload:
    if name == "cli_corpus":
        return cli_corpus(seed, workdir, scale, networks)
    return {"loop_compose": loop_compose, "cascade_steady": cascade_steady,
            "pulse_simulate": pulse_simulate}[name](seed, workdir, scale)

