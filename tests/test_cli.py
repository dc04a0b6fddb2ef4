import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slhnet.cli import main
from slhnet.dynamics import _driven
from slhnet.netlang import elaborate, parse
from slhnet.reduction import eliminate_triple, projector_from_states
from slhnet.slh import triple_hash, triple_to_dict

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


# The same assertion runs against the installed package in CI.  It is
# written relative to ``import scipy.sparse``: a scipy whose sparse package
# imports its linalg itself does not trip it.
NO_DENSE_SOLVER_ON_IMPORT = """import sys, numpy, scipy.sparse
before = set(sys.modules)
import slhnet.cli
heavy = {"scipy.linalg", "scipy.sparse.linalg", "scipy.integrate"} & (set(sys.modules) - before)
assert not heavy, sorted(heavy)
"""


def test_import_loads_no_dense_solver():
    """Only loops, steady states and integration need scipy's solvers, so
    composing or checking a loop-free network never pays for importing them."""
    out = subprocess.run([sys.executable, "-c", NO_DENSE_SOLVER_ON_IMPORT],
                         capture_output=True, text=True, cwd=str(NETWORKS.parent))
    assert out.returncode == 0, out.stderr


class TestCompose:
    def test_compose_matches_golden_bytes(self, capsys):
        goldens = sorted((NETWORKS / "golden").glob("*.slh.json"))
        assert [g.name.removesuffix(".slh.json") for g in goldens] == sorted(
            n.stem for n in NETWORKS.glob("*.qnet")
        )
        for golden in goldens:
            name = golden.name.removesuffix(".slh.json")
            code, out, _ = run_cli(["compose", NETWORKS / f"{name}.qnet"], capsys)
            assert code == 0, name
            assert out == golden.read_text(), f"{name}: compose output differs from the golden bytes"

    def test_triple_hash_of_shipped_networks(self):
        want = {
            "beamsplitter_cascade": "ea275ad50e52a45de5dce7e8c99b0f01158caa90ff1f3d2160d7a6f8f253d6ad",
            "driven_cavity": "db092aefb29e87605c6e7cdad311bfa4eb8e5242683880bc1bc745dc2f85dcf8",
            "fock_atom": "f82d2610a4057a55745b6fec0191aceb6b7f8848538362a92300badb54b47f5d",
            "jc_cavity": "f05abbe0276701262664546864dd01d740738e147f4e781b9e4c7b45201445a8",
            "opo_feedback": "730b0b1a9547a1d066b2585f52e5e2ccc93c18ab2d82d755bc53b397495ff69b",
            "two_cavity_cascade": "d09ba22ece077aae79743c70f3874f3421862c99c77f055014478fbdf87b4662",
            "vec_elim_loop": "c5110e3b61f76245fff3ac01ed1a406cb5e13c39d89d8871edea66e9c3cc2b7b",
        }
        got = {p.stem: triple_hash(elaborate(parse(p.read_text())).triple)
               for p in sorted(NETWORKS.glob("*.qnet"))}
        assert got == want

    def test_emit_ast(self, capsys):
        code, out, _ = run_cli(["compose", "--emit", "ast", NETWORKS / "two_cavity_cascade.qnet"], capsys)
        assert code == 0
        ast = json.loads(out)
        assert ast["instances"][0]["kind"] == "one_sided_cavity"
        assert ast["wires"][0]["from"]["instance"] == "c1"

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.qnet"
        bad.write_text("component c = one_sided_cavity(gamma=1.0)")
        code, out, err = run_cli(["compose", bad], capsys)
        assert code == 2
        assert "1:41" in err or "1:42" in err  # positioned diagnostic

    def test_unknown_kind_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.qnet"
        bad.write_text("component c = cavty(gamma=1.0);")
        code, _, err = run_cli(["compose", bad], capsys)
        assert code == 2 and "cavty" in err

    def test_elaboration_error_exit_3(self, tmp_path, capsys):
        f = tmp_path / "loop.qnet"
        f.write_text(
            "component p = phase_shifter(phi=0.0);\n"
            "component c = one_sided_cavity(gamma=1.0, truncation=4);\n"
            "wire c.out[1] -> p.in[1];\n"
            "wire p.out[1] -> c.in[1];"
        )
        code, _, err = run_cli(["compose", f], capsys)
        assert code == 3
        assert "algebraic loop" in err

    def test_pulsed_wire_simulates_and_serializes(self, tmp_path, capsys):
        # a pulsed source closes through a wire; its envelope products
        # (xi, xi* and |xi|^2) have a JSON form, so compose and JSON output work
        from slhnet.slh import triple_from_json, triples_close

        for source in ("coherent_source(alpha=0.3, envelope=gaussian(t0=2, sigma=0.5))",
                       "fock_source(n=1, envelope=gaussian(t0=2, sigma=0.5))"):
            text = (
                f"component src = {source};\n"
                "component cav = one_sided_cavity(gamma=1.0, truncation=6);\n"
                "wire src.out[1] -> cav.in[1];\n"
                "expose cav.out[1] as output;"
            )
            f = tmp_path / "pulsed.qnet"
            f.write_text(text)
            out_file = tmp_path / "traj.csv"
            code, _, _ = run_cli(["simulate", f, "--t1", "8", "--samples", "9", "-o", out_file], capsys)
            assert code == 0
            rows = out_file.read_text().strip().split("\n")
            assert rows[0].startswith("t,cav.n")
            assert max(float(r.split(",")[1]) for r in rows[1:]) > 0.05
            code, out, err = run_cli(["compose", f], capsys)
            assert code == 0 and err == ""
            triple = elaborate(parse(text)).triple
            assert '"shape": "product"' in out
            assert triples_close(triple_from_json(out), triple, 1e-14)
            code, out, err = run_cli(["simulate", f, "--t1", "8", "--samples", "9", "--format", "json"], capsys)
            assert code == 0 and err == ""
            assert json.loads(out)["metadata"]["triple_sha256"] == triple_hash(triple)

    @pytest.mark.parametrize("kind, param", [
        ("one_sided_cavity", "gamma"),
        ("tla_waveguide", "kappa_g"),
        ("tla_waveguide", "kappa_perp"),
        ("jaynes_cummings", "kappa"),
    ])
    @pytest.mark.parametrize("value", ["inf", "1e999"])
    def test_non_finite_rate_exit_3(self, tmp_path, capsys, kind, param, value):
        params = {"one_sided_cavity": {"gamma": "1.0"}, "tla_waveguide": {"kappa_g": "1.0"},
                  "jaynes_cummings": {"kappa": "1.0", "g": "0.5"}}[kind]
        params[param] = value
        f = tmp_path / "rate.qnet"
        f.write_text(f"component c = {kind}({', '.join(f'{k}={v}' for k, v in params.items())});")
        code, out, err = run_cli(["check", f], capsys)
        assert code == 3 and "status: ok" not in out
        assert f"{param} must be finite and >= 0" in err

    @pytest.mark.parametrize("state, message", [
        ("fock(9)", "fock(9) does not fit in a dim-5 factor"),
        ("qubit(excited)", "qubit state on a dim-5 factor"),
    ])
    def test_initial_state_that_does_not_fit_exit_3(self, tmp_path, capsys, state, message):
        f = tmp_path / "state.qnet"
        f.write_text(
            "component c = one_sided_cavity(gamma=1.0, truncation=5);\n"
            f"state c = {state};"
        )
        code, _, err = run_cli(["compose", f], capsys)
        assert code == 3
        assert message in err


class TestSimulate:
    def test_driven_cavity_reaches_steady_state(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            [
                "simulate", NETWORKS / "driven_cavity.qnet",
                "--t1", "40", "--samples", "81",
                "--drive", "drive=coherent(alpha=0.25)",
                "--observables", "cav.a,cav.n",
                "-o", out_file,
            ],
            capsys,
        )
        assert code == 0
        rows = out_file.read_text().strip().split("\n")
        assert rows[0] == "t,cav.a,cav.n"
        re_a, im_a = (float(x) for x in rows[-1].split(",")[1].split(":"))
        gamma, delta, alpha = 2.0, 0.3, 0.25
        want = -np.sqrt(gamma) * alpha / (gamma / 2 + 1j * delta)
        assert abs(complex(re_a, im_a) - want) < 1e-6

    def test_vacuum_constant_columns(self, capsys):
        code, out, _ = run_cli(
            ["simulate", NETWORKS / "two_cavity_cascade.qnet", "--t1", "2", "--samples", "5"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")
        first = rows[1].split(",")[1:]
        for row in rows[2:]:
            assert row.split(",")[1:] == first

    def test_fixed_step_byte_identical(self, capsys):
        args = [
            "simulate", NETWORKS / "driven_cavity.qnet",
            "--t1", "3", "--samples", "7",
            "--drive", "drive=coherent(alpha=0.2)",
            "--method", "fixed", "--dt", "0.005",
        ]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fock_drive_flux_column(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", NETWORKS / "fock_atom.qnet",
                "--t1", "12", "--samples", "25",
                "--drive", "guide=fock(n=1, envelope=gaussian(t0=5.0, sigma=1.0))",
                "--observables", "atom.sz",
            ],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "t,atom.sz,flux"

    def test_truncation_guard_abort_names_mode(self, tmp_path, capsys):
        f = tmp_path / "tiny.qnet"
        f.write_text(
            "component tiny = one_sided_cavity(gamma=0.05, truncation=3);\n"
            "expose tiny.in[1] as d;\n"
        )
        code, _, err = run_cli(
            ["simulate", f, "--t1", "8", "--drive", "d=coherent(alpha=2.0)"], capsys
        )
        assert code == 1
        assert "tiny" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_truncation_guard_must_be_a_number_at_least_zero(self, tmp_path, capsys, value):
        # nan used to switch the guard off and -1 to stop at t = 0
        f = tmp_path / "tiny.qnet"
        f.write_text(
            "component tiny = one_sided_cavity(gamma=0.05, truncation=3);\n"
            "expose tiny.in[1] as d;\n"
        )
        code, out, err = run_cli(
            ["simulate", f, "--t1", "8", "--drive", "d=coherent(alpha=2.0)", f"--trunc-guard={value}"], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error: truncation guard must be a number >= 0") and err.count("\n") == 1

    def test_sweep_writes_files(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            [
                "simulate", NETWORKS / "driven_cavity.qnet",
                "--t1", "2", "--samples", "5",
                "--drive", "drive=coherent(alpha=0.1)",
                "--observables", "cav.n",
                "--sweep", "cav.gamma=1.0:3.0:3",
                "-o", out_file,
            ],
            capsys,
        )
        assert code == 0
        files = sorted(tmp_path.glob("sweep_*.csv"))
        assert len(files) == 3
        for f in files:
            assert f.read_text().startswith("t,cav.n")

    def test_sweep_json_hashes_each_swept_network(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "simulate", NETWORKS / "driven_cavity.qnet",
                "--t1", "1", "--samples", "3", "--format", "json",
                "--sweep", "cav.gamma=1:3:2",
                "-o", tmp_path / "sweep.json",
            ],
            capsys,
        )
        assert code == 0
        files = sorted(tmp_path.glob("sweep_*.json"))
        assert len(files) == 2
        hashes = [json.loads(f.read_text())["metadata"]["triple_sha256"] for f in files]
        assert hashes[0] != hashes[1]
        nd = parse((NETWORKS / "driven_cavity.qnet").read_text())
        for gamma, got in zip((1.0, 3.0), hashes):
            nd.instance("cav").params["gamma"] = gamma
            assert got == triple_hash(elaborate(nd).triple)

    def test_json_format_has_metadata(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", NETWORKS / "driven_cavity.qnet",
                "--t1", "1", "--samples", "3", "--format", "json",
            ],
            capsys,
        )
        data = json.loads(out)
        assert "triple_sha256" in data["metadata"]
        assert data["columns"][0] == "t"


class TestOtherCommands:
    def test_steady_state(self, capsys):
        code, out, _ = run_cli(
            [
                "steady-state", NETWORKS / "driven_cavity.qnet",
                "--drive", "drive=coherent(alpha=0.25)",
                "--observables", "cav.a,cav.x,cav.y",
            ],
            capsys,
        )
        assert code == 0
        values = dict(line.split(",") for line in out.strip().split("\n")[1:])
        re_a, im_a = (float(x) for x in values["cav.a"].split(":"))
        want = -np.sqrt(2.0) * 0.25 / (1.0 + 0.3j)
        assert abs(complex(re_a, im_a) - want) < 1e-8
        # Hermitian observables print as one real number, as simulate prints them
        assert abs(float(values["cav.x"]) - np.sqrt(2.0) * want.real) < 1e-8
        assert abs(float(values["cav.y"]) - np.sqrt(2.0) * want.imag) < 1e-8

    def test_steady_state_refuses_a_fock_drive(self, capsys):
        code, out, err = run_cli(
            [
                "steady-state", NETWORKS / "driven_cavity.qnet",
                "--drive", "drive=fock(n=1, envelope=gaussian(t0=5.0, sigma=1.0))",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: steady-state supports vacuum, coherent and gaussian drives only\n"

    def test_steady_state_refuses_an_overflowed_truncation(self, capsys):
        # the truncation-10 answer holds 7.1% in its top level and reads
        # cav.n = 4.71; the linear steady state is 16.5
        code, out, err = run_cli(
            ["steady-state", NETWORKS / "driven_cavity.qnet", "--drive", "drive=coherent(alpha=3.0)"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: top Fock level of 'cav' reached population 7.1")
        assert err.count("\n") == 1 and "in the steady state" in err

    def test_transfer_function_grid(self, capsys):
        code, out, _ = run_cli(
            ["transfer-function", NETWORKS / "opo_feedback.qnet", "--wmin", "-1", "--wmax", "1", "--n", "5"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].startswith("omega,re_Xi_1_1,im_Xi_1_1")
        assert len(rows) == 6

    def test_eliminate_subcommand(self, capsys):
        code, out, _ = run_cli(
            [
                "eliminate", NETWORKS / "jc_cavity.qnet",
                "--p0", "jc.mode=vacuum,jc.qubit=any",
                "--unitarity-tol", "1e-2",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["space"]["labels"] == ["jc.qubit"]
        g = elaborate(parse((NETWORKS / "jc_cavity.qnet").read_text())).triple
        P0 = projector_from_states(g.space, {"jc.mode": 0, "jc.qubit": None})
        reduced = eliminate_triple(g, P0, unitarity_tol=1e-2)
        assert out == json.dumps(triple_to_dict(reduced), indent=2) + "\n"

    def test_check_reports_ok(self, capsys):
        code, out, _ = run_cli(["check", NETWORKS / "beamsplitter_cascade.qnet"], capsys)
        assert code == 0
        assert "status: ok" in out

    @pytest.mark.parametrize("command", [["simulate", "--t1", "1"], ["steady-state"]],
                             ids=["simulate", "steady-state"])
    def test_drive_without_port_is_an_error(self, command):
        out = subprocess.run(
            [sys.executable, "-m", "slhnet.cli", command[0], str(NETWORKS / "driven_cavity.qnet"),
             *command[1:], "--drive", "drivecoherent"],
            capture_output=True, text=True, cwd=str(NETWORKS.parent),
        )
        assert out.returncode == 1
        assert "error: --drive needs port=spec" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "driven_cavity.qnet", "--t1", "1", "--sweep", "cavgamma"],
            ["simulate", "driven_cavity.qnet", "--t1", "1", "--sweep", "cav.gamma=1:2"],
            ["simulate", "driven_cavity.qnet", "--t1", "1", "--sweep", "cav.gamma=1:2:x"],
            ["simulate", "driven_cavity.qnet", "--t1", "1", "--sweep", "nope.gamma=1:2:2"],
            ["simulate", "driven_cavity.qnet", "--t1", "1", "--samples", "-1"],
            ["transfer-function", "driven_cavity.qnet", "--n", "-1"],
            ["eliminate", "jc_cavity.qnet", "--p0", "jc.mode=vac,jc.qubit=any"],
        ],
        ids=["sweep-no-eq", "sweep-two-fields", "sweep-bad-count", "sweep-unknown-instance",
             "negative-samples", "negative-n", "p0-bad-level"],
    )
    def test_bad_argument_is_an_error_line(self, argv):
        out = subprocess.run(
            [sys.executable, "-m", "slhnet.cli", argv[0], str(NETWORKS / argv[1]), *argv[2:]],
            capture_output=True, text=True, cwd=str(NETWORKS.parent),
        )
        assert out.returncode == 1
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "argv, code, prefix, needle",
        [
            (["steady-state", "--drive", "drive=coherent(alpha=x)"], 1, "error: ", "alpha"),
            (["steady-state", "--drive", "drive=gaussian(N=x)"], 1, "error: ", "N="),
            (["steady-state", "--drive", "drive=coherent(alpha=1e999)"], 1, "error: ", "finite"),
            (["steady-state", "--drive", "drive=coherent(beta=1)"], 2, "parse error: ", "beta"),
            (["steady-state", "--observables", "cav.n*("], 2, "parse error: ", "end of input"),
            (["simulate", "--t1", "1", "--drive",
              "drive=fock(n=-1, envelope=gaussian(t0=1, sigma=1))"], 1, "error: ", "n >= 0"),
            (["simulate", "--t1", "1", "--drive",
              "drive=fock(n=1.5, envelope=gaussian(t0=1, sigma=1))"], 1, "error: ", "1.5"),
            (["simulate", "--t1", "1", "--method", "fixed", "--dt", "nan"], 1, "error: ", "dt"),
            (["simulate", "--t1", "1", "--atol", "-1"], 1, "error: ", "atol=-1"),
            (["simulate", "--t1", "1", "--rtol", "-1"], 1, "error: ", "rtol=-1"),
            (["simulate", "--t1", "1", "--drive",
              "drive=coherent(alpha=1e999, envelope=gaussian(t0=1, sigma=1))"], 1, "error: ",
             "not finite"),
            (["simulate", "--t1", "1", "--method", "fixed", "--dt", "0.1", "--drive",
              "drive=coherent(alpha=1e999, envelope=gaussian(t0=1, sigma=1))"], 1, "error: ",
             "trace drifted to nan"),
            (["simulate", "--t1", "1", "--drive", "drive=coherent(alpha=0.1)", "--drive",
              "drive = coherent(alpha=0.2)"], 1, "error: ", "--drive names port 'drive' twice"),
        ],
        ids=["alpha-not-a-number", "N-not-a-number", "alpha-infinite", "unknown-drive-parameter",
             "observable-cut-short", "fock-negative-n", "fock-fractional-n", "dt-nan",
             "atol-negative", "rtol-negative", "pulse-infinite-adaptive", "pulse-infinite-fixed",
             "drive-port-twice"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the infinite pulses make NaN
    def test_malformed_input_is_one_error_line(self, argv, code, prefix, needle, capsys):
        got, _, err = run_cli([argv[0], NETWORKS / "driven_cavity.qnet", *argv[1:]], capsys)
        assert got == code
        assert err.startswith(prefix) and needle in err
        assert err.count("\n") == 1

    def test_version_subprocess(self):
        out = subprocess.run(
            [sys.executable, "-m", "slhnet.cli", "--version"],
            capture_output=True, text=True, cwd=str(NETWORKS.parent),
        )
        assert out.returncode == 0
        assert "slhnet 0.1.0" in out.stdout
        assert "schema v1" in out.stdout


class TestDrives:
    """Coherent drives wire into the triple on any set of ports; a run
    takes at most one fock or gaussian drive beside them."""

    TWO_PORT = ["--drive", "drive=coherent(alpha=0.2)", "--drive", "vac=coherent(alpha=0.1j)"]

    @staticmethod
    def _linear_amplitudes(u):
        """-A^-1 B u for beamsplitter_cascade driven by u on its ports
        (drive, vac): the steady <c1.a>, <c2.a> of the linear model."""
        from slhnet.linear import extract_linear

        g = elaborate(parse((NETWORKS / "beamsplitter_cascade.qnet").read_text())).triple
        model = extract_linear(g)
        assert g.input_names == ("drive", "vac") and model.mode_labels == ("c1", "c2")
        return -np.linalg.solve(model.A, model.B @ np.array(u))

    @pytest.mark.parametrize("command", [["steady-state"], ["simulate", "--t1", "40", "--samples", "3"]],
                             ids=["steady-state", "simulate"])
    def test_two_port_drive_matches_the_linear_model(self, command, capsys):
        code, out, err = run_cli([command[0], NETWORKS / "beamsplitter_cascade.qnet", *command[1:],
                                  *self.TWO_PORT, "--observables", "c1.a,c2.a"], capsys)
        assert (code, err) == (0, "")
        last = out.strip().split("\n")[-1].split(",")[-2:] if command[0] == "simulate" else [
            line.split(",")[1] for line in out.strip().split("\n")[1:]]
        got = np.array([complex(*map(float, v.split(":"))) for v in last])
        # measured 1.5e-8 for both, steady-state and simulate at t = 40
        assert np.abs(got - self._linear_amplitudes([0.2, 0.1j])).max() < 1e-7
        # both drives count: either one alone lands elsewhere
        for alone in ([0.2, 0.0], [0.0, 0.1j]):
            assert np.abs(got - self._linear_amplitudes(alone)).max() > 1e-2

    def test_two_port_fixed_step_is_byte_reproducible(self, capsys):
        args = ["simulate", NETWORKS / "beamsplitter_cascade.qnet", "--t1", "2", "--samples", "5",
                "--method", "fixed", "--dt", "0.01", *self.TWO_PORT, "--observables", "c1.a,c2.n"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("kappa_perp", ["0.0", "0.5"], ids=["fock_atom", "lossy_atom"])
    def test_fock_drive_beside_a_coherent_one_matches_a_wired_source(self, kappa_perp, tmp_path, capsys):
        # the hierarchy drives the guide; a wired fock_source network carries
        # the same coherent drive on the loss port.  The routes differ by the
        # pulse mass before the source starts emitting, so the two-drive gap
        # is bounded by the single-drive gap on the same pulse (t0 = 4 sigma).
        pulse = "envelope=gaussian(t0=4, sigma=1)"
        atom = (NETWORKS / "fock_atom.qnet").read_text().replace("kappa_perp=0.0", f"kappa_perp={kappa_perp}")
        hierarchy = tmp_path / "atom.qnet"
        hierarchy.write_text(atom)
        wired = tmp_path / "wired.qnet"
        wired.write_text(
            f"component src = fock_source(n=1, {pulse});\n"
            f"component atom = tla_waveguide(kappa_g=1.0, kappa_perp={kappa_perp}, omega=0.0);\n"
            "wire src.out[1] -> atom.in[1];\n"
            "expose atom.in[2] as loss;\n"
        )
        run = ["simulate", "--t1", "10", "--samples", "41", "--observables", "atom.sz"]
        coherent = ["--drive", "loss=coherent(alpha=0.2)"]

        def column(path, *drives):
            code, out, err = run_cli([run[0], path, *run[1:], *drives], capsys)
            assert (code, err) == (0, "")
            return np.array([float(row.split(",")[1]) for row in out.strip().split("\n")[1:]])

        fock = ["--drive", f"guide=fock(n=1, {pulse})"]
        single = np.abs(column(hierarchy, *fock) - column(wired)).max()
        both = column(hierarchy, *fock, *coherent)
        gap = np.abs(both - column(wired, *coherent)).max()
        # measured: single 4.9e-5 / 2.9e-5, both 4.9e-5 / 2.4e-5 (kappa_perp 0 / 0.5)
        assert single < 1e-4
        assert gap <= single
        if kappa_perp != "0.0":  # the loss port couples: the coherent drive shows
            assert np.abs(both - column(hierarchy, *fock)).max() > 0.05

    def test_pulsed_coherent_drive_beside_a_fock_drive_exits_1(self, capsys):
        code, out, err = run_cli(
            ["simulate", NETWORKS / "fock_atom.qnet", "--t1", "1",
             "--drive", "guide=fock(n=1, envelope=gaussian(t0=4, sigma=1))",
             "--drive", "loss=coherent(alpha=0.2, envelope=gaussian(t0=2, sigma=1))"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: the Fock hierarchy needs a static triple\n"

    @pytest.mark.parametrize("second", ["fock(n=1, envelope=gaussian(t0=4, sigma=1))", "gaussian(N=0.1)"])
    def test_second_fock_or_gaussian_drive_exits_1(self, second, capsys):
        code, out, err = run_cli(
            ["simulate", NETWORKS / "fock_atom.qnet", "--t1", "1",
             "--drive", "guide=fock(n=1, envelope=gaussian(t0=4, sigma=1))", "--drive", f"loss={second}"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: a run takes at most one fock or gaussian drive\n"

    def test_json_hashes_the_driven_triple_and_records_the_drives(self, capsys):
        g = elaborate(parse((NETWORKS / "driven_cavity.qnet").read_text())).triple
        metas = {}
        for alpha in (0.1, 0.3):
            code, out, _ = run_cli(
                ["simulate", NETWORKS / "driven_cavity.qnet", "--t1", "1", "--samples", "3", "--format", "json",
                 "--drive", f"drive=coherent(alpha={alpha})"],
                capsys,
            )
            assert code == 0
            metas[alpha] = json.loads(out)["metadata"]
            assert metas[alpha]["triple_sha256"] == triple_hash(_driven(g, {1: alpha}))
            assert metas[alpha]["drives"] == {"drive": f"coherent(alpha={alpha})"}
        assert metas[0.1]["triple_sha256"] != metas[0.3]["triple_sha256"]

    def test_sweep_json_hashes_each_driven_triple(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate", NETWORKS / "driven_cavity.qnet", "--t1", "1", "--samples", "3", "--format", "json",
             "--drive", "drive=coherent(alpha=0.1)", "--sweep", "cav.gamma=1:3:2", "-o", tmp_path / "sweep.json"],
            capsys,
        )
        assert code == 0
        files = sorted(tmp_path.glob("sweep_*.json"))
        nd = parse((NETWORKS / "driven_cavity.qnet").read_text())
        for gamma, f in zip((1.0, 3.0), files, strict=True):
            nd.instance("cav").params["gamma"] = gamma
            meta = json.loads(f.read_text())["metadata"]
            assert meta["triple_sha256"] == triple_hash(_driven(elaborate(nd).triple, {1: 0.1}))
            assert meta["drives"] == {"drive": "coherent(alpha=0.1)"}

    def test_json_records_each_drive_of_a_two_port_run(self, capsys):
        code, out, _ = run_cli(
            ["simulate", NETWORKS / "beamsplitter_cascade.qnet", "--t1", "1", "--samples", "3",
             "--format", "json", *self.TWO_PORT],
            capsys,
        )
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["drives"] == {"drive": "coherent(alpha=0.2)", "vac": "coherent(alpha=0.1j)"}
        g = elaborate(parse((NETWORKS / "beamsplitter_cascade.qnet").read_text())).triple
        assert meta["triple_sha256"] != triple_hash(g)
