import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slhnet.cli import main
from slhnet.netlang import elaborate, parse
from slhnet.slh import triple_hash

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


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

    def test_pulsed_wire_simulates_but_does_not_serialize(self, tmp_path, capsys):
        # a pulsed source closes through a wire; only its JSON form is refused,
        # since products of envelopes have no serialized form
        f = tmp_path / "pulsed.qnet"
        f.write_text(
            "component src = coherent_source(alpha=0.3, envelope=gaussian(t0=2, sigma=0.5));\n"
            "component cav = one_sided_cavity(gamma=1.0, truncation=6);\n"
            "wire src.out[1] -> cav.in[1];\n"
            "expose cav.out[1] as output;"
        )
        out_file = tmp_path / "traj.csv"
        code, _, _ = run_cli(["simulate", f, "--t1", "8", "--samples", "9", "-o", out_file], capsys)
        assert code == 0
        rows = out_file.read_text().strip().split("\n")
        assert rows[0] == "t,cav.n"
        assert max(float(r.split(",")[1]) for r in rows[1:]) > 0.05
        code, out, err = run_cli(["compose", f], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

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
                "--observables", "cav.a",
            ],
            capsys,
        )
        assert code == 0
        value = out.strip().split("\n")[1].split(",")[1]
        re_a, im_a = (float(x) for x in value.split(":"))
        want = -np.sqrt(2.0) * 0.25 / (1.0 + 0.3j)
        assert abs(complex(re_a, im_a) - want) < 1e-8

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
        ],
        ids=["alpha-not-a-number", "N-not-a-number", "alpha-infinite", "unknown-drive-parameter",
             "observable-cut-short", "fock-negative-n", "fock-fractional-n", "dt-nan",
             "atol-negative", "rtol-negative", "pulse-infinite-adaptive", "pulse-infinite-fixed"],
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
