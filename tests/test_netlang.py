from pathlib import Path

import numpy as np
import pytest

from slhnet.errors import ElaborationError, ParseError
from slhnet.hilbert import Operator, destroy, number, op_close
from slhnet.netlang import (
    CallValue,
    ast_to_dict,
    elaborate,
    parse,
    print_network,
    tokenize,
)
from slhnet.slh import SLHTriple, triples_close

NETWORKS = Path(__file__).resolve().parent.parent / "networks"

TWO_CAVITY = """
component c1 = one_sided_cavity(gamma=2.0, delta=0.5, truncation=6);
component c2 = one_sided_cavity(gamma=3.0, delta=-0.7, truncation=6);
wire c1.out[1] -> c2.in[1];
"""


# (text, tokens as (kind, value, line, column), EOF included) or the
# (line, column) of the ParseError.  Non-ASCII digits and integers too long
# for int() are parse errors, and the EOF after a trailing comment sits at
# the end of its line.
LEXER_CASES = {
    "1e": [("NUMBER", 1, 1, 1), ("IDENT", "e", 1, 2), ("EOF", None, 1, 3)],
    "1e+": [("NUMBER", 1, 1, 1), ("IDENT", "e", 1, 2), ("PLUS", "+", 1, 3), ("EOF", None, 1, 4)],
    "1.": [("NUMBER", 1.0, 1, 1), ("EOF", None, 1, 3)],
    "1.e5": [("NUMBER", 1e5, 1, 1), ("EOF", None, 1, 5)],
    "2.5e-3j": [("IMAG", 2.5e-3, 1, 1), ("EOF", None, 1, 8)],
    "3i": [("IMAG", 3.0, 1, 1), ("EOF", None, 1, 3)],
    ".5": [("DOT", ".", 1, 1), ("NUMBER", 5, 1, 2), ("EOF", None, 1, 3)],
    "->": [("ARROW", "->", 1, 1), ("EOF", None, 1, 3)],
    "a.b": [("IDENT", "a", 1, 1), ("DOT", ".", 1, 2), ("IDENT", "b", 1, 3), ("EOF", None, 1, 4)],
    "x_1": [("IDENT", "x_1", 1, 1), ("EOF", None, 1, 4)],
    "é": [("IDENT", "é", 1, 1), ("EOF", None, 1, 2)],
    "²": (1, 1),
    "٣": (1, 1),
    "1٣": (1, 2),
    "x = " + "9" * 5000: (1, 5),
    "\r\n": [("EOF", None, 2, 1)],
    "a # c": [("IDENT", "a", 1, 1), ("EOF", None, 1, 6)],
    "a # c\n": [("IDENT", "a", 1, 1), ("EOF", None, 2, 1)],
}


@pytest.mark.parametrize("text", LEXER_CASES, ids=[repr(t)[:12] for t in LEXER_CASES])
def test_lexer_edge_cases(text):
    want = LEXER_CASES[text]
    if isinstance(want, tuple):
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert (err.value.line, err.value.column) == want
        return
    got = [(t.kind, t.value, t.line, t.column) for t in tokenize(text)]
    assert got == want
    assert [type(t[1]) for t in got] == [type(t[1]) for t in want]


class TestParsing:
    def test_two_cavity_structure(self):
        nd = parse(TWO_CAVITY)
        assert [i.name for i in nd.instances] == ["c1", "c2"]
        assert nd.instances[0].params["gamma"] == 2.0
        assert nd.instances[0].params["truncation"] == 6
        assert nd.wires[0].src == ("c1", 1) and nd.wires[0].dst == ("c2", 1)

    def test_unknown_kind_positioned(self):
        with pytest.raises(ParseError) as err:
            parse("component c = cavty(gamma=1.0);")
        assert err.value.line == 1 and err.value.column == 11

    def test_syntax_error_positioned(self):
        with pytest.raises(ParseError) as err:
            parse("component c = one_sided_cavity(gamma=1.0)\ncomponent d = phase_shifter(phi=0.0);")
        assert err.value.line == 2

    def test_self_loop_is_valid(self):
        nd = parse(
            "component f = fabry_perot(gamma1=1.0, gamma2=0.5);\n"
            "wire f.out[1] -> f.in[2];"
        )
        assert len(nd.wires) == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("component c = phase_shifter(phi=0.0); component c = phase_shifter(phi=0.1);")

    def test_double_source_rejected(self):
        text = (
            "component f = fabry_perot(gamma1=1.0, gamma2=0.5);\n"
            "component g = fabry_perot(gamma1=1.0, gamma2=0.5);\n"
            "wire f.out[1] -> g.in[1];\n"
            "wire f.out[1] -> g.in[2];"
        )
        with pytest.raises(ParseError, match="twice as a source"):
            parse(text)

    def test_port_range_checked(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("component c = phase_shifter(phi=0.0);\nwire c.out[2] -> c.in[1];")

    def test_expose_wired_port_rejected(self):
        text = (
            "component f = fabry_perot(gamma1=1.0, gamma2=0.5);\n"
            "wire f.out[1] -> f.in[1];\n"
            "expose f.in[1] as x;"
        )
        with pytest.raises(ParseError, match="wired input"):
            parse(text)

    def test_complex_and_call_values(self):
        nd = parse(
            "component s = fock_source(n=1, envelope=gaussian(t0=5.0, sigma=1.0));\n"
            "component c = circulator_nonideal(r=0.0, b=0.0, t=1.0);\n"
            "component o = degenerate_opo(gamma=2.0, epsilon=0.1-0.2i);"
        )
        env = nd.instances[0].params["envelope"]
        assert isinstance(env, CallValue) and env.name == "gaussian"
        assert nd.instances[2].params["epsilon"] == 0.1 - 0.2j

    def test_ast_dump_is_jsonable(self):
        import json

        nd = parse(TWO_CAVITY)
        json.dumps(ast_to_dict(nd))


class TestPrinting:
    @pytest.mark.parametrize("path", sorted(NETWORKS.glob("*.qnet")), ids=lambda p: p.name)
    def test_corpus_fixpoint(self, path):
        nd = parse(path.read_text())
        printed = print_network(nd)
        assert parse(printed) == nd
        assert print_network(parse(printed)) == printed

    def test_synthetic_fixpoint(self):
        text = (
            "component s = fock_source(n=2, envelope=square(t0=0.0, t1=4.0));\n"
            "component o = degenerate_opo(gamma=2.0, epsilon=-0.1+0.25i, truncation=12);\n"
            "component b = beamsplitter(eta=0.3, convention=reflection);\n"
            "wire s.out[1] -> o.in[1];\n"
            "expose o.out[1] as output;\n"
            "state o = coherent(0.5-0.1i);\n"
            "state s = fock(2);\n"
        )
        nd = parse(text)
        assert parse(print_network(nd)) == nd


class TestElaboration:
    def test_compose_work_counts(self, monkeypatch):
        """vec_elim_loop at truncation 5: one n-ary concat lifts each
        component operator once and checks S once; the other four checks
        are the components' own, the last one the feedback reduction's."""
        counts = {"embed": 0, "unitarity": 0}
        embed, residual = Operator.embed, SLHTriple.unitarity_residual

        def counted_embed(self, target):
            counts["embed"] += target.factors != self.space.factors
            return embed(self, target)

        def counted_residual(self):
            counts["unitarity"] += 1
            return residual(self)

        monkeypatch.setattr(Operator, "embed", counted_embed)
        monkeypatch.setattr(SLHTriple, "unitarity_residual", counted_residual)
        elaborate(parse((NETWORKS / "vec_elim_loop.qnet").read_text()))
        assert counts == {"embed": 28, "unitarity": 6}

    def test_single_component_unchanged(self):
        nd = parse("component c = one_sided_cavity(gamma=2.0, delta=0.5, truncation=6);")
        res = elaborate(nd)
        from slhnet.components import one_sided_cavity

        assert triples_close(res.triple, one_sided_cavity(2.0, 0.5, truncation=6, label="c"))

    def test_two_cavity_cascade_matches_series(self):
        res = elaborate(parse(TWO_CAVITY))
        from slhnet.components import one_sided_cavity
        from slhnet.slh import series

        want = series(
            one_sided_cavity(3.0, -0.7, truncation=6, label="c2"),
            one_sided_cavity(2.0, 0.5, truncation=6, label="c1"),
        )
        assert triples_close(res.triple, want, 1e-10)

    @pytest.mark.parametrize("source", [
        "coherent_source(alpha=0.3, envelope=gaussian(t0=2, sigma=0.5))",
        "fock_source(n=1, envelope=gaussian(t0=2, sigma=0.5))",
    ], ids=["coherent_source", "fock_source"])
    def test_pulsed_wire_matches_series(self, source):
        from slhnet.components import coherent_source, fock_source, one_sided_cavity
        from slhnet.dynamics import evolve_density, liouvillian
        from slhnet.envelopes import GaussianPulse
        from slhnet.slh import series

        res = elaborate(parse(
            f"component src = {source};\n"
            "component cav = one_sided_cavity(gamma=1.0, truncation=6);\n"
            "wire src.out[1] -> cav.in[1];"
        ))
        env = GaussianPulse(t0=2.0, sigma=0.5)
        src = (coherent_source(0.3, env) if source.startswith("coherent")
               else fock_source(1, env, label="src"))
        want = series(one_sided_cavity(1.0, truncation=6, label="cav"), src)
        times = (0.5, 1.7, 2.0, 2.9, 4.0)
        assert not res.triple.is_static()
        assert triples_close(res.triple, want, 1e-12, times=times)

        n_cav = number("cav", 6)
        got, ref = (
            evolve_density(liouvillian(g), res.initial_state, (0.0, 6.0), np.linspace(0.0, 6.0, 13),
                           observables={"n": n_cav}, method="fixed", dt=0.01).expectations["n"]
            for g in (res.triple, want)
        )
        assert np.abs(got - ref).max() < 1e-12
        assert got.real.max() > 0.05

    def test_loop_network_matches_reduction_formula(self):
        res = elaborate(parse((NETWORKS / "vec_elim_loop.qnet").read_text()))
        g = res.triple
        phi = 0.6
        a1, a2 = destroy("f1", 5), destroy("f2", 5)
        L1, L2 = np.sqrt(1.1) * a1, np.sqrt(0.7) * a1
        L5, L6 = np.sqrt(0.9) * a2, np.sqrt(1.3) * a2
        ph = np.exp(1j * phi)
        assert op_close(g.L[0], L2 + ph * L6, 1e-10)
        assert op_close(g.L[1], L5 + ph * L1, 1e-10)
        want_h = (
            0.4 * a1.dag() * a1
            - 0.2 * a2.dag() * a2
            + (1 / 2j) * (ph * L1 * L5.dag() - np.conj(ph) * L1.dag() * L5
                          + ph * L2.dag() * L6 - np.conj(ph) * L2 * L6.dag())
        )
        assert op_close(g.H, want_h, 1e-10)
        assert res.input_labels == ["right_in", "left_in"]
        assert res.output_labels == ["left_out", "right_out"]

    def test_declaration_order_insensitive(self):
        text_a = (
            "component x = one_sided_cavity(gamma=1.0, truncation=5);\n"
            "component y = one_sided_cavity(gamma=2.0, truncation=5);\n"
            "wire x.out[1] -> y.in[1];"
        )
        text_b = (
            "component y = one_sided_cavity(gamma=2.0, truncation=5);\n"
            "component x = one_sided_cavity(gamma=1.0, truncation=5);\n"
            "wire x.out[1] -> y.in[1];"
        )
        ga = elaborate(parse(text_a)).triple
        gb = elaborate(parse(text_b)).triple
        assert triples_close(ga, gb, 1e-10)  # single survivor port each side

    def test_declaration_order_insensitive_multiport(self):
        # permuted declarations give the same triple after rerouting the
        # surviving ports by their labels
        base = (NETWORKS / "vec_elim_loop.qnet").read_text()
        nd_a = parse(base)
        nd_b = parse(base)
        nd_b.instances = [nd_b.instances[k] for k in (3, 1, 0, 2)]
        res_a = elaborate(nd_a)
        res_b = elaborate(nd_b)
        from slhnet.slh import permute_ports

        sig_in = [res_b.input_labels.index(lbl) + 1 for lbl in res_a.input_labels]
        sig_out = [res_b.output_labels.index(lbl) + 1 for lbl in res_a.output_labels]
        gb = res_b.triple
        # route b's port k to a's position: invert the label lookup
        inv_in = [0] * len(sig_in)
        inv_out = [0] * len(sig_out)
        for pos, src in enumerate(sig_in):
            inv_in[src - 1] = pos + 1
        for pos, src in enumerate(sig_out):
            inv_out[src - 1] = pos + 1
        gb = permute_ports(gb, inv_out, "outputs")
        gb = permute_ports(gb, inv_in, "inputs")
        assert triples_close(res_a.triple, gb, 1e-10)

    def test_initial_states(self):
        text = (
            "component jc = jaynes_cummings(kappa=1.0, g=0.4, truncation=4);\n"
            "state jc = fock(2) * qubit(excited);"
        )
        res = elaborate(parse(text))
        rho = res.initial_state
        n_mode = number("jc.mode", 4).embed(rho.space)
        got = complex((n_mode.constant() @ rho.constant()).diagonal().sum())
        assert abs(got - 2.0) < 1e-12

    def test_source_metadata_default_state(self):
        text = "component s = fock_source(n=1, envelope=gaussian(t0=5.0, sigma=1.0));"
        res = elaborate(parse(text))
        n_src = number("s", 2).embed(res.triple.space)
        got = complex((n_src.constant() @ res.initial_state.constant()).diagonal().sum())
        assert abs(got - 1.0) < 1e-12

    def test_state_factor_count_mismatch(self):
        text = (
            "component jc = jaynes_cummings(kappa=1.0, g=0.4);\n"
            "state jc = vacuum;"
        )
        with pytest.raises(ElaborationError, match="factors"):
            elaborate(parse(text))

    def test_singular_loop_reports_wires(self):
        text = (
            "component p = phase_shifter(phi=0.0);\n"
            "component c = one_sided_cavity(gamma=1.0, truncation=4);\n"
            "wire c.out[1] -> p.in[1];\n"
            "wire p.out[1] -> c.in[1];"
        )
        with pytest.raises(ElaborationError, match="algebraic loop"):
            elaborate(parse(text))

    def test_bad_component_params_are_elaboration_errors(self):
        with pytest.raises(ElaborationError, match="gamma"):
            elaborate(parse("component c = one_sided_cavity(gamma=-1.0);"))
