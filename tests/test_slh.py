import numpy as np
import pytest

from conftest import random_triple

from slhnet.components import beamsplitter, coherent_source, one_sided_cavity
from slhnet.dynamics import liouvillian
from slhnet.envelopes import GaussianPulse, ScaledEnvelope
from slhnet.errors import AlgebraicLoopError, CompositionError
from slhnet.hilbert import (
    LabeledSpace,
    Operator,
    destroy,
    identity,
    number,
    op_close,
)
from slhnet.netlang import elaborate, parse
from slhnet.slh import (
    PortMap,
    SLHTriple,
    concat,
    direct_couple,
    feedback,
    feedback_multi,
    identity_triple,
    pad,
    permutation_matrix,
    permute_ports,
    series,
    triple_from_json,
    triple_hash,
    triple_to_json,
    triples_close,
)


def cavity(gamma, delta, dim=6, label="c"):
    a = destroy(label, dim)
    return SLHTriple(1, [np.sqrt(gamma) * a], delta * a.dag() * a)


class TestSeries:
    def test_two_cavity_cascade_golden(self):
        g1, g2, d1, d2 = 2.0, 3.0, 0.5, -0.7
        casc = series(cavity(g2, d2, label="c2"), cavity(g1, d1, label="c1"))
        a1, a2 = destroy("c1", 6), destroy("c2", 6)
        assert op_close(casc.L[0], np.sqrt(g1) * a1 + np.sqrt(g2) * a2)
        want_h = (
            d1 * a1.dag() * a1
            + d2 * a2.dag() * a2
            + (np.sqrt(g1 * g2) / 2j) * (a2.dag() * a1 - a1.dag() * a2)
        )
        assert op_close(casc.H, want_h)
        assert op_close(casc.S[0, 0], identity(casc.space))

    def test_trivial_passthrough(self):
        g = cavity(1.3, 0.4)
        assert triples_close(series(g, identity_triple(1)), g)
        assert triples_close(series(identity_triple(1), g), g)

    def test_coherent_drive_series(self):
        # (S, L, H) << (1, alpha(t), 0) picks up L + S alpha and the drive Hamiltonian
        g = cavity(2.0, 0.5)
        alpha = 0.3 - 0.1j
        drive = SLHTriple(1, [alpha], 0.0)
        out = series(g, drive)
        a = destroy("c", 6)
        assert op_close(out.L[0], np.sqrt(2.0) * a + alpha * identity(out.space))
        want_h = 0.5 * a.dag() * a + (1 / 2j) * (
            alpha * np.sqrt(2.0) * a.dag() - np.conj(alpha) * np.sqrt(2.0) * a
        )
        assert op_close(out.H, want_h)

    def test_port_count_mismatch(self):
        with pytest.raises(CompositionError):
            series(cavity(1.0, 0.0), identity_triple(2))

    def test_associativity_random(self, rng):
        for _ in range(5):
            g1 = random_triple(rng, n_ports=2, dim=3, label="a")
            g2 = random_triple(rng, n_ports=2, dim=3, label="b")
            g3 = random_triple(rng, n_ports=2, dim=2, label="q")
            assert triples_close(series(g3, series(g2, g1)), series(series(g3, g2), g1), 1e-10)

    def test_non_commutativity_witness(self):
        g1 = cavity(2.0, 0.5, label="c1")
        g2 = cavity(3.0, -0.7, label="c2")
        ab = series(g2, g1)
        ba = series(g1, g2)
        assert not op_close(ab.H, ba.H)


class TestConcat:
    def test_two_cavities(self):
        g = concat(cavity(2.0, 0.5, label="c1"), cavity(3.0, -0.7, label="c2"))
        a1, a2 = destroy("c1", 6), destroy("c2", 6)
        assert g.n_ports == 2
        assert op_close(g.L[0], np.sqrt(2.0) * a1)
        assert op_close(g.L[1], np.sqrt(3.0) * a2)
        assert op_close(g.H, 0.5 * a1.dag() * a1 - 0.7 * a2.dag() * a2)
        assert g.S[0, 1].max_abs() == 0.0

    def test_padding_sides_swap_ports(self):
        g = cavity(1.0, 0.2)
        left = concat(identity_triple(1), g)
        right = concat(g, identity_triple(1))
        # same operators, swapped port order
        swapped = permute_ports(permute_ports(left, [2, 1], "outputs"), [2, 1], "inputs")
        assert triples_close(swapped, right)


class TestDirectCoupling:
    def test_cross_kerr(self):
        g1 = cavity(2.0, 0.5, label="c1")
        g2 = cavity(3.0, -0.7, label="c2")
        chi = 0.4
        n1n2 = number("c1", 6) * number("c2", 6)
        out = direct_couple(g1, g2, chi * n1n2)
        want = 0.5 * number("c1", 6) - 0.7 * number("c2", 6) + chi * n1n2
        assert op_close(out.H, want)

    def test_zero_interaction_is_concat(self):
        g1 = cavity(1.0, 0.1, label="c1")
        g2 = cavity(1.5, 0.2, label="c2")
        out = direct_couple(g1, g2, Operator(LabeledSpace()))
        assert triples_close(out, concat(g1, g2))

    def test_beamsplitter_like_coupling_changes_only_h(self):
        g1 = cavity(1.0, 0.1, label="c1")
        g2 = cavity(1.5, 0.2, label="c2")
        a1, a2 = destroy("c1", 6), destroy("c2", 6)
        h_int = 0.3 * (a1.dag() * a2 + a2.dag() * a1)
        out = direct_couple(g1, g2, h_int)
        plain = concat(g1, g2)
        assert op_close(out.H, plain.H + h_int)
        for i in range(2):
            assert op_close(out.L[i], plain.L[i])
            for j in range(2):
                assert op_close(out.S[i, j], plain.S[i, j])

    def test_non_hermitian_rejected(self):
        g1 = cavity(1.0, 0.1, label="c1")
        g2 = cavity(1.5, 0.2, label="c2")
        with pytest.raises(CompositionError):
            direct_couple(g1, g2, destroy("c1", 6))


class TestFeedback:
    def test_two_sided_cavity_golden(self):
        gam1, gam2, delta = 1.3, 0.8, 0.4
        a = destroy("m", 6)
        g = SLHTriple([[1, 0], [0, 1]], [np.sqrt(gam1) * a, 1j * np.sqrt(gam2) * a], delta * a.dag() * a)
        red = feedback(g, 1, 2).triple
        assert red.n_ports == 1
        assert op_close(red.L[0], (np.sqrt(gam1) + 1j * np.sqrt(gam2)) * a)
        assert op_close(red.H, (delta - np.sqrt(gam1 * gam2)) * a.dag() * a)
        assert op_close(red.S[0, 0], identity(red.space))

    def test_swap_beamsplitter_self_loop(self):
        g = SLHTriple([[0, 1], [1, 0]], [0, 0], 0)
        red = feedback(g, 1, 1).triple
        assert red.n_ports == 1
        assert abs(red.S[0, 0].constant().toarray()[0, 0] - 1.0) < 1e-12
        assert red.L[0].max_abs() == 0.0

    def test_generic_two_port_formula(self, rng):
        # feedback 2 -> 2 must match the closed-form reduced triple
        g = random_triple(rng, n_ports=2, dim=4)
        red = feedback(g, 2, 2).triple
        eye = identity(g.space)
        S11, S12, S21, S22 = (g.S[0, 0], g.S[0, 1], g.S[1, 0], g.S[1, 1])
        inv = Operator(g.space, np.linalg.inv((eye - S22).constant().toarray()))
        assert op_close(red.S[0, 0], S11 + S12 * inv * S21, 1e-9)
        assert op_close(red.L[0], g.L[0] + S12 * inv * g.L[1], 1e-9)
        m = g.L[1].dag() * S22 * inv * g.L[1] + g.L[0].dag() * S12 * inv * g.L[1]
        want_h = g.H + (m - m.dag()) * (1 / 2j)
        assert op_close(red.H, want_h, 1e-9)

    def test_singular_loop_rejected(self):
        # a driven undamped circulating mode has no consistent solution
        a = destroy("m", 4)
        g = SLHTriple([[1, 0], [0, 1]], [np.sqrt(2.0) * a, 0.0 * a], 0.0 * a)
        with pytest.raises(AlgebraicLoopError):
            feedback(g, 1, 1)

    def test_detached_trivial_loop_drops_out(self):
        # closing a signal-free pass-through on itself just removes it
        g = identity_triple(2)
        red = feedback(g, 1, 1).triple
        assert triples_close(red, identity_triple(1))

    def test_out_of_range(self):
        g = identity_triple(2)
        with pytest.raises(CompositionError):
            feedback(g, 3, 1)

    def test_needs_two_ports(self):
        with pytest.raises(CompositionError):
            feedback(cavity(1.0, 0.0), 1, 1)

    def test_series_is_concat_plus_feedback(self, rng):
        g1 = random_triple(rng, n_ports=2, dim=3, label="a")
        g2 = random_triple(rng, n_ports=2, dim=3, label="b")
        casc = series(g2, g1)
        stacked = concat(g1, g2)
        closed = feedback_multi(stacked, [(1, 3), (2, 4)]).triple
        assert triples_close(casc, closed, 1e-9)


class TestFeedbackMulti:
    def test_trivial_loops_restore_component(self, rng):
        g = random_triple(rng, n_ports=1, dim=4)
        stacked = concat(identity_triple(2), g)
        red = feedback_multi(stacked, [(1, 1), (2, 2)]).triple
        assert triples_close(red, g, 1e-10)

    def test_order_independence(self, rng):
        wiring = [(1, 3), (4, 2)]
        for _ in range(6):
            g = random_triple(rng, n_ports=4, dim=4)
            once = feedback_multi(g, wiring).triple
            for order in ((0, 1), (1, 0)):
                seq = g
                remaining = [wiring[k] for k in order]
                out_map = {k: k for k in range(1, 5)}
                in_map = {k: k for k in range(1, 5)}
                for x, y in remaining:
                    res = feedback(seq, out_map[x], in_map[y])
                    seq = res.triple
                    out_map = {orig: res.out_map[cur] for orig, cur in out_map.items() if cur in res.out_map}
                    in_map = {orig: res.in_map[cur] for orig, cur in in_map.items() if cur in res.in_map}
                assert triples_close(once, seq, 1e-8)

    def test_conflicting_wiring_rejected(self):
        g = identity_triple(3)
        with pytest.raises(CompositionError):
            feedback_multi(g, [(1, 2), (1, 3)])
        with pytest.raises(CompositionError):
            feedback_multi(g, [(1, 2), (3, 2)])

    def test_survivor_maps(self, rng):
        g = random_triple(rng, n_ports=3, dim=3)
        res = feedback_multi(g, [(2, 1)])
        assert res.out_map == {1: 1, 3: 2}
        assert res.in_map == {2: 1, 3: 2}

    def test_pulsed_loop_matches_frozen_time_reduction(self):
        # a pulsed source feeds beamsplitter input 1; beamsplitter output 1
        # drives a cavity whose output returns to beamsplitter input 2, so
        # S_xy != 0.  At each t the reduction must equal the static reduction
        # of the same network driven by the constant amplitude alpha xi(t).
        env = GaussianPulse(t0=2.0, sigma=0.7)
        alpha = 0.4 - 0.2j
        bs = beamsplitter(eta=0.6)
        cav = one_sided_cavity(1.5, 0.3, truncation=5, label="c")
        wiring = [(1, 2), (2, 4), (4, 3)]  # src -> bs.in1, bs.out1 -> cav, cav -> bs.in2

        def reduce(src):
            return feedback_multi(concat(concat(src, bs), cav), wiring).triple

        pulsed = reduce(coherent_source(alpha, env))
        assert not pulsed.is_static()
        for t in (0.5, 1.7, 2.0, 2.9, 4.0):
            frozen = reduce(coherent_source(alpha * env(t)))
            assert frozen.is_static()
            assert abs(pulsed.L[0].at(t) - frozen.L[0].at(t)).max() <= 1e-12
            assert abs(pulsed.H.at(t) - frozen.H.at(t)).max() <= 1e-12
            assert op_close(pulsed.S[0, 0], frozen.S[0, 0], 1e-12)


class TestPermutePad:
    def test_aside_matrix(self):
        # routing outputs 1->2, 2->3, 3->1 gives the cyclic matrix
        P = permutation_matrix([2, 3, 1])
        want = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert np.abs(P - want).max() == 0.0

    def test_identity_permutation(self, rng):
        g = random_triple(rng, n_ports=3, dim=3)
        assert triples_close(permute_ports(g, [1, 2, 3], "outputs"), g)

    def test_composition_law(self, rng):
        g = random_triple(rng, n_ports=3, dim=3)
        s1 = [2, 3, 1]
        s2 = [3, 1, 2]
        combined = [s2[s1[k] - 1] for k in range(3)]
        two_step = permute_ports(permute_ports(g, s1, "outputs"), s2, "outputs")
        one_step = permute_ports(g, combined, "outputs")
        assert triples_close(two_step, one_step)

    def test_invalid_permutation(self, rng):
        g = random_triple(rng, n_ports=3, dim=3)
        with pytest.raises(CompositionError):
            permute_ports(g, [1, 1, 2], "outputs")

    def test_pad_zero_is_identity(self):
        g = cavity(1.0, 0.3)
        assert pad(g, 0) is g

    def test_pad_then_close_trivial_channel(self):
        g = cavity(1.0, 0.3)
        padded = pad(g, 1, "after")
        red = feedback_multi(padded, [(2, 2)]).triple
        assert triples_close(red, g, 1e-10)

    def test_pad_enables_cascade(self, rng):
        g1 = cavity(1.0, 0.3, label="c1")
        g2 = random_triple(rng, n_ports=2, dim=3, label="b")
        out = series(g2, pad(g1, 1, "before"))
        assert out.n_ports == 2


class TestExactHermiticity:
    """H(t) must be Hermitian at every t, decided from the terms."""

    @pytest.mark.parametrize("t0", [5.0, 50.0])
    def test_imaginary_pulse_is_refused_wherever_it_sits(self, t0):
        n = number("m", 4)
        with pytest.raises(CompositionError, match="anti-Hermitian residual 6.000e\\+00"):
            SLHTriple(1, [destroy("m", 4)], n + (1j * n).scaled_by(GaussianPulse(t0, 1.0)))

    def test_late_imaginary_step_is_refused(self):
        n = number("m", 4)
        with pytest.raises(CompositionError, match="anti-Hermitian"):
            SLHTriple(1, [destroy("m", 4)], n.scaled_by(lambda t: 1j * (t > 20)))

    def test_real_pulse_hamiltonians_are_accepted_unchanged(self):
        a, n = destroy("m", 4), number("m", 4)
        env = GaussianPulse(t0=50.0, sigma=1.0)
        x = a.scaled_by(ScaledEnvelope(1j, env))
        for H in (n.scaled_by(env), 0.7 * (a + a.dag()).scaled_by(env), n.scaled_by(ScaledEnvelope(-0.3, env)), n + x + x.dag()):
            g = SLHTriple(1, [a], H)
            assert g.hermiticity_residual() == 0.0
            assert abs(g.H.at(50.3) - H.at(50.3)).max() <= 1e-15

    def test_conjugate_of_a_complex_multiple_is_one_function(self):
        # conj(1j g) is -1j g for a real g, so this H is Hermitian at every t
        a, n = destroy("m", 4), number("m", 4)
        env = GaussianPulse(t0=50.0, sigma=1.0)
        H = n + a.scaled_by(ScaledEnvelope(1j, env)) + a.dag().scaled_by(ScaledEnvelope(-1j, env))
        g = SLHTriple(1, [a], H)
        assert g.hermiticity_residual() == 0.0
        assert abs(g.H.at(50.3) - H.at(50.3)).max() <= 1e-15
        with pytest.raises(CompositionError, match="anti-Hermitian residual 1.732e\\+00"):
            SLHTriple(1, [a], n + a.scaled_by(ScaledEnvelope(1j, env)) + a.dag().scaled_by(ScaledEnvelope(1j, env)))

    def test_opaque_coefficient_is_named_in_the_error(self):
        n = number("m", 4)
        with pytest.raises(CompositionError, match="opaque callable cannot be shown real.*gaussian, square"):
            SLHTriple(1, [destroy("m", 4)], n.scaled_by(lambda t: float(t > 20)))
        x = n.scaled_by(lambda t: 1j * t)
        assert SLHTriple(1, [destroy("m", 4)], x + x.dag()).hermiticity_residual() == 0.0
        with pytest.raises(CompositionError, match="anti-Hermitian") as err:
            SLHTriple(1, [destroy("m", 4)], 1j * n + x + x.dag())
        assert "opaque" not in str(err.value)


class TestInvariantsAndSerialization:
    def test_compositions_preserve_invariants(self, rng):
        for _ in range(4):
            g1 = random_triple(rng, n_ports=2, dim=3, label="a")
            g2 = random_triple(rng, n_ports=2, dim=3, label="b")
            for out in (
                series(g2, g1),
                concat(g1, g2),
                feedback(concat(g1, g2), 1, 3).triple,
                permute_ports(g1, [2, 1], "both"),
            ):
                assert out.unitarity_residual() < 1e-10
                assert out.hermiticity_residual() < 1e-10

    def test_json_round_trip(self, rng):
        g = random_triple(rng, n_ports=2, dim=3)
        back = triple_from_json(triple_to_json(g))
        assert triples_close(back, g, 1e-14)
        assert back.input_names == g.input_names

    def test_hash_stable_and_sensitive(self, rng):
        g = random_triple(rng, n_ports=2, dim=3)
        h1 = triple_hash(g)
        h2 = triple_hash(triple_from_json(triple_to_json(g)))
        assert h1 == h2
        other = series(g, identity_triple(2))
        assert triple_hash(other) == h1  # pass-through preserves the triple

    @pytest.mark.parametrize("source, n_terms", [
        ("fock_source(n=1, envelope=gaussian(t0=2, sigma=0.5))", 3),
        ("coherent_source(alpha=0.3, envelope=gaussian(t0=2, sigma=0.5))", 2),
    ])
    def test_round_trip_keeps_envelope_terms_merged(self, source, n_terms):
        # envelopes read back compare equal by value, so the generator's
        # terms (xi, xi* and |xi|^2 products) merge as before serialization
        g = elaborate(parse(
            f"component src = {source};\n"
            "component cav = one_sided_cavity(gamma=1.0, truncation=4);\n"
            "wire src.out[1] -> cav.in[1];"
        )).triple
        back = triple_from_json(triple_to_json(g))
        assert len(liouvillian(g).terms) == len(liouvillian(back).terms) == n_terms
        assert triple_hash(back) == triple_hash(g)

    def test_portmap_validation(self):
        with pytest.raises(CompositionError):
            PortMap.of([(1, 1), (1, 2)]).validate(2)
