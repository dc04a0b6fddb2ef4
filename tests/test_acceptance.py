"""Acceptance suite: the composition golden set, dynamics and Fock-input
oracles, linear analysis, single-photon scattering, adiabatic
elimination, and the text front end, each at its pinned tolerance.

Every test prints one PASS line; run with `pytest -v -s tests/test_acceptance.py`
to see them.
"""

import time
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

from conftest import random_triple

from slhnet.cli import main as cli_main
from slhnet.components import (
    beamsplitter,
    build_copropagating_pair,
    build_counterpropagating_pair,
    coherent_source,
    degenerate_opo,
    one_sided_cavity,
    phase_shifter,
)
from slhnet.dynamics import (
    GaussianEnv,
    evolve_density,
    evolve_hierarchy,
    fock_hierarchy,
    liouvillian,
    liouvillian_coherent,
    liouvillian_gaussian,
    steady_state,
)
from slhnet.envelopes import GaussianPulse
from slhnet.hilbert import (
    basis_vector,
    density_from_vector,
    destroy,
    identity,
    number,
    op_close,
    sigma_minus,
    sigma_plus,
    sigma_z,
)
from slhnet.linear import (
    abcd_to_slh,
    extract_linear,
    quadrature_transform,
    realizability_check,
    tla_reflection,
)
from slhnet.netlang import parse, print_network
from slhnet.reduction import decompose, eliminate, eliminate_triple, projector_from_states
from slhnet.slh import SLHTriple, concat, feedback, feedback_multi, pad, permute_ports, series, triples_close

NETWORKS = Path(__file__).resolve().parent.parent / "networks"
TOL_GOLD = 1e-10


def report(tag):
    print(f"ACCEPTANCE {tag}: PASS")


# =========================================================================
# 1. composition golden set


class TestCriterion1CompositionGoldenSet:
    t_start = None

    @classmethod
    def setup_class(cls):
        cls.t_start = time.perf_counter()

    @classmethod
    def teardown_class(cls):
        elapsed = time.perf_counter() - cls.t_start
        assert elapsed < 10.0, f"composition golden set took {elapsed:.1f} s"
        report(f"1 runtime ({elapsed:.2f} s < 10 s)")

    def test_1a_two_cavity_series(self):
        g1, g2, d1, d2 = 2.0, 3.0, 0.5, -0.7
        casc = series(
            one_sided_cavity(g2, d2, truncation=6, label="c2"),
            one_sided_cavity(g1, d1, truncation=6, label="c1"),
        )
        a1, a2 = destroy("c1", 6), destroy("c2", 6)
        assert op_close(casc.S[0, 0], identity(casc.space), TOL_GOLD)
        assert op_close(casc.L[0], np.sqrt(g1) * a1 + np.sqrt(g2) * a2, TOL_GOLD)
        want_h = (
            d1 * a1.dag() * a1 + d2 * a2.dag() * a2
            + (np.sqrt(g1 * g2) / 2j) * (a2.dag() * a1 - a1.dag() * a2)
        )
        assert op_close(casc.H, want_h, TOL_GOLD)
        report("1a two-cavity series product")

    def test_1b_two_sided_cavity_feedback(self):
        gam1, gam2, delta = 1.3, 0.8, 0.4
        a = destroy("m", 6)
        g = SLHTriple(
            [[1, 0], [0, 1]], [np.sqrt(gam1) * a, 1j * np.sqrt(gam2) * a], delta * a.dag() * a
        )
        red = feedback(g, 1, 2).triple
        assert op_close(red.S[0, 0], identity(red.space), TOL_GOLD)
        assert op_close(red.L[0], (np.sqrt(gam1) + 1j * np.sqrt(gam2)) * a, TOL_GOLD)
        assert op_close(red.H, (delta - np.sqrt(gam1 * gam2)) * a.dag() * a, TOL_GOLD)
        report("1b feedback on the two-sided cavity")

    def test_1c_multiport_network_reduction(self):
        # four-component loop closed in one block feedback reduction
        phi = 0.6
        a1, a2 = destroy("f1", 6), destroy("f2", 6)
        k1, k2, k5, k6 = 1.1, 0.7, 0.9, 1.3
        d1, d2 = 0.4, -0.2
        G1 = SLHTriple([[1, 0], [0, 1]], [np.sqrt(k1) * a1, np.sqrt(k2) * a1], d1 * a1.dag() * a1)
        G4 = SLHTriple([[1, 0], [0, 1]], [np.sqrt(k5) * a2, np.sqrt(k6) * a2], d2 * a2.dag() * a2)
        net = concat(concat(concat(G1, phase_shifter(phi)), phase_shifter(phi)), G4)
        red = feedback_multi(net, [(1, 3), (3, 5), (6, 4), (4, 2)]).triple
        red = permute_ports(red, [2, 1], "outputs")  # survivor rows to reference order
        ph = np.exp(1j * phi)
        L1, L2, L5, L6 = np.sqrt(k1) * a1, np.sqrt(k2) * a1, np.sqrt(k5) * a2, np.sqrt(k6) * a2
        assert op_close(red.L[0], L5 + ph * L1, TOL_GOLD)
        assert op_close(red.L[1], L2 + ph * L6, TOL_GOLD)
        want_h = (
            d1 * a1.dag() * a1 + d2 * a2.dag() * a2
            + (1 / 2j) * (ph * L1 * L5.dag() - np.conj(ph) * L1.dag() * L5
                          + ph * L2.dag() * L6 - np.conj(ph) * L2 * L6.dag())
        )
        assert op_close(red.H, want_h, TOL_GOLD)
        for i in range(2):
            for j in range(2):
                want = ph * identity(red.space) if i == j else 0.0 * identity(red.space)
                assert op_close(red.S[i, j], want, TOL_GOLD)
        report("1c multi-port network reduction")

    def test_1d_beamsplitter_interrupted_cascade(self):
        gamma1, gamma2, d1, d2, eta = 2.0, 3.0, 0.5, -0.7, 0.6
        c1 = one_sided_cavity(gamma1, d1, truncation=6, label="c1")
        c2 = one_sided_cavity(gamma2, d2, truncation=6, label="c2")
        bs = beamsplitter(eta=eta)
        net = series(pad(c2, 1, "after"), series(bs, pad(c1, 1, "after")))
        a1, a2 = destroy("c1", 6), destroy("c2", 6)
        t = np.sqrt(1 - eta**2)
        assert op_close(net.L[0], np.sqrt(gamma2) * a2 + t * np.sqrt(gamma1) * a1, TOL_GOLD)
        assert op_close(net.L[1], eta * np.sqrt(gamma1) * a1, TOL_GOLD)
        want_h = (
            d1 * a1.dag() * a1 + d2 * a2.dag() * a2
            + (t * np.sqrt(gamma1 * gamma2) / 2j) * (a2.dag() * a1 - a1.dag() * a2)
        )
        assert op_close(net.H, want_h, TOL_GOLD)
        S = np.array([[net.S[i, j].constant().toarray()[0, 0] for j in range(2)] for i in range(2)])
        assert np.abs(S - np.array([[t, -eta], [eta, t]])).max() < TOL_GOLD
        report("1d beamsplitter-interrupted cascade")

    def test_1e_counter_vs_co_propagation(self):
        gamma1, gamma2, d1, d2, phi = 1.1, 0.6, 0.2, -0.3, 0.77
        s1, s2 = sigma_minus("atoms.q1"), sigma_minus("atoms.q2")
        half = np.sqrt(gamma1 * gamma2) / 2
        exch = s1 * s2.dag() + s1.dag() * s2
        anti = s1 * s2.dag() - s1.dag() * s2
        base_h = -0.5 * d2 * sigma_z("atoms.q2") - 0.5 * d1 * sigma_z("atoms.q1")

        counter = build_counterpropagating_pair(gamma1, gamma2, d1, d2, phi)
        gr = series(
            SLHTriple(1, [np.sqrt(gamma2 / 2) * s2], -0.5 * d2 * sigma_z("atoms.q2")),
            series(phase_shifter(phi), SLHTriple(1, [np.sqrt(gamma1 / 2) * s1], -0.5 * d1 * sigma_z("atoms.q1"))),
        )
        gl = series(
            SLHTriple(1, [np.sqrt(gamma1 / 2) * s1], 0.0),
            series(phase_shifter(phi), SLHTriple(1, [np.sqrt(gamma2 / 2) * s2], 0.0)),
        )
        assert triples_close(counter, concat(gr, gl), TOL_GOLD)
        assert op_close(counter.H, base_h + half * np.sin(phi) * exch, TOL_GOLD)

        co = build_copropagating_pair(gamma1, gamma2, d1, d2, phi)
        want_co_h = base_h + half * np.sin(phi) * exch + (half / 1j) * np.cos(phi) * anti
        assert op_close(co.H, want_co_h, TOL_GOLD)
        # counter-propagation: the phase sits on different atoms per row
        ph = np.exp(1j * phi)
        assert op_close(counter.L[0], np.sqrt(gamma2 / 2) * s2 + ph * np.sqrt(gamma1 / 2) * s1, TOL_GOLD)
        assert op_close(counter.L[1], np.sqrt(gamma1 / 2) * s1 + ph * np.sqrt(gamma2 / 2) * s2, TOL_GOLD)
        assert op_close(co.L[0], co.L[1], TOL_GOLD)
        report("1e counter- vs co-propagating atom pair")


# =========================================================================
# 2. order independence of multi-port elimination


def test_criterion2_feedback_order_independence():
    rng = np.random.default_rng(7)
    wiring = [(1, 3), (4, 2)]
    orders = [(0, 1), (1, 0)]
    for trial in range(20):
        g = random_triple(rng, n_ports=4, dim=4, label=f"m")
        once = feedback_multi(g, wiring).triple
        for order in orders:
            seq = g
            out_map = {k: k for k in range(1, 5)}
            in_map = {k: k for k in range(1, 5)}
            for idx in order:
                x, y = wiring[idx]
                res = feedback(seq, out_map[x], in_map[y])
                seq = res.triple
                out_map = {o: res.out_map[c] for o, c in out_map.items() if c in res.out_map}
                in_map = {o: res.in_map[c] for o, c in in_map.items() if c in res.in_map}
            assert triples_close(once, seq, 1e-8)
    report("2 feedback order independence (20 random 4-port triples)")


# =========================================================================
# 3. dynamics


class TestCriterion3Dynamics:
    def test_3a_cavity_decay(self):
        gamma = 1.7
        cav = one_sided_cavity(gamma, 0.0, truncation=6, label="c")
        rho0 = density_from_vector(cav.space, basis_vector(cav.space, {"c": 1}))
        ts = np.linspace(0, 5 / gamma, 100)
        traj = evolve_density(liouvillian(cav), rho0, (0, 5 / gamma), ts)
        err = np.abs(traj.expect(number("c", 6)).real - np.exp(-gamma * ts)).max()
        assert err < 1e-7
        report(f"3a cavity decay vs analytic (max err {err:.1e} < 1e-7)")

    def test_3b_driven_steady_state_two_routes(self):
        gamma, delta, alpha = 2.0, 0.3, 0.25
        cav = one_sided_cavity(gamma, delta, truncation=15, label="c")
        want = -np.sqrt(gamma) * alpha / (gamma / 2 + 1j * delta)

        gen_direct = liouvillian_coherent(cav, alpha)
        got_direct = steady_state(gen_direct).expect(destroy("c", 15))
        assert abs(got_direct - want) < 1e-8

        gen_cascade = liouvillian(series(cav, coherent_source(alpha)))
        got_cascade = steady_state(gen_cascade).expect(destroy("c", 15))
        assert abs(got_cascade - want) < 1e-8

        builder_diff = np.abs((gen_direct.matrix(0.0) - gen_cascade.matrix(0.0)).toarray()).max()
        assert builder_diff < 1e-8
        report(f"3b driven steady state, both builders (diff {builder_diff:.1e})")

    def test_3c_thermal_occupation(self):
        N = 0.5
        cav = one_sided_cavity(1.0, 0.0, truncation=25, label="c")
        ss = steady_state(liouvillian_gaussian(cav, GaussianEnv(N=N)))
        err = abs(ss.expect(number("c", 25)).real - N)
        assert err < 1e-8
        report(f"3c thermal steady occupation (err {err:.1e} < 1e-8)")

    def test_3d_lindblad_trace_derivative(self):
        rng = np.random.default_rng(3)
        g = random_triple(rng, n_ports=2, dim=5)
        gen = liouvillian(g)
        worst = 0.0
        for _ in range(10):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            drho = (gen.matrix(0.0) @ rho.reshape(-1)).reshape(5, 5)
            worst = max(worst, abs(np.trace(drho)))
        assert worst < 1e-12
        report(f"3d trace derivative on random states ({worst:.1e} < 1e-12)")


# =========================================================================
# 4. Fock hierarchy


def test_criterion4_single_photon_on_atom():
    t0 = time.perf_counter()
    gamma = 1.0
    atom = SLHTriple(1, [np.sqrt(gamma) * sigma_minus("q")], 0.0)
    pulse = GaussianPulse(t0=5.0 / gamma, sigma=1.0 / gamma)  # ~4/gamma duration
    hier = fock_hierarchy(atom, pulse, 1)
    rho0 = density_from_vector(atom.space, basis_vector(atom.space, {"q": 0}))
    t_end = 12.0 / gamma
    ts = np.linspace(0.0, t_end, 601)
    times, states = evolve_hierarchy(hier, rho0, (0.0, t_end), ts)

    exc = states.expect(sigma_plus("q") * sigma_minus("q")).real
    flux = hier.mean_photon_flux(states, times)
    total = exc[-1] + simpson(flux, x=times)
    assert abs(total - 1.0) < 1e-4

    vac = evolve_density(liouvillian(atom), rho0, (0.0, t_end), ts, truncation_guard=None)
    block_err = max(
        (states[k].blocks[(0, 0)] - vac.states[k]).max_abs() for k in range(len(ts))
    )
    assert block_err < 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        f"4 Fock hierarchy (excitation+flux-1 = {total - 1:.1e}, "
        f"block(0,0) err {block_err:.1e}, {elapsed:.1f} s < 30 s)"
    )


# =========================================================================
# 5. linear analysis


class TestCriterion5Linear:
    def test_5a_cavity_abcd_exact(self):
        gamma, delta = 2.0, 0.5
        mod = extract_linear(one_sided_cavity(gamma, delta, truncation=7, label="c"))
        assert mod.form == "passive"
        assert abs(mod.A[0, 0] + (gamma / 2 + 1j * delta)) < TOL_GOLD
        assert abs(mod.B[0, 0] + np.sqrt(gamma)) < TOL_GOLD
        assert abs(mod.C[0, 0] - np.sqrt(gamma)) < TOL_GOLD
        assert abs(mod.D[0, 0] - 1.0) < TOL_GOLD
        report("5a cavity ABCD values")

    @staticmethod
    def _opo_network(kappa, eps, eta):
        # catalog OPO carries H = (i/2)(E a^2+ - E* a^2): E = 2 eps
        opo = degenerate_opo(kappa, 2 * eps, truncation=10, label="o")
        bs = beamsplitter(entries=[[-np.sqrt(1 - eta**2), eta], [eta, np.sqrt(1 - eta**2)]])
        return feedback(feedback(concat(opo, bs), 1, 2).triple, 1, 1).triple

    def test_5b_opo_feedback_matrices(self):
        for kappa, eps, eta in ((2.0, 0.3, 0.6), (1.0, 0.1, 0.3), (3.0, 0.5, 0.9)):
            l = eta / (1 + np.sqrt(1 - eta**2))
            mod = extract_linear(self._opo_network(kappa, eps, eta))
            assert mod.form == "active"
            want_A = np.array([[-l**2 * kappa / 2, eps], [eps, -l**2 * kappa / 2]])
            assert np.abs(mod.A - want_A).max() < TOL_GOLD
            assert np.abs(mod.B + l * np.sqrt(kappa) * np.eye(2)).max() < TOL_GOLD
            assert np.abs(mod.C - l * np.sqrt(kappa) * np.eye(2)).max() < TOL_GOLD
            assert np.abs(mod.D - np.eye(2)).max() < TOL_GOLD
        report("5b squeezing-feedback ABCD matrices at three parameter sets")

    def test_5c_quadrature_transfer_function(self):
        kappa, eps, eta = 2.0, 0.3, 0.6
        l = eta / (1 + np.sqrt(1 - eta**2))
        q = quadrature_transform(extract_linear(self._opo_network(kappa, eps, eta)))
        rng = np.random.default_rng(17)
        samples = [0.0, 1j, 0.5] + list(rng.normal(size=7) + 1j * rng.normal(size=7))
        worst = 0.0
        for s in samples:
            got = q.transfer_function(s)
            want = np.diag([
                (s - eps - l**2 * kappa / 2) / (s - eps + l**2 * kappa / 2),
                (s + eps - l**2 * kappa / 2) / (s + eps + l**2 * kappa / 2),
            ])
            worst = max(worst, np.abs(got - want).max())
        assert worst < TOL_GOLD
        report(f"5c quadrature transfer function at 10 points (err {worst:.1e})")

    def test_5d_realizability_of_extracted_models(self):
        from slhnet.components import fabry_perot, two_mode_squeezer

        models = [
            extract_linear(one_sided_cavity(1.3, 0.7, truncation=5, label="c")),
            extract_linear(fabry_perot(1.0, 0.5, 0.2, truncation=5, label="f")),
            extract_linear(self._opo_network(2.0, 0.3, 0.6)),
            extract_linear(two_mode_squeezer(1.0, 1.5, 0.4, truncation=5, label="s")),
        ]
        for mod in models:
            rep = realizability_check(mod)
            assert rep.passed(1e-9), str(rep)
        report("5d realizability conditions on every extracted model")

    def test_5e_abcd_round_trip(self):
        for g in (
            one_sided_cavity(2.0, 0.5, truncation=8, label="m"),
            self._opo_network(2.0, 0.3, 0.6),
        ):
            mod = extract_linear(g)
            back = abcd_to_slh(mod, truncation=max(d for _, d in g.space.factors),
                               labels=g.space.labels)
            assert triples_close(back, g, TOL_GOLD)
        report("5e ABCD -> SLH round trip")


# =========================================================================
# 6. single-photon S-matrix vs Fock simulation


def test_criterion6_single_photon_smatrix():
    gamma, delta = 1.0, 0.4
    assert abs(tla_reflection(gamma, delta, delta) + 1.0) < 1e-12
    rng = np.random.default_rng(23)
    for _ in range(40):
        omega = rng.normal() * 10
        assert abs(abs(tla_reflection(gamma, delta, omega)) - 1.0) < 1e-12

    # resonant Fock-driven run: everything comes back out (consistency
    # with unimodularity; the analytic element is monochromatic)
    atom = SLHTriple(1, [np.sqrt(gamma) * sigma_minus("q")], 0.0)
    pulse = GaussianPulse(t0=6.0, sigma=1.2)
    hier = fock_hierarchy(atom, pulse, 1)
    rho0 = density_from_vector(atom.space, basis_vector(atom.space, {"q": 0}))
    ts = np.linspace(0, 16.0, 801)
    times, states = evolve_hierarchy(hier, rho0, (0, 16.0), ts)
    flux = hier.mean_photon_flux(states, times)
    out_total = simpson(flux, x=times) + states[-1].expect(sigma_plus("q") * sigma_minus("q")).real
    assert abs(out_total - 1.0) < 1e-3
    report(f"6 single-photon S-matrix + resonant flux (integral err {out_total - 1:.1e})")


# =========================================================================
# 7. adiabatic elimination


class TestCriterion7Elimination:
    def test_7a_worked_example_values(self):
        # strongly damped cavity holding an atom; eliminating the cavity
        # leaves S = diag(-P0, P0), L = [0; 0], H = 0 on the atom space
        k = 1e11
        a = destroy("cav", 6)
        sm = sigma_minus("atom")
        g = SLHTriple(
            [[1, 0], [0, 1]],
            [np.sqrt(k**2) * a, 0.0 * sm],
            1.0 * (a.dag() * sm + a * sm.dag()),
        )
        P0 = projector_from_states(g.space, {"cav": 0, "atom": None})
        red = eliminate(decompose(g, P0))
        eye = np.eye(2)
        assert np.abs(red.S[0, 0].constant().toarray() + eye).max() < TOL_GOLD
        assert np.abs(red.S[1, 1].constant().toarray() - eye).max() < TOL_GOLD
        assert red.S[0, 1].max_abs() < TOL_GOLD
        assert red.S[1, 0].max_abs() < TOL_GOLD
        assert red.L[0].max_abs() < TOL_GOLD
        assert red.L[1].max_abs() < TOL_GOLD
        assert red.H.max_abs() < TOL_GOLD
        report("7a atom-cavity worked example: S = diag(-P0, P0), L = 0, H = 0")

    def test_7b_commutes_with_concatenation(self):
        k = 1e5

        def sys(kappa, g0, gamma, prefix):
            a = destroy(f"{prefix}cav", 6)
            sm = sigma_minus(f"{prefix}atom")
            return SLHTriple(
                [[1, 0], [0, 1]],
                [np.sqrt(kappa) * a, np.sqrt(gamma) * sm],
                g0 * (a.dag() * sm + a * sm.dag()),
            )

        ga = sys(k**2, 1.0, 0.2, "a.")
        gb = sys(0.7 * k**2, 0.9, 0.0, "b.")
        red_a = eliminate_triple(ga, projector_from_states(ga.space, {"a.cav": 0, "a.atom": None}),
                                 unitarity_tol=1e-8)
        red_b = eliminate_triple(gb, projector_from_states(gb.space, {"b.cav": 0, "b.atom": None}),
                                 unitarity_tol=1e-8)
        both = concat(ga, gb)
        red_ab = eliminate_triple(
            both,
            projector_from_states(both.space, {"a.cav": 0, "a.atom": None, "b.cav": 0, "b.atom": None}),
            unitarity_tol=1e-8,
        )
        assert triples_close(red_ab, concat(red_a, red_b), 1e-8)
        report("7b elimination commutes with concatenation (1e-8)")

    def test_7c_convergence_over_k(self):
        kappa0, g0 = 1.0, 1.0
        ts = np.linspace(0, 2.0, 41)
        errors = []
        for k in (3.0, 5.0, 10.0):
            a = destroy("cav", 4)
            sm = sigma_minus("atom")
            full = SLHTriple(1, [np.sqrt(k**2 * kappa0) * a], k * g0 * (a.dag() * sm + a * sm.dag()))
            rho0 = density_from_vector(full.space, basis_vector(full.space, {"atom": 1}))
            n_q = sigma_plus("atom") * sigma_minus("atom")
            traj_full = evolve_density(liouvillian(full), rho0, (0, 2.0), ts, truncation_guard=None)
            red = eliminate_triple(full, projector_from_states(full.space, {"cav": 0, "atom": None}),
                                   unitarity_tol=1.0)
            rho0r = density_from_vector(red.space, basis_vector(red.space, {"atom": 1}))
            traj_red = evolve_density(liouvillian(red), rho0r, (0, 2.0), ts, truncation_guard=None)
            errors.append(np.abs(traj_full.expect(n_q).real - traj_red.expect(n_q).real).mean())
        assert errors[0] > errors[1] > errors[2]
        report(f"7c full-vs-reduced trajectory error falls monotonically: "
               f"{errors[0]:.2e} > {errors[1]:.2e} > {errors[2]:.2e}")


# =========================================================================
# 8. front end


class TestCriterion8FrontEnd:
    def test_8a_parse_print_parse_fixpoint_on_corpus(self):
        count = 0
        for path in sorted(NETWORKS.glob("*.qnet")):
            nd = parse(path.read_text())
            printed = print_network(nd)
            assert parse(printed) == nd, path.name
            assert print_network(parse(printed)) == printed, path.name
            count += 1
        assert count >= 7
        report(f"8a parse-print-parse fixpoint on {count} corpus files")

    def test_8b_compose_byte_matches_golden(self, capsys):
        code = cli_main(["compose", str(NETWORKS / "vec_elim_loop.qnet")])
        out, _ = capsys.readouterr()
        assert code == 0
        golden = (NETWORKS / "golden" / "vec_elim_loop.slh.json").read_text()
        assert out == golden
        report("8b compose byte-matches the golden JSON")

    def test_8c_malformed_inputs_diagnosed(self, tmp_path, capsys):
        cases = [
            ("component c = cavty(gamma=1.0);", "1:11"),
            ("component c = one_sided_cavity(gamma=1.0)", "1:4"),
            ("component c = phase_shifter(phi=0.0);\nwire c.out[2] -> c.in[1];", "2:"),
        ]
        for text, position_fragment in cases:
            f = tmp_path / "bad.qnet"
            f.write_text(text)
            code = cli_main(["compose", str(f)])
            _, err = capsys.readouterr()
            assert code == 2
            assert position_fragment in err or "expected" in err
        report("8c malformed inputs: positioned diagnostics, exit code 2")
