from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_hermitian, random_triple

from slhnet.components import (
    coherent_source,
    coherent_source_cavity,
    kerr_cavity,
    one_sided_cavity,
    phase_shifter,
)
from slhnet.dynamics import (
    DensityState,
    DensityTrajectory,
    GaussianEnv,
    Superoperator,
    _RealCoordinates,
    _driven,
    _sandwich,
    evolve_density,
    evolve_hierarchy,
    fock_hierarchy,
    format_value,
    heisenberg_coefficients,
    integrate,
    lindblad_dissipator,
    liouvillian,
    liouvillian_coherent,
    liouvillian_gaussian,
    output_relations,
    spost,
    spre,
    steady_state,
    trajectory_csv,
    vectorize,
)
from slhnet.envelopes import GaussianPulse, ScaledEnvelope
from slhnet.errors import (
    ConstructionError,
    SteadyStateError,
    TraceDriftError,
    TruncationGuardError,
    UnsupportedConfigurationError,
    ValidationError,
)
from slhnet.hilbert import (
    TRUNC_GUARD,
    LabeledSpace,
    Operator,
    basis_vector,
    density_from_vector,
    destroy,
    identity,
    make_elementary,
    number,
    op_close,
    sigma_minus,
)
from slhnet.netlang import elaborate, parse
from slhnet.slh import SLHTriple, concat, series

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def fock_density(space, occ):
    return density_from_vector(space, basis_vector(space, occ))


class TestVacuumMasterEquation:
    def test_cavity_decay_analytic(self):
        gamma = 1.7
        cav = one_sided_cavity(gamma, 0.0, truncation=6, label="c")
        gen = liouvillian(cav)
        rho0 = fock_density(cav.space, {"c": 1})
        ts = np.linspace(0, 5 / gamma, 80)
        traj = evolve_density(gen, rho0, (0, 5 / gamma), ts)
        err = np.abs(traj.expect(number("c", 6)).real - np.exp(-gamma * ts)).max()
        assert err < 1e-7

    def test_trace_derivative_vanishes(self, rng):
        g = random_triple(rng, n_ports=2, dim=5)
        gen = liouvillian(g)
        for _ in range(5):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            drho = (gen.matrix(0.0) @ rho.reshape(-1)).reshape(5, 5)
            assert abs(np.trace(drho)) < 1e-12

    def test_zero_generator_keeps_state(self):
        space = LabeledSpace([("c", 4)])
        gen = Superoperator(space)
        rho0 = fock_density(space, {"c": 2})
        traj = evolve_density(gen, rho0, (0, 3.0), np.linspace(0, 3, 7), truncation_guard=None)
        assert (traj.states[-1] - rho0).max_abs() < 1e-12

    def test_hermiticity_preserved(self, rng):
        g = random_triple(rng, n_ports=1, dim=4)
        gen = liouvillian(g)
        rho0 = fock_density(g.space, {"m": 1})
        traj = evolve_density(gen, rho0, (0, 2.0), np.linspace(0, 2, 21), truncation_guard=None)
        worst = max((s - s.dag()).max_abs() for s in traj.states)
        assert worst < 1e-9


class TestCoherentDrive:
    def test_zero_drive_is_vacuum(self):
        cav = one_sided_cavity(2.0, 0.3, truncation=5, label="c")
        lv = liouvillian(cav)
        lc = liouvillian_coherent(cav, 0.0)
        assert np.abs((lv.matrix(0) - lc.matrix(0)).toarray()).max() < 1e-14

    def test_driven_cavity_steady_state(self):
        gamma, alpha = 2.0, 0.25
        cav = one_sided_cavity(gamma, 0.0, truncation=12, label="c")
        gen = liouvillian_coherent(cav, alpha)
        ss = steady_state(gen)
        want = -2.0 * alpha / np.sqrt(gamma)
        assert abs(ss.expect(destroy("c", 12)) - want) < 1e-8

    def test_equals_cascaded_source_on_kerr_cavity(self):
        # the drive builder's port-1 wiring against the series product written out
        g = kerr_cavity(1.5, 0.2, 0.3, truncation=7, label="k")
        env = GaussianPulse(t0=2.0, sigma=0.8)
        direct = liouvillian_coherent(g, env)
        cascaded = liouvillian(series(g, coherent_source(1.0, env)))
        for t in (0.0, 0.9, 2.0, 2.7, 4.0):
            diff = np.abs((direct.matrix(t) - cascaded.matrix(t)).toarray()).max()
            assert diff < 1e-8

    def test_multiport_drive_selects_column(self):
        from slhnet.components import fabry_perot
        from slhnet.slh import pad

        g = fabry_perot(1.0, 0.5, 0.2, truncation=5, label="m")
        direct = liouvillian_coherent(g, 0.3, port=2)
        src = concat(coherent_source(0.3), coherent_source(0.0))
        # drive port 2: cascade (1 padding, source) into the two ports
        src = concat(coherent_source(0.0), coherent_source(0.3))
        cascaded = liouvillian(series(g, src))
        assert np.abs((direct.matrix(0) - cascaded.matrix(0)).toarray()).max() < 1e-12


def _operator_valued_two_port(rng, d=4):
    """Two ports whose S entries are dense operators: the blocks of a random
    2d x 2d unitary."""
    a = destroy("m", d)
    m = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    q, _ = np.linalg.qr(m)
    S = [[Operator(a.space, q[i * d:(i + 1) * d, j * d:(j + 1) * d]) for j in range(2)] for i in range(2)]
    return SLHTriple(S, [0.7 * a + 0.2j * a.dag(), 0.4 * a], 0.3 * a.dag() * a + 0.1 * (a * a + a.dag() * a.dag()))


def _dense_driven_generator(g, amplitudes, rho):
    """-i[H, rho] + sum_i D[L_i] rho + [D_i rho, L_i^] + [L_i, rho D_i^]
    + sum_i D_i rho D_i^ - |u|^2 rho, all in dense numpy, where D_i =
    sum_j S_ij u_j is what the drive u (port j -> alpha_j) sends to output i."""
    H = g.H.toarray()
    out = -1j * (H @ rho - rho @ H)
    for i, L in enumerate(g.L):
        L = L.toarray()
        Ld = L.conj().T
        D = sum(g.S[i, j - 1].toarray() * alpha for j, alpha in amplitudes.items())
        Dd = D.conj().T
        out += L @ rho @ Ld - 0.5 * (Ld @ L @ rho + rho @ Ld @ L)
        out += (D @ rho @ Ld - Ld @ D @ rho) + (L @ rho @ Dd - rho @ Dd @ L)
        out += D @ rho @ Dd
    return out - sum(abs(alpha) ** 2 for alpha in amplitudes.values()) * rho


class TestDriveOracle:
    """The wired-source generator against the drive formula in dense numpy."""

    @pytest.mark.parametrize("case, port", [
        ("operator_S", 1), ("operator_S", 2), ("fabry_perot", 2),
        pytest.param("operator_S", "both", id="operator_S-both"),
        pytest.param("fabry_perot", "both", id="fabry_perot-both"),
    ])
    @pytest.mark.parametrize("pulsed", [False, True], ids=["constant", "gaussian"])
    def test_matches_dense_drive_formula(self, rng, case, port, pulsed):
        # "both": alpha on port 2 beside a constant drive on port 1
        from slhnet.components import fabry_perot

        g = _operator_valued_two_port(rng) if case == "operator_S" else fabry_perot(1.0, 0.5, 0.2, truncation=5, label="m")
        d = g.space.total_dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        alpha = ScaledEnvelope(0.4 - 0.3j, GaussianPulse(t0=2.0, sigma=0.8)) if pulsed else 0.3 - 0.2j
        drives = {2: alpha, 1: 0.1 + 0.25j} if port == "both" else {port: alpha}
        gen = liouvillian(_driven(g, drives)) if port == "both" else liouvillian_coherent(g, alpha, port=port)
        for t in (0.0, 0.9, 2.0, 2.7, 4.0) if pulsed else (0.0,):
            u = {j: a(t) if pulsed and a is alpha else a for j, a in drives.items()}
            got = (gen.matrix(t) @ rho.reshape(-1)).reshape(d, d)
            assert np.abs(got - _dense_driven_generator(g, u, rho)).max() <= 1e-12


class TestDrivenTriple:
    """``_driven`` wires one displacement source per driven port."""

    def _cascade(self):
        return elaborate(parse((NETWORKS / "beamsplitter_cascade.qnet").read_text())).triple

    def test_port_names_survive_the_wiring(self):
        g = self._cascade()
        assert g.input_names == ("drive", "vac")
        assert _driven(g, {1: 0.2}).input_names == ("drive", "vac")
        assert _driven(g, {1: 0.2, 2: 0.1j}).input_names == ("drive", "vac")
        assert _driven(g, {}) is g

    def test_drive_on_port_2_moves_its_source_first(self):
        # the sources lead the concat, so the driven port comes first
        g = self._cascade()
        driven = _driven(g, {2: 0.1j})
        assert driven.input_names == ("vac", "drive")
        assert driven.output_names == g.output_names
        # the columns of S swap with the ports they belong to
        for i in range(g.n_ports):
            assert op_close(driven.S[i, 0], g.S[i, 1])
            assert op_close(driven.S[i, 1], g.S[i, 0])

    def test_one_entry_is_the_single_wire(self, rng):
        from slhnet.slh import feedback_multi

        g = _operator_valued_two_port(rng)
        for port in (1, 2):
            wired = feedback_multi(concat(coherent_source(0.3 - 0.2j), g, check=False),
                                   [(1, port + 1)], check=False).triple
            got, want = liouvillian(_driven(g, {port: 0.3 - 0.2j})).static, liouvillian(wired).static
            assert (got != want).nnz == 0

    def test_order_of_the_amplitudes_does_not_matter(self, rng):
        g = _operator_valued_two_port(rng)
        a = liouvillian(_driven(g, {1: 0.2, 2: -0.1j})).static
        b = liouvillian(_driven(g, {2: -0.1j, 1: 0.2})).static
        assert (a != b).nnz == 0

    def test_port_out_of_range(self):
        with pytest.raises(ValidationError, match="port 3 out of range 1..2"):
            _driven(self._cascade(), {1: 0.2, 3: 0.2})


class TestTermCounts:
    """One term per distinct envelope product: xi, xi* and |xi|^2 at most."""

    def test_cascaded_pulsed_source(self):
        cav = one_sided_cavity(1.0, 0.0, truncation=6, label="cav")
        gen = liouvillian(series(cav, coherent_source(0.4, GaussianPulse(t0=2.0, sigma=0.5))))
        # |xi|^2 (I rho I - rho) is exactly zero behind a unit scattering entry
        assert len(gen.terms) == 2

    def test_source_through_beamsplitter_loop(self):
        from slhnet.components import beamsplitter
        from slhnet.slh import feedback_multi

        cav = one_sided_cavity(1.0, 0.0, truncation=6, label="cav")
        net = concat(coherent_source(0.4, GaussianPulse(t0=2.0, sigma=0.5)), beamsplitter(theta=0.3), cav)
        # source -> splitter in 1, splitter out 1 -> cavity -> splitter in 2
        g = feedback_multi(net, [(1, 2), (2, 4), (4, 3)]).triple
        assert [len(L.terms) for L in g.L] == [1]
        assert len(g.H.terms) == 2
        assert len(liouvillian(g).terms) <= 3

    def test_fock_hierarchy_of_scalar_s_cascade(self):
        casc = series(one_sided_cavity(2.0, 0.5, truncation=5, label="c2"),
                      one_sided_cavity(3.0, -0.7, truncation=5, label="c1"))
        assert len(fock_hierarchy(casc, GaussianPulse(t0=2.0, sigma=0.5), 1).terms) == 2

    def test_pulsed_hamiltonian_through_nested_checked_concats(self):
        a = destroy("x", 3)
        h = (0.3 * a).scaled_by(GaussianPulse(t0=2.0, sigma=0.5))
        g = SLHTriple(1, [a], h + h.dag())
        for k in range(4):
            g = concat(g, one_sided_cavity(1.0, truncation=2, label=f"y{k}"))
            assert len(g.H.terms) == 2


class TestGaussianInput:
    def test_vacuum_limit(self):
        cav = one_sided_cavity(1.0, 0.4, truncation=5, label="c")
        lg = liouvillian_gaussian(cav, GaussianEnv(N=0.0, M=0.0))
        lv = liouvillian(cav)
        assert np.abs((lg.matrix(0) - lv.matrix(0)).toarray()).max() < 1e-14

    def test_thermal_steady_occupation(self):
        N = 0.5
        cav = one_sided_cavity(1.0, 0.0, truncation=25, label="c")
        ss = steady_state(liouvillian_gaussian(cav, GaussianEnv(N=N)))
        assert abs(ss.expect(number("c", 25)).real - N) < 1e-8

    def test_squeezing_boundary_of_inequality(self):
        N = 0.4
        m_max = np.sqrt(N * (N + 1.0))
        GaussianEnv(N=N, M=m_max)  # boundary accepted
        with pytest.raises(ValidationError):
            GaussianEnv(N=N, M=m_max + 1e-6)

    def test_scalar_scattering_required(self):
        a = destroy("c", 4)
        proj = make_elementary("projector", "c", 4, 0, 0)
        s_op = 2.0 * proj - identity(a.space)  # operator-valued but unitary-ish? no:
        # use a genuine operator-valued unitary: diag phases on Fock levels
        phases = np.diag(np.exp(1j * np.arange(4)))
        g = SLHTriple([[Operator(a.space, phases)]], [a], 0.0)
        with pytest.raises(UnsupportedConfigurationError):
            liouvillian_gaussian(g, GaussianEnv(N=0.1))

    @pytest.mark.parametrize("phi", [0.0, np.pi / 2, 0.7], ids=["S=1", "S=i", "S=exp(0.7i)"])
    def test_gaussian_mean_field_matches_coherent(self, phi):
        # with N = M = 0 and mean alpha the Gaussian equation reduces to the
        # coherent-drive one, and both to the source cascaded through S
        cav = series(one_sided_cavity(2.0, 0.3, truncation=6, label="c"), phase_shifter(phi))
        lg = liouvillian_gaussian(cav, GaussianEnv(N=0.0, M=0.0, alpha=0.2))
        for ref in (liouvillian_coherent(cav, 0.2), liouvillian(series(cav, coherent_source(0.2)))):
            assert np.abs((lg.matrix(0) - ref.matrix(0)).toarray()).max() < 1e-12


    def test_squeezed_steady_state_matches_langevin(self):
        # a cavity in a squeezed bath: <aa> = gamma M / (gamma + 2i delta), <a^a> = N
        gamma, delta, N, M = 2.0, 0.3, 0.1, 0.05
        cav = one_sided_cavity(gamma, delta, truncation=20, label="c")
        a = destroy("c", 20)
        ss = steady_state(liouvillian_gaussian(cav, GaussianEnv(N=N, M=M)))
        assert abs(ss.expect(a * a) - gamma * M / (gamma + 2j * delta)) < 1e-12
        assert abs(ss.expect(a.dag() * a) - N) < 1e-12

    def test_scattering_phase_rotates_squeezing(self):
        # a phase s ahead of the cavity rotates M to s^2 M (s = i flips <aa>);
        # behind the cavity it leaves the cavity's bath unchanged
        cav = one_sided_cavity(2.0, 0.3, truncation=20, label="c")
        a = destroy("c", 20)
        env = GaussianEnv(N=0.1, M=0.05)

        def aa(g):
            return steady_state(liouvillian_gaussian(g, env)).expect(a * a)

        ref = aa(cav)
        assert abs(ref) > 0.04
        assert abs(aa(series(cav, phase_shifter(np.pi / 2))) + ref) < 1e-12
        assert abs(aa(series(phase_shifter(np.pi / 2), cav)) - ref) < 1e-12

    def test_admissible_strong_squeezing_gives_a_state(self):
        # |M|^2 = 0.04 <= N(N+1) = 0.11; doubled squeezing terms made the
        # steady state non-positive here
        cav = one_sided_cavity(2.0, 0.3, truncation=20, label="c")
        a = destroy("c", 20)
        ss = steady_state(liouvillian_gaussian(cav, GaussianEnv(N=0.1, M=0.2)))
        assert abs(ss.expect(a * a) - 0.4 / (2.0 + 0.6j)) < 1e-9


class TestSourceModelEquivalence:
    def test_cavity_source_reproduces_displacement_source(self):
        # both source models drive the same downstream cavity; <a> agrees
        alpha = 0.45
        env = GaussianPulse(t0=2.5, sigma=0.6)
        down = one_sided_cavity(1.3, 0.0, truncation=6, label="down")
        ideal = series(down, coherent_source(alpha, env))
        physical = series(down, coherent_source_cavity(alpha, env, truncation=12, label="src"))
        ts = np.linspace(0, 8.0, 81)
        a_down = destroy("down", 6)

        gen1 = liouvillian(ideal)
        rho1 = fock_density(ideal.space, {"down": 0})
        tr1 = evolve_density(gen1, rho1, (0, 8.0), ts, truncation_guard=None)

        gen2 = liouvillian(physical)
        from slhnet.hilbert import coherent_vector, product_density

        rho2 = product_density(physical.space, {"src": coherent_vector(12, alpha)})
        tr2 = evolve_density(gen2, rho2, (0, 8.0), ts, truncation_guard=None)

        err = np.abs(tr1.expect(a_down) - tr2.expect(a_down)).max()
        assert err < 1e-4


class TestHeisenberg:
    def test_cavity_coefficients(self):
        gamma, delta, d = 2.0, 0.5, 7
        cav = one_sided_cavity(gamma, delta, truncation=d, label="c")
        a = destroy("c", d)
        hc = heisenberg_coefficients(cav, a)
        # compare away from the truncation edge
        proj = Operator(a.space, np.diag([1.0] * (d - 1) + [0.0]))
        want_drift = -(1j * delta + gamma / 2) * a
        assert (proj * (hc.drift - want_drift) * proj).max_abs() < 1e-12
        want_db = -np.sqrt(gamma) * identity(a.space)
        assert (proj * (hc.dB[0] - want_db) * proj).max_abs() < 1e-12
        assert hc.dLambda[0, 0].max_abs() < 1e-12

    def test_identity_has_zero_coefficients(self, rng):
        g = random_triple(rng, n_ports=2, dim=4)
        hc = heisenberg_coefficients(g, identity(g.space))
        assert hc.drift.max_abs() < 1e-10
        for j in range(2):
            assert hc.dB[j].max_abs() < 1e-12
            assert hc.dB_dag[j].max_abs() < 1e-12
            for i in range(2):
                assert hc.dLambda[i, j].max_abs() < 1e-10

    def test_beamsplitter_interrupted_cascade(self):
        # noise coefficients for the mode operators of the lossy cascade
        gamma1, gamma2, eta = 2.0, 3.0, 0.6
        from slhnet.components import beamsplitter
        from slhnet.slh import pad

        c1 = one_sided_cavity(gamma1, 0.0, truncation=5, label="c1")
        c2 = one_sided_cavity(gamma2, 0.0, truncation=5, label="c2")
        bs = beamsplitter(eta=eta)
        net = series(pad(c2, 1, "after"), series(bs, pad(c1, 1, "after")))
        a1, a2 = destroy("c1", 5), destroy("c2", 5)
        d = 5 * 5
        proj1 = Operator(a1.space, np.diag([1.0] * 4 + [0.0]))
        proj2 = Operator(a2.space, np.diag([1.0] * 4 + [0.0]))
        proj = proj1 * proj2

        hc1 = heisenberg_coefficients(net, a1)
        t = np.sqrt(1 - eta**2)
        assert (proj * (hc1.dB[0] + np.sqrt(gamma1) * identity(net.space)) * proj).max_abs() < 1e-10
        assert (proj * hc1.dB[1] * proj).max_abs() < 1e-10

        hc2 = heisenberg_coefficients(net, a2)
        assert (proj * (hc2.dB[0] + t * np.sqrt(gamma2) * identity(net.space)) * proj).max_abs() < 1e-10
        # [L^, a2] S = (-sqrt(g2), 0) B: the second entry is +eta sqrt(g2)
        assert (proj * (hc2.dB[1] - eta * np.sqrt(gamma2) * identity(net.space)) * proj).max_abs() < 1e-10
        # drift of a2 is driven by a1 through the transmitted amplitude
        want = -(gamma2 / 2) * a2 - t * np.sqrt(gamma1 * gamma2) * a1
        assert (proj * (hc2.drift - want) * proj).max_abs() < 1e-10

    def test_ehrenfest_consistency(self, rng):
        # tr(X L rho) = tr(drift rho): one port; two ports with
        # operator-valued S; and those two ports with a Gaussian-pulse
        # coherent drive on port 1, read mid-pulse
        pulse = ScaledEnvelope(0.6 - 0.3j, GaussianPulse(t0=2.0, sigma=0.5))
        two_port = _operator_valued_two_port(rng)
        cases = [
            (random_triple(rng, n_ports=1, dim=4), 0.0),
            (two_port, 0.0),
            (_driven(two_port, {1: pulse}), 1.7),
        ]
        for g, t in cases:
            gen = liouvillian(g)
            X = random_hermitian(rng, g.space)
            hc = heisenberg_coefficients(g, X)
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            drho = (gen.matrix(t) @ rho.reshape(-1)).reshape(4, 4)
            lhs = np.trace(X.constant().toarray() @ drho)
            rhs = np.trace(hc.drift.toarray(t) @ rho)
            assert abs(lhs - rhs) < 1e-10


class TestOutputRelations:
    def test_cavity(self):
        cav = one_sided_cavity(2.0, 0.0, truncation=5, label="c")
        rel = output_relations(cav)
        assert op_close(rel.L[0], np.sqrt(2.0) * destroy("c", 5))
        assert op_close(rel.S[0, 0], identity(cav.space))
        gauge = rel.gauge_coefficient(1, 1)
        assert op_close(gauge.dt, 2.0 * number("c", 5))

    def test_pure_beamsplitter_has_no_coupling_term(self):
        from slhnet.components import beamsplitter

        rel = output_relations(beamsplitter(eta=0.3))
        assert all(x.max_abs() == 0.0 for x in rel.L)

    def test_cascade_coupling_term(self):
        g1, g2 = 2.0, 3.0
        casc = series(
            one_sided_cavity(g2, 0.0, truncation=5, label="c2"),
            one_sided_cavity(g1, 0.0, truncation=5, label="c1"),
        )
        rel = output_relations(casc)
        want = np.sqrt(g1) * destroy("c1", 5) + np.sqrt(g2) * destroy("c2", 5)
        assert op_close(rel.L[0], want)


class TestIntegrator:
    def test_fixed_step_reproducible(self):
        cav = one_sided_cavity(1.0, 0.2, truncation=5, label="c")
        gen = liouvillian_coherent(cav, 0.2)
        rho0 = fock_density(cav.space, {"c": 0})
        ts = np.linspace(0, 4, 9)
        runs = [
            evolve_density(gen, rho0, (0, 4), ts, method="fixed", dt=0.01, truncation_guard=None)
            for _ in range(2)
        ]
        csvs = [
            trajectory_csv(r.times, {"n": r.expect(number("c", 5))}) for r in runs
        ]
        assert csvs[0] == csvs[1]

    def test_convergence_with_tolerances(self):
        # single long segment so the sampling interval does not cap the
        # step size; halving tolerances must tighten the endpoint error
        gamma = 1.0
        cav = one_sided_cavity(gamma, 0.0, truncation=4, label="c")
        gen = liouvillian(cav)
        rho0 = fock_density(cav.space, {"c": 1})
        ts = [0.0, 5.0]
        errs = []
        for atol, rtol in ((1e-2, 1e-1), (1e-6, 1e-5), (1e-10, 1e-9)):
            traj = evolve_density(
                gen, rho0, (0, 5), ts, atol=atol, rtol=rtol, truncation_guard=None
            )
            errs.append(abs(traj.expect(number("c", 4)).real[-1] - np.exp(-gamma * 5.0)))
        assert errs[0] >= errs[1] >= errs[2]

    def test_trace_drift_aborts(self):
        space = LabeledSpace([("c", 3)])
        # non-trace-preserving generator: d rho/dt = rho
        gen = Superoperator(space, np.eye(9))
        rho0 = fock_density(space, {"c": 0})
        with pytest.raises(TraceDriftError):
            evolve_density(gen, rho0, (0, 1.0), np.linspace(0, 1, 5), truncation_guard=None)

    def test_truncation_guard_names_label(self):
        cav = one_sided_cavity(0.05, 0.0, truncation=3, label="tiny")
        gen = liouvillian_coherent(cav, 2.0)
        rho0 = fock_density(cav.space, {"tiny": 0})
        with pytest.raises(TruncationGuardError) as err:
            evolve_density(gen, rho0, (0, 8.0), np.linspace(0, 8, 33))
        assert err.value.label == "tiny"
        assert "at t = " in str(err.value)

    def test_hierarchy_truncation_guard_names_label_and_block(self):
        # two photons fill the top level of a three-level cavity; only the
        # two-photon block (2,2) can reach it
        cav = one_sided_cavity(1.0, 0.0, truncation=3, label="tiny")
        hier = fock_hierarchy(cav, GaussianPulse(t0=3.0, sigma=1.0), 2)
        rho0 = fock_density(cav.space, {"tiny": 0})
        with pytest.raises(TruncationGuardError) as err:
            evolve_hierarchy(hier, rho0, (0, 6.0), np.linspace(0, 6, 13))
        assert err.value.label == "tiny"
        assert err.value.population > 1e-6
        assert "in block (2,2)" in str(err.value)

    @pytest.mark.parametrize("limit", [float("nan"), -1.0, -1e-12])
    def test_truncation_guard_value_checked_before_integrating(self, limit, rhs_calls):
        cav = one_sided_cavity(0.05, 0.0, truncation=3, label="tiny")
        rho0 = fock_density(cav.space, {"tiny": 0})
        with pytest.raises(ValidationError, match="truncation guard must be a number >= 0"):
            evolve_density(liouvillian_coherent(cav, 2.0), rho0, (0, 8.0), truncation_guard=limit)
        hier = fock_hierarchy(cav, GaussianPulse(t0=3.0, sigma=1.0), 1)
        with pytest.raises(ValidationError, match="truncation guard must be a number >= 0"):
            evolve_hierarchy(hier, rho0, (0, 6.0), truncation_guard=limit)
        assert rhs_calls == []

    def test_bad_span(self):
        space = LabeledSpace([("c", 2)])
        gen = Superoperator(space)
        with pytest.raises(ValidationError):
            integrate(gen.rhs(), np.zeros(4, dtype=complex), (1.0, 0.0))


    def test_adaptive_run_does_not_restart_at_samples(self):
        # driven cascade at truncation 6, 201 samples: restarting the solver
        # at every sample took 2398 RHS calls, one continuous run about 1400
        res = elaborate(parse((NETWORKS / "two_cavity_cascade.qnet").read_text()))
        inner = liouvillian_coherent(res.triple, 0.25).rhs()
        calls = []

        def rhs(t, y):
            calls.append(t)
            return inner(t, y)

        ts = np.linspace(0.0, 20.0, 201)
        traj = integrate(rhs, vectorize(res.initial_state), (0.0, 20.0), ts)
        assert len(calls) <= 1448
        assert np.array_equal(traj.times, ts) and traj.states.shape == (201, 36**2)
        assert np.all(np.diff(calls) >= 0)  # never steps back past a sample

    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    def test_guard_runs_once_per_sample_in_order(self, method):
        cav = one_sided_cavity(1.0, 0.2, truncation=4, label="c")
        ts = [0.0, 0.5, 0.5, 1.25, 2.0]
        seen = []
        traj = integrate(
            liouvillian_coherent(cav, 0.3).rhs(), vectorize(fock_density(cav.space, {"c": 0})),
            (0.0, 2.0), ts, method=method, dt=0.05, guard=lambda t, y: seen.append(t),
        )
        assert seen == ts
        assert np.array_equal(traj.states[1], traj.states[2])  # a repeated sample

    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    @pytest.mark.parametrize(
        "ts", [[0.0, 1.5, 1.0, 2.0], [0.5, 1.0, 2.5], [-0.5, 1.0, 2.0], [0.0, np.nan, 2.0]],
        ids=["decreasing", "past_end", "before_start", "nan"],
    )
    def test_t_eval_must_be_ordered_within_span(self, method, ts):
        cav = one_sided_cavity(1.0, 0.2, truncation=4, label="c")
        with pytest.raises(ValidationError, match="t_eval"):
            integrate(
                liouvillian(cav).rhs(), vectorize(fock_density(cav.space, {"c": 1})),
                (0.0, 2.0), ts, method=method, dt=0.05,
            )

    def test_trace_drift_stops_at_first_offending_sample(self):
        space = LabeledSpace([("c", 2)])
        # tr rho = exp(-eps t) leaves 1 +- 1e-8 at t = 2.5: first sample past it is 3
        gen = Superoperator(space, -4e-9 * np.eye(4))
        with pytest.raises(TraceDriftError, match=r"at t = 3 \("):
            evolve_density(
                gen, fock_density(space, {"c": 0}), (0, 10.0), np.linspace(0, 10, 11), truncation_guard=None
            )

    def test_truncation_guard_stops_at_first_offending_sample(self):
        cav = one_sided_cavity(0.05, 0.0, truncation=3, label="tiny")
        gen = liouvillian_coherent(cav, 0.2)
        rho0 = fock_density(cav.space, {"tiny": 0})
        ts = np.linspace(0, 8, 33)
        free = evolve_density(gen, rho0, (0, 8.0), ts, truncation_guard=None)
        top = free.expect(make_elementary("projector", "tiny", 3, 2, 2)).real
        first = int(np.argmax(top > TRUNC_GUARD))
        assert first > 1
        with pytest.raises(TruncationGuardError) as err:
            evolve_density(gen, rho0, (0, 8.0), ts)
        assert f"at t = {ts[first]:.6g};" in str(err.value)

    def test_non_positive_state_reports_its_eigenvalue(self):
        cav = one_sided_cavity(1.0, 0.0, truncation=3, label="c")
        bad = Operator(cav.space, np.diag([0.7, 0.4, -0.1]))
        with pytest.raises(ValidationError, match=r"rho has negative eigenvalue -1\.000e-01$"):
            DensityState(bad, 0.0)
        with pytest.raises(TraceDriftError, match=r"rho developed negative eigenvalue -1\.000e-01 at t = 0$"):
            evolve_density(liouvillian(cav), bad, (0, 1.0), [0.0, 1.0], truncation_guard=None)

    def test_positivity_tolerance_is_kept(self):
        space = LabeledSpace([("c", 3)])
        DensityState(Operator(space, np.diag([1.0 + 5e-9, -5e-9, 0.0])), 0.0)
        with pytest.raises(ValidationError, match="negative eigenvalue -2.000e-08"):
            DensityState(Operator(space, np.diag([1.0 + 2e-8, -2e-8, 0.0])), 0.0)


class TestStackedExpectations:
    def test_density_trajectory_matches_per_sample(self, rng):
        space = LabeledSpace([("a", 3), ("b", 2)])
        rhos = []
        for _ in range(7):
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            rho = m @ m.conj().T
            rhos.append(rho / np.trace(rho))
        coords = _RealCoordinates(space.total_dim)
        traj = DensityTrajectory(np.arange(7.0), space, np.array([coords.to_real(r.reshape(-1)) for r in rhos]))
        X = Operator(space, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        per_sample = [np.trace(X.constant().toarray() @ r) for r in rhos]
        assert np.abs(traj.expect(X) - per_sample).max() < 1e-13
        assert np.abs(traj.expect(X) - [DensityState(s).expect(X) for s in traj.states]).max() < 1e-13

    @pytest.mark.parametrize("dims", [(4,), (2, 3), (2, 2, 3)], ids=["1-factor", "2-factor", "3-factor"])
    def test_density_state_reads_by_the_folded_rule(self, dims):
        # a steady state and a trajectory sample answer by one rule: a
        # Hermitian observable has an imaginary part of exactly zero
        rng = np.random.default_rng(len(dims))
        space = LabeledSpace([(f"f{k}", d) for k, d in enumerate(dims)])
        n = space.total_dim
        pulse = GaussianPulse(t0=1.0, sigma=0.5)
        for _ in range(5):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            state = DensityState(Operator(space, rho), time=1.3)
            X, Y = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
            herm = X + X.conj().T
            got = state.expect(Operator(space, herm))
            assert got.imag == 0.0
            assert abs(got - np.trace(herm @ rho)) < 1e-12
            assert abs(state.expect(Operator(space, X)) - np.trace(X @ rho)) < 1e-12
            timed = Operator(space, X) + Operator(space, Y).scaled_by(pulse)
            want = np.trace(X @ rho) + pulse(1.3) * np.trace(Y @ rho)
            assert abs(state.expect(timed) - want) < 1e-12

    def test_hierarchy_run_matches_per_sample(self, rng):
        atom = SLHTriple(1, [sigma_minus("q")], 0.0)
        v = np.array([0.6, 0.8j])
        hier = fock_hierarchy(atom, GaussianPulse(t0=3.0, sigma=1.0), np.outer(v, v.conj()))
        rho0 = fock_density(atom.space, {"q": 0})
        times, states = evolve_hierarchy(hier, rho0, (0, 6.0), np.linspace(0, 6, 13))
        X = Operator(atom.space, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        x = X.constant().toarray()
        per_sample = [
            sum(
                np.conj(hier.c[m, n]) * np.trace(b.constant().toarray().conj().T @ x)
                for (m, n), b in states[k].blocks.items()
            )
            for k in range(len(times))
        ]
        assert np.abs(states.expect(X) - per_sample).max() < 1e-13
        flux = hier.mean_photon_flux(states, times)
        assert np.abs(flux - [hier.mean_photon_flux(s, t) for t, s in zip(times, states)]).max() < 1e-13
        assert flux.max() > 0.1


class TestSuperoperatorBuilders:
    """Every builder against the dense definition of the map it stands for."""

    TIMES = (0.0, 0.7, 2.5)

    @pytest.fixture
    def ops(self, rng):
        space = LabeledSpace([("c", 3), ("q", 2)])
        # A carries a Gaussian-envelope term on the cavity factor alone (so it
        # is embedded), B a complex time coefficient
        A = random_hermitian(rng, space) + destroy("c", 3).scaled_by(GaussianPulse(t0=1.0, sigma=1.0))
        B = random_hermitian(rng, space) + (1j * sigma_minus("q")).scaled_by(lambda t: (0.3 + 0.8j) * np.exp(-t))
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = m @ m.conj().T
        return space, A, B, rho / np.trace(rho)

    def check(self, sup, dense_map, rho):
        for t in self.TIMES:
            got = sup.apply(vectorize(rho), t).reshape(rho.shape)
            assert np.abs(got - dense_map(t, rho)).max() < 1e-12

    def test_spre_spost_sandwich(self, ops):
        space, A, B, rho = ops
        self.check(spre(space, A), lambda t, r: A.toarray(t) @ r, rho)
        self.check(spost(space, B), lambda t, r: r @ B.toarray(t), rho)
        self.check(_sandwich(space, A, B), lambda t, r: A.toarray(t) @ r @ B.toarray(t), rho)

    def test_lindblad_dissipator(self, ops):
        space, A, B, rho = ops
        L = A + B

        def dense(t, r):
            l = L.toarray(t)
            ldl = l.conj().T @ l
            return l @ r @ l.conj().T - 0.5 * (ldl @ r + r @ ldl)

        self.check(lindblad_dissipator(space, L), dense, rho)

    def test_gaussian_thermal_and_squeezing_part(self, ops, rng):
        space, _, _, rho = ops
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        g = SLHTriple(1, [Operator(space, m)], random_hermitian(rng, space))
        N, M = 0.5, 0.3
        extra = liouvillian_gaussian(g, GaussianEnv(N=N, M=M)) + (-1.0) * liouvillian(g)

        def D(x, r):
            xdx = x.conj().T @ x
            return x @ r @ x.conj().T - 0.5 * (xdx @ r + r @ xdx)

        def comm(x, y):
            return x @ y - y @ x

        def dense(t, r):
            ld = m.conj().T
            return (N * (D(m, r) + D(ld, r)) + 0.5 * M * comm(ld, comm(ld, r))
                    + 0.5 * np.conj(M) * comm(m, comm(m, r)))

        self.check(extra, dense, rho)

    @pytest.mark.parametrize("shape", [(36, 72), (40, 40)], ids=["non-square", "not-multiple-of-d2"])
    def test_shape_must_be_square_multiple_of_d2(self, shape):
        space = LabeledSpace([("c", 6)])
        with pytest.raises(ConstructionError, match="multiple of 36"):
            Superoperator(space, sp.csr_matrix(shape, dtype=complex))

    def test_block_stacked_generator_is_refused(self):
        cav = one_sided_cavity(1.0, 0.0, truncation=3, label="c")
        hier = fock_hierarchy(cav, GaussianPulse(t0=3.0, sigma=1.0), 1)
        assert isinstance(hier, Superoperator) and hier.static.shape == (36, 36)
        stacked = Superoperator(cav.space, hier.static)
        rho0 = fock_density(cav.space, {"c": 0})
        with pytest.raises(UnsupportedConfigurationError, match="evolve_hierarchy"):
            steady_state(stacked)
        for gen in (hier, stacked):
            with pytest.raises(UnsupportedConfigurationError, match="evolve_hierarchy"):
                evolve_density(gen, rho0, (0, 1.0))
        with pytest.raises(ConstructionError, match="block count"):
            hier + liouvillian(cav)


class TestSteadyState:
    def test_undriven_cavity_reaches_vacuum(self):
        cav = one_sided_cavity(1.0, 0.3, truncation=5, label="c")
        ss = steady_state(liouvillian(cav))
        vac = fock_density(cav.space, {"c": 0})
        assert (ss.rho - vac).max_abs() < 1e-10

    def test_driven_cavity_coherent_amplitude(self):
        # steady amplitude sqrt(2) means <n> = 2; the truncation must
        # leave room for the Poisson tail at the 1e-8 level
        ss = steady_state(liouvillian_coherent(one_sided_cavity(2.0, 0.0, truncation=30, label="c"), 1.0))
        assert abs(ss.expect(destroy("c", 30)) - (-np.sqrt(2.0))) < 1e-8

    def test_degenerate_null_space_reported(self):
        space = LabeledSpace([("c", 3)])
        gen = Superoperator(space)  # zero generator: every state is steady
        with pytest.raises(SteadyStateError, match="dimension"):
            steady_state(gen)


class TestStateAndOutput:
    def test_density_state_validation(self):
        space = LabeledSpace([("c", 3)])
        good = fock_density(space, {"c": 1})
        DensityState(good, 0.0)
        bad = Operator(space, np.diag([0.7, 0.7, 0.0]))
        with pytest.raises(ValidationError):
            DensityState(bad, 0.0)

    def test_format_value(self):
        assert format_value(1.0) == "1.000000000000e+00"
        assert format_value(1 + 2j) == "1.000000000000e+00:2.000000000000e+00"

    def test_csv_shape(self):
        text = trajectory_csv(np.array([0.0, 1.0]), {"x": [1.0, 2.0], "z": [1j, 2j]})
        lines = text.strip().split("\n")
        assert lines[0] == "t,x,z"
        assert len(lines) == 3
        assert ":" in lines[1].split(",")[2]


class TestGaussianEnvParameters:
    def test_squeezing_round_trip(self):
        for r, phi, n_th in ((0.4, 0.3, 0.0), (1.1, -0.7, 0.25), (0.0, 0.0, 0.8)):
            env = GaussianEnv.squeezing(r, phi, n_th)
            assert abs(env.squeeze_factor - r) < 1e-12
            assert abs(env.thermal_occupation - n_th) < 1e-12
            if r > 0:
                assert abs(env.squeeze_angle - phi) < 1e-12

    def test_pure_squeezing_saturates_inequality(self):
        env = GaussianEnv.squeezing(0.6, 0.2, 0.0)
        assert abs(env.N * (env.N + 1.0) - abs(env.M) ** 2) < 1e-12
        assert abs(env.thermal_occupation) < 1e-12
