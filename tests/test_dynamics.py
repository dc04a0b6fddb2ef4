import numpy as np
import pytest

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
    GaussianEnv,
    Superoperator,
    evolve_density,
    evolve_hierarchy,
    fock_hierarchy,
    format_value,
    heisenberg_coefficients,
    integrate,
    liouvillian,
    liouvillian_coherent,
    liouvillian_gaussian,
    output_relations,
    steady_state,
    trajectory_csv,
)
from slhnet.envelopes import GaussianPulse
from slhnet.errors import (
    SteadyStateError,
    TraceDriftError,
    TruncationGuardError,
    UnsupportedConfigurationError,
    ValidationError,
)
from slhnet.hilbert import (
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
from slhnet.slh import SLHTriple, concat, series


def fock_density(space, occ):
    return density_from_vector(space, basis_vector(space, occ))


class TestVacuumMasterEquation:
    def test_cavity_decay_analytic(self):
        gamma = 1.7
        cav = one_sided_cavity(gamma, 0.0, truncation=6, label="c")
        gen = liouvillian(cav)
        rho0 = fock_density(cav.space, {"c": 1})
        ts = np.linspace(0, 5 / gamma, 80)
        traj = evolve_density(gen, rho0, (0, 5 / gamma), ts, observables={"n": number("c", 6)})
        err = np.abs(traj.expectations["n"].real - np.exp(-gamma * ts)).max()
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
        # two independent code paths for the same generator
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
        tr1 = evolve_density(gen1, rho1, (0, 8.0), ts, observables={"a": a_down}, truncation_guard=None)

        gen2 = liouvillian(physical)
        from slhnet.hilbert import coherent_vector, product_density

        rho2 = product_density(physical.space, {"src": coherent_vector(12, alpha)})
        tr2 = evolve_density(gen2, rho2, (0, 8.0), ts, observables={"a": a_down}, truncation_guard=None)

        err = np.abs(tr1.expectations["a"] - tr2.expectations["a"]).max()
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
        g = random_triple(rng, n_ports=1, dim=4)
        gen = liouvillian(g)
        X = random_hermitian(rng, g.space)
        hc = heisenberg_coefficients(g, X)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        drho = (gen.matrix(0.0) @ rho.reshape(-1)).reshape(4, 4)
        lhs = np.trace(X.constant().toarray() @ drho)
        rhs = np.trace(hc.drift.constant().toarray() @ rho)
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

    def test_bad_span(self):
        space = LabeledSpace([("c", 2)])
        gen = Superoperator(space)
        with pytest.raises(ValidationError):
            integrate(gen.rhs(), np.zeros(4, dtype=complex), (1.0, 0.0))


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
