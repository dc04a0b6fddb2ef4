import numpy as np
import pytest

from slhnet.dynamics import evolve_density, liouvillian
from slhnet.errors import AssumptionError, ValidationError
from slhnet.hilbert import (
    Operator,
    basis_vector,
    density_from_vector,
    destroy,
    identity,
    op_close,
    sigma_minus,
    sigma_plus,
)
from slhnet.reduction import (
    check_assumptions,
    decompose,
    eliminate,
    eliminate_triple,
    projector_from_states,
)
from slhnet.slh import SLHTriple, concat, series, triples_close


def cavity_qed(kappa, g, gamma, trunc=6, prefix=""):
    """Driven-cavity + atom system with a spontaneous-emission port."""
    a = destroy(f"{prefix}cav", trunc)
    sm = sigma_minus(f"{prefix}atom")
    H = g * (a.dag() * sm + a * sm.dag())
    return SLHTriple([[1, 0], [0, 1]], [np.sqrt(kappa) * a, np.sqrt(gamma) * sm], H)


class TestDecompose:
    def test_cavity_qed_split(self):
        g = cavity_qed(kappa=9.0, g=3.0, gamma=0.4)
        P0 = projector_from_states(g.space, {"cav": 0, "atom": 0})
        prob = decompose(g, P0)
        # with both factors pinned to the ground state the coupling
        # blocks vanish and the slow block is empty
        assert prob.A.max_abs() < 1e-12
        assert prob.B.max_abs() < 1e-12
        K = (-1j) * g.H + (-0.5) * (g.L[0].dag() * g.L[0]) + (-0.5) * (g.L[1].dag() * g.L[1])
        assert op_close(prob.Y, K)  # K lives entirely in the fast sector
        # F_i = L_i P1, G_i = L_i P0 = 0 here
        for i in range(2):
            assert op_close(prob.F[i], g.L[i] * (identity(g.space) - P0))
            assert prob.G[i].max_abs() < 1e-12

    def test_identity_projector_keeps_everything_slow(self):
        g = cavity_qed(1.0, 0.5, 0.2, trunc=4)
        P0 = identity(g.space)
        prob = decompose(g, P0)
        assert prob.Y.max_abs() < 1e-12
        for F in prob.F:
            assert F.max_abs() < 1e-12

    def test_zero_projector_everything_fast(self):
        g = cavity_qed(1.0, 0.5, 0.2, trunc=4)
        P0 = Operator(g.space, np.zeros((g.space.total_dim,) * 2))
        prob = decompose(g, P0)
        assert prob.B.max_abs() < 1e-12
        for G in prob.G:
            assert G.max_abs() < 1e-12

    def test_non_projector_rejected(self):
        g = cavity_qed(1.0, 0.5, 0.2, trunc=4)
        with pytest.raises(ValidationError):
            decompose(g, 0.5 * identity(g.space))

    def test_product_projector_keeps_labels(self):
        g = cavity_qed(1.0, 0.5, 0.2, trunc=4)
        prob = decompose(g, projector_from_states(g.space, {"cav": 1, "atom": None}))
        assert prob.slow_space.factors == (("atom", 2),)
        # columns in the row-major order of the full space: |atom, cav=1>
        want = np.stack([basis_vector(g.space, {"atom": k, "cav": 1}) for k in range(2)], axis=1)
        assert np.array_equal(prob.slow_isometry, want)

    def test_correlated_diagonal_projector_is_anonymous(self):
        g = cavity_qed(1.0, 0.5, 0.2, trunc=4)
        kets = [basis_vector(g.space, {"atom": k, "cav": k}) for k in range(2)]
        P0 = Operator(g.space, sum(np.outer(k, k.conj()) for k in kets))
        prob = decompose(g, P0)
        assert prob.slow_space.factors == (("slow", 2),)
        V = prob.slow_isometry
        assert np.abs(P0.constant().toarray() @ V - V).max() < 1e-12

    def test_rotated_rank_one_projector_is_anonymous(self):
        g = cavity_qed(1.0, 0.5, 0.2, trunc=4)
        ket = (basis_vector(g.space, {"atom": 0, "cav": 0})
               + basis_vector(g.space, {"atom": 1, "cav": 0})) / np.sqrt(2)
        prob = decompose(g, Operator(g.space, np.outer(ket, ket.conj())))
        assert prob.slow_space.factors == (("slow", 1),)
        assert abs(abs(np.vdot(prob.slow_isometry[:, 0], ket)) - 1.0) < 1e-12


class TestAssumptions:
    def test_cavity_qed_passes(self):
        g = cavity_qed(kappa=9.0, g=3.0, gamma=0.4)
        prob = decompose(g, projector_from_states(g.space, {"cav": 0, "atom": 0}))
        rep = check_assumptions(prob)
        assert rep.passed(1e-10), str(rep)

    def test_undamped_fast_level_fails_inverse(self):
        # an undamped excited level makes Y singular on the fast subspace
        sm = sigma_minus("atom")
        g = SLHTriple(1, [0.0 * sm], 0.0 * sm)  # no decay at all
        prob = decompose(g, projector_from_states(g.space, {"atom": 0}))
        with pytest.raises(AssumptionError, match="singular"):
            check_assumptions(prob)

    def test_injected_coupling_defect_flagged(self):
        g = cavity_qed(kappa=9.0, g=3.0, gamma=0.4)
        prob = decompose(g, projector_from_states(g.space, {"cav": 0, "atom": 0}))
        prob.F[0] = g.L[0]  # defect: F P0 != 0 no longer guaranteed? L P0 = 0 here
        prob.F[0] = identity(g.space)  # blunt defect
        rep = check_assumptions(prob)
        assert not rep.passed(1e-10)
        assert max(rep.coupling_residuals) > 0.9


class TestEliminate:
    def test_bad_cavity_worked_example(self):
        # kappa scaled fast, atom kept: the reduced triple is
        # S = diag(-P0, P0), L = [0; 0], H = 0 in the asymptotic limit
        k = 1e11
        g = cavity_qed(kappa=k**2, g=1.0, gamma=0.0)
        P0 = projector_from_states(g.space, {"cav": 0, "atom": None})
        red = eliminate(decompose(g, P0))
        assert red.space.labels == ("atom",)
        eye = np.eye(2)
        assert np.abs(red.S[0, 0].constant().toarray() + eye).max() < 1e-10
        assert np.abs(red.S[1, 1].constant().toarray() - eye).max() < 1e-10
        assert red.S[0, 1].max_abs() < 1e-10 and red.S[1, 0].max_abs() < 1e-10
        assert red.L[0].max_abs() < 1e-10 and red.L[1].max_abs() < 1e-10
        assert red.H.max_abs() < 1e-10

    def test_purcell_decay_recovered(self):
        # kappa ~ k^2, g ~ k: the atom inherits the effective decay
        # -2i g0/sqrt(kappa0) sigma- through the eliminated cavity
        k = 300.0
        g0, kappa0, gamma = 0.8, 1.0, 0.3
        g = cavity_qed(kappa=k**2 * kappa0, g=k * g0, gamma=gamma)
        P0 = projector_from_states(g.space, {"cav": 0, "atom": None})
        red = eliminate(decompose(g, P0), unitarity_tol=1e-3)
        sm = sigma_minus("atom")
        assert (red.L[0] - (-2j * g0 / np.sqrt(kappa0)) * sm).max_abs() < 1e-10
        assert (red.L[1] - np.sqrt(gamma) * sm).max_abs() < 1e-10
        assert (red.S[0, 0] + identity(red.space)).max_abs() < 1e-3

    def test_identity_projector_returns_triple_unchanged(self):
        g = cavity_qed(1.0, 0.5, 0.2, trunc=4)
        red = eliminate(decompose(g, identity(g.space)))
        assert triples_close(red, g, 1e-10)

    def test_refuses_on_failed_assumptions(self):
        sm = sigma_minus("atom")
        g = SLHTriple(1, [0.0 * sm], 0.0 * sm)
        prob = decompose(g, projector_from_states(g.space, {"atom": 0}))
        with pytest.raises(AssumptionError):
            eliminate(prob)

    def test_output_triple_invariants(self):
        k = 1e6
        g = cavity_qed(kappa=k**2, g=1.0, gamma=0.3)
        red = eliminate_triple(g, projector_from_states(g.space, {"cav": 0, "atom": None}),
                               unitarity_tol=1e-9)
        assert red.unitarity_residual() < 1e-9
        assert red.hermiticity_residual() < 1e-9


class TestCommutativity:
    def test_concat_commutes(self):
        k = 1e5
        ga = cavity_qed(kappa=k**2, g=1.0, gamma=0.2)
        gb = cavity_qed(kappa=0.7 * k**2, g=0.9, gamma=0.0, trunc=5, prefix="b.")
        both = concat(ga, gb)
        red_a = eliminate_triple(ga, projector_from_states(ga.space, {"cav": 0, "atom": None}),
                                 unitarity_tol=1e-8)
        red_b = eliminate_triple(gb, projector_from_states(gb.space, {"b.cav": 0, "b.atom": None}),
                                 unitarity_tol=1e-8)
        red_ab = eliminate_triple(
            both,
            projector_from_states(both.space, {"cav": 0, "atom": None, "b.cav": 0, "b.atom": None}),
            unitarity_tol=1e-8,
        )
        assert triples_close(red_ab, concat(red_a, red_b), 1e-8)

    def test_series_commutes(self):
        # eliminate-then-cascade equals cascade-then-eliminate for two
        # fast cavities feeding one another
        k = 1e5
        ga = cavity_qed(kappa=k**2, g=1.0, gamma=0.2)
        gb = cavity_qed(kappa=0.7 * k**2, g=0.9, gamma=0.1, trunc=5, prefix="b.")
        casc = series(gb, ga)
        red_first = series(
            eliminate_triple(gb, projector_from_states(gb.space, {"b.cav": 0, "b.atom": None}),
                             unitarity_tol=1e-8),
            eliminate_triple(ga, projector_from_states(ga.space, {"cav": 0, "atom": None}),
                             unitarity_tol=1e-8),
        )
        red_last = eliminate_triple(
            casc,
            projector_from_states(casc.space, {"cav": 0, "atom": None, "b.cav": 0, "b.atom": None}),
            unitarity_tol=1e-8,
        )
        assert triples_close(red_last, red_first, 1e-7)


class TestDynamicalConvergence:
    def test_full_model_approaches_reduced_model(self):
        # Purcell setting: qubit initially excited; compare the reduced
        # qubit trajectory of the full model against the eliminated one
        kappa0, g0 = 1.0, 1.0
        t_end, samples = 2.0, 41
        ts = np.linspace(0, t_end, samples)
        errors = []
        for k in (3.0, 5.0, 10.0):
            full = cavity_qed(kappa=k**2 * kappa0, g=k * g0, gamma=0.0, trunc=4)
            rho0 = density_from_vector(full.space, basis_vector(full.space, {"atom": 1}))
            n_atom = sigma_plus("atom") * sigma_minus("atom")
            traj_full = evolve_density(liouvillian(full), rho0, (0, t_end), ts, truncation_guard=None)
            red = eliminate_triple(
                full, projector_from_states(full.space, {"cav": 0, "atom": None}),
                unitarity_tol=1.0,
            )
            rho0r = density_from_vector(red.space, basis_vector(red.space, {"atom": 1}))
            traj_red = evolve_density(liouvillian(red), rho0r, (0, t_end), ts, truncation_guard=None)
            # time-averaged trajectory error; the max-norm is pinned by the
            # initial vacuum-Rabi transient and converges only linearly
            err = np.abs(traj_full.expect(n_atom).real - traj_red.expect(n_atom).real).mean()
            errors.append(err)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < errors[0] / 5.0
