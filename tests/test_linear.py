import numpy as np
import pytest

from conftest import random_unitary

from slhnet.components import (
    beamsplitter,
    degenerate_opo,
    fabry_perot,
    kerr_cavity,
    one_sided_cavity,
    two_mode_squeezer,
)
from slhnet.errors import NotLinearError, UnrealizableError, ValidationError
from slhnet.hilbert import destroy
from slhnet.linear import (
    LinearModel,
    _flat,
    abcd_to_slh,
    extract_linear,
    initial_condition_response,
    quadrature_transform,
    realizability_check,
    tla_reflection,
    transfer_function,
)
from slhnet.slh import SLHTriple, concat, feedback, triples_close


def opo_feedback_network(kappa, eps, eta, trunc=10):
    """Degenerate OPO in coherent feedback with a beamsplitter; reduces
    to (1, l sqrt(kappa) a, i eps (a^2+ - a^2)) with l = eta/(1+sqrt(1-eta^2)).

    The OPO pump parameter is 2*eps because the catalog Hamiltonian
    carries a 1/2 prefactor.
    """
    opo = degenerate_opo(kappa, 2 * eps, truncation=trunc, label="o")
    bs = beamsplitter(entries=[[-np.sqrt(1 - eta**2), eta], [eta, np.sqrt(1 - eta**2)]])
    net = feedback(concat(opo, bs), 1, 2).triple
    return feedback(net, 1, 1).triple


class TestExtraction:
    def test_cavity_passive_golden(self):
        gamma, delta = 2.0, 0.5
        mod = extract_linear(one_sided_cavity(gamma, delta, truncation=7, label="c"))
        assert mod.form == "passive"
        assert abs(mod.A[0, 0] - (-(gamma / 2 + 1j * delta))) < 1e-12
        assert abs(mod.B[0, 0] - (-np.sqrt(gamma))) < 1e-12
        assert abs(mod.C[0, 0] - np.sqrt(gamma)) < 1e-12
        assert abs(mod.D[0, 0] - 1.0) < 1e-12

    def test_opo_network_matches_aside_matrices(self):
        kappa, eps, eta = 2.0, 0.3, 0.6
        l = eta / (1 + np.sqrt(1 - eta**2))
        mod = extract_linear(opo_feedback_network(kappa, eps, eta))
        assert mod.form == "active"
        want_A = np.array([[-l**2 * kappa / 2, eps], [eps, -l**2 * kappa / 2]])
        assert np.abs(mod.A - want_A).max() < 1e-10
        assert np.abs(mod.B + l * np.sqrt(kappa) * np.eye(2)).max() < 1e-10
        assert np.abs(mod.C - l * np.sqrt(kappa) * np.eye(2)).max() < 1e-10
        assert np.abs(mod.D - np.eye(2)).max() < 1e-10

    def test_kerr_not_linear_names_offender(self):
        with pytest.raises(NotLinearError, match=r"\(k\^ k\)\^2"):
            extract_linear(kerr_cavity(1.0, 0.2, 0.3, truncation=6, label="k"))

    def test_time_dependent_rejected(self):
        from slhnet.components import coherent_source
        from slhnet.envelopes import GaussianPulse
        from slhnet.slh import series

        g = series(one_sided_cavity(1.0, 0.0, truncation=4, label="c"),
                   coherent_source(0.3, GaussianPulse(t0=1.0, sigma=0.5)))
        with pytest.raises(NotLinearError):
            extract_linear(g)

    def test_two_mode_squeezer_active(self):
        mod = extract_linear(two_mode_squeezer(1.0, 1.5, 0.4, truncation=5, label="s"))
        assert mod.form == "active"
        assert mod.n_modes == 2
        # the upper-right block of i(A + C-flat C / 2) holds the pair-creation
        # coefficient (i/2) eps, symmetrized
        omega = 1j * (mod.A + 0.5 * _flat(mod.C, 2, 2) @ mod.C)
        assert abs(omega[:2, 2:][0, 1] - 0.25j * 0.4) < 1e-12


class TestTransferFunction:
    def test_resonant_cavity_full_reflection(self):
        mod = extract_linear(one_sided_cavity(2.0, 0.0, truncation=5, label="c"))
        assert abs(transfer_function(mod, 0.0)[0, 0] + 1.0) < 1e-12

    def test_no_coupling_gives_d(self):
        mod = LinearModel(
            "passive",
            A=np.array([[-0.5 + 0j]]),
            B=np.zeros((1, 2), dtype=complex),
            C=np.zeros((2, 1), dtype=complex),
            D=np.diag([1.0, -1.0]).astype(complex),
            mode_labels=("m",),
            n_ports=2,
        )
        for s in (0.0, 1j, 2.0 - 0.3j):
            assert np.abs(transfer_function(mod, s) - mod.D).max() < 1e-14

    def test_pole_detection(self):
        mod = extract_linear(one_sided_cavity(2.0, 0.0, truncation=5, label="c"))
        with pytest.raises(ValidationError, match="pole"):
            transfer_function(mod, -1.0)  # s = A = -gamma/2

    def test_array_of_s_is_the_stack_of_scalar_answers(self):
        mod = extract_linear(opo_feedback_network(2.0, 0.3, 0.6))
        s = 1j * np.linspace(-3.0, 3.0, 7)
        got = transfer_function(mod, s)
        assert got.shape == (7,) + mod.D.shape
        for z, Xi in zip(s, got):
            assert np.array_equal(Xi, transfer_function(mod, z))

    def test_pole_in_an_array_is_named(self):
        mod = extract_linear(one_sided_cavity(2.0, 0.0, truncation=5, label="c"))
        with pytest.raises(ValidationError, match=r"s = \(-1\+0j\) is a pole"):
            transfer_function(mod, np.array([0.5j, -1.0, 2.0]))

    def test_quadrature_diagonal_squeezer(self):
        kappa, eps, eta = 2.0, 0.3, 0.6
        l = eta / (1 + np.sqrt(1 - eta**2))
        q = quadrature_transform(extract_linear(opo_feedback_network(kappa, eps, eta)))
        rng = np.random.default_rng(5)
        samples = [0.0] + list(rng.normal(size=9) + 1j * rng.normal(size=9))
        for s in samples:
            got = q.transfer_function(s)
            want = np.diag(
                [
                    (s - eps - l**2 * kappa / 2) / (s - eps + l**2 * kappa / 2),
                    (s + eps - l**2 * kappa / 2) / (s + eps + l**2 * kappa / 2),
                ]
            )
            assert np.abs(got - want).max() < 1e-10

    def test_passive_single_mode_lossless_scattering(self):
        mod = extract_linear(one_sided_cavity(1.7, 0.4, truncation=5, label="c"))
        for w in np.linspace(-4, 4, 9):
            Xi = transfer_function(mod, 1j * w)
            norms = np.linalg.norm(Xi, axis=0)
            assert np.abs(norms - 1.0).max() < 1e-10

    def test_initial_condition_response(self):
        mod = extract_linear(one_sided_cavity(2.0, 0.0, truncation=5, label="c"))
        xi = initial_condition_response(mod, 1.0)
        assert abs(xi[0, 0] - np.sqrt(2.0) / (1.0 + 1.0)) < 1e-12


class TestRealizability:
    def test_extracted_models_pass(self, rng):
        for g in (
            one_sided_cavity(1.3, 0.7, truncation=5, label="c"),
            fabry_perot(1.0, 0.5, 0.2, truncation=5, label="f"),
            opo_feedback_network(2.0, 0.3, 0.6),
            two_mode_squeezer(1.0, 1.5, 0.4, truncation=5, label="s"),
        ):
            rep = realizability_check(extract_linear(g))
            assert rep.passed(1e-9), str(rep)

    def test_random_passive_triples_pass(self, rng):
        for _ in range(5):
            m = 2
            U = random_unitary(rng, m)
            phi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            om = rng.normal(size=(m, m))
            om = 0.5 * (om + om.T)
            a1, a2 = destroy("m1", 4), destroy("m2", 4)
            a = [a1, a2]
            L = []
            for i in range(m):
                acc = None
                for k in range(m):
                    term = complex(phi[i, k]) * a[k]
                    acc = term if acc is None else acc + term
                L.append(acc)
            H = None
            for j in range(m):
                for k in range(m):
                    term = complex(om[j, k]) * a[j].dag() * a[k]
                    H = term if H is None else H + term
            g = SLHTriple([[complex(U[i, j]) for j in range(m)] for i in range(m)], L, H)
            rep = realizability_check(extract_linear(g))
            assert rep.passed(1e-9)

    def test_perturbed_coupling_fails_condition_two(self):
        dbl = extract_linear(one_sided_cavity(1.0, 0.0, truncation=5, label="c")).doubled()
        dbl.B = dbl.B + 1e-3
        rep = realizability_check(dbl)
        assert not rep.passed(1e-9)
        assert abs(rep.coupling_residual - 1e-3) < 1e-9

    def test_perturbed_passive_model_fails(self):
        # the passive model is checked through its own A, B, C, D, not
        # through the coupling and Hamiltonian blocks it was built from
        mod = extract_linear(one_sided_cavity(1.0, 0.3, truncation=5, label="c"))
        mod.B = mod.B + 1e-3
        rep = realizability_check(mod)
        assert not rep.passed(1e-9)
        assert abs(rep.coupling_residual - 1e-3) < 1e-9
        assert "FAIL" in str(rep)

        mod = extract_linear(one_sided_cavity(1.0, 0.3, truncation=5, label="c"))
        mod.A = mod.A + 0.3
        rep = realizability_check(mod)
        assert abs(rep.commutation_residual - 0.6) < 1e-9
        with pytest.raises(UnrealizableError, match="not physically realizable"):
            abcd_to_slh(mod)

    def test_passive_doubled_is_block_diagonal_of_own_abcd(self):
        mod = extract_linear(fabry_perot(1.0, 0.5, 0.2, truncation=4, label="f"))
        mod.A = mod.A + 0.1j  # doubling carries what the model holds, consistent or not
        mod.B = mod.B + 1e-3
        dbl = mod.doubled()
        assert dbl.form == "active"
        for X, Xd in ((mod.A, dbl.A), (mod.B, dbl.B), (mod.C, dbl.C), (mod.D, dbl.D)):
            r, c = X.shape
            assert Xd.shape == (2 * r, 2 * c)
            assert np.array_equal(Xd[:r, :c], X)
            assert np.array_equal(Xd[r:, c:], X.conj())
            assert not Xd[:r, c:].any() and not Xd[r:, :c].any()

    def test_unit_cavity_model_passes(self):
        mod = LinearModel(
            "passive",
            A=np.array([[-0.5 + 0j]]),
            B=np.array([[-1.0 + 0j]]),
            C=np.array([[1.0 + 0j]]),
            D=np.array([[1.0 + 0j]]),
            mode_labels=("m",),
            n_ports=1,
        )
        assert realizability_check(mod).passed(1e-12)

    def test_hurwitz_stability_of_catalog(self):
        for g in (
            one_sided_cavity(1.0, 0.5, truncation=4, label="c"),
            fabry_perot(1.0, 0.5, -0.3, truncation=4, label="f"),
            beamsplitter(eta=0.3),
        ):
            try:
                mod = extract_linear(g)
            except NotLinearError:
                continue
            assert np.linalg.eigvals(mod.A).real.max() <= 1e-12  # Hurwitz: no eigenvalue of A in the right half plane


class TestInversion:
    def test_round_trip_cavity(self):
        g = one_sided_cavity(2.0, 0.5, truncation=8, label="m")
        mod = extract_linear(g)
        back = abcd_to_slh(mod, truncation=8)
        assert triples_close(back, g, 1e-10)

    def test_round_trip_active(self):
        g = opo_feedback_network(2.0, 0.3, 0.6)
        mod = extract_linear(g)
        back = abcd_to_slh(mod, truncation=10, labels=["o"])
        assert triples_close(back, g, 1e-10)
        mod2 = extract_linear(back)
        assert np.abs(mod2.A - mod.A).max() < 1e-10

    def test_nonunitary_d_rejected(self):
        mod = extract_linear(one_sided_cavity(1.0, 0.0, truncation=5, label="c"))
        mod.D = np.array([[0.9 + 0j]])
        with pytest.raises(UnrealizableError):
            abcd_to_slh(mod)

    def test_recovered_hamiltonian_hermitian(self):
        mod = extract_linear(one_sided_cavity(1.0, 0.7, truncation=5, label="c"))
        omega = 1j * (mod.A + 0.5 * mod.C.conj().T @ mod.C)
        assert np.abs(omega - omega.conj().T).max() < 1e-12


class TestTlaReflection:
    def test_resonance_is_minus_one(self):
        assert abs(tla_reflection(1.3, 0.4, 0.4) + 1.0) < 1e-14

    def test_far_detuned_approaches_plus_one(self):
        assert abs(tla_reflection(1.0, 0.0, 1e6) - 1.0) < 1e-5

    def test_unimodular_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            gamma = abs(rng.normal()) + 0.1
            delta, omega = rng.normal(size=2) * 5
            assert abs(abs(tla_reflection(gamma, delta, omega)) - 1.0) < 1e-12

    def test_gamma_positive_required(self):
        with pytest.raises(ValidationError):
            tla_reflection(0.0, 0.0, 0.0)
