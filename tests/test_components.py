import inspect

import numpy as np
import pytest

from slhnet.components import (
    CATALOG,
    beamsplitter,
    build_cavity_chain,
    build_copropagating_pair,
    build_counterpropagating_pair,
    circulant_coefficients,
    circulator_finite_bw,
    circulator_ideal,
    circulator_nonideal,
    coherent_source,
    coherent_source_cavity,
    dispersion_cavity,
    fock_source,
    instantiate,
    jaynes_cummings,
    kinds,
    one_sided_cavity,
    squeezed_source,
    tavis_cummings,
    trapped_tla,
)
from slhnet.envelopes import GaussianPulse
from slhnet.errors import ValidationError
from slhnet.hilbert import destroy, identity, op_close, sigma_minus, sigma_z
from slhnet.slh import SLHTriple, concat, series, triples_close
from slhnet.linear import extract_linear, transfer_function

ENV = GaussianPulse(t0=4.0, sigma=1.0)

VALID_PARAMS = {
    "phase_shifter": dict(phi=0.3),
    "beamsplitter": dict(eta=0.4),
    "loss_beamsplitter": dict(loss=0.1),
    "one_sided_cavity": dict(gamma=1.0, delta=0.2),
    "kerr_cavity": dict(gamma=1.0, delta=0.2, chi=0.1),
    "fabry_perot": dict(gamma1=1.0, gamma2=0.5, delta=0.2),
    "cross_kerr_cavities": dict(gamma1=1.0, gamma2=0.5, delta1=0.1, delta2=0.2, chi=0.3),
    "degenerate_opo": dict(gamma=2.0, epsilon=0.4),
    "two_mode_squeezer": dict(gamma1=1.0, gamma2=1.0, epsilon=0.3),
    "optomechanics": dict(kappa=1.0, Gamma=0.1, nbar=0.5, g=0.2),
    "optomechanics_linearized": dict(kappa=1.0, Gamma=0.1, nbar=0.5, g=0.2),
    "tla_waveguide": dict(kappa_g=1.0, kappa_perp=0.1, omega=0.4),
    "trapped_tla": dict(kappa_r=0.5, kappa_l=0.5, kappa_perp=0.1, omega=0.3, k0=0.7, mass=1.0, nu=2.0),
    "rabi": dict(kappa=1.0, g=0.3, delta_c=0.2, omega=0.5),
    "jaynes_cummings": dict(kappa=1.0, g=0.3, delta_c=0.2, omega=0.5),
    "tavis_cummings": dict(kappa=1.0, g=0.3, n_atoms=3, delta_c=0.2, omega=0.5),
    "circulator_ideal": {},
    "circulator_nonideal": dict(zip("rbt", circulant_coefficients(0.1, 0.7, -0.4))),
    "circulator_finite_bw": dict(gamma=4.0),
    "coherent_source": dict(alpha=0.4),
    "coherent_source_cavity": dict(alpha=0.4, envelope=ENV),
    "fock_source": dict(n=1, envelope=ENV),
    "squeezed_source": dict(gamma=2.0, E=0.4),
    "dispersion_cavity": dict(omega_c=100.0, alpha=0.5, length=2.0, v=10.0),
}


def test_every_kind_has_valid_params_entry():
    assert set(VALID_PARAMS) == set(kinds()) == set(CATALOG)


@pytest.mark.parametrize("kind", sorted(VALID_PARAMS))
def test_catalog_triples_satisfy_invariants(kind):
    g = instantiate(kind, label="x", truncation=5, **VALID_PARAMS[kind])
    assert g.unitarity_residual() < 1e-10
    assert g.hermiticity_residual() < 1e-10
    assert g.n_ports == CATALOG[kind][1]


@pytest.mark.parametrize("kind", kinds())
def test_schema_params_match_builder_signature(kind):
    # the builder's signature is the kind's parameter schema: the valid
    # parameters name only its parameters (truncation and label are
    # instantiate's own) and every required one, and instantiate refuses a
    # set that lacks a required one
    params = inspect.signature(CATALOG[kind][0]).parameters
    required = {name for name, p in params.items() if p.default is inspect.Parameter.empty}
    assert required <= set(VALID_PARAMS[kind]) <= set(params) - {"truncation", "label"}
    for name in required:
        partial = {k: v for k, v in VALID_PARAMS[kind].items() if k != name}
        with pytest.raises(ValidationError, match=f"bad parameters for '{kind}'"):
            instantiate(kind, **partial)


def test_unknown_kind():
    with pytest.raises(ValidationError):
        instantiate("cavty", gamma=1.0)


def test_one_sided_cavity_golden():
    g = one_sided_cavity(2.0, 0.5, truncation=6, label="m")
    a = destroy("m", 6)
    assert op_close(g.L[0], np.sqrt(2.0) * a)
    assert op_close(g.H, 0.5 * a.dag() * a)
    assert op_close(g.S[0, 0], identity(g.space))


class TestValidation:
    def test_negative_rate_named(self):
        with pytest.raises(ValidationError, match="gamma"):
            one_sided_cavity(-1.0)

    def test_circulator_power_constraint(self):
        with pytest.raises(ValidationError, match=r"\|t\|\^2\+\|r\|\^2\+\|b\|\^2"):
            circulator_nonideal(r=0.5, b=0.5, t=0.5)

    def test_circulator_orthogonality_constraint(self):
        # normalized but not unitary-circulant
        v = np.array([0.6, 0.48, 0.64])
        with pytest.raises(ValidationError, match=r"r t\* \+ t b\* \+ b r\*"):
            circulator_nonideal(r=v[0], b=v[1], t=v[2])

    def test_beamsplitter_eta_bound(self):
        with pytest.raises(ValidationError, match="eta"):
            beamsplitter(eta=1.2)

    def test_squeezed_source_threshold(self):
        with pytest.raises(ValidationError, match="gamma/2"):
            squeezed_source(gamma=1.0, E=0.6)

    def test_fock_source_truncation(self):
        with pytest.raises(ValidationError, match="truncation"):
            fock_source(3, ENV, truncation=2)


class TestSources:
    def test_fock_source_metadata(self):
        g = fock_source(2, ENV, label="s")
        assert g.metadata["initial_state"] == {"s": ("fock", 2)}
        assert not g.L[0].is_static

    def test_coherent_source_cavity_metadata(self):
        g = coherent_source_cavity(0.4, ENV, label="s")
        assert g.metadata["initial_state"]["s"] == ("coherent", 0.4 + 0j)

    def test_coherent_source_amplitude(self):
        g = coherent_source(0.5, ENV)
        assert abs(g.L[0].at(4.0).toarray()[0, 0] - 0.5 * ENV(4.0)) < 1e-14


class TestCavityChain:
    def test_single_is_detuned_cavity(self):
        chain = build_cavity_chain([1.3], [0.4], truncation=5)
        single = one_sided_cavity(1.3, 0.4, truncation=5, label="chain.mode1")
        assert triples_close(chain, single)

    def test_two_equal_cross_term(self):
        beta = 0.9
        chain = build_cavity_chain([beta, beta], [0.0, 0.0], truncation=4)
        a1 = destroy("chain.mode1", 4)
        a2 = destroy("chain.mode2", 4)
        want = (beta / 2j) * (a2.dag() * a1 - a1.dag() * a2)
        assert op_close(chain.H, want)

    def test_equals_cascade_of_components(self):
        betas = [0.7, 1.1, 0.4]
        xis = [0.2, -0.3, 0.5]
        chain = build_cavity_chain(betas, xis, truncation=4)
        parts = [
            one_sided_cavity(b, x, truncation=4, label=f"chain.mode{k + 1}")
            for k, (b, x) in enumerate(zip(betas, xis))
        ]
        casc = series(parts[2], series(parts[1], parts[0]))
        assert triples_close(chain, casc, 1e-10)

    def test_hermitian_any_n(self):
        chain = build_cavity_chain([0.3, 0.5, 0.2, 0.8], [1, -1, 2, 0], truncation=3)
        assert chain.hermiticity_residual() < 1e-12

    def test_negative_beta(self):
        with pytest.raises(ValidationError):
            build_cavity_chain([-0.1], [0.0])


class TestCounterPropagation:
    def test_zero_phase_no_exchange(self):
        g = build_counterpropagating_pair(1.0, 0.7, 0.1, -0.2, phi=0.0)
        s1, s2 = sigma_minus("atoms.q1"), sigma_minus("atoms.q2")
        want = -0.05 * sigma_z("atoms.q2") - 0.05 * 0  # placeholder, build explicitly
        want = -0.5 * (-0.2) * sigma_z("atoms.q2") + -0.5 * 0.1 * sigma_z("atoms.q1")
        assert op_close(g.H, want)

    def test_matches_series_concat_route(self):
        gamma1, gamma2, d1, d2, phi = 1.1, 0.6, 0.2, -0.3, 0.77
        direct = build_counterpropagating_pair(gamma1, gamma2, d1, d2, phi)
        s1, s2 = sigma_minus("atoms.q1"), sigma_minus("atoms.q2")
        from slhnet.components import phase_shifter

        gr = series(
            SLHTriple(1, [np.sqrt(gamma2 / 2) * s2], -0.5 * d2 * sigma_z("atoms.q2")),
            series(phase_shifter(phi), SLHTriple(1, [np.sqrt(gamma1 / 2) * s1], -0.5 * d1 * sigma_z("atoms.q1"))),
        )
        gl = series(
            SLHTriple(1, [np.sqrt(gamma1 / 2) * s1], 0.0),
            series(phase_shifter(phi), SLHTriple(1, [np.sqrt(gamma2 / 2) * s2], 0.0)),
        )
        assert triples_close(direct, concat(gr, gl), 1e-10)

    def test_matches_loop_network_reduction(self):
        # the same triple from the generic four-component loop reduction
        from slhnet.components import phase_shifter
        from slhnet.slh import feedback_multi

        gamma1, gamma2, phi = 1.1, 0.6, 0.77
        s1, s2 = sigma_minus("atoms.q1"), sigma_minus("atoms.q2")
        g1 = SLHTriple([[1, 0], [0, 1]], [np.sqrt(gamma1 / 2) * s1, np.sqrt(gamma1 / 2) * s1], 0.0)
        g4 = SLHTriple([[1, 0], [0, 1]], [np.sqrt(gamma2 / 2) * s2, np.sqrt(gamma2 / 2) * s2], 0.0)
        net = concat(concat(concat(g1, phase_shifter(phi)), phase_shifter(phi)), g4)
        red = feedback_multi(net, [(1, 3), (3, 5), (6, 4), (4, 2)]).triple
        direct = build_counterpropagating_pair(gamma1, gamma2, 0.0, 0.0, phi)
        # survivors keep relative order: outputs (2, 5), inputs (1, 6); the
        # right-going port of `direct` is (in 1, out 5), so only the output
        # rows need swapping
        from slhnet.slh import permute_ports

        red = permute_ports(red, [2, 1], "outputs")
        assert triples_close(red, direct, 1e-10)

    def test_sin_vs_cos_distinction(self):
        gamma1, gamma2, phi = 1.0, 1.0, 0.6
        counter = build_counterpropagating_pair(gamma1, gamma2, 0.0, 0.0, phi)
        co = build_copropagating_pair(gamma1, gamma2, 0.0, 0.0, phi)
        s1, s2 = sigma_minus("atoms.q1"), sigma_minus("atoms.q2")
        exch = s1 * s2.dag() + s1.dag() * s2
        anti = s1 * s2.dag() - s1.dag() * s2
        half = np.sqrt(gamma1 * gamma2) / 2
        assert op_close(counter.H, half * np.sin(phi) * exch)
        assert op_close(co.H, half * np.sin(phi) * exch + (half / 1j) * np.cos(phi) * anti)
        # counter: the two L rows carry the phase on different atoms
        assert op_close(counter.L[0], np.sqrt(gamma2 / 2) * s2 + np.exp(1j * phi) * np.sqrt(gamma1 / 2) * s1)
        assert op_close(counter.L[1], np.sqrt(gamma1 / 2) * s1 + np.exp(1j * phi) * np.sqrt(gamma2 / 2) * s2)
        assert op_close(co.L[0], co.L[1])


class TestCirculators:
    def test_ideal_routing(self):
        g = circulator_ideal()
        S = np.array([[g.S[i, j].constant().toarray()[0, 0] for j in range(3)] for i in range(3)])
        want = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.abs(S - want).max() == 0.0

    def test_nonideal_accepts_circulant_unitaries(self):
        r, b, t = circulant_coefficients(0.3, -0.2, 1.0)
        g = circulator_nonideal(r=r, b=b, t=t)
        assert g.unitarity_residual() < 1e-12

    def test_finite_bw_routes_like_ideal(self):
        # scattering response at resonance matches the ideal circulator
        # up to port-local phases, for every bandwidth gamma
        ideal = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        errs = []
        for gamma in (2.0, 8.0, 32.0):
            g = circulator_finite_bw(gamma=gamma, truncation=3, label="c")
            Xi = transfer_function(extract_linear(g), 0.0)
            errs.append(np.abs(np.abs(Xi) - ideal).max())
        assert errs[-1] < 1e-9
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_finite_bw_bandwidth_grows(self):
        # off resonance the routing degrades; larger gamma pushes the
        # degradation out to higher frequencies
        ideal = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        errs = []
        for gamma in (2.0, 8.0, 32.0):
            g = circulator_finite_bw(gamma=gamma, truncation=3, label="c")
            Xi = transfer_function(extract_linear(g), 1j * 0.5)
            errs.append(np.abs(np.abs(Xi) - ideal).max())
        assert errs[0] > errs[1] > errs[2]


class TestAtomComponents:
    def test_trapped_tla_recoil_phases_unitary(self):
        g = trapped_tla(0.5, 0.5, 0.1, 0.3, k0=0.7, mass=1.0, nu=2.0, truncation=6, label="t")
        assert g.unitarity_residual() < 1e-10
        assert g.hermiticity_residual() < 1e-10
        assert g.n_ports == 3

    def test_tavis_cummings_single_atom_is_jc(self):
        tc = tavis_cummings(1.0, 0.3, 1, delta_c=0.2, omega=0.5, truncation=4, label="x")
        jc = jaynes_cummings(1.0, 0.3, delta_c=0.2, omega=0.5, truncation=4, label="x")
        # same matrices up to the spin/qubit factor labeling
        h_tc = tc.H.constant().toarray()
        h_jc = jc.H.constant().toarray()
        # spin factor sorts after mode factor in both cases; constant offset
        # differs (J_z vs sigma_z/2 conventions agree here)
        assert np.abs(h_tc - h_jc).max() < 1e-12


def test_dispersion_cavity_parameters():
    omega_c, alpha, length, v = 100.0, 0.5, 2.0, 10.0
    g = dispersion_cavity(omega_c, alpha, length, v, phi=0.25, truncation=4, label="d")
    v_g = np.sqrt(v**2 + 4 * alpha * omega_c)
    tau_p = length / v_g
    delta_d = np.sqrt(np.sqrt(3.0) * v_g**2 / (8 * alpha * tau_p))
    assert abs(g.metadata["delta_d"] - delta_d) < 1e-12
    assert abs(g.metadata["gamma_d"] - np.sqrt(12.0) * delta_d) < 1e-12
    assert abs(g.metadata["omega_d"] - (omega_c - delta_d)) < 1e-12
    assert abs(g.S[0, 0].constant().toarray()[0, 0] - np.exp(0.25j)) < 1e-12


def test_trapped_tla_canonical_commutator():
    # the motional factor carries [x, p] = i away from the truncation edge
    import scipy.sparse as sp
    from slhnet.hilbert import Operator, commutator

    d = 8
    b = destroy("t.motion", d)
    mass, nu = 1.0, 2.0
    x = (b + b.dag()) * (1.0 / np.sqrt(2.0 * mass * nu))
    p = (b.dag() - b) * (1j * np.sqrt(mass * nu / 2.0))
    c = commutator(x, p).constant().toarray()
    assert np.abs(c[: d - 1, : d - 1] - 1j * np.eye(d - 1)).max() < 1e-12
