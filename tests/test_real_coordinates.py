"""The real coordinates that ``evolve_density`` and ``evolve_hierarchy``
integrate on: exactness against the complex generator, the isometry, and
the refusal of anything the conjugation does not fix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_unitary

from slhnet.dynamics import (
    GaussianEnv,
    Superoperator,
    _RealCoordinates,
    evolve_density,
    evolve_hierarchy,
    fock_hierarchy,
    liouvillian,
    liouvillian_coherent,
    liouvillian_gaussian,
    spre,
    vectorize,
)
from slhnet.envelopes import GaussianPulse, ScaledEnvelope
from slhnet.errors import ValidationError
from slhnet.hilbert import Coefficient, Operator, destroy, sigma_minus
from slhnet.slh import SLHTriple

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)
TIMES = (0.0, 1.3, 2.4)
PULSE = GaussianPulse(t0=2.0, sigma=0.7)


def random_rho(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def pulsed_triple(rng, dim, n_ports):
    """One mode; L and H carry envelope terms, so the generator has
    conjugate-paired (xi, xi*) and self-conjugate (|xi|^2) terms."""
    a = destroy("m", dim)
    U = random_unitary(rng, n_ports)
    S = [[complex(U[i, j]) for j in range(n_ports)] for i in range(n_ports)]
    L = []
    for _ in range(n_ports):
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = c1 * a + c2 * a.dag()
        L.append(x + x.scaled_by(PULSE))
    h = complex(*rng.normal(size=2)) * (a * a).scaled_by(PULSE)
    return SLHTriple(S, L, random_hermitian(rng, a.space) + h + h.dag())


@st.composite
def generators(draw):
    """(generator, block count, rng): a random pulsed Lindblad generator, a
    coherently driven one, a squeezed-input one (M != 0, pulsed mean field)
    or a Fock hierarchy with superposition field coefficients."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["lindblad", "coherent", "gaussian", "hierarchy"]))
    if kind == "lindblad":
        return liouvillian(pulsed_triple(rng, dim, draw(st.integers(1, 2)))), 1, rng
    if kind == "coherent":
        g = pulsed_triple(rng, dim, 1)
        return liouvillian_coherent(g, ScaledEnvelope(complex(*rng.normal(size=2)), PULSE)), 1, rng
    if kind == "gaussian":
        a = destroy("m", dim)
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = SLHTriple(np.exp(1j * rng.uniform(0, 2 * np.pi)), [c1 * a + c2 * a.dag()],
                      random_hermitian(rng, a.space))
        N = rng.uniform(0.1, 1.0)
        M = np.sqrt(N * (N + 1)) * rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        alpha = ScaledEnvelope(complex(*rng.normal(size=2)), PULSE)
        return liouvillian_gaussian(g, GaussianEnv(N=N, M=M, alpha=alpha)), 1, rng
    n = draw(st.integers(1, 2))
    v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    v /= np.linalg.norm(v)
    a = destroy("m", dim)
    c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = SLHTriple(1, [c1 * a + c2 * a.dag()], random_hermitian(rng, a.space))
    return fock_hierarchy(g, PULSE, np.outer(v, v.conj())), n + 1, rng


@PROPERTY
@given(generators())
def test_real_rhs_matches_complex_generator(case):
    gen, nb, rng = case
    assert gen.terms  # every case has time-dependent terms
    coords = _RealCoordinates(gen.dim, nb)
    assert coords.real_matrix(gen.static).nnz <= 2 * gen.static.nnz
    rhs = coords.rhs(gen)
    if nb == 1:
        x = coords.to_real(vectorize(random_rho(rng, gen.dim)))
    else:  # any real vector is a Hermitian hierarchy state
        x = rng.normal(size=gen.static.shape[0])
    y = coords.to_complex(x)
    for t in TIMES:
        want = gen.apply(y, t)
        got = coords.to_complex(rhs(t, x))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_coordinates_are_isometric_and_fold_expectations(d, nb, seed):
    """||x|| = ||y||, 1-ulp round trip, rho's lower triangle for the
    positivity guard, and tr(X rho) from the folded vec(X^T)."""
    rng = np.random.default_rng(seed)
    coords = _RealCoordinates(d, nb)
    rho = random_rho(rng, d)
    x = coords.to_real(vectorize(rho)) if nb == 1 else rng.normal(size=nb * nb * d * d)
    y = coords.to_complex(x)
    assert abs(np.linalg.norm(x) - np.linalg.norm(y)) <= 1e-15 * np.linalg.norm(y)
    assert np.array_equal(y, y[coords.s].conj())  # Hermitian by construction
    np.testing.assert_array_max_ulp(coords.to_real(y), x, maxulp=1)
    if nb == 1:
        assert np.abs(y - vectorize(rho)).max() <= 1e-16
        assert np.abs(np.tril(coords.lower(x)) - np.tril(rho)).max() <= 1e-16
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for op in (X, X + X.conj().T):
            w = coords.fold(op.T.reshape(-1))
            got = x @ w.real + 1j * (x @ w.imag)
            assert abs(got - np.trace(op @ rho)) <= 1e-14 * max(1.0, np.abs(op).sum())
        assert not coords.fold((X + X.conj().T).T.reshape(-1)).imag.any()


def test_hermitian_observables_have_no_imaginary_part():
    cav = SLHTriple(1, [destroy("c", 4)], 0.3 * destroy("c", 4).dag() * destroy("c", 4))
    rho0 = Operator(cav.space, random_rho(np.random.default_rng(3), 4))
    a = destroy("c", 4)
    traj = evolve_density(liouvillian_coherent(cav, 0.4), rho0, (0.0, 1.0), [0.0, 0.5, 1.0],
                          truncation_guard=None)
    n, amp = traj.expect(a.dag() * a), traj.expect(a)
    assert not n.imag.any()
    assert amp.imag.any()
    for k, s in enumerate(traj.states):
        assert abs(amp[k] - complex((a.constant() @ s.constant()).diagonal().sum())) < 1e-14
    atom = SLHTriple(1, [sigma_minus("q")], 0.0)
    v = np.array([0.6, 0.8j])
    hier = fock_hierarchy(atom, PULSE, np.outer(v, v.conj()))
    _, states = evolve_hierarchy(hier, ground(atom.space), (0.0, 4.0), np.linspace(0.0, 4.0, 9))
    sm = sigma_minus("q")
    coherence = [states.expect(x) for x in (sm + sm.dag(), 1j * (sm - sm.dag()))]
    assert not any(e.imag.any() for e in coherence)
    assert max(np.abs(e).max() for e in coherence) > 0.1


# --------------------------------------------------------------------------
# refusals, all before the first right-hand-side call


def cavity():
    return SLHTriple(1, [destroy("c", 3)], 0.0)


def ground(space):
    rho = np.zeros((space.total_dim,) * 2)
    rho[0, 0] = 1.0
    return Operator(space, rho)


def test_counting_fixture_counts(rhs_calls):
    g = cavity()
    evolve_density(liouvillian(g), ground(g.space), (0.0, 0.1), [0.0, 0.1])
    assert rhs_calls


def test_generator_that_breaks_hermiticity_is_refused(rhs_calls):
    g = cavity()
    with pytest.raises(ValidationError, match=r"does not preserve Hermiticity: .* by \d\.\d{3}e[+-]\d\d"):
        evolve_density(spre(g.space, destroy("c", 3)), ground(g.space), (0.0, 1.0))
    assert rhs_calls == []


def test_term_without_conjugate_partner_is_refused(rhs_calls):
    g = cavity()
    gen = liouvillian_coherent(g, PULSE)
    xi = Coefficient([(PULSE, False)])
    assert {c for c, _ in gen.terms} >= {xi, xi.conj()}
    lopsided = Superoperator(gen.space, gen.static, [(c, m) for c, m in gen.terms if c != xi.conj()])
    with pytest.raises(ValidationError, match="no conjugate partner"):
        evolve_density(lopsided, ground(g.space), (0.0, 1.0))
    # a partner whose matrix is not the conjugate of the term's
    xi_m = dict(gen.terms)[xi]
    skewed = Superoperator(gen.space, gen.static, [(xi, xi_m), (xi.conj(), 1j * xi_m)])
    with pytest.raises(ValidationError, match="does not preserve Hermiticity"):
        evolve_density(skewed, ground(g.space), (0.0, 1.0))
    assert rhs_calls == []


def test_non_hermitian_initial_state_is_refused(rhs_calls):
    g = cavity()
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho[0, 1] = 0.25
    with pytest.raises(ValidationError, match=r"initial state is not Hermitian: residual 2\.500e-01"):
        evolve_density(liouvillian(g), Operator(g.space, rho), (0.0, 1.0))
    atom = SLHTriple(1, [sigma_minus("q")], 0.0)
    bad = Operator(atom.space, np.array([[0.5, 0.3j], [0.3j, 0.5]]))
    with pytest.raises(ValidationError, match="initial state is not Hermitian"):
        evolve_hierarchy(fock_hierarchy(atom, PULSE, 1), bad, (0.0, 1.0))
    assert rhs_calls == []
