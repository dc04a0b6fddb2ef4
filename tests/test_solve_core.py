"""The sparse solve core behind feedback reduction and steady states.

Every reference here is computed with dense numpy inside the test, so
the sparse-LU loop solve and the GMRES steady state are checked against
an independent oracle rather than against themselves.
"""

import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import random_hermitian, random_unitary

from slhnet import dynamics, slh
from slhnet.cli import main
from slhnet.components import one_sided_cavity
from slhnet.dynamics import (
    SYLVESTER_TILE,
    DensityState,
    GaussianEnv,
    Superoperator,
    _density_guard,
    _gmres,
    _negative_eigenvalue,
    _RealCoordinates,
    _sylvester_inverse,
    _sylvester_part,
    _triangular_lyapunov,
    _triangular_sylvester,
    evolve_density,
    liouvillian,
    liouvillian_coherent,
    liouvillian_gaussian,
    spost,
    spre,
    steady_state,
    vectorize,
)
from slhnet.envelopes import GaussianPulse
from slhnet.errors import AlgebraicLoopError, SteadyStateError, TraceDriftError, ValidationError
from slhnet.hilbert import LabeledSpace, Operator, _factor, destroy, number, sigma_minus
from slhnet.netlang import elaborate, parse
from slhnet.slh import LOOP_SINGULARITY_TOL, SLHTriple, concat, feedback_multi, series, triples_close

NETWORKS = Path(__file__).resolve().parent.parent / "networks"

PULSE = GaussianPulse(t0=2.0, sigma=0.7)
PULSE_TIMES = (0.5, 1.7, 2.0, 2.9, 4.0)


def _dense_feedback(g: SLHTriple, xs, ys, t=None):
    """(S, L, H) of feedback_multi at time t from the Gough-James formulas, densely."""
    n, d = g.n_ports, g.space.total_dim
    big = np.block([[g.S[i, j].constant().toarray() for j in range(n)] for i in range(n)])
    Ls = [x.toarray(t) for x in g.L]

    def rows(idx):
        return np.concatenate([np.arange(i * d, (i + 1) * d) for i in idx])

    xbar = [i for i in range(n) if i not in xs]
    ybar = [j for j in range(n) if j not in ys]
    inv = np.linalg.inv(np.eye(len(xs) * d) - big[np.ix_(rows(xs), rows(ys))])
    L_x = np.vstack([Ls[i] for i in xs])
    S_red = big[np.ix_(rows(xbar), rows(ybar))] + big[np.ix_(rows(xbar), rows(ys))] @ inv @ big[np.ix_(rows(xs), rows(ybar))]
    L_red = np.vstack([Ls[i] for i in xbar]) + big[np.ix_(rows(xbar), rows(ys))] @ inv @ L_x
    M = np.hstack([L.conj().T for L in Ls]) @ big[:, rows(ys)] @ inv @ L_x
    H_red = g.H.toarray(t) + (M - M.conj().T) / 2j
    return S_red, L_red, H_red


def _reduced_blocks(red: SLHTriple, t=None):
    m = red.n_ports
    S = np.block([[red.S[i, j].constant().toarray() for j in range(m)] for i in range(m)])
    L = np.vstack([x.toarray(t) for x in red.L])
    return S, L, red.H.toarray(t)


def _check_against_dense(g: SLHTriple, wiring, tol=1e-10):
    """feedback_multi of g, and of g with pulsed couplings, against the dense formulas."""
    xs = [a - 1 for a, _ in wiring]
    ys = [b - 1 for _, b in wiring]
    pulsed = SLHTriple(g.S, [x + (0.5 * x).scaled_by(PULSE) for x in g.L], g.H)
    for net, times in ((g, (None,)), (pulsed, PULSE_TIMES)):
        red = feedback_multi(net, wiring).triple
        for t in times:
            for got, want in zip(_reduced_blocks(red, t), _dense_feedback(net, xs, ys, t)):
                assert np.abs(got - want).max() < tol


def _near_singular_loop(c: float, signal: float) -> SLHTriple:
    """Four scalar ports whose 2x2 loop block is S_xy = -c [[0, 1], [1, 0]].

    I - S_xy has smallest singular value 1 - c along (1, -1), which is
    orthogonal to all-ones.  ``signal`` sets the coupling of the mode
    along that null vector.
    """
    A = -c * np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.sqrt(1.0 - c * c) * np.eye(2)
    U = np.block([[A, b], [b, -A]])  # unitary dilation of the Hermitian contraction A
    a = destroy("m", 3)
    L = [0.5 * a + signal * a, 0.5 * a - signal * a, 0.3 * a, 0.0 * a]
    return SLHTriple(U.tolist(), L, 0.2 * a.dag() * a)


class TestFactor:
    # an all-ones start vector is an exact singular vector of these
    # matrices, so only round-off would steer it to the small one
    @pytest.mark.parametrize("eps", [1e-2, 3e-9])
    def test_estimate_finds_null_vector_orthogonal_to_ones(self, eps):
        loop = sp.csc_matrix(np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]]))
        lu, smallest = _factor(sp.kron(loop, sp.identity(4)))
        assert lu is not None
        assert eps <= smallest < 1.01 * eps

    def test_exactly_singular_maps_to_zero(self):
        assert _factor(sp.csc_matrix((3, 3), dtype=complex)) == (None, 0.0)

    def test_estimate_is_deterministic(self, rng):
        A = sp.csc_matrix(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))
        assert _factor(A)[1] == _factor(A)[1]
        smin = np.linalg.svd(A.toarray(), compute_uv=False)[-1]
        assert smin <= _factor(A)[1] < 1.5 * smin


class TestLoopSolve:
    def test_operator_valued_two_wire_loop(self, rng):
        # S = diag(P, P^2, 1) (U x 1) with the Fock-diagonal phase P = exp(i theta a^dag a)
        dim = 5
        a = destroy("m", dim)
        P = sla.expm(0.7j * number("m", dim).constant().toarray())
        U = random_unitary(rng, 3)
        phases = [P, P @ P, np.eye(dim)]
        S = [[Operator(a.space, U[i, j] * phases[i]) for j in range(3)] for i in range(3)]
        L = [(rng.normal() + 1j * rng.normal()) * a + rng.normal() * a.dag() for _ in range(3)]
        g = SLHTriple(S, L, random_hermitian(rng, a.space))
        assert not np.allclose(g.S[0, 0].constant().toarray(), U[0, 0] * np.eye(dim))

        _check_against_dense(g, [(1, 1), (2, 2)])

    def test_crossed_operator_loop(self, rng):
        dim = 4
        a = destroy("m", dim)
        P = sla.expm(-1.1j * number("m", dim).constant().toarray())
        U = random_unitary(rng, 3)
        S = [[Operator(a.space, U[i, j] * (P if j == 2 else np.eye(dim))) for j in range(3)] for i in range(3)]
        L = [0.4 * a, (0.3 - 0.2j) * a, 0.1 * a.dag()]
        g = SLHTriple(S, L, 0.3 * a.dag() * a)
        _check_against_dense(g, [(2, 3), (3, 2)])

    def test_operator_valued_cascade(self, rng):
        # S_xy = 0: the loop is not factored, so the dense formula checks that branch
        dim = 4
        a = destroy("m", dim)
        P = sla.expm(0.9j * number("m", dim).constant().toarray())
        U = random_unitary(rng, 2)
        S = [[Operator(a.space, U[i, j] * (P if i == 0 else np.eye(dim))) for j in range(2)] for i in range(2)]
        b = destroy("n", 3)
        g = concat(SLHTriple(S, [0.7 * a, 0.2 * a.dag()], random_hermitian(rng, a.space)),
                   SLHTriple(1, [1.1 * b], 0.4 * b.dag() * b))
        assert not g.S[0, 2].constant().nnz
        _check_against_dense(g, [(1, 3)])

    def test_near_singular_loop_with_signal_raises(self):
        g = _near_singular_loop(1.0 - 0.5 * LOOP_SINGULARITY_TOL, signal=0.5)
        with pytest.raises(AlgebraicLoopError, match="algebraic loop"):
            feedback_multi(g, [(1, 1), (2, 2)])

    def test_exactly_singular_loop_with_signal_raises(self):
        g = _near_singular_loop(1.0, signal=0.5)
        with pytest.raises(AlgebraicLoopError, match="algebraic loop"):
            feedback_multi(g, [(1, 1), (2, 2)])

    def test_loop_just_above_tolerance_composes(self):
        g = _near_singular_loop(1.0 - 2.0 * LOOP_SINGULARITY_TOL, signal=0.0)
        red = feedback_multi(g, [(1, 1), (2, 2)]).triple
        for got, want in zip(_reduced_blocks(red), _dense_feedback(g, [0, 1], [0, 1])):
            assert np.abs(got - want).max() < 1e-6 * max(1.0, np.abs(want).max())


@st.composite
def loop_systems(draw):
    """(loop, rhs, disjoint): a nonsingular loop ``I - S`` on k blocks of
    dimension d and a sparse right-hand side.  S has scalar x identity
    blocks, dense blocks, diagonal blocks with purely imaginary entries,
    or a random sparse pattern, scaled to norm 0.9.  The right-hand side
    is either random plus one empty and one all-rows column, or
    (``disjoint``) one column per component of the loop's pattern."""
    kind = draw(st.sampled_from(["scalar", "operator", "imaginary", "sparse"]))
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kd = k * d

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    mask = rng.random((k, k)) < 0.7
    if kind == "scalar":
        S = np.kron(cplx(k, k) * mask, np.eye(d))
    elif kind == "operator":
        S = cplx(kd, kd)
    elif kind == "imaginary":
        S = np.block([[np.diag(1j * rng.normal(size=d) * (rng.random(d) < 0.7) * mask[r, c]) for c in range(k)]
                      for r in range(k)])
    else:
        S = cplx(kd, kd) * (rng.random((kd, kd)) < 0.15)
    norm = np.linalg.norm(S, 2)
    loop = sp.csr_matrix(np.eye(kd) - (0.9 / norm * S if norm else S))

    disjoint = draw(st.booleans())
    if disjoint:
        _, labels = connected_components(loop != 0, directed=False)
        comps = [np.flatnonzero(labels == c) for c in rng.permutation(labels.max() + 1)]
        rhs = np.zeros((kd, len(comps)), dtype=complex)
        for j, rows in enumerate(comps):
            rhs[rows, j] = cplx(rows.size) * (rng.random(rows.size) < 0.6)
    else:
        n = draw(st.integers(0, 2 * kd))
        rhs = np.hstack([cplx(kd, n) * (rng.random((kd, n)) < draw(st.sampled_from([0.1, 0.3]))),
                         np.zeros((kd, 1)), cplx(kd, 1)])[:, rng.permutation(n + 2)]
    return loop, sp.csr_matrix(rhs), disjoint


class _RecordingLU:
    """A SuperLU whose ``solve`` records the width of every right-hand side."""

    def __init__(self, lu):
        self.lu, self.widths = lu, []

    def solve(self, b):
        self.widths.append(b.shape[1])
        return self.lu.solve(b)


class TestPackedLoopSolve:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(loop_systems())
    def test_packed_solve_is_bitwise_the_dense_solve(self, case):
        loop, rhs, disjoint = case
        factored = []

        def factor(a):
            lu, smallest = _factor(a)
            factored.append(_RecordingLU(lu))
            return factored[-1], smallest

        with mock.patch.object(slh, "_factor", factor):
            got = slh._solve_loop(loop, rhs)
        # the reference solves the whole loop: _solve_loop factors only the
        # components the right-hand side touches, and none when it touches none
        want = sp.csr_matrix(spla.splu(sp.csc_matrix(loop)).solve(rhs.toarray()))
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        # one dense column per colour
        nonempty = int((rhs.getnnz(axis=0) > 0).sum())
        widths = [w for lu in factored for w in lu.widths]
        if disjoint:
            assert widths == ([1] if nonempty else [])
        elif connected_components(loop != 0, directed=False)[0] == 1:
            assert widths == [nonempty]  # one component: nothing to pack
        else:
            assert len(widths) == 1 and widths[0] <= nonempty

    def test_vec_elim_loop_peak_memory_below_one_dense_rhs(self):
        # one dense right-hand side is a kd x (1 + m) d complex block (12.6 MB
        # at truncation 16); the packed solve holds a few of its columns
        text = re.sub(r"truncation=\d+", "truncation=16", (NETWORKS / "vec_elim_loop.qnet").read_text())
        nd = parse(text)
        tracemalloc.start()
        try:
            g = elaborate(nd).triple
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k, m, d = 4, g.n_ports, g.space.total_dim
        assert (k * d, m) == (1024, 2)
        assert peak < k * d * (1 + m) * d * 16

    def test_detached_singular_loop_costs_no_solve(self):
        # a phi = 0 self-loop is a singular block of I - S_xy that the
        # right-hand side never reaches: it drops out without a dense solve
        # of the whole 2 x 441 loop (46 MB before the restriction)
        cascade = ("component c1 = one_sided_cavity(gamma=1.0, delta=0.3, truncation=20);\n"
                   "component c2 = one_sided_cavity(gamma=2.0, delta=-0.2, truncation=20);\n"
                   "wire c1.out[1] -> c2.in[1];\n")
        detached = "component ps = phase_shifter(phi=0.0);\nwire ps.out[1] -> ps.in[1];\n" + cascade
        nd = parse(detached)
        tracemalloc.start()
        try:
            g = elaborate(nd).triple
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert triples_close(g, elaborate(parse(cascade)).triple)


def _dark_state_generator(rng) -> Superoperator:
    """Two dark levels of a three-level system, mixed by a generic H: each
    eigenvector of H on them is steady, so the null space is two-dimensional."""
    space = LabeledSpace([("q", 3)])
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = np.zeros((3, 3), dtype=complex)
    h[:2, :2] = m + m.conj().T
    jumps = [Operator(space, sp.coo_matrix(([w], ([k], [2])), shape=(3, 3))) for k, w in ((0, 1.0), (1, 0.7))]
    return liouvillian(SLHTriple([[1, 0], [0, 1]], jumps, Operator(space, h)))


def _hermiticity_breaking_generator(kind: str) -> Superoperator:
    """A qubit generator that does not commute with rho -> rho^: a decaying,
    driven qubit plus the commutator [C, rho] with a Hermitian C (trace
    preserving), or rho -> A rho + rho B with B != A^."""
    sm = sigma_minus("q")
    space = sm.space
    if kind == "commutator":
        C = Operator(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
        drive = liouvillian(SLHTriple(1, [sm], 0.5 * (sm + sm.dag())))
        return drive + 0.05 * (spre(space, C) + (-1.0) * spost(space, C))
    A = Operator(space, np.array([[-1.0, 0.0], [0.0, 0.0]]))
    B = Operator(space, np.array([[0.0, 1.0], [0.0, -1.0]]))
    return spre(space, A) + spost(space, B)


def _random_generator(seed: int) -> Superoperator:
    """Liouvillian of one or two factors (d <= 6), a random Hermitian H and
    one or two random jump operators: its null space is generically
    one-dimensional."""
    rng = np.random.default_rng(seed)
    dims = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 2)][rng.integers(8)]
    space = LabeledSpace([(f"f{k}", dk) for k, dk in enumerate(dims)])
    d = space.total_dim
    jumps = [
        Operator(space, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for _ in range(rng.integers(1, 3))
    ]
    return liouvillian(SLHTriple(np.eye(len(jumps)).tolist(), jumps, random_hermitian(rng, space)))


def _dense_null_state(gen: Superoperator) -> np.ndarray:
    """Unit-trace null vector of the Liouvillian from a dense SVD."""
    _, s, vh = np.linalg.svd(gen.static.toarray())
    assert s[-1] < 1e-10 * s[0] < s[-2]  # one-dimensional null space
    d = gen.dim
    rho = vh[-1].conj().reshape(d, d)
    return rho / np.trace(rho)


class TestSteadyStateOracle:
    def _check(self, gen):
        rho = steady_state(gen).rho.constant().toarray()
        assert np.abs(rho - _dense_null_state(gen)).max() < 1e-10
        assert np.linalg.norm(gen.static @ rho.reshape(-1)) < 1e-12

    def test_driven_cavity(self):
        self._check(liouvillian_coherent(one_sided_cavity(1.5, 0.4, truncation=12, label="c"), 0.6 - 0.2j))

    def test_driven_cascade(self):
        c1 = one_sided_cavity(2.0, 0.5, truncation=5, label="c1")
        c2 = one_sided_cavity(3.0, -0.7, truncation=5, label="c2")
        self._check(liouvillian_coherent(series(c2, c1), 0.3 + 0.1j))

    def test_thermal_squeezed_cavity(self):
        cav = one_sided_cavity(1.0, 0.2, truncation=20, label="c")
        self._check(liouvillian_gaussian(cav, GaussianEnv(N=0.1, M=0.05)))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_liouvillian(self, seed):
        self._check(_random_generator(seed))


class TestSteadyStateContract:
    def test_zero_generator_reports_dimension(self):
        # d^2 = 4225, above the size where a dense SVD used to decide this
        with pytest.raises(SteadyStateError, match="dimension"):
            steady_state(Superoperator(LabeledSpace([("c", 65)])))

    def test_trivial_null_space_reported(self):
        space = LabeledSpace([("c", 3)])
        gen = Superoperator(space, static=-sp.identity(9, dtype=complex, format="csr"))
        with pytest.raises(SteadyStateError, match="trivial null space"):
            steady_state(gen)

    def test_degenerate_null_space_without_exact_zero_pivot(self, rng):
        # a singular but consistent A: GMRES keeps each start's null component
        with pytest.raises(SteadyStateError, match="dimension"):
            steady_state(_dark_state_generator(rng))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dark_states_report_dimension(self, seed):
        with pytest.raises(SteadyStateError, match="dimension"):
            steady_state(_dark_state_generator(np.random.default_rng(seed)))

    @pytest.mark.parametrize("kind", ["commutator", "sylvester"])
    def test_hermiticity_breaking_generator_refused_as_in_evolve_density(self, kind):
        gen = _hermiticity_breaking_generator(kind)
        with pytest.raises(ValidationError, match="generator does not preserve Hermiticity") as solved:
            steady_state(gen)
        with pytest.raises(ValidationError) as evolved:
            evolve_density(gen, Operator(gen.space, np.diag([1.0, 0.0])), (0.0, 1.0))
        assert str(solved.value) == str(evolved.value)

    def test_one_schur_form_and_an_exactly_hermitian_answer(self, monkeypatch):
        # a work counter: one Schur form serves both sides of the
        # preconditioner; rho is read off its real coordinates, so it is
        # Hermitian without a repair
        schur, calls = sla.schur, []

        def counting_schur(*args, **kw):
            calls.append(args[0].shape)
            return schur(*args, **kw)

        monkeypatch.setattr(sla, "schur", counting_schur)
        rho = steady_state(_driven_cascade((2.0, 0.5), (3.0, -0.7), 4)[0]).rho.constant().toarray()
        assert calls == [(16, 16)]
        assert np.array_equal(rho, rho.conj().T)

    def test_gmres_failure_raises_without_fallback(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_gmres", lambda A, b, x0, M: (x0, 1))
        gen = liouvillian_coherent(one_sided_cavity(1.0, 0.0, truncation=4, label="c"), 0.3)
        with pytest.raises(SteadyStateError, match="did not converge.*dimension"):
            steady_state(gen)


def _driven_cascade(c1_params, c2_params, truncation, alpha=0.2 - 0.1j):
    """Coherently driven cascade of two cavities (gamma, delta), with the
    analytic steady-state amplitudes <a1>, <a2> of the linear model."""
    (g1, d1), (g2, d2) = c1_params, c2_params
    c1 = one_sided_cavity(g1, d1, truncation=truncation, label="c1")
    c2 = one_sided_cavity(g2, d2, truncation=truncation, label="c2")
    a1 = -np.sqrt(g1) * alpha / (g1 / 2 + 1j * d1)
    a2 = -np.sqrt(g2) * (alpha + np.sqrt(g1) * a1) / (g2 / 2 + 1j * d2)
    return liouvillian_coherent(series(c2, c1), alpha), (a1, a2)


class TestSylvesterPreconditioner:
    """The preconditioner inverts the Sylvester part rho -> P rho + rho P^
    of a Hermiticity-preserving generator exactly; the jump terms are what
    it leaves out."""

    def _space(self):
        return LabeledSpace([("a", 2), ("b", 3)])

    def _random_matrix(self, rng, d, shift=0.0):
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) + shift * np.eye(d)

    def test_projection_rebuilds_sylvester_generator(self, rng):
        space = self._space()
        d = space.total_dim
        X = self._random_matrix(rng, d)
        M = (spre(space, Operator(space, X)) + spost(space, Operator(space, X.conj().T))).static
        P = _sylvester_part(M, d)
        rebuilt = np.kron(P, np.eye(d)) + np.kron(np.eye(d), P.conj())
        assert np.abs(rebuilt - M.toarray()).max() < 1e-12

    def test_inverse_of_sylvester_generator(self, rng):
        space = self._space()
        d = space.total_dim
        # a spectrum in the left half-plane: P X + X P^ is well conditioned
        X = self._random_matrix(rng, d, shift=-3 * np.sqrt(2 * d))
        M = (spre(space, Operator(space, X)) + spost(space, Operator(space, X.conj().T))).static
        solve = _sylvester_inverse(_sylvester_part(M, d))
        v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        assert np.abs(solve(M @ v) - v).max() < 1e-12 * np.abs(v).max()

    def test_remainder_is_the_jump_terms(self, rng):
        space = self._space()
        d = space.total_dim
        jumps = []
        for _ in range(2):
            m = self._random_matrix(rng, d)
            jumps.append(m - np.trace(m) / d * np.eye(d))
        M = liouvillian(
            SLHTriple(np.eye(2).tolist(), [Operator(space, m) for m in jumps], random_hermitian(rng, space))
        ).static
        P = _sylvester_part(M, d)
        rebuilt = np.kron(P, np.eye(d)) + np.kron(np.eye(d), P.conj())
        want = sum(np.kron(m, m.conj()) for m in jumps)
        assert np.abs(M.toarray() - rebuilt - want).max() < 1e-12


class TestTriangularSylvester:
    """The recursive blocked solve of ``A X + X B^ = C`` gives LAPACK's
    unblocked ``ztrsyl`` answer, on both sides of the tile size."""

    @staticmethod
    def _triangular(rng, d):
        # a spectrum in the left half-plane, as a no-jump part's
        t = np.triu(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        t[np.diag_indices(d)] = -rng.uniform(0.5, 3.0, d) + 1j * rng.normal(size=d)
        return t

    def _check(self, A, B, C):
        y, scale, _ = sla.lapack.ztrsyl(A, B, C, tranb="C")
        want = y / scale
        X = C.copy()
        _triangular_sylvester(A, B, X)
        assert np.abs(X - want).max() < 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [31, 32, 33, 64, 81, 100, 144])
    def test_matches_ztrsyl(self, rng, d):
        C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        self._check(self._triangular(rng, d), self._triangular(rng, d), C)

    def test_matches_ztrsyl_on_the_defective_cascade_schur_factor(self, rng):
        # two identical cavities in cascade: H_eff is (nearly) a Jordan block
        gen, _ = _driven_cascade((2.0, 0.5), (2.0, 0.5), 8)
        d = gen.dim
        T, _ = sla.schur(_sylvester_part(gen.static, d), output="complex")
        assert d > SYLVESTER_TILE
        self._check(T, T, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    def test_inverse_round_trip_above_the_tile(self, rng):
        space = LabeledSpace([("a", 7), ("b", 10)])
        d = space.total_dim
        assert d > 2 * SYLVESTER_TILE  # two levels of halving
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) - 3 * np.sqrt(2 * d) * np.eye(d)
        M = (spre(space, Operator(space, X)) + spost(space, Operator(space, X.conj().T))).static
        solve = _sylvester_inverse(_sylvester_part(M, d))
        # Hermitian, as every right-hand side steady_state hands the solve
        v = vectorize(random_hermitian(rng, space).static.toarray())
        assert np.abs(solve(M @ v) - v).max() < 1e-12 * np.abs(v).max()


class TestTriangularLyapunov:
    """The Hermitian recursion solves ``T Y + Y T^ = C`` as the blocked
    Sylvester solve does, and its answer is exactly Hermitian."""

    def _check(self, T, rng):
        d = len(T)
        C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        C += C.conj().T
        want = C.copy()
        _triangular_sylvester(T, T, want)
        Y = C.copy()
        _triangular_lyapunov(T, Y)
        assert np.abs(Y - want).max() < 1e-12 * np.abs(want).max()
        assert np.array_equal(Y, Y.conj().T)

    @pytest.mark.parametrize("d", [31, 32, 33, 81, 225])
    def test_matches_sylvester(self, rng, d):
        self._check(TestTriangularSylvester._triangular(rng, d), rng)

    def test_matches_sylvester_on_the_defective_cascade_schur_factor(self, rng):
        gen, _ = _driven_cascade((2.0, 0.5), (2.0, 0.5), 8)
        T, _ = sla.schur(_sylvester_part(gen.static, gen.dim), output="complex")
        self._check(T, rng)


class TestGmres:
    """The steady state's right-preconditioned restarted GMRES."""

    def _system(self, rng, n):
        # nonsymmetric, with singular values in [1, 3]
        Q1, Q2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
        return (Q1 * rng.uniform(1.0, 3.0, n)) @ Q2.T

    @pytest.mark.parametrize("precond", ["none", "jacobi"])
    def test_matches_dense_solve(self, rng, precond):
        n = 60
        A = self._system(rng, n)
        b = rng.normal(size=n)
        M = (lambda v: v) if precond == "none" else (lambda v: v / np.diag(A))
        x, info = _gmres(sp.csr_matrix(A), b, rng.normal(size=n), M)
        assert info == 0
        assert np.linalg.norm(b - A @ x) <= dynamics.STEADY_GMRES_RTOL * np.linalg.norm(b)
        want = np.linalg.solve(A, b)
        assert np.abs(x - want).max() < 1e-10 * np.abs(want).max()

    def test_singular_consistent_system_keeps_the_start_null_component(self, rng):
        n = 40
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        w = rng.uniform(1.0, 3.0, n)
        w[0] = 0.0
        A = (Q * w) @ Q.T  # null space spanned by Q[:, 0], orthogonal to the range
        b = A @ rng.normal(size=n)
        x0 = rng.normal(size=n)
        x, info = _gmres(sp.csr_matrix(A), b, x0, lambda v: v)
        assert info == 0
        assert np.linalg.norm(b - A @ x) <= dynamics.STEADY_GMRES_RTOL * np.linalg.norm(b)
        assert abs(Q[:, 0] @ x - Q[:, 0] @ x0) < 1e-12

    def test_exhausted_cycles_return_nonzero_info(self, rng, monkeypatch):
        monkeypatch.setattr(dynamics, "STEADY_GMRES_RESTART", 3)
        monkeypatch.setattr(dynamics, "STEADY_GMRES_MAXITER", 2)
        n = 60
        x, info = _gmres(sp.csr_matrix(self._system(rng, n)), rng.normal(size=n), np.zeros(n), lambda v: v)
        assert info != 0
        assert np.all(np.isfinite(x))


def _state_with_smallest_eigenvalue(rng, d: int, w_min: float) -> np.ndarray:
    """A unit-trace Hermitian d x d matrix whose smallest eigenvalue is w_min."""
    w = rng.uniform(0.1, 1.0, d)
    w[0] = 0.0
    w *= (1.0 - w_min) / w.sum()
    w[0] = w_min
    U = random_unitary(rng, d)
    return (U * w) @ U.conj().T


class TestPositivity:
    """``_negative_eigenvalue`` reads only the lower triangle, passes a dip
    within ``TOL_POSITIVITY`` and refuses one past it by its eigenvalue."""

    def _state(self, rng, w_min):
        """A d = 6 state with smallest eigenvalue ``w_min``, its space and
        its real coordinates."""
        rho = _state_with_smallest_eigenvalue(rng, 6, w_min)
        return rho, LabeledSpace([("q", 6)]), _RealCoordinates(6).project(vectorize(rho))

    def _inputs(self, rho, x):
        """The matrix a ``DensityState`` hands over and the trajectory
        guard's ``coords.lower(x)``, as they are and with garbage or NaN in
        the strict upper triangle."""
        upper = np.triu_indices(len(rho), 1)
        lower = _RealCoordinates(len(rho)).lower(x)
        out = [rho, lower]
        for m, junk in ((rho, 7.0 - 3.0j), (rho, np.nan), (lower, np.nan)):
            m = m.copy()
            m[upper] = junk
            out.append(m)
        return out

    def test_dip_within_tolerance_passes(self, rng):
        rho, space, x = self._state(rng, -0.5e-8)
        assert all(_negative_eigenvalue(m) is None for m in self._inputs(rho, x))
        DensityState(Operator(space, rho))
        _density_guard(space, None)(0.0, x)

    def test_dip_past_tolerance_is_refused_by_its_eigenvalue(self, rng):
        rho, space, x = self._state(rng, -2e-8)
        for m in self._inputs(rho, x):
            assert _negative_eigenvalue(m) == pytest.approx(-2e-8, rel=1e-6)
        with pytest.raises(ValidationError, match=r"negative eigenvalue -2\.000e-08"):
            DensityState(Operator(space, rho))
        with pytest.raises(TraceDriftError, match=r"negative eigenvalue -2\.000e-08 at t = 1\.5"):
            _density_guard(space, None)(1.5, x)


class TestSizeIndependence:
    @pytest.mark.parametrize("truncation", [64, 65])  # d^2 = 4096 and 4225
    def test_driven_cavity_amplitude(self, truncation):
        gamma, delta, alpha = 1.2, 0.3, 0.5 + 0.25j
        gen = liouvillian_coherent(one_sided_cavity(gamma, delta, truncation=truncation, label="c"), alpha)
        want = -np.sqrt(gamma) * alpha / (gamma / 2 + 1j * delta)
        assert abs(steady_state(gen).expect(destroy("c", truncation)) - want) < 1e-8

    def test_two_cavity_cascade_amplitudes(self):
        # d^2 = 4096
        gen, (a1, a2) = _driven_cascade((2.0, 0.5), (3.0, -0.7), 8)
        ss = steady_state(gen)
        assert abs(ss.expect(destroy("c1", 8)) - a1) < 1e-8
        assert abs(ss.expect(destroy("c2", 8)) - a2) < 1e-8

    def test_identical_cascade_amplitudes(self):
        # two identical cavities in cascade: the no-jump part is (nearly) a
        # Jordan block, which the preconditioner's Schur form handles and an
        # eigendecomposition would not
        gen, (a1, a2) = _driven_cascade((2.0, 0.5), (2.0, 0.5), 8)
        _, vecs = np.linalg.eig(_sylvester_part(gen.static, gen.dim))
        assert np.linalg.cond(vecs) > 1e10
        ss = steady_state(gen)
        assert abs(ss.expect(destroy("c1", 8)) - a1) < 1e-8
        assert abs(ss.expect(destroy("c2", 8)) - a2) < 1e-8

    def test_zero_start_preconditioner_work(self, monkeypatch):
        # a work counter, not a timing: the zero-start solve of the t8
        # cascade applies the preconditioner 6 times
        gmres, counts = dynamics._gmres, []

        def counting_gmres(A, b, x0, M):
            counts.append(0)

            def apply(r):
                counts[-1] += 1
                return M(r)

            return gmres(A, b, x0, apply)

        monkeypatch.setattr(dynamics, "_gmres", counting_gmres)
        steady_state(_driven_cascade((2.0, 0.5), (3.0, -0.7), 8)[0])
        assert len(counts) == 2
        assert counts[0] < 2 * 6

    def test_ill_posed_wire_exits_3(self, tmp_path, capsys):
        # the ill-posed wire of test_cli, at a larger truncation
        f = tmp_path / "bad_wire.qnet"
        f.write_text(
            "component p = phase_shifter(phi=0.0);\n"
            "component c = one_sided_cavity(gamma=1.0, truncation=65);\n"
            "wire c.out[1] -> p.in[1];\n"
            "wire p.out[1] -> c.in[1];"
        )
        assert main(["compose", str(f)]) == 3
        assert "algebraic loop" in capsys.readouterr().err
