import json

import numpy as np
import pytest
import scipy.sparse as sp

from slhnet.envelopes import CallableEnvelope, ConstantAmplitude, GaussianPulse, ScaledEnvelope
from slhnet.errors import ConstructionError, SpaceError
from slhnet.hilbert import (
    Coefficient,
    LabeledSpace,
    _as_csr,
    _top_populations,
    Operator,
    basis_vector,
    coherent_vector,
    commutator,
    create,
    density_from_vector,
    destroy,
    make_elementary,
    number,
    op_close,
    operator_from_json,
    operator_to_json,
    partial_trace,
    product_density,
    sigma_minus,
    trace,
)


class TestLabeledSpace:
    def test_factors_sorted_and_total_dim(self):
        s = LabeledSpace([("b", 3), ("a", 2)])
        assert s.labels == ("a", "b")
        assert s.total_dim == 6

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SpaceError):
            LabeledSpace([("a", 2), ("a", 3)])

    def test_bad_dim_rejected(self):
        with pytest.raises(SpaceError):
            LabeledSpace([("a", 0)])

    def test_union_checks_dims(self):
        s1 = LabeledSpace([("a", 2)])
        s2 = LabeledSpace([("a", 3)])
        with pytest.raises(SpaceError):
            s1.union(s2)


class TestElementary:
    def test_annihilation_dim3(self):
        a = make_elementary("annihilation", "m", 3).constant().toarray()
        want = np.zeros((3, 3))
        want[0, 1] = 1.0
        want[1, 2] = np.sqrt(2.0)
        assert np.abs(a - want).max() == 0.0

    def test_sigma_minus_single_entry(self):
        sm = sigma_minus("q").constant().toarray()
        assert sm[0, 1] == 1.0 and np.abs(sm).sum() == 1.0

    def test_identity_dim4(self):
        eye = make_elementary("identity", "m", 4).constant().toarray()
        assert np.abs(eye - np.eye(4)).max() == 0.0

    def test_creation_is_adjoint_of_annihilation(self):
        a = destroy("m", 5)
        assert op_close(create("m", 5), a.dag())

    def test_invalid_dim(self):
        with pytest.raises(ConstructionError):
            make_elementary("annihilation", "m", 1)

    def test_projector_index_out_of_range(self):
        with pytest.raises(ConstructionError):
            make_elementary("projector", "m", 3, 0, 3)

    def test_pauli_algebra(self):
        sx = make_elementary("pauli_x", "q", 2)
        sy = make_elementary("pauli_y", "q", 2)
        sz = make_elementary("pauli_z", "q", 2)
        assert op_close(commutator(sx, sy), 2j * sz)


class TestEmbedding:
    def test_disjoint_factors_commute(self):
        a1 = destroy("m1", 3)
        a2 = destroy("m2", 3)
        target = LabeledSpace([("m1", 3), ("m2", 3)])
        c = commutator(a1.embed(target), a2.embed(target))
        assert c.max_abs() == 0.0

    def test_embed_into_own_space_is_identity_op(self):
        a = destroy("m", 4)
        assert a.embed(a.space) is a

    def test_embed_multiplies_dim(self):
        a = destroy("m", 3)
        target = LabeledSpace([("m", 3), ("q", 2)])
        assert a.embed(target).space.total_dim == 6

    def test_embed_missing_label_fails(self):
        a = destroy("m", 3)
        with pytest.raises(SpaceError):
            a.embed(LabeledSpace([("q", 2)]))

    def test_embed_dim_mismatch_fails(self):
        a = destroy("m", 3)
        with pytest.raises(SpaceError):
            a.embed(LabeledSpace([("m", 4)]))

    def test_embed_commutes_with_product(self, rng):
        space = LabeledSpace([("m", 3)])
        target = LabeledSpace([("m", 3), ("q", 2), ("r", 2)])
        x = Operator(space, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        y = Operator(space, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        assert op_close((x * y).embed(target), x.embed(target) * y.embed(target))

    def test_embedding_matches_kron_order(self):
        # factor order is lexicographic: kron(a_label_first, rest)
        a = destroy("a", 2)
        target = LabeledSpace([("a", 2), ("b", 3)])
        direct = np.kron(a.constant().toarray(), np.eye(3))
        assert np.abs(a.embed(target).constant().toarray() - direct).max() == 0.0


def _stored_zero_coo():
    """[[0, 1], [2, 0]] with the zero at (0, 0) stored explicitly."""
    return sp.coo_matrix(([1.0, 0.0, 2.0], ([0, 0, 1], [1, 0, 0])), shape=(2, 2))


class TestAsCsr:
    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[0.0, 1.0], [2.0, 0.0]]),
            _stored_zero_coo(),
            _stored_zero_coo().tocsr(),
            sp.csr_matrix(_stored_zero_coo(), dtype=np.complex128),
        ],
        ids=["dense", "coo", "csr-float", "csr-complex"],
    )
    def test_explicit_zeros_pruned(self, matrix):
        m = _as_csr(matrix)
        assert isinstance(m, sp.csr_matrix) and m.dtype == np.complex128
        assert m.nnz == 2 and m.data.all()
        assert np.array_equal(m.toarray(), [[0, 1], [2, 0]])

    def test_complex_csr_without_zeros_is_not_copied(self):
        m = sp.csr_matrix(np.array([[0, 1], [2, 0]], dtype=np.complex128))
        assert _as_csr(m) is m
        assert Operator(LabeledSpace([("m", 2)]), m).static is m

    def test_operator_matrices_unchanged_by_arithmetic(self, rng):
        space = LabeledSpace([("m", 3)])
        static = _as_csr(rng.normal(size=(3, 3)) * (rng.random((3, 3)) < 0.5))
        term = _as_csr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        op = Operator(space, static, [(lambda t: t, term)])
        before = [(m.data.copy(), m.indices.copy(), m.indptr.copy()) for m in (static, term)]
        target = LabeledSpace([("m", 3), ("q", 2)])
        (op + op, op - op, op * op, 2.0 * op, op.dag(), op.embed(target),
         op.scaled_by(lambda t: 2 * t), op.at(0.5), op * destroy("q", 2))
        for m, (data, indices, indptr) in zip((op.static, op.terms[0][1]), before):
            assert np.array_equal(m.data, data)
            assert np.array_equal(m.indices, indices) and np.array_equal(m.indptr, indptr)


class TestArithmetic:
    def test_truncated_ccr(self):
        d = 6
        a = destroy("m", d)
        c = commutator(a, a.dag()).constant().toarray()
        want = np.eye(d)
        want[d - 1, d - 1] = -(d - 1)
        assert np.abs(c - want).max() < 1e-12

    def test_self_commutator_vanishes(self, rng):
        x = Operator(LabeledSpace([("m", 4)]), rng.normal(size=(4, 4)))
        assert commutator(x, x).max_abs() == 0.0

    def test_adjoint_antilinearity(self):
        a = destroy("m", 4)
        c = 0.3 - 1.2j
        assert op_close((c * a).dag(), np.conj(c) * a.dag())

    def test_adjoint_antihomomorphism(self, rng):
        s = LabeledSpace([("m", 4)])
        x = Operator(s, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        y = Operator(s, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert op_close((x * y).dag(), y.dag() * x.dag())

    def test_mul_associative(self, rng):
        s = LabeledSpace([("m", 3)])
        ops = [
            Operator(s, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for _ in range(3)
        ]
        x, y, z = ops
        assert op_close((x * y) * z, x * (y * z))

    def test_auto_embedding_in_arithmetic(self):
        a1 = destroy("m1", 3)
        n2 = number("m2", 2)
        combined = a1 * n2
        assert combined.space.labels == ("m1", "m2")


class TestTimeDependence:
    def test_scaled_by_and_at(self):
        a = destroy("m", 3)
        op = a.scaled_by(lambda t: 2.0 * t)
        assert np.abs(op.at(0.5).toarray() - a.constant().toarray()).max() < 1e-14
        assert not op.is_static

    def test_adjoint_conjugates_coefficient(self):
        a = destroy("m", 3)
        op = a.scaled_by(lambda t: 1j * t)
        got = op.dag().at(2.0).toarray()
        want = -2j * a.dag().constant().toarray()
        assert np.abs(got - want).max() < 1e-14

    def test_product_of_envelopes(self):
        a = destroy("m", 4)
        x = a.scaled_by(lambda t: t)
        y = a.dag().scaled_by(lambda t: t + 1)
        got = (x * y).at(2.0).toarray()
        want = 6.0 * (a * a.dag()).constant().toarray()
        assert np.abs(got - want).max() < 1e-12

    def test_constant_raises_for_time_dependent(self):
        op = destroy("m", 3).scaled_by(lambda t: t)
        with pytest.raises(ConstructionError):
            op.constant()

    def test_toarray_needs_a_time_for_time_dependent(self):
        op = number("m", 3).scaled_by(GaussianPulse(t0=1.0, sigma=0.5))
        with pytest.raises(ConstructionError):
            op.toarray()
        assert np.array_equal(op.toarray(1.0), op.at(1.0).toarray())
        assert np.array_equal(number("m", 3).toarray(), np.diag([0.0, 1.0, 2.0]))

    def test_trace_needs_a_time_for_time_dependent(self):
        op = number("m", 3).scaled_by(GaussianPulse(t0=1.0, sigma=0.5))
        with pytest.raises(ConstructionError):
            trace(op)
        assert trace(op, 1.0) == pytest.approx(3.0 * GaussianPulse(t0=1.0, sigma=0.5)(1.0))
        assert trace(number("m", 3)) == 3.0


class TestCoefficient:
    def test_equality_is_the_multiset_of_factors(self):
        f, g = GaussianPulse(t0=1.0, sigma=0.5), GaussianPulse(t0=1.0, sigma=0.5)
        xi, xs = Coefficient([(f, False)]), Coefficient([(f, True)])
        assert xi * xs == xs * xi and hash(xi * xs) == hash(xs * xi)
        assert (xi * xs).factors == ((f, False), (f, True))  # first appearance, not id() order
        assert xi != xs and xi * xi != xi
        assert xi == Coefficient([(g, False)]) and hash(xi) == hash(Coefficient([(g, False)]))  # by value
        assert xs.conj() == xi
        fn = lambda t: 1.0  # noqa: E731
        assert Coefficient([(CallableEnvelope(fn), False)]) != Coefficient([(CallableEnvelope(fn), False)])

    def test_function_drops_the_conjugation_of_real_factors_only(self):
        f, z = GaussianPulse(t0=1.0, sigma=0.5), ScaledEnvelope(1j, GaussianPulse(t0=1.0, sigma=0.5))
        xi, zeta = Coefficient([(f, False)]), Coefficient([(z, False)])
        assert xi.conj() != xi and xi.conj().function() == xi.function()
        assert zeta.conj().function() != zeta.function()
        assert (xi * xi).function() != xi.function()

    def test_max_abs_sums_terms_that_are_one_function(self):
        a = destroy("m", 3)
        env = GaussianPulse(t0=50.0, sigma=1.0)
        real = (a + a.dag()).scaled_by(env)
        assert len((real - real.dag()).terms) == 2 and (real - real.dag()).max_abs() == 0.0
        assert real.is_hermitian() and op_close(real, real.dag())
        assert not (1j * real).is_hermitian()
        assert (1j * real - (1j * real).dag()).max_abs() == pytest.approx(2.0 * np.sqrt(2.0))
        late = number("m", 3).scaled_by(lambda t: 1j * (t > 20))
        assert not late.is_hermitian()

    def test_equal_coefficients_merge_and_zero_terms_drop(self):
        a = destroy("m", 3)
        env = GaussianPulse(t0=1.0, sigma=0.5)
        x = a.scaled_by(env)
        assert len((x + x).terms) == 1
        assert (x - x).is_static and (x - x).static.nnz == 0
        prod = x.dag() * x + x * x.dag()  # xi* xi and xi xi* are one coefficient
        assert len(prod.terms) == 1
        t = 1.3
        want = abs(env(t)) ** 2 * (a.dag() * a + a * a.dag()).constant().toarray()
        assert np.abs(prod.at(t).toarray() - want).max() < 1e-14

    def test_constant_factors_fold_into_the_matrix(self):
        a = destroy("m", 3)
        env = GaussianPulse(t0=1.0, sigma=0.5)
        op = a.scaled_by(ConstantAmplitude(2.0 - 1.0j)).scaled_by(env).dag()
        (coeff, m), = op.terms
        assert coeff == Coefficient([(env, True)])
        assert np.abs(m.toarray() - (2.0 + 1.0j) * a.dag().constant().toarray()).max() < 1e-15
        assert a.scaled_by(ConstantAmplitude(0.5)).is_static

    def test_single_envelope_serializes_as_itself(self):
        env = GaussianPulse(t0=1.0, sigma=0.5)
        data = json.loads(operator_to_json(destroy("m", 3).scaled_by(env)))
        assert data["terms"][0]["coefficient"] == env.to_dict()
        data = json.loads(operator_to_json(destroy("m", 3).scaled_by(env).dag()))
        assert data["terms"][0]["coefficient"] == {"shape": "product", "factors": [{"envelope": env.to_dict(), "conj": True}]}

    def test_zero_parts_serialize_without_a_sign(self):
        # the adjoint of a real operator stores -0.0 imaginary parts
        a = destroy("m", 3)
        assert operator_to_json(a.dag()) == operator_to_json(Operator(a.space, a.dag().constant().real))
        for op in (a, a.dag()):
            assert "-0.0" not in operator_to_json(op)


class TestPartialTrace:
    def test_product_state_marginal(self):
        space = LabeledSpace([("a", 2), ("b", 3)])
        rho_a = np.array([[0.25, 0.1], [0.1, 0.75]])
        rho_b = np.diag([0.5, 0.3, 0.2])
        rho = Operator(space, np.kron(rho_a, rho_b))
        red = partial_trace(rho, {"a"})
        assert np.abs(red.constant().toarray() - rho_a).max() < 1e-12

    def test_keep_all_is_identity(self):
        space = LabeledSpace([("a", 2), ("b", 2)])
        rho = product_density(space, {})
        assert op_close(partial_trace(rho, {"a", "b"}), rho)

    def test_bell_state_marginal_is_maximally_mixed(self):
        space = LabeledSpace([("q1", 2), ("q2", 2)])
        bell = (basis_vector(space, {"q1": 0, "q2": 0}) + basis_vector(space, {"q1": 1, "q2": 1})) / np.sqrt(2)
        rho = density_from_vector(space, bell)
        red = partial_trace(rho, {"q1"})
        assert np.abs(red.constant().toarray() - 0.5 * np.eye(2)).max() < 1e-12

    def test_trace_preserved_random(self, rng):
        space = LabeledSpace([("a", 3), ("b", 2), ("c", 2)])
        d = space.total_dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = Operator(space, m @ m.conj().T)
        for keep in ({"a"}, {"b", "c"}, {"a", "c"}):
            assert abs(trace(partial_trace(rho, keep)) - trace(rho)) < 1e-10

    def test_unknown_label(self):
        rho = product_density(LabeledSpace([("a", 2)]), {})
        with pytest.raises(SpaceError):
            partial_trace(rho, {"zz"})


class TestStatesAndDiagnostics:
    def test_coherent_vector_mean(self):
        alpha = 0.4 + 0.2j
        v = coherent_vector(30, alpha)
        a = destroy("m", 30).constant().toarray()
        got = v.conj() @ a @ v
        assert abs(got - alpha) < 1e-10

    def test_top_level_population(self):
        space = LabeledSpace([("m", 4)])
        rho = density_from_vector(space, basis_vector(space, {"m": 3}))
        pops = _top_populations(rho.constant().diagonal(), space)
        assert abs(pops["m"] - 1.0) < 1e-12

    @pytest.mark.parametrize("factors", [[("q", 2), ("a", 3), ("b", 4)], [("a", 4), ("q", 2), ("b", 3)]])
    def test_top_level_populations_match_projectors(self, rng, factors):
        space = LabeledSpace(factors)
        d = space.total_dim
        for _ in range(5):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            pops = _top_populations(rho.diagonal(), space)
            assert set(pops) == {"a", "b"}
            for lbl, pop in pops.items():
                dim = space.dim_of(lbl)
                proj = make_elementary("projector", lbl, dim, dim - 1, dim - 1).embed(space).constant()
                assert abs(pop - np.real(np.trace(proj @ rho))) < 1e-14


class TestSerialization:
    def test_round_trip_static(self, rng):
        s = LabeledSpace([("m", 3), ("q", 2)])
        x = Operator(s, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        back = operator_from_json(operator_to_json(x))
        assert op_close(back, x, 1e-14)
        assert back.space == x.space

    def test_round_trip_with_envelope(self):
        from slhnet.envelopes import GaussianPulse

        a = destroy("m", 3)
        op = a.scaled_by(GaussianPulse(t0=1.0, sigma=0.5))
        back = operator_from_json(operator_to_json(op))
        for t in (0.0, 0.7, 1.3):
            assert np.abs(back.at(t).toarray() - op.at(t).toarray()).max() < 1e-14

    def test_opaque_coefficient_rejected(self):
        op = destroy("m", 3).scaled_by(lambda t: t)
        with pytest.raises(ConstructionError):
            operator_to_json(op)

    def test_wrapped_callable_rejected_inside_products(self):
        from slhnet.envelopes import CallableEnvelope, ScaledEnvelope

        opaque = CallableEnvelope(lambda t: t)
        for coeff in (opaque, ScaledEnvelope(2.0, opaque)):
            op = destroy("m", 3).scaled_by(coeff)
            for x in (op, op.dag(), op * op.dag()):
                with pytest.raises(ConstructionError):
                    operator_to_json(x)
