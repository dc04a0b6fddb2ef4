"""Randomized properties of the compose layer: embedding, concatenation,
the JSON writer and the network language's error contract.

Examples are derandomized and few, so the suite stays fast and every run
draws the same cases.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slhnet.envelopes import GaussianPulse, ScaledEnvelope, SquarePulse
from slhnet.errors import CompositionError, SLHNetError
from slhnet.hilbert import Coefficient, LabeledSpace, Operator, destroy, operator_from_json, operator_to_json
from slhnet.netlang import _TOKEN, elaborate, parse
from slhnet.slh import SLHTriple, _indent2, concat, triple_to_dict, triple_to_json, triples_close

from conftest import random_hermitian, random_unitary

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
LABELS = ("a", "b", "c")


def dense_embedding(matrix: np.ndarray, small: LabeledSpace, target: LabeledSpace) -> np.ndarray:
    """kron(matrix, I_missing) with its factor axes moved into target order."""
    missing = [(lbl, dim) for lbl, dim in target.factors if lbl not in small.labels]
    extra = int(np.prod([dim for _, dim in missing]))
    big = np.kron(matrix, np.eye(extra))
    order = list(small.labels) + [lbl for lbl, _ in missing]
    dims = list(small.dims) + [dim for _, dim in missing]
    k = len(dims)
    axes = [order.index(lbl) for lbl in target.labels]
    tensor = big.reshape(dims + dims).transpose(axes + [k + a for a in axes])
    return tensor.reshape(target.total_dim, target.total_dim)


@st.composite
def embeddings(draw):
    """(operator, target): 1-3 target factors of dim 1-4, labels in any order,
    the operator on a subset of them with a static part (possibly all zero)
    and a time-dependent term."""
    labels = draw(st.permutations(LABELS))[: draw(st.integers(1, 3))]
    factors = [(lbl, draw(st.integers(1, 4))) for lbl in labels]
    keep = draw(st.lists(st.booleans(), min_size=len(factors), max_size=len(factors)))
    small = LabeledSpace([f for f, k in zip(factors, keep) if k])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = small.total_dim

    def sparse_random():
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return m * (rng.random((d, d)) < 0.5)

    static = np.zeros((d, d)) if draw(st.booleans()) else sparse_random()
    op = Operator(small, static, [(GaussianPulse(t0=1.0, sigma=0.5), sparse_random())])
    return op, LabeledSpace(factors)


@PROPERTY
@given(embeddings())
def test_embed_matches_dense_kron_and_transpose(case):
    op, target = case
    lifted = op.embed(target)
    assert lifted.space == target
    want = dense_embedding(op.static.toarray(), op.space, target)
    assert np.array_equal(lifted.static.toarray(), want)
    assert len(lifted.terms) == len(op.terms)
    for (c_small, m_small), (c_big, m_big) in zip(op.terms, lifted.terms):
        assert c_big is c_small
        assert np.array_equal(m_big.toarray(), dense_embedding(m_small.toarray(), op.space, target))


def _triple(rng, label, dim, n_ports, pulsed):
    """Random triple on one mode: scalar unitary S, L linear in a/a^dag and
    Hermitian H, with envelope terms in L and H when ``pulsed``.

    Symmetrizing H at each checked concatenation keeps one term per
    coefficient, so nested concatenations have the n-ary one's term layout."""
    a = destroy(label, dim)
    env = GaussianPulse(t0=2.0, sigma=0.7)
    U = random_unitary(rng, n_ports)
    S = [[complex(U[i, j]) for j in range(n_ports)] for i in range(n_ports)]
    L = []
    for _ in range(n_ports):
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = c1 * a + c2 * a.dag()
        L.append(x + x.scaled_by(env) if pulsed else x)
    H = random_hermitian(rng, a.space)
    if pulsed:
        h = complex(*rng.normal(size=2)) * (a * a).scaled_by(env)
        H = H + h + h.dag()
    return SLHTriple(S, L, H, check=False)


@st.composite
def three_triples(draw):
    """Three triples on modes drawn from a shared pool, so spaces may overlap."""
    dims = {lbl: draw(st.integers(2, 4)) for lbl in LABELS}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(3):
        label = draw(st.sampled_from(LABELS))
        out.append(_triple(rng, label, dims[label], draw(st.integers(1, 2)), draw(st.booleans())))
    return out


@PROPERTY
@given(three_triples())
def test_nary_concat_serializes_like_left_fold(gs):
    a, b, c = gs
    assert triple_to_json(concat(a, b, c)) == triple_to_json(concat(concat(a, b), c))


@PROPERTY
@given(three_triples())
def test_nary_concat_is_close_to_right_fold(gs):
    a, b, c = gs
    assert triples_close(concat(a, b, c), concat(a, concat(b, c)), 1e-12)


@PROPERTY
@given(three_triples(), st.integers(0, 2), st.sampled_from(["S", "H"]))
def test_nary_concat_checks_unchecked_parts(gs, bad, part):
    g = gs[bad]
    if part == "S":
        broken = SLHTriple(1.5 * g.S, g.L, g.H, check=False)
        match = "not unitary"
    else:
        (label,) = g.space.labels
        a = destroy(label, g.space.total_dim)
        broken = SLHTriple(g.S, g.L, g.H + a, check=False)
        match = "anti-Hermitian"
    with pytest.raises(CompositionError, match=match):
        concat(*(broken if k == bad else x for k, x in enumerate(gs)))


# Floats that the two encoders could print differently if they did not
# share float.__repr__, and text that a replace on "," or "],[" would break.
FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 1e22, float("nan"), float("inf"), -float("inf")]) | st.floats()
NUMBERS = st.integers() | FLOATS
TEXT = st.text(st.sampled_from(',[]"\\ a\u00e9\u6f22\n'), max_size=6)
ROWS = st.lists(st.lists(NUMBERS, max_size=4), max_size=4)
MIXED_ROWS = st.lists(st.lists(NUMBERS | TEXT | st.booleans(), min_size=1, max_size=4), min_size=1, max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | TEXT | ROWS | MIXED_ROWS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(JSON_VALUES)
@example([[1, 2.5], [-0.0, 5e-324]])
@example({"entries": [[0, 1, 1e16, 1e22]], "terms": [], "rows": [[]], "x": [[1, "],["]]})
def test_indent2_writer_matches_stdlib(value):
    assert _indent2(value, "\n") == json.dumps(value, indent=2)


@PROPERTY
@given(three_triples())
def test_triple_to_json_matches_stdlib(gs):
    g = concat(*gs)
    assert triple_to_json(g) == json.dumps(triple_to_dict(g), indent=2)


@st.composite
def coefficient_operators(draw):
    """An operator whose terms carry products of up to three envelopes, each
    possibly conjugated, from a pool of two envelopes."""
    pool = (GaussianPulse(t0=1.0, sigma=0.5), SquarePulse(0.2, 2.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = LabeledSpace([("m", draw(st.integers(1, 3)))])
    d = space.total_dim
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=3))
        terms.append((Coefficient(factors), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
    return Operator(space, rng.normal(size=(d, d)), terms)


@PROPERTY
@given(coefficient_operators())
def test_coefficient_products_round_trip_through_json(op):
    back = operator_from_json(operator_to_json(op))
    assert len(back.terms) == len(op.terms)
    for t in (0.3, 1.1, 2.2):
        assert np.abs(back.at(t).toarray() - op.at(t).toarray()).max() <= 1e-14


# Products of these are linearly independent functions of t, so an
# operator vanishes at every t exactly when each product's matrix does.
# (A square pulse would not do: its square is a multiple of itself.)
PULSE = GaussianPulse(t0=1.0, sigma=0.5)
HERMITICITY_POOL = (PULSE, GaussianPulse(t0=2.0, sigma=0.7), ScaledEnvelope(0.6 + 0.8j, PULSE))


@st.composite
def enveloped_operators(draw):
    """A Hermitian static part plus 1-3 pieces, each a random operator A,
    A + A^dag, a real coefficient on a Hermitian matrix, or any coefficient
    on a Hermitian matrix.  Coefficients are products of 1-3 possibly
    conjugated factors from the pool; a real one takes its factors from
    the two pulses and may add |z|^2 for the complex envelope z."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = LabeledSpace([("m", draw(st.integers(1, 3)))])
    d = space.total_dim

    def coefficient(pool):
        return Coefficient(draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=3)))

    op = random_hermitian(rng, space)
    for kind in draw(st.lists(st.sampled_from(["A", "A + A^", "real", "any"]), min_size=1, max_size=3)):
        if kind == "any":
            op = op + random_hermitian(rng, space).scaled_by(coefficient(HERMITICITY_POOL))
        elif kind == "real":
            c = coefficient(HERMITICITY_POOL[:2])
            if draw(st.booleans()):
                c = c * Coefficient([(HERMITICITY_POOL[2], False), (HERMITICITY_POOL[2], True)])
            op = op + random_hermitian(rng, space).scaled_by(c)
        else:
            A = Operator(space, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))).scaled_by(coefficient(HERMITICITY_POOL))
            op = op + (A + A.dag() if kind == "A + A^" else A)
    lo = min(f.support()[0] for f in HERMITICITY_POOL)
    hi = max(f.support()[1] for f in HERMITICITY_POOL)
    return op, rng.uniform(lo, hi, 50)


@PROPERTY
@given(enveloped_operators())
def test_is_hermitian_agrees_with_hermiticity_at_random_times(case):
    op, times = case
    resid = max(abs(op.at(t) - op.at(t).conj().T).max() for t in times)
    assert op.is_hermitian() == (resid <= 1e-10)


NETWORKS = Path(__file__).resolve().parent.parent / "networks"
NETWORK_TEXTS = [p.read_text() for p in sorted(NETWORKS.glob("*.qnet"))]
# A non-ASCII digit, an overflowing number, a negative number, an unknown
# name, an out-of-range port index, and (the empty text) a dropped ';'.
MUTATIONS = ("²", "٣", "1e999", "-1", "no_such_name", "9", "")


@st.composite
def mutated_networks(draw):
    """A shipped network with one token replaced by a drawn one; '9'
    replaces an integer and the empty text a ';'."""
    text = draw(st.sampled_from(NETWORK_TEXTS))
    new = draw(st.sampled_from(MUTATIONS))
    spans = [m.span() for m in _TOKEN.finditer(text) if m.lastgroup not in ("SKIP", "NEWLINE")]
    if new == "9":
        spans = [(a, b) for a, b in spans if text[a:b].isdigit()]
    elif new == "":
        spans = [(a, b) for a, b in spans if text[a:b] == ";"]
    start, end = draw(st.sampled_from(spans))
    return text[:start] + new + text[end:]


# 1e999 makes inf * 0 products on the way to a refusal.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=200)
@given(mutated_networks())
# e^{i inf} is NaN: the unitarity check must refuse it before the loop solve sees it
@example((NETWORKS / "vec_elim_loop.qnet").read_text().replace("phi=0.6", "phi=1e999", 1))
def test_mutated_network_elaborates_or_raises_slhnet_error(text):
    try:
        elaborate(parse(text))
    except SLHNetError:
        pass
