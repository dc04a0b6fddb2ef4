"""Randomized properties of the compose layer: embedding, concatenation
and the network language's error contract.

Examples are derandomized and few, so the suite stays fast and every run
draws the same cases.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slhnet.envelopes import GaussianPulse
from slhnet.errors import CompositionError, SLHNetError
from slhnet.hilbert import LabeledSpace, Operator, destroy
from slhnet.netlang import _TOKEN, elaborate, parse
from slhnet.slh import SLHTriple, concat, triple_to_json, triples_close

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
    """Random triple on one mode: scalar unitary S, L linear in a/a^dag
    (with an envelope term when ``pulsed``), static Hermitian H.

    H stays static: each symmetrization splits an envelope term of H in
    two, so nested concatenations differ from the n-ary one in term layout
    (not in value)."""
    a = destroy(label, dim)
    U = random_unitary(rng, n_ports)
    S = [[complex(U[i, j]) for j in range(n_ports)] for i in range(n_ports)]
    L = []
    for _ in range(n_ports):
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = c1 * a + c2 * a.dag()
        L.append(x + x.scaled_by(GaussianPulse(t0=2.0, sigma=0.7)) if pulsed else x)
    return SLHTriple(S, L, random_hermitian(rng, a.space), check=False)


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
