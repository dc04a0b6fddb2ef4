"""Integration on the coordinates reachable from rho0: the closure that
``_RealCoordinates.reachable`` computes, and restricted runs that match
the full-coordinate run (``integrate(coords.rhs(gen), x0, ...)``)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian

from slhnet import dynamics
from slhnet.components import fock_source
from slhnet.dynamics import (
    GaussianEnv,
    _driven,
    _RealCoordinates,
    evolve_density,
    evolve_hierarchy,
    fock_hierarchy,
    integrate,
    liouvillian,
    liouvillian_gaussian,
    vectorize,
)
from slhnet.envelopes import GaussianPulse, ScaledEnvelope
from slhnet.hilbert import Operator, destroy
from slhnet.netlang import elaborate, parse
from slhnet.slh import SLHTriple, series

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)
PULSE = GaussianPulse(t0=0.6, sigma=0.3)
T_EVAL = np.linspace(0.0, 1.2, 7)


def factor_state(rng, dim, kind):
    """A sparse density matrix on one factor: a Fock state, a diagonal
    mixture of two levels or a superposition of two levels."""
    levels = rng.choice(dim, size=2, replace=False)
    if kind == "fock":
        v = np.zeros(dim)
        v[levels[0]] = 1.0
        return np.outer(v, v)
    if kind == "mixture":
        p = np.zeros(dim)
        p[levels] = rng.dirichlet([1.0, 1.0])
        return np.diag(p)
    v = np.zeros(dim, dtype=complex)
    v[levels] = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


@st.composite
def sparse_runs(draw):
    """(generator, block count, rho0): one or two modes of truncation 2-4
    under an excitation-conserving H (sometimes plus a dense random one),
    with no drive, a Gaussian-pulse drive, a wired ``fock_source`` or a
    Fock hierarchy; rho0 is sparse on every factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    modes = [destroy(f"m{k}", d) for k, d in enumerate(dims)]
    H = sum((rng.normal() * a.dag() * a for a in modes[1:]), rng.normal() * modes[0].dag() * modes[0])
    if len(modes) == 2:
        hop = rng.normal() * modes[0].dag() * modes[1]
        H = H + hop + hop.dag()
    if draw(st.booleans()):
        H = H + random_hermitian(rng, H.space, 0.3)
    L = 0.6 * sum((complex(*rng.normal(size=2)) * a for a in modes[1:]), complex(*rng.normal(size=2)) * modes[0])
    g = SLHTriple(1, [L], H)
    drive = draw(st.sampled_from(["none", "pulse", "fock_source", "hierarchy"]))
    if drive == "pulse":
        g = _driven(g, {1: ScaledEnvelope(complex(*rng.normal(size=2)), PULSE)})
    elif drive == "fock_source":
        n = draw(st.integers(1, 2))
        g = series(g, fock_source(n, PULSE))
    states = {lbl: factor_state(rng, d, draw(st.sampled_from(["fock", "mixture", "superposition"])))
              for lbl, d in g.space.factors}
    if drive == "fock_source":  # the source starts in |n><n|, its top level
        states["src"] = np.diag(np.eye(n + 1)[n])
    rho = np.ones((1, 1))
    for lbl, _ in g.space.factors:
        rho = np.kron(rho, states[lbl])
    rho0 = Operator(g.space, rho)
    if drive == "hierarchy":
        return fock_hierarchy(g, PULSE, draw(st.integers(1, 2))), rho0
    return liouvillian(g), rho0


def counted(fn, calls):
    return lambda t, y: calls.append(t) or fn(t, y)


def runs(gen, rho0, **kwargs):
    """(full trajectory, restricted states, full RHS calls, restricted RHS
    calls, reachable mask) for one integration setting."""
    hierarchy = isinstance(gen, dynamics.FockHierarchy)
    nb = gen.n_max + 1 if hierarchy else 1
    coords = _RealCoordinates(gen.dim, nb)
    x0 = gen.initial_state(rho0).x if hierarchy else coords.to_real(vectorize(rho0))
    full_calls, calls = [], []
    full = integrate(counted(coords.rhs(gen), full_calls), x0, (0.0, 1.2), T_EVAL, **kwargs)
    with mock.patch.object(dynamics, "integrate", lambda rhs, *a, **k: integrate(counted(rhs, calls), *a, **k)):
        if hierarchy:
            states = evolve_hierarchy(gen, rho0, (0.0, 1.2), T_EVAL, truncation_guard=None, **kwargs)[1].x
        else:
            states = evolve_density(gen, rho0, (0.0, 1.2), T_EVAL, truncation_guard=None, **kwargs).array
    return full, states, len(full_calls), len(calls), coords.reachable(gen, x0)


@PROPERTY
@given(sparse_runs())
def test_restricted_run_is_the_full_run(case):
    gen, rho0 = case
    full, states, n_full, n_kept, keep = runs(gen, rho0, method="fixed", dt=0.01)
    assert not full.states[:, ~keep].any()  # the closure is exact in floating point
    assert np.array_equal(states[:, keep], full.states[:, keep])
    assert not states[:, ~keep].any()
    assert n_kept == n_full
    full, states, n_full, n_kept, keep = runs(gen, rho0)
    assert np.abs(states - full.states).max() <= 1e-9
    assert n_kept == n_full


CASCADE = (
    "component c1 = one_sided_cavity(gamma=2.0, delta=0.5, truncation={t});\n"
    "component c2 = one_sided_cavity(gamma=3.0, delta=-0.7, truncation={t});\n"
    "wire c1.out[1] -> c2.in[1];\n"
)
FOCK_PULSE = "gaussian(t0=5, sigma=1)"


def cascade(t, source=None):
    text = CASCADE.format(t=t)
    if source is None:
        return elaborate(parse(text + "expose c1.in[1] as drive;\n"))
    return elaborate(parse(f"component src = {source};\n" + text + "wire src.out[1] -> c1.in[1];\n"))


def closure(case):
    """(reachable mask, coordinates, generator) of one pinned case."""
    if case == "fock_t6_hierarchy":
        res = cascade(6)
        gen = fock_hierarchy(res.triple, GaussianPulse(t0=5, sigma=1), 2)
        coords = _RealCoordinates(gen.dim, 3)
        return coords.reachable(gen, gen.initial_state(res.initial_state).x), coords, gen
    if case == "fock_t6_wired":
        res = cascade(6, f"fock_source(n=2, envelope={FOCK_PULSE})")
        gen = liouvillian(res.triple)
    else:
        kind, t = case.split("_t")
        res = cascade(int(t))
        if kind == "thermal":
            gen = liouvillian_gaussian(res.triple, GaussianEnv(N=0.1))
        else:
            gen = liouvillian(_driven(res.triple, {1: 0.22}))
    coords = _RealCoordinates(gen.dim)
    return coords.reachable(gen, coords.to_real(vectorize(res.initial_state))), coords, gen


@pytest.mark.parametrize("case, count, size", [
    ("fock_t6_hierarchy", 46, 11664),
    ("fock_t6_wired", 46, 11664),
    ("thermal_t6", 146, 1296),
    ("thermal_t10", 670, 10000),
    ("coherent_t10", 10000, 10000),
])
def test_closure_counts(case, count, size):
    keep, coords, gen = closure(case)
    assert (np.count_nonzero(keep), keep.size) == (count, size)
    # no coordinate outside the closure reads one inside it, at any time
    for t in (0.0, 4.0, 5.0, 6.5):
        R = coords.real_matrix(gen.matrix(t))
        assert R[~keep][:, keep].nnz == 0
