import numpy as np
import pytest

from slhnet import SLHTriple, dynamics
from slhnet.hilbert import Operator, destroy


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rhs_calls(monkeypatch):
    """Sample times of every call of the right-hand sides that
    ``dynamics.integrate`` is handed, so a test can show a refusal came
    before the first step."""
    calls = []
    inner = dynamics.integrate

    def counting(rhs, *args, **kwargs):
        return inner(lambda t, y: calls.append(t) or rhs(t, y), *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counting)
    return calls


def random_hermitian(rng, space, scale=1.0):
    d = space.total_dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator(space, scale * 0.5 * (m + m.conj().T))


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_triple(rng, n_ports=2, dim=4, label="m", coupling_scale=0.7):
    """Random n-port triple: scalar unitary S, L linear in a/a^dag, random H."""
    a = destroy(label, dim)
    U = random_unitary(rng, n_ports)
    S = [[complex(U[i, j]) for j in range(n_ports)] for i in range(n_ports)]
    L = []
    for _ in range(n_ports):
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        L.append(coupling_scale * (c1 * a + c2 * a.dag()))
    H = random_hermitian(rng, a.space)
    return SLHTriple(S, L, H)
