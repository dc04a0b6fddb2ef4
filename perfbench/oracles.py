"""Independent checks on the answers the workloads get from slhnet.

Every reference here is computed with numpy/scipy from the network
parameters or from raw matrix elements, never through slhnet's own
analysis code.  A failed check raises ``OracleError``.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm


class OracleError(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# --------------------------------------------------------------------------
# linear cavity networks driven by a coherent field


def cascade_amplitudes(cavities, alpha, t=None):
    """Mean fields <a_k> of one-sided cavities in cascade under drive alpha.

    ``cavities`` is [(gamma, delta), ...] in signal order.  With
    da_k/dt = -(gamma_k/2 + i delta_k) a_k - sqrt(gamma_k) b_k and
    b_{k+1} = b_k + sqrt(gamma_k) a_k, b_1 = alpha, starting in vacuum.
    ``t`` is None for the steady state, else an array of times.
    """
    n = len(cavities)
    A = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    for k, (gamma, delta) in enumerate(cavities):
        A[k, k] = -(gamma / 2 + 1j * delta)
        b[k] = -math.sqrt(gamma) * alpha
        for j in range(k):
            A[k, j] = -math.sqrt(gamma * cavities[j][0])
    x_ss = -np.linalg.solve(A, b)
    if t is None:
        return x_ss
    return np.array([x_ss - expm(A * tk) @ x_ss for tk in np.atleast_1d(t)])


def poisson_top(mean: float, dim: int) -> float:
    """Population of level dim-1 for a coherent state of mean photon number."""
    k = dim - 1
    return math.exp(-mean) * mean**k / math.factorial(k)


# --------------------------------------------------------------------------
# raw matrix elements of a composed linear passive triple


def _one_photon_index(space, label: str) -> int:
    stride = 1
    for lbl, dim in reversed(space.factors):
        if lbl == label:
            return stride
        stride *= dim
    raise OracleError(f"no factor {label!r}")


def abcd_from_matrix_elements(triple, modes):
    """(s, C, Omega) read from <vac|.|vac>, <vac|L|1_j> and <1_j|H|1_k>."""
    space = triple.space
    n = triple.n_ports
    idx = [_one_photon_index(space, m) for m in modes]
    S = [[triple.S[i, j].embed(space).constant() for j in range(n)] for i in range(n)]
    s = np.array([[S[i][j][0, 0] for j in range(n)] for i in range(n)], dtype=complex)
    eye = np.eye(space.total_dim)
    for i in range(n):
        for j in range(n):
            dev = np.abs(S[i][j].toarray() - s[i, j] * eye).max()
            require(dev < 1e-10, f"S[{i},{j}] is not a scalar multiple of I (dev {dev:.2e})")
    L = [x.embed(space).constant() for x in triple.L]
    C = np.array([[L[i][0, j] for j in idx] for i in range(n)], dtype=complex)
    H = triple.H.embed(space).constant()
    h0 = H[0, 0]
    Omega = np.array([[H[j, k] - (h0 if j == k else 0.0) for k in idx] for j in idx], dtype=complex)
    return s, C, Omega


def passive_transfer(s, C, Omega, omegas):
    """Xi(i w) = s + C (i w - A)^-1 B with A = -i Omega - C^dag C / 2, B = -C^dag s."""
    A = -1j * Omega - 0.5 * C.conj().T @ C
    B = -C.conj().T @ s
    m = A.shape[0]
    return np.array([s + C @ np.linalg.solve(1j * w * np.eye(m) - A, B) for w in omegas])


def unitarity_residual(U) -> float:
    return float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())


# --------------------------------------------------------------------------
# CLI output parsing


def parse_complex(text: str) -> complex:
    if ":" in text:
        re, im = text.split(":")
        return complex(float(re), float(im))
    return complex(float(text))


def parse_csv(text: str):
    lines = text.splitlines()
    require(len(lines) >= 2, "CSV output has no rows")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    require(all(len(r) == len(header) for r in rows), "ragged CSV rows")
    cols = {name: np.array([parse_complex(r[k]) for r in rows]) for k, name in enumerate(header)}
    for name, col in cols.items():
        require(bool(np.all(np.isfinite(col))), f"non-finite values in column {name!r}")
    return cols


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleError(f"output is not JSON: {exc}") from exc


def trapezoid(y, x) -> float:
    y = np.real(np.asarray(y))
    x = np.asarray(x, dtype=float)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))
