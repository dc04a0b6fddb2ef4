"""Equations of motion implied by a triple, and their integration.

Master equations act on the vectorized density matrix (row-major
``vec``, so ``vec(A rho B) = kron(A, B^T) vec(rho)``); they are
integrated on its isometric real coordinates (``_RealCoordinates``).
Builders:

* ``liouvillian``            -- vacuum-input Lindblad generator
* ``liouvillian_coherent``   -- coherent drive on one input port
* ``liouvillian_gaussian``   -- stationary Gaussian (thermal/squeezed) input
* ``fock_hierarchy``         -- coupled generalized-state equations for
                                Fock-state wavepacket inputs

A drive amplitude alpha(t) on port j is a wire: the displacement source
``(1, alpha, 0)`` fed into port j by the composition algebra gives
``(S, L + S_:j alpha, H + Im(L^ S_:j alpha))``, and the generator is that
triple's vacuum Liouvillian.  ``_driven`` wires one source per driven
port, on any set of ports.  The coherent drive, the Gaussian mean field
and the hierarchy's wavepacket coupling all read it off there; its
time-dependent terms are one per merged coefficient (alpha, alpha* and
|alpha|^2).  Every sandwich rho -> A rho B comes from ``_sandwich``, and
the Fock hierarchy is a ``Superoperator`` over its stacked blocks.

``evolve_density`` and ``evolve_hierarchy`` integrate a linear ODE that
preserves Hermiticity, and ``steady_state`` solves for its null vector,
all on the real coordinates of the state (d^2 reals for d^2 degrees of
freedom) with the generator mapped to a real sparse matrix; a generator or
initial state that the conjugation does not fix is refused, never projected.
The two evolutions integrate only the coordinates the generator can reach
from the initial state (``_RealCoordinates.reachable``); the others stay
exactly zero.

Also here: Heisenberg-picture coefficient extraction, input-output
structure, an adaptive/fixed-step integrator whose guards stop on trace
drift, negative eigenvalues and top-Fock-level population (read off the
diagonal of rho, per hierarchy block), and the steady state's GMRES
preconditioner, the exact inverse of the generator's no-jump part from one
complex Schur form."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .components import coherent_source
from .envelopes import ConstantAmplitude, Envelope, as_envelope
from .errors import (
    ConstructionError,
    SteadyStateError,
    TraceDriftError,
    TruncationGuardError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .hilbert import (
    TOL_OP,
    TRUNC_GUARD,
    Coefficient,
    LabeledSpace,
    Operator,
    _canonical_terms,
    _top_populations,
    commutator,
    identity,
    zero,
)
from .slh import SLHTriple, concat, feedback_multi

#: tolerance on |tr(rho) - 1| along a trajectory
TOL_TRACE = 1e-8

#: tolerance on the most negative eigenvalue of rho
TOL_POSITIVITY = 1e-8

#: relative bound on max|x1 - x2| between the steady-state solves from two
#: starts; a degenerate null space keeps a start-dependent component
STEADY_START_AGREEMENT_TOL = 1e-8

#: relative bound on the steady-state residual |L rho|
STEADY_RESIDUAL_TOL = 1e-10

#: shift of the steady-state preconditioner's diagonal, relative to
#: ||A||_1: the no-jump part is exactly singular for a vacuum steady state
STEADY_SHIFT = 1e-8

#: steady-state GMRES: relative true residual, Krylov basis size between
#: restarts, and restart cycles before giving up
STEADY_GMRES_RTOL = 1e-12
STEADY_GMRES_RESTART = 200
STEADY_GMRES_MAXITER = 5

#: largest side of a triangular Sylvester tile solved by LAPACK's unblocked
#: ``ztrsyl``; the steady-state preconditioner's larger blocks are halved and
#: coupled by matmuls
SYLVESTER_TILE = 32

#: default integrator tolerances (embedded Runge-Kutta 4(5))
DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8


# --------------------------------------------------------------------------
# states


def _negative_eigenvalue(herm: np.ndarray) -> float | None:
    """Most negative eigenvalue of the Hermitian matrix whose lower triangle
    ``herm`` holds (its strict upper triangle is never read), if it lies
    below ``-TOL_POSITIVITY``, else None.

    A Cholesky factorization of ``herm + TOL_POSITIVITY I`` (numpy's, lower
    triangle) succeeds exactly when no eigenvalue lies below
    ``-TOL_POSITIVITY``; ``eigvalsh`` runs only when it fails, to confirm the
    violation and report the eigenvalue.  numpy's LAPACK, not scipy's: each
    wheel bundles its own OpenBLAS with its own thread pool, and switching
    pools right after dense work can stall (README, "BLAS threads").
    """
    try:
        np.linalg.cholesky(herm + TOL_POSITIVITY * np.eye(len(herm)))
    except np.linalg.LinAlgError:
        w = float(np.linalg.eigvalsh(herm, UPLO="L").min())
        return w if w < -TOL_POSITIVITY else None
    return None


def _require_state(m: np.ndarray, what: str) -> None:
    """Refuse a square matrix ``what`` whose trace is off 1 by more than
    ``TOL_TRACE``, that is not Hermitian within ``TOL_OP`` or not positive."""
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= TOL_TRACE:  # NaN fails too
        raise ValidationError(f"{what} must have unit trace within {TOL_TRACE}, got {tr:.10g}")
    herm = np.abs(m - m.conj().T).max()
    if herm > TOL_OP:
        raise ValidationError(f"{what} is not Hermitian: residual {herm:.3e}")
    w = _negative_eigenvalue(m)
    if w is not None:
        raise ValidationError(f"{what} has negative eigenvalue {w:.3e}")


@dataclass
class DensityState:
    """Density matrix plus its time stamp; validated on construction."""

    rho: Operator
    time: float = 0.0

    def __post_init__(self):
        m = self.rho.constant()
        d = self.rho.space.total_dim
        if m.shape != (d, d):
            raise ValidationError("rho must be square on its space")
        _require_state(m.toarray(), "rho")

    @cached_property
    def _coordinates(self) -> tuple[_RealCoordinates, np.ndarray]:
        """The real coordinates of rho, computed on first use, and their map."""
        coords = _RealCoordinates(self.rho.space.total_dim)
        return coords, coords.project(vectorize(self.rho))

    def expect(self, op: Operator) -> complex:
        """tr(X rho) by the rule trajectories use (``_expect``), envelope
        terms read at ``time``: a Hermitian X has an imaginary part of
        exactly zero."""
        coords, x = self._coordinates
        return complex(_expect(op, self.rho.space, x, self.time, coords))


@dataclass
class GaussianEnv:
    """Stationary Gaussian input field: thermal photons N, squeezing
    correlation M, optional mean-field envelope alpha."""

    N: float
    M: complex = 0.0
    alpha: object = None

    def __post_init__(self):
        self.N = float(self.N)
        self.M = complex(self.M)
        if not 0 <= self.N < np.inf:
            raise ValidationError(f"finite N >= 0 violated: N = {self.N}")
        slack = self.N * (self.N + 1.0) - abs(self.M) ** 2
        if not slack >= -TOL_OP:
            raise ValidationError(
                f"N(N+1) >= |M|^2 violated: N(N+1) = {self.N * (self.N + 1):.12g}, |M|^2 = {abs(self.M) ** 2:.12g}"
            )
        if self.alpha is not None and not isinstance(self.alpha, Envelope):
            self.alpha = as_envelope(self.alpha)

    @staticmethod
    def squeezing(r: float, phi: float = 0.0, n_th: float = 0.0) -> "GaussianEnv":
        """Parameterize by squeeze factor r, angle phi, thermal photons n_th."""
        N = math.cosh(2 * r) * n_th + math.sinh(r) ** 2
        M = np.exp(-2j * phi) * math.sinh(2 * r) * (n_th + 0.5)
        return GaussianEnv(N=N, M=M)

    # (N, M) <-> (r, phi, n_th): with u = n_th + 1/2,
    # N + 1/2 = u cosh(2r) and |M| = u sinh(2r), so u^2 = (N+1/2)^2 - |M|^2.

    @property
    def thermal_occupation(self) -> float:
        u = math.sqrt((self.N + 0.5) ** 2 - abs(self.M) ** 2)
        return u - 0.5

    @property
    def squeeze_factor(self) -> float:
        u = math.sqrt((self.N + 0.5) ** 2 - abs(self.M) ** 2)
        return 0.5 * math.acosh((self.N + 0.5) / u)

    @property
    def squeeze_angle(self) -> float:
        if self.M == 0:
            return 0.0
        return -0.5 * math.atan2(self.M.imag, self.M.real)


# --------------------------------------------------------------------------
# superoperators


class Superoperator:
    """Matrix acting on vec(rho) or on stacked blocks of it, possibly with
    time-dependent terms, one per :class:`Coefficient`."""

    __slots__ = ("space", "static", "terms")

    def __init__(self, space: LabeledSpace, static=None, terms=()):
        d2 = space.total_dim**2
        if static is None:
            static = sp.csr_matrix((d2, d2), dtype=np.complex128)
        static = sp.csr_matrix(static, dtype=np.complex128)
        if static.shape[0] != static.shape[1] or static.shape[0] % d2:
            raise ConstructionError(f"superoperator shape {static.shape} is not square with side a multiple of {d2}")
        self.space = space
        self.static, self.terms = _canonical_terms(static, terms) if terms else (static, ())

    @property
    def is_static(self) -> bool:
        return not self.terms

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def matrix(self, t: float = 0.0) -> sp.csr_matrix:
        if self.is_static:
            return self.static
        out = self.static.copy()
        for coeff, m in self.terms:
            out = out + complex(coeff(t)) * m
        return sp.csr_matrix(out)

    def apply(self, y: np.ndarray, t: float = 0.0) -> np.ndarray:
        out = self.static @ y
        for coeff, m in self.terms:
            out = out + complex(coeff(t)) * (m @ y)
        return out

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.space != other.space or self.static.shape != other.static.shape:
            raise ConstructionError("superoperators differ in space or in block count")
        return Superoperator(self.space, self.static + other.static, self.terms + other.terms)

    def __mul__(self, z: complex) -> "Superoperator":
        z = complex(z)
        return Superoperator(
            self.space, z * self.static, tuple((c, z * m) for c, m in self.terms)
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def rhs(self) -> Callable[[float, np.ndarray], np.ndarray]:
        return lambda t, y: self.apply(y, t)


def vectorize(rho: Operator | np.ndarray) -> np.ndarray:
    m = rho.constant().toarray() if isinstance(rho, Operator) else np.asarray(rho)
    return np.asarray(m, dtype=np.complex128).reshape(-1)


def unvectorize(y: np.ndarray, space: LabeledSpace) -> Operator:
    d = space.total_dim
    return Operator(space, np.asarray(y, dtype=np.complex128).reshape(d, d))


class _RealCoordinates:
    """Isometric real coordinates of the vectors ``y`` that a conjugation
    involution ``s`` fixes, ``y[s[k]] = conj(y[k])``.

    For vec(rho) ``s`` swaps entries (i, j) and (j, i); for the Fock
    hierarchy's stacked blocks it swaps entry (i, j) of block (m, n) with
    entry (j, i) of block (n, m), so rho_nm = rho_mn^ is the same
    statement.  On a pair k < s[k] the coordinates are x[k] = sqrt2 Re y[k]
    and x[s[k]] = sqrt2 Im y[k]; a fixed point k = s[k] (a diagonal entry of
    a diagonal block) keeps x[k] = y[k].  So ||x||_2 = ||y||_2, and x sits
    where y does: a diagonal entry of rho is read in place.

    ``y = T x`` with ``y[k] = t_self[k] x[k] + t_pair[k] x[s[k]]``.  A
    superoperator G that commutes with the involution has the real matrix
    T^ G T; row k of it reads row k of G only, so each entry of G gives at
    most two real entries (``real_matrix``).
    """

    def __init__(self, d: int, nb: int = 1):
        n = nb * nb * d * d
        s = np.arange(n).reshape(nb, nb, d, d).transpose(1, 0, 3, 2).reshape(-1)
        k = np.arange(n)
        self.d, self.s = d, s
        self.lo = np.flatnonzero(k < s)
        self.hi = s[self.lo]
        self.r = math.sqrt(0.5)
        self.t_self = np.ones(n, dtype=np.complex128)
        self.t_self[self.lo], self.t_self[self.hi] = self.r, -1j * self.r
        self.t_pair = np.zeros(n, dtype=np.complex128)
        self.t_pair[self.lo], self.t_pair[self.hi] = 1j * self.r, self.r
        # row k of T^ G T is Re(w_row[k] (G y)[k]): sqrt2 Re, -sqrt2 Im or Re
        self.w_row = self.t_self.conj() * np.where(k == s, 1.0, 2.0)

    def to_real(self, y: np.ndarray) -> np.ndarray:
        """Coordinates of ``y``; a ``y`` the involution does not fix within
        ``TOL_OP`` is refused with its residual."""
        y = np.asarray(y, dtype=np.complex128)
        resid = np.abs(y - y[self.s].conj()).max()
        if not resid <= TOL_OP:  # NaN fails too
            raise ValidationError(f"initial state is not Hermitian: residual {resid:.3e}")
        return self.project(y)

    def project(self, y: np.ndarray) -> np.ndarray:
        """``to_real`` unchecked: it reads each pair's first entry and the real
        part of each fixed point, so it is exact only for a fixed ``y``."""
        x = y.real.copy()
        x[self.lo] = y[self.lo].real / self.r
        x[self.hi] = y[self.lo].imag / self.r
        return x

    def to_complex(self, x: np.ndarray, k=slice(None)) -> np.ndarray:
        """``y[..., k]`` from the coordinates, one row per sample of a 2-D ``x``."""
        return self.t_self[k] * x[..., k] + self.t_pair[k] * x[..., self.s[k]]

    def lower(self, x: np.ndarray) -> np.ndarray:
        """A d x d matrix whose lower triangle is rho's, from the coordinates
        of one density matrix (nb = 1): rho_ji = (x_ij - i x_ji) / sqrt2
        for i < j.  Its strict upper triangle is not rho's."""
        d = self.d
        X = x.reshape(d, d)
        out = self.r * (X.T - 1j * X)
        np.fill_diagonal(out, x[:: d + 1])
        return out

    def fold(self, u: np.ndarray) -> np.ndarray:
        """``w = T^T u``, so that ``y . u = x . w``; ``w`` is real when the
        involution maps ``u`` to its conjugate, as ``vec(X^T)`` of a
        Hermitian X."""
        return self.t_self * u + self.t_pair[self.s] * u[self.s]

    def real_matrix(self, G: sp.spmatrix) -> sp.csr_matrix:
        """T^ G T in one pass over the CSR entries of G, after checking that
        G commutes with the involution: entry (a, c) gives row a its real
        entries at columns c and s[c]."""
        G = sp.csr_matrix(G)
        # J G J moves entry (a, c) to (s[a], s[c]) and conjugates it
        resid = np.abs((G[self.s][:, self.s].conj() - G).data).max(initial=0.0)
        if not resid <= TOL_OP * max(1.0, np.abs(G.data).max(initial=0.0)):  # NaN fails too
            raise ValidationError(
                f"generator does not preserve Hermiticity: it differs from its conjugate by {resid:.3e}"
            )
        rows = np.repeat(np.arange(G.shape[0]), np.diff(G.indptr))
        cols = G.indices
        z = self.w_row[rows] * G.data
        data = np.stack(((z * self.t_self[cols]).real, (z * self.t_pair[cols]).real), axis=1)
        indices = np.stack((cols, self.s[cols].astype(cols.dtype)), axis=1)
        R = sp.csr_matrix((data.reshape(-1), indices.reshape(-1), 2 * G.indptr), shape=G.shape)
        R.sum_duplicates()
        R.eliminate_zeros()
        return R

    def reachable(self, gen: Superoperator, x: np.ndarray) -> np.ndarray:
        """Mask of the coordinates that ``x' = R(t) x`` can move from ``x``:
        the closure of the support of ``x`` under the sparsity pattern of
        ``gen`` (its static part and every term) and under the involution.
        The closure is a set that the pattern maps into itself, so every
        coordinate outside it has a derivative of exactly 0.0 and stays
        0.0 along the run."""
        pattern = abs(gen.static)
        for _, m in gen.terms:
            pattern = pattern + abs(m)
        keep = x != 0
        while True:
            keep |= keep[self.s]
            grown = keep | (pattern @ keep > 0)
            if (grown == keep).all():
                return keep
            keep = grown

    def rhs(self, gen: Superoperator, keep: np.ndarray | None = None) -> Callable[[float, np.ndarray], np.ndarray]:
        """The real right-hand side of ``gen``, on the coordinates of the
        mask ``keep`` only when one is given (each real matrix sliced once
        to ``R[keep][:, keep]``; the Hermiticity check still reads all of
        G).  A term with coefficient c and its partner with c.conj() become
        Re c R+ + Im c R-; a self-conjugate coefficient (|xi|^2) is one
        term.  A term without a partner does not preserve Hermiticity and
        is refused."""
        idx = None if keep is None else np.flatnonzero(keep)

        def real(G):
            R = self.real_matrix(G)
            return R if idx is None else R[idx][:, idx]

        static = real(gen.static)
        by_coeff = dict(gen.terms)
        terms, partners = [], set()
        for c, m in gen.terms:
            cc = c.conj()
            if c in partners:
                continue
            if cc == c:
                terms.append((c, real(m), None))
            elif cc not in by_coeff:
                raise ValidationError(
                    "generator does not preserve Hermiticity: a time-dependent term has no "
                    "conjugate partner"
                )
            else:
                partners.add(cc)
                mc = by_coeff[cc]
                terms.append((c, real(m + mc), real(1j * (m - mc))))
        if not terms:
            return lambda t, x: static @ x

        def rhs(t, x):
            out = static @ x
            for c, re, im in terms:
                z = complex(c(t))
                if z.real:
                    out += z.real * (re @ x)
                if z.imag and im is not None:
                    out += z.imag * (im @ x)
            return out

        return rhs


def _expect(op: Operator, space: LabeledSpace, x: np.ndarray, times, coords: _RealCoordinates, weights=None):
    """E[op] of the states whose real coordinates are ``x`` (one row per
    sample), taken at ``times``.

    The static part of ``op`` and each of its envelope terms A is folded
    into the coordinates, ``w = fold(vec(A^T))`` with tr(A rho) = x . w (two
    real matrix-vector products, and an imaginary part of exactly zero for
    a Hermitian A), and each term is scaled by its coefficient read at the
    sample times.  For block-stacked states ``weights(coeff)`` (``None``
    for the static part) gives each block's weight, ``kron(weights, vec(A^T))``.
    """
    def folded(m, coeff=None):
        u = vectorize(m.T.toarray())
        w = coords.fold(u if weights is None else np.kron(weights(coeff), u))
        return x @ w.real + 1j * (x @ w.imag)

    op = op.embed(space)
    out = folded(op.static)
    for coeff, m in op.terms:
        z = coeff(times) if np.ndim(times) == 0 else np.array([coeff(t) for t in times])
        out = out + z * folded(m, coeff)
    return out


def _sandwich(space: LabeledSpace, A: Operator, B: Operator) -> Superoperator:
    """Superoperator of rho -> A rho B, distributing over envelope terms."""
    A = A.embed(space)
    B = B.embed(space)
    return Superoperator(space, None, [
        (ca * cb, sp.kron(ma, mb.T, format="csr"))
        for ca, ma in [(Coefficient(), A.static), *A.terms]
        for cb, mb in [(Coefficient(), B.static), *B.terms]
    ])


def spre(space: LabeledSpace, A: Operator) -> Superoperator:
    return _sandwich(space, A, identity(space))


def spost(space: LabeledSpace, B: Operator) -> Superoperator:
    return _sandwich(space, identity(space), B)


def lindblad_dissipator(space: LabeledSpace, L: Operator) -> Superoperator:
    """D[L] rho = L rho L^ - (L^L rho + rho L^L)/2."""
    LdL = L.dag() * L
    return _sandwich(space, L, L.dag()) + (-0.5) * spre(space, LdL) + (-0.5) * spost(space, LdL)


def liouvillian(g: SLHTriple) -> Superoperator:
    """Vacuum-input generator -i(H_eff rho - rho H_eff^) + sum_i L_i rho L_i^,
    H_eff = H - (i/2) sum_i L_i^ L_i; S never enters.  A wired drive's
    Im(L^ S_:j alpha) in H and L^ S_:j alpha in sum L^L are summed in the
    same order, so H_eff's alpha* term cancels exactly."""
    space = g.space
    H_eff = g.H + (-0.5j) * sum((L.dag() * L for L in g.L), zero(space))
    out = (-1j) * (spre(space, H_eff) + (-1.0) * spost(space, H_eff.dag()))
    return sum((_sandwich(space, L, L.dag()) for L in g.L), out)


def _driven(g: SLHTriple, amplitudes: Mapping[int, object]) -> SLHTriple:
    """``g`` with a displacement source (1, alpha_j(t), 0) wired into each
    input port j of ``amplitudes`` (port -> alpha_j).  The sources come
    first, in port order, in one ``concat`` closed by one ``feedback_multi``;
    each source's input keeps the name of the port it feeds.  No
    amplitudes leave ``g`` as it is."""
    if not amplitudes:
        return g
    ports = sorted(amplitudes)
    sources = []
    for port in ports:
        if not 1 <= port <= g.n_ports:
            raise ValidationError(f"port {port} out of range 1..{g.n_ports}")
        env = as_envelope(amplitudes[port])
        if isinstance(env, ConstantAmplitude) and not np.isfinite(env.value):
            raise ValidationError(f"drive amplitude must be finite, got {env.value}")
        sources.append(coherent_source(env).with_names(input_names=(g.input_names[port - 1],)))
    wires = [(k + 1, len(ports) + port) for k, port in enumerate(ports)]
    return feedback_multi(concat(*sources, g, check=False), wires, check=False).triple


def liouvillian_coherent(g: SLHTriple, alpha, port: int = 1) -> Superoperator:
    """Master equation with a coherent drive alpha(t) on one input port:
    the vacuum generator of the displacement source wired into that port.

    It adds alpha [S_:j rho, L^] + alpha* [L, rho S_:j^] + |alpha|^2
    (S_:j rho S_:j^ - rho) to the vacuum generator of ``g``; a
    time-dependent alpha gives one term for each of the three products.
    """
    return liouvillian(_driven(g, {port: alpha}))


def _require_scalar_phase(g: SLHTriple) -> complex:
    """The phase s of a single-port triple whose S is s times the identity."""
    if g.n_ports != 1:
        raise UnsupportedConfigurationError(
            "Gaussian input requires a single-port component"
        )
    s = g.S[0, 0].constant().toarray()
    d = g.space.total_dim
    val = np.trace(s) / d
    if np.abs(s - val * np.eye(d)).max() > TOL_OP or abs(abs(val) - 1.0) > TOL_OP:
        raise UnsupportedConfigurationError(
            "Gaussian input is only compatible with a scalar-phase scattering entry"
        )
    return complex(val)


def liouvillian_gaussian(g: SLHTriple, env: GaussianEnv) -> Superoperator:
    """Master equation for a stationary Gaussian input (mean alpha(t),
    thermal occupation N, squeezing correlation M).

    It is the vacuum generator of ``g`` (of ``g`` with the mean field
    alpha wired in, as a coherent drive, when alpha is given), plus
    N (D[L] + D[L^]), plus the squeezing terms (M/2)[L^,[L^,rho]] +
    (M*/2)[L,[L,rho]] with M rotated by the scattering phase s to s^2 M,
    since (s, L, H) is the input passing s before it meets (1, L, H).
    """
    M = _require_scalar_phase(g) ** 2 * env.M
    space = g.space
    L = g.L[0]
    if not L.is_static:
        raise UnsupportedConfigurationError("coupling driven by a Gaussian field must be time independent here")
    out = liouvillian(g if env.alpha is None else _driven(g, {1: env.alpha}))
    if env.N:
        out = out + env.N * (lindblad_dissipator(space, L) + lindblad_dissipator(space, L.dag()))
    if M:
        for z, X in ((0.5 * M, L.dag()), (0.5 * np.conj(M), L)):
            out = out + z * (spre(space, X * X) + (-2.0) * _sandwich(space, X, X) + spost(space, X * X))
    return out


# --------------------------------------------------------------------------
# Heisenberg picture and input-output structure


@dataclass
class HeisenbergCoefficients:
    """Coefficient operators of dX = drift dt + sum_j dB-terms + gauge terms."""

    drift: Operator
    dB: list[Operator]
    dB_dag: list[Operator]
    dLambda: np.ndarray  # (n, n) object array


def heisenberg_coefficients(g: SLHTriple, X: Operator) -> HeisenbergCoefficients:
    space = g.space
    X = X.embed(space)
    n = g.n_ports
    drift = (-1j) * commutator(X, g.H)
    for L in g.L:
        drift = drift + L.dag() * X * L - 0.5 * (L.dag() * L * X + X * L.dag() * L)
    dB = []
    dB_dag = []
    for jj in range(n):
        acc_b = None
        acc_bd = None
        for i in range(n):
            term_b = commutator(g.L[i].dag(), X) * g.S[i, jj]
            term_bd = g.S[i, jj].dag() * commutator(X, g.L[i])
            acc_b = term_b if acc_b is None else acc_b + term_b
            acc_bd = term_bd if acc_bd is None else acc_bd + term_bd
        dB.append(acc_b)
        dB_dag.append(acc_bd)
    dLambda = np.empty((n, n), dtype=object)
    for i in range(n):
        for jj in range(n):
            acc = None
            for k in range(n):
                term = g.S[k, i].dag() * X * g.S[k, jj]
                acc = term if acc is None else acc + term
            if i == jj:
                acc = acc - X
            dLambda[i, jj] = acc
    return HeisenbergCoefficients(drift, dB, dB_dag, dLambda)


@dataclass
class GaugeOutputTerm:
    """Operator data of one entry of the output gauge-process increment."""

    dt: Operator
    dB_dag: list[Operator]
    dB: list[Operator]
    dLambda: dict  # (k, l) -> (left, right) operator pair


@dataclass
class OutputRelations:
    """dB_out = S dB + L dt, plus the four-term gauge-output structure."""

    S: np.ndarray
    L: list[Operator]

    def gauge_coefficient(self, i: int, j: int) -> GaugeOutputTerm:
        """Structure of dLambda_out[i, j]; indices are 1-based ports."""
        n = len(self.L)
        i -= 1
        j -= 1
        dt = self.L[i].dag() * self.L[j]
        db_dag = [self.S[i, k].dag() * self.L[j] for k in range(n)]
        db = [self.L[i].dag() * self.S[j, k] for k in range(n)]
        dlam = {
            (k + 1, l + 1): (self.S[i, k].dag(), self.S[j, l])
            for k in range(n)
            for l in range(n)
        }
        return GaugeOutputTerm(dt, db_dag, db, dlam)


def output_relations(g: SLHTriple) -> OutputRelations:
    return OutputRelations(S=g.S, L=list(g.L))


# --------------------------------------------------------------------------
# Fock-state hierarchy


def _ladders(envelope: Envelope, nb: int) -> dict:
    """The block-index lowering of each coefficient of a wavepacket drive
    xi(t) on nb x nb blocks, block (m, n) at index m nb + n: xi lowers m,
    xi* lowers n and |xi|^2 both, as the dense (nb^2, nb^2) matrix
    sqrt(m^dm n^dn) |(m, n)><(m - dm, n - dn)|.  The hierarchy's generator
    terms and its expectations read the same matrices."""
    m, n = np.divmod(np.arange(nb * nb), nb)
    xi = Coefficient([(envelope, False)])
    out = {}
    for coeff, (dm, dn) in ((xi, (1, 0)), (xi.conj(), (0, 1)), (xi * xi.conj(), (1, 1))):
        k = np.flatnonzero((m >= dm) & (n >= dn))
        out[coeff] = np.zeros((nb * nb, nb * nb))
        out[coeff][k, k - dm * nb - dn] = np.sqrt(m[k] ** dm * n[k] ** dn)
    return out


@dataclass
class FockHierarchyState:
    """Generalized state matrices rho_{m,n} of a Fock-driven run: ``x``
    holds the real coordinates (``_RealCoordinates``) of the row-major vec
    of each block in (m, n) order, and ``block`` rebuilds one block on
    demand.

    A 2-D ``x`` stacks one state per sample (``time`` then holds the
    sample times): ``expect`` then answers for every sample at once, and
    indexing gives one sample's state.
    """

    x: np.ndarray
    space: LabeledSpace
    coefficients: np.ndarray
    envelope: Envelope
    time: float | np.ndarray = 0.0

    @property
    def n_max(self) -> int:
        return self.coefficients.shape[0] - 1

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, k) -> "FockHierarchyState":
        return FockHierarchyState(self.x[k], self.space, self.coefficients, self.envelope, self.time[k])

    def block(self, m: int, n: int) -> np.ndarray:
        """vec(rho_{m,n}), one row per sample for a stacked state."""
        d2 = self.space.total_dim ** 2
        k = m * (self.n_max + 1) + n
        coords = _RealCoordinates(self.space.total_dim, self.n_max + 1)
        return coords.to_complex(self.x, slice(k * d2, (k + 1) * d2))

    @property
    def blocks(self) -> dict:
        nb = self.n_max + 1
        return {(m, n): unvectorize(self.block(m, n), self.space) for m in range(nb) for n in range(nb)}

    def expect(self, X: Operator):
        """E[X] = sum_{m,n} c*_{m,n} tr(rho_{m,n}^dag X) = sum_{m,n} c*_{n,m}
        tr(X rho_{m,n}) at ``time``.  A term of X with coefficient xi, xi* or
        |xi|^2 (the wavepacket's, as in a driven triple's L^L) reads the
        blocks that its ladder lowers: weights ``ladder^T vec(c^dag)``."""
        nb = self.n_max + 1
        c = self.coefficients.conj().T.reshape(-1)
        ladders = _ladders(self.envelope, nb)

        def weights(coeff):
            if coeff is None:
                return c
            if coeff not in ladders:
                raise UnsupportedConfigurationError(
                    "a hierarchy expectation takes only the wavepacket's own time dependence"
                )
            return ladders[coeff].T @ c

        return _expect(X, self.space, self.x, self.time, _RealCoordinates(self.space.total_dim, nb), weights)


class FockHierarchy(Superoperator):
    """Coupled master equations for an input wavepacket in a Fock mixture.

    ``field_coeffs`` is either an integer N (pure N-photon input) or the
    (N+1)x(N+1) coefficient matrix c_{m,n} of the field state in the
    wavepacket Fock basis.  The hierarchy is a :class:`Superoperator` over
    the (N+1)^2 stacked blocks rho_{m,n}: the generator of the triple
    driven by the wavepacket xi(t) (``_driven``), its xi, xi* and |xi|^2
    terms lowered by ``_ladders``, so block (m, n) couples downward to
    (m-1, n), (m, n-1) and (m-1, n-1) only.
    """

    def __init__(self, g: SLHTriple, envelope: Envelope, field_coeffs, driven_port: int = 1):
        envelope.check_normalized()
        if not g.is_static():
            raise UnsupportedConfigurationError("the Fock hierarchy needs a static triple")
        self._driven = _driven(g, {driven_port: envelope})
        self._output_rate = sum((L.dag() * L for L in self._driven.L), zero(g.space))
        driven = liouvillian(self._driven)
        if np.ndim(field_coeffs) == 0:
            if not (field_coeffs >= 0 and float(field_coeffs).is_integer()):
                raise ValidationError(f"photon number must be an integer n >= 0, got {field_coeffs!r}")
            n = int(field_coeffs)
            c = np.zeros((n + 1, n + 1), dtype=complex)
            c[n, n] = 1.0
        else:
            c = np.array(field_coeffs, dtype=complex)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ValidationError("field_coeffs must be a square matrix")
            _require_state(c, "the field coefficient matrix")
        self.envelope = envelope
        self.c = c
        self.n_max = c.shape[0] - 1
        nb = self.n_max + 1
        ladders = _ladders(envelope, nb)
        terms = tuple((coeff, sp.kron(ladders[coeff], m, format="csr")) for coeff, m in driven.terms)
        static = sp.kron(sp.identity(nb * nb, format="csr"), driven.static, format="csr")
        super().__init__(g.space, static, terms)

    # -- state handling ------------------------------------------------------

    def initial_state(self, rho_sys: Operator) -> FockHierarchyState:
        """Diagonal blocks start in the system state, off-diagonal at zero;
        a non-Hermitian system state is refused."""
        nb = self.n_max + 1
        y = np.zeros((nb, nb, self.space.total_dim ** 2), dtype=np.complex128)
        y[range(nb), range(nb)] = vectorize(rho_sys.embed(self.space))
        return self.unpack(_RealCoordinates(self.space.total_dim, nb).to_real(y.reshape(-1)), 0.0)

    def unpack(self, x: np.ndarray, t=0.0) -> FockHierarchyState:
        """State from real coordinates; a 2-D ``x`` with sample times ``t`` stacks samples."""
        return FockHierarchyState(x, self.space, self.c, self.envelope, t)

    # -- derived quantities ----------------------------------------------------

    def mean_photon_flux(self, state: FockHierarchyState, t):
        """d E[Lambda_out]/dt = Re E[sum_i L_i^ L_i] of the driven triple at
        ``t``; for a stacked state ``t`` holds the sample times and the
        result is one flux per sample."""
        flux = np.real(replace(state, time=t).expect(self._output_rate))
        return float(flux) if np.ndim(flux) == 0 else flux


def fock_hierarchy(g: SLHTriple, envelope: Envelope, field_coeffs, driven_port: int = 1) -> FockHierarchy:
    return FockHierarchy(g, envelope, field_coeffs, driven_port)


# --------------------------------------------------------------------------
# integration


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n_samples, dim), of y0's dtype: real coordinates or complex


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_span: tuple[float, float],
    t_eval: Sequence[float] | None = None,
    method: str = "adaptive",
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
    dt: float | None = None,
    guard: Callable[[float, np.ndarray], None] | None = None,
) -> Trajectory:
    """March the ODE and sample at ``t_eval``; guards run at every sample.

    ``adaptive`` is one continuous run of scipy's ``RK45`` (Dormand-Prince
    4(5) with the given tolerances) from ``t0`` to the last sample.  Before
    each sample the solver's bound moves to it, so the step that reaches a
    sample is clipped to land on it exactly, and the step size and the
    first-same-as-last derivative carry on into the next interval; samples
    are the solver's own states, never interpolants.  ``fixed`` uses
    classic RK4 with step ``dt`` (or close to it, adjusted per segment)
    and is bitwise reproducible.  ``t_eval`` must be non-decreasing and
    lie within ``t_span``; ``t0`` is prepended when it is missing.

    The samples take ``y0``'s dtype (at least float64): ``evolve_density``
    and ``evolve_hierarchy`` pass the reachable real coordinates and a
    real right-hand side (``_integrate_reachable``); a complex ``y0``
    integrates as a complex vector.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValidationError(f"t_span start must precede end, got ({t0}, {t1})")
    if not (0 <= atol < np.inf and 0 <= rtol < np.inf):
        raise ValidationError(f"atol and rtol must be finite and >= 0, got atol={atol}, rtol={rtol}")
    t_eval = np.linspace(t0, t1, 101) if t_eval is None else np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or not (np.all(np.diff(t_eval) >= 0) and np.all((t0 <= t_eval) & (t_eval <= t1))):
        raise ValidationError(f"t_eval must be non-decreasing and lie within [{t0}, {t1}]")
    if not t_eval.size or t_eval[0] != t0:
        t_eval = np.concatenate(([t0], t_eval))
    states = np.empty((t_eval.size, np.size(y0)), dtype=np.result_type(y0, np.float64))
    states[0] = np.ravel(y0)
    if guard is not None:
        guard(t0, states[0])

    if method == "adaptive":
        from scipy.integrate import RK45  # deferred: scipy.integrate is slow to import

        solver = RK45(rhs, t0, states[0].copy(), t_eval[-1], rtol=rtol, atol=atol)
        if not np.isfinite(solver.f).all():  # RK45's first-step search never ends on a NaN slope
            raise ValidationError(f"the right-hand side is not finite at t = {t0}")
        for k in range(1, t_eval.size):
            solver.t_bound, solver.status = t_eval[k], "running"
            while solver.status == "running":
                message = solver.step()
            if solver.status == "failed":
                raise ValidationError(f"integrator failed on [{t_eval[k - 1]}, {t_eval[k]}]: {message}")
            states[k] = solver.y
            if guard is not None:
                guard(t_eval[k], states[k])
    elif method == "fixed":
        if dt is None or not dt > 0:
            raise ValidationError("fixed-step integration needs dt > 0")
        y = states[0].copy()
        for k in range(1, t_eval.size):
            a, b = t_eval[k - 1], t_eval[k]
            steps = max(1, int(math.ceil((b - a) / dt - 1e-12)))
            h = (b - a) / steps
            t = a
            for _ in range(steps):
                k1 = rhs(t, y)
                k2 = rhs(t + h / 2, y + (h / 2) * k1)
                k3 = rhs(t + h / 2, y + (h / 2) * k2)
                k4 = rhs(t + h, y + h * k3)
                y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            states[k] = y
            if guard is not None:
                guard(b, states[k])
    else:
        raise ValidationError(f"unknown integration method {method!r}")
    return Trajectory(t_eval, states)


def _integrate_reachable(
    coords: _RealCoordinates, gen: Superoperator, x0: np.ndarray, *args,
    atol: float, rtol: float, guard: Callable[[float, np.ndarray], None], **kwargs,
) -> Trajectory:
    """``integrate(coords.rhs(gen), x0, ...)`` on the coordinates reachable
    from ``x0`` (``coords.reachable``) only.  The others stay exactly 0.0,
    so the guard and the samples see the full vector with zeros there.

    RK45 accepts a step on the RMS norm over all N coordinates, to which
    the zeros add nothing; ``atol`` and ``rtol`` scaled by sqrt(N / |S|)
    give the |S| restricted coordinates that same norm, so the initial
    step, every error estimate and every acceptance are the same numbers
    in exact arithmetic.  Fixed-step samples are bitwise those of the full
    run: a row sum skips only products with a zero."""
    keep = coords.reachable(gen, x0)
    scale = math.sqrt(x0.size / max(1, np.count_nonzero(keep)))
    full = np.zeros_like(x0)

    def full_guard(t, x):
        full[keep] = x
        guard(t, full)

    traj = integrate(
        coords.rhs(gen, keep), x0[keep], *args, atol=scale * atol, rtol=scale * rtol, guard=full_guard, **kwargs
    )
    if keep.all():
        return traj
    states = np.zeros((traj.times.size, x0.size), dtype=traj.states.dtype)
    states[:, keep] = traj.states
    return Trajectory(traj.times, states)


@dataclass
class DensityTrajectory:
    """Sampled density matrices: row k of ``array`` holds the real
    coordinates (``_RealCoordinates``) of vec(rho) at ``times[k]``."""

    times: np.ndarray
    space: LabeledSpace
    array: np.ndarray

    @cached_property
    def states(self) -> list[Operator]:
        """The density matrices, rebuilt from the coordinates on first use."""
        ys = _RealCoordinates(self.space.total_dim).to_complex(self.array)
        return [unvectorize(y, self.space) for y in ys]

    def expect(self, op: Operator) -> np.ndarray:
        """tr(X(t) rho(t)) at every sample; X may carry envelope terms, such
        as the L_out^ L_out of a wired pulsed source."""
        return _expect(op, self.space, self.array, self.times, _RealCoordinates(self.space.total_dim))


def _check_truncation(space: LabeledSpace, diag: np.ndarray, limit: float | None, where: str) -> None:
    """Raise if the top Fock level of some oscillator holds more than ``limit``."""
    if limit is None:
        return
    for lbl, pop in _top_populations(diag, space).items():
        if pop > limit:
            raise TruncationGuardError(
                f"top Fock level of {lbl!r} reached population {pop:.3e} "
                f"(> {limit:.1e}) {where}; raise the truncation",
                label=lbl,
                population=pop,
            )


def _require_guard_value(limit: float | None) -> None:
    """A truncation guard is a number >= 0 or None (off); checked once per run."""
    if limit is not None and not limit >= 0:  # NaN fails too
        raise ValidationError(f"truncation guard must be a number >= 0, got {limit}")


def _density_guard(space: LabeledSpace, truncation_guard: float | None):
    """Trace, positivity and truncation checks on the real coordinates of rho."""
    _require_guard_value(truncation_guard)
    d = space.total_dim
    coords = _RealCoordinates(d)

    def guard(t, x):
        diag = x[:: d + 1]
        tr = diag.sum()
        if not abs(tr - 1.0) <= TOL_TRACE:  # NaN fails too
            raise TraceDriftError(
                f"trace drifted to {tr:.12g} at t = {t:.6g} (|tr - 1| > {TOL_TRACE}); "
                "not renormalizing, check tolerances or the generator"
            )
        w = _negative_eigenvalue(coords.lower(x))
        if w is not None:
            raise TraceDriftError(f"rho developed negative eigenvalue {w:.3e} at t = {t:.6g}")
        _check_truncation(space, diag, truncation_guard, f"at t = {t:.6g}")

    return guard


def _require_density_generator(generator: Superoperator, what: str) -> None:
    if generator.static.shape[0] != generator.dim**2:
        raise UnsupportedConfigurationError(
            f"{what} takes one block, not a block-stacked hierarchy; use evolve_hierarchy"
        )


def evolve_density(
    generator: Superoperator,
    rho0: Operator | DensityState,
    t_span: tuple[float, float],
    t_eval: Sequence[float] | None = None,
    method: str = "adaptive",
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
    dt: float | None = None,
    truncation_guard: float | None = TRUNC_GUARD,
) -> DensityTrajectory:
    """Integrate a master equation on the real coordinates of rho that the
    generator can reach from ``rho0`` (``_integrate_reachable``); never
    silently renormalizes.  A generator that does not preserve Hermiticity
    and a non-Hermitian ``rho0`` are refused before the first step."""
    _require_density_generator(generator, "evolve_density")
    if isinstance(rho0, DensityState):
        rho0 = rho0.rho
    rho0 = rho0.embed(generator.space)
    guard = _density_guard(generator.space, truncation_guard)
    coords = _RealCoordinates(generator.dim)
    traj = _integrate_reachable(
        coords, generator, coords.to_real(vectorize(rho0)), t_span, t_eval, method=method,
        atol=atol, rtol=rtol, dt=dt, guard=guard,
    )
    return DensityTrajectory(traj.times, generator.space, traj.states)


def evolve_hierarchy(
    hier: FockHierarchy,
    rho_sys: Operator,
    t_span: tuple[float, float],
    t_eval: Sequence[float] | None = None,
    method: str = "adaptive",
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
    dt: float | None = None,
    truncation_guard: float | None = TRUNC_GUARD,
) -> tuple[np.ndarray, FockHierarchyState]:
    """Integrate the Fock hierarchy from the standard initial condition on
    the real coordinates of its blocks, as ``evolve_density`` does for one
    block; the states come back stacked, one sample per index."""
    _require_guard_value(truncation_guard)
    state0 = hier.initial_state(rho_sys)
    d = hier.space.total_dim
    nb = hier.n_max + 1

    def guard(t, x):
        for m in range(nb):
            diag = x[(m * nb + m) * d * d : (m * nb + m + 1) * d * d : d + 1]
            _check_truncation(hier.space, diag, truncation_guard, f"in block ({m},{m}) at t = {t:.6g}")

    traj = _integrate_reachable(
        _RealCoordinates(d, nb), hier, state0.x, t_span, t_eval, method=method,
        atol=atol, rtol=rtol, dt=dt, guard=guard,
    )
    return traj.times, hier.unpack(traj.states, traj.times)


# --------------------------------------------------------------------------
# steady state


def _sylvester_part(M: sp.spmatrix, d: int) -> np.ndarray:
    """``P`` of the Frobenius-nearest map ``rho -> P rho + rho P^``,
    ``kron(P, I) + kron(I, conj(P))``, to a Hermiticity-preserving d^2 x d^2
    superoperator ``M``, read off the entries of ``M`` acting on the left
    alone.  For a Lindblad generator with traceless jumps it is the no-jump
    part ``-i(H_eff rho - rho H_eff^)``, ``H_eff = H - (i/2) sum L^L``."""
    C = M.tocoo()
    i, j = np.divmod(C.row, d)
    k, l = np.divmod(C.col, d)
    left = j == l
    P = sp.coo_matrix((C.data[left], (i[left], k[left])), shape=(d, d)).toarray() / d
    P[np.diag_indices(d)] -= M.diagonal().sum() / (2 * d**2)  # the identity part, half on each side
    return P


def _triangular_sylvester(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite ``C`` with the ``X`` of ``A X + X B^ = C``, ``A`` and ``B``
    upper triangular, by recursive blocking (Jonsson & Kagstrom, ACM TOMS 28,
    392 (2002)): the larger side is halved, the solved half's coupling moves
    to the other half's right-hand side by one ``zgemm``, and LAPACK's
    unblocked ``ztrsyl`` solves only tiles of at most ``SYLVESTER_TILE`` a
    side, each with its own ``scale`` divided out."""
    # deferred, as in steady_state
    from scipy.linalg.blas import zgemm
    from scipy.linalg.lapack import ztrsyl

    m, n = C.shape
    if max(m, n) <= SYLVESTER_TILE:
        # info = 1 (close eigenvalues, perturbed) still gives a preconditioner
        y, scale, _ = ztrsyl(A, B, C, tranb="C")
        C[...] = y / scale
    elif m >= n:
        k = m // 2
        _triangular_sylvester(A[k:, k:], B, C[k:])
        C[:k] = zgemm(-1.0, A[:k, k:], C[k:], 1.0, C[:k])
        _triangular_sylvester(A[:k, :k], B, C[:k])
    else:
        k = n // 2
        _triangular_sylvester(A, B[k:, k:], C[:, k:])
        C[:, :k] = zgemm(-1.0, C[:, k:], B[:k, k:], 1.0, C[:, :k], trans_b=2)
        _triangular_sylvester(A, B[:k, :k], C[:, :k])


def _triangular_lyapunov(T: np.ndarray, C: np.ndarray) -> None:
    """Overwrite a Hermitian ``C`` with the Hermitian ``Y`` of
    ``T Y + Y T^ = C``, ``T`` upper triangular, solving only half of it
    (Jonsson & Kagstrom, ACM TOMS 28, 416 (2002)): after the halved
    Lyapunov block ``Y22``, the coupling ``Y12`` is one
    ``_triangular_sylvester`` and ``Y21 = Y12^``.  Outside the diagonal
    tiles, the part of ``C`` below the diagonal is written, never read."""
    d = len(C)
    if d <= SYLVESTER_TILE:
        _triangular_sylvester(T, T, C)
        return
    from scipy.linalg.blas import zgemm  # deferred, as in steady_state

    k = d // 2
    T12 = T[:k, k:]
    _triangular_lyapunov(T[k:, k:], C[k:, k:])
    C[:k, k:] = zgemm(-1.0, T12, C[k:, k:], 1.0, C[:k, k:])
    _triangular_sylvester(T[:k, :k], T[k:, k:], C[:k, k:])
    W = zgemm(1.0, T12, C[:k, k:], trans_b=2)
    C[:k, :k] -= W + W.conj().T
    _triangular_lyapunov(T[:k, :k], C[:k, :k])
    C[k:, :k] = C[:k, k:].conj().T


def _sylvester_inverse(P: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``vec(R) -> vec(X)`` with ``P X + X P^ = R`` for a Hermitian ``R``,
    from one complex Schur form ``P = U T U^`` (Schur, not eigenvectors:
    ``H_eff`` may be defective), so that each solve is the Lyapunov equation
    ``T Y + Y T^ = U^ R U`` (``_triangular_lyapunov``).  Every product is
    scipy's ``zgemm``, on the BLAS pool that ``schur`` and ``ztrsyl`` use."""
    # deferred, as in steady_state
    from scipy.linalg import schur
    from scipy.linalg.blas import zgemm

    d = P.shape[0]
    T, U = schur(P, output="complex")

    def solve(r: np.ndarray) -> np.ndarray:
        # r.reshape(d, d).T is R^T in Fortran order: zgemm reads it in place
        y = zgemm(1.0, U, zgemm(1.0, r.reshape(d, d).T, U, trans_a=1), trans_a=2)
        _triangular_lyapunov(T, y)
        return zgemm(1.0, zgemm(1.0, U, y), U, trans_b=2).reshape(-1)

    return solve


def _gmres(A: sp.spmatrix, b: np.ndarray, x0: np.ndarray, M: Callable[[np.ndarray], np.ndarray]):
    """``(x, info)`` for ``A x = b`` by restarted GMRES, right-preconditioned
    by ``M`` (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856 (1986)):
    at most ``STEADY_GMRES_MAXITER`` cycles of at most
    ``STEADY_GMRES_RESTART`` Arnoldi steps on ``A M``, each orthogonalized
    by classical Gram-Schmidt run twice, and then ``x += M(V y)`` with
    ``V`` the Krylov basis, so a component of ``x0`` that no ``M(V y)``
    reaches survives.  ``info`` is 0 once the true residual
    ``||b - A x||`` is at most ``STEADY_GMRES_RTOL ||b||``, else 1.  A
    cycle ends early on a small Arnoldi residual estimate or a happy
    breakdown.  The dense work is scipy's BLAS, on the pool the
    preconditioner uses."""
    from scipy.linalg.blas import dgemv, dnrm2, dtrsv  # deferred, as in steady_state
    from scipy.linalg.lapack import dlartg

    m = STEADY_GMRES_RESTART
    tol = STEADY_GMRES_RTOL * dnrm2(b)
    V = np.empty((len(b), m + 1), order="F")
    x = x0.copy()
    r = b - A @ x
    for _ in range(STEADY_GMRES_MAXITER):
        beta = dnrm2(r)
        if beta <= tol:
            return x, 0
        V[:, 0] = r / beta
        H = np.zeros((m + 1, m), order="F")
        rot = np.zeros((m, 2))
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            w = A @ M(V[:, j])
            for _ in range(2):
                h = dgemv(1.0, V[:, : j + 1], w, trans=1)
                w = dgemv(-1.0, V[:, : j + 1], h, beta=1.0, y=w, overwrite_y=1)
                H[: j + 1, j] += h
            hn = dnrm2(w)
            for i, (c, s) in enumerate(rot[:j]):
                H[i, j], H[i + 1, j] = c * H[i, j] + s * H[i + 1, j], c * H[i + 1, j] - s * H[i, j]
            c, s, H[j, j] = dlartg(H[j, j], hn)
            rot[j] = c, s
            g[j], g[j + 1] = c * g[j], -s * g[j]
            if hn == 0.0 or abs(g[j + 1]) <= tol:
                break
            V[:, j + 1] = w / hn
        k = j + 1
        x += M(dgemv(1.0, V[:, :k], dtrsv(H[:k, :k], g[:k])))
        r = b - A @ x
    return x, int(not dnrm2(r) <= tol)  # NaN fails too


def steady_state(generator: Superoperator) -> DensityState:
    """Unit-trace null vector of a time-independent Liouvillian, solved on
    the real coordinates of rho (``_RealCoordinates``), so rho is Hermitian
    by construction; a generator that does not preserve Hermiticity is
    refused as ``evolve_density`` refuses it.

    The real generator's first row (redundant by trace preservation)
    becomes the trace functional, and ``A x = e_0`` is solved by
    right-preconditioned GMRES (``_gmres``), as QuTiP's "iterative-gmres"
    ``steadystate`` solves it by a left-preconditioned one; the same path
    runs at every size.  The preconditioner is the exact inverse of the Sylvester
    part ``rho -> P rho + rho P^`` (``_sylvester_part``: the no-jump
    evolution; for vacuum and coherent inputs the jump terms left to GMRES
    only lower the excitation number), shifted by ``STEADY_SHIFT * ||A||_1``
    (``A`` the complex trace-row Liouvillian) so that a vacuum steady state
    does not make it singular.  Every failure raises
    :class:`SteadyStateError`, never a retry by another method:

    * a GMRES run that does not converge, or solves from a zero and a
      fixed-seed random unit-norm start (a random Hermitian matrix) that
      differ by more than ``STEADY_START_AGREEMENT_TOL`` (a singular but
      consistent ``A`` keeps the start's null component), mean the null
      space is not one-dimensional;
    * a residual ``||L rho||`` above ``STEADY_RESIDUAL_TOL * ||A||_1``
      means it is trivial.
    """
    # deferred: only a steady state needs the dense solvers, and importing
    # them is a large share of a short request
    from scipy.linalg.blas import dnrm2

    _require_density_generator(generator, "steady_state")
    if not generator.is_static:
        raise UnsupportedConfigurationError("steady state needs a time-independent generator")
    M = generator.static
    d = generator.dim
    n = d * d
    coords = _RealCoordinates(d)
    R = coords.real_matrix(M)
    # a diagonal entry of rho is its own coordinate, so the row reads both
    trace_row = sp.csr_matrix((np.ones(d), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))), shape=(1, n))
    A = sp.vstack([trace_row, R[1:]], format="csr")
    scale = max(1.0, abs(sp.vstack([trace_row, M[1:]])).sum(axis=0).max())  # ||.||_1
    P = _sylvester_part(M, d)
    P[np.diag_indices(d)] -= 0.5 * STEADY_SHIFT * scale  # P and P^ each take half of the shift
    solve = _sylvester_inverse(P)

    def precond(v):
        # v is real coordinates, so solve gets a Hermitian matrix
        return coords.project(solve(coords.to_complex(v)))

    b = np.eye(1, n)[0]
    z = np.random.default_rng(0).standard_normal(n)
    starts = (np.zeros(n), z / dnrm2(z))
    solves = []
    for x0 in starts:
        x, info = _gmres(A, b, x0, precond)
        if info != 0 or not np.all(np.isfinite(x)):
            raise SteadyStateError(
                f"steady-state GMRES did not converge (residual |A rho - e_0| = {dnrm2(A @ x - b):.3e}); "
                "the null space dimension may not be 1"
            )
        solves.append(x)
    x, other = solves
    spread = np.abs(x - other).max()
    if spread > STEADY_START_AGREEMENT_TOL * max(1.0, np.abs(x).max()):
        raise SteadyStateError(
            "non-unique steady state: null space dimension is not 1 "
            f"(solves from two starts differ by {spread:.3e})"
        )
    resid = dnrm2(R @ x)  # = ||L rho||: the coordinates are isometric
    if resid > STEADY_RESIDUAL_TOL * scale:
        raise SteadyStateError(
            f"no steady state: Liouvillian has trivial null space (residual |L rho| = {resid:.3e})"
        )
    return DensityState(unvectorize(coords.to_complex(x), generator.space), 0.0)


# --------------------------------------------------------------------------
# trajectory output


def format_value(z) -> str:
    """Locale-independent %.12e; complex values as re:im pairs."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.12e}"
    return f"{z.real:.12e}:{z.imag:.12e}"


def _rows(times, columns: Mapping[str, Sequence]) -> list[list[str]]:
    """One formatted row per sample: the time, then each column's value."""
    cols = list(columns.values())
    return [[f"{float(t):.12e}"] + [format_value(col[k]) for col in cols] for k, t in enumerate(times)]


def trajectory_csv(times: np.ndarray, columns: Mapping[str, Sequence]) -> str:
    lines = ["t," + ",".join(columns)] + [",".join(row) for row in _rows(times, columns)]
    return "\n".join(lines) + "\n"


def trajectory_json(times, columns: Mapping[str, Sequence], metadata: Mapping | None = None) -> str:
    payload = {
        "metadata": dict(metadata or {}),
        "columns": ["t", *columns],
        "rows": _rows(times, columns),
    }
    return json.dumps(payload, indent=2)
