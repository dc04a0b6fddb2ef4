"""Equations of motion implied by a triple, and their integration.

Master equations act on the vectorized density matrix (row-major
``vec``, so ``vec(A rho B) = kron(A, B^T) vec(rho)``).  Builders:

* ``liouvillian``            -- vacuum-input Lindblad generator
* ``liouvillian_coherent``   -- coherent drive on one designated port
* ``liouvillian_gaussian``   -- stationary Gaussian (thermal/squeezed) input
* ``fock_hierarchy``         -- coupled generalized-state equations for
                                Fock-state wavepacket inputs

A drive amplitude alpha(t) on port j always enters through the series
product of the displacement source with the network,
``(S, L + S_:j alpha, H + Im(L^ S_:j alpha))``: the coherent drive, the
Gaussian mean field and the hierarchy's wavepacket coupling all take
their drive matrices from one builder, ``_drive``.  Every sandwich
rho -> A rho B comes from ``_sandwich``, and the Fock hierarchy is a
``Superoperator`` over its stacked blocks.

Also here: Heisenberg-picture coefficient extraction, input-output
structure, an adaptive/fixed-step integrator whose guards stop on trace
drift, negative eigenvalues and top-Fock-level population (read off the
diagonal of rho, per hierarchy block), and a GMRES steady-state solver
preconditioned by the exact inverse of the generator's no-jump part."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    LabeledSpace,
    Operator,
    _compose_coeffs,
    _conj_coeff,
    _top_populations,
    commutator,
    identity,
)
from .slh import SLHTriple

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

#: GMRES on the preconditioned system: relative residual, Krylov basis
#: size between restarts, and restart cycles before giving up
STEADY_GMRES_RTOL = 1e-12
STEADY_GMRES_RESTART = 200
STEADY_GMRES_MAXITER = 5

#: default integrator tolerances (embedded Runge-Kutta 4(5))
DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8


# --------------------------------------------------------------------------
# states


def _negative_eigenvalue(m: np.ndarray) -> float | None:
    """Most negative eigenvalue of the Hermitian part of ``m`` if it lies
    below ``-TOL_POSITIVITY``, else None.

    A Cholesky factorization of ``herm + TOL_POSITIVITY I`` succeeds exactly
    when no eigenvalue lies below ``-TOL_POSITIVITY``; ``eigvalsh`` runs only
    when it fails, to confirm the violation and report the eigenvalue.
    """
    herm = 0.5 * (m + m.conj().T)
    try:
        np.linalg.cholesky(herm + TOL_POSITIVITY * np.eye(len(herm)))
        return None
    except np.linalg.LinAlgError:
        w = float(np.linalg.eigvalsh(herm).min())
    return w if w < -TOL_POSITIVITY else None


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
        tr = complex(m.diagonal().sum())
        if not abs(tr - 1.0) <= TOL_TRACE:  # NaN fails too
            raise ValidationError(f"trace(rho) = {tr:.10g}, expected 1 within {TOL_TRACE}")
        herm = (self.rho - self.rho.dag()).max_abs()
        if herm > TOL_OP:
            raise ValidationError(f"rho is not Hermitian: residual {herm:.3e}")
        w = _negative_eigenvalue(m.toarray())
        if w is not None:
            raise ValidationError(f"rho has negative eigenvalue {w:.3e}")

    def expect(self, op: Operator) -> complex:
        x = op.embed(self.rho.space) if op.space != self.rho.space else op
        return complex((x.constant() @ self.rho.constant()).diagonal().sum())


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
    """Matrix acting on vec(rho) or on stacked blocks of it, possibly with scalar-envelope terms."""

    __slots__ = ("space", "static", "terms")

    def __init__(self, space: LabeledSpace, static=None, terms=()):
        d2 = space.total_dim**2
        if static is None:
            static = sp.csr_matrix((d2, d2), dtype=np.complex128)
        static = sp.csr_matrix(static, dtype=np.complex128)
        if static.shape[0] != static.shape[1] or static.shape[0] % d2:
            raise ConstructionError(f"superoperator shape {static.shape} is not square with side a multiple of {d2}")
        self.space = space
        self.static = static
        self.terms = tuple(terms)

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


def _sandwich(space: LabeledSpace, A: Operator, B: Operator) -> Superoperator:
    """Superoperator of rho -> A rho B, distributing over envelope terms."""
    A = A.embed(space)
    B = B.embed(space)
    a_parts = [(None, A.static)] + list(A.terms)
    b_parts = [(None, B.static)] + list(B.terms)
    static = None
    terms = []
    for ca, ma in a_parts:
        for cb, mb in b_parts:
            mat = sp.kron(ma, mb.T, format="csr")
            if not mat.nnz:
                continue
            coeff = _compose_coeffs(ca, cb)
            if coeff is None:
                static = mat if static is None else static + mat
            else:
                terms.append((coeff, mat))
    return Superoperator(space, static, tuple(terms))


def spre(space: LabeledSpace, A: Operator) -> Superoperator:
    return _sandwich(space, A, identity(space))


def spost(space: LabeledSpace, B: Operator) -> Superoperator:
    return _sandwich(space, identity(space), B)


def lindblad_dissipator(space: LabeledSpace, L: Operator) -> Superoperator:
    """D[L] rho = L rho L^ - (L^L rho + rho L^L)/2."""
    LdL = L.dag() * L
    return _sandwich(space, L, L.dag()) + (-0.5) * spre(space, LdL) + (-0.5) * spost(space, LdL)


def liouvillian(g: SLHTriple) -> Superoperator:
    """Vacuum-input master equation generator; S never enters."""
    space = g.space
    out = (-1j) * (spre(space, g.H) + (-1.0) * spost(space, g.H))
    for L in g.L:
        out = out + lindblad_dissipator(space, L)
    return out


def _static_or_raise(op: Operator, what: str) -> Operator:
    if not op.is_static:
        raise UnsupportedConfigurationError(f"{what} must be time independent here")
    return op


def _drive(g: SLHTriple, alpha, port: int) -> Superoperator:
    """The drive part of the generator for amplitude alpha(t) on ``port``.

    Cascading the displacement source (1, alpha, 0) into the port gives
    (S, L + S_:j alpha, H + Im(L^ S_:j alpha)), whose generator is the
    vacuum one plus alpha m_alpha + alpha* m_conj + |alpha|^2 m_gauge with
    m_alpha = [S_:j rho, L^], m_conj = [L, rho S_:j^] and
    m_gauge = S_:j rho S_:j^ - rho (zero for a scalar-phase S).  A
    time-dependent alpha gives the terms (alpha, m_alpha),
    (alpha*, m_conj) and (|alpha|^2, m_gauge), in that order.
    """
    if not 1 <= port <= g.n_ports:
        raise ValidationError(f"port {port} out of range 1..{g.n_ports}")
    env = alpha if isinstance(alpha, Envelope) else as_envelope(alpha)
    space = g.space
    d = space.total_dim
    eye = sp.identity(d, dtype=np.complex128, format="csr")
    m_alpha = m_conj = gauge = None
    for i in range(g.n_ports):
        Sij = _static_or_raise(g.S[i, port - 1], "scattering entry").embed(space).constant()
        Li = _static_or_raise(g.L[i], "coupling fed by a coherent drive").embed(space).constant()
        t1 = sp.kron(Sij, Li.conj(), format="csr") - sp.kron(Li.conj().T @ Sij, eye, format="csr")
        t2 = sp.kron(Li, Sij.conj(), format="csr") - sp.kron(eye, (Sij.conj().T @ Li).T, format="csr")
        t3 = sp.kron(Sij, Sij.conj(), format="csr")
        m_alpha = t1 if m_alpha is None else m_alpha + t1
        m_conj = t2 if m_conj is None else m_conj + t2
        gauge = t3 if gauge is None else gauge + t3
    m_gauge = sp.csr_matrix(gauge - sp.identity(d * d, dtype=np.complex128, format="csr"))
    if isinstance(env, ConstantAmplitude):
        a0 = env.value
        if not np.isfinite(a0):
            raise ValidationError(f"drive amplitude must be finite, got {a0}")
        return Superoperator(space, a0 * m_alpha + np.conj(a0) * m_conj + abs(a0) ** 2 * m_gauge)
    terms = (
        (env, m_alpha),
        (_conj_coeff(env), m_conj),
        (lambda t: abs(env(t)) ** 2, m_gauge),
    )
    return Superoperator(space, None, terms)


def liouvillian_coherent(g: SLHTriple, alpha, port: int = 1) -> Superoperator:
    """Master equation with a coherent drive alpha(t) on one input port.

    Adds alpha [S_:j rho, L^] + alpha* [L, rho S_:j^] + |alpha|^2
    (S_:j rho S_:j^ - rho) to the vacuum generator; identical to
    cascading the displacement source into the designated port.
    """
    return liouvillian(g) + _drive(g, alpha, port)


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

    The squeezing terms are (M/2)[L^,[L^,rho]] + (M*/2)[L,[L,rho]] with M
    rotated by the scattering phase s to s^2 M, since (s, L, H) is the
    input passing s before it meets (1, L, H); the mean field alpha enters
    through S exactly as a coherent drive does.
    """
    M = _require_scalar_phase(g) ** 2 * env.M
    space = g.space
    L = _static_or_raise(g.L[0], "coupling driven by a Gaussian field")
    out = (-1j) * (spre(space, g.H) + (-1.0) * spost(space, g.H))
    out = out + (env.N + 1.0) * lindblad_dissipator(space, L)
    if env.N:
        out = out + env.N * lindblad_dissipator(space, L.dag())
    if M:
        for z, X in ((0.5 * M, L.dag()), (0.5 * np.conj(M), L)):
            out = out + z * (spre(space, X * X) + (-2.0) * _sandwich(space, X, X) + spost(space, X * X))
    if env.alpha is not None:
        out = out + _drive(g, env.alpha, 1)
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
        dB.append(acc_b.simplify())
        dB_dag.append(acc_bd.simplify())
    dLambda = np.empty((n, n), dtype=object)
    for i in range(n):
        for jj in range(n):
            acc = None
            for k in range(n):
                term = g.S[k, i].dag() * X * g.S[k, jj]
                acc = term if acc is None else acc + term
            if i == jj:
                acc = acc - X
            dLambda[i, jj] = acc.simplify()
    return HeisenbergCoefficients(drift.simplify(), dB, dB_dag, dLambda)


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


@dataclass
class FockHierarchyState:
    """Generalized state matrices rho_{m,n} of a Fock-driven run, packed
    as the row-major vec of each block in (m, n) order.

    A 2-D ``y`` stacks one packed state per sample (``time`` then holds the
    sample times): ``expect`` and ``FockHierarchy.mean_photon_flux`` then
    answer for every sample at once, and indexing gives one sample's state.
    """

    y: np.ndarray
    space: LabeledSpace
    coefficients: np.ndarray
    envelope: Envelope
    time: float | np.ndarray = 0.0

    @property
    def n_max(self) -> int:
        return self.coefficients.shape[0] - 1

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, k) -> "FockHierarchyState":
        return FockHierarchyState(self.y[k], self.space, self.coefficients, self.envelope, self.time[k])

    def block(self, m: int, n: int) -> np.ndarray:
        """vec(rho_{m,n}), one row per sample for a stacked state."""
        d2 = self.space.total_dim ** 2
        k = m * (self.n_max + 1) + n
        return self.y[..., k * d2 : (k + 1) * d2]

    @property
    def blocks(self) -> dict:
        nb = self.n_max + 1
        return {(m, n): unvectorize(self.block(m, n), self.space) for m in range(nb) for n in range(nb)}

    def physical_state(self) -> Operator:
        """sum c*_{m,n} rho_{m,n}^dag, the state all expectations trace against."""
        acc = None
        for (m, n), block in self.blocks.items():
            c = self.coefficients[m, n]
            if c == 0:
                continue
            term = np.conj(c) * block.dag()
            acc = term if acc is None else acc + term
        return acc

    def hermiticity_residual(self) -> float:
        blocks = self.blocks
        return max((block - blocks[(n, m)].dag()).max_abs() for (m, n), block in blocks.items())

    def trace_with(self, m: int, n: int, x: np.ndarray):
        """tr(rho_{m,n}^dag X) = conj(vec rho_{m,n}) . vec X for ``x = vec X``."""
        return self.block(m, n).conj() @ x

    def expect(self, X: Operator):
        """E[X] = sum_{m,n} c*_{m,n} tr(rho_{m,n}^dag X)."""
        x = vectorize(X.embed(self.space))
        return sum(
            np.conj(c) * self.trace_with(m, n, x)
            for (m, n), c in np.ndenumerate(self.coefficients)
            if c != 0
        )


class FockHierarchy(Superoperator):
    """Coupled master equations for an input wavepacket in a Fock mixture.

    ``field_coeffs`` is either an integer N (pure N-photon input) or the
    (N+1)x(N+1) coefficient matrix c_{m,n} of the field state in the
    wavepacket Fock basis.  The hierarchy is a :class:`Superoperator` over
    the (N+1)^2 stacked blocks rho_{m,n}; it couples block (m, n) downward
    to (m-1, n), (m, n-1) and (m-1, n-1) only.
    """

    def __init__(self, g: SLHTriple, envelope: Envelope, field_coeffs, driven_port: int = 1):
        envelope.check_normalized()
        if not g.is_static():
            raise UnsupportedConfigurationError("the Fock hierarchy needs a static triple")
        # sqrt(m) xi(t) [S rho, L^], sqrt(n) xi*(t) [L, rho S^], sqrt(mn) |xi(t)|^2 gauge
        drive = _drive(g, envelope, driven_port)
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
            if abs(np.trace(c) - 1.0) > TOL_TRACE:
                raise ValidationError(f"field coefficients must have unit trace, got {np.trace(c):.8g}")
        self.envelope = envelope
        self.c = c
        self.n_max = c.shape[0] - 1
        nb = self.n_max + 1

        def ladder(dm, dn):
            """sqrt(m^dm n^dn) |(m, n)><(m - dm, n - dn)| on the block index."""
            mn = [(m, n) for m in range(dm, nb) for n in range(dn, nb)]
            return sp.csr_matrix(
                ([math.sqrt(m**dm * n**dn) for m, n in mn],
                 ([m * nb + n for m, n in mn], [(m - dm) * nb + n - dn for m, n in mn])),
                shape=(nb * nb, nb * nb),
            )

        terms = () if nb == 1 else tuple(
            (coeff, sp.kron(ladder(*shift), m, format="csr"))
            for shift, (coeff, m) in zip(((1, 0), (0, 1), (1, 1)), drive.terms)
        )
        static = sp.kron(sp.identity(nb * nb, format="csr"), liouvillian(g).static, format="csr")
        super().__init__(g.space, static, terms)
        # flux ingredients: vec of sum_i L_i^ L_i, sum_i S_ij^ L_i, sum_i L_i^ S_ij
        per_port = [(L.dag() * L, S.dag() * L, L.dag() * S) for L, S in zip(g.L, g.S[:, driven_port - 1])]
        self._flux = [sum(vectorize(op.embed(self.space)) for op in ops) for ops in zip(*per_port)]

    # -- state handling ------------------------------------------------------

    def initial_state(self, rho_sys: Operator) -> FockHierarchyState:
        """Diagonal blocks start in the system state, off-diagonal at zero."""
        nb = self.n_max + 1
        y = np.zeros((nb, nb, self.space.total_dim ** 2), dtype=np.complex128)
        y[range(nb), range(nb)] = vectorize(rho_sys.embed(self.space))
        return self.unpack(y.reshape(-1), 0.0)

    def unpack(self, y: np.ndarray, t=0.0) -> FockHierarchyState:
        """State from packed blocks; a 2-D ``y`` with sample times ``t`` stacks samples."""
        return FockHierarchyState(y, self.space, self.c, self.envelope, t)

    # -- derived quantities ----------------------------------------------------

    def mean_photon_flux(self, state: FockHierarchyState, t):
        """d E[Lambda_out]/dt combined over all blocks with the field
        coefficients; real up to numerical noise for physical states.
        For a stacked state ``t`` holds the sample times and the result is
        one flux per sample."""
        xi = self.envelope(t) if np.ndim(t) == 0 else np.array([self.envelope(s) for s in t])
        LdL, SdL, LdS = self._flux
        total = 0.0 + 0.0j
        for (m, n), c in np.ndenumerate(self.c):
            if c == 0:
                continue
            val = state.trace_with(m, n, LdL)
            if m > 0:
                val = val + math.sqrt(m) * np.conj(xi) * state.trace_with(m - 1, n, SdL)
            if n > 0:
                val = val + math.sqrt(n) * xi * state.trace_with(m, n - 1, LdS)
            if m > 0 and n > 0:
                val = val + math.sqrt(m * n) * abs(xi) ** 2
            total = total + np.conj(c) * val
        flux = np.real(total)
        return float(flux) if np.ndim(flux) == 0 else flux


def fock_hierarchy(g: SLHTriple, envelope: Envelope, field_coeffs, driven_port: int = 1) -> FockHierarchy:
    return FockHierarchy(g, envelope, field_coeffs, driven_port)


# --------------------------------------------------------------------------
# integration


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n_samples, dim) complex


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
    states = np.empty((t_eval.size, np.size(y0)), dtype=np.complex128)
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


@dataclass
class DensityTrajectory:
    """Sampled density matrices: row k of ``array`` is vec(rho) at ``times[k]``."""

    times: np.ndarray
    space: LabeledSpace
    array: np.ndarray
    expectations: dict = field(default_factory=dict)

    @cached_property
    def states(self) -> list[Operator]:
        return [unvectorize(y, self.space) for y in self.array]

    def expect(self, op: Operator) -> np.ndarray:
        """tr(X rho) at every sample, as vec(rho) . vec(X^T) row by row."""
        return self.array @ vectorize(op.embed(self.space).constant().T.toarray())


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


def _density_guard(space: LabeledSpace, truncation_guard: float | None):
    d = space.total_dim

    def guard(t, y):
        rho = y.reshape(d, d)
        tr = np.trace(rho)
        if not abs(tr - 1.0) <= TOL_TRACE:  # NaN fails too
            raise TraceDriftError(
                f"trace drifted to {tr:.12g} at t = {t:.6g} (|tr - 1| > {TOL_TRACE}); "
                "not renormalizing, check tolerances or the generator"
            )
        w = _negative_eigenvalue(rho)
        if w is not None:
            raise TraceDriftError(f"rho developed negative eigenvalue {w:.3e} at t = {t:.6g}")
        _check_truncation(space, rho.diagonal(), truncation_guard, f"at t = {t:.6g}")

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
    observables: Mapping[str, Operator] | None = None,
    method: str = "adaptive",
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
    dt: float | None = None,
    truncation_guard: float | None = TRUNC_GUARD,
) -> DensityTrajectory:
    """Integrate a master equation; never silently renormalizes."""
    _require_density_generator(generator, "evolve_density")
    if isinstance(rho0, DensityState):
        rho0 = rho0.rho
    rho0 = rho0.embed(generator.space)
    guard = _density_guard(generator.space, truncation_guard)
    traj = integrate(
        generator.rhs(), vectorize(rho0), t_span, t_eval, method=method,
        atol=atol, rtol=rtol, dt=dt, guard=guard,
    )
    out = DensityTrajectory(traj.times, generator.space, traj.states)
    for name, op in (observables or {}).items():
        out.expectations[name] = out.expect(op)
    return out


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
    """Integrate the Fock hierarchy from the standard initial condition;
    the states come back stacked, one sample per index."""
    state0 = hier.initial_state(rho_sys)
    d = hier.space.total_dim
    nb = hier.n_max + 1

    def guard(t, y):
        for m in range(nb):
            diag = y[(m * nb + m) * d * d : (m * nb + m + 1) * d * d : d + 1]
            _check_truncation(hier.space, diag, truncation_guard, f"in block ({m},{m}) at t = {t:.6g}")

    traj = integrate(
        hier.rhs(), state0.y, t_span, t_eval, method=method,
        atol=atol, rtol=rtol, dt=dt, guard=guard,
    )
    return traj.times, hier.unpack(traj.states, traj.times)


# --------------------------------------------------------------------------
# steady state


def _sylvester_part(M: sp.spmatrix, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(Pa, Pb)`` of the Frobenius-nearest map ``rho -> Pa rho + rho Pb``
    to a d^2 x d^2 superoperator ``M``, that is ``kron(Pa, I) +
    kron(I, Pb^T)``, read off in one pass over its entries.  For a
    Lindblad generator with traceless jumps it is the no-jump part
    ``-i(H_eff rho - rho H_eff^)``, ``H_eff = H - (i/2) sum L^L``."""
    C = M.tocoo()
    i, j = np.divmod(C.row, d)
    k, l = np.divmod(C.col, d)
    left, right = j == l, i == k
    Pa = sp.coo_matrix((C.data[left], (i[left], k[left])), shape=(d, d)).toarray() / d
    PbT = sp.coo_matrix((C.data[right], (j[right], l[right])), shape=(d, d)).toarray() / d
    Pa[np.diag_indices(d)] -= M.diagonal().sum() / d**2  # the identity part, counted on both sides
    return Pa, PbT.T


def _sylvester_inverse(Pa: np.ndarray, Pb: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``vec(R) -> vec(X)`` with ``Pa X + X Pb = R``, from one complex Schur
    form of each side (Schur, not eigenvectors: ``H_eff`` may be defective)."""
    d = Pa.shape[0]
    Ta, Ua = sla.schur(Pa, output="complex")
    Tb, Ub = sla.schur(Pb, output="complex")
    UaH, UbH = Ua.conj().T, Ub.conj().T

    def solve(r: np.ndarray) -> np.ndarray:
        # info = 1 (close eigenvalues, perturbed) still gives a preconditioner
        y, scale, _ = sla.lapack.ztrsyl(Ta, Tb, UaH @ r.reshape(d, d) @ Ub)
        return (Ua @ y @ UbH).reshape(-1) / scale

    return solve


def steady_state(generator: Superoperator) -> DensityState:
    """Unit-trace null vector of a time-independent Liouvillian.

    The Liouvillian's first row (redundant by trace preservation) becomes
    the trace functional, and ``A rho = e_0`` is solved by GMRES as in
    QuTiP's "iterative-gmres" ``steadystate``; the same path runs at every
    size.  The preconditioner is the exact inverse of the generator's
    Sylvester part ``rho -> Pa rho + rho Pb`` (``_sylvester_part``: the
    no-jump evolution; for vacuum and coherent inputs the jump terms left
    to GMRES only lower the excitation number), shifted by
    ``STEADY_SHIFT * ||A||_1`` so that a vacuum steady state does not make
    it singular.  Every
    failure raises :class:`SteadyStateError`, never a retry by another
    method:

    * a GMRES run that does not converge, or solves from a zero and a
      fixed-seed random unit-norm start that differ by more than
      ``STEADY_START_AGREEMENT_TOL`` (a singular but consistent ``A``
      keeps the start's null component), mean the null space is not
      one-dimensional;
    * a residual ``||L rho||`` above ``STEADY_RESIDUAL_TOL * ||A||_1``
      means it is trivial.
    """
    _require_density_generator(generator, "steady_state")
    if not generator.is_static:
        raise UnsupportedConfigurationError("steady state needs a time-independent generator")
    M = generator.static
    d = generator.dim
    n = d * d
    trace_row = sp.csr_matrix((np.ones(d), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))), shape=(1, n))
    A = sp.vstack([trace_row, M[1:]], format="csr")
    scale = max(1.0, spla.norm(A, 1))
    Pa, Pb = _sylvester_part(M, d)
    Pa[np.diag_indices(d)] -= STEADY_SHIFT * scale
    precond = spla.LinearOperator(A.shape, _sylvester_inverse(Pa, Pb), dtype=np.complex128)
    b = np.eye(1, n, dtype=np.complex128)[0]
    rng = np.random.default_rng(0)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    starts = (np.zeros(n, dtype=np.complex128), z / np.linalg.norm(z))
    solves = []
    for x0 in starts:
        x, info = spla.gmres(
            A, b, x0=x0, M=precond, rtol=STEADY_GMRES_RTOL, atol=0.0,
            restart=STEADY_GMRES_RESTART, maxiter=STEADY_GMRES_MAXITER,
        )
        if info != 0 or not np.all(np.isfinite(x)):
            raise SteadyStateError(
                f"steady-state GMRES did not converge (residual |A rho - e_0| = {np.linalg.norm(A @ x - b):.3e}); "
                "the null space dimension may not be 1"
            )
        solves.append(x)
    vec, other = solves
    spread = np.abs(vec - other).max()
    if spread > STEADY_START_AGREEMENT_TOL * max(1.0, np.abs(vec).max()):
        raise SteadyStateError(
            "non-unique steady state: null space dimension is not 1 "
            f"(solves from two starts differ by {spread:.3e})"
        )
    resid = np.linalg.norm(M @ vec)
    if resid > STEADY_RESIDUAL_TOL * scale:
        raise SteadyStateError(
            f"no steady state: Liouvillian has trivial null space (residual |L rho| = {resid:.3e})"
        )
    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho)
    return DensityState(Operator(generator.space, rho), 0.0)


# --------------------------------------------------------------------------
# trajectory output


def format_value(z) -> str:
    """Locale-independent %.12e; complex values as re:im pairs."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.12e}"
    return f"{z.real:.12e}:{z.imag:.12e}"


def trajectory_csv(times: np.ndarray, columns: Mapping[str, Sequence]) -> str:
    header = "t," + ",".join(columns.keys())
    lines = [header]
    cols = list(columns.values())
    for k, t in enumerate(times):
        row = [f"{float(t):.12e}"] + [format_value(col[k]) for col in cols]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_json(times, columns: Mapping[str, Sequence], metadata: Mapping | None = None) -> str:
    payload = {
        "metadata": dict(metadata or {}),
        "columns": ["t"] + list(columns.keys()),
        "rows": [
            [f"{float(t):.12e}"] + [format_value(col[k]) for col in columns.values()]
            for k, t in enumerate(times)
        ],
    }
    return json.dumps(payload, indent=2)
