"""Linear network analysis: ABCD extraction, transfer functions,
physical realizability, and the inverse map back to a triple.

A triple is linear when its scattering entries are scalars, every
coupling operator is linear in mode operators, and the Hamiltonian is
quadratic.  Linearity is detected by projecting onto the normally
ordered monomial basis up to degree two on the truncated space and
checking the residual, so numerically tiny nonlinear remnants below
``TOL_LIN`` are tolerated.

Passive systems (no a^dag couplings, no squeezing terms) use the plain
m-mode form; anything else uses the doubled-up 2m-dimensional form with
the flat involution  M^flat = J M^dag J.  Realizability and the inverse
map read only the doubled-up form (``LinearModel.doubled``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotLinearError, UnrealizableError, ValidationError
from .hilbert import TOL_OP, LabeledSpace, destroy
from .slh import SLHTriple

#: residual threshold for the linearity projection
TOL_LIN = 1e-9


@dataclass
class LinearModel:
    """State-space form of a linear triple.

    Passive: ``a' = A a + B b_in``, ``b_out = C a + D b_in`` on the m
    mode amplitudes.  Active: the same shape on the doubled-up vector
    (a_1..a_m, a_1^..a_m^), with A, B, C, D of sizes 2m and 2n.
    """

    form: str  # "passive" | "active"
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    mode_labels: tuple[str, ...]
    n_ports: int

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def doubled(self) -> "LinearModel":
        """The active (doubled-up) view; identity on active models.

        A passive model doubles to the block diagonal ``[[X, 0], [0, X*]]``
        of its own A, B, C and D.
        """
        if self.form == "active":
            return self
        return replace(
            self, form="active",
            A=_blockdiag(self.A, self.A.conj()), B=_blockdiag(self.B, self.B.conj()),
            C=_blockdiag(self.C, self.C.conj()), D=_blockdiag(self.D, self.D.conj()),
        )


def _blockdiag(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.block([
        [X, np.zeros((X.shape[0], Y.shape[1]))],
        [np.zeros((Y.shape[0], X.shape[1])), Y],
    ])


def _J(k: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)]))


def _flat(M: np.ndarray, m: int, n: int) -> np.ndarray:
    """Flat involution of a 2n x 2m doubled-up matrix: J_m M^dag J_n."""
    return _J(m) @ M.conj().T @ _J(n)


# --------------------------------------------------------------------------
# monomial projection


def _oscillator_modes(space: LabeledSpace) -> list[tuple[str, int]]:
    return list(space.factors)


def _monomial_fit(target: np.ndarray, basis: list[np.ndarray]):
    """Least-squares expansion of target over (possibly degenerate) basis
    matrices; returns (coefficients, residual max-norm)."""
    cols = [b.reshape(-1) for b in basis]
    Mmat = np.stack(cols, axis=1)
    y = target.reshape(-1)
    coeffs, *_ = np.linalg.lstsq(Mmat, y, rcond=None)
    resid = y - Mmat @ coeffs
    return coeffs, float(np.abs(resid).max()) if resid.size else 0.0


def _nonlinear_name(
    residual: np.ndarray,
    mode_ops: dict[str, np.ndarray],
    low_basis: list[np.ndarray] | None = None,
) -> str:
    """Best-matching higher-degree monomial for the error message.

    Candidates are orthogonalized against the degree <= 2 span first,
    since the projection residual lives in its orthogonal complement.
    """
    labels = list(mode_ops)
    candidates: list[tuple[str, np.ndarray]] = []
    for lbl in labels:
        a = mode_ops[lbl]
        n = a.conj().T @ a
        candidates.append((f"({lbl}^ {lbl})^2", n @ n))
        candidates.append((f"{lbl}^ {lbl} {lbl}", a.conj().T @ a @ a))
        candidates.append((f"{lbl}^ {lbl}^ {lbl}", a.conj().T @ a.conj().T @ a))
        candidates.append((f"{lbl}^3", a @ a @ a))
    for l1, l2 in itertools.combinations(labels, 2):
        a1, a2 = mode_ops[l1], mode_ops[l2]
        n1 = a1.conj().T @ a1
        n2 = a2.conj().T @ a2
        candidates.append((f"{l1}^ {l1} {l2}^ {l2}", n1 @ n2))
        candidates.append((f"{l1}^ {l1} ({l2} + {l2}^)", n1 @ (a2 + a2.conj().T)))
    best_name, best_score = "a structure of degree > 2", 0.0
    r = residual.reshape(-1)
    rn = np.linalg.norm(r)
    if rn == 0:
        return best_name
    low = np.stack([b.reshape(-1) for b in low_basis], axis=1) if low_basis else None
    for name, M in candidates:
        mv = M.reshape(-1)
        if low is not None:
            coeffs, *_ = np.linalg.lstsq(low, mv, rcond=None)
            mv = mv - low @ coeffs
        mn = np.linalg.norm(mv)
        if mn < 1e-12:
            continue
        score = abs(np.vdot(mv, r)) / (mn * rn)
        if score > best_score:
            best_name, best_score = name, score
    return best_name if best_score > 0.5 else "a structure of degree > 2"


def extract_linear(g: SLHTriple, tol: float = TOL_LIN) -> LinearModel:
    """Project onto degree <= 2 monomials and assemble the ABCD form.

    Raises :class:`NotLinearError` (naming the largest offending
    monomial) if any residual exceeds ``tol``.  Constant offsets in H
    are discarded as irrelevant global phases.

    Linearity is judged on the truncated representation, so keep
    oscillator truncations >= 3 for a meaningful quartic-term check.
    """
    if not g.is_static():
        raise NotLinearError("time-dependent couplings or drives are not linear-system data")
    space = g.space
    modes = _oscillator_modes(space)
    if not modes:
        raise NotLinearError("the triple has no internal modes")
    labels = tuple(lbl for lbl, _ in modes)
    m = len(modes)
    n = g.n_ports
    d = space.total_dim

    a_ops = {lbl: destroy(lbl, dim).embed(space).constant().toarray() for lbl, dim in modes}
    eye = np.eye(d, dtype=complex)

    # scattering entries must be scalar
    D = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            s = g.S[i, j].constant().toarray()
            val = np.trace(s) / d
            resid = np.abs(s - val * eye).max()
            if resid > tol:
                raise NotLinearError(
                    f"scattering entry S[{i + 1},{j + 1}] is operator valued (residual {resid:.2e})",
                    offending=f"S[{i + 1},{j + 1}]",
                    residual=resid,
                )
            D[i, j] = val

    # couplings linear in a, a^dag
    lin_basis = [a_ops[lbl] for lbl in labels] + [a_ops[lbl].conj().T for lbl in labels]
    Phi_minus = np.zeros((n, m), dtype=complex)
    Phi_plus = np.zeros((n, m), dtype=complex)
    for i in range(n):
        target = g.L[i].constant().toarray()
        coeffs, resid = _monomial_fit(target, lin_basis)
        if resid > tol:
            fitted = sum(c * b for c, b in zip(coeffs, lin_basis))
            name = _nonlinear_name(target - fitted, a_ops, lin_basis)
            raise NotLinearError(
                f"coupling L[{i + 1}] is not linear in the mode operators "
                f"(residual {resid:.2e}, closest to {name})",
                offending=name,
                residual=resid,
            )
        Phi_minus[i, :] = coeffs[:m]
        Phi_plus[i, :] = coeffs[m:]

    # Hamiltonian quadratic (constant offset tolerated and dropped)
    quad_basis = [eye]
    quad_index: list[tuple[str, int, int]] = [("const", 0, 0)]
    for j in range(m):
        for k in range(m):
            quad_basis.append(a_ops[labels[j]].conj().T @ a_ops[labels[k]])
            quad_index.append(("nm", j, k))
    for j in range(m):
        for k in range(j, m):
            quad_basis.append(a_ops[labels[j]].conj().T @ a_ops[labels[k]].conj().T)
            quad_index.append(("pp", j, k))
            quad_basis.append(a_ops[labels[j]] @ a_ops[labels[k]])
            quad_index.append(("mm", j, k))
    targetH = g.H.constant().toarray()
    coeffs, resid = _monomial_fit(targetH, quad_basis)
    if resid > tol:
        fitted = sum(c * b for c, b in zip(coeffs, quad_basis))
        name = _nonlinear_name(targetH - fitted, a_ops, quad_basis)
        raise NotLinearError(
            f"Hamiltonian is not quadratic (residual {resid:.2e}, closest to {name})",
            offending=name,
            residual=resid,
        )
    Omega_minus = np.zeros((m, m), dtype=complex)
    Omega_plus = np.zeros((m, m), dtype=complex)
    for c, (kind, j, k) in zip(coeffs, quad_index):
        if kind == "nm":
            Omega_minus[j, k] += c
        elif kind == "pp":
            # split symmetrically: a_j^ a_k^ coefficient
            Omega_plus[j, k] += 0.5 * c
            Omega_plus[k, j] += 0.5 * c
        # "mm" coefficients are the conjugates of "pp" by Hermiticity;
        # "const" is dropped.
    herm = np.abs(Omega_minus - Omega_minus.conj().T).max()
    if herm > max(tol, TOL_OP):
        raise NotLinearError(f"quadratic coefficients are not Hermitian (residual {herm:.2e})")
    Omega_minus = 0.5 * (Omega_minus + Omega_minus.conj().T)

    passive = np.abs(Phi_plus).max() <= tol and np.abs(Omega_plus).max() <= tol
    if passive:
        A = -0.5 * Phi_minus.conj().T @ Phi_minus - 1j * Omega_minus
        B = -Phi_minus.conj().T @ D
        C = Phi_minus
        return LinearModel("passive", A, B, C, D, labels, n)

    Phi_t = np.block([[Phi_minus, Phi_plus], [Phi_plus.conj(), Phi_minus.conj()]])
    Omega_t = np.block([[Omega_minus, Omega_plus], [-Omega_plus.conj(), -Omega_minus.conj()]])
    D_t = _blockdiag(D, D.conj())
    A_t = -0.5 * _flat(Phi_t, m, n) @ Phi_t - 1j * Omega_t
    B_t = -_flat(Phi_t, m, n) @ D_t
    return LinearModel("active", A_t, B_t, Phi_t, D_t, labels, n)


# --------------------------------------------------------------------------
# frequency domain


def _shifted(A: np.ndarray, s) -> np.ndarray:
    """sI - A, stacked along the axes of an array ``s``, from one
    eigenvalue computation; an s at (or numerically at) an eigenvalue of A
    is refused."""
    s = np.asarray(s, dtype=complex)
    lam = np.linalg.eigvals(A)
    scale = max(1.0, float(np.abs(lam).max()) if lam.size else 1.0)
    poles = np.flatnonzero(np.abs(s[..., None] - lam).min(axis=-1, initial=np.inf) < 1e-12 * scale)
    if poles.size:
        raise ValidationError(f"s = {complex(s.flat[poles[0]])} is a pole (an eigenvalue of A)")
    return s[..., None, None] * np.eye(A.shape[0]) - A


def _tf(A, B, C, D, s) -> np.ndarray:
    S = _shifted(A, s)
    # B as a stack too: numpy < 2 reads a 2-D B beside a 3-D S as vectors
    return D + C @ np.linalg.solve(S, np.broadcast_to(B, S.shape[:-1] + B.shape[-1:]))


def transfer_function(model: LinearModel, s) -> np.ndarray:
    """Xi(s) = D + C (sI - A)^-1 B; with B = -C^dag D (passive) or
    B = -C^flat D (active) this is the loss-less scattering response.  An
    array of s gives the stack of Xi(s), from one batched solve."""
    return _tf(model.A, model.B, model.C, model.D, s)


def initial_condition_response(model: LinearModel, s: complex) -> np.ndarray:
    """xi(s) = C (sI - A)^-1, the weight of the initial internal state."""
    return model.C @ np.linalg.inv(_shifted(model.A, complex(s)))


class QuadratureModel(NamedTuple):
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def transfer_function(self, s: complex) -> np.ndarray:
        return _tf(self.A, self.B, self.C, self.D, complex(s))


def quadrature_transform(model: LinearModel) -> QuadratureModel:
    """Rewrite the doubled-up model in the (x, y) quadrature basis
    (x = (a + a^)/sqrt2, y = i(a^ - a)/sqrt2)."""
    dbl = model.doubled()
    m, n = dbl.n_modes, dbl.n_ports

    def T(k):
        I = np.eye(k)
        return np.block([[I, I], [-1j * I, 1j * I]]) / math.sqrt(2.0)

    Tm, Tn = T(m), T(n)
    Tm_inv, Tn_inv = np.linalg.inv(Tm), np.linalg.inv(Tn)
    return QuadratureModel(
        Tm @ dbl.A @ Tm_inv,
        Tm @ dbl.B @ Tn_inv,
        Tn @ dbl.C @ Tm_inv,
        Tn @ dbl.D @ Tn_inv,
    )


# --------------------------------------------------------------------------
# realizability and inversion


@dataclass
class RealizabilityReport:
    commutation_residual: float  # A + A^flat + C^flat C
    coupling_residual: float     # B + C^flat D
    scattering_residual: float   # D^flat D - I

    def passed(self, tol: float = 1e-9) -> bool:
        return max(self.commutation_residual, self.coupling_residual, self.scattering_residual) <= tol

    def __str__(self):
        ok = "pass" if self.passed() else "FAIL"
        return (
            f"realizability [{ok}]: "
            f"|A + A~ + C~C| = {self.commutation_residual:.3e}, "
            f"|B + C~D| = {self.coupling_residual:.3e}, "
            f"|D~D - I| = {self.scattering_residual:.3e}"
        )


def realizability_check(model: LinearModel) -> RealizabilityReport:
    """The three conditions for the model to preserve canonical
    commutation relations (evaluated on the doubled-up form)."""
    dbl = model.doubled()
    m, n = dbl.n_modes, dbl.n_ports
    A, B, C, D = dbl.A, dbl.B, dbl.C, dbl.D
    C_flat = _flat(C, m, n)
    r1 = np.abs(A + _flat(A, m, m) + C_flat @ C).max()
    r2 = np.abs(B + C_flat @ D).max()
    r3 = np.abs(_flat(D, n, n) @ D - np.eye(2 * n)).max()
    return RealizabilityReport(float(r1), float(r2), float(r3))


def abcd_to_slh(
    model: LinearModel,
    truncation: int = 8,
    labels: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> SLHTriple:
    """Invert the extraction on the doubled-up form: S = D, L = C (a, a^),
    H from the blocks of i(A + C^flat C / 2).  Round-trips with
    ``extract_linear`` on realizable inputs."""
    dbl = model.doubled()
    report = realizability_check(dbl)
    if not report.passed(tol):
        raise UnrealizableError(f"model is not physically realizable: {report}")
    labels = tuple(labels) if labels is not None else model.mode_labels
    m, n = model.n_modes, model.n_ports
    if len(labels) != m:
        raise ValidationError(f"need {m} mode labels, got {len(labels)}")
    a_ops = [destroy(lbl, truncation) for lbl in labels]

    Omega_t = 1j * (dbl.A + 0.5 * _flat(dbl.C, m, n) @ dbl.C)
    Omega = Omega_t[:m, :m]
    Omega_plus = Omega_t[:m, m:]
    block_err = max(
        np.abs(Omega_t[m:, :m] + Omega_plus.conj()).max(),
        np.abs(Omega_t[m:, m:] + Omega.conj()).max(),
    )
    if block_err > 10 * tol:
        raise UnrealizableError(
            f"doubled-up Hamiltonian block symmetry violated ({block_err:.2e})"
        )
    Omega = 0.5 * (Omega + Omega.conj().T)
    Omega_plus = 0.5 * (Omega_plus + Omega_plus.T)
    Phi = dbl.C[:n, :m]
    Phi_plus = dbl.C[:n, m:]
    D = dbl.D[:n, :n]

    L = []
    for i in range(n):
        acc = None
        for k in range(m):
            term = complex(Phi[i, k]) * a_ops[k]
            if Phi_plus[i, k]:
                term = term + complex(Phi_plus[i, k]) * a_ops[k].dag()
            acc = term if acc is None else acc + term
        L.append(acc)
    H = None
    for j in range(m):
        for k in range(m):
            if Omega[j, k]:
                term = complex(Omega[j, k]) * a_ops[j].dag() * a_ops[k]
                H = term if H is None else H + term
            if Omega_plus[j, k]:
                up = complex(Omega_plus[j, k]) * a_ops[j].dag() * a_ops[k].dag()
                down = complex(np.conj(Omega_plus[j, k])) * a_ops[j] * a_ops[k]
                H = up + down if H is None else H + up + down
    if H is None:
        H = 0.0
    S = [[complex(D[i, j]) for j in range(n)] for i in range(n)]
    return SLHTriple(S, L, H)


# --------------------------------------------------------------------------
# single photon scattering off a two-level atom


def tla_reflection(gamma: float, delta: float, omega: float) -> complex:
    """Single-photon S-matrix coefficient for a two-level atom in a
    waveguide: the unimodular factor multiplying delta(omega - nu).

    Equals -1 on resonance (omega = delta) and tends to +1 far off
    resonance.
    """
    if gamma <= 0:
        raise ValidationError(f"gamma > 0 violated: gamma = {gamma}")
    z = 0.5 * gamma + 1j * (delta - omega)
    return -np.conj(z) / z
