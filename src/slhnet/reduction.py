"""Adiabatic elimination of fast, strongly damped degrees of freedom.

The workflow: split the generator with projectors onto the slow and
fast subspaces (``decompose``), verify the structural assumptions of
the limit theorem (``check_assumptions``), then compute the reduced
triple on the slow subspace (``eliminate``).

With ``K = -(iH + sum_i L_i^ L_i / 2)`` and P1 = I - P0:

    Y = P1 K P1          (fast generator; must be invertible on P1)
    A = P1 K P0 + P0 K P1 (fast-slow coupling)
    B = P0 K P0          (slow generator)
    F_i = L_i P1,  G_i = L_i P0,  W = S

and in the limit of infinitely fast Y-dynamics the reduced operators
are

    K_red = P0 (B - A Ytilde A) P0
    L_i   = (G_i - F_i Ytilde A) P0
    S_il  = (F_i Ytilde F_l^ + delta_il) W_lj P0

where ``Ytilde`` inverts Y on the fast subspace.  The reduced triple is
returned on the compressed slow space.

Exactness caveat: at finite parameters the projector split treats all
dynamics inside the fast subspace as fast; the reduced triple converges
to the true limit as the fast rates are scaled up, and only in that
limit is the reduced scattering matrix exactly unitary.  ``eliminate``
therefore takes an explicit tolerance for its validity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import AssumptionError, ValidationError
from .hilbert import TOL_OP, LabeledSpace, Operator
from .slh import SLHTriple

#: condition number above which Y is treated as singular on the fast subspace
YTILDE_CONDITION_LIMIT = 1e12


@dataclass
class EliminationProblem:
    """Projector decomposition of a triple, ready for the limit formulas."""

    g_bar: SLHTriple
    P0: Operator
    Y: Operator
    A: Operator
    B: Operator
    F: list[Operator]
    G: list[Operator]
    W: np.ndarray  # the scattering grid of g_bar
    slow_space: LabeledSpace | None
    slow_isometry: np.ndarray  # (total_dim, rank) columns spanning range(P0)
    Ytilde: Operator | None = None
    condition_number: float = field(default=float("nan"))


@dataclass
class AssumptionReport:
    inverse_residual: float      # |Ytilde Y - P1| and |Y Ytilde - P1|
    y_slow_residual: float       # |Y P0|
    coupling_residuals: list[float]  # |F_i P0|
    block_residual: float        # |P0 A P0|
    condition_number: float

    def passed(self, tol: float = TOL_OP) -> bool:
        worst = max(
            [self.inverse_residual, self.y_slow_residual, self.block_residual]
            + list(self.coupling_residuals)
        )
        return worst <= tol

    def __str__(self):
        ok = "pass" if self.passed() else "FAIL"
        cr = ", ".join(f"{r:.2e}" for r in self.coupling_residuals)
        return (
            f"elimination assumptions [{ok}]: |Yt Y - P1| = {self.inverse_residual:.2e}, "
            f"|Y P0| = {self.y_slow_residual:.2e}, |F_i P0| = [{cr}], "
            f"|P0 A P0| = {self.block_residual:.2e}, cond(Y|P1) = {self.condition_number:.2e}"
        )


def projector_from_states(
    space: LabeledSpace, kept: Mapping[str, int | None]
) -> Operator:
    """Projector pinning some factors to basis states and keeping others.

    ``kept[label] = k`` pins that factor to level ``|k>``; ``None``
    keeps the whole factor.  Omitted labels are pinned to their ground
    level.  E.g. ``{"cav": 0, "atom": None}`` projects onto
    cavity-vacuum x (full atom).
    """
    mat = np.array([[1.0 + 0j]])
    for lbl, dim in space.factors:
        spec = kept.get(lbl, 0)
        if spec is None:
            f = np.eye(dim, dtype=complex)
        else:
            k = int(spec)
            if not 0 <= k < dim:
                raise ValidationError(f"level {k} out of range for factor {lbl!r} (dim {dim})")
            f = np.zeros((dim, dim), dtype=complex)
            f[k, k] = 1.0
        mat = np.kron(mat, f)
    return Operator(space, mat)


def _check_projector(P0: Operator, tol: float) -> None:
    if (P0 - P0.dag()).max_abs() > tol:
        raise ValidationError("P0 is not Hermitian")
    if (P0 * P0 - P0).max_abs() > tol:
        raise ValidationError("P0 is not idempotent")


def _slow_basis(P0: Operator, tol: float = 1e-9):
    """Isometry onto range(P0) and a labeled space for the result.

    When P0 factorizes over the tensor factors (each factor either kept
    whole or pinned to one level), the kept factors keep their labels;
    otherwise the slow space is a single anonymous factor.
    """
    space = P0.space
    dense = P0.constant().toarray()
    w, v = np.linalg.eigh(0.5 * (dense + dense.conj().T))
    keep = w > 0.5
    rank = int(keep.sum())
    if rank == 0:
        return None, np.zeros((dense.shape[0], 0), dtype=complex)

    # structured route: a diagonal P0 whose support is a product of
    # per-factor supports, each one whole factor or one level
    on = np.flatnonzero(np.real(np.diag(dense)) > 0.5)
    if np.abs(dense - np.diag(np.diag(dense))).max() < tol and on.size == rank:
        support = np.zeros(space.total_dim, dtype=bool)
        support[on] = True
        support = support.reshape(space.dims)
        axes = range(support.ndim)
        sizes = [
            int(support.any(axis=tuple(a for a in axes if a != ax)).sum()) for ax in axes
        ]
        if all(n in (1, dim) for n, dim in zip(sizes, space.dims)) and math.prod(sizes) == rank:
            kept = [(lbl, dim) for (lbl, dim), n in zip(space.factors, sizes) if n == dim]
            return LabeledSpace(kept), np.eye(space.total_dim, dtype=complex)[:, on]
    return LabeledSpace([("slow", rank)]), v[:, keep]


def decompose(g_bar: SLHTriple, P0: Operator, tol: float = TOL_OP) -> EliminationProblem:
    """Split the generator of ``g_bar`` with the slow-space projector."""
    if not g_bar.is_static():
        raise ValidationError("elimination of triples with time-dependent couplings is not supported")
    space = g_bar.space
    P0 = P0.embed(space)
    _check_projector(P0, tol)
    P1 = Operator(space, np.eye(space.total_dim)) - P0

    K = (-1j) * g_bar.H
    for L in g_bar.L:
        K = K + (-0.5) * (L.dag() * L)
    Y = P1 * K * P1
    A = P1 * K * P0 + P0 * K * P1
    B = P0 * K * P0
    F = [L * P1 for L in g_bar.L]
    G = [L * P0 for L in g_bar.L]
    slow_space, V = _slow_basis(P0)
    return EliminationProblem(
        g_bar=g_bar, P0=P0, Y=Y, A=A, B=B,
        F=F, G=G, W=g_bar.S, slow_space=slow_space, slow_isometry=V,
    )


def check_assumptions(prob: EliminationProblem, tol: float = TOL_OP) -> AssumptionReport:
    """Verify the limit-theorem requirements and build Ytilde.

    (1) Y invertible on the fast subspace, (2) Y P0 = 0,
    (3) F_i P0 = 0, (4) P0 A P0 = 0.
    """
    space = prob.g_bar.space
    d = space.total_dim
    P0m = prob.P0.constant().toarray()
    P1m = np.eye(d) - P0m
    w, v = np.linalg.eigh(0.5 * (P1m + P1m.conj().T))
    V1 = v[:, w > 0.5]
    Ym = prob.Y.constant().toarray()
    Yr = V1.conj().T @ Ym @ V1
    if Yr.size:
        sv = np.linalg.svd(Yr, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
        if not np.isfinite(cond) or cond > YTILDE_CONDITION_LIMIT:
            null_idx = int(np.argmin(sv))
            _, _, vh = np.linalg.svd(Yr)
            null_vec = V1 @ vh[null_idx].conj()
            raise AssumptionError(
                "Ytilde does not exist: Y is singular on the fast subspace "
                f"(condition number {cond:.2e}); offending direction has components "
                f"{np.round(null_vec, 6).tolist()}"
            )
        Yt = V1 @ np.linalg.inv(Yr) @ V1.conj().T
    else:
        cond = 1.0
        Yt = np.zeros((d, d), dtype=complex)
    Ytilde = Operator(space, Yt)
    prob.Ytilde = Ytilde
    prob.condition_number = cond

    inv_resid = max(
        (Ytilde * prob.Y - Operator(space, P1m)).max_abs(),
        (prob.Y * Ytilde - Operator(space, P1m)).max_abs(),
    )
    y_slow = (prob.Y * prob.P0).max_abs()
    coupling = [(F * prob.P0).max_abs() for F in prob.F]
    block = (prob.P0 * prob.A * prob.P0).max_abs()
    return AssumptionReport(inv_resid, y_slow, coupling, block, cond)


def eliminate(
    prob: EliminationProblem,
    tol: float = TOL_OP,
    unitarity_tol: float = TOL_OP,
) -> SLHTriple:
    """Compute the reduced triple on the slow subspace.

    Refuses to run if ``check_assumptions`` fails at ``tol``.  The
    validity checks of the resulting triple (S unitarity, H
    Hermiticity) run at ``unitarity_tol``; loosen it when eliminating at
    finite (not yet asymptotic) rate separations.
    """
    if prob.slow_space is None:
        raise ValidationError("P0 has rank zero; nothing survives elimination")
    report = check_assumptions(prob, tol)
    if not report.passed(tol):
        raise AssumptionError(f"refusing to eliminate: {report}")
    g = prob.g_bar
    n = g.n_ports
    Yt = prob.Ytilde
    P0 = prob.P0

    K_red = P0 * (prob.B - prob.A * Yt * prob.A) * P0
    L_red = [(prob.G[i] - prob.F[i] * Yt * prob.A) * P0 for i in range(n)]
    S_red = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = None
            for l in range(n):
                coeff = prob.F[i] * Yt * prob.F[l].dag()
                if i == l:
                    coeff = coeff + Operator(g.space, np.eye(g.space.total_dim))
                term = coeff * prob.W[l, j] * P0
                acc = term if acc is None else acc + term
            S_red[i, j] = acc

    # iH = -K - sum L^L/2 on the slow space
    iH = (-1.0) * K_red
    for L in L_red:
        iH = iH + (-0.5) * (L.dag() * L)
    H_red = iH * (-1j)

    V = prob.slow_isometry
    space = prob.slow_space

    def compress(op: Operator) -> Operator:
        m = op.constant().toarray()
        return Operator(space, V.conj().T @ m @ V)

    S_c = [[compress(S_red[i, j]) for j in range(n)] for i in range(n)]
    L_c = [compress(x) for x in L_red]
    H_c = compress(H_red)
    anti = (H_c - H_c.dag()).max_abs()
    if anti > unitarity_tol:
        raise AssumptionError(
            f"reduced Hamiltonian has anti-Hermitian residual {anti:.3e}; "
            "the triple is not yet in the asymptotic regime (or pass a looser unitarity_tol)"
        )
    H_c = (H_c + H_c.dag()) * 0.5
    return SLHTriple(
        S_c, L_c, H_c,
        input_names=g.input_names,
        output_names=g.output_names,
        metadata={"eliminated_from": g.space.labels, "assumption_report": str(report)},
        tol=max(unitarity_tol, TOL_OP),
    )


def eliminate_triple(
    g_bar: SLHTriple,
    P0: Operator,
    tol: float = TOL_OP,
    unitarity_tol: float = TOL_OP,
) -> SLHTriple:
    """decompose + check + eliminate in one call."""
    return eliminate(decompose(g_bar, P0, tol), tol=tol, unitarity_tol=unitarity_tol)
