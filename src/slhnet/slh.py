"""SLH triples and the Gough-James network composition algebra.

A component interacting with n itinerant field ports is the triple
``G = (S, L, H)``: an n x n matrix of scattering operators, an n-vector
of coupling operators and a Hamiltonian, all acting on one shared
labeled space.  The five operations below (series, concatenation,
direct coupling, feedback reduction, port permutation) are everything
needed to assemble an arbitrary network:

* ``series(g2, g1)``        -- all outputs of g1 feed the inputs of g2
                               (``concat`` plus ``feedback_multi``)
* ``concat(g1, g2, ...)``   -- independent parallel composition (n-ary)
* ``direct_couple(g1, g2)`` -- concatenation plus an interaction Hamiltonian
* ``feedback(g, x, y)``     -- close the internal link: output x -> input y
* ``feedback_multi(g, wiring)`` -- close several links at once

Port indices in the public API are 1-based, matching the usual port
arithmetic conventions; survivors keep their relative order after a
feedback reduction and the returned index maps record the re-packing.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import AlgebraicLoopError, CompositionError, ConstructionError
from .hilbert import (
    TOL_OP,
    Coefficient,
    LabeledSpace,
    Operator,
    _factor,
    identity,
    op_close,
    operator_from_dict,
    operator_to_dict,
    union_space,
    zero,
)

#: singularity threshold for the feedback loop operator (I - S_xy)
LOOP_SINGULARITY_TOL = 1e-8

#: version tag of the JSON triple serialization
SCHEMA_VERSION = 1


class SLHTriple:
    """Immutable (S, L, H) triple with port names and shared space.

    ``S`` may be anything convertible to an (n, n) object array of
    Operators (scalars are promoted to multiples of the identity on the
    trivial space); entries must be time independent.  ``L`` entries and
    ``H`` may carry scalar-envelope time dependence.

    Every triple is valid: the constructor refuses a non-unitary S or a
    non-Hermitian H at ``tol`` and symmetrizes H.  ``concat`` and
    ``with_names``, whose results are valid by construction, build them
    with :meth:`_valid`, which neither converts nor checks.
    """

    __slots__ = ("n_ports", "space", "S", "L", "H", "input_names", "output_names", "metadata", "check_tol")

    def __init__(
        self,
        S,
        L,
        H,
        input_names: Sequence[str] | None = None,
        output_names: Sequence[str] | None = None,
        metadata: dict | None = None,
        tol: float = TOL_OP,
    ):
        S = _as_operator_grid(S)
        L = [_as_operator(x) for x in (L if isinstance(L, (list, tuple, np.ndarray)) else [L])]
        H = _as_operator(H)
        n = S.shape[0]
        if S.shape != (n, n):
            raise CompositionError(f"S must be square, got shape {S.shape}")
        if len(L) != n:
            raise CompositionError(f"S is {n}x{n} but L has {len(L)} entries")

        space = union_space(
            H.space, *(x.space for x in L), *(S[i, j].space for i in range(n) for j in range(n))
        )
        S = np.array([[S[i, j].embed(space) for j in range(n)] for i in range(n)], dtype=object).reshape(n, n)
        if not all(x.is_static for x in S.flat):
            raise CompositionError("time-dependent scattering entries are not supported")

        self._set(S, [x.embed(space) for x in L], H.embed(space), input_names, output_names, metadata, tol)
        resid = self.unitarity_residual()
        if not resid <= tol:  # a NaN residual fails too
            raise CompositionError(f"scattering matrix is not unitary: residual {resid:.3e}")
        self.H = _symmetrized(self.H, tol)

    @classmethod
    def _valid(cls, S, L, H, input_names, output_names, metadata, tol) -> "SLHTriple":
        """A triple from fields that already form a valid one on ``H.space``."""
        return object.__new__(cls)._set(S, L, H, input_names, output_names, metadata, tol)

    def _set(self, S, L, H, input_names, output_names, metadata, tol) -> "SLHTriple":
        n = S.shape[0]
        if input_names is None:
            input_names = tuple(f"in{k + 1}" for k in range(n))
        if output_names is None:
            output_names = tuple(f"out{k + 1}" for k in range(n))
        if len(input_names) != n or len(output_names) != n:
            raise CompositionError("port name lists must match the port count")
        self.n_ports = n
        self.space = H.space
        self.S = S
        self.L = tuple(L)
        self.H = H
        self.input_names = tuple(str(s) for s in input_names)
        self.output_names = tuple(str(s) for s in output_names)
        self.metadata = dict(metadata or {})
        self.check_tol = float(tol)
        return self

    # -- checks -------------------------------------------------------------

    def scattering_matrix(self) -> sp.csr_matrix:
        """The (n*d) x (n*d) block matrix of static scattering entries."""
        n = self.n_ports
        if n == 0:
            return sp.csr_matrix((0, 0), dtype=np.complex128)
        if n == 1:
            return self.S[0, 0].constant()
        blocks = [[self.S[i, j].constant() for j in range(n)] for i in range(n)]
        return sp.bmat(blocks, format="csr")

    def unitarity_residual(self) -> float:
        """Largest entry of |S^dag S - I| and |S S^dag - I|; NaN if S holds a NaN."""
        if self.n_ports == 0:
            return 0.0
        big = self.scattering_matrix()
        big_dag = big.conj().T
        vals = []
        for P in (big_dag @ big, big @ big_dag):  # CSR or CSC: either way major != minor is off the diagonal
            major = np.repeat(np.arange(P.indptr.size - 1), np.diff(P.indptr))
            vals += [P.data[major != P.indices], P.diagonal() - 1.0]
        return float(np.abs(np.concatenate(vals)).max())  # one numpy max, so a NaN anywhere wins

    def hermiticity_residual(self) -> float:
        return (self.H - self.H.dag()).max_abs()

    # -- conveniences ---------------------------------------------------------

    def is_static(self) -> bool:
        return self.H.is_static and all(x.is_static for x in self.L)

    def with_names(self, input_names=None, output_names=None, metadata=None) -> "SLHTriple":
        """The same S, L and H under new port names, with ``metadata`` merged in."""
        return SLHTriple._valid(
            self.S,
            self.L,
            self.H,
            input_names or self.input_names,
            output_names or self.output_names,
            {**self.metadata, **(metadata or {})},
            self.check_tol,
        )

    def __repr__(self):
        return f"SLHTriple(n_ports={self.n_ports}, space={self.space!r})"


class PortMap(NamedTuple):
    """Internal wiring: 1-based (output index -> input index) pairs."""

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]]) -> "PortMap":
        return PortMap(tuple((int(a), int(b)) for a, b in pairs))

    def validate(self, n_ports: int) -> None:
        outs = [a for a, _ in self.pairs]
        ins = [b for _, b in self.pairs]
        if len(set(outs)) != len(outs):
            raise CompositionError(f"output port used twice in wiring {self.pairs}")
        if len(set(ins)) != len(ins):
            raise CompositionError(f"input port used twice in wiring {self.pairs}")
        for k in outs + ins:
            if not 1 <= k <= n_ports:
                raise CompositionError(f"port index {k} out of range 1..{n_ports}")


class FeedbackResult(NamedTuple):
    """Reduced triple plus maps old surviving port index -> new index (1-based)."""

    triple: SLHTriple
    out_map: dict[int, int]
    in_map: dict[int, int]


def _as_operator(x) -> Operator:
    if isinstance(x, Operator):
        return x
    if np.isscalar(x):
        return identity(LabeledSpace()) * complex(x)
    raise ConstructionError(f"cannot interpret {x!r} as an Operator")


def _as_operator_grid(S) -> np.ndarray:
    if isinstance(S, Operator) or np.isscalar(S):
        S = [[S]]
    if isinstance(S, np.ndarray) and S.dtype == object and S.ndim == 2:
        rows = S.tolist()
    else:
        rows = list(S)
    n = len(rows)
    grid = np.empty((n, n), dtype=object)
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != n:
            raise CompositionError("S must be a square matrix of operators")
        for j, entry in enumerate(row):
            grid[i, j] = _as_operator(entry)
    return grid


def _symmetrized(H: Operator, tol: float) -> Operator:
    """(H + H^dag)/2, but only when the anti-Hermitian residual is small
    at every t (:meth:`Operator.max_abs`).

    A large residual is a formula bug upstream and is never silently
    repaired.
    """
    H_dag = H.dag()
    anti = H - H_dag
    resid = anti.max_abs()
    if not resid <= tol:
        msg = f"Hamiltonian has anti-Hermitian residual {resid:.3e} > {tol:.1e}"
        if Operator(H.space, None, [(c, m) for c, m in anti.terms if _opaque(c)]).max_abs() > tol:
            msg += ("; a coefficient wrapping an opaque callable cannot be shown real:"
                    " scale H by a built-in envelope (gaussian, square, exp_decay, exp_rising)")
        raise CompositionError(msg)
    return (H + H_dag) * 0.5


def _opaque(coeff: Coefficient) -> bool:
    """Whether a factor of ``coeff`` wraps a callable with no serialized form."""
    try:
        coeff.to_dict()
    except ConstructionError:
        return True
    return False


# --------------------------------------------------------------------------
# trivial components


def identity_triple(n: int, space: LabeledSpace | None = None) -> SLHTriple:
    """The padding element: n channels scattered straight through."""
    return permutation_triple(range(1, n + 1), space)


def permutation_matrix(sigma: Sequence[int]) -> np.ndarray:
    """P[j, k] = delta(j, sigma(k)) for a 1-based permutation list.

    ``sigma[k-1]`` is the output port that input port k is routed to, so
    ``P_(sigma2 o sigma1) = P_sigma2 @ P_sigma1``.
    """
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise CompositionError(f"{list(sigma)} is not a permutation of 1..{n}")
    P = np.zeros((n, n))
    for k, target in enumerate(sigma):
        P[target - 1, k] = 1.0
    return P


def permutation_triple(sigma: Sequence[int], space: LabeledSpace | None = None) -> SLHTriple:
    space = space or LabeledSpace()
    P = permutation_matrix(sigma)
    eye, zero_op = identity(space), zero(space)
    n = len(sigma)
    S = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            S[i, j] = eye if P[i, j] else zero_op
    return SLHTriple(S, [zero_op] * n, zero_op)


# --------------------------------------------------------------------------
# composition rules


def _inherit_tol(*gs: SLHTriple) -> float:
    return max([TOL_OP] + [g.check_tol for g in gs])


def series(g2: SLHTriple, g1: SLHTriple) -> SLHTriple:
    """Cascade g1 into g2 (read right to left, like operator products):

        (S2 S1,  L2 + S2 L1,  H1 + H2 + (L2^ S2 L1 - L1^ S2^ L2) / 2i)

    This is the feedback reduction of ``concat(g1, g2)`` with output k of
    g1 wired into input k of g2, so it is computed as exactly that.
    """
    if g1.n_ports != g2.n_ports:
        raise CompositionError(
            f"series needs equal port counts, got {g1.n_ports} and {g2.n_ports}"
        )
    n = g1.n_ports
    wiring = [(k, n + k) for k in range(1, n + 1)]
    return feedback_multi(concat(g1, g2), wiring).triple


def concat(*triples: SLHTriple) -> SLHTriple:
    """Parallel composition of any number of triples: block-diagonal S,
    stacked L, H summed left to right.

    Each operator is lifted once into the union space.  The result is
    valid by construction, so it is not checked: S^dag S - I is block
    diagonal with the operands' residuals as blocks, each within its
    tol <= the inherited one, and a sum of exactly Hermitian (symmetrized)
    H is exactly Hermitian, which symmetrizing again would return bit for
    bit.
    """
    if not triples:
        raise CompositionError("concat needs at least one triple")
    space = union_space(*(g.space for g in triples))
    n = sum(g.n_ports for g in triples)
    S = np.empty((n, n), dtype=object)
    S.fill(zero(space))
    L, offset = [], 0
    for g in triples:
        for i in range(g.n_ports):
            for j in range(g.n_ports):
                S[offset + i, offset + j] = g.S[i, j].embed(space)
        L += [x.embed(space) for x in g.L]
        offset += g.n_ports
    H = sum((g.H.embed(space) for g in triples[1:]), triples[0].H.embed(space))
    return SLHTriple._valid(
        S,
        L,
        H,
        sum((g.input_names for g in triples), ()),
        sum((g.output_names for g in triples), ()),
        None,
        _inherit_tol(*triples),
    )


def direct_couple(g1: SLHTriple, g2: SLHTriple, h_int: Operator) -> SLHTriple:
    """Concatenation with an added interaction Hamiltonian.

    The interaction is attributed to the first operand; both operands
    are recorded in the result metadata since the split is a convention.
    """
    if not h_int.is_hermitian():
        raise CompositionError("direct coupling requires a Hermitian interaction")
    out = concat(g1, g2)
    meta = {"direct_coupling_operands": (g1.input_names, g2.input_names)}
    return SLHTriple(out.S, out.L, out.H + h_int.embed(out.space), out.input_names, out.output_names, meta,
                     tol=out.check_tol)


def pad(g: SLHTriple, n_extra: int, position: str = "after") -> SLHTriple:
    """Concatenate with the trivial n_extra-channel padding element."""
    if n_extra < 0:
        raise CompositionError(f"n_extra must be >= 0, got {n_extra}")
    if n_extra == 0:
        return g
    pad_el = identity_triple(n_extra)
    if position == "after":
        return concat(g, pad_el)
    if position == "before":
        return concat(pad_el, g)
    raise CompositionError(f"position must be 'before' or 'after', got {position!r}")


def permute_ports(g: SLHTriple, sigma: Sequence[int], which: str = "outputs") -> SLHTriple:
    """Reroute ports with a permuting scatterer: port k goes to sigma[k-1].

    ``which`` selects whether the outputs, the inputs, or both sides are
    rerouted; rerouting is a series product with ``(P_sigma, 0, 0)``.
    """
    if len(sigma) != g.n_ports:
        raise CompositionError("permutation length must equal the port count")
    perm = permutation_triple(sigma)
    if which == "outputs":
        out = series(perm, g)
        names = [None] * g.n_ports
        for k, target in enumerate(sigma):
            names[target - 1] = g.output_names[k]
        return out.with_names(output_names=tuple(names))
    if which == "inputs":
        # input k of the result feeds original input sigma[k-1]
        out = series(g, perm)
        names = [g.input_names[s - 1] for s in sigma]
        return out.with_names(input_names=tuple(names))
    if which == "both":
        return permute_ports(permute_ports(g, sigma, "outputs"), sigma, "inputs")
    raise CompositionError(f"which must be 'outputs', 'inputs' or 'both', got {which!r}")


# --------------------------------------------------------------------------
# feedback reduction


def _solve_loop(loop: sp.spmatrix, rhs: sp.spmatrix) -> sp.csr_matrix:
    """X = loop^-1 rhs with loop = I - S_xy, from one sparse LU of the loop.

    The connected components of the loop's sparsity pattern are
    independent blocks of the system.  Only the components that hold a
    nonzero right-hand-side entry are solved; the rows of every other
    component are zero in X, exactly as a solve of the whole loop gives
    them, so a detached loop costs no factorization however large or
    singular it is (block-triangular decomposition, Duff & Reid 1978).

    A nonsingular restricted loop is solved packed (see
    ``_packed_solve``).  A singular one is still acceptable when the
    circulating channel carries nothing, i.e. the right-hand side is
    consistent (minimal-norm solution).  An inconsistent singular loop is
    genuinely ill posed (energy would pile up in an undamped circulating
    mode) and raises.
    """
    from scipy.sparse.csgraph import connected_components

    loop, rhs = sp.csr_matrix(loop), sp.csc_matrix(rhs)
    kd, n = rhs.shape
    # the graph of the stored entries: csgraph casts values to float, which
    # discards the whole value of a purely imaginary coupling
    pattern = sp.csr_matrix((np.ones(loop.indices.size), loop.indices, loop.indptr), shape=loop.shape)
    n_comp, labels = connected_components(pattern, connection="weak")
    touched = np.zeros(n_comp, dtype=bool)
    touched[labels[rhs.indices[rhs.data != 0]]] = True
    keep = np.flatnonzero(touched[labels])
    loop, rhs = loop[keep][:, keep], rhs[keep].tocsc()
    lu, smallest = _factor(loop) if keep.size else (None, np.inf)  # nothing touched: nothing to factor
    if smallest >= LOOP_SINGULARITY_TOL:
        x = _packed_solve(lu, labels[keep], n_comp, rhs)
    else:
        dense_rhs = rhs.toarray()
        dense_loop = loop.toarray()
        dense_x, *_ = np.linalg.lstsq(dense_loop, dense_rhs, rcond=LOOP_SINGULARITY_TOL)
        resid = np.abs(dense_loop @ dense_x - dense_rhs).max()
        scale = 1.0 + np.abs(dense_rhs).max()
        if resid > 1e-10 * scale:
            raise AlgebraicLoopError(
                "ill-posed algebraic loop: (I - S_xy) is singular "
                f"(estimated smallest singular value {smallest:.3e}) and the loop carries signal "
                f"(residual {resid:.3e})"
            )
        x = sp.csr_matrix(dense_x)
    counts = np.zeros(kd, dtype=np.intp)
    counts[keep] = np.diff(x.indptr)
    return sp.csr_matrix((x.data, x.indices, np.concatenate(([0], np.cumsum(counts)))), shape=(kd, n))


def _packed_solve(lu, labels: np.ndarray, n_comp: int, rhs: sp.csc_matrix) -> sp.csr_matrix:
    """``sp.csr_matrix(lu.solve(rhs.toarray()))`` with one dense column per colour.

    ``labels`` gives the connected component of each row of the loop.
    Right-hand-side columns that touch disjoint components share one
    dense column of a single ``lu.solve`` (Curtis-Powell-Reid column
    grouping): each column takes the colour one past the highest colour
    any of its components has used, and its solution is read back from
    the rows of its components.  No value mixes across components and
    the factors never couple them, so the result equals the unpacked
    solve bit for bit while the dense block shrinks from one column per
    right-hand-side column to one per colour: a loop of scalar x
    identity blocks packs its d columns per block into a few, an
    operator-valued S (one component) keeps one column each.
    """
    kd, n = rhs.shape
    rhs.sum_duplicates()  # the scatter below assigns, so each entry must be stored once
    label = labels.tolist()
    rows, ptr = rhs.indices.tolist(), rhs.indptr.tolist()
    used = [0] * n_comp  # colours used so far by each component
    colour, owner_comp, owner_col = [], [], []
    for j in range(n):
        comps = {label[i] for i in rows[ptr[j] : ptr[j + 1]]}
        c = max([used[x] for x in comps], default=0)
        for x in comps:
            used[x] = c + 1
            owner_comp.append(x)
            owner_col.append(j)
        colour.append(c)
    colour = np.array(colour, dtype=np.intp)
    n_colours = max(used, default=0)

    block = np.zeros((kd, n_colours), dtype=np.complex128)
    block[rhs.indices, colour[np.repeat(np.arange(n), np.diff(rhs.indptr))]] = rhs.data
    x = lu.solve(block) if n_colours else block

    # owner[comp, colour]: the column whose solution that component's rows hold in
    # that colour.  A component's colours rise with the column index, so the
    # row-major nonzeros below come out sorted by row, then column.
    owner = np.full((n_comp, n_colours), -1, dtype=np.intp)
    owner[owner_comp, colour[owner_col]] = owner_col
    cols = owner[labels]
    out_rows, out_colours = np.nonzero((cols >= 0) & (x != 0))  # sp.csr_matrix(dense) stores no exact zeros
    indptr = np.concatenate(([0], np.cumsum(np.bincount(out_rows, minlength=kd))))
    return sp.csr_matrix((x[out_rows, out_colours], cols[out_rows, out_colours], indptr), shape=(kd, n))


def feedback_multi(g: SLHTriple, wiring) -> FeedbackResult:
    """Close several output -> input links of one triple simultaneously.

    The eliminated ports are brought into block-contiguous form
    internally, the vector feedback formula is applied once, and the
    survivors are re-packed keeping their relative order.  The result is
    independent of the order in which the links would be closed one by
    one.

    The reduction is linear in L and S is static, so one right-hand side
    ``[L_x | envelope terms of L_x | S_x,ybar]`` (one d-column block each)
    is solved from one sparse LU of ``I - S_xy``; time-dependent couplings
    upstream of a wire thus pass through.  The solve is packed (see
    ``_solve_loop``): columns that touch disjoint connected components of
    the loop share one dense column, so a loop of scalar phases, whose
    ``I - S_xy`` splits into d independent k x k systems, costs a few
    dense columns instead of one per right-hand-side column, with output
    bytes equal to the unpacked solve.  This one general path supersedes
    a separate k x k shortcut for scalar S, which would have moved the
    composed floats by ~1e-15.  The loop is singular when its
    smallest singular value, estimated by inverse iteration through the
    factors, is below ``LOOP_SINGULARITY_TOL``.  A wiring with ``S_xy = 0``
    (every cascade) needs no factorization: the solution is the
    right-hand side itself.
    """
    pairs = wiring.pairs if isinstance(wiring, PortMap) else PortMap.of(wiring).pairs
    PortMap(pairs).validate(g.n_ports)
    if not pairs:
        return FeedbackResult(
            g,
            {k: k for k in range(1, g.n_ports + 1)},
            {k: k for k in range(1, g.n_ports + 1)},
        )

    n, d = g.n_ports, g.space.total_dim
    xs = [a - 1 for a, _ in pairs]  # eliminated output rows (0-based)
    ys = [b - 1 for _, b in pairs]  # eliminated input columns, aligned with xs
    xbar = [i for i in range(n) if i not in set(xs)]
    ybar = [j for j in range(n) if j not in set(ys)]
    k = len(xs)
    m = len(xbar)
    space = g.space

    # (row c, coefficient, matrix) of every envelope term of L_x
    terms = [(c, coeff, mat) for c, i in enumerate(xs) for coeff, mat in g.L[i].terms]
    rhs = sp.bmat(
        [
            [g.L[i].static]
            + [mat if r == c else None for r, _, mat in terms]
            + [g.S[i, j].constant() for j in ybar]
            for c, i in enumerate(xs)
        ],
        format="csr",
    )
    S_xy = sp.bmat([[g.S[i, j].constant() for j in ys] for i in xs])
    if S_xy.count_nonzero():
        sol = _solve_loop(sp.identity(k * d, dtype=np.complex128) - S_xy, rhs)
    else:
        sol = rhs

    def subblock(c, col):
        return sol[c * d : (c + 1) * d, col * d : (col + 1) * d]

    # X_c = block c of (I - S_xy)^-1 L_x, Y_c,b = block (c, b) of (I - S_xy)^-1 S_x,ybar
    X = [
        Operator(space, subblock(c, 0), [(coeff, subblock(c, 1 + t)) for t, (_, coeff, _) in enumerate(terms)])
        for c in range(k)
    ]
    Y =[[Operator(space, subblock(c, 1 + len(terms) + b)) for b in range(m)] for c in range(k)]

    zero_op = zero(space)

    def through(i, blocks):
        """sum_c S_i,y_c blocks[c] over the nonzero S_i,y_c."""
        acc = zero_op
        for c, yc in enumerate(ys):
            if g.S[i, yc].static.nnz:
                acc = acc + g.S[i, yc] * blocks[c]
        return acc

    # S_red = S_xbar,ybar + S_xbar,y (I - S_xy)^-1 S_x,ybar
    S_red = np.empty((m, m), dtype=object)
    for a, i in enumerate(xbar):
        for b, j in enumerate(ybar):
            S_red[a, b] = g.S[i, j] + through(i, [row[b] for row in Y])

    # SX_i = S_i,y (I - S_xy)^-1 L_x, formed once per row for L_red and M
    SX = [through(i, X) for i in range(n)]
    # L_red = L_xbar + S_xbar,y (I - S_xy)^-1 L_x
    L_red = [g.L[i] + SX[i] for i in xbar]
    # H_red = H + (M - M^dag) / 2i with M = L^dag S_:,y (I - S_xy)^-1 L_x
    M = zero_op
    for i in range(n):
        M = M + g.L[i].dag() * SX[i]
    H_red = g.H + (M - M.dag()) * (1.0 / 2.0j)

    out_map = {i + 1: a + 1 for a, i in enumerate(xbar)}
    in_map = {j + 1: b + 1 for b, j in enumerate(ybar)}
    triple = SLHTriple(
        S_red,
        L_red,
        H_red,
        input_names=tuple(g.input_names[j] for j in ybar),
        output_names=tuple(g.output_names[i] for i in xbar),
        tol=_inherit_tol(g),
    )
    return FeedbackResult(triple, out_map, in_map)


def feedback(g: SLHTriple, x: int, y: int) -> FeedbackResult:
    """Close the single internal link: output port x into input port y."""
    if g.n_ports < 2:
        raise CompositionError("feedback needs at least two ports")
    return feedback_multi(g, [(x, y)])


# --------------------------------------------------------------------------
# comparison and serialization


def triples_close(a: SLHTriple, b: SLHTriple, tol: float = TOL_OP) -> bool:
    """Operator-wise equality of two triples on the union of their spaces,
    at every t (:func:`op_close`)."""
    if a.n_ports != b.n_ports:
        return False
    for i in range(a.n_ports):
        if not op_close(a.L[i], b.L[i], tol):
            return False
        for j in range(a.n_ports):
            if not op_close(a.S[i, j], b.S[i, j], tol):
                return False
    return op_close(a.H, b.H, tol)


def triple_to_dict(g: SLHTriple) -> dict:
    n = g.n_ports
    return {
        "schema_version": SCHEMA_VERSION,
        "n_ports": n,
        "input_names": list(g.input_names),
        "output_names": list(g.output_names),
        "space": {"labels": list(g.space.labels), "dims": list(g.space.dims)},
        "S": [[operator_to_dict(g.S[i, j]) for j in range(n)] for i in range(n)],
        "L": [operator_to_dict(x) for x in g.L],
        "H": operator_to_dict(g.H),
    }


def triple_from_dict(data: dict) -> SLHTriple:
    """Inverse of :func:`triple_to_dict`; the triple is checked like any other."""
    n = data["n_ports"]
    S = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            S[i, j] = operator_from_dict(data["S"][i][j])
    L = [operator_from_dict(x) for x in data["L"]]
    H = operator_from_dict(data["H"])
    return SLHTriple(S, L, H, input_names=data["input_names"], output_names=data["output_names"])


def triple_to_json(g: SLHTriple) -> str:
    """``json.dumps(triple_to_dict(g), indent=2)``, byte for byte, with each
    ``"entries"`` list written by the C encoder in one call.

    This is the text ``slhnet compose`` and ``slhnet eliminate`` print.
    :func:`triple_hash` is the sha256 of the compact sorted-key form."""
    return _indent2(triple_to_dict(g), "\n")


def _indent2(value, newline: str) -> str:
    """``json.dumps(value, indent=2)`` for a value made of str-keyed dicts,
    lists and scalars; ``newline`` is a line break plus the indentation of
    the line ``value`` starts on.

    ``indent`` makes :mod:`json` use its pure-Python encoder.  So a
    non-empty list of non-empty rows of ints and floats (every
    ``"entries"`` list) goes through the C encoder in one compact call,
    and two replaces insert the line breaks.  Both encoders print numbers
    with ``int.__repr__`` and ``float.__repr__``."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{json.dumps(k)}: {_indent2(v, inner)}" for k, v in value.items())
        return "{" + ",".join(items) + newline + "}"
    if not isinstance(value, (list, tuple)) or not value:
        return json.dumps(value)
    if (set(map(type, value)) == {list} and all(value)
            and set(map(type, chain.from_iterable(value))) <= {int, float}):
        row = inner + "  "
        flat = json.dumps(value, separators=(",", ":"), check_circular=False)[2:-2]
        flat = flat.replace(",", "," + row).replace(f"],{row}[", f"{inner}],{inner}[{row}")
        return f"[{inner}[{row}{flat}{inner}]{newline}]"
    return "[" + ",".join(inner + _indent2(v, inner) for v in value) + newline + "]"


def triple_from_json(text: str) -> SLHTriple:
    return triple_from_dict(json.loads(text))


def triple_hash(g: SLHTriple) -> str:
    """Stable content hash of the serialized triple."""
    payload = json.dumps(triple_to_dict(g), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
