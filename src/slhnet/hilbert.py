"""Labeled tensor-product spaces and sparse operators on them.

Every quantum degree of freedom lives on a named factor of a
:class:`LabeledSpace`.  Operators carry their space with them and are
automatically embedded (padded with identities) when combined, so client
code can write ``a1 * a2.dag()`` without tracking tensor layouts.

Conventions:

* factors of a space are always kept sorted lexicographically by label,
  which fixes a deterministic matrix layout;
* qubit factors use basis index 0 for the ground state and 1 for the
  excited state, so ``sigma_minus`` has its single entry at (0, 1);
* time dependence is restricted to sums of coefficient x constant
  matrix terms, each :class:`Coefficient` a product of (possibly
  conjugated) envelopes; terms with equal coefficients are merged into
  one, so an operator holds one term per distinct product.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    import scipy.sparse.linalg as spla

from .errors import ConstructionError, SpaceError

#: max-norm tolerance used for all operator equality checks
TOL_OP = 1e-10

#: default top-level population bound for oscillator factors
TRUNC_GUARD = 1e-6


# --------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class LabeledSpace:
    """An ordered tensor product of named finite-dimensional factors.

    ``factors`` is a tuple of ``(label, dim)`` pairs, sorted by label.
    The trivial space (no factors, total dimension 1) hosts scalar
    components such as beamsplitters and phase shifters.
    """

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]] = ()):
        factors = tuple((str(lbl), int(dim)) for lbl, dim in factors)
        labels = [lbl for lbl, _ in factors]
        if len(set(labels)) != len(labels):
            raise SpaceError(f"duplicate factor labels in {labels}")
        for lbl, dim in factors:
            if dim < 1:
                raise SpaceError(f"factor {lbl!r} has dim {dim} < 1")
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, dim in self.factors:
            out *= dim
        return out

    def dim_of(self, label: str) -> int:
        for lbl, dim in self.factors:
            if lbl == label:
                return dim
        raise SpaceError(f"no factor labeled {label!r} in {self.labels}")

    def union(self, other: "LabeledSpace") -> "LabeledSpace":
        """Smallest space containing the factors of both operands."""
        merged = dict(self.factors)
        for lbl, dim in other.factors:
            if lbl in merged and merged[lbl] != dim:
                raise SpaceError(
                    f"factor {lbl!r} has dim {merged[lbl]} on one side and {dim} on the other"
                )
            merged[lbl] = dim
        return LabeledSpace(merged.items())

    def __repr__(self):
        inner = ", ".join(f"{lbl}:{dim}" for lbl, dim in self.factors)
        return f"LabeledSpace({inner})" if inner else "LabeledSpace(<scalar>)"


TRIVIAL_SPACE = LabeledSpace()


def union_space(*spaces: LabeledSpace) -> LabeledSpace:
    out = TRIVIAL_SPACE
    for s in spaces:
        out = out.union(s)
    return out


# --------------------------------------------------------------------------
# operators


def _as_csr(matrix) -> sp.csr_matrix:
    """Complex128 CSR without explicit zeros; such a matrix is returned as is.

    Operators share their matrices: nothing may change one in place.
    """
    if isinstance(matrix, sp.csr_matrix) and matrix.dtype == np.complex128 and matrix.data.all():
        return matrix
    m = sp.csr_matrix(matrix, dtype=np.complex128)
    m.eliminate_zeros()
    return m


class Coefficient:
    """A time coefficient: the product of envelope factors f(t), each
    possibly conjugated.

    ``factors`` holds ``(f, conj)`` pairs in first-appearance order.
    Equality and hash are those of the multiset of pairs (envelopes by
    value, other callables by identity), so ``xi * conj(xi)`` equals
    ``conj(xi) * xi`` and terms sharing a coefficient merge.  ``xi`` and
    ``conj(xi)`` stay distinct even for a real ``xi``; only
    :meth:`function` identifies them.  The empty product is 1.
    """

    __slots__ = ("factors", "_key")

    def __init__(self, factors: Iterable[tuple[Callable, bool]] = ()):
        self.factors = tuple(factors)
        self._key = frozenset(Counter(self.factors).items())

    def __call__(self, t: float):
        out = 1.0  # the empty product, the coefficient of a static part
        for f, conj in self.factors:
            out = out * (np.conj(f(t)) if conj else f(t))
        return out

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.factors + other.factors)

    def conj(self) -> "Coefficient":
        return Coefficient((f, not conj) for f, conj in self.factors)

    def function(self) -> frozenset:
        """The factor multiset with each conjugated factor replaced by the
        envelope equal to its conjugate, where one is known (a real
        envelope itself, ``conj(z f)`` as ``conj(z) f`` for a real ``f``):
        equal for coefficients that are the same function of time by
        construction."""
        def plain(f, conj):
            g = getattr(f, "conjugate", lambda: None)() if conj else None
            return (f, conj) if g is None else (g, False)

        return frozenset(Counter(plain(f, conj) for f, conj in self.factors).items())

    def __eq__(self, other):
        return isinstance(other, Coefficient) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def to_dict(self) -> dict:
        """A single unconjugated envelope serializes as itself, anything else
        as ``{"shape": "product", "factors": [{"envelope": ..., "conj": ...}]}``."""
        if any(getattr(f, "to_dict", None) is None for f, _ in self.factors):
            raise ConstructionError("cannot serialize a time-dependent operator with an opaque coefficient")
        if len(self.factors) == 1 and not self.factors[0][1]:
            return self.factors[0][0].to_dict()
        return {"shape": "product", "factors": [{"envelope": f.to_dict(), "conj": conj} for f, conj in self.factors]}

    @staticmethod
    def from_dict(data: dict) -> "Coefficient":
        """Inverse of :meth:`to_dict`."""
        from .envelopes import envelope_from_dict

        if data.get("shape") != "product":
            return Coefficient([(envelope_from_dict(data), False)])
        return Coefficient((envelope_from_dict(f["envelope"]), bool(f["conj"])) for f in data["factors"])


def _as_coefficient(coeff) -> Coefficient:
    """A coefficient as is; an envelope or other callable as its one factor."""
    if isinstance(coeff, Coefficient):
        return coeff
    if not callable(coeff):
        raise ConstructionError("time coefficient must be callable")
    return Coefficient([(coeff, False)])


def _canonical_terms(static: sp.csr_matrix, terms) -> tuple[sp.csr_matrix, tuple]:
    """``(static, terms)`` with every coefficient a :class:`Coefficient`,
    constant factors folded into the matrices, terms with equal
    coefficients merged (first appearance sets the order) and all-zero
    matrices dropped.  Operators and superoperators share it."""
    merged = {}
    for coeff, m in terms:
        coeff = _as_coefficient(coeff)
        m = _as_csr(m)
        if m.shape != static.shape:
            raise SpaceError(f"term shape {m.shape} does not match {static.shape}")
        constant = [p for p in coeff.factors if getattr(p[0], "is_constant", False)]
        if constant:
            for f, conj in constant:
                m = _as_csr(complex(np.conj(f(0.0)) if conj else f(0.0)) * m)
            coeff = Coefficient(p for p in coeff.factors if p not in constant)
        if not coeff.factors:
            static = _as_csr(static + m) if static.nnz else m
        else:
            merged[coeff] = merged[coeff] + m if coeff in merged else m
    return static, tuple((c, m) for c, m in ((c, _as_csr(m)) for c, m in merged.items()) if m.nnz)


class Operator:
    """A sparse complex operator on a :class:`LabeledSpace`.

    The value of the operator at time ``t`` is::

        static + sum_k coeff_k(t) * term_k

    where the matrices are fixed and the ``coeff_k`` are distinct
    :class:`Coefficient` products (a bare envelope or callable becomes a
    one-factor product).  Operators are immutable; all arithmetic
    returns new instances and auto-embeds the operands into the union of
    their spaces.
    """

    __slots__ = ("space", "static", "terms")

    def __init__(self, space: LabeledSpace, matrix=None, terms=()):
        if matrix is None:
            matrix = sp.csr_matrix((space.total_dim, space.total_dim), dtype=np.complex128)
        matrix = _as_csr(matrix)
        d = space.total_dim
        if matrix.shape != (d, d):
            raise SpaceError(f"matrix shape {matrix.shape} does not match total_dim {d}")
        self.space = space
        self.static, self.terms = _canonical_terms(matrix, terms) if terms else (matrix, ())

    # -- inspection --------------------------------------------------------

    @property
    def is_static(self) -> bool:
        return not self.terms

    def at(self, t: float) -> sp.csr_matrix:
        """Materialize the matrix at time ``t``."""
        if self.is_static:
            return self.static
        out = self.static.copy()
        for coeff, m in self.terms:
            out = out + complex(coeff(t)) * m
        return _as_csr(out)

    def constant(self) -> sp.csr_matrix:
        if not self.is_static:
            raise ConstructionError("operator is time dependent; use .at(t)")
        return self.static

    def toarray(self, t: float | None = None) -> np.ndarray:
        return (self.constant() if t is None else self.at(t)).toarray()

    def max_abs(self) -> float:
        """Largest absolute entry of the static matrix and of each term
        matrix, after summing the terms whose coefficients are the same
        function (:meth:`Coefficient.function`).  Zero means the operator
        vanishes at every t.  Distinct products that happen to be
        dependent (a square pulse and its square) are not summed."""
        groups = {}
        for c, m in self.terms:
            key = c.function()
            groups[key] = groups[key] + m if key in groups else m
        return max((float(np.abs(m.data).max()) for m in (self.static, *groups.values()) if m.data.size), default=0.0)

    def is_hermitian(self, tol: float = TOL_OP) -> bool:
        """Hermitian at every t, decided by :meth:`max_abs` of H - H^dag."""
        return (self - self.dag()).max_abs() <= tol

    # -- algebra -----------------------------------------------------------

    def embed(self, target: LabeledSpace) -> "Operator":
        """Pad with identities so the operator acts on ``target``.

        Every factor of the current space must appear in ``target`` with
        the same dimension.
        """
        if target.factors == self.space.factors:
            return self
        for lbl, dim in self.space.factors:
            try:
                tdim = target.dim_of(lbl)
            except SpaceError as exc:
                raise SpaceError(f"embedding failed: {exc}") from exc
            if tdim != dim:
                raise SpaceError(
                    f"embedding failed: factor {lbl!r} has dim {dim}, target has {tdim}"
                )
        index, source_row, extra = _lift_index(self.space.factors, target.factors)
        d = target.total_dim

        def lift(matrix):
            # entry (r, c) of kron(matrix, I) block e lands at (index[r, e], index[c, e]):
            # target row t copies row source_row[t], its columns sent through
            # index[:, extra[t]], which keeps sorted columns sorted
            if not matrix.has_canonical_format:
                matrix = matrix.copy()
                matrix.sum_duplicates()
            counts = np.diff(matrix.indptr)[source_row]
            indptr = np.zeros(d + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            src = np.arange(indptr[-1]) + np.repeat(matrix.indptr[source_row] - indptr[:-1], counts)
            cols = index[matrix.indices[src], np.repeat(extra, counts)]
            idx = np.int32 if max(indptr[-1], d) <= np.iinfo(np.int32).max else np.int64
            return sp.csr_matrix((matrix.data[src], cols.astype(idx), indptr.astype(idx)), shape=(d, d))

        return Operator(
            target,
            lift(self.static),
            tuple((c, lift(m)) for c, m in self.terms),
        )

    def _pair(self, other) -> tuple["Operator", "Operator"]:
        if np.isscalar(other):
            other = Operator(
                self.space, other * sp.identity(self.space.total_dim, dtype=np.complex128)
            )
        if not isinstance(other, Operator):
            raise TypeError(f"cannot combine Operator with {type(other).__name__}")
        target = self.space.union(other.space)
        return self.embed(target), other.embed(target)

    def __add__(self, other) -> "Operator":
        a, b = self._pair(other)
        if not (b.static.nnz or b.terms):
            return a
        if not (a.static.nnz or a.terms):
            return b
        return Operator(a.space, a.static + b.static, a.terms + b.terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Operator":
        a, b = self._pair(other)
        return Operator(a.space, a.static - b.static, a.terms + tuple((c, -m) for c, m in b.terms))

    def __rsub__(self, other) -> "Operator":
        return (-1.0) * self + other

    def __neg__(self) -> "Operator":
        return (-1.0) * self

    def __mul__(self, other) -> "Operator":
        if np.isscalar(other):
            z = complex(other)
            return Operator(
                self.space, z * self.static, tuple((c, z * m) for c, m in self.terms)
            )
        a, b = self._pair(other)
        static = a.static @ b.static
        terms = []
        for c, m in a.terms:
            terms.append((c, m @ b.static))
        for c, m in b.terms:
            terms.append((c, a.static @ m))
        for c1, m1 in a.terms:
            for c2, m2 in b.terms:
                terms.append((c1 * c2, m1 @ m2))
        return Operator(a.space, static, tuple(terms))

    def __rmul__(self, other) -> "Operator":
        if np.isscalar(other):
            return self * other
        raise TypeError(f"cannot combine {type(other).__name__} with Operator")

    def scaled_by(self, coeff: Callable) -> "Operator":
        """Multiply by a scalar function of time."""
        coeff = _as_coefficient(coeff)
        return Operator(self.space, None, [(coeff, self.static)] + [(coeff * c, m) for c, m in self.terms])

    def dag(self) -> "Operator":
        return Operator(
            self.space,
            self.static.conj().T.tocsr(),
            tuple((c.conj(), m.conj().T.tocsr()) for c, m in self.terms),
        )


def commutator(x: Operator, y: Operator) -> Operator:
    return x * y - y * x


def op_close(x: Operator, y: Operator, tol: float = TOL_OP) -> bool:
    """Max-norm equality of two operators at every t (see :meth:`Operator.max_abs`)."""
    return (x - y).max_abs() <= tol


@functools.lru_cache
def _lift_index(small: tuple, target: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each index of ``kron(M, I_missing)`` sits in the target layout,
    and its inverse.

    ``kron`` lays indices out as (small factors..., missing factors...);
    row ``r`` of ``index`` holds the ``target`` index of composite index
    ``(r, e)`` for each index ``e`` of the missing factors.  ``target``
    orders its factors lexicographically, so ``index[:, e]`` is increasing.
    The inverse gives the ``r`` and the ``e`` of every target index.  The
    arrays are cached, hence read-only.
    """
    labels = [lbl for lbl, _ in target]
    small_labels = [lbl for lbl, _ in small]
    combined = small_labels + [lbl for lbl in labels if lbl not in small_labels]
    dims = [dim for _, dim in target]
    layout = np.arange(math.prod(dims)).reshape(dims)
    axes = [labels.index(lbl) for lbl in combined]
    index = layout.transpose(axes).reshape(math.prod(dim for _, dim in small), -1)
    inverse = np.empty(index.size, dtype=index.dtype)
    inverse[index.ravel()] = np.arange(index.size)
    arrays = (index, *np.divmod(inverse, index.shape[1]))
    for a in arrays:
        a.flags.writeable = False
    return arrays


# --------------------------------------------------------------------------
# elementary constructors


def _annihilation_matrix(dim: int) -> sp.csr_matrix:
    return _as_csr(np.diag(np.sqrt(np.arange(1, dim)), k=1))


def make_elementary(kind: str, label: str, dim: int, i: int | None = None, j: int | None = None) -> Operator:
    """Standard single-factor operators.

    ``kind`` is one of ``annihilation, creation, number, pauli_x, pauli_y,
    pauli_z, sigma_minus, sigma_plus, projector, identity``.  Projectors
    take the extra indices ``i, j`` and build ``|i><j|``.

    The qubit basis is ordered (ground, excited); ``sigma_z`` as used by
    the component catalog is ``2 sigma_plus sigma_minus - 1`` (excited
    level has eigenvalue +1), which is the negative of the textbook
    ``pauli_z`` matrix in this ordering.
    """
    if kind != "identity" and dim < 2:
        raise ConstructionError(f"{kind} needs dim >= 2, got {dim}")
    if dim < 1:
        raise ConstructionError(f"dim must be >= 1, got {dim}")
    space = LabeledSpace([(label, dim)])
    if kind == "identity":
        m = sp.identity(dim, dtype=np.complex128, format="csr")
    elif kind == "annihilation":
        m = _annihilation_matrix(dim)
    elif kind == "creation":
        m = _annihilation_matrix(dim).conj().T.tocsr()
    elif kind == "number":
        m = _as_csr(np.diag(np.arange(dim, dtype=float)))
    elif kind in ("pauli_x", "pauli_y", "pauli_z", "sigma_minus", "sigma_plus"):
        if dim != 2:
            raise ConstructionError(f"{kind} requires dim == 2, got {dim}")
        m = _as_csr(
            {
                "pauli_x": [[0, 1], [1, 0]],
                "pauli_y": [[0, -1j], [1j, 0]],
                "pauli_z": [[1, 0], [0, -1]],
                "sigma_minus": [[0, 1], [0, 0]],
                "sigma_plus": [[0, 0], [1, 0]],
            }[kind]
        )
    elif kind == "projector":
        if i is None or j is None:
            raise ConstructionError("projector requires indices i and j")
        if not (0 <= i < dim and 0 <= j < dim):
            raise ConstructionError(f"projector indices ({i},{j}) out of range for dim {dim}")
        m = sp.csr_matrix(([1.0 + 0j], ([i], [j])), shape=(dim, dim))
    else:
        raise ConstructionError(f"unknown elementary kind {kind!r}")
    return Operator(space, m)


def destroy(label: str, dim: int) -> Operator:
    return make_elementary("annihilation", label, dim)


def create(label: str, dim: int) -> Operator:
    return make_elementary("creation", label, dim)


def number(label: str, dim: int) -> Operator:
    return make_elementary("number", label, dim)


def sigma_minus(label: str) -> Operator:
    return make_elementary("sigma_minus", label, 2)


def sigma_plus(label: str) -> Operator:
    return make_elementary("sigma_plus", label, 2)


def sigma_z(label: str) -> Operator:
    """Atomic inversion operator, +1 on the excited level."""
    return make_elementary("projector", label, 2, 1, 1) - make_elementary("projector", label, 2, 0, 0)


def identity(space: LabeledSpace) -> Operator:
    return Operator(space, sp.identity(space.total_dim, dtype=np.complex128, format="csr"))


def zero(space: LabeledSpace) -> Operator:
    return Operator(space)


def scalar(value: complex, space: LabeledSpace = TRIVIAL_SPACE) -> Operator:
    return identity(space) * value


# --------------------------------------------------------------------------
# states


def basis_vector(space: LabeledSpace, occupation: Mapping[str, int]) -> np.ndarray:
    """Product basis ket |n_1, n_2, ...> as a dense column vector."""
    unknown = set(occupation) - set(space.labels)
    if unknown:
        raise SpaceError(f"unknown labels in occupation: {sorted(unknown)}")
    idx = 0
    for lbl, dim in space.factors:
        n = int(occupation.get(lbl, 0))
        if not 0 <= n < dim:
            raise ConstructionError(f"occupation {n} out of range for factor {lbl!r} (dim {dim})")
        idx = idx * dim + n
    vec = np.zeros(space.total_dim, dtype=np.complex128)
    vec[idx] = 1.0
    return vec


def coherent_vector(dim: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state |alpha>, renormalized on the truncation."""
    n = np.arange(dim)
    from scipy.special import gammaln

    log_fact = gammaln(n + 1.0)
    amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact) if alpha != 0 else np.eye(dim)[0].astype(complex)
    if alpha != 0:
        amps = amps * np.exp(-0.5 * abs(alpha) ** 2)
    amps = amps / np.linalg.norm(amps)
    return amps.astype(np.complex128)


def density_from_vector(space: LabeledSpace, vec: np.ndarray) -> Operator:
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if vec.size != space.total_dim:
        raise SpaceError(f"vector length {vec.size} does not match total_dim {space.total_dim}")
    return Operator(space, np.outer(vec, vec.conj()))


def product_density(space: LabeledSpace, factor_states: Mapping[str, np.ndarray]) -> Operator:
    """Tensor product of per-factor pure states (vacuum for omitted factors)."""
    vec = np.array([1.0 + 0j])
    for lbl, dim in space.factors:
        if lbl in factor_states:
            v = np.asarray(factor_states[lbl], dtype=np.complex128).reshape(-1)
            if v.size != dim:
                raise SpaceError(f"state for {lbl!r} has length {v.size}, factor dim is {dim}")
        else:
            v = np.zeros(dim, dtype=np.complex128)
            v[0] = 1.0
        vec = np.kron(vec, v)
    return density_from_vector(space, vec)


# --------------------------------------------------------------------------
# partial trace and diagnostics


def partial_trace(rho: Operator, keep: Iterable[str]) -> Operator:
    """Trace out every factor not in ``keep``; preserves the total trace."""
    keep = set(keep)
    unknown = keep - set(rho.space.labels)
    if unknown:
        raise SpaceError(f"unknown labels in keep: {sorted(unknown)}")
    if not rho.is_static:
        raise ConstructionError("partial_trace expects a static operator")
    if keep == set(rho.space.labels):
        return rho
    dims = rho.space.dims
    k = len(dims)
    dense = rho.static.toarray().reshape(dims + dims)
    traced_axes = [i for i, lbl in enumerate(rho.space.labels) if lbl not in keep]
    for offset, ax in enumerate(traced_axes):
        a = ax - offset
        dense = np.trace(dense, axis1=a, axis2=a + k - offset)
        # numpy.trace moves the remaining axes up; row/col pairing is kept
        # because we always remove one row axis and its matching col axis.
    kept_factors = [(lbl, d) for lbl, d in rho.space.factors if lbl in keep]
    new_space = LabeledSpace(kept_factors)
    d = new_space.total_dim
    return Operator(new_space, dense.reshape(d, d))


def _top_populations(diag: np.ndarray, space: LabeledSpace) -> dict[str, float]:
    """Population of the highest level of each factor with more than two
    levels, read off the diagonal of a density matrix on ``space``."""
    p = np.real(diag).reshape(space.dims)
    return {
        lbl: float(np.take(p, dim - 1, axis=axis).sum())
        for axis, (lbl, dim) in enumerate(space.factors)
        if dim > 2
    }


def trace(op: Operator, t: float | None = None) -> complex:
    m = op.constant() if t is None else op.at(t)
    return complex(m.diagonal().sum())


# --------------------------------------------------------------------------
# sparse factorization

#: inverse-iteration steps behind the smallest-singular-value estimate
_FACTOR_STEPS = 3


def _factor(A) -> tuple[spla.SuperLU | None, float]:
    """Sparse LU of ``A`` and an upper-bound estimate of its smallest singular value.

    The estimate takes ``_FACTOR_STEPS`` inverse-iteration steps on
    ``(A A^dag)^-1`` through the factors from a fixed-seed random start; an
    all-ones start can be orthogonal to the null vector (as for
    ``I + [[0, 1], [1, 0]]``) and miss it.  An exactly singular or
    overflowing factorization gives ``(None, 0.0)``.
    """
    import scipy.sparse.linalg as spla  # deferred: only a closed loop needs it

    A = sp.csc_matrix(A, dtype=np.complex128)
    try:
        lu = spla.splu(A)
    except RuntimeError:  # "Factor is exactly singular"
        return None, 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(_FACTOR_STEPS):
        w = lu.solve(lu.solve(v), trans="H")
        growth = np.linalg.norm(w)
        if not np.isfinite(growth) or growth == 0.0:
            return None, 0.0
        v = w / growth
    return lu, float(1.0 / np.sqrt(growth))


# --------------------------------------------------------------------------
# serialization (sparse-triplet JSON form)


def _entries(m: sp.csr_matrix) -> list:
    """``[row, col, re, im]`` of every stored entry, in row-major order; a
    zero part is written as ``0.0`` whatever its sign, so equal operators
    serialize to equal bytes."""
    c = m.tocoo()
    k = np.lexsort((c.col, c.row))
    return list(map(list, zip(c.row[k].tolist(), c.col[k].tolist(),
                              (c.data.real[k] + 0.0).tolist(), (c.data.imag[k] + 0.0).tolist())))


def _from_entries(entries, d: int) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for r, c, re, im in entries:
        rows.append(r)
        cols.append(c)
        vals.append(complex(re, im))
    return sp.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=np.complex128)


def operator_to_dict(op: Operator) -> dict:
    """JSON-ready sparse-triplet form; static part plus one term per coefficient
    (see :meth:`Coefficient.to_dict`)."""
    out = {"labels": list(op.space.labels), "dims": list(op.space.dims), "entries": _entries(op.static)}
    if op.terms:
        out["terms"] = [{"coefficient": c.to_dict(), "entries": _entries(m)} for c, m in op.terms]
    return out


def operator_from_dict(data: dict) -> Operator:
    """Inverse of :func:`operator_to_dict`."""
    space = LabeledSpace(zip(data["labels"], data["dims"]))
    d = space.total_dim
    terms = [(Coefficient.from_dict(t["coefficient"]), _from_entries(t["entries"], d))
             for t in data.get("terms", ())]
    return Operator(space, _from_entries(data["entries"], d), terms)


def operator_to_json(op: Operator) -> str:
    return json.dumps(operator_to_dict(op))


def operator_from_json(text: str) -> Operator:
    return operator_from_dict(json.loads(text))
