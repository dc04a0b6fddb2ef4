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
* time dependence is restricted to sums of scalar-envelope x constant
  matrix terms.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConstructionError, SpaceError

#: max-norm tolerance used for all operator equality checks
TOL_OP = 1e-10

#: default top-level population bound for oscillator factors
TRUNC_GUARD = 1e-6

#: default sample times used to validate time-dependent operators
_DEFAULT_SAMPLE_TIMES = (0.0, 0.1, 0.5, 1.0, 3.0, 10.0)


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


def _compose_coeffs(f: Callable | None, g: Callable | None) -> Callable | None:
    if f is None:
        return g
    if g is None:
        return f
    return lambda t, f=f, g=g: f(t) * g(t)


def _conj_coeff(f: Callable | None) -> Callable | None:
    if f is None:
        return None
    return lambda t, f=f: np.conj(f(t))


class Operator:
    """A sparse complex operator on a :class:`LabeledSpace`.

    The value of the operator at time ``t`` is::

        static + sum_k coeff_k(t) * term_k

    where the matrices are fixed and each ``coeff_k`` is a scalar
    function of time.  Operators are immutable; all arithmetic returns
    new instances and auto-embeds the operands into the union of their
    spaces.
    """

    __slots__ = ("space", "static", "terms")

    def __init__(self, space: LabeledSpace, matrix=None, terms=()):
        if matrix is None:
            matrix = sp.csr_matrix((space.total_dim, space.total_dim), dtype=np.complex128)
        matrix = _as_csr(matrix)
        d = space.total_dim
        if matrix.shape != (d, d):
            raise SpaceError(f"matrix shape {matrix.shape} does not match total_dim {d}")
        checked = []
        for coeff, m in terms:
            m = _as_csr(m)
            if m.shape != (d, d):
                raise SpaceError(f"term shape {m.shape} does not match total_dim {d}")
            if not callable(coeff):
                raise ConstructionError("time coefficient must be callable")
            if getattr(coeff, "is_constant", False):
                matrix = _as_csr(matrix + complex(coeff(0.0)) * m)
            else:
                checked.append((coeff, m))
        self.space = space
        self.static = matrix
        self.terms = tuple(checked)

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
        return (self.static if t is None and self.is_static else self.at(t or 0.0)).toarray()

    def max_abs(self, times: Sequence[float] | None = None) -> float:
        """Largest absolute matrix entry (over sample times if time dependent)."""
        if self.is_static:
            data = self.static.data
            return float(np.abs(data).max()) if data.size else 0.0
        times = _DEFAULT_SAMPLE_TIMES if times is None else times
        best = 0.0
        for t in times:
            m = self.at(t)
            if m.data.size:
                best = max(best, float(np.abs(m.data).max()))
        return best

    def is_hermitian(self, tol: float = TOL_OP, times: Sequence[float] | None = None) -> bool:
        return (self - self.dag()).max_abs(times) <= tol

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
        index = _lift_index(self.space.factors, target.factors)
        d = target.total_dim

        def lift(matrix):
            # entry (r, c) of kron(matrix, I) block e lands at (index[r, e], index[c, e])
            coo = matrix.tocoo()
            rows, cols = index[coo.row].ravel(), index[coo.col].ravel()
            return sp.csr_matrix((np.repeat(coo.data, index.shape[1]), (rows, cols)), shape=(d, d))

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
        return Operator(a.space, a.static + b.static, a.terms + b.terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Operator":
        a, b = self._pair(other)
        return a + (-1.0) * b

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
                terms.append((_compose_coeffs(c1, c2), m1 @ m2))
        return Operator(a.space, static, tuple(terms))

    def __rmul__(self, other) -> "Operator":
        if np.isscalar(other):
            return self * other
        raise TypeError(f"cannot combine {type(other).__name__} with Operator")

    def scaled_by(self, coeff: Callable) -> "Operator":
        """Multiply by a scalar function of time."""
        terms = [(coeff, self.static)] if self.static.nnz else []
        for c, m in self.terms:
            terms.append((_compose_coeffs(coeff, c), m))
        return Operator(self.space, None, tuple(terms))

    def dag(self) -> "Operator":
        return Operator(
            self.space,
            self.static.conj().T.tocsr(),
            tuple((_conj_coeff(c), m.conj().T.tocsr()) for c, m in self.terms),
        )

    def simplify(self) -> "Operator":
        """Drop numerically empty time-dependent terms."""
        terms = tuple((c, m) for c, m in self.terms if m.nnz)
        return Operator(self.space, self.static, terms)


def commutator(x: Operator, y: Operator) -> Operator:
    return x * y - y * x


def op_close(
    x: Operator,
    y: Operator,
    tol: float = TOL_OP,
    times: Sequence[float] | None = None,
) -> bool:
    """Max-norm equality of two operators, sampled in time if needed."""
    return (x - y).max_abs(times) <= tol


@functools.lru_cache
def _lift_index(small: tuple, target: tuple) -> np.ndarray:
    """Where each index of ``kron(M, I_missing)`` sits in the target layout.

    ``kron`` lays indices out as (small factors..., missing factors...);
    row ``r`` of the result holds the ``target`` index of composite index
    ``(r, e)`` for each index ``e`` of the missing factors.  ``target``
    orders its factors lexicographically.  The array is cached, hence
    read-only.
    """
    labels = [lbl for lbl, _ in target]
    small_labels = [lbl for lbl, _ in small]
    combined = small_labels + [lbl for lbl in labels if lbl not in small_labels]
    dims = [dim for _, dim in target]
    layout = np.arange(math.prod(dims)).reshape(dims)
    axes = [labels.index(lbl) for lbl in combined]
    index = layout.transpose(axes).reshape(math.prod(dim for _, dim in small), -1)
    index.flags.writeable = False
    return index


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


def top_level_populations(rho: Operator) -> dict[str, float]:
    """Population of the highest Fock level of each oscillator factor."""
    return _top_populations(rho.constant().diagonal(), rho.space)


def trace(op: Operator, t: float | None = None) -> complex:
    m = op.static if (t is None and op.is_static) else op.at(t or 0.0)
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


def operator_to_dict(op: Operator) -> dict:
    """JSON-ready sparse-triplet form; static part plus named envelope terms."""
    coo = op.static.tocoo()
    order = np.lexsort((coo.col, coo.row))
    entries = [
        [int(coo.row[k]), int(coo.col[k]), float(coo.data[k].real), float(coo.data[k].imag)]
        for k in order
    ]
    out = {
        "labels": list(op.space.labels),
        "dims": list(op.space.dims),
        "entries": entries,
    }
    if op.terms:
        terms = []
        for coeff, m in op.terms:
            desc = getattr(coeff, "to_dict", None)
            if desc is None:
                raise ConstructionError(
                    "cannot serialize a time-dependent operator with an opaque coefficient"
                )
            mc = m.tocoo()
            morder = np.lexsort((mc.col, mc.row))
            terms.append(
                {
                    "coefficient": desc(),
                    "entries": [
                        [int(mc.row[k]), int(mc.col[k]), float(mc.data[k].real), float(mc.data[k].imag)]
                        for k in morder
                    ],
                }
            )
        out["terms"] = terms
    return out


def operator_from_dict(data: dict) -> Operator:
    space = LabeledSpace(zip(data["labels"], data["dims"]))
    d = space.total_dim
    rows, cols, vals = [], [], []
    for r, c, re, im in data["entries"]:
        rows.append(r)
        cols.append(c)
        vals.append(complex(re, im))
    static = sp.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=np.complex128)
    terms = []
    for term in data.get("terms", ()):
        from .envelopes import envelope_from_dict

        coeff = envelope_from_dict(term["coefficient"])
        rows, cols, vals = [], [], []
        for r, c, re, im in term["entries"]:
            rows.append(r)
            cols.append(c)
            vals.append(complex(re, im))
        m = sp.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=np.complex128)
        terms.append((coeff, m))
    return Operator(space, static, tuple(terms))


def operator_to_json(op: Operator, **kwargs) -> str:
    return json.dumps(operator_to_dict(op), **kwargs)


def operator_from_json(text: str) -> Operator:
    return operator_from_dict(json.loads(text))
