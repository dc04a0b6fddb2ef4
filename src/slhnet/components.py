"""Parameterized SLH component factory.

``CATALOG`` maps each component kind to its builder and port count;
``instantiate(kind, **params)`` builds the triple, and the parameter
names are the builder's signature.  Rates are angular (s^-1), detunings
rad/s, reflectivities and phases dimensionless.

Mode labels: a single-mode component uses its ``label`` parameter as the
factor label; multi-factor components append a role suffix, e.g.
``name.mode`` and ``name.qubit`` for an atom-cavity system.
"""

from __future__ import annotations

import cmath
import inspect
import math
from typing import Callable

import numpy as np

from .envelopes import Envelope, ScaledEnvelope, SourceCoupling, as_envelope
from .errors import ValidationError
from .hilbert import (
    LabeledSpace,
    Operator,
    destroy,
    identity,
    make_elementary,
    scalar,
    sigma_minus,
    sigma_plus,
    sigma_z,
    zero,
)
from .slh import SLHTriple, concat, permutation_triple, series

#: default oscillator truncation dimension
DEFAULT_TRUNC = 8

#: tolerance for scattering-coefficient constraints (|t|^2+|r|^2+|b|^2 = 1 ...)
COEFF_TOL = 1e-10


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _nonneg(value, name: str) -> float:
    value = float(value)
    _require(0.0 <= value < math.inf, f"{name} must be finite and >= 0, violated: {name} = {value}")
    return value


# --------------------------------------------------------------------------
# static scatterers


def phase_shifter(phi: float) -> SLHTriple:
    """Single channel scattered with phase e^{i phi}."""
    return SLHTriple(scalar(cmath.exp(1j * float(phi))), [0.0], 0.0)


def beamsplitter(
    theta: float | None = None,
    eta: float | None = None,
    convention: str = "rotation",
    entries=None,
) -> SLHTriple:
    """Two-port static scatterer (reflected fields are the output pairs).

    ``rotation`` convention gives [[c, -s], [s, c]] and ``reflection``
    gives [[-c, s], [s, c]] with s = eta = sin(theta); alternatively pass
    the four ``entries`` explicitly (validated for unitarity).
    """
    if entries is not None:
        M = np.array(entries, dtype=complex)
        _require(M.shape == (2, 2), "beamsplitter entries must be a 2x2 matrix")
        resid = np.abs(M.conj().T @ M - np.eye(2)).max()
        _require(resid <= COEFF_TOL, f"beamsplitter entries not unitary, violated: |S^ S - I| = {resid:.2e} <= {COEFF_TOL}")
    else:
        if (theta is None) == (eta is None):
            raise ValidationError("give exactly one of theta or eta")
        if eta is not None:
            eta = float(eta)
            _require(abs(eta) <= 1.0, f"|eta| <= 1 violated: eta = {eta}")
            s = eta
            c = math.sqrt(1.0 - eta * eta)
        else:
            s, c = math.sin(float(theta)), math.cos(float(theta))
        if convention == "rotation":
            M = np.array([[c, -s], [s, c]], dtype=complex)
        elif convention == "reflection":
            M = np.array([[-c, s], [s, c]], dtype=complex)
        else:
            raise ValidationError(f"unknown beamsplitter convention {convention!r}")
    S = [[scalar(M[0, 0]), scalar(M[0, 1])], [scalar(M[1, 0]), scalar(M[1, 1])]]
    return SLHTriple(S, [0.0, 0.0], 0.0)


def loss_beamsplitter(loss: float) -> SLHTriple:
    """Fictitious beamsplitter tapping a fraction ``loss`` of the power
    into an unmonitored vacuum port (port 2)."""
    loss = float(loss)
    _require(0.0 <= loss <= 1.0, f"0 <= loss <= 1 violated: loss = {loss}")
    return beamsplitter(eta=math.sqrt(loss))


def circulator_ideal() -> SLHTriple:
    """Lossless three-port circulator: 1 -> 2 -> 3 -> 1."""
    return permutation_triple([2, 3, 1])


def circulator_nonideal(r: complex, b: complex, t: complex) -> SLHTriple:
    """Symmetric but imperfect circulator with reflection r, isolation
    error b and transmission t.

    The circulant scattering matrix [[r, b, t], [t, r, b], [b, t, r]] is
    unitary iff |t|^2+|r|^2+|b|^2 = 1 and r t* + t b* + b r* = 0; both
    are enforced.  ``circulant_coefficients`` generates valid triples
    from three eigenphases.
    """
    r, b, t = complex(r), complex(b), complex(t)
    power = abs(t) ** 2 + abs(r) ** 2 + abs(b) ** 2
    _require(abs(power - 1.0) <= COEFF_TOL,
             f"|t|^2+|r|^2+|b|^2 = 1 violated: got {power:.12g}")
    cross = r * t.conjugate() + t * b.conjugate() + b * r.conjugate()
    _require(abs(cross) <= COEFF_TOL,
             f"r t* + t b* + b r* = 0 violated: got {cross:.3e}")
    M = np.array([[r, b, t], [t, r, b], [b, t, r]], dtype=complex)
    S = [[scalar(M[i, j]) for j in range(3)] for i in range(3)]
    return SLHTriple(S, [0.0, 0.0, 0.0], 0.0)


def circulant_coefficients(phi0: float, phi1: float, phi2: float) -> tuple[complex, complex, complex]:
    """(r, b, t) from the three unimodular circulant eigenvalues."""
    lam = [cmath.exp(1j * p) for p in (phi0, phi1, phi2)]
    w = cmath.exp(2j * math.pi / 3)
    r = sum(lam) / 3
    b = sum(l * w ** (-k) for k, l in enumerate(lam)) / 3
    t = sum(l * w ** (-2 * k) for k, l in enumerate(lam)) / 3
    return r, b, t


def circulator_finite_bw(
    gamma: float,
    t: float | None = None,
    phi: float = -math.pi / 2,
    delta_cav: float = 0.0,
    truncation: int = 3,
    label: str = "circ",
) -> SLHTriple:
    """Finite-bandwidth circulator: three cavities coupled in a ring.

    One ring link carries the synthetic flux phase e^{i phi}; with
    t = gamma/2 and phi = -pi/2 an on-resonance probe is routed exactly
    as by the ideal circulator, and the bandwidth grows with gamma.
    """
    gamma = _nonneg(gamma, "gamma")
    t = gamma / 2.0 if t is None else float(t)
    bs = [destroy(f"{label}.mode{i+1}", truncation) for i in range(3)]
    H = zero(LabeledSpace())
    for i, bi in enumerate(bs):
        H = H + float(delta_cav) * bi.dag() * bi
    hop = bs[0].dag() * bs[2] + cmath.exp(1j * phi) * (bs[1].dag() * bs[0]) + bs[2].dag() * bs[1]
    H = H + t * hop + t * hop.dag()
    L = [math.sqrt(gamma) * b for b in bs]
    return SLHTriple([[1 if i == j else 0 for j in range(3)] for i in range(3)], L, H)


# --------------------------------------------------------------------------
# cavities and nonlinear cavities


def one_sided_cavity(gamma: float, delta: float = 0.0, truncation: int = DEFAULT_TRUNC, label: str = "m") -> SLHTriple:
    gamma = _nonneg(gamma, "gamma")
    a = destroy(label, truncation)
    return SLHTriple(1, [math.sqrt(gamma) * a], float(delta) * a.dag() * a)


def kerr_cavity(gamma: float, delta: float, chi: float, truncation: int = DEFAULT_TRUNC, label: str = "m") -> SLHTriple:
    gamma = _nonneg(gamma, "gamma")
    a = destroy(label, truncation)
    n = a.dag() * a
    return SLHTriple(1, [math.sqrt(gamma) * a], float(delta) * n + float(chi) * n * n)


def fabry_perot(gamma1: float, gamma2: float, delta: float = 0.0, truncation: int = DEFAULT_TRUNC, label: str = "m") -> SLHTriple:
    gamma1, gamma2 = _nonneg(gamma1, "gamma1"), _nonneg(gamma2, "gamma2")
    a = destroy(label, truncation)
    L = [math.sqrt(gamma1) * a, math.sqrt(gamma2) * a]
    return SLHTriple([[1, 0], [0, 1]], L, float(delta) * a.dag() * a)


def cross_kerr_cavities(
    gamma1: float,
    gamma2: float,
    delta1: float,
    delta2: float,
    chi: float,
    truncation: int = DEFAULT_TRUNC,
    label: str = "m",
) -> SLHTriple:
    gamma1, gamma2 = _nonneg(gamma1, "gamma1"), _nonneg(gamma2, "gamma2")
    a1 = destroy(f"{label}.mode1", truncation)
    a2 = destroy(f"{label}.mode2", truncation)
    H = float(delta1) * a1.dag() * a1 + float(delta2) * a2.dag() * a2 \
        + float(chi) * (a1.dag() * a1) * (a2.dag() * a2)
    return SLHTriple([[1, 0], [0, 1]], [math.sqrt(gamma1) * a1, math.sqrt(gamma2) * a2], H)


def degenerate_opo(gamma: float, epsilon: complex, truncation: int = DEFAULT_TRUNC, label: str = "m") -> SLHTriple:
    """Below-threshold degenerate OPO: H = (i/2)(E a^2+ - E* a^2)."""
    gamma = _nonneg(gamma, "gamma")
    eps = complex(epsilon)
    a = destroy(label, truncation)
    H = (0.5j) * (eps * a.dag() * a.dag() - eps.conjugate() * a * a)
    return SLHTriple(1, [math.sqrt(gamma) * a], H)


def two_mode_squeezer(
    gamma1: float,
    gamma2: float,
    epsilon: complex,
    truncation: int = DEFAULT_TRUNC,
    label: str = "m",
) -> SLHTriple:
    """Nondegenerate parametric interaction in the frame rotating at half
    the pump frequency."""
    gamma1, gamma2 = _nonneg(gamma1, "gamma1"), _nonneg(gamma2, "gamma2")
    eps = complex(epsilon)
    a1 = destroy(f"{label}.mode1", truncation)
    a2 = destroy(f"{label}.mode2", truncation)
    H = (0.5j) * (eps * a1.dag() * a2.dag() - eps.conjugate() * a1 * a2)
    return SLHTriple([[1, 0], [0, 1]], [math.sqrt(gamma1) * a1, math.sqrt(gamma2) * a2], H)


# --------------------------------------------------------------------------
# optomechanics


def _optomech_parts(kappa, Gamma, nbar, delta_c, delta_m, truncation, label):
    kappa = _nonneg(kappa, "kappa")
    Gamma = _nonneg(Gamma, "Gamma")
    nbar = _nonneg(nbar, "nbar")
    a = destroy(f"{label}.mode", truncation)
    b = destroy(f"{label}.mech", truncation)
    L = [
        math.sqrt(kappa) * a,
        math.sqrt(Gamma * (nbar + 1.0)) * b,
        math.sqrt(Gamma * nbar) * b.dag(),
    ]
    H0 = float(delta_c) * a.dag() * a + float(delta_m) * b.dag() * b
    return a, b, L, H0


def optomechanics(
    kappa: float,
    Gamma: float,
    nbar: float,
    g: float,
    delta_c: float = 0.0,
    delta_m: float = 0.0,
    truncation: int = DEFAULT_TRUNC,
    label: str = "om",
) -> SLHTriple:
    """Radiation-pressure optomechanics; thermal phonon bath entered via
    two fictitious ports with rates Gamma(nbar+1) and Gamma nbar."""
    a, b, L, H0 = _optomech_parts(kappa, Gamma, nbar, delta_c, delta_m, truncation, label)
    H = H0 - float(g) * (a.dag() * a) * (b + b.dag())
    eye3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return SLHTriple(eye3, L, H)


def optomechanics_linearized(
    kappa: float,
    Gamma: float,
    nbar: float,
    g: float,
    delta_c: float = 0.0,
    delta_m: float = 0.0,
    truncation: int = DEFAULT_TRUNC,
    label: str = "om",
) -> SLHTriple:
    a, b, L, H0 = _optomech_parts(kappa, Gamma, nbar, delta_c, delta_m, truncation, label)
    H = H0 + float(g) * (a + a.dag()) * (b + b.dag())
    eye3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return SLHTriple(eye3, L, H)


# --------------------------------------------------------------------------
# atoms


def tla_waveguide(kappa_g: float, kappa_perp: float = 0.0, omega: float = 0.0, label: str = "q") -> SLHTriple:
    """Two-level atom side-coupled to a waveguide; port 2 collects
    emission into non-guided modes (perfect coupling: kappa_perp = 0)."""
    kappa_g = _nonneg(kappa_g, "kappa_g")
    kappa_perp = _nonneg(kappa_perp, "kappa_perp")
    sm = sigma_minus(label)
    L = [math.sqrt(kappa_g) * sm, math.sqrt(kappa_perp) * sm]
    H = 0.5 * float(omega) * sigma_z(label)
    return SLHTriple([[1, 0], [0, 1]], L, H)


def trapped_tla(
    kappa_r: float,
    kappa_l: float,
    kappa_perp: float,
    omega: float,
    k0: float,
    mass: float,
    nu: float,
    truncation: int = DEFAULT_TRUNC,
    label: str = "q",
) -> SLHTriple:
    """Harmonically trapped atom coupled to right/left waveguide modes;
    the coupling phases e^{+-i k0 x} carry the recoil of the photon."""
    from scipy.linalg import expm

    for name, v in (("kappa_r", kappa_r), ("kappa_l", kappa_l), ("kappa_perp", kappa_perp)):
        _nonneg(v, name)
    _require(mass > 0 and nu > 0, f"mass, nu must be > 0, violated: mass={mass}, nu={nu}")
    qlbl, mlbl = f"{label}.qubit", f"{label}.motion"
    sm = sigma_minus(qlbl)
    b = destroy(mlbl, truncation)
    x = (b + b.dag()) * (1.0 / math.sqrt(2.0 * mass * nu))
    phase_plus = Operator(x.space, expm(1j * float(k0) * x.constant().toarray()))
    phase_minus = phase_plus.dag()
    L = [
        math.sqrt(kappa_r) * sm * phase_plus,
        math.sqrt(kappa_l) * sm * phase_minus,
        math.sqrt(kappa_perp) * sm,
    ]
    H = 0.5 * float(omega) * sigma_z(qlbl) + float(nu) * (b.dag() * b + 0.5)
    eye3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return SLHTriple(eye3, L, H)


def rabi(kappa: float, g: float, delta_c: float = 0.0, omega: float = 0.0, truncation: int = DEFAULT_TRUNC, label: str = "jc") -> SLHTriple:
    kappa = _nonneg(kappa, "kappa")
    a = destroy(f"{label}.mode", truncation)
    qlbl = f"{label}.qubit"
    sx = make_elementary("pauli_x", qlbl, 2)
    H = float(delta_c) * a.dag() * a + 0.5 * float(omega) * sigma_z(qlbl) + float(g) * sx * (a + a.dag())
    return SLHTriple(1, [math.sqrt(kappa) * a], H)


def jaynes_cummings(kappa: float, g: float, delta_c: float = 0.0, omega: float = 0.0, truncation: int = DEFAULT_TRUNC, label: str = "jc") -> SLHTriple:
    kappa = _nonneg(kappa, "kappa")
    a = destroy(f"{label}.mode", truncation)
    qlbl = f"{label}.qubit"
    sm, sp = sigma_minus(qlbl), sigma_plus(qlbl)
    H = float(delta_c) * a.dag() * a + 0.5 * float(omega) * sigma_z(qlbl) \
        + float(g) * (sm * a.dag() + sp * a)
    return SLHTriple(1, [math.sqrt(kappa) * a], H)


def _collective_spin(n_atoms: int, label: str) -> tuple[Operator, Operator, Operator]:
    """J-, J+, Jz on the symmetric (Dicke) subspace of n_atoms qubits."""
    j = n_atoms / 2.0
    dim = n_atoms + 1
    m = -j + np.arange(dim)  # m = -j ... +j; index 0 is the lowest state
    lower = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        lower[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] - 1))
    space = LabeledSpace([(label, dim)])
    jm = Operator(space, lower)
    jz = Operator(space, np.diag(m.astype(complex)))
    return jm, jm.dag(), jz


def tavis_cummings(
    kappa: float,
    g: float,
    n_atoms: int,
    delta_c: float = 0.0,
    omega: float = 0.0,
    truncation: int = DEFAULT_TRUNC,
    label: str = "tc",
) -> SLHTriple:
    """Cavity coupled to n_atoms identical two-level atoms, modeled on
    the collective (Dicke) spin space."""
    kappa = _nonneg(kappa, "kappa")
    _require(int(n_atoms) >= 1, f"n_atoms >= 1 violated: {n_atoms}")
    a = destroy(f"{label}.mode", truncation)
    jm, jp, jz = _collective_spin(int(n_atoms), f"{label}.spin")
    H = float(delta_c) * a.dag() * a + float(omega) * jz + float(g) * (jm * a.dag() + jp * a)
    return SLHTriple(1, [math.sqrt(kappa) * a], H)


# --------------------------------------------------------------------------
# sources


def coherent_source(alpha, envelope: Envelope | None = None) -> SLHTriple:
    """Idealized displacement source (1, alpha(t), 0).

    ``alpha`` may be a constant or an envelope; with both given, the
    drive is alpha * envelope(t).
    """
    if envelope is not None:
        env = ScaledEnvelope(complex(alpha), envelope) if alpha is not None else envelope
    else:
        env = as_envelope(alpha)
    L = identity(LabeledSpace()).scaled_by(env)
    return SLHTriple(1, [L], 0.0, metadata={"drive_envelope": env}, check=False)  # valid by construction


def coherent_source_cavity(alpha: complex, envelope: Envelope, truncation: int = DEFAULT_TRUNC, label: str = "src") -> SLHTriple:
    """Cavity source releasing the coherent wavepacket alpha * xi(t).

    The cavity starts in the coherent state |alpha> and couples with the
    time-dependent rate lambda(t) = xi(t)/sqrt(W(t)); its output then
    matches the idealized displacement source exactly.
    """
    coupling = SourceCoupling(envelope)
    a = destroy(label, truncation)
    L = a.scaled_by(coupling)
    meta = {
        "initial_state": {label: ("coherent", complex(alpha))},
        "source_envelope": envelope,
    }
    return SLHTriple(1, [L], 0.0, metadata=meta)


def fock_source(n: int, envelope: Envelope, truncation: int | None = None, label: str = "src") -> SLHTriple:
    """Cavity source emitting an n-photon wavepacket; the initial state
    |n><n| rides along as metadata."""
    n = int(n)
    _require(n >= 0, f"n >= 0 violated: n = {n}")
    truncation = truncation if truncation is not None else max(n + 1, 2)
    _require(truncation >= n + 1, f"truncation >= n+1 violated: {truncation} < {n + 1}")
    coupling = SourceCoupling(envelope)
    a = destroy(label, truncation)
    L = a.scaled_by(coupling)
    meta = {
        "initial_state": {label: ("fock", n)},
        "source_envelope": envelope,
    }
    return SLHTriple(1, [L], 0.0, metadata=meta)


def squeezed_source(gamma: float, E: complex, truncation: int = DEFAULT_TRUNC, label: str = "src") -> SLHTriple:
    """Finite-bandwidth squeezed light: a degenerate OPO cavity.

    Below threshold requires |E| < gamma/2.
    """
    gamma = _nonneg(gamma, "gamma")
    E = complex(E)
    _require(abs(E) < gamma / 2.0, f"|E| < gamma/2 violated: |E| = {abs(E)}, gamma/2 = {gamma / 2}")
    return degenerate_opo(gamma, E, truncation=truncation, label=label)


def dispersion_cavity(
    omega_c: float,
    alpha: float,
    length: float,
    v: float,
    phi: float = 0.0,
    truncation: int = DEFAULT_TRUNC,
    label: str = "disp",
) -> SLHTriple:
    """Fictitious cavity approximating quadratic waveguide dispersion.

    Valid for gamma_d, Delta_d << omega_c and propagation time much
    shorter than the dispersal time.
    """
    _require(v > 0 and length > 0 and alpha != 0,
             f"need v > 0, length > 0, alpha != 0; got v={v}, length={length}, alpha={alpha}")
    v_g = math.sqrt(v * v + 4.0 * alpha * omega_c)
    tau_p = length / v_g
    delta_d = math.sqrt(math.sqrt(3.0) * v_g * v_g / (8.0 * alpha * tau_p))
    gamma_d = math.sqrt(12.0) * delta_d
    omega_d = omega_c - delta_d
    a = destroy(label, truncation)
    return SLHTriple(
        scalar(cmath.exp(1j * phi)),
        [math.sqrt(gamma_d) * a],
        omega_d * a.dag() * a,
        metadata={"gamma_d": gamma_d, "omega_d": omega_d, "delta_d": delta_d},
    )


# --------------------------------------------------------------------------
# composite builders


def build_cavity_chain(betas, xis, truncation: int = DEFAULT_TRUNC, label: str = "chain") -> SLHTriple:
    """N cascaded single-port cavities (the thin-slice continuum model):

        L = sum_k sqrt(beta_k) a_k
        H = sum_k xi_k n_k + (1/2i) sum_{j>k} sqrt(beta_j beta_k) (a_j^ a_k - a_k^ a_j)
    """
    betas = [float(b) for b in betas]
    xis = [float(x) for x in xis]
    _require(len(betas) == len(xis) and len(betas) >= 1,
             f"need N >= 1 and len(betas) == len(xis), got {len(betas)} and {len(xis)}")
    for k, b in enumerate(betas):
        _nonneg(b, f"beta[{k}]")
    ops = [destroy(f"{label}.mode{k+1}", truncation) for k in range(len(betas))]
    L = None
    H = None
    for k, a in enumerate(ops):
        term_l = math.sqrt(betas[k]) * a
        L = term_l if L is None else L + term_l
        term_h = xis[k] * a.dag() * a
        H = term_h if H is None else H + term_h
    for j in range(1, len(ops)):
        for k in range(j):
            w = math.sqrt(betas[j] * betas[k]) / 2.0j
            H = H + w * (ops[j].dag() * ops[k] - ops[k].dag() * ops[j])
    return SLHTriple(1, [L], H)


def build_counterpropagating_pair(
    gamma1: float,
    gamma2: float,
    delta1: float = 0.0,
    delta2: float = 0.0,
    phi: float = 0.0,
    label: str = "atoms",
) -> SLHTriple:
    """Two atoms on a bidirectional waveguide separated by phase phi.

    Port 1 is the right-going mode (atom 1 upstream of atom 2), port 2
    the left-going one; the propagation phase induces the sin(phi)
    excitation-exchange Hamiltonian between the atoms.
    """
    gamma1, gamma2 = _nonneg(gamma1, "gamma1"), _nonneg(gamma2, "gamma2")
    s1, s2 = sigma_minus(f"{label}.q1"), sigma_minus(f"{label}.q2")
    ph = cmath.exp(1j * float(phi))
    L = [
        math.sqrt(gamma2 / 2.0) * s2 + ph * math.sqrt(gamma1 / 2.0) * s1,
        math.sqrt(gamma1 / 2.0) * s1 + ph * math.sqrt(gamma2 / 2.0) * s2,
    ]
    H = -0.5 * float(delta2) * sigma_z(f"{label}.q2") - 0.5 * float(delta1) * sigma_z(f"{label}.q1")
    H = H + (math.sqrt(gamma1 * gamma2) / 2.0) * math.sin(float(phi)) * (
        s1 * s2.dag() + s1.dag() * s2
    )
    S = [[scalar(ph), scalar(0)], [scalar(0), scalar(ph)]]
    return SLHTriple(S, L, H)


def build_copropagating_pair(
    gamma1: float,
    gamma2: float,
    delta1: float = 0.0,
    delta2: float = 0.0,
    phi: float = 0.0,
    label: str = "atoms",
) -> SLHTriple:
    """Same two atoms, both modes co-propagating (a chiral waveguide):
    composed directly from the cascade rules."""
    s1, s2 = sigma_minus(f"{label}.q1"), sigma_minus(f"{label}.q2")
    g1 = SLHTriple(
        [[1, 0], [0, 1]],
        [math.sqrt(_nonneg(gamma1, "gamma1") / 2.0) * s1, math.sqrt(gamma1 / 2.0) * s1],
        -0.5 * float(delta1) * sigma_z(f"{label}.q1"),
    )
    g2 = SLHTriple(
        [[1, 0], [0, 1]],
        [math.sqrt(_nonneg(gamma2, "gamma2") / 2.0) * s2, math.sqrt(gamma2 / 2.0) * s2],
        -0.5 * float(delta2) * sigma_z(f"{label}.q2"),
    )
    shift = concat(phase_shifter(phi), phase_shifter(phi))
    return series(g2, series(shift, g1))


# --------------------------------------------------------------------------
# catalog

#: kind -> (builder, port count); parameter names are the builder's signature
CATALOG: dict[str, tuple[Callable[..., SLHTriple], int]] = {
    "phase_shifter": (phase_shifter, 1),
    "beamsplitter": (beamsplitter, 2),
    "loss_beamsplitter": (loss_beamsplitter, 2),
    "one_sided_cavity": (one_sided_cavity, 1),
    "kerr_cavity": (kerr_cavity, 1),
    "fabry_perot": (fabry_perot, 2),
    "cross_kerr_cavities": (cross_kerr_cavities, 2),
    "degenerate_opo": (degenerate_opo, 1),
    "two_mode_squeezer": (two_mode_squeezer, 2),
    "optomechanics": (optomechanics, 3),
    "optomechanics_linearized": (optomechanics_linearized, 3),
    "tla_waveguide": (tla_waveguide, 2),
    "trapped_tla": (trapped_tla, 3),
    "rabi": (rabi, 1),
    "jaynes_cummings": (jaynes_cummings, 1),
    "tavis_cummings": (tavis_cummings, 1),
    "circulator_ideal": (circulator_ideal, 3),
    "circulator_nonideal": (circulator_nonideal, 3),
    "circulator_finite_bw": (circulator_finite_bw, 3),
    "coherent_source": (coherent_source, 1),
    "coherent_source_cavity": (coherent_source_cavity, 1),
    "fock_source": (fock_source, 1),
    "squeezed_source": (squeezed_source, 1),
    "dispersion_cavity": (dispersion_cavity, 1),
}


def _kinds_without(param: str) -> frozenset[str]:
    return frozenset(k for k, (b, _) in CATALOG.items() if param not in inspect.signature(b).parameters)


_NO_TRUNCATION = _kinds_without("truncation")
_NO_LABEL = _kinds_without("label")


def kinds() -> tuple[str, ...]:
    return tuple(sorted(CATALOG))


def instantiate(kind: str, label: str | None = None, truncation: int | None = None, **params) -> SLHTriple:
    """Build a catalog component by kind name.

    Raises ``ValidationError`` naming the violated constraint for bad
    parameters and ``ValidationError`` for unknown kinds.
    """
    if kind not in CATALOG:
        raise ValidationError(f"unknown component kind {kind!r}")
    builder = CATALOG[kind][0]
    kwargs = dict(params)
    if truncation is not None and kind not in _NO_TRUNCATION:
        kwargs["truncation"] = int(truncation)
    if label is not None and kind not in _NO_LABEL:
        kwargs["label"] = label
    try:
        return builder(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for {kind!r}: {exc}") from exc
