"""Wavepacket envelopes xi(t) and the cavity-source coupling lambda(t).

Envelopes are callables returning a complex amplitude.  Source models
need the tail weight W(t) = integral_t^inf |xi|^2 ds; it is computed in
closed form for the built-in shapes and by adaptive quadrature for
anything else.  The source coupling

    lambda(t) = xi(t) / sqrt(W(t))

diverges as W -> 0, so evaluation is clamped to zero once W(t) drops
below ``W_CUTOFF`` (the pulse has fully left the source by then).
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable

import numpy as np

from .errors import ConstructionError, ValidationError

#: tail weight below which lambda(t) is clamped to zero
W_CUTOFF = 1e-12

#: tolerance on |integral |xi|^2 - 1| for square-normalized envelopes
NORM_TOL = 1e-6


class Envelope:
    """Base class: a scalar complex function of time with a known tail weight.

    Envelopes compare and hash by the canonical JSON of :meth:`to_dict`;
    an opaque envelope, which has no serialized form, equals only itself.
    """

    name = "generic"
    #: constant envelopes fold into static matrices at construction time
    is_constant = False
    #: real-valued at every t, so conj(f) is f
    is_real = False

    @functools.cached_property
    def _key(self) -> str | None:
        try:
            return json.dumps(self.to_dict(), sort_keys=True)
        except ConstructionError:
            return None

    def __eq__(self, other):
        return self is other or (isinstance(other, Envelope) and self._key is not None and self._key == other._key)

    def __hash__(self):
        return object.__hash__(self) if self._key is None else hash(self._key)

    def __call__(self, t: float) -> complex:
        raise NotImplementedError

    def tail_weight(self, t: float) -> float:
        """W(t) = integral_t^inf |xi(s)|^2 ds, by quadrature unless overridden."""
        hi = self.support()[1]
        if t >= hi:
            return 0.0
        from scipy.integrate import quad  # deferred: scipy.integrate is slow to import

        val, _ = quad(lambda s: abs(self(s)) ** 2, t, hi, limit=200)
        return float(val)

    def support(self) -> tuple[float, float]:
        """Interval outside which the envelope is (numerically) zero."""
        return (-np.inf, np.inf)

    def norm_squared(self) -> float:
        lo, hi = self.support()
        lo = -50.0 if not np.isfinite(lo) else lo
        return self.tail_weight(lo)

    def check_normalized(self, tol: float = NORM_TOL) -> None:
        nsq = self.norm_squared()
        if abs(nsq - 1.0) > tol:
            raise ValidationError(
                f"envelope {self.name!r} is not square-normalized: integral |xi|^2 = {nsq:.8g}"
            )

    def source_coupling(self, t: float) -> complex:
        """lambda(t) = xi(t)/sqrt(W(t)), clamped once W < W_CUTOFF."""
        w = self.tail_weight(t)
        if w < W_CUTOFF:
            return 0.0
        return self(t) / math.sqrt(w)

    def conjugate(self) -> "Envelope | None":
        """An envelope equal to conj(self) at every t, when one is known: a
        real envelope is its own."""
        return self if self.is_real else None

    def to_dict(self) -> dict:
        raise ConstructionError(f"envelope {self.name!r} wraps an opaque callable and has no serialized form")


class GaussianPulse(Envelope):
    """xi(t) = (2 pi sigma^2)^(-1/4) exp(-(t-t0)^2 / (4 sigma^2)).

    The intensity |xi|^2 is a normalized Gaussian with standard
    deviation sigma; its FWHM (the "duration") is 2 sqrt(2 ln 2) sigma.
    """

    name = "gaussian"
    is_real = True

    def __init__(self, t0: float, sigma: float | None = None, fwhm: float | None = None):
        if (sigma is None) == (fwhm is None):
            raise ValidationError("give exactly one of sigma or fwhm")
        if fwhm is not None:
            sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        if sigma <= 0:
            raise ValidationError(f"sigma must be positive, got {sigma}")
        self.t0 = float(t0)
        self.sigma = float(sigma)
        self._amp = (2.0 * math.pi * self.sigma**2) ** (-0.25)

    def __call__(self, t):
        return self._amp * math.exp(-((t - self.t0) ** 2) / (4.0 * self.sigma**2))

    def tail_weight(self, t):
        return 0.5 * math.erfc((t - self.t0) / (math.sqrt(2.0) * self.sigma))

    def support(self):
        return (self.t0 - 8.0 * self.sigma, self.t0 + 8.0 * self.sigma)

    def to_dict(self):
        return {"shape": "gaussian", "t0": self.t0, "sigma": self.sigma}


class SquarePulse(Envelope):
    """Flat pulse on [t0, t1], normalized to unit square integral."""

    name = "square"
    is_real = True

    def __init__(self, t0: float, t1: float):
        if not t1 > t0:
            raise ValidationError(f"need t1 > t0, got [{t0}, {t1}]")
        self.t0, self.t1 = float(t0), float(t1)
        self._amp = 1.0 / math.sqrt(self.t1 - self.t0)

    def __call__(self, t):
        return self._amp if self.t0 <= t < self.t1 else 0.0

    def tail_weight(self, t):
        if t <= self.t0:
            return 1.0
        if t >= self.t1:
            return 0.0
        return (self.t1 - t) / (self.t1 - self.t0)

    def support(self):
        return (self.t0, self.t1)

    def to_dict(self):
        return {"shape": "square", "t0": self.t0, "t1": self.t1}


class ExpDecayPulse(Envelope):
    """xi(t) = sqrt(rate) exp(-rate (t - t0)/2) for t >= t0."""

    name = "exp_decay"
    is_real = True

    def __init__(self, rate: float, t0: float = 0.0):
        if rate <= 0:
            raise ValidationError(f"rate must be positive, got {rate}")
        self.rate, self.t0 = float(rate), float(t0)

    def __call__(self, t):
        if t < self.t0:
            return 0.0
        return math.sqrt(self.rate) * math.exp(-0.5 * self.rate * (t - self.t0))

    def tail_weight(self, t):
        if t <= self.t0:
            return 1.0
        return math.exp(-self.rate * (t - self.t0))

    def support(self):
        return (self.t0, self.t0 + 40.0 / self.rate)

    def to_dict(self):
        return {"shape": "exp_decay", "rate": self.rate, "t0": self.t0}


class ExpRisingPulse(Envelope):
    """xi(t) = sqrt(rate) exp(rate (t - t1)/2) for t <= t1, zero after.

    The time-reverse of :class:`ExpDecayPulse`; the optimal shape for
    exciting a decaying mode.
    """

    name = "exp_rising"
    is_real = True

    def __init__(self, rate: float, t1: float):
        if rate <= 0:
            raise ValidationError(f"rate must be positive, got {rate}")
        self.rate, self.t1 = float(rate), float(t1)

    def __call__(self, t):
        if t > self.t1:
            return 0.0
        return math.sqrt(self.rate) * math.exp(0.5 * self.rate * (t - self.t1))

    def tail_weight(self, t):
        if t >= self.t1:
            return 0.0
        return 1.0 - math.exp(self.rate * (t - self.t1))

    def support(self):
        return (self.t1 - 40.0 / self.rate, self.t1)

    def to_dict(self):
        return {"shape": "exp_rising", "rate": self.rate, "t1": self.t1}


class ConstantAmplitude(Envelope):
    """Constant drive amplitude; not square-normalizable, so only usable
    where normalization is not required (plain coherent drives)."""

    name = "constant"
    is_constant = True

    def __init__(self, value: complex = 1.0):
        self.value = complex(value)

    def __call__(self, t):
        return self.value

    def tail_weight(self, t):
        raise ValidationError("constant amplitude has no finite tail weight")

    def norm_squared(self):
        raise ValidationError("constant amplitude is not square-normalizable")

    def support(self):
        return (-np.inf, np.inf)

    def to_dict(self):
        return {"shape": "constant", "re": self.value.real, "im": self.value.imag}


class ScaledEnvelope(Envelope):
    """A complex multiple of another envelope (e.g. alpha * xi(t))."""

    name = "scaled"

    def __init__(self, scale: complex, base: Envelope):
        self.scale = complex(scale) + 0j  # no signed zeros: -1j equals conj(1j)
        self.base = as_envelope(base)

    @property
    def is_real(self):
        return self.scale.imag == 0.0 and self.base.is_real

    def conjugate(self):
        """conj(z f) is conj(z) f for a real base f."""
        return ScaledEnvelope(self.scale.conjugate(), self.base) if self.base.is_real else None

    def __call__(self, t):
        return self.scale * self.base(t)

    def tail_weight(self, t):
        return abs(self.scale) ** 2 * self.base.tail_weight(t)

    def support(self):
        return self.base.support()

    def to_dict(self):
        return {
            "shape": "scaled",
            "re": self.scale.real,
            "im": self.scale.imag,
            "base": self.base.to_dict(),
        }


class SourceCoupling(Envelope):
    """lambda(t) = xi(t)/sqrt(W(t)) packaged as an envelope of its own."""

    name = "source_coupling"

    def __init__(self, base: Envelope):
        base.check_normalized()
        self.base = base

    def __call__(self, t):
        return self.base.source_coupling(t)

    def support(self):
        return self.base.support()

    def to_dict(self):
        return {"shape": "source_coupling", "base": self.base.to_dict()}


class CallableEnvelope(Envelope):
    """Wrap a bare python callable (quadrature used for tail weights)."""

    name = "callable"

    def __init__(self, fn: Callable[[float], complex], support: tuple[float, float] = (0.0, 10.0)):
        self._fn = fn
        self._support = (float(support[0]), float(support[1]))

    def __call__(self, t):
        return self._fn(t)

    def support(self):
        return self._support


def as_envelope(value) -> Envelope:
    if isinstance(value, Envelope):
        return value
    if np.isscalar(value):
        return ConstantAmplitude(value)
    if callable(value):
        return CallableEnvelope(value)
    raise ValidationError(f"cannot interpret {value!r} as an envelope")


_SHAPES = {
    "gaussian": lambda d: GaussianPulse(d["t0"], sigma=d["sigma"]),
    "square": lambda d: SquarePulse(d["t0"], d["t1"]),
    "exp_decay": lambda d: ExpDecayPulse(d["rate"], d["t0"]),
    "exp_rising": lambda d: ExpRisingPulse(d["rate"], d["t1"]),
    "constant": lambda d: ConstantAmplitude(complex(d["re"], d["im"])),
    "scaled": lambda d: ScaledEnvelope(complex(d["re"], d["im"]), envelope_from_dict(d["base"])),
    "source_coupling": lambda d: SourceCoupling(envelope_from_dict(d["base"])),
}


def envelope_from_dict(data: dict) -> Envelope:
    shape = data.get("shape")
    if shape not in _SHAPES:
        raise ValidationError(f"unknown envelope shape {shape!r}")
    return _SHAPES[shape](data)
