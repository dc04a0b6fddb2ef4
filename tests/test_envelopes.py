import numpy as np
import pytest
from scipy.integrate import quad

from slhnet.envelopes import (
    CallableEnvelope,
    ConstantAmplitude,
    ExpDecayPulse,
    ExpRisingPulse,
    GaussianPulse,
    ScaledEnvelope,
    SourceCoupling,
    SquarePulse,
    as_envelope,
    envelope_from_dict,
)
from slhnet.errors import ValidationError

SHAPES = [
    GaussianPulse(t0=4.0, sigma=0.8),
    GaussianPulse(t0=2.0, fwhm=1.5),
    SquarePulse(0.5, 3.5),
    ExpDecayPulse(rate=1.3, t0=1.0),
    ExpRisingPulse(rate=0.8, t1=6.0),
]


@pytest.mark.parametrize("env", SHAPES, ids=lambda e: e.name)
def test_square_normalized(env):
    assert abs(env.norm_squared() - 1.0) < 1e-6
    env.check_normalized()


@pytest.mark.parametrize("env", SHAPES, ids=lambda e: e.name)
def test_tail_weight_matches_quadrature(env):
    # independent oracle: numerically integrate |xi|^2 over the tail
    lo, hi = env.support()
    for t in np.linspace(lo, hi, 7)[1:-1]:
        val, _ = quad(lambda s: abs(env(s)) ** 2, t, hi, limit=300)
        assert abs(env.tail_weight(t) - val) < 1e-7


def test_gaussian_fwhm_definition():
    env = GaussianPulse(t0=0.0, fwhm=2.0)
    half = abs(env(1.0)) ** 2 / abs(env(0.0)) ** 2
    assert abs(half - 0.5) < 1e-12


def test_source_coupling_clamps_after_pulse():
    env = SquarePulse(0.0, 1.0)
    assert env.source_coupling(2.0) == 0.0
    # inside the pulse lambda = xi/sqrt(W) grows as the tail drains
    assert abs(env.source_coupling(0.0) - 1.0) < 1e-12
    assert env.source_coupling(0.99) > 5.0


def test_source_coupling_requires_normalization():
    bad = ScaledEnvelope(2.0, GaussianPulse(t0=0.0, sigma=1.0))
    with pytest.raises(ValidationError):
        SourceCoupling(bad)


def test_constant_amplitude_not_normalizable():
    env = ConstantAmplitude(0.3)
    with pytest.raises(ValidationError):
        env.norm_squared()
    assert env(17.0) == 0.3


def test_as_envelope_coercions():
    assert isinstance(as_envelope(1.5), ConstantAmplitude)
    assert as_envelope(lambda t: t)(2.0) == 2.0
    env = GaussianPulse(t0=0, sigma=1)
    assert as_envelope(env) is env


def test_serialization_round_trip():
    env = ScaledEnvelope(0.5 - 0.2j, GaussianPulse(t0=3.0, sigma=0.7))
    back = envelope_from_dict(env.to_dict())
    for t in (0.0, 2.5, 3.5):
        assert abs(back(t) - env(t)) < 1e-14


def test_built_in_pulses_are_real():
    assert all(env.is_real for env in SHAPES)
    base = GaussianPulse(t0=3.0, sigma=0.7)
    assert ScaledEnvelope(-0.5, base).is_real
    assert not ScaledEnvelope(0.5 - 0.2j, base).is_real
    assert not ScaledEnvelope(2.0, CallableEnvelope(lambda t: t)).is_real
    assert not CallableEnvelope(lambda t: t).is_real


def test_equality_is_by_value_and_opaque_envelopes_equal_only_themselves():
    a, b = GaussianPulse(t0=3, sigma=0.7), GaussianPulse(t0=3.0, sigma=0.7)
    assert a == b and hash(a) == hash(b)
    assert a != GaussianPulse(t0=3.0, sigma=0.8) and a != SquarePulse(2.0, 4.0)
    assert ScaledEnvelope(0.5j, a) == envelope_from_dict(ScaledEnvelope(0.5j, b).to_dict())
    fn = lambda t: t  # noqa: E731
    for opaque in (CallableEnvelope(fn), ScaledEnvelope(2.0, CallableEnvelope(fn)), ScaledEnvelope(2.0, fn)):
        assert opaque == opaque and {opaque: 1}[opaque] == 1
    assert CallableEnvelope(fn) != CallableEnvelope(fn)
    assert ScaledEnvelope(2.0, CallableEnvelope(fn)) != ScaledEnvelope(2.0, CallableEnvelope(fn))


def test_bad_parameters():
    with pytest.raises(ValidationError):
        GaussianPulse(t0=0.0, sigma=-1.0)
    with pytest.raises(ValidationError):
        GaussianPulse(t0=0.0)
    with pytest.raises(ValidationError):
        SquarePulse(2.0, 1.0)
    with pytest.raises(ValidationError):
        ExpDecayPulse(rate=0.0)
