import dataclasses
import math

import numpy as np
import pytest

from cavitybec.params import ConfigError, default_params
from cavitybec.bath import (
    BathConstructionError, build_bath_spectrum, mode_density,
    thermal_occupation,
)


def test_occupation_frozen_value_at_omega_equals_temperature():
    # 1/(e - 1)
    assert thermal_occupation(0.05, 0.05) == pytest.approx(
        0.5819767068693265, abs=1e-14)


def test_occupation_zero_at_zero_temperature():
    assert thermal_occupation(0.3, 0.0) == 0.0


def test_occupation_classical_limit():
    # T >> omega: n -> T/omega - 1/2 + O(omega/T)
    assert thermal_occupation(0.01, 10.0) == pytest.approx(
        10.0 / 0.01 - 0.5, abs=1e-2)


def test_occupation_rejects_nonpositive_frequency():
    with pytest.raises(ConfigError):
        thermal_occupation(0.0, 0.1)
    with pytest.raises(ConfigError):
        thermal_occupation(-1.0, 0.1)


def _toy_bands(n=5):
    q = np.linspace(0.1, 0.5, n)
    omega1 = q * 0.8
    omega2 = 1.0 + q * q
    g = np.full(n, 0.1 + 0.0j)
    return q, omega1, omega2, g


def _bath(q, omega1, omega2, g_landau, g_beliaev, temperature, epsilon,
          dos_mode="1d", width=1.0, atom_number=1.0):
    p = default_params(dos_mode=dos_mode, condensate_width=width)
    return build_bath_spectrum(q, omega1, omega2, g_landau, g_beliaev,
                               temperature, epsilon,
                               mode_density(np.asarray(q, dtype=float), p),
                               atom_number)


def test_composite_frequencies_and_weights():
    q, o1, o2, g = _toy_bands()
    eps = 0.01
    bath = _bath(q, o1, o2, g, g, temperature=0.05, epsilon=eps)
    # real centres; every pole sits at Im = -epsilon
    _, om_l = bath.pole_weights("landau")
    _, om_b = bath.pole_weights("beliaev")
    np.testing.assert_allclose(om_b, o1 + o2)
    np.testing.assert_allclose(om_l, o2 - o1)
    assert om_b.dtype == om_l.dtype == float
    assert bath.epsilon == eps
    n1 = 1.0 / np.expm1(o1 / 0.05)
    n2 = 1.0 / np.expm1(o2 / 0.05)
    np.testing.assert_allclose(bath.nl, np.sqrt(n1 - n2), atol=1e-14)
    np.testing.assert_allclose(bath.nb, np.sqrt(n1 + n2 + 1.0), atol=1e-14)


def test_landau_channel_empty_at_zero_temperature():
    q, o1, o2, g = _toy_bands()
    bath = _bath(q, o1, o2, g, g, temperature=0.0, epsilon=0.01)
    assert np.all(bath.nl == 0.0)
    assert np.all(bath.nb == 1.0)


def test_band_ordering_violation_is_detected():
    q, o1, o2, g = _toy_bands()
    with pytest.raises(BathConstructionError):
        _bath(q, o2, o1, g, g, temperature=0.0, epsilon=0.01)
    with pytest.raises(BathConstructionError):
        _bath(q, -o1, o2, g, g, temperature=0.0, epsilon=0.01)


def test_pole_weights_and_their_config_errors():
    p = default_params()
    q, omega1, omega2, g = _toy_bands()

    def bath(dos_mode):
        return _bath(q, omega1, omega2, g, 2.0 * g, temperature=0.0,
                     epsilon=0.01, dos_mode=dos_mode,
                     width=p.condensate_width, atom_number=p.atom_number)

    b1 = bath("1d")
    w, om = b1.pole_weights("beliaev")
    np.testing.assert_allclose(w, 2.0 * 0.04 * b1.nb ** 2 / p.atom_number,
                               rtol=1e-14)
    np.testing.assert_array_equal(om, omega1 + omega2)
    w3, _ = bath("3d").pole_weights("beliaev")
    np.testing.assert_allclose(
        w3, w * (q * p.condensate_width) ** 2 / (2.0 * math.pi), rtol=1e-14)
    with pytest.raises(ConfigError):
        b1.pole_weights("cherenkov")
    with pytest.raises(ConfigError):
        default_params(dos_mode="2d")


def test_negative_epsilon_is_a_config_error():
    # every damping rate would come out negative
    with pytest.raises(ConfigError, match="epsilon must be >= 0"):
        _bath([0.2], [0.3], [0.7], [0.1], [0.1],
              temperature=0.0, epsilon=-0.01)


def test_nan_epsilon_or_temperature_is_a_config_error():
    # both used to pass and give NaN rates
    with pytest.raises(ConfigError, match="epsilon must be >= 0"):
        _bath([0.2], [0.3], [0.7], [0.1], [0.1],
              temperature=0.0, epsilon=math.nan)
    with pytest.raises(ConfigError, match="temperature must be >= 0"):
        thermal_occupation(0.3, math.nan)


@pytest.mark.parametrize("changes, error, match", [
    ({"epsilon": -0.01}, ConfigError, "epsilon must be >= 0"),
    ({"epsilon": math.nan}, ConfigError, "epsilon must be >= 0"),
    ({"temperature": -0.1}, ConfigError, "temperature must be >= 0"),
    ("swap", BathConstructionError, "band ordering"),
], ids=["negative-eps", "nan-eps", "negative-T", "swapped-bands"])
def test_replace_cannot_make_an_invalid_bath(changes, error, match):
    # a replaced bath used to skip every check: epsilon = -0.01 gave
    # negative damping rates
    q, o1, o2, g = _toy_bands()
    bath = _bath(q, o1, o2, g, g, temperature=0.05, epsilon=0.01)
    if changes == "swap":
        changes = {"omega1": bath.omega2, "omega2": bath.omega1}
    with pytest.raises(error, match=match):
        dataclasses.replace(bath, **changes)


@pytest.mark.parametrize("temperature, epsilon", [
    (0.0, 0.03), (0.05, 0.001), (0.2, 0.0)])
def test_replaced_bath_equals_a_built_one(temperature, epsilon):
    q, o1, o2, g = _toy_bands()
    base = _bath(q, o1, o2, g, 2.0 * g, temperature=0.1, epsilon=0.01,
                 dos_mode="3d", width=2.0, atom_number=50.0)
    base.active_poles  # a cached table must not carry over
    got = dataclasses.replace(base, temperature=temperature,
                              epsilon=epsilon)
    ref = _bath(q, o1, o2, g, 2.0 * g, temperature, epsilon,
                dos_mode="3d", width=2.0, atom_number=50.0)
    assert (got.temperature, got.epsilon) == (temperature, epsilon)
    # bitwise: the same arrays as a bath built at (temperature, epsilon)
    for a, b in [(got.nl, ref.nl), (got.nb, ref.nb),
                 *zip(got.active_poles, ref.active_poles)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
