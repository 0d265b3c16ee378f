import math

import numpy as np
import pytest

from cavitybec.params import ConfigError
from cavitybec.bath import (
    BathConstructionError, build_bath_spectrum, thermal_occupation,
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


def test_composite_frequencies_and_weights():
    q, o1, o2, g = _toy_bands()
    eps = 0.01
    bath = build_bath_spectrum(q, o1, o2, g, g, temperature=0.05, epsilon=eps)
    np.testing.assert_allclose(bath.omega_b, (o1 + o2) - 1j * eps)
    np.testing.assert_allclose(bath.omega_l, (o2 - o1) - 1j * eps)
    n1 = 1.0 / np.expm1(o1 / 0.05)
    n2 = 1.0 / np.expm1(o2 / 0.05)
    np.testing.assert_allclose(bath.nl, np.sqrt(n1 - n2), atol=1e-14)
    np.testing.assert_allclose(bath.nb, np.sqrt(n1 + n2 + 1.0), atol=1e-14)


def test_landau_channel_empty_at_zero_temperature():
    q, o1, o2, g = _toy_bands()
    bath = build_bath_spectrum(q, o1, o2, g, g, temperature=0.0, epsilon=0.01)
    assert np.all(bath.nl == 0.0)
    assert np.all(bath.nb == 1.0)


def test_band_ordering_violation_is_detected():
    q, o1, o2, g = _toy_bands()
    with pytest.raises(BathConstructionError):
        build_bath_spectrum(q, o2, o1, g, g, temperature=0.0, epsilon=0.01)
    with pytest.raises(BathConstructionError):
        build_bath_spectrum(q, -o1, o2, g, g, temperature=0.0, epsilon=0.01)


def test_pole_weights_and_their_config_errors():
    from cavitybec.params import default_params
    p = default_params()
    q, omega1, omega2, g = _toy_bands()
    bath = build_bath_spectrum(q, omega1, omega2, g, 2.0 * g,
                               temperature=0.0, epsilon=0.01)
    w, om = bath.pole_weights("beliaev", p, "1d")
    np.testing.assert_allclose(w, 2.0 * 0.04 * bath.nb ** 2 / p.atom_number,
                               rtol=1e-14)
    assert om is bath.omega_b
    w3, _ = bath.pole_weights("beliaev", p, "3d")
    np.testing.assert_allclose(
        w3, w * (q * p.condensate_width) ** 2 / (2.0 * math.pi), rtol=1e-14)
    with pytest.raises(ConfigError):
        bath.pole_weights("cherenkov", p, "3d")
    with pytest.raises(ConfigError):
        bath.pole_weights("landau", p, "2d")
