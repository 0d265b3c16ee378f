import dataclasses
import math

import numpy as np
import pytest

from cavitybec.params import (
    ConfigError, ThermoParams, critical_coupling, momentum_grid,
    default_params, parse_config_text, thermo_from_mapping,
)


def test_default_critical_coupling_frozen_value():
    # sqrt(-Delta_C) * sqrt(1 + 2 g_coll) = sqrt(1000 * 1.2) = sqrt(1200)
    assert critical_coupling(default_params()) == pytest.approx(
        34.64101615137754, abs=1e-12)


def test_critical_coupling_with_dispersive_shift_frozen_value():
    # -Delta_C + 2u = 1020 -> sqrt(1020 * 1.2) = sqrt(1224)
    p = default_params(u=10.0)
    assert critical_coupling(p) == pytest.approx(34.9857113690718, abs=1e-12)


def test_critical_coupling_monotonic_in_collisions_and_detuning():
    base = critical_coupling(default_params())
    assert critical_coupling(default_params(g_coll=0.2)) > base
    assert critical_coupling(default_params(cavity_detuning=-1100.0)) > base


def test_unstable_photon_sector_rejected():
    with pytest.raises(ConfigError):
        critical_coupling(default_params(cavity_detuning=-1.0, u=-1.0))


def test_micro_keys_reduce_to_thermo_couplings():
    raw = {"cavity_detuning": -1000.0, "single_atom_shift": 0.004,
           "collision_strength": 0.05, "pump_amplitude": 0.1,
           "atom_number": 10_000, "site_count": 1001}
    given = dict(raw)
    p = thermo_from_mapping(raw)
    assert p.y == pytest.approx(math.sqrt(20_000) * 0.1)
    assert p.u == pytest.approx(10.0)
    assert p.g_coll == pytest.approx(10_000 / (2 * math.pi * 1001) * 0.05)
    assert raw == given  # the caller's mapping is left as it was
    # an absent microscopic coupling is 0, not a default_params value
    assert thermo_from_mapping({"pump_amplitude": 0.1}).g_coll == 0.0


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        default_params(cavity_detuning=+5.0)
    # with microscopic couplings as with thermodynamic ones
    with pytest.raises(ConfigError):
        thermo_from_mapping({"cavity_detuning": -10.0,
                             "pump_amplitude": 0.1, "temperature": -1.0})
    with pytest.raises(ConfigError):
        thermo_from_mapping({"cavity_detuning": -10.0,
                             "pump_amplitude": 0.1, "phonon_damping": -0.1})
    # site_count is checked before g_coll is divided by it
    with pytest.raises(ConfigError, match="site_count"):
        thermo_from_mapping({"collision_strength": 0.05, "site_count": 0})
    with pytest.raises(ConfigError, match="temperature"):
        default_params(temperature=-1.0)
    with pytest.raises(ConfigError, match="phonon_damping"):
        thermo_from_mapping({"phonon_damping": -0.1})
    # ... and atom_number and condensate_width
    with pytest.raises(ConfigError, match="atom_number"):
        default_params(atom_number=0)
    with pytest.raises(ConfigError, match="condensate_width"):
        thermo_from_mapping({"condensate_width": -3.0})


@pytest.mark.parametrize("make", [
    lambda: default_params(temperature=math.nan),
    lambda: default_params(g_coll="abc"),
    lambda: default_params(u=math.inf),
    lambda: default_params(site_count=None),
    lambda: default_params().with_pump(math.nan),
    lambda: dataclasses.replace(default_params(), phonon_damping=-math.inf),
    lambda: thermo_from_mapping({"cavity_detuning": "abc"}),
    lambda: thermo_from_mapping({"pump_amplitude": math.nan}),
    lambda: thermo_from_mapping({"cavity_detuning": -10.0,
                                 "single_atom_shift": 1j}),
], ids=["nan-T", "str-g_coll", "inf-u", "none-sites", "nan-pump",
        "inf-replace", "str-mapping", "nan-micro", "complex-micro"])
def test_every_field_must_be_a_finite_real_number(make):
    with pytest.raises(ConfigError, match="must be a finite real number"):
        make()


def test_negative_pump_is_refused_on_construction():
    # solve_steady_state no longer checks the pump sign: no ThermoParams
    # can hold a negative y
    with pytest.raises(ConfigError, match="non-negative"):
        default_params().with_pump(-1.0)
    with pytest.raises(ConfigError, match="non-negative"):
        thermo_from_mapping({"cavity_detuning": -10.0,
                             "pump_amplitude": -0.1})


def test_momentum_grid_shape_and_symmetry():
    # the positive half: -q is the conjugate partner the bath counts twice
    grid = momentum_grid(default_params())
    assert len(grid) == 500
    np.testing.assert_array_equal(grid, np.arange(1, 501) / 1001)


def test_parse_config_text_roundtrip():
    text = """
    # comment line
    y = 21.5   # inline comment
    site_count = 501
    dos_mode = 3d
    """
    out = parse_config_text(text)
    assert out == {"y": 21.5, "site_count": 501, "dos_mode": "3d"}


def test_parse_config_text_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("y = 1\ny = 2")
    with pytest.raises(ConfigError):
        parse_config_text("just words")


def test_thermo_from_mapping_routes_micro_keys():
    p = thermo_from_mapping({"pump_amplitude": 0.1, "atom_number": 10_000})
    assert p.y == pytest.approx(math.sqrt(20_000) * 0.1)


def test_thermo_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        thermo_from_mapping({"not_a_key": 1.0})


def test_thermo_from_mapping_refuses_mixed_coupling_conventions():
    # u used to be dropped silently next to pump_amplitude
    with pytest.raises(ConfigError, match="cannot be mixed"):
        thermo_from_mapping({"pump_amplitude": 0.01, "u": 5.0})
    # keys both conventions share go with either
    p = thermo_from_mapping({"pump_amplitude": 0.1, "temperature": 0.05})
    assert p.temperature == 0.05 and p.y > 0.0
    assert thermo_from_mapping({"u": 5.0, "temperature": 0.05}).u == 5.0
    assert thermo_from_mapping({}) == default_params()


def test_with_pump_preserves_other_fields():
    p = default_params(temperature=0.05)
    q = p.with_pump(3.0)
    assert q.y == 3.0 and q.temperature == 0.05 and q.g_coll == p.g_coll
