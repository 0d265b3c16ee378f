"""Model parameters and unit conventions.

All frequencies are measured in units of the recoil frequency w_R = k^2/2m,
all lengths in units of 1/k, and hbar = k_B = 1.  In these units k = 1 and
m = 1/2, so a free atom at quasi-momentum q has kinetic energy q^2 and the
excited bands sit at 1 + q^2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace, fields


class ConfigError(ValueError):
    """Raised for invalid parameter values or malformed config input."""


DOS_MODES = ("1d", "3d")


@dataclass(frozen=True)
class ThermoParams:
    """Coupling strengths that stay finite in the thermodynamic limit, and
    the rest of a parameter point.

    Energies and rates are in recoil units.  Every way of making one
    (default_params, thermo_from_mapping, dataclasses.replace, with_pump)
    checks the fields, so it is always a valid point: each numeric one
    must be a finite real number, and then in range.

    Attributes
    ----------
    y : float
        Collective pump strength sqrt(2 N_c) eta_t, with eta_t the
        transverse pump two-photon amplitude.  Must be >= 0.
    u : float
        Collective dispersive shift N_c U_0 / 4, with U_0 the shift of the
        cavity resonance per atom.
    g_coll : float
        Collisional mean-field energy (N_c / L) g, with g the s-wave
        coupling (frequency times length) and L = 2 pi site_count.  Must be
        >= 0.
    cavity_detuning : float
        Pump-cavity detuning Delta_C.  Must be negative.
    temperature : float
        Temperature (k_B = 1).  Must be >= 0.
    phonon_damping : float
        Phenomenological phonon decay rate epsilon.  Must be >= 0.
    atom_number : int
        Condensate atom number N_c.  Must be >= 1.
    site_count : int
        Box length in cavity wavelengths, kL/(2 pi).  Also the number of
        quasi-momentum grid points per band (including q = 0).  Must be a
        positive integer.
    condensate_width : float
        Transverse condensate width as kw; enters the 3D density-of-modes
        weight.  Must be > 0.
    dos_mode : str
        Density of modes w_q of the bath (bath.mode_density): '1d' for
        w_q = 1, '3d' for w_q = (q w)^2 / 2 pi.  One of DOS_MODES.
    """

    y: float
    u: float
    g_coll: float
    cavity_detuning: float
    temperature: float = 0.0
    phonon_damping: float = 0.01
    atom_number: int = 10_000
    site_count: int = 1001
    condensate_width: float = 2.0 * math.pi * math.sqrt(2.0)
    dos_mode: str = "3d"

    def __post_init__(self) -> None:
        if self.dos_mode not in DOS_MODES:
            raise ConfigError(
                f"dos_mode must be {' or '.join(map(repr, DOS_MODES))}, "
                f"got {self.dos_mode!r}")
        for f in fields(self):
            if f.name != "dos_mode":
                _check_finite_real(f.name, getattr(self, f.name))
        if not self.cavity_detuning < 0:
            raise ConfigError(
                f"cavity detuning must be negative, got {self.cavity_detuning}")
        if self.atom_number < 1:
            raise ConfigError(
                f"atom_number must be >= 1, got {self.atom_number}")
        if self.site_count < 1 or self.site_count != int(self.site_count):
            raise ConfigError("site_count (kL/2pi) must be a positive "
                              f"integer, got {self.site_count}")
        if self.phonon_damping < 0:
            raise ConfigError(
                f"phonon_damping must be >= 0, got {self.phonon_damping}")
        if self.temperature < 0:
            raise ConfigError(
                f"temperature must be >= 0, got {self.temperature}")
        if self.condensate_width <= 0:
            raise ConfigError(
                f"condensate_width must be > 0, got {self.condensate_width}")
        if self.y < 0 or self.g_coll < 0:
            raise ConfigError("y and g_coll must be non-negative")

    def with_pump(self, y: float) -> "ThermoParams":
        return replace(self, y=y)


def _check_finite_real(name: str, value) -> None:
    # a float needs no abstract-base-class lookup, the slow part of the
    # check that every pump point's ThermoParams repeats
    if (not (type(value) is float or isinstance(value, numbers.Real))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def critical_coupling(p: ThermoParams) -> float:
    """Threshold pump strength of the self-organization transition.

    y_crit = sqrt(-Delta_C + 2u) * sqrt(w_R + 2 g_coll).  The photon sector
    must be stable, i.e. -Delta_C + 2u > 0.
    """
    photon_gap = -p.cavity_detuning + 2.0 * p.u
    if photon_gap <= 0:
        raise ConfigError(
            f"unstable photon sector: -Delta_C + 2u = {photon_gap} <= 0")
    return math.sqrt(photon_gap) * math.sqrt(1.0 + 2.0 * p.g_coll)


def default_params(**overrides) -> ThermoParams:
    """Default parameter set used for all figure-scale runs.

    N_c = 1e4, kL/(2 pi) = 1001, g_coll = 0.1, Delta_C = -1000, u = 0,
    kw = 2 pi sqrt(2), epsilon = 0.01, T = 0, y = 0 (set the pump with
    ``with_pump`` or an override).
    """
    return ThermoParams(**{"y": 0.0, "u": 0.0, "g_coll": 0.1,
                           "cavity_detuning": -1000.0, **overrides})


def momentum_grid(p: ThermoParams):
    """Positive quasi-momenta q_n = n / site_count, n = 1 .. (site_count-1)/2.

    q = 0 is excluded: that sector holds the condensate and the polaritons.
    Bands at -q are the complex conjugates of those at +q, so the pipeline
    works on this half and counts each entry twice (the bath's +-q pair).
    Ascending, units of k.
    """
    import numpy as np

    return np.arange(1, (p.site_count - 1) // 2 + 1) / float(p.site_count)


# ---------------------------------------------------------------------------
# plain-text config ingestion: one "name = value" per line, '#' comments

_THERMO_KEYS = {f.name for f in fields(ThermoParams)}
# the microscopic couplings, which stand in for y, u and g_coll
_MICRO_KEYS = ("pump_amplitude", "single_atom_shift", "collision_strength")


def parse_config_text(text: str) -> dict:
    """Parse a key-value config file into a dict of floats/ints.

    Unknown keys are hard errors; values are parsed as int when possible,
    else float.
    """
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def thermo_from_mapping(mapping: dict) -> ThermoParams:
    """Build ThermoParams from a config mapping.

    Accepts either thermodynamic couplings (y, u, g_coll) or microscopic
    ones (pump_amplitude eta_t, single_atom_shift U_0, collision_strength
    g; an absent one is 0, and the three are reduced to y, u and g_coll as
    ThermoParams states), but not a mixture of the two conventions.  The
    other ThermoParams keys go with either.
    """
    keys = set(mapping)
    unknown = keys - _THERMO_KEYS - set(_MICRO_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    micro = keys & set(_MICRO_KEYS)
    thermo = keys & {"y", "u", "g_coll"}
    if micro and thermo:
        raise ConfigError(
            f"microscopic keys {sorted(micro)} and thermodynamic keys "
            f"{sorted(thermo)} cannot be mixed")
    if not micro:
        return default_params(**mapping)
    eta, shift, g = (mapping.get(key, 0.0) for key in _MICRO_KEYS)
    for key, value in zip(_MICRO_KEYS, (eta, shift, g)):
        _check_finite_real(key, value)
    p = default_params(**{k: v for k, v in mapping.items() if k not in micro})
    box_length = 2.0 * math.pi * p.site_count
    return replace(p, y=math.sqrt(2.0 * p.atom_number) * eta,
                   u=0.25 * p.atom_number * shift,
                   g_coll=p.atom_number / box_length * g)
