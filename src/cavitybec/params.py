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


@dataclass(frozen=True)
class MicroParams:
    """Microscopic parameters of the driven cavity-condensate system.

    Attributes
    ----------
    cavity_detuning : float
        Pump-cavity detuning Delta_C (recoil units). Must be negative.
    single_atom_shift : float
        Dispersive shift U_0 of the cavity resonance per atom.
    collision_strength : float
        s-wave coupling g (frequency times length).
    pump_amplitude : float
        Transverse pump two-photon amplitude eta_t.
    atom_number : int
        Condensate atom number N_c.
    site_count : int
        Box length in cavity wavelengths, kL/(2 pi).  Also the number of
        quasi-momentum grid points per band (including q = 0).
    condensate_width : float
        Transverse condensate width as kw; enters the 3D density-of-modes
        weight.
    temperature : float
        Temperature in recoil units (k_B = 1).
    phonon_damping : float
        Phenomenological phonon decay rate epsilon (recoil units).
    """

    cavity_detuning: float
    single_atom_shift: float = 0.0
    collision_strength: float = 0.0
    pump_amplitude: float = 0.0
    atom_number: int = 10_000
    site_count: int = 1001
    condensate_width: float = 2.0 * math.pi * math.sqrt(2.0)
    temperature: float = 0.0
    phonon_damping: float = 0.01

    def __post_init__(self) -> None:
        _check_shared(self)


@dataclass(frozen=True)
class ThermoParams:
    """Coupling strengths that stay finite in the thermodynamic limit.

    y is the collective pump strength, u the collective dispersive shift and
    g_coll the collisional mean-field energy; all in recoil units.  The
    remaining fields are carried through from :class:`MicroParams`.  Every
    way of making one checks the fields, so it is always a valid point.
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

    def __post_init__(self) -> None:
        _check_shared(self)
        if self.y < 0 or self.g_coll < 0:
            raise ConfigError("y and g_coll must be non-negative")

    def with_pump(self, y: float) -> "ThermoParams":
        return replace(self, y=y)


def _check_shared(p) -> None:
    """Construction checks of the fields MicroParams and ThermoParams
    share, after every field has proved a finite real number."""
    for f in fields(p):
        value = getattr(p, f.name)
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ConfigError(
                f"{f.name} must be a finite real number, got {value!r}")
    if not p.cavity_detuning < 0:
        raise ConfigError(
            f"cavity detuning must be negative, got {p.cavity_detuning}")
    if p.atom_number < 1:
        raise ConfigError(f"atom_number must be >= 1, got {p.atom_number}")
    if p.site_count < 1 or p.site_count != int(p.site_count):
        raise ConfigError(
            f"site_count (kL/2pi) must be a positive integer, got {p.site_count}")
    if p.phonon_damping < 0:
        raise ConfigError(f"phonon_damping must be >= 0, got {p.phonon_damping}")
    if p.temperature < 0:
        raise ConfigError(f"temperature must be >= 0, got {p.temperature}")
    if p.condensate_width <= 0:
        raise ConfigError(f"condensate_width must be > 0, got {p.condensate_width}")


def derive_thermo(raw: MicroParams) -> ThermoParams:
    """Reduce microscopic parameters to thermodynamic-limit couplings.

    y = sqrt(2 N_c) eta_t, u = N_c U_0 / 4, g_coll = (N_c / L) g, with
    L = 2 pi * site_count (in 1/k units).
    """
    box_length = 2.0 * math.pi * raw.site_count
    return ThermoParams(
        y=math.sqrt(2.0 * raw.atom_number) * raw.pump_amplitude,
        u=0.25 * raw.atom_number * raw.single_atom_shift,
        g_coll=raw.atom_number / box_length * raw.collision_strength,
        cavity_detuning=raw.cavity_detuning,
        temperature=raw.temperature,
        phonon_damping=raw.phonon_damping,
        atom_number=raw.atom_number,
        site_count=raw.site_count,
        condensate_width=raw.condensate_width,
    )


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
_MICRO_KEYS = {f.name for f in fields(MicroParams)}


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

    Accepts either thermodynamic keys directly (y, u, g_coll, ...) or
    microscopic keys (pump_amplitude, collision_strength, ...), but not a
    mixture of the two coupling conventions.
    """
    keys = set(mapping)
    unknown = keys - _THERMO_KEYS - _MICRO_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    micro = keys - _THERMO_KEYS
    thermo = keys - _MICRO_KEYS
    if micro and thermo:
        raise ConfigError(
            f"microscopic keys {sorted(micro)} and thermodynamic keys "
            f"{sorted(thermo)} cannot be mixed")
    if micro:
        return derive_thermo(
            MicroParams(**{"cavity_detuning": -1000.0, **mapping}))
    return default_params(**mapping)
