"""Bosonized phonon-pair bath for the soft polariton mode.

Pairs of phonons from the two lowest bands form composite modes: the
Landau combination at omega_2q - omega_1q (active only at finite
temperature) and the Beliaev combination at omega_1q + omega_2q.  Their
normalization factors follow from the thermal occupations, and the
phenomenological phonon decay rate epsilon gives every composite mode the
imaginary frequency part -i epsilon.  With the density of modes w_q and
the atom number N_c, a BathSpectrum holds the whole table of self-energy
poles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import ConfigError, ThermoParams


class BathConstructionError(RuntimeError):
    """Inconsistent band data while assembling the bath (mislabeled bands)."""


def thermal_occupation(omega, temperature: float):
    """Bose-Einstein occupation 1/(exp(omega/T) - 1); zero at T = 0.

    Where omega/T or its exponential overflows, the occupation is the
    exact limit 0, returned without an overflow warning.  An infinite T,
    or one so large that an occupation (about T/omega) overflows, is a
    ConfigError: the Landau radicand n1 - n2 would be inf - inf.
    """
    omega = np.asarray(omega, dtype=float)
    if (omega <= 0).any():
        raise ConfigError("thermal occupation needs omega > 0")
    if not 0 <= temperature < np.inf:
        raise ConfigError(f"temperature must be >= 0 and finite, "
                          f"got {temperature}")
    if temperature == 0.0:
        out = np.zeros_like(omega)
    else:
        with np.errstate(over="ignore", divide="ignore"):
            out = 1.0 / np.expm1(omega / temperature)
        if np.isinf(out).any():
            raise ConfigError(
                f"thermal occupation overflows at temperature {temperature:g}"
                f" (omega down to {omega.min():.3g})")
    return out if out.ndim else float(out)


# largest phonon damping: its square, the (Im z + epsilon)^2 that
# response.pole_sum forms, stays 1e8 below the float overflow
EPSILON_MAX = 1e150


def check_epsilon(epsilon: float) -> None:
    """Refuse a phonon damping outside [0, EPSILON_MAX] (NaN and inf
    included) with ConfigError: the one test of a bath's epsilon, which a
    sweep that evaluates a whole epsilon family on one bath applies to
    each."""
    if not 0 <= epsilon <= EPSILON_MAX:
        raise ConfigError(
            f"phonon damping epsilon must be >= 0 and <= {EPSILON_MAX:g}, "
            f"got {epsilon}")


def mode_density(q, p: ThermoParams):
    """Density-of-modes weight w_q of the point p: 1 for p.dos_mode '1d'
    and (q w)^2 / 2 pi for '3d' (w = p.condensate_width)."""
    if p.dos_mode == "1d":
        return np.ones_like(q)
    return (q * p.condensate_width) ** 2 / (2.0 * np.pi)


@dataclass(frozen=True)
class BathSpectrum:
    """Composite Landau/Beliaev modes on the positive-q half grid.

    Each entry represents the +-q pair, so bath sums over the full grid
    carry a factor 2.  g_landau and g_beliaev are the soft-mode coupling
    strengths, dos the density-of-modes weight w_q (mode_density) and
    atom_number N_c.  Every pole sits at Im = -epsilon.

    Pump points that share their bands (a sweep below threshold) share one
    bath: the coupling tables then carry a leading pump axis, (P, n_q), as
    a ModeSet stack does, and so do the pole weights; the bands, the pair
    factors and the checks are the shared ones.  active_poles is the
    table of a bath of one point; pole_table holds every point's.

    A bath checks itself on construction: epsilon must lie in
    [0, EPSILON_MAX] and the temperature must be >= 0 with finite
    occupations (ConfigError; thermal_occupation), and
    0 < omega1 < omega2 must hold at every q (BathConstructionError; a
    violation means the bands were mislabeled upstream, and it would also
    make the Landau radicand n1 - n2 negative at finite temperature).
    The pair-normalization factors nl and nb follow from the thermal
    occupations at the temperature, and the pole table is derived too, so
    dataclasses.replace(bath, epsilon=..., temperature=...) is a checked
    bath with both rebuilt.
    """

    q: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    g_landau: np.ndarray
    g_beliaev: np.ndarray
    temperature: float
    epsilon: float
    dos: np.ndarray
    atom_number: float
    nl: np.ndarray = field(init=False)
    nb: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        omega1, omega2 = self.omega1, self.omega2
        if (omega1 <= 0).any() or (omega2 <= omega1).any():
            bad = self.q[(omega1 <= 0) | (omega2 <= omega1)]
            raise BathConstructionError(
                f"band ordering 0 < omega1 < omega2 violated at q = {bad[:5]}")
        n1 = thermal_occupation(omega1, self.temperature)
        n2 = thermal_occupation(omega2, self.temperature)
        radicand = n1 - n2
        if (radicand < 0).any():
            raise BathConstructionError(
                "negative Landau radicand n1 - n2; bands mislabeled")
        # frozen, so set as dataclass' own __init__ sets fields
        object.__setattr__(self, "temperature", float(self.temperature))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "nl", np.sqrt(radicand))
        object.__setattr__(self, "nb", np.sqrt(n1 + n2 + 1.0))

    def pole_weights(self, channel: str):
        """(weights, centres) of one channel's self-energy poles.

        Sigma^channel(z) = sum_j weights[j] / (z - centres[j] + i epsilon)
        with weights = 2 w_q |g_q|^2 N_q^2 / N_c, where the 2 counts the
        +-q pair, and the real centres omega_2 - omega_1 (Landau) or
        omega_1 + omega_2 (Beliaev).  The weights have the couplings'
        shape, with a bath's leading pump axis.
        """
        if channel == "landau":
            g, n, om = self.g_landau, self.nl, self.omega2 - self.omega1
        elif channel == "beliaev":
            g, n, om = self.g_beliaev, self.nb, self.omega1 + self.omega2
        else:
            raise ConfigError(
                f"channel must be 'landau' or 'beliaev', got {channel!r}")
        if not n.any():
            # no pair factor, no weight: the Landau channel at T = 0
            return np.zeros(g.shape), om
        weights = 2.0 * self.dos * np.abs(g) ** 2 * n ** 2 / self.atom_number
        return weights, om

    @cached_property
    def pole_table(self):
        """(weights, centres) of both channels' poles, the Landau ones
        first, with weight or not; the weights have the couplings' shape
        along the last axis, (2 n_q,) or (P, 2 n_q) with a pump axis."""
        tables = [self.pole_weights(ch) for ch in ("landau", "beliaev")]
        return (np.concatenate([w for w, _ in tables], axis=-1),
                np.concatenate([om for _, om in tables]))

    @cached_property
    def active_poles(self):
        """(weights, centres) of both channels' poles with weight > 0; the
        whole Landau channel at T = 0 has none."""
        weights, centres = self.pole_table
        active = weights > 0
        return weights[active], centres[active]


def build_bath_spectrum(q, omega1, omega2, g_landau, g_beliaev,
                        temperature: float, epsilon: float, dos,
                        atom_number: float) -> BathSpectrum:
    """The BathSpectrum of band and coupling tables given as array-likes
    over q (lists or arrays), read as float and complex arrays."""
    return BathSpectrum(
        q=np.asarray(q, dtype=float),
        omega1=np.asarray(omega1, dtype=float),
        omega2=np.asarray(omega2, dtype=float),
        g_landau=np.asarray(g_landau, dtype=complex),
        g_beliaev=np.asarray(g_beliaev, dtype=complex),
        temperature=temperature, epsilon=epsilon,
        dos=np.asarray(dos, dtype=float),
        atom_number=float(atom_number),
    )
