"""Bosonized phonon-pair bath for the soft polariton mode.

Pairs of phonons from the two lowest bands form composite modes: the
Landau combination at omega_2q - omega_1q (active only at finite
temperature) and the Beliaev combination at omega_1q + omega_2q.  Their
normalization factors follow from the thermal occupations, and the
phenomenological phonon decay rate epsilon gives every composite mode the
imaginary frequency part -i epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ConfigError, ThermoParams


class BathConstructionError(RuntimeError):
    """Inconsistent band data while assembling the bath (mislabeled bands)."""


def thermal_occupation(omega, temperature: float):
    """Bose-Einstein occupation 1/(exp(omega/T) - 1); zero at T = 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ConfigError("thermal occupation needs omega > 0")
    if temperature < 0:
        raise ConfigError("temperature must be >= 0")
    if temperature == 0.0:
        out = np.zeros_like(omega)
    else:
        out = 1.0 / np.expm1(omega / temperature)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BathSpectrum:
    """Composite Landau/Beliaev modes on the positive-q half grid.

    Each entry represents the +-q pair, so bath sums over the full grid
    carry degeneracy 2.  omega_l and omega_b are complex (imaginary part
    -epsilon); nl and nb are the pair-normalization factors; g_landau and
    g_beliaev the soft-mode coupling strengths.
    """

    q: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    omega_l: np.ndarray
    omega_b: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    nl: np.ndarray
    nb: np.ndarray
    g_landau: np.ndarray
    g_beliaev: np.ndarray
    temperature: float
    epsilon: float
    degeneracy: float = 2.0

    def pole_weights(self, channel: str, params: ThermoParams,
                     dos_mode: str = "3d"):
        """(weights, frequencies) of one channel's self-energy poles.

        Sigma^channel(z) = sum_j weights[j] / (z - frequencies[j]) with
        weights = degeneracy * w_q * |g_q|^2 * N_q^2 / N_c, where w_q = 1
        for dos_mode '1d' and (q w)^2 / 2 pi for '3d' (w the condensate
        width).
        """
        if channel == "landau":
            g, n, om = self.g_landau, self.nl, self.omega_l
        elif channel == "beliaev":
            g, n, om = self.g_beliaev, self.nb, self.omega_b
        else:
            raise ConfigError(
                f"channel must be 'landau' or 'beliaev', got {channel!r}")
        if dos_mode == "3d":
            dos = (self.q * params.condensate_width) ** 2 / (2.0 * np.pi)
        elif dos_mode == "1d":
            dos = np.ones_like(self.q)
        else:
            raise ConfigError(f"dos_mode must be '1d' or '3d', got {dos_mode!r}")
        weights = (self.degeneracy * dos * np.abs(g) ** 2 * n ** 2
                   / params.atom_number)
        return weights, om


def build_bath_spectrum(q, omega1, omega2, g_landau, g_beliaev,
                        temperature: float, epsilon: float) -> BathSpectrum:
    """Assemble the composite-mode bath from band and coupling tables.

    omega2 > omega1 is required everywhere; a violation means the bands
    were mislabeled upstream (it would also make the Landau radicand
    n1 - n2 negative at finite temperature).
    """
    q = np.asarray(q, dtype=float)
    omega1 = np.asarray(omega1, dtype=float)
    omega2 = np.asarray(omega2, dtype=float)
    if np.any(omega1 <= 0) or np.any(omega2 <= omega1):
        bad = q[(omega1 <= 0) | (omega2 <= omega1)]
        raise BathConstructionError(
            f"band ordering 0 < omega1 < omega2 violated at q = {bad[:5]}")
    n1 = thermal_occupation(omega1, temperature)
    n2 = thermal_occupation(omega2, temperature)
    radicand = n1 - n2
    if np.any(radicand < 0):
        raise BathConstructionError(
            "negative Landau radicand n1 - n2; bands mislabeled")
    return BathSpectrum(
        q=q, omega1=omega1, omega2=omega2,
        omega_l=(omega2 - omega1) - 1j * epsilon,
        omega_b=(omega1 + omega2) - 1j * epsilon,
        n1=n1, n2=n2,
        nl=np.sqrt(radicand),
        nb=np.sqrt(n1 + n2 + 1.0),
        g_landau=np.asarray(g_landau, dtype=complex),
        g_beliaev=np.asarray(g_beliaev, dtype=complex),
        temperature=float(temperature), epsilon=float(epsilon),
    )
