"""Stationary mean field of the pumped cavity-condensate system.

The steady state is a root of four coupled real equations for the photon
amplitude alpha, the condensate amplitudes beta (homogeneous) and gamma
(cosine mode) and the chemical potential mu, closed by the normalization
|beta|^2 + |gamma|^2 = 1.  All amplitudes are taken real (the equations
admit a global phase); above threshold the gamma > 0 representative of the
two Z2-related self-organized solutions is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ThermoParams, ConfigError, critical_coupling


class ConvergenceError(RuntimeError):
    """Root finder failed to reach tolerance."""


class CriticalPointError(RuntimeError):
    """Requested pump strength is too close to the critical point.

    The Jacobian of the stationary equations is singular at y_crit, so
    solves inside a tiny window around it are refused rather than returned
    with degraded accuracy.
    """


TOL = 1e-12
MAX_ITER = 200
CRIT_WINDOW = 1e-6  # relative half-width of the refused window around y_crit


@dataclass(frozen=True)
class MeanField:
    """Stationary amplitudes at one pump strength (real gauge)."""

    alpha: float
    beta: float
    gamma: float
    mu: float

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.mu])


def residual(p: ThermoParams, y: float, x: np.ndarray) -> np.ndarray:
    """Stationary equations; x = (alpha, beta, gamma, mu)."""
    a, b, g, mu = x
    gt = p.g_coll
    u = p.u
    return np.array([
        -p.cavity_detuning * a + y * b * g + u * (2 * b * b + 3 * g * g) * a,
        -mu * b + y * a * g + 2 * u * a * a * b + gt * (b ** 3 + 3 * b * g * g),
        (1.0 - mu) * g + y * a * b + 3 * u * a * a * g
        + gt * (1.5 * g ** 3 + 3 * b * b * g),
        b * b + g * g - 1.0,
    ])


def jacobian(p: ThermoParams, y: float, x: np.ndarray) -> np.ndarray:
    a, b, g, mu = x
    gt = p.g_coll
    u = p.u
    return np.array([
        [-p.cavity_detuning + u * (2 * b * b + 3 * g * g),
         y * g + 4 * u * b * a, y * b + 6 * u * g * a, 0.0],
        [y * g + 4 * u * a * b,
         -mu + 2 * u * a * a + gt * (3 * b * b + 3 * g * g),
         y * a + 6 * gt * b * g, -b],
        [y * b + 6 * u * a * g, y * a + 6 * gt * b * g,
         1.0 - mu + 3 * u * a * a + gt * (4.5 * g * g + 3 * b * b), -g],
        [0.0, 2 * b, 2 * g, 0.0],
    ])


def solve_normal_phase(p: ThermoParams) -> MeanField:
    """Normal-phase solution (alpha, beta, gamma) = (0, 1, 0), mu = g_coll.

    Only valid below threshold.
    """
    y_crit = critical_coupling(p)
    if p.y >= y_crit:
        raise ConfigError(
            f"normal phase requested at y = {p.y} >= y_crit = {y_crit}")
    return MeanField(alpha=0.0, beta=1.0, gamma=0.0, mu=p.g_coll)


def _newton(p, y, x0, damping=1.0, max_iter=MAX_ITER):
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        r = residual(p, y, x)
        if np.max(np.abs(r)) < TOL:
            return x
        jac = jacobian(p, y, x)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        # backtracking keeps the iteration inside the branch's basin
        lam = damping
        norm0 = np.max(np.abs(r))
        for _ in range(30):
            xn = x + lam * step
            if np.max(np.abs(residual(p, y, xn))) < norm0 or lam < 1e-6:
                break
            lam *= 0.5
        x = xn
    r = residual(p, y, x)
    if np.max(np.abs(r)) < TOL:
        return x
    return None


def _canonical(x):
    a, b, g, mu = x
    if b < 0:  # global phase: flip both condensate amplitudes
        b, g = -b, -g
    if g < 0:  # Z2: flip photon and cosine amplitudes together
        a, g = -a, -g
    return np.array([a, b, g, mu])


def _organized_seed(p, y, y_crit):
    gt = p.g_coll
    frac = max(0.0, 1.0 - (y_crit / y) ** 2)
    g0 = min(0.9, math.sqrt(frac) if frac > 0 else 0.05)
    g0 = max(g0, 1e-3)
    b0 = math.sqrt(1.0 - g0 * g0)
    denom = -p.cavity_detuning + p.u * (2 * b0 * b0 + 3 * g0 * g0)
    a0 = -y * b0 * g0 / denom
    mu0 = (y * a0 * g0 + 2 * p.u * a0 * a0 * b0
           + gt * (b0 ** 3 + 3 * b0 * g0 * g0)) / b0
    return np.array([a0, b0, g0, mu0])


def solve_steady_state(p: ThermoParams) -> MeanField:
    """Newton solve of the stationary equations at pump strength p.y.

    Below threshold converges to the normal phase; above threshold to the
    gamma > 0 self-organized branch, from branch-appropriate seeds.
    """
    y = p.y
    y_crit = critical_coupling(p)
    if abs(y - y_crit) < CRIT_WINDOW * y_crit:
        raise CriticalPointError(
            f"y = {y} within {CRIT_WINDOW:.0e} (relative) of y_crit = {y_crit}; "
            "Jacobian is singular at the critical point")

    if y < y_crit:
        seeds = [np.array([0.0, 1.0, 0.0, p.g_coll])]
    else:
        seeds = [_organized_seed(p, y, y_crit),
                 _organized_seed(p, y, y_crit) * [1.0, 1.0, 2.0, 1.0]
                 + [0.0, 0.0, 0.0, 0.1]]

    x = None
    for x0 in seeds:
        x = _newton(p, y, x0)
        if x is not None:
            break
    if x is None:
        # damped iteration fallback: heavier damping, longer leash
        for x0 in seeds:
            x = _newton(p, y, x0, damping=0.2, max_iter=5 * MAX_ITER)
            if x is not None:
                break
    if x is None:
        raise ConvergenceError(
            f"mean-field solve failed to converge at y = {y}")

    x = _canonical(x)
    if y > y_crit and abs(x[2]) < 1e-8:
        # Newton fell back onto the (unstable) normal branch; push off it
        x = _newton(p, y, _organized_seed(p, y, y_crit), damping=0.5,
                    max_iter=5 * MAX_ITER)
        if x is None or abs(x[2]) < 1e-8:
            raise ConvergenceError(
                f"could not reach the self-organized branch at y = {y}")
        x = _canonical(x)
    return MeanField(alpha=x[0], beta=x[1], gamma=x[2], mu=x[3])

