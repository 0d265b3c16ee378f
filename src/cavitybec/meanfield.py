"""Stationary mean field of the pumped cavity-condensate system.

The steady state is a root of four coupled real equations (`residual`) for
the photon amplitude alpha, the condensate amplitudes beta (homogeneous) and
gamma (cosine mode) and the chemical potential mu, closed by the
normalization beta^2 + gamma^2 = 1.  All amplitudes are taken real (the
equations admit a global phase); of the two Z2-related self-organized
solutions the one with beta, gamma > 0 is reported.

The equations reduce to one cubic in s = gamma^2.  With g = g_coll,
d0 = -Delta_C + 2u and D = d0 + u s, equation 0 gives
alpha = -y beta gamma / D and equation 1 over beta
mu = -y^2 s / D + 2u alpha^2 + g (beta^2 + 3 gamma^2); equation 2 over gamma,
f(s) = 1 + g (2 - 3.5 s) + y^2 (2s - 1) / D + u y^2 s (1 - s) / D^2 = 0,
times D^2 is c0 + c1 s + c2 s^2 + c3 s^3 with c0 = d0^2 (1 + 2g)
(1 - y^2 / y_crit^2), c1 = 2 (1 + 2g) d0 u - 3.5 g d0^2 + 2 y^2 d0,
c2 = (1 + 2g) u^2 - 7 g d0 u + y^2 u and c3 = -3.5 g u^2 (linear at u = 0).
So s = 0 is the normal state, s = 1 forces alpha = 0 and mu = 1 + 1.5 g,
and every other state with D != 0 is a root of the cubic in (0, 1).  Above
threshold (c0 < 0) the ordered state is the cubic's smallest root in
(0, 1), the one that leaves s = 0 at y_crit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import reduce

import numpy as np

from .params import ThermoParams, ConfigError, critical_coupling


class ConvergenceError(RuntimeError):
    """No ordered stationary state within tolerance."""


class CriticalPointError(RuntimeError):
    """Requested pump strength is too close to the critical point.

    The Jacobian of the stationary equations is singular at y_crit, so
    solves inside a tiny window around it are refused rather than returned
    with degraded accuracy.
    """


TOL = 1e-12
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


def _equation_terms(p: ThermoParams, y: float, x: np.ndarray):
    """The summands of each stationary equation, in the order residual
    adds them; x = (alpha, beta, gamma, mu)."""
    a, b, g, mu = x
    gt = p.g_coll
    u = p.u
    return (
        (-p.cavity_detuning * a, y * b * g, u * (2 * b * b + 3 * g * g) * a),
        (-mu * b, y * a * g, 2 * u * a * a * b,
         gt * (b ** 3 + 3 * b * g * g)),
        ((1.0 - mu) * g, y * a * b, 3 * u * a * a * g,
         gt * (1.5 * g ** 3 + 3 * b * b * g)),
        (b * b, g * g, -1.0),
    )


def residual(p: ThermoParams, y: float, x: np.ndarray) -> np.ndarray:
    """Stationary equations; x = (alpha, beta, gamma, mu)."""
    return np.array([reduce(operator.add, terms)
                     for terms in _equation_terms(p, y, x)])


def _scaled_residual(p: ThermoParams, y: float, x: np.ndarray):
    """|residual| of each equation over max(1, its largest |summand|).

    The residual of a state correct to rounding is a few ulps of the
    equation's largest term, so at |mu| ~ 1e4 it can read 1e-12 although
    the state matches a 40-digit root; relative to its terms it does not.
    """
    return np.array([abs(reduce(operator.add, terms))
                     / max(1.0, *(abs(t) for t in terms))
                     for terms in _equation_terms(p, y, x)])


def solve_normal_phase(p: ThermoParams) -> MeanField:
    """Normal-phase solution (alpha, beta, gamma) = (0, 1, 0), mu = g_coll.

    Only valid below threshold.
    """
    y_crit = critical_coupling(p)
    if p.y >= y_crit:
        raise ConfigError(
            f"normal phase requested at y = {p.y} >= y_crit = {y_crit}")
    return MeanField(alpha=0.0, beta=1.0, gamma=0.0, mu=p.g_coll)


# Brent's stopping rule and iteration cap: half-interval below
# (_BRENT_XTOL + _BRENT_RTOL |s|) / 2, the finest rtol scipy's brentq allows
# (Python floats, so that every iterate is one)
_BRENT_XTOL = 1e-300
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def _brent_root(f, xpre, xcur):
    """Root of f in [xpre, xcur], given f(xpre) <= 0 <= f(xcur).

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) in the order of operations of scipy's
    brentq, whose iterates it reproduces bit for bit: inverse quadratic or
    secant steps, a bisection whenever a step would not shrink the
    bracket fast enough, and steps of at least the tolerance.
    """
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep xcur the better end
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short enough step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero denominator bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ConvergenceError(
        f"mean-field cubic: Brent's method did not converge in "
        f"{_BRENT_MAXITER} steps; last s = {xcur!r}")


def _smallest_root(c):
    """Smallest root in (0, 1) of c0 + c1 s + c2 s^2 + c3 s^3 with c0 < 0,
    or None.  Cut at the roots of the derivative (formed without
    cancellation; a spare cut does no harm), the cubic is monotonic on each
    piece, so the root lies in the first piece that ends >= 0."""
    def cubic(s):
        return ((c[3] * s + c[2]) * s + c[1]) * s + c[0]

    a, b = 3.0 * c[3], 2.0 * c[2]
    disc = max(b * b - 4.0 * a * c[1], 0.0)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    cuts = (q / a if a else 1.0, c[1] / q if q else 1.0)
    lo = 0.0
    for hi in sorted(t for t in cuts if 0.0 < t < 1.0) + [1.0]:
        if cubic(hi) >= 0.0:
            s = _brent_root(cubic, lo, hi)
            return s if s < 1.0 else None
        lo = hi
    return None


def _ordered_state(p: ThermoParams) -> np.ndarray:
    """(alpha, beta, gamma, mu) of the cubic's smallest root in (0, 1)."""
    y, u, g = float(p.y), float(p.u), float(p.g_coll)
    detuning = float(p.cavity_detuning)
    d0 = -detuning + 2.0 * u
    with localcontext(Context(prec=60)):  # c0 cancels near y_crit
        wide_d0 = 2 * Decimal(u) - Decimal(detuning)
        c0 = wide_d0 * ((1 + 2 * Decimal(g)) * wide_d0 - Decimal(y) ** 2)
    s = _smallest_root((
        float(c0),
        2.0 * (1.0 + 2.0 * g) * d0 * u - 3.5 * g * d0 * d0 + 2.0 * y * y * d0,
        (1.0 + 2.0 * g) * u * u - 7.0 * g * d0 * u + y * y * u,
        -3.5 * g * u * u))
    if s is None:
        raise ConvergenceError(
            f"no self-organized root with 0 < gamma^2 < 1 at y = {y}")
    beta, gamma = math.sqrt(1.0 - s), math.sqrt(s)
    denom = d0 + u * s
    alpha = -y * beta * gamma / denom
    mu = (-y * y * s / denom + 2.0 * u * alpha * alpha
          + g * (beta * beta + 3.0 * gamma * gamma))
    return np.array([alpha, beta, gamma, mu])


def solve_steady_state(p: ThermoParams) -> MeanField:
    """Stationary state at pump strength p.y.

    Below threshold the normal phase; above it the state of the cubic's
    smallest root in (0, 1) (see the module docstring), refused unless
    each equation's residual is below TOL times max(1, its largest term)
    (_scaled_residual).
    """
    y = p.y
    y_crit = critical_coupling(p)
    if abs(y - y_crit) < CRIT_WINDOW * y_crit:
        raise CriticalPointError(
            f"y = {y} within {CRIT_WINDOW:.0e} (relative) of y_crit = {y_crit}; "
            "Jacobian is singular at the critical point")
    if y < y_crit:
        return solve_normal_phase(p)

    x = _ordered_state(p)
    worst = np.max(_scaled_residual(p, y, x))
    if not worst < TOL:
        raise ConvergenceError(
            f"mean-field residual {worst:.3g} (relative to the largest term "
            f"of its equation) not below TOL = {TOL:g} at y = {y}")
    return MeanField(alpha=x[0], beta=x[1], gamma=x[2], mu=x[3])
