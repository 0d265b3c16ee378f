"""Analytic continuation of the polariton Green's function and pole search.

The retarded G is known in closed form as 1/(z - omega_s - Sigma(z)) with a
finite-sum self-energy, so its reciprocal r(z) = 1/G(z) is, exactly,

    r(z) = z - c0 - sum_j a_j / (z - x_j + i eps),    a_j >= 0,

with simple poles only on the line Im z = -eps.  Continuation from
real-axis data therefore proceeds by reconstructing this meromorphic form:
the pole density a_j is recovered by non-negative least squares against a
Lorentzian comb fitted to Im r(omega), the constant c0 from Re r.  The
model is analytic by construction and extends to any depth.

A direct Cauchy-Riemann marching backend (Fourier multiplier with spectral
filtering) is provided as an independent cross-check; it is only valid
above the singular line (depth < eps), because the downward multiplier
exp(nu*t) overruns the exp(-eps*t) decay of the data's time content at
nu = eps — no marching scheme can cross a quasi-dense pole line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .params import ConfigError
from .response import NumericsError, Response


# -- branch-point smoothing ------------------------------------------------

def smooth_spectral(omega, rho, width: float, w_floor: float = 1e-8):
    """Gaussian smoothing of a spectral function plus a uniform weak floor.

    Rounds off branch points (band edges) and mimics phonon modes at all
    real frequencies coupled extremely weakly to the polariton.  Total
    spectral weight is preserved.
    """
    if width <= 0:
        raise ConfigError(f"smoothing width must be > 0, got {width}")
    omega = np.asarray(omega, dtype=float)
    rho = np.asarray(rho, dtype=float)
    h = omega[1] - omega[0]
    half = int(np.ceil(6.0 * width / h))
    x = np.arange(-half, half + 1) * h
    kernel = np.exp(-0.5 * (x / width) ** 2)
    kernel /= kernel.sum()
    smoothed = np.convolve(rho, kernel, mode="same")
    # edge renormalization: the kernel mass lost off-grid near the ends
    norm = np.convolve(np.ones_like(rho), kernel, mode="same")
    smoothed /= norm
    total = np.trapezoid(rho, omega)
    span = omega[-1] - omega[0]
    smoothed = smoothed + w_floor * total / span
    smoothed *= total / np.trapezoid(smoothed, omega)
    return smoothed


# -- meromorphic reconstruction -------------------------------------------

@dataclass(frozen=True)
class MeromorphicModel:
    """Fitted reciprocal Green's function r(z) = z - c0 - sum a/(z - x + i eps)."""

    c0: float
    centers: np.ndarray
    weights: np.ndarray
    eps: float
    fit_residual: float

    def inverse_green(self, z):
        z = np.asarray(z, dtype=complex)
        out = z - self.c0
        # points exactly on a comb node are poles of 1/G; let them evaluate
        # to inf without runtime warnings
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(0, len(self.centers), 256):
                out = out - (self.weights[i:i + 256]
                             / (z[..., None] - self.centers[i:i + 256]
                                + 1j * self.eps)).sum(axis=-1)
        return out

    def green(self, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / self.inverse_green(z)


def reconstruct_meromorphic(omega, g_values, eps: float) -> MeromorphicModel:
    """Fit the pole-comb model to real-axis Green's function samples.

    Im(1/G) >= 0 on the real axis is a sum of Lorentzians of width eps
    centered on the bath frequencies; NNLS against a comb of Lorentzians at
    the grid resolution recovers the weight density, and the constant c0
    follows from the real part.
    """
    omega = np.asarray(omega, dtype=float)
    r = 1.0 / np.asarray(g_values, dtype=complex)
    im = np.imag(r)
    if np.min(im) < -1e-10:
        raise NumericsError(
            f"Im(1/G) negative on the real axis (min {np.min(im):.3e}); "
            "input is not a retarded Green's function")
    h = omega[1] - omega[0]
    centers = np.arange(omega[0] - 5 * eps, omega[-1] + 5 * eps, h)
    design = eps / ((omega[:, None] - centers[None, :]) ** 2 + eps ** 2)
    weights, resid = scipy.optimize.nnls(design, im)
    keep = weights > 0
    centers, weights = centers[keep], weights[keep]
    re_sum = (weights[None, :] * (omega[:, None] - centers[None, :])
              / ((omega[:, None] - centers[None, :]) ** 2 + eps ** 2)).sum(axis=1)
    c0 = float(np.mean(omega - np.real(r) - re_sum))
    return MeromorphicModel(c0=c0, centers=centers, weights=weights,
                            eps=eps, fit_residual=float(resid))


# -- complex grids ---------------------------------------------------------

@dataclass(frozen=True)
class ComplexGrid:
    """G sampled on z = omega - i nu; values[k, j] = G(omega[j] - i nu[k]).

    The nu = 0 row holds the real-axis input data verbatim; deeper rows are
    the continuation.
    """

    omega: np.ndarray
    nu: np.ndarray
    values: np.ndarray

    @property
    def h_omega(self) -> float:
        return float(self.omega[1] - self.omega[0])

    @property
    def h_nu(self) -> float:
        return float(self.nu[1] - self.nu[0])

    def z(self):
        return self.omega[None, :] - 1j * self.nu[:, None]


def continue_green(omega, g_values, eps: float,
                   nu_max: float = 0.5, n_nu: int = 256):
    """Continue real-axis G data into the lower half-plane.

    Returns (ComplexGrid, MeromorphicModel).  The grid's omega axis is the
    data axis; row 0 is the data itself, rows below are evaluations of the
    reconstructed meromorphic model.
    """
    omega = np.asarray(omega, dtype=float)
    g_values = np.asarray(g_values, dtype=complex)
    model = reconstruct_meromorphic(omega, g_values, eps)
    nu = np.linspace(0.0, nu_max, n_nu)
    values = np.empty((n_nu, len(omega)), dtype=complex)
    values[0] = g_values
    for k in range(1, n_nu):
        values[k] = model.green(omega - 1j * nu[k])
    return ComplexGrid(omega=omega, nu=nu, values=values), model


def cauchy_riemann_residual(grid: ComplexGrid, skip_rows: int = 2,
                            skip_cols: int = 2):
    """Pointwise analyticity certificate |df/dnu + i df/domega| (4th order).

    For f(omega, nu) = F(omega - i nu) analytic the residual vanishes; the
    returned map is normalized by the local gradient magnitude so it is
    dimensionless.  Rows/columns too close to the boundary (and the
    verbatim data row) are returned as NaN.
    """
    f = grid.values
    res = np.full(f.shape, np.nan)
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    dfo = sum(c[i] * f[:, i:f.shape[1] - 4 + i] for i in range(5)) / grid.h_omega
    dfn = sum(c[i] * f[i:f.shape[0] - 4 + i, :] for i in range(5)) / grid.h_nu
    num = np.abs(dfn[:, 2:-2] + 1j * dfo[2:-2, :])
    den = np.abs(dfn[:, 2:-2]) + np.abs(dfo[2:-2, :]) + 1e-30
    res[2:-2, 2:-2] = num / den
    res[:max(skip_rows, 2), :] = np.nan
    res[:, :max(skip_cols, 2)] = np.nan
    res[:, -max(skip_cols, 2):] = np.nan
    return res


# -- Cauchy-Riemann marching (cross-check backend) ------------------------

def march_cauchy_riemann(omega, g_values, nu_max: float, n_nu: int = 64,
                         growth_limit: float = 1e5,
                         instability_threshold: float = 1e-3):
    """Downward continuation by the Fourier-multiplier solution of the
    Cauchy-Riemann equations, with spectral filtering.

    Valid only for nu_max well above the pole line of G and on grids fine
    enough to resolve the shallowest pole (depth * pi/h large); otherwise
    the amplified content at the spectral cutoff trips the instability
    detector.  A quintic matching value, slope and curvature at both ends
    is subtracted so the periodized data is C^2 (the quintic is entire and
    restored exactly on every row); residual periodization leakage sets the
    accuracy floor.
    """
    omega = np.asarray(omega, dtype=float)
    g_values = np.asarray(g_values, dtype=complex)
    n = len(omega)
    h = omega[1] - omega[0]
    span = omega[-1] - omega[0]
    f0, f1 = g_values[0], g_values[-1]
    d0 = (-3 * g_values[0] + 4 * g_values[1] - g_values[2]) / (2 * h)
    d1 = (3 * g_values[-1] - 4 * g_values[-2] + g_values[-3]) / (2 * h)
    c0 = (2 * g_values[0] - 5 * g_values[1] + 4 * g_values[2] - g_values[3]) / h ** 2
    c1 = (2 * g_values[-1] - 5 * g_values[-2] + 4 * g_values[-3] - g_values[-4]) / h ** 2
    s = (omega - omega[0]) / span

    def background(s_arr):
        s2, s3 = s_arr ** 2, s_arr ** 3
        s4, s5 = s_arr ** 4, s_arr ** 5
        return (f0 * (1 - 10 * s3 + 15 * s4 - 6 * s5)
                + span * d0 * (s_arr - 6 * s3 + 8 * s4 - 3 * s5)
                + span ** 2 * c0 * (0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5)
                + f1 * (10 * s3 - 15 * s4 + 6 * s5)
                + span * d1 * (-4 * s3 + 7 * s4 - 3 * s5)
                + span ** 2 * c1 * (0.5 * s3 - s4 + 0.5 * s5))

    fhat = np.fft.fft(g_values - background(s))
    t = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    data_scale = np.max(np.abs(fhat))

    nu = np.linspace(0.0, nu_max, n_nu)
    values = np.empty((n_nu, n), dtype=complex)
    values[0] = g_values
    t_nyquist = np.pi / h
    for k in range(1, n_nu):
        t_max = np.log(growth_limit) / nu[k]
        filt = np.exp(-(np.maximum(t, 0.0) / t_max) ** 8)
        amplified = fhat * np.exp(nu[k] * np.minimum(t, t_max)) * filt
        # amplified content at the effective cutoff (filter edge or grid
        # Nyquist, whichever bites first) bounds the achievable accuracy
        t_cut = min(t_max, t_nyquist)
        edge = t > 0.9 * t_cut
        edge_peak = np.max(np.abs(amplified[edge])) if np.any(edge) else 0.0
        if edge_peak > instability_threshold * data_scale:
            raise NumericsError(
                f"Cauchy-Riemann marching unstable at nu = {nu[k]:.4g}: "
                f"cutoff-band amplitude {edge_peak / data_scale:.2e} of the "
                "data scale (unresolved or crossed pole line)")
        row = np.fft.ifft(amplified)
        z_s = (omega - 1j * nu[k] - omega[0]) / span
        values[k] = row + background(z_s)
    return ComplexGrid(omega=omega, nu=nu, values=values)


# -- pole search -----------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    z: complex
    residue: complex
    label: str = ""


@dataclass(frozen=True)
class PoleSet:
    poles: list
    y: float = float("nan")
    failed_seeds: tuple = ()


def _newton_zero(inverse_green, z0, h: float, tol: float, max_iter: int):
    z = complex(z0)
    for _ in range(max_iter):
        f = inverse_green(z)
        d = (inverse_green(z + h) - inverse_green(z - h)) / (2.0 * h)
        if d == 0:
            return None
        dz = f / d
        z = z - dz
        if abs(dz) < tol:
            return z
    return None


def _contour_residue(green, z0, radius: float, n: int = 64):
    theta = 2.0 * np.pi * np.arange(n) / n
    zs = z0 + radius * np.exp(1j * theta)
    vals = np.array([complex(green(z)) for z in zs])
    return np.mean(vals * radius * np.exp(1j * theta))


def find_poles(evaluator, seeds, h: float = 1e-6, tol: float = 1e-10,
               max_iter: int = 50, dedup: float = 1e-7) -> PoleSet:
    """Newton search on 1/G from the given complex seeds.

    evaluator needs .inverse_green and .green (a Response or a
    MeromorphicModel).  Converged roots are deduplicated, restricted to the
    open lower half-plane, and returned sorted by |Im z| with residues from
    a circular contour quadrature.  Seeds that fail to converge are
    reported, not dropped.
    """
    inv = lambda z: complex(evaluator.inverse_green(z))
    found = []
    failed = []
    for z0 in seeds:
        z = _newton_zero(inv, z0, h, tol, max_iter)
        if z is None or z.imag >= 0 or abs(inv(z)) > 1e-8:
            failed.append(complex(z0))
            continue
        if any(abs(z - zp) < dedup for zp in found):
            continue
        found.append(z)
    found.sort(key=lambda z: abs(z.imag))
    poles = []
    for z in found:
        radius = max(min(abs(z.imag) / 3.0, 1e-4), 10.0 * tol)
        res = _contour_residue(evaluator.green, z, radius)
        poles.append(Pole(z=z, residue=res))
    return PoleSet(poles=poles, failed_seeds=tuple(failed))


def companion_pole_candidates(resp: Response):
    """All poles of the closed-form G as eigenvalues of one matrix.

    1/G(z) = z - omega_s - sum_q w_q/(z - omega_q) is the characteristic
    function of the arrowhead matrix [[omega_s, v^T], [v, diag(omega_q)]]
    with v_q = sqrt(w_q), so its zeros (= all dressed poles, polariton and
    collective phonon alike) come out of a single dense eigensolve.  Used
    to seed the Newton search; each candidate is then polished and verified
    on 1/G itself.
    """
    freqs = []
    weights = []
    for channel in ("landau", "beliaev"):
        w, om = resp.bath.pole_weights(channel, resp.params, resp.dos_mode)
        active = w > 0
        freqs.append(om[active])
        weights.append(w[active])
    freqs = np.concatenate(freqs)
    weights = np.concatenate(weights)
    m = len(freqs) + 1
    arrow = np.zeros((m, m), dtype=complex)
    arrow[0, 0] = resp.omega_s
    arrow[0, 1:] = np.sqrt(weights)
    arrow[1:, 0] = np.sqrt(weights)
    arrow[np.arange(1, m), np.arange(1, m)] = freqs
    return np.linalg.eigvals(arrow)


def spectral_peak_seeds(omega, rho, n_peaks: int = 10):
    """Pole seeds at spectral maxima, pushed down by the half-width."""
    rho = np.asarray(rho, dtype=float)
    omega = np.asarray(omega, dtype=float)
    idx = np.where((rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:]))[0] + 1
    idx = idx[np.argsort(-rho[idx])][:n_peaks]
    seeds = []
    for i in idx:
        half = rho[i] / 2.0
        j = i
        while j + 1 < len(rho) and rho[j] > half:
            j += 1
        halfwidth = max(omega[j] - omega[i], omega[1] - omega[0])
        seeds.append(omega[i] - 1j * halfwidth)
    return seeds


def pole_sweep(p, y_values, omega_window=(0.0, 3.0), n_omega: int = 2048,
               n_track: int = 2, dos_mode: str = "3d"):
    """Track the n_track smallest-|Im| poles of G across a pump sweep.

    Per point the exact finite-sum evaluator is used (the self-energy is
    meromorphic for eps > 0, so no grid continuation is needed for the pole
    positions).  Trajectories are matched across y by minimal total
    displacement in the complex plane.
    """
    from .response import build_response

    grid = np.linspace(*omega_window, n_omega)
    records = []
    prev = None
    for y in y_values:
        resp = build_response(p.with_pump(float(y)), dos_mode=dos_mode)
        rho = resp.spectral(grid)
        seeds = list(spectral_peak_seeds(grid, rho))
        # collective phonon poles hide in tight pole-zero dipoles on the
        # bath line; the companion eigensolve locates them all, and the few
        # most detached ones are handed to Newton for polish + residues
        cand = companion_pole_candidates(resp)
        cand = cand[(cand.real >= omega_window[0])
                    & (cand.real <= omega_window[1]) & (cand.imag < 0)]
        cand = cand[np.argsort(np.abs(cand.imag))][:n_track + 4]
        seeds += list(cand)
        ps = find_poles(resp, seeds)
        if len(ps.poles) < n_track:
            raise NumericsError(
                f"only {len(ps.poles)} poles located at y = {y} "
                f"(need {n_track}); failed seeds: {ps.failed_seeds}")
        if prev is None:
            chosen = [pl for pl in ps.poles[:n_track]]
        else:
            chosen = _match_tracks(prev, ps.poles, n_track)
        records.append({"y": float(y), "poles": chosen,
                        "residues": [pl.residue for pl in chosen]})
        prev = [pl.z for pl in chosen]
    return records


def _match_tracks(prev, poles, n_track):
    """Assign current poles to previous tracks by minimal total displacement."""
    from itertools import permutations

    cand = poles[:min(len(poles), n_track + 3)]
    best, best_cost = None, np.inf
    for combo in permutations(range(len(cand)), n_track):
        cost = sum(abs(cand[j].z - prev[i]) for i, j in enumerate(combo))
        if cost < best_cost:
            best_cost, best = cost, combo
    return [cand[j] for j in best]
