"""Self-energies, Born-Markov damping rates and the polariton response.

The soft polariton couples to the Landau and Beliaev composite phonon
modes; integrating the bath out gives the finite-sum self-energies

    Sigma^X(z) = (1/N_c) sum_q w_q |g^X_q|^2 (N^X_q)^2 / (z - omega^X_q),

with w_q = 1 (1D density of modes) or (1/2pi)(q w)^2 (3D), and the closed
polariton Green's function G(z) = 1/(z - omega_s - Sigma^L(z) - Sigma^B(z)).
The real-axis spectral function is rho(omega) = -2 Im G(omega).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .params import ThermoParams, critical_coupling, momentum_grid
from .meanfield import MeanField, solve_steady_state
from .hamiltonian import ModelExpansion
from .bogoliubov import DiagonalizationError, ModeSet, diagonalize_symplectic
from .coupling import soft_mode_couplings
# not called here: perfbench/tracer.py wraps it under this module's name
# and reports its call count, which the array-first path keeps at zero
from .coupling import vertex_coefficients  # noqa: F401
from .bath import BathSpectrum, build_bath_spectrum


class NumericsError(RuntimeError):
    """Numerical failure outside root finding (pole collisions, instability)."""


_Z_CHUNK = 4096  # cap on len(z) * n_q intermediates when evaluating sums


def self_energy(channel: str, z, bath: BathSpectrum, p: ThermoParams,
                dos_mode: str = "3d"):
    """Evaluate Sigma^channel at real or complex z (scalar or array)."""
    weights, om = bath.pole_weights(channel, p, dos_mode)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z_arr.shape, dtype=complex)
    step = max(1, _Z_CHUNK // max(1, len(om)))
    for i in range(0, len(z_arr), step):
        denom = z_arr[i:i + step, None] - om[None, :]
        if bath.epsilon == 0.0:
            hit = np.abs(denom) < 1e-12
            if np.any(hit):
                raise NumericsError(
                    "self-energy evaluated on a bath frequency with epsilon = 0")
        out[i:i + step] = (weights[None, :] / denom).sum(axis=1)
    return out if np.ndim(z) else complex(out[0])


@dataclass(frozen=True)
class BornMarkovResult:
    """Additive shift/rate per channel from Sigma evaluated at omega_s."""

    omega_s: float
    delta_l: float
    gamma_l: float
    delta_b: float
    gamma_b: float

    @property
    def pole(self) -> complex:
        return (self.omega_s + self.delta_l + self.delta_b
                - 1j * (self.gamma_l + self.gamma_b))


@dataclass(frozen=True)
class Response:
    """Soft-mode frequency plus bath, ready for response evaluations."""

    params: ThermoParams
    mf: MeanField
    omega_s: float
    soft_index: int
    polariton: ModeSet
    bath: BathSpectrum
    dos_mode: str = "3d"

    def self_energy(self, channel, z):
        return self_energy(channel, z, self.bath, self.params, self.dos_mode)

    def inverse_green(self, z):
        return (np.asarray(z, dtype=complex) - self.omega_s
                - self.self_energy("landau", z) - self.self_energy("beliaev", z))

    def green(self, z):
        return 1.0 / self.inverse_green(z)

    def spectral(self, omega_grid):
        """rho(omega) = -2 Im G on a real grid."""
        return -2.0 * np.imag(self.green(np.asarray(omega_grid, dtype=float)))

    def born_markov(self) -> BornMarkovResult:
        sl = self.self_energy("landau", self.omega_s)
        sb = self.self_energy("beliaev", self.omega_s)
        return BornMarkovResult(omega_s=self.omega_s,
                                delta_l=sl.real, gamma_l=-sl.imag + 0.0,
                                delta_b=sb.real, gamma_b=-sb.imag + 0.0)


def build_response(p: ThermoParams, mf: MeanField | None = None,
                   dos_mode: str = "3d") -> Response:
    """Full pipeline at one parameter point: mean field, soft mode, bands,
    couplings, bath.

    Bands at -q are the complex conjugates of those at +q, so only the
    positive half of the momentum grid is diagonalized; each entry carries
    degeneracy 2 in the bath sums.  The momentum stage is array-first: the
    stack of all G(q) goes through one diagonalize_symplectic call, and
    soft_mode_couplings contracts the soft-mode row of V with the stacked
    eigenvectors for every q at once.  Band labels are by ascending
    frequency (the two lowest branches feed the Landau/Beliaev pairs).
    """
    if mf is None:
        mf = solve_steady_state(p)
    exp = ModelExpansion(p, mf)
    pol = diagonalize_symplectic(exp.polariton_matrix(), sector="polariton")
    soft_index = 0  # photon-like branch sits near -Delta_C, far above
    omega_s = float(pol.frequencies[soft_index])
    v_tensor, _ = exp.interaction_tensors()

    grid = momentum_grid(p)
    q_half = grid[grid > 0]
    try:
        phonons = diagonalize_symplectic(exp.phonon_matrix(q_half),
                                         sector="phonon")
    except DiagonalizationError as exc:
        raise DiagonalizationError(f"q = {q_half[exc.index]:g}: {exc}",
                                   exc.index) from exc
    g_l, g_b = soft_mode_couplings(v_tensor, pol, soft_index, phonons.right)

    bath = build_bath_spectrum(q_half, phonons.frequencies[:, 0],
                               phonons.frequencies[:, 1], g_l, g_b,
                               p.temperature, p.phonon_damping)
    return Response(params=p, mf=mf, omega_s=omega_s, soft_index=soft_index,
                    polariton=pol, bath=bath, dos_mode=dos_mode)


def spectral_sum_rule(resp: Response, halfwidth: float = 50.0,
                      step: float | None = None):
    """Trapezoidal integral of rho over a wide grid, divided by 2 pi.

    Should come out 1 (the equal-time commutator); the grid spans the
    support with margin `halfwidth` and resolves the Lorentzian scale
    epsilon.
    """
    eps = max(resp.bath.epsilon, 1e-4)
    if step is None:
        step = eps / 5.0
    lo = min(0.0, resp.omega_s) - halfwidth
    hi = max(resp.omega_s, float(np.max(resp.bath.omega_b.real))) + halfwidth
    grid = np.arange(lo, hi + step, step)
    # the dressed polariton pole can be much narrower than epsilon; refine
    # a window around it so the trapezoid resolves the Lorentzian
    bm = resp.born_markov()
    width = max(bm.gamma_l + bm.gamma_b, 1e-9)
    if width < eps:
        center = bm.omega_s + bm.delta_l + bm.delta_b
        fine = np.arange(center - 200.0 * width, center + 200.0 * width,
                         width / 10.0)
        grid = np.unique(np.concatenate([grid, fine]))
    rho = resp.spectral(grid)
    return float(np.trapezoid(rho, grid) / (2.0 * np.pi)), grid, rho


# -- sweep drivers ---------------------------------------------------------

def _sweep_point(args):
    p, y, epsilons, temperatures, dos_mode = args
    mf = solve_steady_state(p.with_pump(y))
    rows = []
    base = build_response(p.with_pump(y), mf=mf, dos_mode=dos_mode)
    for eps in epsilons:
        for temp in temperatures:
            bath = build_bath_spectrum(
                base.bath.q, base.bath.omega1, base.bath.omega2,
                base.bath.g_landau, base.bath.g_beliaev, temp, eps)
            resp = replace(base, bath=bath,
                           params=replace(p.with_pump(y), phonon_damping=eps,
                                          temperature=temp))
            rows.append((eps, temp, resp.born_markov()))
    return y, base.omega_s, rows


def damping_sweep(p: ThermoParams, y_values, epsilons=(0.01,),
                  temperatures=(None,), dos_mode: str = "3d",
                  workers: int | None = None):
    """Born-Markov rates over a pump sweep, for each (epsilon, T) pair.

    Bands and couplings are computed once per y and shared across the
    epsilon/temperature variations (they only alter the bath bookkeeping).
    Returns a list of records, ordered as the inputs.
    """
    temperatures = [p.temperature if t is None else t for t in temperatures]
    tasks = [(p, float(y), tuple(epsilons), tuple(temperatures), dos_mode)
             for y in y_values]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]

    y_crit = critical_coupling(p)
    records = []
    for y, omega_s, rows in results:
        for eps, temp, bm in rows:
            records.append({
                "y": y, "y_frac": y / y_crit, "epsilon": eps,
                "temperature": temp, "omega_s": omega_s,
                "delta_l": bm.delta_l, "gamma_l": bm.gamma_l,
                "delta_b": bm.delta_b, "gamma_b": bm.gamma_b,
            })
    return records

