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
from functools import lru_cache

import numpy as np

from .params import ThermoParams, critical_coupling, momentum_grid
from .meanfield import solve_steady_state
from .hamiltonian import ModelExpansion
from .bogoliubov import (DiagonalizationError, ModeSet, diagonalize_symplectic,
                         soft_mode)
from .coupling import pair_kernel, soft_mode_couplings
# not called here: perfbench/tracer.py wraps it under this module's name
# and reports its call count, which the array-first path keeps at zero
from .coupling import vertex_coefficients  # noqa: F401
from .bath import (BathSpectrum, build_bath_spectrum, check_epsilon,
                   mode_density)


class NumericsError(RuntimeError):
    """Numerical failure outside root finding (pole collisions, instability)."""


_Z_CHUNK = 64  # rows of z per block: bounds the (block, n_poles) buffers

# far field of pole_sum: a z with |u| > _FAR_RATIO R (|t| <= 1/4) is summed
# from _FAR_TERMS moments, whose truncation 3 |t|^K is below one ulp
_FAR_RATIO = 4.0
_FAR_TERMS = 28

# margin of the sum-rule grid beyond the bath band and omega_s
_SUM_RULE_MARGIN = 50.0
# smallest epsilon whose sum-rule grid (step epsilon / 5 over a window of
# ~100 + max omega_B) still resolves the bath Lorentzians
_SUM_RULE_MIN_EPS = 1e-4
# largest grid step per Born-Markov width of the polariton pole that keeps
# the sum rule's error from the refinement window's edges below ~5e-3
_SUM_RULE_MAX_STEP_PER_WIDTH = 500.0
# Newton steps that take the Born-Markov pole to the dressed one
_DRESSED_POLE_STEPS = 50


def pole_sum(z, weights, centers, eps: float):
    """sum_j weights[j] / (z - centers[j] + i eps) for real weights and centers.

    Near the poles the sum is direct: with a = Re z - x_j and
    b = Im z + eps (the same for every pole), each term is
    w_j (a - i b) / (a^2 + b^2), one real reciprocal per term, and the two
    sums are matrix-vector products against the weights.  At eps = 0 a z
    on a center is a pole collision and raises NumericsError.

    Far from them it is a one-level multipole expansion (Greengard &
    Rokhlin, J. Comput. Phys. 73, 325 (1987)).  With c the midpoint of the
    centers, R their half-range, u = z + i eps - c, t = R / u and
    s_j = (x_j - c) / R in [-1, 1],

        sum_j w_j / (u - R s_j) = (1/u) sum_k M_k t^k,  M_k = sum_j w_j s_j^k,

    summed by Horner's rule over _FAR_TERMS real moments wherever
    |u| > _FAR_RATIO R.  It is taken only when it needs fewer term
    evaluations than the direct sum, (m + n_far) K < m n_far for m poles,
    n_far far points and K terms, so a scalar z is always summed directly.
    z is scalar or any array; the result has its shape.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    weights = np.asarray(weights, dtype=float)
    centers = np.asarray(centers, dtype=float)
    m = centers.size
    # the cost rule below needs n_far > K and m > K
    if flat.size > _FAR_TERMS and m > _FAR_TERMS:
        lo, hi = np.min(centers), np.max(centers)
        c = 0.5 * (lo + hi)
        # max_j |x_j - c| as rounded, so that every |s_j| <= 1
        radius = max(hi - c, c - lo)
        if radius > 0.0:
            u = flat + (1j * eps - c)
            far = np.abs(u) > _FAR_RATIO * radius
            n_far = np.count_nonzero(far)
            if (m + n_far) * _FAR_TERMS < m * n_far:
                out = np.empty(flat.shape, dtype=complex)
                u = u[far]  # the far points only, so the full array is freed
                out[far] = _far_pole_sum(u, weights, (centers - c) / radius,
                                         radius)
                near = ~far
                out[near] = _direct_pole_sum(flat[near], weights, centers,
                                             eps)
                return out.reshape(z.shape)
    return _direct_pole_sum(flat, weights, centers, eps).reshape(z.shape)


def _direct_pole_sum(flat, weights, centers, eps: float):
    """pole_sum term by term, in blocks of _Z_CHUNK rows of z."""
    out = np.empty(flat.shape, dtype=complex)
    rows = min(_Z_CHUNK, flat.size)
    a = np.empty((rows, centers.size))
    inv = np.empty((rows, centers.size))
    for lo in range(0, flat.size, _Z_CHUNK):
        zb = flat[lo:lo + _Z_CHUNK]
        ab, ib = a[:zb.size], inv[:zb.size]
        b = zb.imag + eps
        np.subtract(zb.real[:, None], centers, out=ab)
        np.multiply(ab, ab, out=ib)
        ib += (b * b)[:, None]
        if eps == 0.0 and (ib < 1e-24).any():
            raise NumericsError(
                "pole sum evaluated on a pole with epsilon = 0")
        np.divide(1.0, ib, out=ib)
        ab *= ib
        out.real[lo:lo + zb.size] = ab @ weights
        out.imag[lo:lo + zb.size] = -b * (ib @ weights)
    return out


def _far_pole_sum(u, weights, scaled, radius: float):
    """(1/u) sum_k M_k (radius/u)^k for the scaled centers s_j in [-1, 1]."""
    moments = weights @ np.vander(scaled, _FAR_TERMS, increasing=True)
    t = radius / u
    acc = np.full(u.shape, moments[-1], dtype=complex)
    for mk in moments[-2::-1]:
        acc *= t
        acc += mk
    acc /= u
    return acc


def self_energy(channel: str, z, bath: BathSpectrum):
    """Evaluate Sigma^channel at real or complex z (scalar or array).

    A channel whose poles all have zero weight (Landau at T = 0) is zero
    everywhere, its residues being zero, and is not summed.
    """
    weights, centers = bath.pole_weights(channel)
    if weights.any():
        out = pole_sum(z, weights, centers, bath.epsilon)
    else:
        out = np.zeros(np.shape(z), dtype=complex)
    return out if np.ndim(z) else complex(out)


@dataclass(frozen=True)
class BornMarkovResult:
    """Additive shift/rate per channel from Sigma evaluated at omega_s."""

    omega_s: float
    delta_l: float
    gamma_l: float
    delta_b: float
    gamma_b: float

    @classmethod
    def from_self_energies(cls, omega_s: float, sigma_l: complex,
                           sigma_b: complex) -> BornMarkovResult:
        """Shifts Re Sigma and rates -Im Sigma (+ 0.0, so never -0.0)."""
        return cls(omega_s=omega_s,
                   delta_l=sigma_l.real, gamma_l=-sigma_l.imag + 0.0,
                   delta_b=sigma_b.real, gamma_b=-sigma_b.imag + 0.0)

    @property
    def pole(self) -> complex:
        return (self.omega_s + self.delta_l + self.delta_b
                - 1j * (self.gamma_l + self.gamma_b))


@dataclass(frozen=True)
class Response:
    """Soft-mode frequency plus the bath, whose pole table G reads."""

    omega_s: float
    bath: BathSpectrum

    def inverse_green(self, z):
        z = np.asarray(z, dtype=complex)
        return z - self.omega_s - pole_sum(z, *self.bath.active_poles,
                                           self.bath.epsilon)

    def green(self, z):
        return 1.0 / self.inverse_green(z)

    def spectral(self, omega_grid):
        """rho(omega) = -2 Im G on a real grid."""
        return -2.0 * np.imag(self.green(np.asarray(omega_grid, dtype=float)))

    def born_markov(self) -> BornMarkovResult:
        return BornMarkovResult.from_self_energies(
            self.omega_s, self_energy("landau", self.omega_s, self.bath),
            self_energy("beliaev", self.omega_s, self.bath))


def build_response(p: ThermoParams) -> Response:
    """Full pipeline at one parameter point: mean field, soft mode, bands,
    couplings, bath.

    Bands at -q are the complex conjugates of those at +q, so only the
    positive half of the momentum grid is diagonalized; each entry counts
    twice in the bath sums.  The momentum stage is array-first: the
    stack of all G(q) goes through one phonon_bands solve, and
    soft_mode_couplings contracts the soft-mode row of V with the stack's
    band-pair kernel (coupling.pair_kernel) for every q at once.  Band
    labels are by ascending frequency (the two lowest branches feed the
    Landau/Beliaev pairs).  The soft mode is the one bogoliubov.soft_mode
    picks, and the bath's density of modes is the one p.dos_mode names
    (bath.mode_density).

    Below threshold the condensate is homogeneous and the cavity empty, so
    G(q), and with it the phonon bath, does not depend on the pump; only
    the soft mode and its couplings do.  The modes and the pair kernel of
    the last two distinct G(q) stacks are therefore kept (_phonon_modes;
    the kernel takes n x 1152 B, 0.58 MB at 1001 sites), keyed by the
    bytes of G's q-coefficients and of the q grid, so a repeated stack is
    neither built nor solved again, and its couplings cost one 6x6 soft
    row and two (n x 36) products.  The returned bands are read-only
    arrays that Responses of equal stacks share.
    """
    q_half = momentum_grid(p)
    dos = mode_density(q_half, p)
    exp = ModelExpansion(p, solve_steady_state(p))
    omega_s, pol = soft_mode(exp)
    phonons, kernel = _phonon_stack(exp, q_half)
    g_l, g_b = soft_mode_couplings(exp.v_tensor(), pol, kernel)

    bath = build_bath_spectrum(q_half, phonons.frequencies[:, 0],
                               phonons.frequencies[:, 1], g_l, g_b,
                               p.temperature, p.phonon_damping, dos,
                               p.atom_number)
    return Response(omega_s=float(omega_s), bath=bath)


def phonon_bands(expansion: ModelExpansion, q_grid) -> ModeSet:
    """Phonon modes of G(q) over a grid, in one stacked solve.

    Returns the stacked ModeSet: frequencies are (len(q_grid), 3) and band
    i at every q is the i-th lowest frequency there.  Ascending order is
    the labelling the bath needs (build_bath_spectrum pairs bands 1 and 2
    and requires 0 < omega_1 < omega_2 at every q).  The modes of a G(q)
    stack met before are served without building the stack
    (_phonon_modes); a failing G(q) is named by its q, and a grid
    holding q = 0 raises ValueError.
    """
    return _phonon_stack(expansion, q_grid)[0]


def _phonon_stack(expansion: ModelExpansion, q_grid):
    """(modes, pair kernel) of the G(q) stack over q_grid, from
    _phonon_modes, with a failing G(q) named by its q."""
    q_grid = np.asarray(q_grid, dtype=float)
    try:
        return _phonon_modes(_StackKey(expansion, q_grid))
    except DiagonalizationError as exc:
        raise DiagonalizationError(f"q = {q_grid[exc.index]:g}: {exc}",
                                   exc.index) from exc


class _StackKey:
    """The key of a G(q) stack: the bytes of G's (3, 6, 6) q-coefficients
    and of the q grid (about 5 KB at 1001 sites), which fix the stack bit
    for bit.  The expansion and grid it carries build the stack on a
    miss; they take no part in the comparison."""

    __slots__ = ("expansion", "q_grid", "_data", "_hash")

    def __init__(self, expansion: ModelExpansion, q_grid: np.ndarray) -> None:
        self.expansion = expansion
        self.q_grid = q_grid
        self._data = (expansion.phonon_coefficients.tobytes(), q_grid.shape,
                      q_grid.tobytes())
        self._hash = hash(self._data)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self._data == other._data


# a pump sweep alternates one normal-phase stack with ordered-phase ones,
# so the two most recently used stacks are kept
@lru_cache(maxsize=2)
def _phonon_modes(key: _StackKey):
    """Checked modes of a G(q) stack and their pair kernel, solved and
    formed once per distinct stack.

    The key is what the stack is computed from (G's coefficients and the
    q grid), not the parameters those came from, so a stack that could
    differ in any bit is built through expansion.phonon_matrix and solved
    afresh.  A failing build or solve raises and is not kept.  The kept
    arrays are read-only.  The (n, 2, 36) complex kernel holds everything
    the couplings need from the modes (coupling.pair_kernel), so a warm
    point forms no outer product of eigenvectors; it takes n x 1152 B per
    stack, 0.58 MB at 1001 sites, next to 0.16 MB of modes.
    """
    stack = key.expansion.phonon_matrix(key.q_grid)
    modes = diagonalize_symplectic(stack, sector="phonon")
    kernel = pair_kernel(modes.right)
    for arr in (modes.frequencies, modes.right, kernel):
        arr.flags.writeable = False
    return modes, kernel


def spectral_sum_rule(resp: Response):
    """Trapezoidal integral of rho over a wide grid, divided by 2 pi.

    Should come out 1 (the equal-time commutator); the grid spans the
    support with margin _SUM_RULE_MARGIN and resolves the Lorentzian scale
    epsilon at step epsilon / 5.  Below epsilon = 1e-4 the bath
    Lorentzians are too narrow for a grid of a few million points (at
    epsilon = 0 they are delta peaks that no trapezoid resolves), so
    NumericsError is raised before any grid is built.  The same holds for
    a dressed polariton pole narrower than the grid can join (an undamped
    one above all; see below).  A polariton narrower than epsilon gets a
    finer window at its Born-Markov pole, and the dressed pole that
    Newton's method reaches from there gets one where the grid is coarser
    than its width.

    Most of the grid lies far from the bath band (91-93 % of it at 1001
    and 2001 sites), where Response.spectral goes through pole_sum's
    far-field expansion, so the scan costs little more than its points
    near the band.
    """
    eps = resp.bath.epsilon
    if eps == 0.0:
        raise NumericsError(
            "spectral sum rule needs epsilon > 0: the delta peaks of an "
            "undamped bath cannot be integrated on a grid")
    if eps < _SUM_RULE_MIN_EPS:
        raise NumericsError(
            f"spectral sum rule needs epsilon >= {_SUM_RULE_MIN_EPS:g}, got "
            f"{eps:g}: its grid does not resolve narrower bath Lorentzians")
    step = eps / 5.0
    # the dressed polariton pole can be much narrower than epsilon; a
    # window of +-200 widths at width/10 resolves its Lorentzian, but the
    # trapezoid from the window's edge to the next grid point overshoots
    # by up to step / (1.3e5 width), so a pole narrower than
    # step / _SUM_RULE_MAX_STEP_PER_WIDTH is refused
    bm = resp.born_markov()
    width = bm.gamma_l + bm.gamma_b
    if not width * _SUM_RULE_MAX_STEP_PER_WIDTH >= step:
        raise NumericsError(
            f"spectral sum rule cannot resolve the polariton pole: Born-"
            f"Markov width {width:.3e} against a grid step of {step:.3e}")
    lo = min(0.0, resp.omega_s) - _SUM_RULE_MARGIN
    _, beliaev = resp.bath.pole_weights("beliaev")
    hi = max(resp.omega_s, float(np.max(beliaev))) + _SUM_RULE_MARGIN
    grid = np.arange(lo, hi + step, step)
    if width < eps:
        center = bm.omega_s + bm.delta_l + bm.delta_b
        grid = _with_pole_window(grid, center, width)
    # Born-Markov can miss the dressed pole by many of its widths (a
    # near-resonant cavity at strong coupling: 0.2022 - 0.0095i against
    # 0.2342 - 0.0011i at 11 sites, where the sum came out 1.019).  The
    # pole Newton reaches from it gets a window too wherever the grid
    # there is coarser than its width: a trapezoid at step h misses about
    # 2 exp(-2 pi width / h) of a Lorentzian's weight, 0.4 % at h = width,
    # while a window's edges cost ~1e-5
    pole = _dressed_pole(resp, bm.pole)
    if pole is not None and pole.imag < 0.0:
        k = min(max(int(np.searchsorted(grid, pole.real)), 1), grid.size - 1)
        if grid[k] - grid[k - 1] > -pole.imag:
            grid = _with_pole_window(grid, pole.real, -pole.imag)
    rho = resp.spectral(grid)
    return float(np.trapezoid(rho, grid) / (2.0 * np.pi)), grid, rho


def _with_pole_window(grid, center: float, width: float):
    """grid joined with +-200 widths around center at step width / 10."""
    fine = np.arange(center - 200.0 * width, center + 200.0 * width,
                     width / 10.0)
    return np.unique(np.concatenate([grid, fine]))


def _dressed_pole(resp: Response, z: complex):
    """The zero of r = 1/G that Newton's method reaches from z, or None.

    r'(z) = 1 + sum_j w_j / (z - x_j + i eps)^2.  None when the steps do
    not settle to 1e-13 relative within _DRESSED_POLE_STEPS.
    """
    weights, centers = resp.bath.active_poles
    shift = 1j * resp.bath.epsilon - centers
    for _ in range(_DRESSED_POLE_STEPS):
        d = 1.0 / (z + shift)
        dz = (z - resp.omega_s - weights @ d) / (1.0 + weights @ (d * d))
        z = complex(z - dz)
        if not np.isfinite(z):
            return None
        if abs(dz) <= 1e-13 * max(abs(z), 1.0):
            return z
    return None


# -- sweep drivers ---------------------------------------------------------

def _sweep_point(args):
    """omega_s and the Born-Markov rates of one pump point, for every
    (epsilon, T) pair, epsilon-major.

    Sigma(omega_s) at damping epsilon is the epsilon = 0 sum at
    z = omega_s + i epsilon, so one checked bath per temperature, built
    at epsilon = 0, gives each channel's whole epsilon family in one
    array evaluation.  The point's own bath is built at epsilon = 0 and
    serves its own temperature as it is; only another temperature is a
    replaced bath.
    """
    p, y, epsilons, temperatures = args
    for eps in epsilons:
        check_epsilon(eps)
    base = build_response(replace(p, y=y, phonon_damping=0.0))
    z = np.array([complex(base.omega_s, eps) for eps in epsilons])
    rates = []
    for temp in temperatures:
        bath = (base.bath if temp == base.bath.temperature
                else replace(base.bath, temperature=temp))
        rates.append([self_energy(channel, z, bath).tolist()
                      for channel in ("landau", "beliaev")])
    rows = [(eps, temp,
             BornMarkovResult.from_self_energies(base.omega_s, sl[k], sb[k]))
            for k, eps in enumerate(epsilons)
            for temp, (sl, sb) in zip(temperatures, rates)]
    return y, base.omega_s, rows


def damping_sweep(p: ThermoParams, y_values, epsilons=(None,),
                  temperatures=(None,), workers: int | None = None):
    """Born-Markov rates over a pump sweep, for each (epsilon, T) pair.

    Bands and couplings are computed once per y and shared across the
    epsilon/temperature variations (they only alter the bath bookkeeping).
    Per y and T, one bath at epsilon = 0 evaluates each channel once for
    the whole epsilon family, at z = omega_s + i epsilon (_sweep_point);
    every epsilon is checked as a bath checks its own.  A None in
    epsilons or temperatures stands for p.phonon_damping or
    p.temperature; the rest, dos_mode included, is p's.  Returns a list
    of records, ordered as the inputs.
    """
    epsilons = [p.phonon_damping if e is None else e for e in epsilons]
    temperatures = [p.temperature if t is None else t for t in temperatures]
    tasks = [(p, float(y), tuple(epsilons), tuple(temperatures))
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

