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

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .response import NumericsError, Response, pole_sum


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
        # points exactly on a comb node are poles of 1/G; let them evaluate
        # to non-finite values without runtime warnings
        with np.errstate(divide="ignore", invalid="ignore"):
            return z - self.c0 - pole_sum(z, self.weights, self.centers,
                                          self.eps)

    def green(self, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / self.inverse_green(z)


def reconstruct_meromorphic(omega, g_values, eps: float) -> MeromorphicModel:
    """Fit the pole-comb model to real-axis Green's function samples.

    Im(1/G) >= 0 on the real axis is a sum of Lorentzians of width eps
    centered on the bath frequencies; NNLS against a comb of Lorentzians at
    the grid resolution recovers the weight density, and the constant c0
    follows from the real part.

    Only the comb nodes under the bath band carry weight, so Lawson-Hanson
    NNLS (Lawson & Hanson, Solving Least Squares Problems, 1974) runs on
    those columns alone.  The support is located by a coarse NNLS on one
    comb node per eps and widened by 3 eps (_SUPPORT_MARGIN) on either side
    of every coarse node with weight.  The result is then certified as the
    optimum of the full-comb problem by its KKT condition: the dual
    w = D^T (Im r - D x) on every dropped column must not exceed the
    rounding error of evaluating it; violating columns are added back and
    the fit is solved again until none is left.  Every solve keeps the
    iteration cap of _NNLS_CAP_PER_COLUMN x (full comb size) and raises
    NumericsError when it is reached.  A pole-free input (Im r = 0) gives an empty comb.
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
    support = _comb_support(design, im, stride=max(1, round(eps / h)),
                            margin=math.ceil(_SUPPORT_MARGIN * eps / h))
    weights, resid = _certified_nnls(design, im, support)
    keep = weights > 0
    centers, weights = centers[keep], weights[keep]
    re_sum = pole_sum(omega, weights, centers, eps).real
    c0 = float(np.mean(omega - np.real(r) - re_sum))
    return MeromorphicModel(c0=c0, centers=centers, weights=weights,
                            eps=eps, fit_residual=float(resid))


# comb nodes kept on either side of a coarse node with weight, in units of
# eps: the Lorentzian of width eps has fallen to 1/10 of its peak there
_SUPPORT_MARGIN = 3.0

# Lawson-Hanson iterations allowed per comb column.  Near-collinear
# columns make it drop and re-add columns: at 101 sites, eps 0.047-0.049
# and 1.5 y_crit it needed 3.1 and 3.4 x the comb size (scipy's default
# cap is 3 x the columns it is given)
_NNLS_CAP_PER_COLUMN = 10


def _nnls(columns, b, comb_size: int):
    """Lawson-Hanson NNLS on some comb columns, capped at
    _NNLS_CAP_PER_COLUMN x comb_size."""
    cap = _NNLS_CAP_PER_COLUMN * comb_size
    try:
        return scipy.optimize.nnls(columns, b, maxiter=cap)
    except RuntimeError as exc:
        raise NumericsError(
            f"NNLS comb fit: Lawson-Hanson reached its cap of {cap} "
            f"iterations on {columns.shape[1]} of the {comb_size} comb "
            "columns") from exc


def _comb_support(design, im, stride: int, margin: int):
    """Comb columns within margin nodes of a coarse node with weight.

    The coarse fit runs on every stride-th column.
    """
    n = design.shape[1]
    coarse, _ = _nnls(design[:, ::stride], im, n)
    seeds = np.zeros(n)
    seeds[::stride] = coarse > 0
    window = np.convolve(seeds, np.ones(2 * margin + 1))[margin:margin + n]
    return window > 0


def _certified_nnls(design, im, support):
    """NNLS on the support columns, grown until the full comb's KKT holds.

    Returns the weights over the whole comb and the residual norm.  A
    dropped column j is added back when its dual w_j = d_j^T (im - D x)
    exceeds (m + n) u d_j^T (|im| + D x), the first-order bound on the
    rounding error of evaluating w_j (D >= 0 and x >= 0, so |D||x| = D x).
    """
    m, n = design.shape
    unit = np.finfo(float).eps
    while True:
        weights = np.zeros(n)
        resid = float(np.linalg.norm(im))
        # scipy's compiled NNLS aborts the process on a matrix with no
        # columns (scipy 1.17: "double free"), as a pole-free input has
        if support.any():
            weights[support], resid = _nnls(design[:, support], im, n)
        fit = design @ weights
        dual = design.T @ (im - fit)
        tol = (m + n) * unit * (design.T @ (np.abs(im) + fit))
        missed = ~support & (dual > tol)
        if not missed.any():
            return weights, resid
        support = support | missed


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


# -- Cauchy-Riemann marching (cross-check backend) ------------------------

# largest amplification exp(nu t) the spectral filter lets through
_MARCH_GROWTH_LIMIT = 1e5
# cutoff-band amplitude, relative to the data's, that counts as unstable
_MARCH_INSTABILITY = 1e-3


def march_cauchy_riemann(omega, g_values, nu_max: float, n_nu: int = 64):
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
        t_max = np.log(_MARCH_GROWTH_LIMIT) / nu[k]
        filt = np.exp(-(np.maximum(t, 0.0) / t_max) ** 8)
        amplified = fhat * np.exp(nu[k] * np.minimum(t, t_max)) * filt
        # amplified content at the effective cutoff (filter edge or grid
        # Nyquist, whichever bites first) bounds the achievable accuracy
        t_cut = min(t_max, t_nyquist)
        edge = t > 0.9 * t_cut
        edge_peak = np.max(np.abs(amplified[edge])) if np.any(edge) else 0.0
        if edge_peak > _MARCH_INSTABILITY * data_scale:
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


@dataclass(frozen=True)
class PoleSet:
    poles: list
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
    vals = np.asarray(green(zs), dtype=complex)
    return np.mean(vals * radius * np.exp(1j * theta))


def find_poles(evaluator, seeds, h: float = 1e-6, tol: float = 1e-10,
               max_iter: int = 50, dedup: float = 1e-7) -> PoleSet:
    """Newton search on 1/G from the given complex seeds.

    evaluator needs .inverse_green and .green (a Response or a
    MeromorphicModel).  Converged roots are deduplicated, restricted to the
    open lower half-plane, and returned sorted by |Im z| with residues from
    a circular contour quadrature of radius min(|Im z|/3, 1e-4); that
    circle also takes in any other pole inside it, whose residue is then
    added.  Seeds that fail to converge are reported, not dropped.
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


_ROW_CHUNK = 64  # root estimates per block: bounds the (block, m) temporaries

# the local model of each bath zero (_local_start): the poles it takes
# exactly on each side of its own, the Taylor terms of the others, and
# the Newton steps on it
_NEAR_POLES = 8
_TAIL_TERMS = 8
_MODEL_STEPS = 3

# a zero closer than this to its pole stays on it: a pass forms
# 1/|u - x|^4, which overflows below about 1e-77; only a pole within about
# that of 0 lets a zero sit so close without rounding onto it
_POLE_GAP = 1e-75

# whole-solve certificates: a residual beyond this multiple of its
# first-order rounding bound means a lost, doubled or misplaced zero
_CERTIFICATE_SLACK = 16.0


def companion_pole_candidates(resp: Response):
    """All poles of the closed-form G as the zeros of its secular function.

    1/G(z) = z - omega_s - sum_j w_j/(z - x_j + i eps), w_j > 0, x_j real,
    is a secular function: its m + 1 zeros (= all dressed poles, polariton
    and collective phonon alike) are the eigenvalues of the arrowhead
    matrix [[omega_s, v^T], [v, diag(x) - i eps]] with v = sqrt(w).  They
    are found without forming that matrix, on the bath's pole table as
    pole_sum reads it: each bath zero starts from a local model of its
    nearest poles plus a Taylor tail of the others (R.-C. Li, LAPACK
    Working Note 89, 1993), one pass of the secular sums confirms those
    already within the stop test, and a simultaneous Aberth-Ehrlich
    iteration on the secular equation (Bini & Robol, J. Comput. Appl.
    Math. 272, 2014) finishes the rest, in O(m^2) real work per pass.
    """
    return _secular_roots(resp.omega_s, *resp.bath.active_poles,
                          resp.bath.epsilon)


def _secular_roots(head, weights, centers, eps: float, max_iter: int = 100):
    """All zeros of r(z) = z - head - sum_j weights[j]/(z - centers[j] + i eps).

    weights > 0, centers real.  The solve runs in u = z + i eps, where every
    pole is real: r = u - (head + i eps) - sum_j w_j/(u - x_j).  k equal
    centers are first merged into one pole with the summed weight, leaving
    k - 1 zeros exactly at x_j - i eps.  The other zeros start from local
    models of r (_local_start).  A zero is frozen once its step falls below
    1e-15 max(|z|, 1), and every sum of a pass is a real matrix-vector
    product, as in pole_sum.  The first pass confirms: it evaluates r and
    r' at every start with the secular sums alone and freezes each zero
    whose Newton step r/r' already meets that test.  The other zeros keep
    their starts; the later passes are Aberth-Ehrlich steps on them alone,
    on the polynomial r(u) prod_j (u - x_j) in the form that stays finite
    where r vanishes, with the frozen zeros still in the repulsion sum.  A
    zero that the start rounds onto its pole, or puts within _POLE_GAP of
    it, stays there.  Raises NumericsError if any zero is still moving
    after max_iter passes, the confirming one included, or if the zeros
    fail a certificate (_certify).
    """
    given = np.asarray(centers, dtype=float)
    centers, inverse, counts = np.unique(given, return_inverse=True,
                                         return_counts=True)
    weights = np.bincount(inverse, weights=weights, minlength=len(centers))
    m = len(centers)
    unit = np.finfo(float).eps
    head = head + 1j * eps
    # per zero: 1/r'(u) of its last pass, its rounding scale
    # |1/r'|^2 (1 + sum_j w_j/|u - x_j|^2) and |1/r'|^2 times a bound on |r''|
    u, residues, size = _local_start(head, weights, centers)
    tail = np.zeros(m + 1)

    # a zero that the start rounds onto its pole (as z = u - i eps), or
    # puts within _POLE_GAP of it, stays there: r cannot be evaluated on
    # the pole
    frozen = ((u[:m] - 1j * eps == centers - 1j * eps)
              | (np.abs(u[:m] - centers) < _POLE_GAP))
    u[:m][frozen] = centers[frozen]
    active = np.append(~frozen, True)
    pair = np.column_stack([weights, np.ones(m)])
    ones = np.ones(m + 1)
    rows_max = min(_ROW_CHUNK, m + 1)
    a, dd, prod = (np.empty((rows_max, m)) for _ in range(3))
    p, q, e = (np.empty((rows_max, m + 1)) for _ in range(3))
    for it in range(max_iter):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        step = np.empty(rows.size, dtype=complex)
        ur, ui = u.real.copy(), u.imag.copy()
        for lo in range(0, rows.size, _ROW_CHUNK):
            block = rows[lo:lo + _ROW_CHUNK]
            n = block.size
            ab, db, tb = a[:n], dd[:n], prod[:n]
            b = ui[block]
            # 1/(u - x_j) = A - i b D with D = 1/(a^2 + b^2), A = a D
            np.subtract(ur[block, None], centers, out=ab)
            np.multiply(ab, ab, out=db)
            db += (b * b)[:, None]
            np.divide(1.0, db, out=db)
            ab *= db
            s_a = ab @ pair
            s_d = db @ pair
            f = u[block] - head - (s_a[:, 0] - 1j * b * s_d[:, 0])
            inv_sum = s_a[:, 1] - 1j * b * s_d[:, 1]
            # w/(u - x)^2 = w (A^2 - b^2 D^2 - 2i b A D), A^2 + b^2 D^2 = D
            np.multiply(ab, ab, out=tb)
            re_sq = 2.0 * (tb @ weights) - s_d[:, 0]
            np.multiply(ab, db, out=tb)
            df = 1.0 + re_sq - 2j * b * (tb @ weights)
            if it == 0:
                # the confirmation pass: the Newton step of r alone
                sb = f / df
            else:
                # Newton step of the polynomial:
                # f / (f' + f sum_j 1/(u - x_j))
                newton = f / (df + f * inv_sum)
                # repulsion sum_{k != i} 1/(u_i - u_k),
                # i.e. (p - i q)/(p^2 + q^2)
                pb, qb, eb = p[:n], q[:n], e[:n]
                np.subtract(ur[block, None], ur, out=pb)
                np.subtract(b[:, None], ui, out=qb)
                np.multiply(pb, pb, out=eb)
                eb += qb * qb
                eb[np.arange(n), block] = np.inf  # drops k = i
                np.divide(1.0, eb, out=eb)
                pb *= eb
                qb *= eb
                repulsion = pb @ ones - 1j * (qb @ ones)
                sb = newton / (1.0 - newton * repulsion)
            residues[block] = 1.0 / df
            inv_sq = 1.0 / np.abs(df) ** 2
            size[block] = inv_sq * (1.0 + s_d[:, 0])
            # NaN steps stay active, so a breakdown ends in the error below
            tol = 1e-15 * np.maximum(np.abs(u[block] - sb - 1j * eps), 1.0)
            done = np.abs(sb) <= tol
            active[block] = ~done
            if it == 0:
                sb[~done] = 0.0  # an unconfirmed zero keeps its start
            step[lo:lo + n] = sb
            # |r''| <= 2 sum_j w_j D^(3/2) <= 2 sqrt(sum w D^2 sum w D)
            near = db[done]
            tail[block[done]] = (2.0 * inv_sq[done]
                                 * np.sqrt((near * near) @ weights)
                                 * np.sqrt(s_d[done, 0]))
        u[rows] -= step
    if np.any(active):
        raise NumericsError(
            f"secular equation: {np.count_nonzero(active)} of {m + 1} zeros "
            f"not converged after {max_iter} Aberth-Ehrlich steps")
    # a residue 1/r' moves with the rounding of r' (m + 1 terms) and with
    # r'' times the distance of its point from the zero: the last step
    # plus the zero's own rounding
    offset = 1e-15 * np.maximum(np.abs(u - 1j * eps), 1.0) + unit * np.abs(u)
    slack = (m + 1) * unit * size + tail * offset
    u = np.concatenate([u, np.repeat(centers, counts - 1)])
    _certify(u, head, given, residues, slack)
    return u - 1j * eps


def _local_start(head, weights, centers):
    """Starting zeros in u, with 1/r' and its rounding scale there.

    Zero j starts at u = x_j + d from a local model of r near its pole:
    the 2 _NEAR_POLES + 1 consecutive poles around x_j (all of them when
    m is smaller), its own among them, are taken exactly, and the others
    through the Taylor tail sum_n (-d)^n M_nj, n < _TAIL_TERMS, with
    M_nj = sum_{k far} w_k/(x_j - x_k)^(n+1).  _MODEL_STEPS Newton steps
    on the model start from the root of the two-pole model
    r ~ D_j + (1 - T'_j) d - w_j/d, where D_j = x_j - head - T_j,
    T_j = sum_{k != j} w_k/(x_j - x_k) and T'_j = -sum_{k != j}
    w_k/(x_j - x_k)^2 <= 0 are the first two moments over all the other
    poles (_pole_moments).  That root is
    d = 2 w_j/(D_j + s sqrt(D_j^2 + 4 (1 - T'_j) w_j)), with the sign s
    that makes the denominator the larger, which is continuous with the
    first-order w_j/D_j.  The model's root replaces it only where it stays
    on the same side of x_j and short of the next pole there, and where no
    other start shares that interval between poles (the head's by its
    real part, the others by the side of their two-pole roots): the
    interlacing of the zeros of r with its poles at eps = 0.  1/r' is the
    two-pole model's, 4 w_j/(4 w_j (1 - T'_j) + den^2) with den the
    denominator above, which is what a zero that rounds onto its pole
    keeps, with |1/r'| as its scale.  The head's zero starts at the
    Born-Markov pole head + sum_j w_j/(head - x_j), unless the nearest
    pole is within sqrt(w_j) of the head.
    """
    m = len(centers)
    moments = _pole_moments(weights, centers)
    curv = 1.0 + moments[1]
    den = centers - head - moments[0]
    root = np.sqrt(den * den + 4.0 * curv * weights)
    den = np.where(np.abs(den + root) >= np.abs(den - root),
                   den + root, den - root)
    two_pole = 2.0 * weights / den
    residues = np.append(4.0 * weights / (4.0 * weights * curv + den * den),
                         1.0)
    size = np.abs(residues)
    gap = np.abs(head - centers)
    j = np.argmin(gap) if m else 0
    if m and weights[j] >= gap[j] ** 2:
        # the pole's own first-order shift of the head exceeds their
        # distance (infinite on the pole): the model's other root,
        # d = -den/(2 (1 - T'_j)), is the head's zero
        head_zero = centers[j] - den[j] / (2.0 * curv[j])
    else:
        head_zero = head + (weights / (head - centers)).sum()

    # the window of each pole, as rows of the pole's neighbours, and the
    # far moments without the window's terms
    width = min(2 * _NEAR_POLES + 1, m)
    near = (np.clip(np.arange(m) - _NEAR_POLES, 0, m - width)
            + np.arange(width)[:, None])
    gaps = centers - centers[near]  # 0 in the pole's own row
    near_weights = weights[near]
    with np.errstate(divide="ignore"):
        inv = 1.0 / gaps
    inv[gaps == 0.0] = 0.0
    term = near_weights * inv
    for n in range(_TAIL_TERMS):
        moments[n] -= term.sum(axis=0)
        term *= inv
    # Newton steps on the model in real arithmetic, d = a + i b, as in the
    # Aberth passes: 1/(g + d) = A - i b D with D = 1/((g + a)^2 + b^2)
    # and A = (g + a) D
    d = two_pole
    offset = centers - head
    # 1/D overflows where D is subnormal (weights ~1e-160); the isfinite
    # test below then keeps the two-pole start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MODEL_STEPS):
            b = d.imag
            big_a = gaps + d.real
            big_d = big_a * big_a
            big_d += b * b
            np.divide(1.0, big_d, out=big_d)
            big_a *= big_d
            wd = near_weights * big_d
            wa = near_weights * big_a
            s_d = wd.sum(axis=0)
            near_sum = wa.sum(axis=0) - 1j * b * s_d
            # w/(g + d)^2 = w (A^2 - b^2 D^2 - 2i b A D), A^2 + b^2 D^2 = D
            wd *= big_a
            wa *= big_a
            near_sq = 2.0 * wa.sum(axis=0) - s_d - 2j * b * wd.sum(axis=0)
            # Horner's rule for the tail and its slope in s = -d
            tail, slope = moments[-1], 0.0
            for moment in moments[-2::-1]:
                slope = slope * -d + tail
                tail = tail * -d + moment
            d = d - ((offset + d - near_sum - tail)
                     / (1.0 + near_sq + slope))
    # interval k lies between the poles k - 1 and k
    right = two_pole.real > 0
    room = np.diff(centers)
    room = np.where(right, np.append(room, np.inf), np.append(np.inf, room))
    interval = np.arange(m) + right
    starts = np.bincount(np.append(interval, np.searchsorted(
        centers, head_zero.real)), minlength=m + 1)
    take = (np.isfinite(d) & (starts[interval] == 1)
            & np.where(right, d.real > 0, d.real < 0)
            & (np.abs(d.real) < room))
    u = np.append(centers + np.where(take, d, two_pole), head_zero)
    return u, residues, size


def _pole_moments(weights, centers):
    """M[n, j] = sum_{k != j} w_k/(x_j - x_k)^(n+1) for n < _TAIL_TERMS.

    One real pass that reads each pair once: a block of _ROW_CHUNK rows
    meets the columns from its own on, and since
    1/(x_k - x_j) = -1/(x_j - x_k) the powers it forms give the block's
    row sums and, transposed with the sign (-1)^(n+1), the sums of the
    later columns.
    """
    m = len(centers)
    moments = np.zeros((_TAIL_TERMS, m))
    for lo in range(0, m, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, m)
        inv = centers[lo:hi, None] - centers[lo:]
        inv[np.arange(hi - lo), np.arange(hi - lo)] = np.inf  # k != j
        np.divide(1.0, inv, out=inv)
        power = inv.copy()
        for n in range(_TAIL_TERMS):
            if n:
                power *= inv
            moments[n, lo:hi] += power @ weights[lo:]
            later = weights[lo:hi] @ power[:, hi - lo:]
            if n % 2:
                moments[n, hi:] += later
            else:
                moments[n, hi:] -= later
    return moments


def _certify(u, head, centers, residues, slack):
    """Raise NumericsError unless the zeros pass both whole-solve checks.

    u holds every zero in u = z + i eps, repeats included; residues and
    slack hold 1/r' and its first-order rounding bound for the zeros of
    the merged problem (a repeated zero is not a zero of r and has none).
    The trace, sum_k u_k = head + sum_j x_j counting repeats, must hold to
    _CERTIFICATE_SLACK u (sum_k |u_k| + |head| + sum_j |x_j|); the residue
    sum, sum_k 1/r'(u_k) = 1 since G ~ 1/z, to _CERTIFICATE_SLACK
    sum_k slack_k.
    """
    unit = np.finfo(float).eps
    trace = abs(u.sum() - head - centers.sum())
    scale = np.abs(u).sum() + abs(head) + np.abs(centers).sum()
    if not trace <= _CERTIFICATE_SLACK * unit * scale:
        raise NumericsError(
            f"secular equation: the trace of the {u.size} zeros is off by "
            f"{trace:.3e} (scale {scale:.3e}); a zero is lost or doubled")
    total = abs(residues.sum() - 1.0)
    if not total <= _CERTIFICATE_SLACK * slack.sum():
        raise NumericsError(
            f"secular equation: the residues of the {residues.size} zeros "
            f"sum to 1 within {total:.3e} (rounding bound "
            f"{slack.sum():.3e}); a zero or its residue is wrong")


def pole_sweep(p, y_values, omega_window=(0.0, 3.0), n_track: int = 2,
               dos_mode: str = "3d"):
    """Track the n_track smallest-|Im| poles of G across a pump sweep.

    The poles of G are the zeros of its secular function r = 1/G, all of
    which companion_pole_candidates returns.  Per point the zeros in the
    open lower half-plane with Re z in omega_window are taken by ascending
    |Im z|, and the first n_track + 3 with |r(z)| <= 1e-8 are kept.  Their
    residues are exact: 1/r'(z), r'(z) = 1 + sum_j w_j/(z - x_j + i eps)^2.
    Trajectories are matched across y by minimal total displacement in the
    complex plane.  Raises NumericsError when fewer than n_track zeros in
    the window pass the check.
    """
    # looked up per call, not at import: perfbench/tracer.py wraps
    # response.build_response by attribute
    from .response import build_response

    records = []
    prev = None
    for y in y_values:
        resp = build_response(p.with_pump(float(y)), dos_mode=dos_mode)
        z = companion_pole_candidates(resp)
        z = z[(z.real >= omega_window[0]) & (z.real <= omega_window[1])
              & (z.imag < 0)]
        # a zero within rounding of a weak bath pole fails the test on r,
        # whose term for that pole dominates there (and is not finite on
        # the pole itself); like a failed seed of find_poles it is passed
        # over
        kept = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for zk in z[np.argsort(np.abs(z.imag))]:
                if len(kept) == n_track + 3:
                    break
                if abs(resp.inverse_green(zk)) <= 1e-8:
                    kept.append(zk)
        if len(kept) < n_track:
            raise NumericsError(
                f"only {len(kept)} verified poles in the window "
                f"{tuple(omega_window)} at y = {y} (need {n_track})")
        z = np.array(kept)
        weights, centers = resp.bath.active_poles
        gaps = z[:, None] - centers + 1j * resp.bath.epsilon
        slope = 1.0 + (weights / gaps ** 2).sum(axis=1)
        poles = [Pole(z=complex(zk), residue=complex(1.0 / dk))
                 for zk, dk in zip(z, slope)]
        chosen = poles[:n_track] if prev is None else _match_tracks(
            prev, poles)
        records.append({"y": float(y), "poles": chosen,
                        "residues": [pl.residue for pl in chosen]})
        prev = [pl.z for pl in chosen]
    return records


def _match_tracks(prev, poles):
    """Assign current poles to previous tracks by minimal total displacement."""
    cost = np.abs(np.array([pl.z for pl in poles])[None, :]
                  - np.array(prev)[:, None])
    _, best = scipy.optimize.linear_sum_assignment(cost)
    return [poles[j] for j in best]
