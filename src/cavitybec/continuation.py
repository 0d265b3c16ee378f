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

from .response import NumericsError, Response, _stack_blocks, pole_sum


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

    A bath line that the data resolve falls between two comb nodes and is
    split over both; off the axis that split errs by a t(1 - t) h^2 / d^3
    at distance d from the pole line, for a line of weight a at fraction t
    of the step h.  So the comb is subdivided _LINE_SUBDIVISION-fold around
    every line group (_line_group_nodes) and the certified fit solved again
    on the refined comb.  That comb contains the first, so the fit stays
    optimal on every column of the first and can only come closer to the
    data.
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
    design = _lorentzians(omega, centers, eps)
    support = _comb_support(design, im, stride=max(1, round(eps / h)),
                            margin=math.ceil(_SUPPORT_MARGIN * eps / h))
    weights, resid = _certified_nnls(design, im, support, centers.size)
    fine = _line_group_nodes(centers, weights > 0, eps)
    if fine.size:
        comb_size = centers.size
        centers = np.concatenate([centers, fine])
        design = np.hstack([design, _lorentzians(omega, fine, eps)])
        # the weighted nodes and their neighbours: the refined fit keeps its
        # weight near the first fit's, so this support seldom needs a second
        # solve to be certified
        near = np.convolve(weights > 0, np.ones(3), mode="same") > 0
        support = np.concatenate([near, np.ones(fine.size, bool)])
        weights, resid = _certified_nnls(design, im, support, comb_size)
        order = np.argsort(centers)
        centers, weights = centers[order], weights[order]
    keep = weights > 0
    centers, weights = centers[keep], weights[keep]
    re_sum = pole_sum(omega, weights, centers, eps).real
    c0 = float(np.mean(omega - np.real(r) - re_sum))
    return MeromorphicModel(c0=c0, centers=centers, weights=weights,
                            eps=eps, fit_residual=float(resid))


def _lorentzians(omega, centers, eps: float):
    """Design matrix: column j is eps / ((omega - centers[j])^2 + eps^2)."""
    return eps / ((omega[:, None] - centers[None, :]) ** 2 + eps ** 2)


# comb nodes kept on either side of a coarse node with weight, in units of
# eps: the Lorentzian of width eps has fallen to 1/10 of its peak there
_SUPPORT_MARGIN = 3.0

# subdivision of the comb step around a line group: the split error falls
# as the square of the step, 16-fold here
_LINE_SUBDIVISION = 4


def _line_group_nodes(centers, weighted, eps: float):
    """Comb nodes that subdivide the steps around every line group.

    The weighted nodes fall into groups wherever two of them lie more than
    eps / 2 apart; the fits of the default 1001- and 2001-site bands keep
    them within eps / 4 of each other, and so stay one group.  A group
    narrower than eps holds lines the data resolve; the steps from the node
    before it to the node after it are cut into _LINE_SUBDIVISION parts.
    Returns the new nodes only, none of them on the comb.
    """
    idx = np.flatnonzero(weighted)
    split = np.flatnonzero(np.diff(centers[idx]) > eps / 2) + 1
    groups = np.split(idx, split)
    h = centers[1] - centers[0]
    parts = np.arange(1, _LINE_SUBDIVISION) / _LINE_SUBDIVISION
    fine = [centers[max(g[0] - 1, 0):min(g[-1] + 1, centers.size - 1)]
            [:, None] + h * parts
            for g in groups if g.size and centers[g[-1]] - centers[g[0]] < eps]
    return np.concatenate(fine).ravel() if fine else np.zeros(0)


# Lawson-Hanson iterations allowed per comb column.  Near-collinear
# columns make it drop and re-add columns: at 101 sites, eps 0.047-0.049
# and 1.5 y_crit it needed 3.1 and 3.4 x the comb size (scipy's default
# cap is 3 x the columns it is given)
_NNLS_CAP_PER_COLUMN = 10


def _nnls(columns, b, comb_size: int):
    """Lawson-Hanson NNLS on some comb columns, capped at
    _NNLS_CAP_PER_COLUMN x comb_size."""
    import scipy.optimize  # ~0.3 s: loaded by the comb fit, not on import

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


def _certified_nnls(design, im, support, comb_size: int):
    """NNLS on the support columns, grown until the full comb's KKT holds.

    Returns the weights over all columns of design and the residual norm.
    A dropped column j is added back when its dual w_j = d_j^T (im - D x)
    exceeds (m + n) u d_j^T (|im| + D x), the first-order bound on the
    rounding error of evaluating w_j (D >= 0 and x >= 0, so |D||x| = D x),
    with n = comb_size, the columns of the comb at the data step: a comb
    refined around line groups is held to the bound of the comb it refines.
    """
    m, n = design.shape
    unit = np.finfo(float).eps
    while True:
        weights = np.zeros(n)
        resid = float(np.linalg.norm(im))
        # scipy's compiled NNLS aborts the process on a matrix with no
        # columns (scipy 1.17: "double free"), as a pole-free input has
        if support.any():
            weights[support], resid = _nnls(design[:, support], im, comb_size)
        fit = design @ weights
        dual = design.T @ (im - fit)
        tol = (m + comb_size) * unit * (design.T @ (np.abs(im) + fit))
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


# rows per block of the (rows, m) temporaries: the moving zeros of one
# point in an Aberth pass, the poles of _pole_moments, and the points
# times window of _local_start
_ROW_CHUNK = 64

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


def companion_pole_candidates(resp: Response, labels=None):
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

    resp may also be the stacked Response of pump points that share their
    bands (omega_s (P,), couplings (P, n_q); response._stack_blocks).
    The points whose active poles (weight > 0) are the same then share
    one _secular_roots call, which forms their local starts together and
    runs their passes point by point.  A list of each point's zeros is
    returned, bit for bit the ones it gets alone; labels name the points
    in an error.
    """
    eps = resp.bath.epsilon
    if np.ndim(resp.omega_s) == 0:
        return _secular_roots(resp.omega_s, *resp.bath.active_poles, eps)
    weights, centers = resp.bath.pole_table
    sets = {}
    for k, active in enumerate(weights > 0):
        sets.setdefault(active.tobytes(), []).append(k)
    zeros = [None] * len(weights)
    for rows in sets.values():
        active = weights[rows[0]] > 0
        found = _secular_roots(
            resp.omega_s[rows], weights[rows][:, active], centers[active],
            eps, labels=None if labels is None else [labels[k] for k in rows])
        for k, z in zip(rows, found):
            zeros[k] = z
    return zeros


def _secular_roots(head, weights, centers, eps: float, max_iter: int = 100,
                   labels=None):
    """All zeros of r(z) = z - head - sum_j weights[j]/(z - centers[j] + i eps).

    weights > 0, centers real.  head may also be (P,) and weights (P, m)
    over the same centers: P pump points solved together, with a (P,
    m + 1) result whose row s is, bit for bit, what head[s] and
    weights[s] give alone.  labels name the points in an error ("at
    y = 0.316").

    The solve runs in u = z + i eps, where every pole is real:
    r = u - (head + i eps) - sum_j w_j/(u - x_j).  k equal centers are
    first merged into one pole with the summed weight, leaving k - 1
    zeros exactly at x_j - i eps.  The other zeros start from local
    models of r (_local_start), formed for all points at once; a zero
    that the start rounds onto its pole, or puts within _POLE_GAP of it,
    stays there.  The Aberth-Ehrlich passes (_aberth) and the
    certificates (_certify) then run point by point, in order: the first
    point that fails raises NumericsError, whether its zeros are still
    moving after max_iter passes or fail a certificate.
    """
    shape = np.shape(head)
    n_pts = int(np.prod(shape, dtype=int))
    given = np.asarray(centers, dtype=float)
    centers, inverse, counts = np.unique(given, return_inverse=True,
                                         return_counts=True)
    m = len(centers)
    # the merged weights of every point in one bincount, each bin summed
    # in the order of the point's own
    weights = np.bincount(
        (inverse + m * np.arange(n_pts)[:, None]).ravel(),
        weights=np.reshape(weights, (n_pts, given.size)).ravel(),
        minlength=n_pts * m).reshape(n_pts, m)
    head = np.reshape(head, n_pts) + 1j * eps
    u, residues, size = _local_start(head, weights, centers)
    # a zero that the start rounds onto its pole (as z = u - i eps), or
    # puts within _POLE_GAP of it, stays there: r cannot be evaluated on
    # the pole
    bath_zeros = u[:, :m]
    frozen = ((bath_zeros - 1j * eps == centers - 1j * eps)
              | (np.abs(bath_zeros - centers) < _POLE_GAP))
    bath_zeros[frozen] = np.broadcast_to(centers, frozen.shape)[frozen]
    active = np.concatenate([~frozen, np.ones((n_pts, 1), bool)], axis=1)
    repeats = np.repeat(centers, counts - 1)
    for s in range(n_pts):
        try:
            slack = _aberth(u[s], head[s], weights[s], centers, active[s],
                            residues[s], size[s], max_iter)
            _certify(np.concatenate([u[s], repeats]), head[s], given,
                     residues[s], slack)
        except NumericsError as exc:
            at = "" if labels is None else f" at {labels[s]}"
            raise NumericsError(f"secular equation{at}: {exc}") from exc
    u = np.concatenate([u, np.broadcast_to(repeats, (n_pts, repeats.size))],
                       axis=1)
    return (u - 1j * eps).reshape(shape + (given.size + 1,))


def _aberth(u, head, weights, centers, active, residues, size,
            max_iter: int):
    """Finish one point's zeros u (m + 1,) from their starts, in place.

    head is the point's head + i eps, weights its merged (m,) over the
    real centers; active marks the zeros that may move, and residues and
    size hold 1/r' and its rounding scale |1/r'|^2 (1 + sum_j
    w_j/|u - x_j|^2) at the starts.  u, active, residues and size are
    updated in place; returns the first-order rounding bound of each
    residue, for _certify.

    A zero is frozen once its step falls below 1e-15 max(|u|, 1) at the
    stepped u: a step in u carries the rounding of u, so with eps >> |z|
    no step would meet a test in |z|.  Every sum of a pass is a real
    matrix-vector product, as in pole_sum, over blocks of at most
    _ROW_CHUNK moving zeros.  The first pass confirms: it evaluates r and
    r' at every start with the secular sums alone and freezes each zero
    whose Newton step r/r' already meets that test.  The other zeros keep
    their starts; the later passes are Aberth-Ehrlich steps on them
    alone, on the polynomial r(u) prod_j (u - x_j) in the form that stays
    finite where r vanishes, with the frozen zeros still in the repulsion
    sum.  Raises NumericsError if any zero is still moving after max_iter
    passes, the confirming one included.
    """
    m = len(centers)
    cols = m + 1
    unit = np.finfo(float).eps
    # |1/r'|^2 times a bound on |r''| at each zero's last pass
    tail = np.zeros(cols)
    # weights with a column of ones, whose products give a row's sums of
    # A and D at once
    pair = np.stack([weights, np.ones(m)], axis=-1)
    ones = np.ones(cols)
    rows_max = min(_ROW_CHUNK, cols)
    # the products take two operands of one shape at once, as a
    # (2, rows, .) stack: A and D, A^2 and A D, p and q
    ad_buf, sq_buf = np.empty((2, 2, rows_max, m))
    pq_buf = np.empty((2, rows_max, cols))
    e = np.empty((rows_max, cols))
    for it in range(max_iter):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        step = np.empty(rows.size, dtype=complex)
        ur, ui = u.real.copy(), u.imag.copy()
        for lo in range(0, rows.size, _ROW_CHUNK):
            block = rows[lo:lo + _ROW_CHUNK]
            n = block.size
            ad, sq, pq = ad_buf[:, :n], sq_buf[:, :n], pq_buf[:, :n]
            ab, db = ad
            b = ui[block]
            # 1/(u - x_j) = A - i b D with D = 1/(a^2 + b^2), A = a D
            np.subtract(ur[block, None], centers, out=ab)
            np.multiply(ab, ab, out=db)
            db += (b * b)[:, None]
            np.divide(1.0, db, out=db)
            ab *= db
            # w/(u - x)^2 = w (A^2 - b^2 D^2 - 2i b A D), A^2 + b^2 D^2 = D
            np.multiply(ab, ab, out=sq[0])
            np.multiply(ab, db, out=sq[1])
            s_a, s_d = ad @ pair
            w_sums = sq @ weights
            f = u[block] - head - (s_a[:, 0] - 1j * b * s_d[:, 0])
            re_sq = 2.0 * w_sums[0] - s_d[:, 0]
            df = 1.0 + re_sq - 2j * b * w_sums[1]
            if it == 0:
                # the confirmation pass: the Newton step of r alone
                sb = f / df
            else:
                # Newton step of the polynomial:
                # f / (f' + f sum_j 1/(u - x_j))
                inv_sum = s_a[:, 1] - 1j * b * s_d[:, 1]
                newton = f / (df + f * inv_sum)
                # repulsion sum_{k != i} 1/(u_i - u_k),
                # i.e. (p - i q)/(p^2 + q^2)
                np.subtract(ur[block, None], ur, out=pq[0])
                np.subtract(b[:, None], ui, out=pq[1])
                eb = e[:n]
                np.multiply(pq[0], pq[0], out=eb)
                eb += pq[1] * pq[1]
                eb[np.arange(n), block] = np.inf  # drops k = i
                np.divide(1.0, eb, out=eb)
                pq *= eb
                rep = pq @ ones
                repulsion = rep[0] - 1j * rep[1]
                sb = newton / (1.0 - newton * repulsion)
            residues[block] = 1.0 / df
            inv_sq = 1.0 / np.abs(df) ** 2
            size[block] = inv_sq * (1.0 + s_d[:, 0])
            # NaN steps stay active, so a breakdown ends in the error below
            tol = 1e-15 * np.maximum(np.abs(u[block] - sb), 1.0)
            done = np.abs(sb) <= tol
            active[block] = ~done
            if it == 0:
                sb[~done] = 0.0  # an unconfirmed zero keeps its start
            step[lo:lo + n] = sb
            # |r''| <= 2 sum_j w_j D^(3/2) <= 2 sqrt(sum w D^2 sum w D)
            db *= db
            near = db if done.all() else db[done]
            tail[block[done]] = (2.0 * inv_sq[done] * np.sqrt(near @ weights)
                                 * np.sqrt(s_d[done, 0]))
        u[rows] -= step
    if np.any(active):
        raise NumericsError(
            f"{np.count_nonzero(active)} of {cols} zeros not converged "
            f"after {max_iter} Aberth-Ehrlich steps")
    # a residue 1/r' moves with the rounding of r' (m + 1 terms) and with
    # r'' times the distance of its point from the zero: the last step
    # plus the zero's own rounding
    offset = 1e-15 * np.maximum(np.abs(u), 1.0) + unit * np.abs(u)
    return cols * unit * size + tail * offset


def _local_start(head, weights, centers):
    """Starting zeros in u, with 1/r' and its rounding scale there.

    head (P,) and weights (P, m) over the shared centers give (P, m + 1)
    results, row s bit for bit what point s gets alone; a scalar head and
    weights (m,) give one point's (m + 1,).

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

    The model's (points, window, m) arrays are formed for as many points
    at a time as fit in _ROW_CHUNK rows of m.
    """
    shape = np.shape(head)
    head = np.reshape(head, -1)
    n_pts, m = head.size, len(centers)
    weights = np.reshape(weights, (n_pts, m))
    moments = _pole_moments(weights, centers)
    curv = 1.0 + moments[1]
    den = centers - head[:, None] - moments[0]
    root = np.sqrt(den * den + 4.0 * curv * weights)
    den = np.where(np.abs(den + root) >= np.abs(den - root),
                   den + root, den - root)
    two_pole = 2.0 * weights / den
    residues = np.concatenate(
        [4.0 * weights / (4.0 * weights * curv + den * den),
         np.ones((n_pts, 1))], axis=1)
    size = np.abs(residues)
    gap = np.abs(head[:, None] - centers)
    pts = np.arange(n_pts)
    j = np.argmin(gap, axis=1) if m else np.zeros(n_pts, int)
    # the pole's own first-order shift of the head exceeds their distance
    # (infinite on the pole): the model's other root,
    # d = -den/(2 (1 - T'_j)), is the head's zero
    on_pole = (weights[pts, j] >= gap[pts, j] ** 2 if m
               else np.zeros(n_pts, bool))
    head_zero = np.empty(n_pts, dtype=complex)
    jn = j[on_pole]
    head_zero[on_pole] = (centers[jn]
                          - den[on_pole, jn] / (2.0 * curv[on_pole, jn]))
    off = ~on_pole
    head_zero[off] = head[off] + (weights[off]
                                  / (head[off, None] - centers)).sum(axis=1)

    # the window of each pole, as rows of the pole's neighbours, and the
    # far moments without the window's terms
    width = min(2 * _NEAR_POLES + 1, m)
    near = (np.clip(np.arange(m) - _NEAR_POLES, 0, m - width)
            + np.arange(width)[:, None])
    gaps = centers - centers[near]  # 0 in the pole's own row
    with np.errstate(divide="ignore"):
        inv = 1.0 / gaps
    inv[gaps == 0.0] = 0.0
    offset = centers - head[:, None]
    d = two_pole.copy()
    per = max(1, _ROW_CHUNK // max(width, 1))
    for lo in range(0, n_pts, per):
        sl = slice(lo, lo + per)
        near_weights = np.take(weights[sl], near, axis=1)  # C order
        far = moments[:, sl]
        term = near_weights * inv
        for n in range(_TAIL_TERMS):
            far[n] -= term.sum(axis=1)
            term *= inv
        # Newton steps on the model in real arithmetic, d = a + i b, as in
        # the Aberth passes: 1/(g + d) = A - i b D with
        # D = 1/((g + a)^2 + b^2) and A = (g + a) D
        dl = d[sl]
        # 1/D overflows where D is subnormal (weights ~1e-160); the
        # isfinite test below then keeps the two-pole start
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_MODEL_STEPS):
                b = dl.imag
                big_a = gaps + dl.real[:, None]
                big_d = big_a * big_a
                big_d += (b * b)[:, None]
                np.divide(1.0, big_d, out=big_d)
                big_a *= big_d
                wd = near_weights * big_d
                wa = near_weights * big_a
                s_d = wd.sum(axis=1)
                near_sum = wa.sum(axis=1) - 1j * b * s_d
                # w/(g + d)^2 = w (A^2 - b^2 D^2 - 2i b A D),
                # A^2 + b^2 D^2 = D
                wd *= big_a
                wa *= big_a
                near_sq = 2.0 * wa.sum(axis=1) - s_d - 2j * b * wd.sum(axis=1)
                # Horner's rule for the tail and its slope in s = -d
                tail, slope, s = far[-1], 0.0, -dl
                for moment in far[-2::-1]:
                    slope = slope * s + tail
                    tail = tail * s + moment
                dl = dl - ((offset[sl] + dl - near_sum - tail)
                           / (1.0 + near_sq + slope))
        d[sl] = dl
    # interval k lies between the poles k - 1 and k
    right = two_pole.real > 0
    room = np.diff(centers)
    room = np.where(right, np.append(room, np.inf), np.append(np.inf, room))
    interval = np.arange(m) + right
    # the starts per interval of every point in one bincount
    starts = np.concatenate(
        [interval, np.searchsorted(centers, head_zero.real)[:, None]], axis=1)
    starts = np.bincount((starts + (m + 1) * pts[:, None]).ravel(),
                         minlength=n_pts * (m + 1)).reshape(n_pts, m + 1)
    take = (np.isfinite(d)
            & (np.take_along_axis(starts, interval, axis=1) == 1)
            & np.where(right, d.real > 0, d.real < 0)
            & (np.abs(d.real) < room))
    u = np.concatenate([centers + np.where(take, d, two_pole),
                        head_zero[:, None]], axis=1)
    return tuple(x.reshape(shape + (m + 1,)) for x in (u, residues, size))


def _pole_moments(weights, centers):
    """M[n, s, j] = sum_{k != j} w_sk/(x_j - x_k)^(n+1) for n < _TAIL_TERMS
    and the points s of weights (P, m) over the shared centers.

    One real pass that reads each pair once: a block of _ROW_CHUNK rows
    meets the columns from its own on, and since
    1/(x_k - x_j) = -1/(x_j - x_k) the powers it forms give the block's
    row sums and, transposed with the sign (-1)^(n+1), the sums of the
    later columns.  The powers are formed once per block for all points
    and applied to every point's weights by a broadcast matmul, which
    makes per point the matrix-vector product it makes alone.
    """
    n_pts, m = weights.shape
    moments = np.zeros((_TAIL_TERMS, n_pts, m))
    column, row = weights[:, :, None], weights[:, None, :]
    for lo in range(0, m, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, m)
        inv = centers[lo:hi, None] - centers[lo:]
        inv[np.arange(hi - lo), np.arange(hi - lo)] = np.inf  # k != j
        np.divide(1.0, inv, out=inv)
        power = inv.copy()
        for n in range(_TAIL_TERMS):
            if n:
                power *= inv
            moments[n, :, lo:hi] += (power @ column[:, lo:])[..., 0]
            later = (row[..., lo:hi] @ power[:, hi - lo:])[:, 0]
            if n % 2:
                moments[n, :, hi:] += later
            else:
                moments[n, :, hi:] -= later
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
            f"the trace of the {u.size} zeros is off by {trace:.3e} (scale "
            f"{scale:.3e}); a zero is lost or doubled")
    total = abs(residues.sum() - 1.0)
    if not total <= _CERTIFICATE_SLACK * slack.sum():
        raise NumericsError(
            f"the residues of the {residues.size} zeros sum to 1 within "
            f"{total:.3e} (rounding bound {slack.sum():.3e}); a zero or its "
            "residue is wrong")


def pole_sweep(p, y_values, omega_window=(0.0, 3.0), n_track: int = 2):
    """Track the n_track smallest-|Im| poles of G across a pump sweep.

    Every point is p, dos_mode included, at a pump y of y_values.  The
    points that share a G(q) stack (below threshold, all of them) are
    evaluated by groups, in blocks of up to 64 points
    (response._stack_blocks, as damping_sweep does), and each block's
    stacked Response goes through one companion_pole_candidates call,
    which returns every zero of each point's secular function r = 1/G,
    bit for bit the ones the point gets alone.  Per point the zeros in the
    open lower half-plane with Re z in omega_window are taken by ascending
    |Im z|, and the first n_track + 3 with |r(z)| <= 1e-8 are kept.  Their
    residues are exact: 1/r'(z), r'(z) = 1 + sum_j w_j/(z - x_j + i eps)^2.
    Trajectories are matched across y by minimal total displacement in the
    complex plane.  Raises NumericsError when fewer than n_track zeros in
    the window pass the check; every error names its point by y, as
    "y = {y:g}".
    """
    ys = [float(y) for y in y_values]
    found = [None] * len(ys)
    for block, omega_s, bath in _stack_blocks([p.with_pump(y) for y in ys]):
        labels = [f"y = {ys[k]:g}" for k in block]
        zeros = companion_pole_candidates(
            Response(omega_s=omega_s, bath=bath), labels=labels)
        weights, centers = bath.pole_table
        for row, k in enumerate(block):
            active = weights[row] > 0
            found[k] = _verified_poles(
                zeros[row], omega_s[row], weights[row, active],
                centers[active], bath.epsilon, omega_window, n_track,
                labels[row])
    records = []
    prev = None
    for y, poles in zip(ys, found):
        chosen = poles[:n_track] if prev is None else _match_tracks(
            prev, poles)
        records.append({"y": y, "poles": chosen,
                        "residues": [pl.residue for pl in chosen]})
        prev = [pl.z for pl in chosen]
    return records


def _verified_poles(z, head, weights, centers, eps: float, omega_window,
                    n_track: int, label: str):
    """The Poles of one point that pole_sweep keeps, from all its zeros z
    and its active poles, by ascending |Im z|; label names the point in
    an error, as it does in the solve's ("y = 0.316")."""
    z = z[(z.real >= omega_window[0]) & (z.real <= omega_window[1])
          & (z.imag < 0)]
    # a zero within rounding of a weak bath pole fails the test on r,
    # whose term for that pole dominates there (and is not finite on the
    # pole itself); like a failed seed of find_poles it is passed over
    kept = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for zk in z[np.argsort(np.abs(z.imag))]:
            if len(kept) == n_track + 3:
                break
            if abs(zk - head - pole_sum(zk, weights, centers, eps)) <= 1e-8:
                kept.append(zk)
    if len(kept) < n_track:
        raise NumericsError(
            f"only {len(kept)} verified poles in the window "
            f"{tuple(omega_window)} at {label} (need {n_track})")
    z = np.array(kept)
    gaps = z[:, None] - centers + 1j * eps
    slope = 1.0 + (weights / gaps ** 2).sum(axis=1)
    return [Pole(z=complex(zk), residue=complex(1.0 / dk))
            for zk, dk in zip(z, slope)]


def _match_tracks(prev, poles):
    """Assign current poles to previous tracks by minimal total displacement."""
    import scipy.optimize

    cost = np.abs(np.array([pl.z for pl in poles])[None, :]
                  - np.array(prev)[:, None])
    _, best = scipy.optimize.linear_sum_assignment(cost)
    return [poles[j] for j in best]
