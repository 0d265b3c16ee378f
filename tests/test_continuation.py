import functools
import itertools
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.optimize

from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from cavitybec import (
    BathConstructionError, ConfigError, ConvergenceError, CriticalPointError,
    DiagonalizationError, continuation,
)
from cavitybec.continuation import (
    MeromorphicModel, _secular_roots, companion_pole_candidates,
    continue_green, find_poles, march_cauchy_riemann, pole_sweep,
    reconstruct_meromorphic,
)
from cavitybec.params import critical_coupling, default_params
from cavitybec.bath import build_bath_spectrum
from cavitybec.response import NumericsError, Response, build_response
from cavitybec.verify import _random_params, fit_window


class _Lorentzian:
    """G(z) = 1/(z - z0), one simple pole with unit residue."""

    def __init__(self, z0):
        self.z0 = z0

    def inverse_green(self, z):
        return np.asarray(z, dtype=complex) - self.z0

    def green(self, z):
        return 1.0 / self.inverse_green(z)


def test_newton_finds_exact_lorentzian_pole_and_residue():
    z0 = 0.83 - 0.021j
    ps = find_poles(_Lorentzian(z0), seeds=[0.8 - 0.01j])
    assert len(ps.poles) == 1
    pole = ps.poles[0]
    assert pole.z == pytest.approx(z0, abs=1e-10)
    assert pole.residue == pytest.approx(1.0, abs=1e-6)


def test_upper_half_plane_roots_are_rejected():
    ps = find_poles(_Lorentzian(0.8 + 0.02j), seeds=[0.8 - 0.01j])
    assert len(ps.poles) == 0
    assert len(ps.failed_seeds) == 1


def _toy_model(eps=0.01):
    # quasi-continuum: pole spacing well below the depth eps, as for a
    # physical bath discretized on a dense momentum grid
    centers = np.linspace(0.6, 1.1, 400)
    weights = np.full(400, 2e-5)
    return MeromorphicModel(c0=1.0, centers=centers, weights=weights,
                            eps=eps, fit_residual=0.0)


def test_comb_node_evaluates_without_runtime_warning():
    model = _toy_model()
    zs = np.array([model.centers[7] - 1j * model.eps, 0.9 - 0.004j,
                   1.3 + 0.02j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = model.inverse_green(zs)
        g = model.green(zs)
    # the node is a pole of 1/G; the other points are the direct sum
    assert not np.isfinite(inv[0]) and not np.isfinite(g[0])
    terms = model.weights / (zs[1:, None] - model.centers + 1j * model.eps)
    direct = zs[1:] - model.c0 - terms.sum(axis=1)
    assert np.all(np.abs(inv[1:] - direct)
                  <= 1e-13 * (np.abs(zs[1:]) + model.c0
                              + np.abs(terms).sum(axis=1)))


def test_reconstruction_recovers_synthetic_meromorphic_function():
    model = _toy_model()
    omega = np.arange(0.2, 1.6, 0.00125)
    fit = reconstruct_meromorphic(omega, model.green(omega), model.eps)
    zs = np.linspace(0.5, 1.2, 30) - 0.004j
    rel = np.abs(fit.green(zs) - model.green(zs)) / np.abs(model.green(zs))
    assert np.max(rel) < 1e-6


def test_resolved_lines_between_comb_nodes_meet_verify_bound():
    # lines 2.8 eps apart, off the comb at the data step eps / 8: the comb
    # alone splits each over two nodes and misses G by 5.0e-3 at depth
    # eps / 2; subdivided around each line group it is 3.3e-4 off
    eps = 0.01
    centers = 0.6 + np.sqrt(2) * 0.02 * np.arange(12)
    model = MeromorphicModel(c0=0.2, centers=centers,
                             weights=np.full(12, 1e-3), eps=eps,
                             fit_residual=0.0)
    omega = np.arange(0.45, 1.05, eps / 8)
    fit = reconstruct_meromorphic(omega, model.green(omega), eps)
    assert np.all(fit.weights >= 0)
    _assert_full_comb_kkt(omega, model.green(omega), eps, fit)
    zs = np.linspace(0.55, 0.95, 200) - 0.005j
    rel = np.abs(fit.green(zs) - model.green(zs)) / np.abs(model.green(zs))
    assert np.max(rel) < 1e-3


# -- the comb fit on its support, against the full-comb NNLS -------------

_FULL_NNLS = scipy.optimize.nnls
# verify's off-axis probe points
_PROBES = (np.linspace(0.6, 1.3, 40)[:, None]
           - 1j * np.array([0.002, 0.003, 0.005])[None, :]).ravel()


@functools.cache
def _fit_case(name):
    """(omega, g, eps) of one fit input, built once per test session."""
    if name == "toy":
        model = _toy_model()
        omega = np.arange(0.2, 1.6, model.eps / 4)
        return omega, model.green(omega), model.eps
    if name == "criterion-6":
        p, frac, step = default_params(), 0.629, 12
    elif name == "2001-sites":
        # perfbench's spectral_fit grid: the atom number scales with it
        p = default_params()
        p = replace(p, site_count=2001, atom_number=p.atom_number * 2001 / 1001)
        frac, step = 0.6, 8
    else:  # "random"
        rng = np.random.default_rng(7)
        p = _random_params(rng)
        frac, step = float(rng.uniform(0.3, 0.95)), 8
    resp = build_response(p.with_pump(frac * critical_coupling(p)))
    eps = resp.bath.epsilon
    omega = np.arange(0.3, 1.6, eps / step)
    return omega, resp.green(omega), eps


def _comb(omega, g, eps):
    """The fit's full comb: centres, design matrix and Im(1/G)."""
    h = omega[1] - omega[0]
    centers = np.arange(omega[0] - 5 * eps, omega[-1] + 5 * eps, h)
    design = eps / ((omega[:, None] - centers[None, :]) ** 2 + eps ** 2)
    return centers, design, np.imag(1.0 / g)


@functools.cache
def _full_comb_fit(name):
    """Oracle: Lawson-Hanson on every comb column, as a MeromorphicModel."""
    omega, g, eps = _fit_case(name)
    centers, design, im = _comb(omega, g, eps)
    weights, resid = _FULL_NNLS(design, im)
    keep = weights > 0
    return MeromorphicModel(
        c0=0.0, centers=centers[keep], weights=weights[keep], eps=eps,
        fit_residual=resid)


def _assert_full_comb_optimum(name, fit):
    oracle = _full_comb_fit(name)
    np.testing.assert_array_equal(fit.centers, oracle.centers)
    # the oracle's c0 is the fit's: the sum rule for c0 is not under test
    oracle = replace(oracle, c0=fit.c0)
    exact = oracle.green(_PROBES)
    assert np.max(np.abs(fit.green(_PROBES) - exact) / np.abs(exact)) <= 1e-12
    _assert_full_comb_kkt(*_fit_case(name), fit)


def _assert_full_comb_kkt(omega, g, eps, fit):
    """KKT on the whole comb: no comb column without weight has a positive
    dual beyond its rounding bound, and the dual vanishes on the weighted
    ones.  A fit refined around line groups holds it too, its comb
    containing the whole one."""
    centers, design, im = _comb(omega, g, eps)
    fitted = (eps / ((omega[:, None] - fit.centers) ** 2 + eps ** 2)
              @ fit.weights)
    dual = design.T @ (im - fitted)
    tol = sum(design.shape) * np.finfo(float).eps * (
        design.T @ (np.abs(im) + fitted))
    weighted = np.isin(centers, fit.centers)
    assert np.all(dual[~weighted] <= tol[~weighted])
    assert np.all(np.abs(dual[weighted]) <= tol[weighted])


@pytest.mark.parametrize("name", ["toy", "criterion-6", "2001-sites",
                                  "random"])
def test_fit_on_the_support_is_the_full_comb_optimum(name):
    fit = reconstruct_meromorphic(*_fit_case(name))
    _assert_full_comb_optimum(name, fit)


def _band_outside_verify_window():
    # 101 sites, bath band 1.355-1.705: NNLS on [0.3, 1.6] took 27.8 s and
    # rebuilt G wrongly
    p = default_params(cavity_detuning=-1962.43, u=4.786, g_coll=0.0744,
                       temperature=0.1741, phonon_damping=0.005662,
                       site_count=101, atom_number=1010)
    return p, 1.462 * critical_coupling(p)


def test_verify_fit_window_holds_the_bath_band():
    p, y = _band_outside_verify_window()
    resp = build_response(p.with_pump(y))
    eps = resp.bath.epsilon
    _, centers = resp.bath.active_poles
    lo, hi = fit_window(resp)
    assert (lo, hi) == (0.3, centers.max() + 10.0 * eps)
    omega = np.arange(lo, hi, eps / 8.0)
    model = reconstruct_meromorphic(omega, resp.green(omega), eps)
    zs = (np.linspace(0.6, 1.3, 40)[:, None]
          - 1j * np.array([0.002, 0.003, 0.005])[None, :]).ravel()
    rel = np.abs(model.green(zs) - resp.green(zs)) / np.abs(resp.green(zs))
    assert np.max(rel) < 1e-3
    # at the default point the band lies inside, and the window is verify's
    base = default_params()
    resp = build_response(base.with_pump(0.629 * critical_coupling(base)))
    assert fit_window(resp) == (0.3, 1.6)


_TYPED_ERRORS = (BathConstructionError, ConfigError, ConvergenceError,
                 CriticalPointError, DiagonalizationError, NumericsError)


@settings(max_examples=20, deadline=None)
@given(detuning=st.floats(-2000.0, -2.0), u=st.floats(0.0, 5.0),
       g_coll=st.floats(0.0, 0.5), frac=st.floats(0.1, 1.5),
       temperature=st.one_of(st.just(0.0), st.floats(0.01, 0.2)),
       eps=st.floats(0.01, 0.05), site_count=st.sampled_from([101, 11]))
@example(detuning=-1000.0, u=0.0, g_coll=0.1, frac=0.629, temperature=0.0,
         eps=0.01, site_count=101)
# the comb at the data step alone rebuilt 1/G to 2.2e-3 here
@example(detuning=-557.0, u=1.06, g_coll=0.31, frac=0.924,
         temperature=0.077, eps=0.0101, site_count=11)
# Lawson-Hanson needed 3.4 x the comb size here
@example(detuning=-2.0, u=0.0, g_coll=0.5, frac=1.5, temperature=0.01171875,
         eps=0.046875, site_count=101)
# the comb at the data step alone rebuilt 1/G to 1.02-1.39e-3 here: bath
# lines the data resolve, each split over two comb nodes
@example(detuning=-2.0, u=0.0, g_coll=0.0, frac=0.9375, temperature=0.125,
         eps=0.01, site_count=101)
@example(detuning=-3.0, u=0.0, g_coll=0.25, frac=0.998046875,
         temperature=0.0, eps=0.01, site_count=101)
@example(detuning=-2.0, u=0.0, g_coll=0.0, frac=0.998046875,
         temperature=0.125, eps=0.015625, site_count=101)
@example(detuning=-2.0, u=0.0, g_coll=0.0, frac=0.96875, temperature=0.125,
         eps=0.01171875, site_count=101)
# a refined fit whose certification took its rounding bound from the
# refined comb's column count left a comb column 1.1 x over the bound here
@example(detuning=-2.0, u=0.0, g_coll=0.125, frac=0.109375,
         temperature=0.125, eps=0.017825062505632108, site_count=101)
def test_comb_fit_over_random_responses(detuning, u, g_coll, frac,
                                        temperature, eps, site_count):
    # the fit of a random small response is optimal on the full comb with
    # weights >= 0, and rebuilds 1/G at verify's depths below the axis to
    # 1e-3 of the scale of its terms, on the 101-site bath and on the few
    # resolved lines of the 11-site one.  The window spans the bath band,
    # at verify's step eps / 8.
    p = default_params(cavity_detuning=detuning, u=u, g_coll=g_coll,
                       temperature=temperature, phonon_damping=eps,
                       site_count=site_count, atom_number=10 * site_count)
    try:
        resp = build_response(p.with_pump(frac * critical_coupling(p)))
    except _TYPED_ERRORS:
        return
    weights, centers = resp.bath.active_poles
    if centers.size == 0:
        return
    lo, hi = centers.min() - 10 * eps, centers.max() + 10 * eps
    omega = np.arange(lo, hi, eps / 8)
    g = resp.green(omega)
    fit = reconstruct_meromorphic(omega, g, eps)
    assert np.all(fit.weights >= 0)
    _assert_full_comb_kkt(omega, g, eps, fit)
    zs = (np.linspace(lo, hi, 40)[:, None]
          - 1j * np.array([0.002, 0.003, 0.005])[None, :]).ravel()
    terms = weights / (zs[:, None] - centers + 1j * eps)
    scale = np.abs(zs) + abs(resp.omega_s) + np.abs(terms).sum(axis=1)
    err = np.abs(fit.inverse_green(zs) - resp.inverse_green(zs))
    assert np.all(err <= 1e-3 * scale)


def test_kkt_check_adds_back_a_missed_part_of_the_band(monkeypatch):
    # the located support leaves out the upper half of the band: the
    # first solve is not optimal on the full comb, and the dual of the
    # dropped columns must bring them back
    name = "toy"
    omega, g, eps = _fit_case(name)
    centers = _comb(omega, g, eps)[0]
    locate = continuation._comb_support
    monkeypatch.setattr(
        continuation, "_comb_support",
        lambda *args, **kwargs: locate(*args, **kwargs) & (centers < 0.85))
    fit = reconstruct_meromorphic(omega, g, eps)
    _assert_full_comb_optimum(name, fit)


def test_pole_free_input_gives_an_empty_comb():
    omega = np.arange(0.2, 1.6, 0.00125)
    fit = reconstruct_meromorphic(omega, 1.0 / (omega - 0.5), 0.01)
    assert fit.centers.size == 0 and fit.weights.size == 0
    assert fit.c0 == pytest.approx(0.5, abs=1e-12)
    assert fit.fit_residual == 0.0
    z = np.array([0.7 - 0.01j, 1.2 + 0.3j])
    np.testing.assert_allclose(fit.green(z), 1.0 / (z - 0.5), rtol=1e-14)


def test_iteration_cap_is_a_numerics_error(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "nnls", lambda a, b, maxiter=None:
                        _FULL_NNLS(a, b, maxiter=1))
    omega, g, eps = _fit_case("toy")
    n = len(_comb(omega, g, eps)[0])
    with pytest.raises(NumericsError,
                       match=rf"cap of {continuation._NNLS_CAP_PER_COLUMN * n} "
                             rf"iterations .* {n} comb"):
        reconstruct_meromorphic(omega, g, eps)


def test_fit_at_benchmark_size_solves_under_half_the_comb(monkeypatch):
    # a silent fallback to the full comb must fail here, not only in the
    # benchmark: the 2001-site point at step eps/8 is perfbench's
    # spectral_fit size
    columns = []

    def counting_nnls(a, b, maxiter=None):
        columns.append(a.shape[1])
        return _FULL_NNLS(a, b, maxiter=maxiter)

    monkeypatch.setattr(scipy.optimize, "nnls", counting_nnls)
    omega, g, eps = _fit_case("2001-sites")
    reconstruct_meromorphic(omega, g, eps)
    n = len(_comb(omega, g, eps)[0])
    # one coarse solve and one fine solve that needed no added column
    assert len(columns) == 2
    assert max(columns) < n / 2


def test_continue_green_keeps_real_axis_row_verbatim():
    model = _toy_model()
    omega = np.arange(0.2, 1.6, 0.002)
    data = model.green(omega)
    grid, _fit = continue_green(omega, data, model.eps, nu_max=0.05, n_nu=16)
    np.testing.assert_array_equal(grid.values[0], data)
    assert grid.nu[0] == 0.0


def _cauchy_riemann_residual(grid):
    """Pointwise analyticity certificate |df/dnu + i df/domega| (4th order).

    For f(omega, nu) = F(omega - i nu) analytic the residual vanishes; the
    map is normalized by the local gradient magnitude so it is
    dimensionless.  The two rows and columns at each edge, which the
    five-point stencils do not reach (the verbatim data row among them),
    are NaN.
    """
    f = grid.values
    res = np.full(f.shape, np.nan)
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    h_omega = grid.omega[1] - grid.omega[0]
    h_nu = grid.nu[1] - grid.nu[0]
    dfo = sum(c[i] * f[:, i:f.shape[1] - 4 + i] for i in range(5)) / h_omega
    dfn = sum(c[i] * f[i:f.shape[0] - 4 + i, :] for i in range(5)) / h_nu
    num = np.abs(dfn[:, 2:-2] + 1j * dfo[2:-2, :])
    den = np.abs(dfn[:, 2:-2]) + np.abs(dfo[2:-2, :]) + 1e-30
    res[2:-2, 2:-2] = num / den
    return res


def test_cauchy_riemann_certificate_on_analytic_continuation():
    model = _toy_model()
    omega = np.arange(0.2, 1.6, 0.002)
    grid, _fit = continue_green(omega, model.green(omega), model.eps,
                                nu_max=0.005, n_nu=24)
    res = _cauchy_riemann_residual(grid)
    # certify analyticity away from the pole line's neighbourhood, where
    # the finite-difference stencils resolve the function
    smooth = (grid.omega < 0.5) | (grid.omega > 1.2)
    assert np.nanmax(res[:, smooth]) < 1e-6


def test_marching_matches_single_pole_continuation():
    # one pole well below the marching depth; the grid Nyquist time must
    # exceed the pole's decay time by a wide margin for marching to work
    omega = np.arange(-40.0, 40.0, 0.01)
    z0 = 0.4 - 0.05j
    data = 1.0 / (omega - z0)
    grid = march_cauchy_riemann(omega, data, nu_max=0.004, n_nu=8)
    exact = 1.0 / (grid.z() - z0)
    core = np.abs(grid.omega - 0.4) < 5.0
    err = np.max(np.abs(grid.values[:, core] - exact[:, core]))
    # limited by the finite window's background fit, not the multiplier
    assert err < 5e-5


def test_marching_aborts_below_the_pole_line():
    omega = np.arange(-40.0, 40.0, 0.02)
    data = 1.0 / (omega - (0.4 - 0.05j))
    with pytest.raises(NumericsError):
        march_cauchy_riemann(omega, data, nu_max=0.2, n_nu=64)


def test_companion_candidates_match_newton_roots():
    p = default_params()
    resp = build_response(p.with_pump(0.78 * critical_coupling(p)))
    cand = companion_pole_candidates(resp)
    cand = cand[(cand.imag < 0) & (cand.real > 0.2) & (cand.real < 2.0)]
    cand = cand[np.argsort(np.abs(cand.imag))][:3]
    ps = find_poles(resp, cand)
    assert len(ps.poles) == 3
    found = sorted((pl.z for pl in ps.poles), key=lambda z: z.real)
    seeds = sorted(cand, key=lambda z: z.real)
    for z, s in zip(found, seeds):
        assert z == pytest.approx(s, abs=1e-6)


def _arrowhead_eigvals(head, weights, centers, eps):
    """Dense oracle: eigenvalues of [[head, v^T], [v, diag(centers) - i eps]],
    v = sqrt(weights), and the largest |entry| as the scale."""
    m = len(centers) + 1
    arrow = np.zeros((m, m), dtype=complex)
    arrow[0, 0] = head
    arrow[0, 1:] = arrow[1:, 0] = np.sqrt(weights)
    arrow[np.arange(1, m), np.arange(1, m)] = np.asarray(centers) - 1j * eps
    return np.linalg.eigvals(arrow), np.max(np.abs(arrow))


def _matched_deviation(roots, oracle):
    cost = np.abs(roots[:, None] - oracle[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def _assert_in_strip(roots, eps):
    # every zero of r has -eps < Im z < 0, and the zeros left on a repeated
    # centre have Im z = -eps; z = u - i eps rounds Im z by about
    # u max(eps, |z|)
    slack = 4.0 * np.finfo(float).eps * np.maximum(eps, np.abs(roots))
    assert np.all(roots.imag <= slack)
    assert np.all(roots.imag >= -eps - slack)


@pytest.mark.parametrize("site_count, eps, temperature, dos_mode, frac", [
    (1001, 0.01, 0.0, "3d", 0.3),
    (1001, 0.01, 0.0, "3d", 0.78),
    (1001, 0.01, 0.0, "3d", 1.2),
    (1001, 0.001, 0.0, "3d", 0.78),   # normal phase
    (1001, 0.03, 0.0, "3d", 1.3),     # ordered phase
    (101, 0.01, 0.05, "1d", 0.78),    # Landau channel open
    (101, 0.01, 0.05, "1d", 0.95),    # r(z) rounds to exactly 0 on a step
])
def test_secular_roots_match_dense_arrowhead_eigenvalues(
        site_count, eps, temperature, dos_mode, frac):
    base = default_params()
    p = default_params(site_count=site_count,
                       atom_number=base.atom_number * site_count / base.site_count,
                       phonon_damping=eps, temperature=temperature,
                       dos_mode=dos_mode)
    resp = build_response(p.with_pump(frac * critical_coupling(p)))
    weights, centers = [], []
    for channel in ("landau", "beliaev"):
        w, om = resp.bath.pole_weights(channel)
        weights.append(w[w > 0])
        centers.append(om[w > 0])
    oracle, scale = _arrowhead_eigvals(resp.omega_s, np.concatenate(weights),
                                       np.concatenate(centers),
                                       resp.bath.epsilon)
    roots = companion_pole_candidates(resp)
    assert roots.shape == oracle.shape
    assert _matched_deviation(roots, oracle) <= 1e-12 * scale
    _assert_in_strip(roots, resp.bath.epsilon)


@settings(max_examples=100, deadline=None)
@given(detuning=st.floats(-2000.0, -2.0), u=st.floats(0.0, 5.0),
       g_coll=st.floats(0.0, 0.5), frac=st.floats(0.0, 1.6),
       temperature=st.one_of(st.just(0.0), st.floats(0.01, 0.2)),
       eps=st.floats(2e-3, 0.1), site_count=st.sampled_from([101, 11]))
def test_secular_roots_match_the_dense_oracle_over_random_responses(
        detuning, u, g_coll, frac, temperature, eps, site_count):
    # only build_response may refuse a draw; the solve itself must return
    # all m + 1 zeros of every response it is given
    p = default_params(cavity_detuning=detuning, u=u, g_coll=g_coll,
                       temperature=temperature, phonon_damping=eps,
                       site_count=site_count, atom_number=10 * site_count)
    try:
        resp = build_response(p.with_pump(frac * critical_coupling(p)))
    except _TYPED_ERRORS:
        return
    weights, centers = resp.bath.active_poles
    oracle, scale = _arrowhead_eigvals(resp.omega_s, weights, centers,
                                       resp.bath.epsilon)
    roots = companion_pole_candidates(resp)
    assert roots.shape == (centers.size + 1,)
    assert _matched_deviation(roots, oracle) <= 1e-12 * scale
    _assert_in_strip(roots, resp.bath.epsilon)


def test_secular_roots_deflate_coincident_frequencies():
    centers = np.array([0.5, 0.8, 0.8, 1.2])
    weights = np.array([0.01, 0.02, 0.03, 0.01])
    roots = _secular_roots(1.0, weights, centers, 0.01)
    oracle, scale = _arrowhead_eigvals(1.0, weights, centers, 0.01)
    assert roots.shape == oracle.shape
    assert _matched_deviation(roots, oracle) <= 1e-12 * scale
    assert np.count_nonzero(roots == 0.8 - 0.01j) == 1


def test_secular_roots_step_through_an_exact_zero_of_r():
    # symmetric bath: the head's first guess z = 1 gives r(z) = 0 exactly,
    # where the naive Newton form 1/(r'/r + ...) divides by zero
    centers = np.array([0.75, 1.25])
    weights = np.array([0.02, 0.02])
    roots = _secular_roots(1.0, weights, centers, 0.0)
    oracle, scale = _arrowhead_eigvals(1.0, weights, centers, 0.0)
    assert np.all(np.isfinite(roots))
    assert _matched_deviation(roots, oracle) <= 1e-12 * scale


def test_secular_roots_keep_zeros_that_round_onto_their_pole():
    # weight 1e-20 moves its zero by far less than one ulp of the pole, so
    # the zero sits on the pole, where r itself cannot be evaluated
    centers = np.array([0.5, 0.8, 1.2])
    weights = np.array([0.01, 1e-20, 0.01])
    roots = _secular_roots(1.0, weights, centers, 0.01)
    oracle, scale = _arrowhead_eigvals(1.0, weights, centers, 0.01)
    assert _matched_deviation(roots, oracle) <= 1e-12 * scale


def test_secular_roots_of_one_pole_bath_are_the_quadratic_roots():
    # (z - h)(z - x) = w
    head, weight, center, eps = 0.9, 0.04, 1.0, 0.02
    freq = center - 1j * eps
    disc = np.sqrt((head - freq) ** 2 + 4.0 * weight + 0j)
    exact = np.array([(head + freq + disc) / 2, (head + freq - disc) / 2])
    roots = _secular_roots(head, np.array([weight]), np.array([center]), eps)
    assert _matched_deviation(roots, exact) <= 1e-14


def test_secular_roots_raise_when_the_step_cap_is_exhausted():
    centers = np.linspace(0.5, 1.5, 50)
    weights = np.full(50, 0.01)
    with pytest.raises(NumericsError, match="not converged after 1 "):
        _secular_roots(1.0, weights, centers, 0.01, max_iter=1)


def test_local_start_on_subnormal_weights_warns_nothing():
    # g_coll = 1.67e-80 at y = 0 gives bath weights ~1e-160, so the local
    # start's model denominators are subnormal and their reciprocals
    # overflow; the start falls back to the two-pole values silently
    p = default_params(cavity_detuning=-2.0, u=0.0, g_coll=1.67e-80,
                       temperature=0.0, phonon_damping=0.0625,
                       site_count=101, atom_number=1010)
    resp = build_response(p.with_pump(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = companion_pole_candidates(resp)
    oracle, scale = _arrowhead_eigvals(resp.omega_s, *resp.bath.active_poles,
                                       resp.bath.epsilon)
    assert roots.shape == oracle.shape
    assert _matched_deviation(roots, oracle) <= 1e-12 * scale


@st.composite
def _small_baths(draw):
    m = draw(st.integers(1, 60))
    # centres on a 0.01 grid over [0, 2], so that some repeat
    ticks = draw(st.lists(st.integers(0, 200), min_size=m, max_size=m))
    exponents = draw(st.lists(st.floats(-20.0, -1.0), min_size=m,
                              max_size=m))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1)))
    head = draw(st.floats(-0.5, 2.5))
    return head, 10.0 ** np.array(exponents), np.array(ticks) / 100.0, eps


@settings(max_examples=200, deadline=None)
@given(bath=_small_baths())
def test_secular_roots_match_the_dense_oracle_over_random_small_baths(bath):
    # every solve also passes the trace and residue-sum certificates, or
    # it raises
    roots = _secular_roots(*bath)
    oracle, scale = _arrowhead_eigvals(*bath)
    assert roots.shape == oracle.shape
    assert _matched_deviation(roots, oracle) <= 1e-12 * scale
    _assert_in_strip(roots, bath[3])


@pytest.mark.parametrize("frac", [0.70, 0.78, 0.84])
def test_secular_roots_converge_within_eight_steps_on_the_pole_sweep_range(
        frac):
    # from the local start the solve takes 5-7 steps here, the confirmation
    # pass among them (the two-pole start alone took 5-6 Aberth steps)
    p = default_params()
    resp = build_response(p.with_pump(frac * critical_coupling(p)))
    _secular_roots(resp.omega_s, *resp.bath.active_poles, resp.bath.epsilon,
                   max_iter=8)


@pytest.mark.parametrize("frac", [0.70, 0.78, 0.84])
def test_local_start_meets_the_stop_test_on_the_pole_sweep_range(frac):
    # the local start lies within 1e-15 max(|z|, 1) (the stop test's scale:
    # at 0.78 y_crit, max(|u|, 1) and max(|z|, 1) differ by < 1e-4) of the
    # zero the solve converges to from it for 482, 482 and 486 of the 501
    # zeros at 0.70, 0.78 and 0.84 y_crit (the two-pole start: 40, 33 and
    # 27), so the confirmation pass freezes them and the Aberth loop runs
    # on the rest; the bound is 95 %
    p = default_params()
    resp = build_response(p.with_pump(frac * critical_coupling(p)))
    weights, centers = resp.bath.active_poles
    eps = resp.bath.epsilon
    assert np.unique(centers).size == centers.size  # zeros in start order
    order = np.argsort(centers)
    zeros = _secular_roots(resp.omega_s, weights, centers, eps)
    start = continuation._local_start(resp.omega_s + 1j * eps,
                                      weights[order], centers[order])[0]
    close = (np.abs(start - 1j * eps - zeros)
             <= 1e-15 * np.maximum(np.abs(zeros), 1.0))
    assert np.count_nonzero(close) >= 0.95 * zeros.size


def test_certificates_catch_a_lost_zero_and_a_scaled_residue(monkeypatch):
    p = default_params(site_count=101, atom_number=1010)
    resp = build_response(p.with_pump(0.78 * critical_coupling(p)))
    args = (resp.omega_s, *resp.bath.active_poles, resp.bath.epsilon)
    certify = continuation._certify

    def lose_a_zero(u, head, centers, residues, slack):
        u = u.copy()
        u[0] = u[1]
        certify(u, head, centers, residues, slack)

    def scale_a_residue(u, head, centers, residues, slack):
        residues = residues.copy()
        k = np.argsort(np.abs(residues))[residues.size // 2]
        residues[k] *= 1.0 + 1e-6
        certify(u, head, centers, residues, slack)

    _secular_roots(*args)
    for mutant, match in ((lose_a_zero, "trace"),
                          (scale_a_residue, "residues")):
        monkeypatch.setattr(continuation, "_certify", mutant)
        with pytest.raises(NumericsError, match=match):
            _secular_roots(*args)


def test_secular_failure_names_its_pump_point(monkeypatch):
    # a two-point group: the step cap and a failed certificate each name
    # the point they hit by its label; alone a point names none
    centers = np.linspace(0.5, 1.5, 50)
    weights = np.stack([np.full(50, 0.01), np.full(50, 0.02)])
    heads = np.array([1.0, 1.1])
    labels = ["y = 0.316", "y = 0.5"]
    with pytest.raises(NumericsError, match=r"^secular equation at y = 0\.316: "
                                            r"\d+ of 51 zeros not converged "
                                            r"after 1 "):
        _secular_roots(heads, weights, centers, 0.01, max_iter=1,
                       labels=labels)
    with pytest.raises(NumericsError, match=r"^secular equation: \d+ of 51 "):
        _secular_roots(1.0, weights[0], centers, 0.01, max_iter=1)
    certify = continuation._certify

    def lose_a_zero_of_the_second(u, head, centers, residues, slack):
        if head == heads[1] + 0.01j:
            u = u.copy()
            u[0] = u[1]
        certify(u, head, centers, residues, slack)

    monkeypatch.setattr(continuation, "_certify", lose_a_zero_of_the_second)
    with pytest.raises(NumericsError,
                       match=r"^secular equation at y = 0\.5: the trace"):
        _secular_roots(heads, weights, centers, 0.01, labels=labels)


def test_pole_sweep_names_the_point_whose_solve_fails(monkeypatch):
    p = default_params(site_count=101, atom_number=1010)
    ys = np.array([0.72, 0.8]) * critical_coupling(p)
    solve = continuation._secular_roots
    monkeypatch.setattr(continuation, "_secular_roots",
                        functools.partial(solve, max_iter=1))
    with pytest.raises(NumericsError,
                       match=f"^secular equation at y = {ys[0]:g}: "):
        pole_sweep(p, ys)


# 101 sites, 7 atoms, y = 1.0285 y_crit: every zero lies within ~3 of the
# real axis, so at eps >= 100 a step in u = z + i eps rounds with eps
_WIDE_EPS_POINT = dict(site_count=101, atom_number=7, g_coll=0.0667)


@pytest.mark.parametrize("eps", [100.0, 1e3])
def test_secular_solve_converges_with_eps_far_above_the_zeros(eps,
                                                              monkeypatch):
    # the stop test used to be 1e-15 max(|z|, 1), which no step can meet
    # here: 1 of 51 zeros was "not converged after 100" steps at eps = 100
    p = default_params(phonon_damping=eps, **_WIDE_EPS_POINT)
    resp = build_response(p.with_pump(1.0285 * critical_coupling(p)))
    certify = continuation._certify
    certified = []

    def counting(*args):
        certify(*args)
        certified.append(args[0].size)

    monkeypatch.setattr(continuation, "_certify", counting)
    zeros = companion_pole_candidates(resp)
    assert certified == [zeros.size] == [resp.bath.active_poles[1].size + 1]
    assert np.all(zeros.imag <= 0.0) and np.all(zeros.imag >= -eps)


def test_wide_eps_zeros_fail_the_absolute_check_on_r():
    # pinned: at eps = 1e3 every zero in the window fails |r(z)| <= 1e-8,
    # whose rounding grows with eps; a backward-error test |r/r'| would
    # keep them.  At eps = 100 the sweep keeps its two tracks.
    p = default_params(phonon_damping=1e3, **_WIDE_EPS_POINT)
    y = 1.0285 * critical_coupling(p)
    with pytest.raises(NumericsError, match="^only 0 verified poles"):
        pole_sweep(p, [y], omega_window=(0.5, 3.0))
    record, = pole_sweep(replace(p, phonon_damping=100.0), [y],
                         omega_window=(0.5, 3.0))
    assert len(record["poles"]) == 2


@st.composite
def _stacked_baths(draw):
    """2-4 pump points on one small bath: shared bands on a 1/64 grid, so
    that Landau and Beliaev centres can coincide exactly, and per-point
    couplings down to 1e-10 (weights ~1e-20, whose zeros round onto their
    poles), some of them exactly 0, so that active sets can differ."""
    n_pts = draw(st.integers(2, 4))
    n_q = draw(st.integers(1, 12))
    ticks = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n_q,
                                    max_size=n_q)
    omega1 = np.array(draw(ticks(1, 64))) / 64.0
    omega2 = omega1 + np.array(draw(ticks(1, 64))) / 64.0
    exponents = np.array(draw(st.lists(ticks(-10, -1), min_size=2 * n_pts,
                                       max_size=2 * n_pts)), dtype=float)
    # no coupling zeroed, the same ones at every point, or each point's own
    zeros = draw(st.sampled_from(["none", "shared", "own"]))
    masks = st.lists(st.booleans(), min_size=n_q, max_size=n_q)
    zeroed = np.zeros((2 * n_pts, n_q), bool)
    if zeros == "shared":
        zeroed[:] = np.repeat(draw(st.lists(masks, min_size=2,
                                            max_size=2)), n_pts, axis=0)
    elif zeros == "own":
        zeroed[:] = draw(st.lists(masks, min_size=2 * n_pts,
                                  max_size=2 * n_pts))
    couplings = np.where(zeroed, 0.0, 10.0 ** (exponents / 2.0))
    heads = np.array(draw(st.lists(st.floats(-0.5, 4.5), min_size=n_pts,
                                   max_size=n_pts)))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1)))
    temperature = draw(st.sampled_from([0.0, 0.5]))
    return (heads, omega1, omega2, couplings[:n_pts], couplings[n_pts:],
            temperature, eps)


@settings(max_examples=100, deadline=None)
@given(case=_stacked_baths())
@example(case=(np.array([1.0, 1.5, 0.9]), np.array([0.125, 0.25]),
               np.array([0.375, 0.5]),
               np.array([[1e-10, 0.1], [0.1, 0.1], [0.0, 0.1]]),
               np.array([[0.1, 1e-10], [0.1, 0.0], [0.1, 0.1]]), 0.5, 0.01))
def test_stacked_secular_roots_equal_one_point_solves_bit_for_bit(case):
    # every point of a stacked Response gets, bit for bit, the zeros of
    # its own one-point Response; points whose active poles differ are
    # solved apart, so no solve ever holds a pole of zero weight
    heads, omega1, omega2, g_l, g_b, temperature, eps = case
    q = np.arange(1, omega1.size + 1) / 10.0
    dos = np.ones(q.size)

    def bath(g_landau, g_beliaev):
        return build_bath_spectrum(q, omega1, omega2, g_landau, g_beliaev,
                                   temperature, eps, dos, 10.0)

    solve, calls = continuation._secular_roots, []

    def recorded(head, weights, *args, **kwargs):
        calls.append(np.array(weights, copy=True))
        return solve(head, weights, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuation, "_secular_roots", recorded)
        stacked = companion_pole_candidates(Response(heads, bath(g_l, g_b)))
    sets = {row.tobytes() for row in bath(g_l, g_b).pole_table[0] > 0}
    assert len(calls) == len(sets)
    assert all((w > 0).all() for w in calls)
    assert sum(w.shape[0] for w in calls) == heads.size
    for s, head in enumerate(heads):
        alone = companion_pole_candidates(
            Response(float(head), bath(g_l[s], g_b[s])))
        assert stacked[s].tobytes() == alone.tobytes()


# -- pole_sweep: secular zeros with residues 1/r'(z) ------------------------

def test_residue_beside_a_neighbouring_zero_leaves_that_zero_out():
    # the second tracked pole sits 6.2e-6 from another zero of 1/G; a
    # contour of radius min(|Im z|/3, 1e-4) takes in both and gave 8.23e-6
    # for a residue of 7.02e-6
    p = default_params(temperature=0.1)
    y = 1.45 * critical_coupling(p)
    pole = pole_sweep(p, [y], omega_window=(0.0, 3.0))[0]["poles"][1]
    assert pole.z == pytest.approx(1.69673 - 0.01j, abs=1e-5)
    resp = build_response(p.with_pump(y))
    gap = np.sort(np.abs(companion_pole_candidates(resp) - pole.z))[1]
    assert gap < 1e-4
    circle = gap / 4 * np.exp(2j * np.pi * np.arange(256) / 256)
    contour = np.mean(resp.green(pole.z + circle) * circle)
    assert abs(pole.residue - contour) <= 1e-8 * abs(contour)


def test_pole_sweep_residues_match_40_digit_reciprocal_slopes():
    # pole_sweep evaluates r'(z) afresh at the zeros it keeps: that 1/r' is
    # off by <= 2.2e-16 relative on these tracks, while the solve's
    # last-pass values are off by up to 4.6e-13 on the bath-level ones
    p = default_params()
    ys = np.array([0.70, 0.78, 0.84]) * critical_coupling(p)
    for rec in pole_sweep(p, ys):
        resp = build_response(p.with_pump(rec["y"]))
        weights, centers = resp.bath.active_poles
        with mpmath.workdps(40):
            freqs = [mpmath.mpc(x, -resp.bath.epsilon) for x in centers]
            for pole in rec["poles"]:
                z = mpmath.mpc(pole.z.real, pole.z.imag)
                exact = complex(1 / (1 + mpmath.fsum(
                    w / (z - f) ** 2 for w, f in zip(weights, freqs))))
                assert abs(pole.residue - exact) <= 1e-14 * abs(exact)


def test_grouped_pole_sweep_equals_one_point_sweeps_bit_for_bit(monkeypatch):
    # 101 sites: ordered-phase points (groups of one) between 70
    # normal-phase ones, which share a stack and form a group of two
    # blocks; every point's zeros, kept poles and residues are the ones a
    # sweep over that point alone gives, bit for bit, and the tracks are
    # matched over those kept poles
    p = default_params(site_count=101, atom_number=1010)
    normal = np.linspace(0.70, 0.84, 70)
    fracs = np.concatenate([normal[:30], [1.2], normal[30:60], [1.45],
                            normal[60:]])
    ys = fracs * critical_coupling(p)
    verified, seen = continuation._verified_poles, []

    def recorded(z, *args):
        poles = verified(z, *args)
        seen.append((args[-1], z.tobytes(),
                     [(complex(pl.z), complex(pl.residue)) for pl in poles]))
        return poles

    monkeypatch.setattr(continuation, "_verified_poles", recorded)
    grouped = pole_sweep(p, ys)
    # keyed by the label that names the point, "y = {y:g}"
    by_y = dict((label, rest) for label, *rest in seen)
    seen.clear()
    for y in ys:
        assert pole_sweep(p, [y])[0]["poles"] == [
            continuation.Pole(*pair) for pair in seen[-1][2][:2]]
    assert len(seen) == len(ys) == len(by_y)
    for label, z_bytes, kept in seen:
        assert by_y[label] == [z_bytes, kept]
    prev = None
    for y, rec in zip(ys, grouped):
        assert rec["y"] == y
        kept = [continuation.Pole(*pair) for pair in by_y[f"y = {y:g}"][1]]
        chosen = kept[:2] if prev is None else continuation._match_tracks(
            prev, kept)
        assert rec["poles"] == chosen
        assert rec["residues"] == [pl.residue for pl in chosen]
        prev = [pl.z for pl in chosen]


def test_polariton_track_converges_with_the_site_count():
    # criterion 11's grid at 1001 and 2001 sites, the atom number scaled
    # with the sites as in criterion 12; measured: z to 3.4e-8, |residue|
    # to 8.9e-7 relative
    base = default_params()
    ys = np.linspace(0.70, 0.84, 15) * critical_coupling(base)
    eps = base.phonon_damping
    polariton = {}
    for sites in (1001, 2001):
        p = replace(base, site_count=sites,
                    atom_number=base.atom_number * sites / base.site_count)
        polariton[sites] = []
        for rec in pole_sweep(p, ys, omega_window=(0.0, 3.0)):
            # every other tracked pole is a bath level on Im z = -eps
            off_line = [pl for pl in rec["poles"]
                        if abs(pl.z.imag + eps) > eps / 10]
            assert len(off_line) == 1
            polariton[sites].append(off_line[0])
    for small, large in zip(polariton[1001], polariton[2001]):
        assert abs(small.z - large.z) <= 1e-6
        assert (abs(abs(small.residue) - abs(large.residue))
                <= 1e-5 * abs(small.residue))


def test_window_without_a_zero_is_a_numerics_error():
    # the point is named as the solve's errors name it, "y = {y:g}"; it
    # used to be the full repr of y
    p = default_params(site_count=101, atom_number=1010)
    y = 0.5 * critical_coupling(p)
    with pytest.raises(NumericsError,
                       match=re.escape(f"only 0 verified poles in the window "
                                       f"(50.0, 60.0) at y = {y:g} (need 2)")):
        pole_sweep(p, [y], omega_window=(50.0, 60.0))


def test_match_tracks_agrees_with_exhaustive_search():
    # the reference tries every ordered choice of n_track current poles
    rng = np.random.default_rng(11)
    for _ in range(300):
        n_track = int(rng.integers(1, 4))
        prev = list(rng.standard_normal(n_track)
                    + 1j * rng.standard_normal(n_track))
        poles = [continuation.Pole(z=complex(*rng.standard_normal(2)),
                                   residue=0j)
                 for _ in range(n_track + int(rng.integers(0, 4)))]
        best = min(itertools.permutations(poles, n_track), key=lambda c: sum(
            abs(pl.z - z0) for pl, z0 in zip(c, prev)))
        assert continuation._match_tracks(prev, poles) == list(best)


def test_zero_within_rounding_of_a_weak_bath_pole_is_passed_over():
    # 11 sites at eps = 0.082: one of the five zeros in the window sits so
    # close to a weak bath pole that |1/G| evaluates to 1.8e-8 there; the
    # sweep goes on with the other four
    p = default_params(cavity_detuning=-1030.0, u=1.25, g_coll=0.17,
                       phonon_damping=0.082, site_count=11, atom_number=110)
    y = 1.6 * critical_coupling(p)
    resp = build_response(p.with_pump(y))
    zeros = companion_pole_candidates(resp)
    zeros = zeros[(zeros.imag < 0) & (zeros.real >= 0) & (zeros.real <= 2.5)]
    assert np.count_nonzero(np.abs(resp.inverse_green(zeros)) > 1e-8) == 1
    poles = pole_sweep(p, [y], omega_window=(0.0, 2.5))[0]["poles"]
    assert len(poles) == 2
    assert all(abs(resp.inverse_green(pl.z)) <= 1e-8 for pl in poles)


@settings(max_examples=100, deadline=None)
@given(detuning=st.floats(-2000.0, -2.0), u=st.floats(0.0, 5.0),
       g_coll=st.floats(0.0, 0.5),
       fracs=st.lists(st.floats(0.0, 1.6), min_size=1, max_size=3),
       temperature=st.one_of(st.just(0.0), st.floats(0.01, 0.2)),
       eps=st.floats(2e-3, 0.1), site_count=st.sampled_from([101, 11, 3, 1]),
       lo=st.floats(-0.5, 1.0), width=st.floats(0.5, 3.0))
@example(detuning=-1000.0, u=0.0, g_coll=0.1, fracs=[0.7, 0.8],
         temperature=0.0, eps=0.01, site_count=101, lo=0.0, width=3.0)
@example(detuning=-2.5, u=1.0, g_coll=0.3, fracs=[1.3], temperature=0.05,
         eps=0.02, site_count=101, lo=0.0, width=3.0)
def test_pole_sweep_returns_verified_poles_over_random_parameters(
        detuning, u, g_coll, fracs, temperature, eps, site_count, lo, width):
    # every returned pole is a zero of 1/G below the real axis, inside the
    # window, with residue 1/r'(z); a failure is one of the typed errors
    p = default_params(cavity_detuning=detuning, u=u, g_coll=g_coll,
                       temperature=temperature, phonon_damping=eps,
                       site_count=site_count, atom_number=10 * site_count)
    ys = np.sort(fracs) * critical_coupling(p)
    try:
        records = pole_sweep(p, ys, omega_window=(lo, lo + width))
    except _TYPED_ERRORS:
        return
    assert [rec["y"] for rec in records] == list(ys)
    for rec in records:
        resp = build_response(p.with_pump(rec["y"]))
        assert len(rec["poles"]) == 2
        for pole, residue in zip(rec["poles"], rec["residues"]):
            z = pole.z
            assert residue == pole.residue
            assert z.imag < 0
            assert lo <= z.real <= lo + width
            assert abs(resp.inverse_green(z)) <= 1e-8
            # r'(z) summed channel by channel over every bath pole
            terms = np.concatenate([
                w / (z - (om - 1j * resp.bath.epsilon)) ** 2 for w, om in (
                    resp.bath.pole_weights(channel)
                    for channel in ("landau", "beliaev"))])
            slope = 1.0 + terms.sum()
            assert abs(residue * slope - 1.0) <= 1e-12 * (
                1.0 + np.abs(terms).sum()) / abs(slope)
