import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cavitybec import (
    BathConstructionError, ConfigError, ConvergenceError, CriticalPointError,
)
from cavitybec.params import critical_coupling, default_params, momentum_grid
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.bogoliubov import (DiagonalizationError, diagonalize_symplectic,
                                  mirrored_modes, soft_mode)
from cavitybec.coupling import landau_beliaev_couplings, vertex_coefficients
from cavitybec.bath import build_bath_spectrum
from cavitybec import bogoliubov, response
from cavitybec.response import (
    _SUM_RULE_MAX_STEP_PER_WIDTH, NumericsError, Response, build_response,
    damping_sweep, phonon_bands, pole_sum, self_energy, spectral_sum_rule,
)

P = default_params()
Y_CRIT = critical_coupling(P)


@pytest.fixture(scope="module")
def resp():
    return build_response(P.with_pump(0.629 * Y_CRIT))


def _toy_bath(eps=0.01, temperature=0.0, g=0.3):
    # one q entry (the +-q pair), composite pair frequency
    # omega1 + omega2 = 1.0, 1D density of modes
    return build_bath_spectrum([0.2], [0.3], [0.7], [g], [g],
                               temperature=temperature, epsilon=eps,
                               dos=[1.0], atom_number=P.atom_number)


def test_single_mode_bath_closed_form():
    bath = _toy_bath()
    p = default_params()
    for omega in (0.5, 1.2, 3.0):
        val = self_energy("beliaev", omega, bath)
        expected = 2 * 0.3**2 / (p.atom_number * (omega - 1.0 + 1j * 0.01))
        assert val == pytest.approx(expected, rel=1e-14)


def test_landau_channel_vanishes_at_zero_temperature():
    bath = _toy_bath(temperature=0.0)
    assert self_energy("landau", 0.9, bath) == 0.0


def test_zero_couplings_give_zero_self_energy():
    bath = _toy_bath(g=0.0)
    assert self_energy("beliaev", 0.9, bath) == 0.0


def test_pole_collision_reported_for_undamped_bath():
    bath = _toy_bath(eps=0.0)
    with pytest.raises(NumericsError):
        self_energy("beliaev", 1.0, bath)


def test_causality_on_real_axis(resp):
    omega = np.linspace(-1.0, 4.0, 2001)
    assert np.all(resp.spectral(omega) >= 0.0)
    sig = self_energy("beliaev", omega, resp.bath)
    assert np.all(sig.imag <= 1e-15)


def test_high_frequency_tail(resp):
    omega = 1.0e3
    assert abs(omega * resp.green(omega) - 1.0) < 1e-3


def test_born_markov_rates_nonnegative(resp):
    bm = resp.born_markov()
    assert bm.gamma_b >= 0.0
    assert bm.gamma_l == 0.0  # T = 0
    # first-order pole displacement: the denominator at the dressed pole is
    # far smaller than at the bare frequency (the remainder is the
    # second-order term of the self-energy expansion)
    assert abs(resp.inverse_green(bm.pole)) < 0.15 * abs(
        resp.inverse_green(resp.omega_s))


def test_free_polariton_is_unit_weight_lorentzian():
    # zero couplings: G = 1/(omega - omega_s); with a small eta surrogate
    # the spectral weight integrates to one
    eta = 1e-3
    omega_s = 1.1
    omega = np.arange(-50.0, 50.0, eta / 5.0)
    rho = -2.0 * np.imag(1.0 / (omega + 1j * eta - omega_s))
    assert np.trapezoid(rho, omega) / (2 * np.pi) == pytest.approx(1.0,
                                                                   abs=1e-2)


def test_sum_rule_on_full_response(resp):
    total, _, _ = spectral_sum_rule(resp)
    assert total == pytest.approx(1.0, abs=1e-2)


def test_kramers_kronig_consistency(resp):
    # Re G from the spectral density via a principal-value transform with
    # grid-symmetric subtraction, against direct evaluation
    total, grid, rho = spectral_sum_rule(resp)
    lo, hi = grid[0], grid[-1]
    for omega_t in (0.45, 0.95, 1.3, 2.0):
        mask = np.abs(grid - omega_t) > 1e-12
        rho_t = float(np.interp(omega_t, grid, rho))
        integrand = (rho - rho_t) / (omega_t - grid)
        integrand[~mask] = 0.0
        pv = np.trapezoid(integrand, grid) \
            + rho_t * np.log((omega_t - lo) / (hi - omega_t))
        re_g = pv / (2 * np.pi)
        assert re_g == pytest.approx(float(np.real(resp.green(omega_t))),
                                     abs=1e-3)


def test_rates_scale_linearly_with_coupling_weights(resp):
    # every self-energy summand carries |g|^2, so scaling both channel
    # amplitudes by sqrt(s) multiplies shifts and rates by s exactly
    s = 3.7
    bath2 = dataclasses.replace(
        resp.bath,
        g_landau=resp.bath.g_landau * np.sqrt(s),
        g_beliaev=resp.bath.g_beliaev * np.sqrt(s))
    resp2 = dataclasses.replace(resp, bath=bath2)
    bm, bm2 = resp.born_markov(), resp2.born_markov()
    assert bm2.delta_b == pytest.approx(s * bm.delta_b, rel=1e-12)
    assert bm2.gamma_b == pytest.approx(s * bm.gamma_b, rel=1e-12)


def _per_q_bath(p):
    """Bands and couplings from one eigensolve and one full vertex set per
    q: the reference for the array-first momentum stage."""
    exp = ModelExpansion(p, solve_steady_state(p))
    _, pol = soft_mode(exp)
    v_t, w_t = exp.interaction_tensors()
    rows = []
    for q in momentum_grid(p):
        ms = diagonalize_symplectic(exp.phonon_matrix(q), sector="phonon")
        vs = vertex_coefficients(v_t, w_t, pol, ms, mirrored_modes(ms))
        rows.append((ms.frequencies[0], ms.frequencies[1],
                     *landau_beliaev_couplings(vs)))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("site_count", [1001, 101])
@pytest.mark.parametrize("frac", [0.3, 0.8, 1.2])
def test_array_first_bath_matches_per_q_path(frac, site_count):
    p = dataclasses.replace(
        P, site_count=site_count,
        atom_number=P.atom_number * site_count / P.site_count)
    p = p.with_pump(frac * critical_coupling(p))
    ref = _per_q_bath(p)
    response._phonon_modes.cache_clear()
    cold = build_response(p).bath
    # a warm call is served the kept modes and pair kernel; below
    # threshold they were kept by a point at another pump
    response._phonon_modes.cache_clear()
    build_response(p.with_pump(0.5 * p.y if frac < 1.0 else p.y))
    warm = build_response(p).bath
    assert response._phonon_modes.cache_info().hits == 1
    for bath in (cold, warm):
        got = (bath.omega1, bath.omega2, bath.g_landau, bath.g_beliaev)
        for new, old in zip(got, ref):
            # relative to each table's scale: the smallest |gL| sits ~1e-4
            # below the largest, where both summation orders lose digits
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


def test_empty_momentum_grid_gives_empty_bath():
    # one site: no q != 0 on the grid, the soft mode is undamped
    p = dataclasses.replace(P, site_count=1)
    resp = build_response(p.with_pump(0.5 * critical_coupling(p)))
    assert resp.bath.q.shape == resp.bath.g_beliaev.shape == (0,)
    bm = resp.born_markov()
    assert bm.gamma_b == bm.gamma_l == 0.0


def _two_channel_reference(resp, z):
    """z - omega_s - Sigma^L - Sigma^B by explicit complex division over
    every bath pole, and the per-point scale |z| + |omega_s| + sum |term|."""
    z = np.asarray(z, dtype=complex)
    out = z - resp.omega_s
    scale = np.abs(z) + abs(resp.omega_s)
    for channel in ("landau", "beliaev"):
        w, om = resp.bath.pole_weights(channel)
        terms = w / (z[:, None] - (om - 1j * resp.bath.epsilon))
        out = out - terms.sum(axis=1)
        scale = scale + np.abs(terms).sum(axis=1)
    return out, scale


# the real axis, above it, between it and the pole line Im z = -eps = -0.01,
# and below that line
_PROBES = np.concatenate([np.linspace(-1.0, 4.0, 1001),
                          np.linspace(0.2, 2.5, 300) + 0.02j,
                          np.linspace(0.2, 2.5, 300) - 0.004j,
                          np.linspace(0.2, 2.5, 300) - 0.05j])


@pytest.fixture(scope="module")
def small_params():
    p = dataclasses.replace(P, site_count=101,
                            atom_number=P.atom_number * 101 / P.site_count)
    return p.with_pump(0.78 * critical_coupling(p))


@pytest.mark.parametrize("dos_mode", ["1d", "3d"])
@pytest.mark.parametrize("temperature", [0.0, 0.05])
def test_inverse_green_matches_two_channel_reference(small_params,
                                                     temperature, dos_mode):
    p = dataclasses.replace(small_params, temperature=temperature,
                            dos_mode=dos_mode)
    resp = build_response(p)
    ref, scale = _two_channel_reference(resp, _PROBES)
    assert np.all(np.abs(resp.inverse_green(_PROBES) - ref) <= 1e-13 * scale)
    for k in (5, 1500):  # scalar z, as the Newton pole search passes it
        got = resp.inverse_green(_PROBES[k])
        assert np.ndim(got) == 0
        assert abs(got - ref[k]) <= 1e-13 * scale[k]


@pytest.mark.parametrize("frac", [0.5, 1.2])
def test_sum_rule_matches_a_direct_evaluation_of_rho(frac):
    p = dataclasses.replace(P, site_count=201,
                            atom_number=P.atom_number * 201 / P.site_count)
    resp = build_response(p.with_pump(frac * critical_coupling(p)))
    total, grid, rho = spectral_sum_rule(resp)
    # chunked: the grid has ~5e4 points against ~100 poles
    inv = np.concatenate([_two_channel_reference(resp, grid[lo:lo + 4096])[0]
                          for lo in range(0, grid.size, 4096)])
    ref = -2.0 * np.imag(1.0 / inv)
    assert np.max(np.abs(rho - ref)) <= 1e-13 * np.max(ref)
    assert abs(total - np.trapezoid(ref, grid) / (2.0 * np.pi)) <= 1e-13


def test_zero_temperature_table_drops_the_landau_poles(resp):
    weights, centers = resp.bath.active_poles
    w_b, om_b = resp.bath.pole_weights("beliaev")
    assert np.all(weights > 0)
    assert np.array_equal(centers, om_b[w_b > 0])
    assert resp.born_markov().gamma_l == 0.0


def test_replaced_bath_rebuilds_the_pole_table(resp):
    # the path _sweep_point takes: one Response, then replace(bath=...)
    before = resp.inverse_green(_PROBES)
    b = resp.bath
    other = dataclasses.replace(b, g_landau=1.5 * b.g_landau,
                                g_beliaev=1.5 * b.g_beliaev,
                                temperature=0.05, epsilon=0.03)
    resp2 = dataclasses.replace(resp, bath=other)
    ref, scale = _two_channel_reference(resp2, _PROBES)
    assert np.all(np.abs(resp2.inverse_green(_PROBES) - ref) <= 1e-13 * scale)
    assert np.array_equal(resp.inverse_green(_PROBES), before)
    assert (len(resp2.bath.active_poles[0])
            > len(resp.bath.active_poles[0]))


def test_sum_rule_refuses_undamped_bath_before_any_evaluation(resp,
                                                              monkeypatch):
    def no_scan(self, omega_grid):
        raise AssertionError("spectral scanned at epsilon = 0")

    undamped = dataclasses.replace(resp, bath=dataclasses.replace(
        resp.bath, temperature=0.0, epsilon=0.0))
    monkeypatch.setattr(Response, "spectral", no_scan)
    with pytest.raises(NumericsError, match="epsilon > 0"):
        spectral_sum_rule(undamped)


@pytest.mark.parametrize("frac", [0.3, 0.78, 1.2])
def test_build_response_takes_the_soft_mode_from_soft_mode(frac):
    p = P.with_pump(frac * Y_CRIT)
    omega_s, _ = soft_mode(ModelExpansion(p, solve_steady_state(p)))
    assert build_response(p).omega_s == omega_s


def test_unknown_dos_mode_is_a_config_error_before_the_mean_field():
    # the point checks its density of modes once, where it is made, so
    # no stage of the pipeline is reached with another
    with pytest.raises(ConfigError,
                       match="dos_mode must be '1d' or '3d', got '2d'"):
        dataclasses.replace(P, dos_mode="2d")


def test_empty_polariton_set_raises_a_typed_error(monkeypatch):
    # an all-zero F has only zero-frequency directions: past its one zero
    # pair, no positive mode is left
    monkeypatch.setattr(ModelExpansion, "polariton_matrix",
                        lambda self: np.zeros((6, 6), dtype=complex))
    with pytest.raises(DiagonalizationError, match="unpaired spectrum"):
        build_response(P.with_pump(0.5 * Y_CRIT))


def test_ideal_gas_phonon_is_a_mode_at_10001_sites():
    # without collisions the lowest band is q^2: 1.0e-8 at q_min, within
    # the 1e-8 relative tolerance that used to call it a zero pair
    p = default_params(site_count=10001, g_coll=0.0)
    bath = build_response(p.with_pump(0.5 * critical_coupling(p))).bath
    assert bath.omega1[0] == pytest.approx(momentum_grid(p)[0] ** 2,
                                           rel=1e-9)


def test_sum_rule_refuses_epsilon_below_its_grid_resolution(monkeypatch):
    # ε = 1e-5 used to be floored to 1e-4 for the grid step and returned
    # 1.0093 after a five-million-point scan; 1e-4 is still resolved
    p = default_params(site_count=101, atom_number=1000)
    base = build_response(p.with_pump(0.5 * critical_coupling(p)))

    def with_eps(eps):
        return dataclasses.replace(base, bath=dataclasses.replace(
            base.bath, temperature=0.0, epsilon=eps))

    total, _, _ = spectral_sum_rule(with_eps(1e-4))
    assert total == pytest.approx(1.0, abs=1e-2)

    def no_scan(self, omega_grid):
        raise AssertionError("spectral scanned below the resolvable epsilon")

    monkeypatch.setattr(Response, "spectral", no_scan)
    with pytest.raises(NumericsError, match="epsilon >= 0.0001"):
        spectral_sum_rule(with_eps(1e-5))


@st.composite
def _pole_sums(draw):
    """(weights >= 0, centers, eps, z) with z off the pole line Im = -eps,
    in both half-planes; more z than one block of rows."""
    n = draw(st.integers(0, 40))
    weights = draw(arrays(float, n, elements=st.floats(0.0, 10.0)))
    centers = draw(arrays(float, n, elements=st.floats(-5.0, 5.0)))
    eps = draw(st.floats(0.0, 1.0))
    m = draw(st.integers(1, 150))
    re = draw(arrays(float, m, elements=st.floats(-6.0, 6.0)))
    depth = draw(arrays(float, m, elements=st.floats(1e-3, 5.0)))
    side = draw(arrays(float, m, elements=st.sampled_from([-1.0, 1.0])))
    return weights, centers, eps, re + 1j * (side * depth - eps)


def _assert_matches_direct_complex_sum(weights, centers, eps, z):
    terms = weights / (z[:, None] - centers + 1j * eps)
    direct = terms.sum(axis=1)
    # floored: for a subnormal weight the reference rounds Im to 0 where
    # pole_sum keeps 5e-324, and the relative bound alone is then 0
    bound = np.maximum(1e-13 * np.abs(terms).sum(axis=1),
                       np.finfo(float).tiny)
    got = pole_sum(z, weights, centers, eps)
    assert got.shape == z.shape
    assert np.all(np.abs(got - direct) <= bound)
    scalar = pole_sum(z[0], weights, centers, eps)
    assert np.ndim(scalar) == 0
    assert abs(scalar - direct[0]) <= bound[0]


@settings(max_examples=200, deadline=None)
@given(case=_pole_sums())
@example(case=(np.array([]), np.array([]), 0.01, np.array([0.5 + 0.1j])))
@example(case=(np.array([0.3]), np.array([1.0]), 0.0,
               np.array([1.0 + 0.2j, 1.0 - 0.2j, 3.0 + 0.0j])))
@example(case=(np.array([5e-324]), np.array([0.0]), 0.0,
               np.array([0.5 - 0.25j])))
def test_pole_sum_matches_direct_complex_sum(case):
    _assert_matches_direct_complex_sum(*case)


@st.composite
def _far_pole_sums(draw):
    """(weights >= 0, centers, eps, z): a band of up to 300 poles, 2e-3 to 4
    wide, against up to 300 z with |Re z|, |Im z| up to 80 in both
    half-planes, a fifth of them within a few half-widths of the band (and
    all off the pole line); at scale 1 or 1e12.  Most draws have enough
    poles and far z for pole_sum's far-field expansion."""
    m = draw(st.integers(0, 300))
    n = draw(st.integers(1, 300))
    center = draw(st.floats(-5.0, 5.0))
    half = draw(st.floats(1e-3, 2.0))
    eps = draw(st.floats(0.0, 1.0))
    scale = draw(st.sampled_from([1.0, 1e12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.0, 10.0, m)
    centers = center + half * rng.uniform(-1.0, 1.0, m)
    re = rng.uniform(-80.0, 80.0, n)
    depth = rng.uniform(1e-3, 80.0, n)
    near = rng.random(n) < 0.2
    re[near] = center + half * rng.uniform(-5.0, 5.0, np.count_nonzero(near))
    depth[near] = rng.uniform(1e-3, 5.0 * half + 1e-3, np.count_nonzero(near))
    z = re + 1j * (rng.choice([-1.0, 1.0], n) * depth - eps)
    return weights, scale * centers, scale * eps, scale * z


def _cost_rule_case(n_far):
    """100 poles on [0.9, 1.1], n_far z far from them and 10 near them."""
    centers = np.linspace(0.9, 1.1, 100)
    z = np.concatenate([np.linspace(-40.0, 40.0, n_far) + 3.0j,
                        np.linspace(0.8, 1.2, 10) + 0.05j])
    return np.linspace(1.0, 2.0, 100), centers, 0.01, z


# fewest far z for which pole_sum expands 100 poles:
# (100 + n) K < 100 n, K = response._FAR_TERMS
_FAR_MIN = 100 * response._FAR_TERMS // (100 - response._FAR_TERMS) + 1


@settings(max_examples=200, deadline=None)
@given(case=_far_pole_sums())
@example(case=(np.ones(200), np.full(200, 1.5), 0.01,  # R = 0
               np.linspace(-60.0, 60.0, 300) + 2.0j))
@example(case=(np.ones(response._FAR_TERMS),  # m <= K
               np.linspace(0.9, 1.1, response._FAR_TERMS), 0.01,
               np.linspace(-60.0, 60.0, 300) + 2.0j))
@example(case=(np.ones(300), np.linspace(0.9, 1.1, 300), 0.0,  # eps = 0
               np.concatenate([np.linspace(-60.0, 60.0, 300) - 2.0j,
                               np.linspace(0.8, 1.2, 50) + 0.01j])))
@example(case=_cost_rule_case(_FAR_MIN - 1))
@example(case=_cost_rule_case(_FAR_MIN))
@example(case=(np.ones(300), 1e12 * np.linspace(-1.0, 1.0, 300), 0.0,
               1e12 * (np.linspace(-60.0, 60.0, 300) + 5.0j)))
def test_far_field_pole_sum_matches_direct_complex_sum(case):
    _assert_matches_direct_complex_sum(*case)


def test_far_points_do_not_skip_the_collision_check():
    centers = np.linspace(0.9, 1.1, 2000)
    far = np.linspace(-40.0, 40.0, 2 * response._FAR_TERMS) + 1j
    weights = np.ones_like(centers)
    assert np.all(np.isfinite(pole_sum(far, weights, centers, 0.0)))
    with pytest.raises(NumericsError):
        pole_sum(np.append(far, centers[1234]), weights, centers, 0.0)


@pytest.mark.parametrize("k", [4, 70])
def test_stacked_weights_sum_each_row_as_alone(k):
    # rows of z against rows of weights over shared centres, as a sweep
    # group evaluates them; 70 points a row take the far field in part
    # and cut a row into blocks, 4 points share one block across rows
    rng = np.random.default_rng(k)
    centers = np.sort(rng.uniform(0.5, 1.5, 300))
    weights = rng.uniform(0.0, 1e-3, (3, 300))
    z = rng.uniform(-20.0, 20.0, (3, k)) + 1j * rng.uniform(-0.01, 0.5,
                                                            (3, k))
    stacked = pole_sum(z, weights, centers, 0.004)
    assert stacked.shape == (3, k)
    for row, w, got in zip(z, weights, stacked):
        assert got.tobytes() == pole_sum(row, w, centers, 0.004).tobytes()


@settings(max_examples=50, deadline=None)
@given(centers=arrays(float, st.integers(1, 20),
                      elements=st.floats(-5.0, 5.0)),
       data=st.data())
def test_pole_sum_reports_a_collision_at_zero_epsilon(centers, data):
    k = data.draw(st.integers(0, len(centers) - 1))
    z = np.array([centers[0] + 0.5j, centers[k], 7.0])
    with pytest.raises(NumericsError):
        pole_sum(z, np.ones_like(centers), centers, 0.0)


_TYPED_ERRORS = (BathConstructionError, ConfigError, ConvergenceError,
                 CriticalPointError, DiagonalizationError, NumericsError)


@settings(max_examples=150, deadline=None)
@given(detuning=st.floats(-2000.0, -2.0), u=st.floats(0.0, 5.0),
       g_coll=st.floats(0.0, 0.5), frac=st.floats(0.0, 1.6),
       temperature=st.one_of(st.just(0.0), st.floats(0.01, 0.2)),
       eps=st.floats(2e-3, 0.1), site_count=st.sampled_from([1, 3, 11, 101]))
@example(detuning=-1000.0, u=0.0, g_coll=0.1, frac=0.5, temperature=0.0,
         eps=0.01, site_count=101)
@example(detuning=-2.5, u=1.0, g_coll=0.3, frac=1.3, temperature=0.05,
         eps=0.02, site_count=101)
@example(detuning=-1000.0, u=0.0, g_coll=0.1, frac=0.5, temperature=0.0,
         eps=0.01, site_count=1)
@example(detuning=-2000.0, u=0.0, g_coll=0.005, frac=0.005, temperature=0.0,
         eps=0.005, site_count=3)
# the dressed pole 0.2342 - 0.0011i is far from the Born-Markov one,
# 0.2022 - 0.0095i, and narrower than the grid step eps / 5
@example(detuning=-4.0, u=0.0, g_coll=0.5, frac=0.96484375, temperature=0.125,
         eps=0.0078125, site_count=11)
# u at the smallest normal double: u^2 in the mean-field cubic underflows
@example(detuning=-2.0, u=2.2250738585072014e-308, g_coll=0.0, frac=1.5,
         temperature=0.0, eps=0.01, site_count=1)
def test_pipeline_properties_over_random_parameters(
        detuning, u, g_coll, frac, temperature, eps, site_count):
    # the whole pipeline either returns physical numbers or raises one of
    # the package's typed errors; the atom density is the default one
    base = default_params(cavity_detuning=detuning, u=u, g_coll=g_coll,
                          temperature=temperature, phonon_damping=eps,
                          site_count=site_count,
                          atom_number=10 * site_count)
    p = base.with_pump(frac * critical_coupling(base))
    try:
        resp = build_response(p)
        bm = resp.born_markov()
    except _TYPED_ERRORS:
        return
    assert np.all(np.isfinite([bm.omega_s, bm.delta_l, bm.gamma_l,
                               bm.delta_b, bm.gamma_b]))
    assert bm.gamma_b >= 0.0
    if temperature == 0.0:
        assert bm.gamma_l == 0.0
    try:
        total, _, _ = spectral_sum_rule(resp)
    except NumericsError:
        # the one refusal open at these epsilon: a polariton pole narrower
        # than its grid step eps / 5 can join
        width = bm.gamma_l + bm.gamma_b
        assert width * _SUM_RULE_MAX_STEP_PER_WIDTH < resp.bath.epsilon / 5
        return
    assert abs(total - 1.0) < 1e-2


def test_sweep_defaults_to_the_damping_and_temperature_of_p():
    # epsilons used to default to 0.01 whatever p.phonon_damping was
    p = default_params(site_count=101, atom_number=1010,
                       phonon_damping=0.003, temperature=0.05)
    ys = [0.5 * critical_coupling(p)]
    records = damping_sweep(p, ys)
    assert [(r["epsilon"], r["temperature"]) for r in records] == [
        (0.003, 0.05)]
    assert records == damping_sweep(p, ys, epsilons=(0.003,),
                                    temperatures=(0.05,))


def test_negative_epsilon_or_temperature_is_a_config_error():
    # the per-(epsilon, T) baths of a sweep are built past ThermoParams; a
    # negative epsilon used to come back as gamma_B = -1.7e-3
    p = default_params(site_count=101, atom_number=1010)
    ys = [0.5 * critical_coupling(p)]
    with pytest.raises(ConfigError, match="epsilon must be >= 0"):
        damping_sweep(p, ys, epsilons=(-0.01,))
    with pytest.raises(ConfigError, match="temperature must be >= 0"):
        damping_sweep(p, ys, temperatures=(-0.1,))
    # NaN used to pass both checks and come back as NaN rates
    with pytest.raises(ConfigError, match="epsilon must be >= 0"):
        damping_sweep(p, ys, epsilons=(np.nan,))
    with pytest.raises(ConfigError, match="temperature must be >= 0"):
        damping_sweep(p, ys, temperatures=(np.nan,))
    # inf used to come back as gamma_l = gamma_b = nan, and 1e300 as rates
    # of 0.0, both past an overflow RuntimeWarning in the pole sum
    for eps in (np.inf, 1e300):
        with pytest.raises(ConfigError, match="epsilon must be >= 0 and <="):
            damping_sweep(p, ys, epsilons=(eps,))


def test_infinite_or_overflowing_temperature_is_a_config_error():
    # both used to come back as gamma_L = nan and gamma_B = inf past a
    # RuntimeWarning: n = 1/expm1(omega/T) overflowed and n1 - n2 was
    # inf - inf
    p = default_params(site_count=101, atom_number=1010)
    ys = [0.5 * critical_coupling(p)]
    with pytest.raises(ConfigError, match="temperature must be >= 0 and "
                                          "finite, got inf"):
        damping_sweep(p, ys, temperatures=(np.inf,))
    with pytest.raises(ConfigError, match="thermal occupation overflows"):
        damping_sweep(p, ys, temperatures=(1e308,))


# -- the phonon modes are solved once per distinct G(q) stack ----------------

def _cold_build(frac):
    response._phonon_modes.cache_clear()
    return build_response(P.with_pump(frac * Y_CRIT))


def _assert_same_response(got, ref):
    # bit for bit: every field of the bath, arrays by their bytes
    assert got.omega_s == ref.omega_s
    for field in dataclasses.fields(got.bath):
        a, b = getattr(got.bath, field.name), getattr(ref.bath, field.name)
        assert np.shape(a) == np.shape(b), field.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_normal_phase_points_share_one_phonon_solve(monkeypatch):
    solves = []
    solve = response.diagonalize_symplectic

    def counted(m, sector=""):
        solves.append(np.shape(m))
        return solve(m, sector)

    response._phonon_modes.cache_clear()
    monkeypatch.setattr(response, "diagonalize_symplectic", counted)
    low = build_response(P.with_pump(0.3 * Y_CRIT))
    high = build_response(P.with_pump(0.78 * Y_CRIT))
    assert len(solves) == 1
    # below threshold the bands are the pump-independent ones; only the
    # soft mode and its couplings move
    assert np.shares_memory(low.bath.omega1, high.bath.omega1)
    assert not np.array_equal(low.bath.g_beliaev, high.bath.g_beliaev)
    _assert_same_response(low, _cold_build(0.3))
    _assert_same_response(high, _cold_build(0.78))


def test_a_warm_point_builds_solves_and_forms_nothing_of_its_stack(
        monkeypatch):
    # a normal-phase point after another one pays only for what the pump
    # changes: no G(q) stack, no eigensolve, no pair kernel
    response._phonon_modes.cache_clear()
    build_response(P.with_pump(0.4 * Y_CRIT))
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ModelExpansion, "phonon_matrix",
                        counted("stack", ModelExpansion.phonon_matrix))
    monkeypatch.setattr(response, "diagonalize_symplectic",
                        counted("solve", response.diagonalize_symplectic))
    monkeypatch.setattr(response, "pair_kernel",
                        counted("kernel", response.pair_kernel))
    warm = build_response(P.with_pump(0.9 * Y_CRIT))
    assert calls == []
    info = response._phonon_modes.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    monkeypatch.undo()
    _assert_same_response(warm, _cold_build(0.9))


def test_kept_phonon_modes_are_read_only():
    p = P.with_pump(0.5 * Y_CRIT)
    resp = _cold_build(0.5)
    exp = ModelExpansion(p, solve_steady_state(p))
    modes = phonon_bands(exp, momentum_grid(p))
    kept, kernel = response._phonon_stack(exp, momentum_grid(p))
    assert kept is modes
    assert kernel.shape == (momentum_grid(p).size, 2, 36)
    assert response._phonon_modes.cache_info().hits == 2
    for arr in (modes.frequencies, modes.right, kernel,
                resp.bath.omega1, resp.bath.omega2):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_ordered_point_between_normal_ones_matches_a_cold_build():
    response._phonon_modes.cache_clear()
    for frac in (0.3, 1.2, 0.5):
        build_response(P.with_pump(frac * Y_CRIT))
    # both stacks are kept: the ordered one is served from the memo here
    warm_ordered = build_response(P.with_pump(1.2 * Y_CRIT))
    warm_normal = build_response(P.with_pump(0.95 * Y_CRIT))
    _assert_same_response(warm_ordered, _cold_build(1.2))
    _assert_same_response(warm_normal, _cold_build(0.95))


def test_changed_g_coefficients_or_q_grid_are_solved_again(monkeypatch):
    # the planted complex pair of test_bad_phonon_matrix_is_named_by_its_q,
    # after the clean modes of the same expansion and grid have been kept:
    # the key is G's coefficients and the q grid, so a change of one bit
    # in either builds the planted stack and meets its bad matrix
    p = P.with_pump(0.8 * Y_CRIT)
    exp = ModelExpansion(p, solve_steady_state(p))
    q_half = momentum_grid(p)
    response._phonon_modes.cache_clear()
    phonon_bands(exp, q_half)
    bad = np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]).astype(complex)
    bad[0, 1], bad[1, 0] = 5.0, -5.0
    phonon_matrix = ModelExpansion.phonon_matrix

    def planted(self, q):
        stack = phonon_matrix(self, q)
        stack[2] = bad
        return stack

    monkeypatch.setattr(ModelExpansion, "phonon_matrix", planted)
    # an unchanged key is served without building the stack
    phonon_bands(exp, q_half)
    assert response._phonon_modes.cache_info().hits == 1

    def meets_the_planted_pair(q_grid):
        with pytest.raises(DiagonalizationError,
                           match=f"q = {q_grid[2]:g}: non-real") as info:
            phonon_bands(exp, q_grid)
        assert info.value.index == 2

    moved_q = q_half.copy()
    moved_q[-1] = np.nextafter(moved_q[-1], 1.0)
    meets_the_planted_pair(moved_q)
    nudged = exp.phonon_coefficients.copy()
    nudged.real[0, 0, 0] = np.nextafter(nudged.real[0, 0, 0], np.inf)
    monkeypatch.setattr(ModelExpansion, "phonon_coefficients",
                        property(lambda self: nudged))
    meets_the_planted_pair(q_half)
    assert response._phonon_modes.cache_info().misses == 3


def test_phonon_bands_refuses_a_grid_holding_q_zero():
    # a grid with q = 0 is never kept, so the warm expansion still raises
    p = P.with_pump(0.5 * Y_CRIT)
    exp = ModelExpansion(p, solve_steady_state(p))
    q_half = momentum_grid(p)
    phonon_bands(exp, q_half)
    with pytest.raises(ValueError, match="q = 0"):
        phonon_bands(exp, np.concatenate([[0.0], q_half[1:]]))


def test_sweep_rates_match_one_bath_per_epsilon_and_temperature():
    # the sweep evaluates each channel once per (pump, T) for the whole
    # epsilon family, at z = omega_s + i epsilon on an epsilon = 0 bath;
    # the checked bath of each (epsilon, T) pair, evaluated at omega_s,
    # is the direct route
    epsilons, temps = (0.03, 0.01, 0.003, 0.001), (0.0, 0.05)
    pairs = [(eps, temp) for eps in epsilons for temp in temps]
    for frac in (0.5, 1.3):
        y = frac * Y_CRIT
        records = damping_sweep(P, [y], epsilons=epsilons,
                                temperatures=temps)
        resp = build_response(P.with_pump(y))
        assert [(r["epsilon"], r["temperature"]) for r in records] == pairs
        for rec, (eps, temp) in zip(records, pairs):
            bath = dataclasses.replace(resp.bath, epsilon=eps,
                                       temperature=temp)
            bm = dataclasses.replace(resp, bath=bath).born_markov()
            assert rec["omega_s"] == bm.omega_s
            for ch in ("l", "b"):
                got = rec[f"delta_{ch}"] - 1j * rec[f"gamma_{ch}"]
                ref = (getattr(bm, f"delta_{ch}")
                       - 1j * getattr(bm, f"gamma_{ch}"))
                assert abs(got - ref) <= 1e-14 * abs(ref)
            if temp == 0.0:
                # no Landau pole at T = 0, and no -0.0 in the tables
                assert rec["gamma_l"] == 0.0
                assert not np.signbit(rec["gamma_l"])


# -- a sweep evaluates each group of pump points with one stack in one pass --

def _record_bits(records):
    return [[(key, np.float64(value).tobytes()) for key, value in r.items()]
            for r in records]


@pytest.mark.parametrize("site_count, fracs", [
    (1001, [0.3, 1.2, 0.6, 1.45, 0.9]),
    # 70 normal-phase points: a group of two blocks of up to 64 points
    (101, [1.3, *np.linspace(0.05, 0.95, 70), 1.1]),
])
def test_grouped_sweep_equals_one_point_sweeps_bit_for_bit(site_count,
                                                           fracs):
    # normal-phase points share one stack and form one group; each
    # ordered-phase point is a group of its own; the records come back in
    # the order of the inputs and as each point gives them alone
    p = dataclasses.replace(
        P, site_count=site_count,
        atom_number=P.atom_number * site_count / P.site_count)
    ys = np.array(fracs) * critical_coupling(p)
    kwargs = dict(epsilons=(0.03, 0.003), temperatures=(0.0, 0.05))
    response._phonon_modes.cache_clear()
    grouped = damping_sweep(p, ys, **kwargs)
    alone = [r for y in ys for r in damping_sweep(p, [y], **kwargs)]
    assert [r["y"] for r in grouped] == [float(y) for y in ys for _ in range(4)]
    assert _record_bits(grouped) == _record_bits(alone)


def test_warm_sweep_of_normal_points_makes_one_eigensolve(monkeypatch):
    # k normal-phase points: one soft-mode eigensolve over their stack of
    # F, and one lookup of the phonon stack they share
    ys = np.linspace(0.3, 0.95, 5) * Y_CRIT
    damping_sweep(P, ys)
    solves = []
    eig_modes = bogoliubov._eig_modes

    def counted(m, *args, **kwargs):
        solves.append(np.shape(m))
        return eig_modes(m, *args, **kwargs)

    monkeypatch.setattr(bogoliubov, "_eig_modes", counted)
    before = response._phonon_modes.cache_info()
    damping_sweep(P, ys, epsilons=(0.03, 0.01), temperatures=(0.0, 0.1))
    after = response._phonon_modes.cache_info()
    assert solves == [(5, 6, 6)]
    assert after.misses - before.misses <= 1
    assert (after.hits + after.misses) - (before.hits + before.misses) == 1


def test_zero_polariton_matrix_at_one_pump_names_its_y(monkeypatch):
    # as test_empty_polariton_set_raises_a_typed_error, but at the second
    # of three pump points of one group: the error names that point's y
    ys = np.array([0.3, 0.5, 0.7]) * Y_CRIT
    polariton_matrix = ModelExpansion.polariton_matrix
    calls = []

    def zero_at_the_second(self):
        calls.append(1)
        if len(calls) == 2:
            return np.zeros((6, 6), dtype=complex)
        return polariton_matrix(self)

    monkeypatch.setattr(ModelExpansion, "polariton_matrix",
                        zero_at_the_second)
    with pytest.raises(DiagonalizationError,
                       match=f"unpaired spectrum in sector 'polariton' at "
                             f"y = {ys[1]:g}: ") as info:
        damping_sweep(P, ys)
    assert "stack index" not in str(info.value)
    assert info.value.index == 1
