import dataclasses

import numpy as np
import pytest

from cavitybec.params import critical_coupling, default_params, momentum_grid
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.bogoliubov import diagonalize_symplectic, mirrored_modes
from cavitybec.coupling import landau_beliaev_couplings, vertex_coefficients
from cavitybec.bath import build_bath_spectrum
from cavitybec.response import (
    NumericsError, build_response, self_energy, spectral_sum_rule,
)

P = default_params()
Y_CRIT = critical_coupling(P)


@pytest.fixture(scope="module")
def resp():
    return build_response(P.with_pump(0.629 * Y_CRIT))


def _toy_bath(eps=0.01, temperature=0.0, g=0.3):
    # one q entry, composite pair frequency omega1 + omega2 = 1.0
    bath = build_bath_spectrum([0.2], [0.3], [0.7], [g], [g],
                               temperature=temperature, epsilon=eps)
    return dataclasses.replace(bath, degeneracy=1.0)


def test_single_mode_bath_closed_form():
    bath = _toy_bath()
    p = default_params()
    for omega in (0.5, 1.2, 3.0):
        val = self_energy("beliaev", omega, bath, p, dos_mode="1d")
        expected = 0.3**2 / (p.atom_number * (omega - 1.0 + 1j * 0.01))
        assert val == pytest.approx(expected, rel=1e-14)


def test_landau_channel_vanishes_at_zero_temperature():
    bath = _toy_bath(temperature=0.0)
    assert self_energy("landau", 0.9, bath, default_params(),
                       dos_mode="1d") == 0.0


def test_zero_couplings_give_zero_self_energy():
    bath = _toy_bath(g=0.0)
    assert self_energy("beliaev", 0.9, bath, default_params(),
                       dos_mode="1d") == 0.0


def test_pole_collision_reported_for_undamped_bath():
    bath = _toy_bath(eps=0.0)
    with pytest.raises(NumericsError):
        self_energy("beliaev", 1.0, bath, default_params(), dos_mode="1d")


def test_causality_on_real_axis(resp):
    omega = np.linspace(-1.0, 4.0, 2001)
    assert np.all(resp.spectral(omega) >= 0.0)
    sig = resp.self_energy("beliaev", omega)
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
    pol = diagonalize_symplectic(exp.polariton_matrix(), sector="polariton")
    v_t, w_t = exp.interaction_tensors()
    grid = momentum_grid(p)
    rows = []
    for q in grid[grid > 0]:
        ms = diagonalize_symplectic(exp.phonon_matrix(q), sector="phonon")
        vs = vertex_coefficients(v_t, w_t, pol, ms, mirrored_modes(ms), q)
        rows.append((ms.frequencies[0], ms.frequencies[1],
                     *landau_beliaev_couplings(vs, soft_index=0)))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("site_count", [1001, 101])
@pytest.mark.parametrize("frac", [0.3, 0.8, 1.2])
def test_array_first_bath_matches_per_q_path(frac, site_count):
    p = dataclasses.replace(
        P, site_count=site_count,
        atom_number=P.atom_number * site_count / P.site_count)
    p = p.with_pump(frac * critical_coupling(p))
    bath = build_response(p).bath
    got = (bath.omega1, bath.omega2, bath.g_landau, bath.g_beliaev)
    for new, old in zip(got, _per_q_bath(p)):
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
