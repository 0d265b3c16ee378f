import numpy as np
import pytest

from cavitybec import meanfield
from cavitybec.params import ConfigError, critical_coupling, default_params
from cavitybec.meanfield import (
    TOL, CriticalPointError, jacobian, residual, solve_normal_phase,
    solve_steady_state,
)

P = default_params()
Y_CRIT = critical_coupling(P)


def test_normal_phase_chemical_potential_equals_collision_energy():
    mf = solve_normal_phase(P.with_pump(0.5 * Y_CRIT))
    assert (mf.alpha, mf.beta, mf.gamma) == (0.0, 1.0, 0.0)
    assert mf.mu == pytest.approx(P.g_coll, abs=1e-14)


def test_normal_phase_refused_above_threshold():
    with pytest.raises(ConfigError):
        solve_normal_phase(P.with_pump(1.1 * Y_CRIT))


def test_steady_state_below_threshold_is_normal():
    mf = solve_steady_state(P.with_pump(0.6 * Y_CRIT))
    assert mf.alpha == pytest.approx(0.0, abs=1e-12)
    assert mf.beta == pytest.approx(1.0, abs=1e-12)


def test_steady_state_above_threshold_is_organized_and_stationary():
    p = P.with_pump(1.2 * Y_CRIT)
    mf = solve_steady_state(p)
    # alpha = -y beta gamma / (-Delta_C) at u = 0, negative for Delta_C < 0
    assert abs(mf.alpha) > 1e-3 and mf.gamma > 1e-3
    assert np.sign(mf.alpha) == -np.sign(mf.gamma)
    assert mf.beta**2 + mf.gamma**2 == pytest.approx(1.0, abs=1e-12)
    res = residual(p, p.y, mf.as_array())
    assert np.max(np.abs(res)) < 1e-10


def test_canonical_gauge_has_positive_amplitudes():
    mf = solve_steady_state(P.with_pump(1.4 * Y_CRIT))
    assert mf.beta > 0 and mf.gamma >= 0


def test_order_parameter_vanishes_towards_threshold():
    fracs = [1.3, 1.1, 1.02, 1.005]
    alphas = [abs(solve_steady_state(P.with_pump(f * Y_CRIT)).alpha)
              for f in fracs]
    assert all(a1 > a2 for a1, a2 in zip(alphas, alphas[1:]))
    assert alphas[-1] < 0.1


def test_critical_window_refused():
    with pytest.raises(CriticalPointError):
        solve_steady_state(P.with_pump(Y_CRIT * (1.0 + 1e-8)))


def test_jacobian_matches_finite_differences():
    p = P.with_pump(1.2 * Y_CRIT)
    x = solve_steady_state(p).as_array()
    x = x + 0.01  # move off the root so the Jacobian test is non-trivial
    jac = jacobian(p, p.y, x)
    h = 1e-7
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        col = (residual(p, p.y, x + e) - residual(p, p.y, x - e)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], col, rtol=1e-5, atol=1e-6)


def test_sweep_is_continuous_across_threshold():
    # each y solved unseeded, as the meanfield command does
    y_grid = np.linspace(0.5, 1.4, 60) * Y_CRIT
    y_grid = y_grid[np.abs(y_grid - Y_CRIT) > 1e-3 * Y_CRIT]
    branch = [solve_steady_state(P.with_pump(float(y))) for y in y_grid]
    alphas = np.array([abs(mf.alpha) for mf in branch])
    assert np.all(np.diff(alphas) >= -1e-10)  # order parameter grows with y
    assert np.max(np.abs(np.diff(alphas))) < 0.2  # no branch jumps


def _ordered_point(detuning, u, g_coll, frac):
    p = default_params(cavity_detuning=detuning, u=u, g_coll=g_coll)
    return p.with_pump(frac * critical_coupling(p))


def test_damped_newton_fallback_reaches_the_ordered_branch(monkeypatch):
    # a point of a 20 000-draw scan where both full-step solves fail
    p = _ordered_point(-12.760426519335313, 16.250876935454905,
                       3.25374730302172, 65.94624218686948)
    newton = meanfield._newton
    dampings = []

    def counted(p, y, x0, damping=1.0, max_iter=meanfield.MAX_ITER):
        dampings.append(damping)
        return newton(p, y, x0, damping, max_iter)

    monkeypatch.setattr(meanfield, "_newton", counted)
    mf = solve_steady_state(p)
    assert dampings.count(0.2) >= 1
    assert mf.gamma > 0.0
    assert np.max(np.abs(residual(p, p.y, mf.as_array()))) < TOL


def test_canonical_gauge_flips_a_negative_beta(monkeypatch):
    # Newton lands on beta ~ -1e-25 here; the global phase makes it >= 0
    p = _ordered_point(-19.85577043468967, 0.0, 1.5723266083874399,
                       90.41122953283323)
    canonical = meanfield._canonical
    raw = []

    def recorded(x):
        raw.append(np.array(x))
        return canonical(x)

    monkeypatch.setattr(meanfield, "_canonical", recorded)
    mf = solve_steady_state(p)
    assert raw[0][1] < 0.0
    assert mf.beta >= 0.0
    assert mf.gamma == pytest.approx(1.0, abs=1e-12)
