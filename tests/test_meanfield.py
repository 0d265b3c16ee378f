import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st

from cavitybec import meanfield
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.bogoliubov import soft_mode
from cavitybec.response import build_response
from cavitybec.params import ConfigError, critical_coupling, default_params
from cavitybec.meanfield import (
    TOL, ConvergenceError, CriticalPointError, residual,
    solve_normal_phase, solve_steady_state,
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
    # fields of other real types are read as the floats they equal
    other = default_params(cavity_detuning=np.int64(-1000), u=np.float32(0.0),
                           g_coll=Fraction(1, 10)).with_pump(p.y)
    np.testing.assert_array_equal(solve_steady_state(other).as_array(),
                                  mf.as_array())
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


def _mpmath_root(p, x):
    """The four stationary equations solved in 40 digits from x."""
    with mpmath.workdps(40):
        det, y, u, gt = (mpmath.mpf(v) for v in
                         (p.cavity_detuning, p.y, p.u, p.g_coll))

        def equations(a, b, g, mu):
            return [-det * a + y * b * g + u * (2 * b * b + 3 * g * g) * a,
                    -mu * b + y * a * g + 2 * u * a * a * b
                    + gt * (b ** 3 + 3 * b * g * g),
                    (1 - mu) * g + y * a * b + 3 * u * a * a * g
                    + gt * (1.5 * g ** 3 + 3 * b * b * g),
                    b * b + g * g - 1]

        root = mpmath.findroot(equations, [mpmath.mpf(float(v)) for v in x])
        return np.array([float(v) for v in root])


# (Delta_C, u, g_coll, y / y_crit): two points where a seeded Newton search
# ends on the normal branch although an ordered root exists (F1 1.3e-6
# above y_crit), and two at |mu| > 8e3 where the exact state reads an
# absolute residual above TOL, 1.8e-12 and 2.5e-12, but below 3e-16 of
# its equation's largest term
F1 = (-314.0463546681571, -17.044989718297465, 9.479231543684373,
      1.0000012952411015)
F2 = (-0.5450858857872216, -0.06528385120255466, 7.039633340513116,
      1.0564769166478347)
A = (-12.760426519335313, 16.250876935454905, 3.25374730302172,
     65.94624218686948)
B = (-19.85577043468967, 0.0, 1.5723266083874399, 90.41122953283323)


# at B a seeded search returned the photon-free alpha = beta = 0, gamma = 1,
# whose polariton eigenvalues are +-50.40 +- 48.42i
@pytest.mark.parametrize("point, gamma", [
    (F1, 3.4637e-3), (F2, 0.546790), (A, 0.679476), (B, 0.707092),
])
def test_closed_form_state_matches_a_40_digit_root(point, gamma):
    p = _ordered_point(*point)
    x = meanfield._ordered_state(p)
    assert x[1] > 0.0 and x[2] == pytest.approx(gamma, rel=1e-5)
    np.testing.assert_allclose(x, _mpmath_root(p, x), rtol=1e-13, atol=0.0)
    # and the solve returns it: A and B used to raise ConvergenceError
    np.testing.assert_array_equal(solve_steady_state(p).as_array(), x)


@pytest.mark.parametrize("point, omega_s", [(A, 52.6105), (B, 19.8558)])
def test_large_mu_states_run_through_build_response(point, omega_s):
    p = default_params(cavity_detuning=point[0], u=point[1],
                       g_coll=point[2], site_count=101)
    p = p.with_pump(point[3] * critical_coupling(p))
    assert build_response(p).omega_s == pytest.approx(omega_s, rel=1e-5)


@pytest.mark.parametrize("point, alpha, gamma, mu", [
    (F1, -9.2483e-4, 3.4637e-3, 9.479190),
    (F2, -3.06134, 0.546790, 4.744731),
])
def test_ordered_root_found_where_a_seeded_search_fails(
        point, alpha, gamma, mu):
    p = _ordered_point(*point)
    mf = solve_steady_state(p)
    assert mf.alpha == pytest.approx(alpha, rel=1e-4)
    assert mf.gamma == pytest.approx(gamma, rel=1e-5)
    assert mf.mu == pytest.approx(mu, rel=1e-6)
    assert np.max(np.abs(residual(p, p.y, mf.as_array()))) < TOL


def _check_polariton_modes(exp):
    """soft_mode against the 40-digit eigenvalues of F: once the two
    nearest zero (the phase pair) are set aside, the positive ones are its
    two modes.  The pair, which rounding splits, stays below 1e-6 of the
    scale max(1, max |lambda|) in double and in 40-digit arithmetic."""
    f = exp.polariton_matrix()
    _, ms = soft_mode(exp)
    with mpmath.workdps(40):
        exact = sorted((complex(v) for v in mpmath.eig(
            mpmath.matrix(f.tolist()), left=False, right=False)), key=abs)
    np.testing.assert_allclose(
        ms.frequencies, sorted(v.real for v in exact[2:] if v.real > 0),
        rtol=1e-8, atol=0.0)
    for vals in (np.array(exact), np.linalg.eigvals(f)):
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert np.all(np.sort(np.abs(vals))[:2] < 1e-6 * scale)


# (Delta_C, u, g_coll, y / y_crit) where rounding splits F's phase pair
# past the 1e-8 relative tolerance that used to classify it: the soft mode
# (116.6468941306008) was called non-normalizable at 6.2e-6, and the pair
# read as a non-real spectrum at 1.4e-6 i (soft mode 24.75039843295833)
S1 = (-115.5550528279787, 0.4377970425892783, 7.535131086748066,
      5.843289818973504)
S2 = (-25.30927146250717, -0.2229323087173793, 2.6249471275010148,
      4.790699328060597)


@settings(max_examples=50, deadline=None)
@given(detuning=st.floats(-1e4, -0.5), u=st.floats(-0.4, 30.0),
       g_coll=st.floats(0.0, 10.0), frac=st.floats(1.0, 10.0))
@example(*S1)
@example(*S2)
def test_ordered_solve_over_a_wide_draw(detuning, u, g_coll, frac):
    assume(-detuning + 2.0 * u > 0.0)
    p = _ordered_point(detuning, u, g_coll, frac)
    try:
        mf = solve_steady_state(p)
    except (ConvergenceError, CriticalPointError):
        return
    x = mf.as_array()
    assert mf.beta > 0.0 and mf.gamma > 0.0
    assert np.max(meanfield._scaled_residual(p, p.y, x)) < TOL
    # the Hamiltonian polynomial, independent of the hand-coded equations
    exp = ModelExpansion(p, mf)
    assert np.max(np.abs(exp.meanfield_residual())) <= 1e-9
    np.testing.assert_allclose(x, _mpmath_root(p, x), rtol=1e-12, atol=0.0)
    _check_polariton_modes(exp)


@pytest.mark.parametrize("point", [None, S1])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_critical_window_edges(point, side):
    # CRIT_WINDOW = 1e-6 refuses 1 +- 0.999e-6 y_crit; 1 +- 2e-6 solves on
    # both branches, where the soft mode is as small as 2.2e-6 of F's scale
    p = default_params() if point is None else _ordered_point(*point[:3], 1.0)
    y_crit = critical_coupling(p)
    with pytest.raises(CriticalPointError):
        solve_steady_state(p.with_pump((1.0 + side * 0.999e-6) * y_crit))
    pp = p.with_pump((1.0 + side * 2e-6) * y_crit)
    _check_polariton_modes(ModelExpansion(pp, solve_steady_state(pp)))


def _brentq_smallest_root(c):
    """meanfield._smallest_root as it was with scipy.optimize.brentq: the
    same cuts, and scipy's Brent on the first piece that ends >= 0.
    Returns (root or None, converged)."""
    def cubic(s):
        return ((c[3] * s + c[2]) * s + c[1]) * s + c[0]

    a, b = 3.0 * c[3], 2.0 * c[2]
    disc = max(b * b - 4.0 * a * c[1], 0.0)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    cuts = (q / a if a else 1.0, c[1] / q if q else 1.0)
    lo = 0.0
    for hi in sorted(t for t in cuts if 0.0 < t < 1.0) + [1.0]:
        if cubic(hi) >= 0.0:
            s, info = scipy.optimize.brentq(
                cubic, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
                full_output=True, disp=False)
            if not info.converged:
                return s, False
            return (s if s < 1.0 else None), True
        lo = hi
    return None, True


# a coefficient: Hypothesis' own edge cases (0, subnormals) or a mantissa
# at a decade from 1e-12 to 1e6, as the cubic's terms span across params
_COEFF = st.one_of(
    st.floats(-1e6, 1e6),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0),
              st.integers(-12, 6)))


@settings(max_examples=1000, deadline=None)
@given(c0=_COEFF.filter(lambda c: c < 0.0),
       rest=st.tuples(_COEFF, _COEFF, _COEFF))
@example(c0=-1.0, rest=(0.0, 0.0, 0.0))
@example(c0=-1.0, rest=(2.0, 0.0, 0.0))  # linear, root exactly 1/2
@example(c0=-1e-7, rest=(1.0, -1.0, 0.0))
# a root at 1.3e-14 that neither reaches within 100 steps
@example(c0=-1.175494351e-38, rest=(0.0, 0.0, 5127.0))
def test_smallest_root_is_scipys_brentq_bit_for_bit(c0, rest):
    c = (c0, *rest)
    expected, converged = _brentq_smallest_root(c)
    if converged:
        s = meanfield._smallest_root(c)
        assert (None if s is None else (type(s), s.hex())) == (
            None if expected is None else (float, expected.hex()))
    else:
        # where scipy gives up, at the same last iterate, the port raises
        # the typed error
        with pytest.raises(ConvergenceError,
                           match=re.escape(f"last s = {expected!r}") + "$"):
            meanfield._smallest_root(c)


def test_smallest_root_of_every_sweep_point_is_scipys_brentq(monkeypatch):
    # the coefficients _ordered_state forms from just above y_crit to
    # 10 y_crit and at a large-mu point
    seen = []
    port = meanfield._smallest_root
    monkeypatch.setattr(meanfield, "_smallest_root",
                        lambda c: seen.append(c) or port(c))
    for frac in np.linspace(1.01, 10.0, 40):
        solve_steady_state(P.with_pump(frac * Y_CRIT))
    solve_steady_state(_ordered_point(*S1))
    assert len(seen) == 41
    for c in seen:
        assert port(c).hex() == _brentq_smallest_root(c)[0].hex()


def test_brent_without_convergence_is_a_convergence_error():
    # a jump at 0 and no root: the bracket halves at best per step and
    # cannot shrink from 3 to xtol = 1e-300 in 100 steps
    with pytest.raises(ConvergenceError, match="did not converge in 100"):
        meanfield._brent_root(lambda s: -1.0 if s < 0.0 else 1.0, -1.0, 2.0)
