import numpy as np
import pytest

from cavitybec.params import critical_coupling, default_params
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import ModelExpansion, build_terms
from cavitybec.bogoliubov import symmetry_residuals

P = default_params()
Y_CRIT = critical_coupling(P)


def _expansion(frac):
    p = P.with_pump(frac * Y_CRIT)
    mf = solve_steady_state(p)
    return p, mf, ModelExpansion(p, mf)


def test_meanfield_residual_vanishes_on_both_branches():
    for frac in (0.4, 1.25):
        _, _, exp = _expansion(frac)
        assert np.max(np.abs(exp.meanfield_residual())) < 1e-10


def test_polariton_matrix_satisfies_structure_identities():
    for frac in (0.4, 1.25):
        _, _, exp = _expansion(frac)
        res = symmetry_residuals(exp.polariton_matrix())
        assert res["gamma"] < 1e-10 and res["omega"] < 1e-10


def test_phonon_matrix_polynomial_matches_direct_build():
    # the cached quadratic-in-q interpolation must agree with a from-scratch
    # construction of the monomial list at arbitrary q
    p, mf, exp = _expansion(1.15)
    qs = (0.071, 0.29, 0.5)
    for q in qs:
        direct = exp._phonon_matrix_at(build_terms(p, mf.mu, q))
        np.testing.assert_allclose(exp.phonon_matrix(q), direct,
                                   rtol=0, atol=1e-10)
    # an array of momenta gives the stack of the scalar evaluations
    q_arr = np.array([*qs, -0.29])
    stack = exp.phonon_matrix(q_arr)
    assert stack.shape == (4, 6, 6)
    np.testing.assert_array_equal(
        stack, np.stack([exp.phonon_matrix(q) for q in q_arr]))


def test_phonon_matrix_rejects_zero_momentum():
    _, _, exp = _expansion(0.4)
    with pytest.raises(ValueError):
        exp.phonon_matrix(0.0)
    with pytest.raises(ValueError):
        exp.phonon_matrix(np.array([0.1, 0.0, 0.2]))


def test_free_particle_dispersion_without_interactions():
    # y = 0, g = 0: the lowest band is exactly the free kinetic energy q^2
    p = default_params(g_coll=0.0)
    mf = solve_steady_state(p)
    exp = ModelExpansion(p, mf)
    for q in (0.3, 0.45):
        vals = np.linalg.eigvals(exp.phonon_matrix(q))
        assert np.min(np.abs(np.sort(vals.real) - q * q)) < 1e-12


def test_bogoliubov_dispersion_of_decoupled_condensate():
    # y = 0: lowest band follows omega(q) = sqrt(q^2 (q^2 + 2 g)) exactly
    mf = solve_steady_state(P)
    exp = ModelExpansion(P, mf)
    for q in (0.1, 0.3, 0.5):
        vals = np.sort(np.linalg.eigvals(exp.phonon_matrix(q)).real)
        expected = np.sqrt(q * q * (q * q + 2.0 * P.g_coll))
        assert np.min(np.abs(vals - expected)) < 1e-12


def test_interaction_tensors_vanish_without_condensate_or_collisions():
    # below threshold with g = 0 and u = 0 the cubic vertices are pure pump
    # terms through alpha and gamma, both zero in the normal phase at y = 0
    p = default_params(g_coll=0.0)
    mf = solve_steady_state(p)
    v_t, w_t = ModelExpansion(p, mf).interaction_tensors()
    assert np.max(np.abs(v_t)) == 0.0
    assert np.max(np.abs(w_t)) == 0.0
