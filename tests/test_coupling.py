import numpy as np
import pytest

from cavitybec.params import critical_coupling, default_params
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.bogoliubov import (diagonalize_symplectic, mirrored_modes,
                                  soft_mode)
from cavitybec.coupling import (
    landau_beliaev_couplings, v_reflection_residual, vertex_coefficients,
    vertex_duality_residuals, vw_connection_residual,
)

P = default_params()
Y_CRIT = critical_coupling(P)


def _setup(frac, q):
    p = P.with_pump(frac * Y_CRIT)
    mf = solve_steady_state(p)
    exp = ModelExpansion(p, mf)
    v_t, w_t = exp.interaction_tensors()
    _, pol = soft_mode(exp)
    ph = diagonalize_symplectic(exp.phonon_matrix(q), sector="phonon")
    vs = vertex_coefficients(v_t, w_t, pol, ph, mirrored_modes(ph))
    return p, v_t, w_t, pol, ph, vs


@pytest.mark.parametrize("frac", [0.3, 0.8, 1.2])
def test_tensor_connection_identity(frac):
    _, v_t, w_t, _, _, _ = _setup(frac, 0.25)
    assert vw_connection_residual(v_t, w_t) < 1e-12
    assert v_reflection_residual(v_t) < 1e-12


@pytest.mark.parametrize("frac", [0.3, 0.8, 1.2])
def test_coefficient_dualities(frac):
    _, _, _, _, _, vs = _setup(frac, 0.25)
    res = vertex_duality_residuals(vs)
    assert max(res.values()) < 1e-12


def test_couplings_even_in_momentum():
    p, v_t, w_t, pol, _, vs = _setup(0.8, 0.31)
    ph_m = diagonalize_symplectic(
        ModelExpansion(p, solve_steady_state(p)).phonon_matrix(-0.31),
        sector="phonon")
    vs_m = vertex_coefficients(v_t, w_t, pol, ph_m, mirrored_modes(ph_m))
    gl, gb = landau_beliaev_couplings(vs)
    gl_m, gb_m = landau_beliaev_couplings(vs_m)
    assert abs(gl) == pytest.approx(abs(gl_m), rel=1e-9)
    assert abs(gb) == pytest.approx(abs(gb_m), rel=1e-9)


def test_couplings_vanish_in_normal_phase_without_collisions():
    p = default_params(g_coll=0.0)
    mf = solve_steady_state(p)
    exp = ModelExpansion(p, mf)
    v_t, w_t = exp.interaction_tensors()
    assert np.max(np.abs(v_t)) == 0.0 and np.max(np.abs(w_t)) == 0.0


def test_couplings_finite_with_collisions():
    for frac in (0.2, 0.5, 0.8):
        _, _, _, _, _, vs = _setup(frac, 0.25)
        gl, gb = landau_beliaev_couplings(vs)
        assert abs(gb) > 0.0 and abs(gl) > 0.0
