import numpy as np
import pytest

from cavitybec.params import critical_coupling, default_params, momentum_grid
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.bogoliubov import (
    GAMMA, OMEGA, DiagonalizationError, diagonalize_symplectic,
    mirrored_modes, negative_modes, phonon_bands, soft_mode,
)
from cavitybec.response import build_response

P = default_params()
Y_CRIT = critical_coupling(P)


def _modes(frac, q):
    p = P.with_pump(frac * Y_CRIT)
    mf = solve_steady_state(p)
    exp = ModelExpansion(p, mf)
    return exp, diagonalize_symplectic(exp.phonon_matrix(q), sector="test")


def test_normalization_and_reciprocity():
    for frac in (0.4, 1.2):
        _, ms = _modes(frac, 0.27)
        for i in range(len(ms.frequencies)):
            _, r, l = ms.mode(i)
            assert np.real(np.conj(r) @ OMEGA @ r) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(l, OMEGA @ r, atol=1e-14)
        gram = ms.left.conj().T @ ms.right
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_matrix_reconstruction_from_modes():
    # completeness: G = sum_i w_i r_i l_i^+ over positive and negative modes
    exp, ms = _modes(1.2, 0.27)
    neg = negative_modes(ms)
    g = exp.phonon_matrix(0.27)
    rebuilt = (ms.right * ms.frequencies) @ ms.left.conj().T \
        + (neg.right * neg.frequencies) @ neg.left.conj().T
    np.testing.assert_allclose(rebuilt, g, atol=1e-8 * np.max(np.abs(g)))


def test_polariton_sector_has_exact_zero_pair():
    p = P.with_pump(0.6 * Y_CRIT)
    mf = solve_steady_state(p)
    ms = diagonalize_symplectic(ModelExpansion(p, mf).polariton_matrix(),
                                sector="polariton")
    assert ms.zero_count == 2
    assert len(ms.frequencies) == 2
    assert ms.frequencies[1] > 100.0  # photon-like branch near -Delta_C


def test_mirrored_modes_match_direct_diagonalization():
    exp, ms = _modes(1.2, 0.31)
    direct = diagonalize_symplectic(exp.phonon_matrix(-0.31), sector="-q")
    mirror = mirrored_modes(ms)
    np.testing.assert_allclose(mirror.frequencies, direct.frequencies,
                               atol=1e-10)
    for i in range(3):
        # same ray: eigenvectors may differ by the phase-fixing convention
        ov = np.conj(mirror.right[:, i]) @ OMEGA @ direct.right[:, i]
        assert abs(ov) == pytest.approx(1.0, abs=1e-9)


def test_negative_modes_are_particle_hole_images():
    exp, ms = _modes(0.5, 0.2)
    g = exp.phonon_matrix(0.2)
    neg = negative_modes(ms)
    for i in range(3):
        r = neg.right[:, i]
        np.testing.assert_allclose(g @ r, neg.frequencies[i] * r, atol=1e-9)
        assert np.real(np.conj(r) @ OMEGA @ r) == pytest.approx(-1.0, abs=1e-9)


def test_instability_is_reported_not_normalized_away():
    m = np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]).astype(complex)
    m[0, 1] = 5.0
    m[1, 0] = -5.0  # complex eigenvalue pair
    with pytest.raises(DiagonalizationError):
        diagonalize_symplectic(m, sector="synthetic")


def test_stacked_diagonalization_matches_per_matrix():
    # one batched eigensolve, same arithmetic per matrix: results are equal
    for frac in (0.4, 1.2):
        p = P.with_pump(frac * Y_CRIT)
        exp = ModelExpansion(p, solve_steady_state(p))
        q = np.concatenate([np.linspace(0.002, 0.5, 25), [-0.31]])
        stack = diagonalize_symplectic(exp.phonon_matrix(q), sector="stack")
        assert stack.frequencies.shape == (len(q), 3)
        assert stack.right.shape == stack.left.shape == (len(q), 6, 3)
        for i, qi in enumerate(q):
            one = diagonalize_symplectic(exp.phonon_matrix(qi), sector="one")
            np.testing.assert_array_equal(stack.frequencies[i], one.frequencies)
            np.testing.assert_array_equal(stack.right[i], one.right)
            np.testing.assert_array_equal(stack.left[i], one.left)
            assert stack.zero_count == one.zero_count == 0
    # polariton matrices keep their zero pair through the stack
    fs = [ModelExpansion(pp, solve_steady_state(pp)).polariton_matrix()
          for pp in (P.with_pump(0.3 * Y_CRIT), P.with_pump(1.3 * Y_CRIT))]
    stack = diagonalize_symplectic(np.stack(fs), sector="polariton")
    assert stack.zero_count == 2 and stack.frequencies.shape == (2, 2)
    for f, freqs in zip(fs, stack.frequencies):
        np.testing.assert_array_equal(
            freqs, diagonalize_symplectic(f, sector="one").frequencies)


def test_stack_failure_names_the_offending_matrix():
    exp, _ = _modes(0.8, 0.2)
    stack = exp.phonon_matrix(np.linspace(0.05, 0.45, 6))
    bad = np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]).astype(complex)
    bad[0, 1], bad[1, 0] = 5.0, -5.0  # complex eigenvalue pair
    stack[3] = bad
    with pytest.raises(DiagonalizationError, match="stack index 3") as info:
        diagonalize_symplectic(stack, sector="synthetic")
    assert info.value.index == 3
    assert "non-real spectrum" in str(info.value)
    # a matrix with fewer positive modes (the polariton zero pair) than
    # the first one of the stack
    stack[3] = exp.polariton_matrix()
    with pytest.raises(DiagonalizationError, match="stack index 3") as info:
        diagonalize_symplectic(stack, sector="mixed")
    assert info.value.index == 3 and "count differs" in str(info.value)


def test_phonon_bands_are_continuous_and_ordered():
    p = P.with_pump(0.8 * Y_CRIT)
    mf = solve_steady_state(p)
    q_grid = np.linspace(0.01, 0.5, 80)
    bands = phonon_bands(p, mf, q_grid)
    table = bands.frequencies
    assert table.shape == (len(q_grid), 3)
    assert bands.right.shape == bands.left.shape == (len(q_grid), 6, 3)
    assert np.all(np.abs(np.diff(table, axis=0)) < 0.1)  # no label jumps
    # bands 1 and 2 only touch at the zone edge q = 1/2
    interior = q_grid < 0.49
    assert np.all(table[interior, 0] < table[interior, 1])
    assert np.all(table[:, 0] <= table[:, 1] + 1e-12)


def test_near_crossing_bands_stay_ascending_and_match_the_bath():
    # at 0.78 y_crit bands 1 and 2 come within ~1e-3 of each other on the
    # default 1001-site grid; the labels stay ascending there and are the
    # ones build_response hands to the bath
    p = P.with_pump(0.78 * Y_CRIT)
    mf = solve_steady_state(p)
    grid = momentum_grid(p)
    q_half = grid[grid > 0]
    table = phonon_bands(p, mf, q_half).frequencies
    gap = table[:, 1] - table[:, 0]
    assert float(np.min(gap)) < 2e-3
    assert np.all(np.diff(table, axis=1) > 0.0)
    bath = build_response(p, mf).bath
    np.testing.assert_array_equal(table[:, 0], bath.omega1)
    np.testing.assert_array_equal(table[:, 1], bath.omega2)


def test_bad_phonon_matrix_is_named_by_its_q(monkeypatch):
    p = P.with_pump(0.8 * Y_CRIT)
    mf = solve_steady_state(p)
    q_grid = np.linspace(0.05, 0.45, 6)
    bad = np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]).astype(complex)
    bad[0, 1], bad[1, 0] = 5.0, -5.0  # complex eigenvalue pair
    phonon_matrix = ModelExpansion.phonon_matrix

    def planted(self, q):
        stack = phonon_matrix(self, q)
        stack[2] = bad
        return stack

    monkeypatch.setattr(ModelExpansion, "phonon_matrix", planted)
    with pytest.raises(DiagonalizationError,
                       match=f"q = {q_grid[2]:g}: non-real") as info:
        phonon_bands(p, mf, q_grid)
    assert info.value.index == 2


def test_soft_mode_value_at_zero_pump():
    mf = solve_steady_state(P)
    omega_s, idx, _ = soft_mode(P, mf)
    assert idx == 0
    # analytic sqrt(1 + 2 g) in recoil units
    assert omega_s == pytest.approx(np.sqrt(1.2), abs=1e-12)


def test_gamma_omega_are_involutions():
    assert np.allclose(GAMMA @ GAMMA, np.eye(6))
    assert np.allclose(OMEGA @ OMEGA, np.eye(6))
