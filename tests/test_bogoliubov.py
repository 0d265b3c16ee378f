from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavitybec import ConvergenceError, CriticalPointError
from cavitybec.params import critical_coupling, default_params, momentum_grid
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.bogoliubov import (
    GAMMA, OMEGA, DiagonalizationError, _eig_modes, diagonalize_symplectic,
    mirrored_modes, soft_mode,
)
from cavitybec import response
from cavitybec.response import build_response, phonon_bands
from cavitybec.verify import _random_params

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
            r, l = ms.right[:, i], ms.left[:, i]
            assert np.real(np.conj(r) @ OMEGA @ r) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(l, OMEGA @ r, atol=1e-14)
        gram = ms.left.conj().T @ ms.right
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_matrix_reconstruction_from_modes():
    # completeness: G = sum_i w_i r_i l_i^+ over positive and negative modes
    exp, ms = _modes(1.2, 0.27)
    # the -omega partners are GAMMA r, with OMEGA-norm -1 and left vectors
    # -OMEGA GAMMA r
    neg_right = GAMMA @ ms.right
    g = exp.phonon_matrix(0.27)
    rebuilt = (ms.right * ms.frequencies) @ ms.left.conj().T \
        + (neg_right * -ms.frequencies) @ (-OMEGA @ neg_right).conj().T
    np.testing.assert_allclose(rebuilt, g, atol=1e-8 * np.max(np.abs(g)))


def test_polariton_sector_has_exact_zero_pair():
    p = P.with_pump(0.6 * Y_CRIT)
    exp = ModelExpansion(p, solve_steady_state(p))
    vals = np.linalg.eigvals(exp.polariton_matrix())
    assert np.sort(np.abs(vals))[1] < 1e-8 * np.max(np.abs(vals))
    _, ms = soft_mode(exp)
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
    neg_right = GAMMA @ ms.right
    for i in range(3):
        r = neg_right[:, i]
        np.testing.assert_allclose(g @ r, -ms.frequencies[i] * r, atol=1e-9)
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
            assert one.frequencies.shape == (3,)


def test_stack_failure_names_the_offending_matrix():
    exp, _ = _modes(0.8, 0.2)
    q = np.linspace(0.05, 0.45, 6)
    stack = exp.phonon_matrix(q)
    bad = np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]).astype(complex)
    bad[0, 1], bad[1, 0] = 5.0, -5.0  # complex eigenvalue pair
    stack[3] = bad
    with pytest.raises(DiagonalizationError,
                       match="^non-real spectrum in sector 'synthetic' at "
                             "stack index 3: "):
        diagonalize_symplectic(stack, sector="synthetic")
    # a caller's name replaces the stack index
    with pytest.raises(DiagonalizationError,
                       match=f"^non-real spectrum in sector 'synthetic' at "
                             f"q = {q[3]:g}: ") as info:
        diagonalize_symplectic(stack, sector="synthetic",
                               name=lambda i: f"q = {q[i]:g}")
    assert "stack index" not in str(info.value)


def test_phonon_bands_are_continuous_and_ordered():
    p = P.with_pump(0.8 * Y_CRIT)
    mf = solve_steady_state(p)
    q_grid = np.linspace(0.01, 0.5, 80)
    bands = phonon_bands(ModelExpansion(p, mf), q_grid)
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
    table = phonon_bands(ModelExpansion(p, mf), momentum_grid(p)).frequencies
    gap = table[:, 1] - table[:, 0]
    assert float(np.min(gap)) < 2e-3
    assert np.all(np.diff(table, axis=1) > 0.0)
    bath = build_response(p).bath
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
                       match=f"^non-real spectrum in sector 'phonon' at "
                             f"q = {q_grid[2]:g}: ") as info:
        phonon_bands(ModelExpansion(p, mf), q_grid)
    # named once, and with no pump: phonon_bands is given none
    assert str(info.value).count("q = ") == 1
    assert " of y = " not in str(info.value)


def test_soft_mode_value_at_zero_pump():
    mf = solve_steady_state(P)
    omega_s, _ = soft_mode(ModelExpansion(P, mf))
    # analytic sqrt(1 + 2 g) in recoil units
    assert omega_s == pytest.approx(np.sqrt(1.2), abs=1e-12)


def test_gamma_omega_are_involutions():
    assert np.allclose(GAMMA @ GAMMA, np.eye(6))
    assert np.allclose(OMEGA @ OMEGA, np.eye(6))


# -- the two routes of diagonalize_symplectic --------------------------------

def _phonon_stack(seed, frac, site_count):
    """G(q) over the positive half-grid; seed None is the default set, an
    integer seeds verify's random parameter ranges.  The atom density is
    the default one."""
    base = default_params() if seed is None else _random_params(
        np.random.default_rng(seed))
    base = replace(base, site_count=site_count, atom_number=10 * site_count)
    p = base.with_pump(frac * critical_coupling(base))
    return ModelExpansion(p, solve_steady_state(p)).phonon_matrix(
        momentum_grid(p))


def _solve(solver, m):
    try:
        return solver(m, "phonon")
    except DiagonalizationError as exc:
        return exc


def _eig_vector_error(ms, m):
    """First-order roundoff error of the general eigensolve's vectors, per
    mode: eps ||m|| |r_n| sum_k |r_k|^2 / |omega_n - omega_k| over the other
    five modes of the matrix (the negative ones are the GAMMA images, with
    the same norms).  At 2001 sites in the ordered phase it exceeds 1e-9 of
    the largest |r| at the smallest q; 40-digit mpmath vectors confirm that
    the error is the general route's."""
    r2 = np.sum(np.abs(ms.right) ** 2, axis=-2)
    w = ms.frequencies
    gap = np.abs(w[..., :, None] - np.concatenate([w, -w], axis=-1)[..., None, :])
    gap[..., np.arange(3), np.arange(3)] = np.inf
    spread = np.sum(np.concatenate([r2, r2], axis=-1)[..., None, :] / gap,
                    axis=-1)
    norm = np.linalg.norm(m, ord=2, axis=(-2, -1))[..., None]
    return np.finfo(float).eps * norm * np.sqrt(r2) * spread


def _with_examples(test):
    # the default set on both phases at the benchmark's 1001 sites and the
    # spectral fit's 2001 sites
    for sites in (1001, 2001):
        for frac in (0.3, 0.78, 1.05, 1.2, 1.6):
            test = example(seed=None, frac=frac, site_count=sites)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(seed=st.none() | st.integers(0, 2**32 - 1), frac=st.floats(0.0, 1.6),
       site_count=st.sampled_from([11, 101]))
@_with_examples
def test_phonon_solve_matches_the_general_eigensolve(seed, frac, site_count):
    try:
        m = _phonon_stack(seed, frac, site_count)
    except (ConvergenceError, CriticalPointError):
        return
    got, ref = _solve(diagonalize_symplectic, m), _solve(_eig_modes, m)
    if isinstance(got, Exception) or isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    assert got.frequencies.shape == ref.frequencies.shape == m.shape[:1] + (3,)
    np.testing.assert_allclose(got.frequencies, ref.frequencies, rtol=0.0,
                               atol=1e-12 * np.max(ref.frequencies))
    # elementwise, with no phase alignment: both routes share the phase rule
    bound = (1e-9 * np.max(np.abs(ref.right))
             + 4.0 * _eig_vector_error(ref, m)[..., None, :])
    assert np.all(np.abs(got.right - ref.right) <= bound)
    np.testing.assert_array_equal(got.left, OMEGA @ got.right)


def test_negative_norm_block_with_real_spectrum_is_non_normalizable():
    # H = OMEGA m is negative definite on the first pair: m has the real
    # eigenvalues +-sqrt(a^2 - b^2) = +-sqrt(3), but +sqrt(3) has norm -1
    m = np.zeros((6, 6), dtype=complex)
    for k, (a, b) in enumerate([(-2.0, 1.0), (2.0, 1.0), (3.0, 1.0)]):
        m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [-b, -a]]
    with pytest.raises(DiagonalizationError,
                       match="non-normalizable positive mode at omega = "
                             "1.73205") as info:
        diagonalize_symplectic(m, sector="synthetic")
    # a single matrix without a name is not placed
    assert str(info.value).endswith(
        "in sector 'synthetic' (dynamical instability)")
    stack = _phonon_stack(None, 0.8, 101)[:6]
    stack[3] = m
    with pytest.raises(DiagonalizationError, match="non-normalizable.*"
                                                   "in sector 'synthetic' "
                                                   "at stack index 3 "):
        diagonalize_symplectic(stack, sector="synthetic")


def test_small_phonon_frequency_is_a_mode_on_both_routes():
    # omega = 5 is 2.5e-9 of the scale 2e9 of the spectrum, yet a phonon
    # matrix has no zero pair: it is the lowest mode, on the Colpa route
    # (OMEGA m is positive definite) and on the general one
    m = np.diag([5.0, -5.0, 1e9, -1e9, 2e9, -2e9]).astype(complex)
    for solver in (diagonalize_symplectic, _eig_modes):
        ms = solver(m, "synthetic")
        np.testing.assert_allclose(ms.frequencies, [5.0, 1e9, 2e9],
                                   rtol=1e-15)


def test_non_pseudo_hermitian_matrix_takes_the_general_route():
    # the Cholesky factor would accept this stack from the lower triangle
    # of OMEGA m alone; the upper one breaks the pseudo-Hermiticity, which
    # the general route reports through the reciprocity check
    m = _phonon_stack(None, 1.2, 101)[:4]
    m[2, 0, 3] += 1e-3
    with pytest.raises(DiagonalizationError,
                       match="^defective positive-frequency subspace in "
                             "sector 'phonon' at stack index 2$"):
        diagonalize_symplectic(m, sector="phonon")


def test_build_response_phonon_stacks_skip_the_general_eigensolve(monkeypatch):
    # the one general eigensolve per point is the polariton matrix F; the
    # random sets guard the real gauge of the Colpa route, which a complex
    # coefficient outside the c-s coupling would break for every G(q)
    points = [P.with_pump(frac * Y_CRIT) for frac in (0.3, 0.78, 1.05, 1.2, 1.6)]
    rng = np.random.default_rng(8)
    for site_count in (11, 101):
        for frac in (0.5, 1.3, 0.9, 1.1):
            base = replace(_random_params(rng), site_count=site_count,
                           atom_number=10 * site_count)
            points.append(base.with_pump(frac * critical_coupling(base)))
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    response._phonon_modes.cache_clear()
    monkeypatch.setattr(np.linalg, "eig", counted)
    for p in points:
        build_response(p)
    assert shapes == [(1, 6, 6)] * len(points)


@pytest.mark.parametrize("frac", [1.05, 1.2])
def test_phonon_frequencies_match_40_digit_eigenvalues(frac):
    # the smallest q of the 2001-site ordered phase carry the lowest,
    # worst-conditioned acoustic modes
    m = _phonon_stack(None, frac, 2001)[:3]
    got = diagonalize_symplectic(m, sector="phonon").frequencies
    with mpmath.workdps(40):
        for mk, wk in zip(m, got):
            exact = sorted(float(mpmath.re(e)) for e in
                           mpmath.eig(mpmath.matrix(mk.tolist()),
                                      left=False, right=False))
            np.testing.assert_allclose(wk, exact[3:], rtol=0.0, atol=5e-14)
