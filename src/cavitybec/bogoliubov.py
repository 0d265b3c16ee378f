"""Bogoliubov normal modes of the polariton and phonon sectors.

Both sectors are governed by 6x6 non-Hermitian matrices with a particle-hole
structure (GAMMA, pairing eigenmodes at +-omega) and a pseudo-Hermiticity
(OMEGA) that makes stable spectra real and fixes the bosonic normalization
r+ OMEGA r = sgn(omega).  Left eigenvectors follow as l = sgn(omega) OMEGA r.

The polariton matrix F always carries an exact zero-frequency pair from
atom-number conservation (the condensate phase mode); soft_mode sets it
aside by count, leaving two normalizable positive polariton modes.  Phonon
matrices G(q) have no zero pair and three positive modes, one per band.

diagonalize_symplectic has two routes, and its input picks one.  A stable
G(q) makes H = OMEGA G Hermitian and positive definite, and then Colpa's
method (a Cholesky factor of H and a symmetric eigensolve) gives the modes,
faster and closer to the exact eigenvalues than a general eigensolve.  It
runs in real arithmetic: every coefficient of the Hamiltonian and every
mean-field amplitude is real except the kinetic c-s coupling +-2 i q (the
momentum operator between the cos and sin bands), so the diagonal phase
P = diag(1, 1, 1, 1, i, -i) on the (s_q, s+_{-q}) slots makes P^+ H P real
symmetric.  P commutes with OMEGA, so the modes of G are P times those of
the real problem.  Any stack holding an unstable, defective or otherwise
complex matrix goes through the general complex eigensolve, which checks
every matrix and words the errors; F, whose zero pair makes H only
semidefinite, always does.  Both routes share the phase rule, the
reciprocity check and the ModeSet assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import ModelExpansion

# pairwise swap of (annihilation, creation) slots
GAMMA = np.kron(np.eye(3), np.array([[0.0, 1.0], [1.0, 0.0]]))
# bosonic metric
_OMEGA_DIAG = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
OMEGA = np.diag(_OMEGA_DIAG)
# the real gauge of the phonon sector: P = diag(_GAUGE) on (b, c, s) pairs
_GAUGE = np.array([1.0, 1.0, 1.0, 1.0, 1.0j, -1.0j])
# entry (j, k) of P^+ OMEGA m P is m[j, k] times this
_GAUGE_H = _OMEGA_DIAG[:, None] * np.conj(_GAUGE)[:, None] * _GAUGE

# a positive mode of OMEGA-norm <= ZERO_TOL is not normalizable; an imaginary
# part above REAL_TOL, relative to max(1, max |omega|), is an instability
ZERO_TOL = 1e-8
REAL_TOL = 1e-8


class DiagonalizationError(RuntimeError):
    """Defective or non-real Bogoliubov spectrum (instability/criticality).

    For a stack of matrices, index is the position of the offending matrix
    in the flattened stack; for a single matrix it is None.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ModeSet:
    """Positive-frequency normal modes of one 6x6 Bogoliubov matrix, or of
    every matrix of a stack.

    right[:, i] and left[:, i] are the OMEGA-normalized right and left
    eigenvectors of mode i; frequencies ascend.  A stack keeps its leading
    axes in front of every array: frequencies are (..., n), right and left
    (..., 6, n), and the mode count n is shared by all matrices.
    """

    frequencies: np.ndarray
    right: np.ndarray

    @property
    def left(self) -> np.ndarray:
        """Left eigenvectors l = OMEGA r of the positive-frequency modes."""
        return OMEGA @ self.right


def symmetry_residuals(f: np.ndarray, g_minus: np.ndarray | None = None) -> dict:
    """Residuals of the particle-hole and pseudo-Hermiticity identities.

    For the polariton matrix pass only f; for a phonon matrix pass G(q) as f
    and G(-q) as g_minus.
    """
    partner = f if g_minus is None else g_minus
    return {
        "gamma": np.max(np.abs(GAMMA @ f @ GAMMA + np.conj(partner))),
        "omega": np.max(np.abs(OMEGA @ f @ OMEGA - f.conj().T)),
    }


def diagonalize_symplectic(m: np.ndarray, sector: str = "") -> ModeSet:
    """Extract the positive-frequency bosonic modes of a 6x6 matrix, or of
    every matrix of a (..., 6, 6) stack in one batched solve.

    Every eigenvalue of m is a mode, as in a phonon matrix G(q); the
    polariton matrix F, with its zero pair, goes through soft_mode.  Modes
    ascend in frequency; each right vector is OMEGA-normalized and made
    real and positive at its largest component (the first one within a
    relative 1e-8 of the largest, so that roundoff does not pick it).
    Every check applies to each matrix of a stack.  Raises
    DiagonalizationError for non-real spectra (dynamical instability or
    criticality), unpaired +-omega, and non-normalizable or defective
    positive-frequency subspaces; for a stack the message and the error's
    index name the first offending matrix.

    The input picks one of two routes.  When P^+ OMEGA m P (P the real
    gauge of the module docstring) is real, symmetric and positive definite
    for every matrix of the stack, Colpa's Cholesky method applies: one
    batched real Cholesky factor and one real symmetric eigensolve.  That
    is the stable phonon matrix G(q), and for a real, paired spectrum
    positive definiteness is exactly the condition the general route
    accepts.  A stack holding an unstable, defective or otherwise complex
    matrix takes the general complex eigensolve, which does the checks
    above and words the errors.
    """
    m = np.asarray(m)
    modes = _colpa_modes(m, sector)
    return modes if modes is not None else _eig_modes(m, sector)


def _colpa_modes(m: np.ndarray, sector: str) -> ModeSet | None:
    """Colpa's route in the real gauge, or None when the stack does not
    qualify for it.

    With the real symmetric H = P^+ OMEGA m P = L L^T and W = L^T OMEGA L
    = U w U^T, m (P OMEGA L u) = w (P OMEGA L u) for every column u of U,
    and (P OMEGA L u)^+ OMEGA (P OMEGA L u) = w, because P is unitary and
    commutes with OMEGA.  By Sylvester's law of inertia W has three
    negative and three positive eigenvalues, so the upper three columns are
    the positive modes, already ascending, and r = P OMEGA L u / sqrt(w) is
    OMEGA-normalized.  (J. H. P. Colpa, Physica A 93, 327 (1978).)  In G(q)
    the gauge turns the c-s coupling +-2 i q real; any other complex entry
    sends the stack to the general route.
    """
    h = m.reshape((-1, 6, 6)) * _GAUGE_H
    # np.linalg.cholesky reads only the lower triangle of H, so a stack whose
    # H is not real symmetric to roundoff (G(q)'s is, to ~1e-16) stays off it
    tol = 1e-12 * np.max(np.abs(h), axis=(-2, -1), initial=0.0)[:, None, None]
    if (np.any(np.abs(h.imag) > tol)
            or np.any(np.abs(h.real - np.swapaxes(h.real, -1, -2)) > tol)):
        return None
    h = h.real
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None
    omega_chol = _OMEGA_DIAG[:, None] * chol
    w, u = np.linalg.eigh(np.swapaxes(chol, -1, -2) @ omega_chol)
    freqs = w[:, 3:]
    right = omega_chol @ u[:, :, 3:] / np.sqrt(freqs)[:, None, :]
    return _mode_set(freqs, right * _GAUGE[:, None], m.shape[:-2], sector)


def _eig_modes(m: np.ndarray, sector: str, zero_pairs: int = 0) -> ModeSet:
    """General route: one complex eigensolve, checked matrix by matrix,
    of which the 2 zero_pairs eigenvalues nearest zero are set aside."""
    batch = m.shape[:-2]
    vals, vecs = np.linalg.eig(m.reshape((-1, 6, 6)))
    rows = np.arange(vals.shape[0])[:, None]
    keep = np.argsort(np.abs(vals), axis=-1, kind="stable")[:, 2 * zero_pairs:]
    vals = vals[rows, keep]
    scale = np.maximum(1.0, np.abs(vals).max(axis=-1))
    im = np.abs(vals.imag).max(axis=-1)
    _check(im > REAL_TOL * scale, batch, lambda i, where: (
        f"non-real spectrum in sector {sector!r}{where}: "
        f"max |Im omega| = {im[i]:.3e}"))
    omega = vals.real

    n_pos = 3 - zero_pairs
    pos_mask = omega > 0
    pos_count = pos_mask.sum(axis=-1)
    _check(pos_count != n_pos, batch, lambda i, where: (
        f"unpaired spectrum in sector {sector!r}{where}: {pos_count[i]} "
        f"positive modes, not {n_pos}"))

    order = np.argsort(np.where(pos_mask, omega, np.inf), axis=-1,
                       kind="stable")[:, :n_pos]
    freqs = omega[rows, order]
    # eigenvector columns of the kept modes, as (k, 6, n_pos)
    right = np.swapaxes(np.swapaxes(vecs, -1, -2)[rows, keep[rows, order]],
                        -1, -2)
    norm = (_OMEGA_DIAG[:, None] * (right.real ** 2 + right.imag ** 2)).sum(
        axis=-2)
    _check((norm <= ZERO_TOL).any(axis=-1), batch, lambda i, where: (
        f"non-normalizable positive mode at omega = "
        f"{freqs[i][norm[i] <= ZERO_TOL][0]:.6g} in sector {sector!r}{where} "
        "(dynamical instability)"))
    return _mode_set(freqs, right / np.sqrt(norm)[:, None, :], batch, sector)


def _mode_set(freqs, right, batch, sector) -> ModeSet:
    """Fix the phases of OMEGA-normalized (k, 6, n) modes, check their
    reciprocity and assemble the ModeSet of a stack with leading axes batch.

    Each vector is made real and positive at its largest component; the
    first component within a relative 1e-8 of the largest counts as it, so
    that near-ties (bands 2 and 3 of the normal phase) are not decided by
    roundoff.
    """
    n_pos = freqs.shape[-1]
    mag = np.abs(right)
    top = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=-2, keepdims=True,
                                                  initial=0.0), axis=-2)
    top = right[np.arange(right.shape[0])[:, None], top, np.arange(n_pos)]
    right = right / (top / np.abs(top))[:, None, :]

    # reciprocity check doubles as a defectiveness detector
    gram = np.swapaxes(np.conj(right) * _OMEGA_DIAG[:, None], -1, -2) @ right
    gram_err = np.abs(gram - np.eye(n_pos)).max(axis=(-2, -1), initial=0.0)
    _check(gram_err > 1e-8, batch, lambda i, where: (
        f"defective positive-frequency subspace in sector {sector!r}{where}"))
    return ModeSet(frequencies=freqs.reshape(batch + (n_pos,)),
                   right=right.reshape(batch + (6, n_pos)))


def _check(bad, batch, describe) -> None:
    """Raise for the first matrix that bad flags; describe(i, where) words
    the error for matrix i of the flattened stack."""
    if bad.any():
        i = int(bad.argmax())
        where = f" at stack index {i}" if batch else ""
        raise DiagonalizationError(describe(i, where), i if batch else None)


def mirrored_modes(ms: ModeSet) -> ModeSet:
    """Modes of G(-q) from those of G(q).

    The spectrum is even in q and (with the phase convention used here) the
    eigenvectors at -q are the complex conjugates of those at q, which
    follows from G(-q) = -Gamma G(q)* Gamma and Gamma exchanging the +-q
    creation/annihilation slots pairwise.
    """
    return ModeSet(frequencies=ms.frequencies, right=np.conj(ms.right))


def soft_mode(expansion: ModelExpansion):
    """Frequency and modes of the soft polariton branch.

    F holds exactly one zero pair, the condensate phase mode of atom-number
    conservation.  It is a Jordan block, which rounding splits by about
    sqrt(machine epsilon) ||F||, while the soft mode comes within ~1e-6 of
    ||F|| near threshold; so the two eigenvalues nearest zero are set aside
    by count, not by a tolerance.  The soft mode is the lower of the two
    normalizable polariton modes left, index 0 of the ascending ModeSet
    (the photon-like branch sits near -Delta_C).  The same ascending
    convention labels the phonon bands, and build_response takes its soft
    mode from here.
    """
    ms = _eig_modes(expansion.polariton_matrix(), "polariton", zero_pairs=1)
    return ms.frequencies[0], ms
