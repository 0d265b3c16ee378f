"""Bogoliubov normal modes of the polariton and phonon sectors.

Both sectors are governed by 6x6 non-Hermitian matrices with a particle-hole
structure (GAMMA, pairing eigenmodes at +-omega) and a pseudo-Hermiticity
(OMEGA) that makes stable spectra real and fixes the bosonic normalization
r+ OMEGA r = sgn(omega).  Left eigenvectors follow as l = sgn(omega) OMEGA r.

The polariton matrix F always carries an exact zero-frequency pair from
atom-number conservation (the condensate phase mode); it is detected and set
aside, leaving two normalizable positive polariton modes.  Phonon matrices
G(q) have three positive modes, one per band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ThermoParams
from .meanfield import MeanField
from .hamiltonian import ModelExpansion

# pairwise swap of (annihilation, creation) slots
GAMMA = np.kron(np.eye(3), np.array([[0.0, 1.0], [1.0, 0.0]]))
# bosonic metric
OMEGA = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

ZERO_TOL = 1e-8


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
    eigenvectors of mode i; frequencies ascend.  zero_count is the number
    of exact zero-frequency directions excluded from the mode list.  A
    stack keeps its leading axes in front of every array: frequencies are
    (..., n), right and left (..., 6, n), and the mode count n and
    zero_count are shared by all matrices.
    """

    frequencies: np.ndarray
    right: np.ndarray
    left: np.ndarray
    sector: str = ""
    zero_count: int = 0

    def mode(self, i):
        return (self.frequencies[..., i], self.right[..., :, i],
                self.left[..., :, i])


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


def diagonalize_symplectic(m: np.ndarray, sector: str = "",
                           zero_tol: float = ZERO_TOL,
                           real_tol: float = 1e-8) -> ModeSet:
    """Extract the positive-frequency bosonic modes of a 6x6 matrix, or of
    every matrix of a (..., 6, 6) stack in one batched eigensolve.

    Modes ascend in frequency; each right vector is OMEGA-normalized and
    its largest component made real and positive (the first one on ties).
    Every check applies to each matrix of a stack.  Raises
    DiagonalizationError for non-real spectra (dynamical instability or
    criticality), unpaired +-omega, non-normalizable or defective
    positive-frequency subspaces, and for a stack whose matrices differ in
    their number of positive modes; for a stack the message and the
    error's index name the first offending matrix.
    """
    m = np.asarray(m)
    batch = m.shape[:-2]

    def check(bad, describe):
        # describe(i, where) words the error for the first flagged matrix i
        if np.any(bad):
            i = int(np.argmax(bad))
            where = f" at stack index {i}" if batch else ""
            raise DiagonalizationError(describe(i, where),
                                       i if batch else None)

    vals, vecs = np.linalg.eig(m.reshape((-1, 6, 6)))
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1))
    im = np.max(np.abs(vals.imag), axis=-1)
    check(im > real_tol * scale, lambda i, where: (
        f"non-real spectrum in sector {sector!r}{where}: "
        f"max |Im omega| = {im[i]:.3e}"))
    omega = vals.real

    zero_mask = np.abs(omega) < zero_tol * scale[:, None]
    pos_mask = ~zero_mask & (omega > 0)
    pos_count = np.sum(pos_mask, axis=-1)
    neg_count = np.sum(~zero_mask & (omega < 0), axis=-1)
    check(pos_count != neg_count, lambda i, where: (
        f"unpaired spectrum in sector {sector!r}{where}: {pos_count[i]} "
        f"positive vs {neg_count[i]} negative modes"))
    # an empty stack is taken to hold all three pairs
    n_pos = int(pos_count[0]) if len(pos_count) else 3
    check(pos_count != n_pos, lambda i, where: (
        f"positive-mode count differs across the stack in sector "
        f"{sector!r}{where}: {pos_count[i]}, against {n_pos} at index 0"))

    order = np.argsort(np.where(pos_mask, omega, np.inf), axis=-1,
                       kind="stable")[:, :n_pos]
    freqs = np.take_along_axis(omega, order, axis=-1)
    right = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    norm = np.real(np.einsum('kam,ab,kbm->km', np.conj(right), OMEGA, right))
    check(np.any(norm <= zero_tol, axis=-1), lambda i, where: (
        f"non-normalizable positive mode at omega = "
        f"{freqs[i][norm[i] <= zero_tol][0]:.6g} in sector {sector!r}{where} "
        "(dynamical instability)"))
    right = right / np.sqrt(norm)[:, None, :]
    top = np.take_along_axis(
        right, np.argmax(np.abs(right), axis=-2)[:, None, :], axis=-2)
    right = right / (top / np.abs(top))

    # reciprocity check doubles as a defectiveness detector
    gram = np.swapaxes(np.conj(right), -1, -2) @ OMEGA @ right
    gram_err = np.max(np.abs(gram - np.eye(n_pos)), axis=(-2, -1), initial=0.0)
    check(gram_err > 1e-8, lambda i, where: (
        f"defective positive-frequency subspace in sector {sector!r}{where}"))
    right = right.reshape(batch + (6, n_pos))
    return ModeSet(frequencies=freqs.reshape(batch + (n_pos,)), right=right,
                   left=OMEGA @ right, sector=sector, zero_count=6 - 2 * n_pos)


def negative_modes(ms: ModeSet) -> ModeSet:
    """Companion negative-frequency modes of the same matrix.

    omega -> -omega with r -> GAMMA r, which holds for the polariton matrix
    and for G(q) alike (the more familiar map r -> GAMMA r* sends the +q
    modes to the -omega modes of G(-q) instead, because the particle-hole
    identity links G(q) to G(-q)*).  The OMEGA-norm of these modes is -1,
    so the matching left vectors are -OMEGA r.
    """
    right = GAMMA @ ms.right
    return ModeSet(frequencies=-ms.frequencies, right=right,
                   left=-OMEGA @ right, sector=ms.sector,
                   zero_count=ms.zero_count)


def mirrored_modes(ms: ModeSet) -> ModeSet:
    """Modes of G(-q) from those of G(q).

    The spectrum is even in q and (with the phase convention used here) the
    eigenvectors at -q are the complex conjugates of those at q, which
    follows from G(-q) = -Gamma G(q)* Gamma and Gamma exchanging the +-q
    creation/annihilation slots pairwise.
    """
    right = np.conj(ms.right)
    return ModeSet(frequencies=ms.frequencies, right=right,
                   left=OMEGA @ right, sector=ms.sector + " mirrored",
                   zero_count=ms.zero_count)


def _overlap_permutation(prev: ModeSet, cur: ModeSet, threshold=0.5):
    """Match cur modes to prev modes by symplectic eigenvector overlap."""
    n = len(prev.frequencies)
    ov = np.abs(prev.right.conj().T @ OMEGA @ cur.right)
    perm = np.full(n, -1)
    used = set()
    for i in np.argsort(-ov.max(axis=1)):
        for j in np.argsort(-ov[i]):
            if j not in used:
                perm[i] = j
                used.add(j)
                break
        if ov[i, perm[i]] < threshold:
            return None
    return perm


def _permute(ms: ModeSet, perm) -> ModeSet:
    return ModeSet(frequencies=ms.frequencies[perm], right=ms.right[:, perm],
                   left=ms.left[:, perm], sector=ms.sector,
                   zero_count=ms.zero_count)


def phonon_bands(p: ThermoParams, mf: MeanField, q_grid,
                 expansion: ModelExpansion | None = None) -> list[ModeSet]:
    """Diagonalize G(q) over a grid, bands labeled continuously in q.

    All G(q) are diagonalized in one stacked eigensolve.  Matching starts
    from the first grid point sorted ascending; across neighbouring q
    points modes are paired by maximal eigenvector overlap so that band
    labels survive crossings.  Exact-degeneracy points fall back to
    ascending order (deterministic).
    """
    exp = expansion or ModelExpansion(p, mf)
    q_grid = np.asarray(q_grid, dtype=float)
    try:
        stack = diagonalize_symplectic(exp.phonon_matrix(q_grid), sector="phonon")
    except DiagonalizationError as exc:
        raise DiagonalizationError(f"q = {q_grid[exc.index]:g}: {exc}",
                                   exc.index) from exc
    out: list[ModeSet] = []
    prev: ModeSet | None = None
    for i, q in enumerate(q_grid):
        ms = ModeSet(frequencies=stack.frequencies[i], right=stack.right[i],
                     left=stack.left[i], sector=f"phonon q={q:g}",
                     zero_count=stack.zero_count)
        if prev is not None:
            perm = _overlap_permutation(prev, ms)
            if perm is not None:
                ms = _permute(ms, perm)
        out.append(ms)
        prev = ms
    return out


def soft_mode(p: ThermoParams, mf: MeanField,
              expansion: ModelExpansion | None = None,
              prev: tuple[ModeSet, int] | None = None):
    """Frequency and index of the soft polariton branch.

    Standalone the soft mode is the lower of the two normalizable polariton
    modes (the photon-like branch sits near -Delta_C).  Along a sweep pass
    (previous ModeSet, previous index) to track by eigenvector overlap; an
    overlap below 0.5 with every candidate raises instead of guessing.
    """
    exp = expansion or ModelExpansion(p, mf)
    ms = diagonalize_symplectic(exp.polariton_matrix(), sector="polariton")
    if len(ms.frequencies) == 0:
        raise DiagonalizationError("no normalizable polariton modes")
    if prev is None:
        idx = 0
    else:
        prev_ms, prev_idx = prev
        r_prev = prev_ms.right[:, prev_idx]
        ov = np.abs(np.conj(r_prev) @ OMEGA @ ms.right)
        idx = int(np.argmax(ov))
        if ov[idx] < 0.5:
            raise DiagonalizationError(
                f"ambiguous soft-mode tracking at y = {mf.y}: "
                f"best overlap {ov[idx]:.3f} < 0.5")
    return ms.frequencies[idx], idx, ms
