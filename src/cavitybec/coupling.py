"""Quasiparticle interaction vertices and the Landau/Beliaev couplings.

The cubic tensors V (phonon-bilinear source in the polariton equations) and
W (polariton-phonon source in the phonon equations) come from the
Hamiltonian expansion.  Contracting them with the Bogoliubov eigenvectors
yields the vertex coefficients O, M, N of the polariton equations and
A, B, C, D of the phonon equations; the soft-mode rows of O and N are the
Landau and Beliaev coupling strengths

    gL_q = O^s_{12}(q),    gB_q = (1/2) (N^s_{21}(q) + N^s_{12}(-q)) = N^s_{21}(q),

with bands 1 and 2 the two lowest phonon branches.  The Beliaev pair
operator sigma_{1,q} sigma_{2,-q} collects two terms of the momentum sum
(the (nu, rho) = (2, 1) term at +q and the (1, 2) term at -q), and the
tensor symmetry N^s_{12}(-q) = N^s_{21}(q) merges them into a single
full-weight coefficient; the exact Fock-space commutator extraction in
fockcheck confirms the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogoliubov import GAMMA, OMEGA, ModeSet


@dataclass(frozen=True)
class VertexSet:
    """Vertex coefficients at one quasi-momentum q.

    O, M, N are indexed [polariton mode, phonon mode, phonon mode]; A, B,
    C, D are indexed [phonon mode, polariton mode, phonon mode].  Modes are
    the positive-frequency ones of the supplied ModeSets.
    """

    O: np.ndarray
    M: np.ndarray
    N: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def vertex_coefficients(v_tensor: np.ndarray, w_tensor: np.ndarray,
                        polariton: ModeSet, phonon_q: ModeSet,
                        phonon_mq: ModeSet) -> VertexSet:
    """Contract the interaction tensors with OMEGA-normalized mode vectors.

    phonon_q and phonon_mq must be band-matched (same labeling at q and -q).
    """
    lc = np.conj(polariton.left)          # (6, n_pol)
    r = polariton.right
    c = phonon_q.right                    # (6, n_ph)
    d = phonon_q.left
    gc = GAMMA @ c
    gcc = np.conj(gc)
    gcm_c = GAMMA @ np.conj(phonon_mq.right)
    gcm = GAMMA @ phonon_mq.right

    o_mat = (np.einsum('am,bn,abg,gr->mnr', lc, np.conj(c), v_tensor, c)
             + np.einsum('am,abg,br,gn->mnr', lc, v_tensor, gc, gcc))
    m_mat = 2.0 * np.einsum('am,abg,bn,gr->mnr', lc, v_tensor, np.conj(c), gcm_c)
    n_mat = 2.0 * np.einsum('am,abg,bn,gr->mnr', lc, v_tensor, gcm, c)

    dc = np.conj(d)
    gr = GAMMA @ np.conj(r)
    a_mat = np.einsum('am,abg,bn,gr->mnr', dc, w_tensor, r, c)
    b_mat = np.einsum('am,abg,bn,gr->mnr', dc, w_tensor, r, gcm_c)
    c_mat = np.einsum('am,abg,bn,gr->mnr', dc, w_tensor, gr, c)
    d_mat = np.einsum('am,abg,bn,gr->mnr', dc, w_tensor, gr, gcm_c)
    return VertexSet(O=o_mat, M=m_mat, N=n_mat,
                     A=a_mat, B=b_mat, C=c_mat, D=d_mat)


def landau_beliaev_couplings(vs: VertexSet):
    """(gL_q, gB_q) from the soft-mode row, polariton mode 0
    (bogoliubov.soft_mode); bands 1, 2 are modes 0, 1."""
    return vs.O[0, 0, 1], vs.N[0, 1, 0]


def pair_kernel(phonon_right: np.ndarray) -> np.ndarray:
    """The band-1/band-2 part of the soft-mode couplings at every q of a
    stack, shaped (..., 2, 36): row 0 is vec(conj(c1) c2^T) and row 1
    vec(conj(c2) c1^T), with c1, c2 the eigenvectors of bands 1 and 2 in
    phonon_right (..., 6, n), bands ascending.

    It depends on the phonon modes alone, so it is formed once per stack
    and soft_mode_couplings contracts it with each soft row of V.
    """
    c1, c2 = phonon_right[..., :, 0], phonon_right[..., :, 1]
    kernel = np.empty(c1.shape[:-1] + (2, 6, 6), dtype=complex)
    np.multiply(np.conj(c1)[..., :, None], c2[..., None, :],
                out=kernel[..., 0, :, :])
    np.multiply(np.conj(c2)[..., :, None], c1[..., None, :],
                out=kernel[..., 1, :, :])
    return kernel.reshape(c1.shape[:-1] + (2, 36))


def soft_mode_couplings(v_tensor: np.ndarray, polariton: ModeSet,
                        kernel: np.ndarray):
    """(gL_q, gB_q) at every q of a stack, from the soft-mode row alone.

    The soft mode is polariton mode 0 (bogoliubov.soft_mode), and kernel
    is the stack's pair_kernel.  The result equals
    landau_beliaev_couplings of vertex_coefficients(..., modes(q),
    mirrored_modes(modes(q))) at each q, i.e. O^s_{12}(q) and
    N^s_{21}(q), but only the soft row of V is contracted:

        V_s[b, g] = sum_a conj(l[a, s]) V[a, b, g],
        gL = c1^+ (V_s + GAMMA V_s^T GAMMA) c2,    gB = 2 c2^+ GAMMA V_s c1,

    with c1, c2 the eigenvectors of bands 1 and 2 (the two terms of O
    merged, and the mirrored vectors GAMMA conj(c) of N written out).
    Both are bilinear in (c1, c2), gL = kernel[..., 0, :] .
    vec(V_s + GAMMA V_s^T GAMMA) and gB = kernel[..., 1, :] .
    vec(2 GAMMA V_s), so the pump-dependent work is one 6x6 soft row and
    two (n x 36) matrix-vector products.  The kernel (n x 1152 B, 0.58 MB
    at 1001 sites) is kept with the modes of its stack
    (response._phonon_modes), since below threshold every pump point
    shares one stack.

    Pump points that share the stack come as one stack of P points:
    v_tensor (P, 6, 6, 6) and polariton modes (P, 6, n) give couplings
    shaped (P, n_q).  Every product is a matrix-vector product per point,
    the same one a point alone makes, so its couplings do not depend on
    the points stacked with it (a (n_q x 36) @ (36 x P) product would sum
    in another order).
    """
    lead = v_tensor.shape[:-3]
    soft = np.conj(polariton.left[..., :, 0])[..., None, :]
    v_s = (soft @ v_tensor.reshape(lead + (6, 36))).reshape(lead + (6, 6))
    landau = v_s + GAMMA @ np.swapaxes(v_s, -1, -2) @ GAMMA
    beliaev = 2.0 * (GAMMA @ v_s)
    g_landau = kernel[..., 0, :] @ landau.reshape(lead + (36, 1))
    g_beliaev = kernel[..., 1, :] @ beliaev.reshape(lead + (36, 1))
    return g_landau[..., 0], g_beliaev[..., 0]


# -- identity checks -------------------------------------------------------

def vw_connection_residual(v_tensor: np.ndarray, w_tensor: np.ndarray) -> float:
    """Max residual of the V-W consistency identity.

    The same cubic Hamiltonian term feeds both the polariton and the phonon
    equations of motion, which forces, entrywise in (mu, beta, nu),

        -sum_a V[mu,a,b] OMEGA[a,n] + sum_{a,d} V[mu,a,d] GAMMA[a,b] (OMEGA GAMMA)[d,n]
        + sum_a W[n,a,b] (OMEGA GAMMA)[mu,a] = 0.
    """
    og = OMEGA @ GAMMA
    t1 = -np.einsum('mab,an->mbn', v_tensor, OMEGA)
    t2 = np.einsum('mad,ab,dn->mbn', v_tensor, GAMMA, og)
    t3 = np.einsum('nab,ma->mbn', w_tensor, og)
    return float(np.max(np.abs(t1 + t2 + t3)))


def v_reflection_residual(v_tensor: np.ndarray) -> float:
    """Particle-hole reflection of V: V[m,a,b] = -sum_n GAMMA[m,n] V[n,b,a]*."""
    ref = -np.einsum('mn,nba->mab', GAMMA, np.conj(v_tensor))
    return float(np.max(np.abs(v_tensor - ref)))


def vertex_duality_residuals(vs: VertexSet) -> dict:
    """Residuals of the A=O*, B=N*, C=O, D=M index-permutation identities
    linking the phonon-equation vertices to the polariton-equation ones."""
    return {
        "A": float(np.max(np.abs(vs.A - np.conj(np.einsum('nrm->mnr', vs.O))))),
        "B": float(np.max(np.abs(vs.B - np.conj(np.einsum('nrm->mnr', vs.N))))),
        "C": float(np.max(np.abs(vs.C - np.einsum('nmr->mnr', vs.O)))),
        "D": float(np.max(np.abs(vs.D - np.einsum('nmr->mnr', vs.M)))),
    }
