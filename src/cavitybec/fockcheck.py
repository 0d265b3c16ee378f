"""Independent truncated-Fock-space oracle for the fluctuation expansion.

Builds the grand-canonical Hamiltonian as a sparse operator on a small
Hilbert space (modes {a, b0, c0} plus one +-q phonon triple, occupation
cutoff 2) directly from the operator expression with displaced condensate
modes A = sqrt(N) alpha + a etc., and compares exact commutators
[v, K] against the matrices and tensors produced by the polynomial
expansion.  The term enumeration here is written independently of
hamiltonian.py on purpose.

Why the truncation is exact: every Hamiltonian term is normal-ordered mode
by mode, and all compared matrix elements involve bra/ket states with at
most two quanta, which a normal-ordered string of at most four operators
connects without ever passing through occupation > 2.  The s0 mode is
omitted: the mean field has no s0 amplitude and every term containing an
s0 operator has a strictly positive s0 power on at least one side, so its
matrix elements between s0-vacuum states vanish identically.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .params import ThermoParams
from .meanfield import MeanField
from .hamiltonian import ModelExpansion
from .bogoliubov import diagonalize_symplectic, soft_mode
from .coupling import landau_beliaev_couplings, vertex_coefficients

CUTOFF = 3  # occupations 0, 1, 2
MODES = ("a", "b0", "c0", "bq", "bm", "cq", "cm", "sq", "sm")


@lru_cache(maxsize=4)
def _mode_ops():
    """Sparse annihilation operator per mode on the product space."""
    import scipy.sparse as sp  # only the oracle needs it: kept off import

    n = len(MODES)
    local = sp.diags(np.sqrt(np.arange(1, CUTOFF)), offsets=1, format="csr")
    eye = sp.identity(CUTOFF, format="csr")
    ops = {}
    for i, name in enumerate(MODES):
        mats = [local if j == i else eye for j in range(n)]
        full = mats[0]
        for m in mats[1:]:
            full = sp.kron(full, m, format="csr")
        ops[name] = full
    return ops


def _state_index(occupations: dict) -> int:
    idx = 0
    for i, name in enumerate(MODES):
        idx = idx * CUTOFF + occupations.get(name, 0)
    return idx


def build_hamiltonian(p: ThermoParams, mf: MeanField, q: float):
    """K as a sparse matrix, from the operator expression term by term."""
    import scipy.sparse as sp

    n_atoms = float(p.atom_number)
    root_n = math.sqrt(n_atoms)
    eta = p.y / math.sqrt(2.0 * n_atoms)
    u0 = 4.0 * p.u / n_atoms
    g_half = p.g_coll / (2.0 * n_atoms)

    ops = _mode_ops()
    dim = CUTOFF ** len(MODES)
    ident = sp.identity(dim, format="csr")

    def displaced(name, amp):
        return (ops[name] + root_n * amp * ident,
                ops[name].conj().T + root_n * np.conj(amp) * ident)

    a_op, a_dag = displaced("a", mf.alpha)
    annih = {"b": {}, "c": {}, "s": {}}
    dag = {"b": {}, "c": {}, "s": {}}
    annih["b"][0], dag["b"][0] = displaced("b0", mf.beta)
    annih["c"][0], dag["c"][0] = displaced("c0", mf.gamma)
    # no s0 mode: terms containing it have vanishing matrix elements here,
    # and it carries no condensate amplitude
    annih["s"][0] = dag["s"][0] = None
    for band, plus, minus in (("b", "bq", "bm"), ("c", "cq", "cm"),
                              ("s", "sq", "sm")):
        annih[band][+1] = ops[plus]
        dag[band][+1] = ops[plus].conj().T
        annih[band][-1] = ops[minus]
        dag[band][-1] = ops[minus].conj().T

    # K is summed like a binary counter: partial sums of 1, 2, 4, ... terms
    # merge when their counts match, so an entry is copied about log2(182)
    # times rather than once per later term, and at most that many partial
    # sums are alive at once
    sums = []                    # (term count, partial sum), counts falling

    def add(term):
        count = 1
        while sums and sums[-1][0] == count:
            prev_count, prev = sums.pop()
            term, count = prev + term, count + prev_count
        sums.append((count, term))

    add(-p.cavity_detuning * (a_dag @ a_op))

    momenta = {0: 0.0, +1: q, -1: -q}
    for lab, qv in momenta.items():
        b, bd = annih["b"][lab], dag["b"][lab]
        c, cd = annih["c"][lab], dag["c"][lab]
        s, sd = annih["s"][lab], dag["s"][lab]
        add((qv * qv - mf.mu) * (bd @ b))
        add((1.0 + qv * qv - mf.mu) * (cd @ c))
        if s is not None:
            add((1.0 + qv * qv - mf.mu) * (sd @ s))
            add(2.0j * qv * (sd @ c))
            add(-2.0j * qv * (cd @ s))
        pump = bd @ c + cd @ b
        add((math.sqrt(2.0) / 2.0) * eta * ((a_dag + a_op) @ pump))
        shift = 2.0 * (bd @ b) + 3.0 * (cd @ c)
        if s is not None:
            shift = shift + sd @ s
        add(0.25 * u0 * (a_dag @ a_op @ shift))

    channels = (
        ("b", "b", "b", "b", 1.0), ("c", "c", "c", "c", 1.5),
        ("s", "s", "s", "s", 1.5),
        ("b", "b", "c", "c", 1.0), ("c", "c", "b", "b", 1.0),
        ("b", "b", "s", "s", 1.0), ("s", "s", "b", "b", 1.0),
        ("c", "c", "s", "s", 0.5), ("s", "s", "c", "c", 0.5),
        ("b", "c", "b", "c", 4.0), ("b", "s", "b", "s", 4.0),
        ("c", "s", "c", "s", 2.0),
    )
    labels = (0, +1, -1)
    for x1, x2, x3, x4, weight in channels:
        for n1 in labels:
            for n2 in labels:
                for n3 in labels:
                    for n4 in labels:
                        if n3 + n4 != n1 + n2:
                            continue
                        f1, f2 = dag[x1][n1], dag[x2][n2]
                        f3, f4 = annih[x3][n3], annih[x4][n4]
                        if any(f is None for f in (f1, f2, f3, f4)):
                            continue
                        add(weight * g_half * (f1 @ f2 @ f3 @ f4))
    k = sums.pop()[1]
    while sums:
        k = sums.pop()[1] + k
    return k


def _component_ops():
    """Fluctuation operators of the polariton and phonon vectors."""
    ops = _mode_ops()

    def ad(name):
        return ops[name].conj().T

    polariton = [ops["a"], ad("a"), ops["b0"], ad("b0"), ops["c0"], ad("c0")]
    # w(q) = (b_q, b+_{-q}, c_q, c+_{-q}, s_q, s+_{-q})
    phonon = [ops["bq"], ad("bm"), ops["cq"], ad("cm"), ops["sq"], ad("sm")]
    phonon_m = [ops["bm"], ad("bq"), ops["cm"], ad("cq"), ops["sm"], ad("sq")]
    return polariton, phonon, phonon_m


def _compare(commutator, predicted, pair_modes_bra, pair_modes_ket):
    """Max |difference| of matrix elements over vacuum, one- and the given
    two-quantum states; equal-occupation diagonal elements are vacuum
    subtracted so normal-ordering constants drop out of both sides."""
    diff = commutator - predicted
    vac = _state_index({})
    worst = 0.0
    d_vac = diff[vac, vac]
    for o in MODES:
        i = _state_index({o: 1})
        worst = max(worst, abs(diff[vac, i]), abs(diff[i, vac]))
    for x in pair_modes_bra:
        for y in pair_modes_ket:
            if x == y:
                i = _state_index({x: 1})
                worst = max(worst, abs(diff[i, i] - d_vac))
            else:
                ij = _state_index({x: 1, y: 1})
                i, j = _state_index({x: 1}), _state_index({y: 1})
                worst = max(worst, abs(diff[vac, ij]), abs(diff[ij, vac]),
                            abs(diff[i, j]))
    return worst


def oracle_residuals(p: ThermoParams, mf: MeanField, q: float) -> dict:
    """Compare the polynomial expansion against exact Fock commutators.

    Returns max-abs residuals for the polariton sector (F and V, keyed
    'polariton') and the phonon sector (G(q) and W, keyed 'phonon').  The
    V entries enter through the physical +-q pair sums, which is the only
    combination the commutator (or the dynamics) is sensitive to.
    """
    return _oracle_residuals(p, mf, q, build_hamiltonian(p, mf, q))


def _oracle_residuals(p: ThermoParams, mf: MeanField, q: float, k) -> dict:
    """oracle_residuals against k = build_hamiltonian(p, mf, q)."""
    exp = ModelExpansion(p, mf)
    f_mat = exp.polariton_matrix()
    g_mat = exp.phonon_matrix(q)
    v_tensor, w_tensor = exp.interaction_tensors()
    root_n = math.sqrt(float(p.atom_number))

    pol, ph, ph_m = _component_ops()
    phonon_names = ("bq", "bm", "cq", "cm", "sq", "sm")

    worst_pol = 0.0
    for mu in range(6):
        comm = pol[mu] @ k - k @ pol[mu]
        pred = sum(f_mat[mu, nu] * pol[nu] for nu in range(6))
        for al in range(6):
            for be in range(6):
                coeff = v_tensor[mu, al, be] / root_n
                if coeff != 0.0:
                    pred = pred + coeff * (ph[al].conj().T @ ph[be]
                                           + ph_m[al].conj().T @ ph_m[be])
        worst_pol = max(worst_pol, _compare(comm, pred,
                                            phonon_names, phonon_names))

    worst_ph = 0.0
    pol_names = ("a", "b0", "c0")
    for mu in range(6):
        comm = ph[mu] @ k - k @ ph[mu]
        pred = sum(g_mat[mu, nu] * ph[nu] for nu in range(6))
        for al in range(6):
            for be in range(6):
                coeff = w_tensor[mu, al, be] / root_n
                if coeff != 0.0:
                    pred = pred + coeff * (pol[al] @ ph[be])
        worst_ph = max(worst_ph, _compare(comm, pred, pol_names, phonon_names))

    return {"polariton": worst_pol, "phonon": worst_ph}


def coupling_residuals(p: ThermoParams, mf: MeanField, q: float) -> dict:
    """Check the Landau/Beliaev couplings against exact Fock commutators.

    The coefficient of sigma_{1,q} sigma_{2,-q} in [rho_s, K] is the
    vacuum expectation of the nested commutator
    [[[rho_s, K], sigma_{1,q}^+], sigma_{2,-q}^+]: every other term of the
    commutator either vanishes on the vacuum or is annihilated by the two
    extra commutators.  Likewise the Landau coefficient of
    sigma_{1,q}^+ sigma_{2,q} comes from [sigma_{1,q}, [[rho_s, K],
    sigma_{2,q}^+]].  This pins the combinatorial weight of the couplings,
    not just the underlying tensors.
    """
    return _coupling_residuals(p, mf, q, build_hamiltonian(p, mf, q))


def _coupling_residuals(p: ThermoParams, mf: MeanField, q: float,
                        k) -> dict:
    """coupling_residuals against k = build_hamiltonian(p, mf, q)."""
    exp = ModelExpansion(p, mf)
    _, pol_ms = soft_mode(exp)
    ph_q = diagonalize_symplectic(exp.phonon_matrix(q), sector="phonon+q")
    ph_mq = diagonalize_symplectic(exp.phonon_matrix(-q), sector="phonon-q")
    v_tensor, w_tensor = exp.interaction_tensors()
    vs = vertex_coefficients(v_tensor, w_tensor, pol_ms, ph_q, ph_mq)
    g_landau, g_beliaev = landau_beliaev_couplings(vs)

    pol_ops, ph_ops, phm_ops = _component_ops()
    root_n = math.sqrt(float(p.atom_number))

    def quasiparticle(left_col, ops):
        out = None
        for coeff, op in zip(np.conj(left_col), ops):
            term = coeff * op
            out = term if out is None else out + term
        return out

    def comm(x, y):
        return x @ y - y @ x

    rho_s = quasiparticle(pol_ms.left[:, 0], pol_ops)
    sig1q = quasiparticle(ph_q.left[:, 0], ph_ops)
    sig2q = quasiparticle(ph_q.left[:, 1], ph_ops)
    sig2m = quasiparticle(ph_mq.left[:, 1], phm_ops)

    vac = _state_index({})
    c1 = comm(rho_s, k)
    g_beliaev_fock = root_n * comm(comm(c1, sig1q.conj().T),
                                   sig2m.conj().T)[vac, vac]
    g_landau_fock = root_n * comm(sig1q,
                                  comm(c1, sig2q.conj().T))[vac, vac]
    return {"landau": abs(g_landau_fock - g_landau),
            "beliaev": abs(g_beliaev_fock - g_beliaev)}
