"""Exact expansion of the three-band Hamiltonian around the condensate.

The grand-canonical Hamiltonian is a polynomial of degree four in the mode
amplitudes {a, b_p, c_p, s_p} with p in {0, +q, -q}.  Everything the rest of
the package needs — the linear fluctuation matrices of the polariton and
phonon sectors and the cubic polariton-phonon interaction tensors — is a
low-order Taylor coefficient of the Heisenberg flow around the mean field.
This module builds the Hamiltonian as an explicit monomial list and reads
those coefficients off by exact polynomial differentiation, so no term is
ever derived by hand.

Variable layout (annihilation amplitude, conjugate) per slot pair::

    0,1: a     2,3: b_0   4,5: c_0   6,7: s_0
    8,9: b_q   10,11: b_{-q}   12,13: c_q   14,15: c_{-q}
    16,17: s_q  18,19: s_{-q}

The polariton fluctuation vector is (a, a+, b0, b0+, c0, c0+) and the phonon
vector at quasi-momentum q is (b_q, b+_{-q}, c_q, c+_{-q}, s_q, s+_{-q}).
"""

from __future__ import annotations

import math

import numpy as np

from .params import ThermoParams

NVARS = 20

# (band, momentum label) -> annihilation variable index; conjugate is +1
_VAR = {
    ("a", 0): 0,
    ("b", 0): 2, ("c", 0): 4, ("s", 0): 6,
    ("b", +1): 8, ("b", -1): 10,
    ("c", +1): 12, ("c", -1): 14,
    ("s", +1): 16, ("s", -1): 18,
}

_MOM_LABELS = (0, +1, -1)

# s-wave collision channels: (band1+, band2+, band3, band4, weight)
_COLLISION_CHANNELS = (
    ("b", "b", "b", "b", 1.0),
    ("c", "c", "c", "c", 1.5),
    ("s", "s", "s", "s", 1.5),
    ("b", "b", "c", "c", 1.0),
    ("c", "c", "b", "b", 1.0),
    ("b", "b", "s", "s", 1.0),
    ("s", "s", "b", "b", 1.0),
    ("c", "c", "s", "s", 0.5),
    ("s", "s", "c", "c", 0.5),
    ("b", "c", "b", "c", 4.0),
    ("b", "s", "b", "s", 4.0),
    ("c", "s", "c", "s", 2.0),
)

# polariton rows: (component variable, dK-derivative variable, sign)
_POLARITON_ROWS = (
    (0, 1, +1.0),   # a
    (1, 0, -1.0),   # a+
    (2, 3, +1.0),   # b0
    (3, 2, -1.0),   # b0+
    (4, 5, +1.0),   # c0
    (5, 4, -1.0),   # c0+
)

# phonon rows for w(q): (component variable, dK-derivative variable, sign)
_PHONON_ROWS = (
    (8, 9, +1.0),    # b_q
    (11, 10, -1.0),  # b+_{-q}
    (12, 13, +1.0),  # c_q
    (15, 14, -1.0),  # c+_{-q}
    (16, 17, +1.0),  # s_q
    (19, 18, -1.0),  # s+_{-q}
)

# variable of the alpha-th component of w+(q) (daggered slot of a bilinear)
_W_DAG_VARS = (9, 10, 13, 14, 17, 18)
# variable of the beta-th component of w(q)
_W_VARS = (8, 11, 12, 15, 16, 19)
# variable of the alpha-th component of v
_V_VARS = (0, 1, 2, 3, 4, 5)


# all momentum-label 4-tuples (n1, n2, n3, n4) with n3 + n4 - n1 - n2 = 0
_MOMENTUM_COMBOS = tuple(
    (n1, n2, n3, n4)
    for n1 in _MOM_LABELS for n2 in _MOM_LABELS
    for n3 in _MOM_LABELS for n4 in _MOM_LABELS
    if n3 + n4 - n1 - n2 == 0)


def build_terms(p: ThermoParams, mu: float, q: float):
    """Monomial list of the grand-canonical Hamiltonian restricted to
    momenta {0, +q, -q}.

    Returns a list of (coeff, vars) where vars is a tuple of variable
    indices with repetition.  Microscopic couplings are reconstructed from
    the thermodynamic ones at the stored atom number; every extracted
    matrix element is independent of that choice.
    """
    n_atoms = float(p.atom_number)
    box_length = 2.0 * math.pi * p.site_count
    eta = p.y / math.sqrt(2.0 * n_atoms)
    u0 = 4.0 * p.u / n_atoms
    g_half = p.g_coll / (2.0 * n_atoms)  # g / (2L) with g = g_coll * L / N_c

    terms = []

    def add(coeff, *vars_):
        if coeff != 0.0:
            terms.append((complex(coeff), tuple(vars_)))

    # photon energy
    add(-p.cavity_detuning, 1, 0)

    momenta = {0: 0.0, +1: q, -1: -q}
    for lab in _MOM_LABELS:
        qv = momenta[lab]
        b, c, s = _VAR[("b", lab)], _VAR[("c", lab)], _VAR[("s", lab)]
        add(qv * qv - mu, b + 1, b)
        add(1.0 + qv * qv - mu, c + 1, c)
        add(1.0 + qv * qv - mu, s + 1, s)
        # kinetic c-s coupling i q k / m = 2 i q
        add(2.0j * qv, s + 1, c)
        add(-2.0j * qv, c + 1, s)
        # pump: (sqrt2/2) eta (a+ + a)(b+ c + c+ b)
        for photon in (0, 1):
            add(math.sqrt(2.0) / 2.0 * eta, photon, b + 1, c)
            add(math.sqrt(2.0) / 2.0 * eta, photon, c + 1, b)
        # dispersive shift: (U0/4) a+ a (2 b+b + 3 c+c + s+s)
        add(0.5 * u0, 1, 0, b + 1, b)
        add(0.75 * u0, 1, 0, c + 1, c)
        add(0.25 * u0, 1, 0, s + 1, s)

    for x1, x2, x3, x4, weight in _COLLISION_CHANNELS:
        for n1, n2, n3, n4 in _MOMENTUM_COMBOS:
            add(weight * g_half,
                _VAR[(x1, n1)] + 1, _VAR[(x2, n2)] + 1,
                _VAR[(x3, n3)], _VAR[(x4, n4)])

    return terms


def _derivative_value(terms, dvars, point):
    """Evaluate a mixed partial derivative of the monomial list at a point.

    dvars is a sequence of distinct variable indices (each differentiated
    once); repeated variables inside a monomial contribute their
    multiplicity factor.
    """
    total = 0.0 + 0.0j
    for coeff, vars_ in terms:
        remaining = list(vars_)
        factor = 1.0
        ok = True
        for dv in dvars:
            cnt = remaining.count(dv)
            if cnt == 0:
                ok = False
                break
            factor *= cnt
            remaining.remove(dv)
        if not ok:
            continue
        val = coeff * factor
        for v in remaining:
            val *= point[v]
            if val == 0.0:
                break
        total += val
    return total


class ModelExpansion:
    """Fluctuation expansion of the Hamiltonian around one mean field.

    Provides the polariton matrix F, the phonon matrices G(q) (exact
    quadratic polynomial in q, so per-q assembly is cheap), and the cubic
    interaction tensors V (phonon bilinears driving the polaritons) and W
    (polariton-phonon bilinears driving the phonons).
    """

    def __init__(self, p: ThermoParams, mf) -> None:
        self.params = p
        self.mf = mf
        root_n = math.sqrt(float(p.atom_number))
        self._root_n = root_n
        point = np.zeros(NVARS, dtype=complex)
        point[0] = root_n * mf.alpha
        point[1] = root_n * np.conj(mf.alpha)
        point[2] = root_n * mf.beta
        point[3] = root_n * np.conj(mf.beta)
        point[4] = root_n * mf.gamma
        point[5] = root_n * np.conj(mf.gamma)
        self._point = point
        # q only enters quadratically; any three reference values pin G(q)
        self._qref = (0.11, 0.23, 0.37)
        self._terms_q = {qr: build_terms(p, mf.mu, qr) for qr in self._qref}
        self._terms0 = self._terms_q[self._qref[0]]
        self._g_poly = None

    # -- linear sector -----------------------------------------------------

    def polariton_matrix(self) -> np.ndarray:
        """6x6 matrix F of the linearized (a, b0, c0) fluctuation dynamics."""
        f = np.empty((6, 6), dtype=complex)
        for i, (_, dvar, sign) in enumerate(_POLARITON_ROWS):
            for j, (compvar, _, _) in enumerate(_POLARITON_ROWS):
                f[i, j] = sign * _derivative_value(
                    self._terms0, (dvar, compvar), self._point)
        return f

    def _phonon_matrix_at(self, terms) -> np.ndarray:
        g = np.empty((6, 6), dtype=complex)
        for i, (_, dvar, sign) in enumerate(_PHONON_ROWS):
            for j, (compvar, _, _) in enumerate(_PHONON_ROWS):
                g[i, j] = sign * _derivative_value(terms, (dvar, compvar), self._point)
        return g

    def phonon_matrix(self, q) -> np.ndarray:
        """Matrix G(q) = g0 + q g1 + q^2 g2 of the linearized phonon dynamics.

        A scalar q gives one 6x6 matrix; a 1-D array of n momenta gives
        the (n, 6, 6) stack.  q = 0 (anywhere in the array) raises
        ValueError.
        """
        q = np.asarray(q, dtype=float)
        if np.any(q == 0.0):
            raise ValueError("q = 0 is the polariton sector, not a phonon mode")
        if self._g_poly is None:
            mats = [self._phonon_matrix_at(self._terms_q[qr]) for qr in self._qref]
            vand = np.array([[1.0, qr, qr * qr] for qr in self._qref])
            coeffs = np.linalg.solve(vand, np.stack([m.ravel() for m in mats]))
            self._g_poly = [c.reshape(6, 6) for c in coeffs]
        g0, g1, g2 = self._g_poly
        q = q[..., None, None]
        return g0 + q * g1 + q * q * g2

    # -- cubic sector ------------------------------------------------------

    def interaction_tensors(self):
        """Cubic coupling tensors (V, W), both shaped (6, 6, 6).

        V[mu, alpha, beta] multiplies w+_alpha(q) w_beta(q) in the equation
        of motion of v_mu (summed over q with a 1/sqrt(N_c) prefactor);
        W[mu, alpha, beta] multiplies v_alpha w_beta(q) in the equation of
        w_mu(q).  Entries are independent of q.
        """
        v_tensor = np.empty((6, 6, 6), dtype=complex)
        for i, (_, dvar, sign) in enumerate(_POLARITON_ROWS):
            for a, ua in enumerate(_W_DAG_VARS):
                for b, ub in enumerate(_W_VARS):
                    v_tensor[i, a, b] = 0.5 * self._root_n * sign * _derivative_value(
                        self._terms0, (dvar, ua, ub), self._point)
        w_tensor = np.empty((6, 6, 6), dtype=complex)
        for i, (_, dvar, sign) in enumerate(_PHONON_ROWS):
            for a, va in enumerate(_V_VARS):
                for b, wb in enumerate(_W_VARS):
                    w_tensor[i, a, b] = self._root_n * sign * _derivative_value(
                        self._terms0, (dvar, va, wb), self._point)
        return v_tensor, w_tensor

    # -- diagnostics -------------------------------------------------------

    def meanfield_residual(self) -> np.ndarray:
        """Residual of the stationary mean-field equations, from the same
        polynomial (independent of the hand-coded solver equations)."""
        res = []
        for compvar, dvar, sign in _POLARITON_ROWS[::2]:
            res.append(sign * _derivative_value(self._terms0, (dvar,), self._point)
                       / self._root_n)
        return np.array(res)
