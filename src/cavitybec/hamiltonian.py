"""Exact expansion of the three-band Hamiltonian around the condensate.

The grand-canonical Hamiltonian is a polynomial of degree four in the mode
amplitudes {a, b_p, c_p, s_p} with p in {0, +q, -q}.  Everything the rest of
the package needs — the linear fluctuation matrices of the polariton and
phonon sectors and the cubic polariton-phonon interaction tensors — is a
low-order Taylor coefficient of the Heisenberg flow around the mean field.
This module builds the Hamiltonian as an explicit monomial list and reads
those coefficients off by exact polynomial differentiation, so no term is
ever derived by hand.

The quasi-momentum q stays symbolic: each monomial carries its coefficient
as the q-power triple (c0, c1, c2) of c0 + c1 q + c2 q^2 (q^2 in the kinetic
energies, 2 i q in the c-s coupling).  Every coefficient is linear in six
couplings (1, Delta_C, mu, eta, U0, g/2L), so the list is written once,
without parameters, with each coefficient as its rows over them.  It is
compiled once per process into those rows and a table that lists, for
every entry of F, G, V, W and the mean-field residual, the monomials that
survive the entry's derivatives, each with its multiplicity factor, row
sign and leftover variables.  Pairs whose leftover variables include a
fluctuation slot vanish at the mean field and are pruned.  A
ModelExpansion takes a block's coefficients as one product of its rows
with the couplings and evaluates each entry as the sum over its pairs of
coefficient x factor x product of the mean-field point over the leftover
variables, one array reduction for all q powers; F, G and V, all the
damping pipeline needs, are one block.  G(q) comes out as the exact
polynomial g0 + q g1 + q^2 g2.

Variable layout (annihilation amplitude, conjugate) per slot pair::

    0,1: a     2,3: b_0   4,5: c_0   6,7: s_0
    8,9: b_q   10,11: b_{-q}   12,13: c_q   14,15: c_{-q}
    16,17: s_q  18,19: s_{-q}

The polariton fluctuation vector is (a, a+, b0, b0+, c0, c0+) and the phonon
vector at quasi-momentum q is (b_q, b+_{-q}, c_q, c+_{-q}, s_q, s+_{-q}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .params import ThermoParams

NVARS = 20
# slots 0..5 carry the condensate amplitudes; the mean-field point is zero
# on every slot from here on
_N_CONDENSATE = 6

# (band, momentum label) -> annihilation variable index; conjugate is +1
_VAR = {
    ("a", 0): 0,
    ("b", 0): 2, ("c", 0): 4, ("s", 0): 6,
    ("b", +1): 8, ("b", -1): 10,
    ("c", +1): 12, ("c", -1): 14,
    ("s", +1): 16, ("s", -1): 18,
}

# momentum label n stands for the quasi-momentum n q
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


# the couplings every coefficient is linear in, (1, Delta_C, mu, eta, U0,
# g/2L), as unit rows: a coefficient written over them is its own row
_ONE, _DETUNING, _MU, _ETA, _U0, _G_HALF = np.eye(6)


def build_terms():
    """Monomial list of the grand-canonical Hamiltonian restricted to
    momenta {0, +q, -q}, with q symbolic.

    Returns a list of (coeffs, vars): vars is a tuple of variable indices
    with repetition, coeffs the (3, 6) rows of the q-power triple
    (c0, c1, c2) of the coefficient c0 + c1 q + c2 q^2 over the couplings
    of _couplings.  Every term is listed whatever its coefficient.
    """
    terms = []
    zero = np.zeros(6)

    def add(c0, *vars_, c1=zero, c2=zero):
        terms.append((np.array([c0, c1, c2], dtype=complex), vars_))

    # photon energy
    add(-_DETUNING, 1, 0)

    for lab in _MOM_LABELS:
        b, c, s = _VAR[("b", lab)], _VAR[("c", lab)], _VAR[("s", lab)]
        # kinetic energy (lab q)^2
        add(-_MU, b + 1, b, c2=lab * lab * _ONE)
        add(_ONE - _MU, c + 1, c, c2=lab * lab * _ONE)
        add(_ONE - _MU, s + 1, s, c2=lab * lab * _ONE)
        # kinetic c-s coupling i (lab q) k / m = 2 i lab q
        add(zero, s + 1, c, c1=2.0j * lab * _ONE)
        add(zero, c + 1, s, c1=-2.0j * lab * _ONE)
        # pump: (sqrt2/2) eta (a+ + a)(b+ c + c+ b)
        for photon in (0, 1):
            add(math.sqrt(2.0) / 2.0 * _ETA, photon, b + 1, c)
            add(math.sqrt(2.0) / 2.0 * _ETA, photon, c + 1, b)
        # dispersive shift: (U0/4) a+ a (2 b+b + 3 c+c + s+s)
        add(0.5 * _U0, 1, 0, b + 1, b)
        add(0.75 * _U0, 1, 0, c + 1, c)
        add(0.25 * _U0, 1, 0, s + 1, s)

    for x1, x2, x3, x4, weight in _COLLISION_CHANNELS:
        for n1, n2, n3, n4 in _MOMENTUM_COMBOS:
            add(weight * _G_HALF,
                _VAR[(x1, n1)] + 1, _VAR[(x2, n2)] + 1,
                _VAR[(x3, n3)], _VAR[(x4, n4)])

    return terms


def _couplings(p: ThermoParams, mu: float) -> np.ndarray:
    """(1, Delta_C, mu, eta, U0, g/2L) of one parameter point.

    The microscopic couplings are reconstructed from the thermodynamic
    ones at the stored atom number; every extracted matrix element is
    independent of that choice.
    """
    n_atoms = float(p.atom_number)
    return np.array([1.0, p.cavity_detuning, mu,
                     p.y / math.sqrt(2.0 * n_atoms),
                     4.0 * p.u / n_atoms,
                     p.g_coll / (2.0 * n_atoms)])  # g = g_coll * L / N_c


# -- derivative table, compiled once ------------------------------------------

def _entry_derivatives(rows, *slots):
    """(derivative variables, row sign) of every entry of a block, in C
    order: the row's dK-derivative variable, then one variable per
    further axis."""
    derivs = [((dvar,), sign) for _, dvar, sign in rows]
    for axis in slots:
        derivs = [(dvars + (v,), sign) for dvars, sign in derivs for v in axis]
    return derivs


# block name -> (shape, derivatives of each entry in C order); F, G (over
# its three q powers) and V, all the damping pipeline needs at a point,
# are one flat block of 36 + 36 + 216 entries (ModelExpansion.__init__)
_BLOCKS = {
    "FGV": ((288,), _entry_derivatives(
        _POLARITON_ROWS, [c for c, _, _ in _POLARITON_ROWS])
        + _entry_derivatives(_PHONON_ROWS, [c for c, _, _ in _PHONON_ROWS])
        + _entry_derivatives(_POLARITON_ROWS, _W_DAG_VARS, _W_VARS)),
    "W": ((6, 6, 6), _entry_derivatives(_PHONON_ROWS, _V_VARS, _W_VARS)),
    "residual": ((3,), _entry_derivatives(_POLARITON_ROWS[::2])),
}


# q powers a block is reduced over at most (G's three)
_Q_POWERS = 3


@dataclass(frozen=True)
class _Block:
    """Surviving (entry, monomial) pairs of one matrix or tensor.

    rows[n, j] is the linear map from the couplings to the q^n
    coefficient of the j-th monomial the block uses, and term[k] is pair
    k's monomial among them.  leftover[k] lists the variables left after
    differentiating, in the monomial's order, padded with NVARS (a slot
    whose point value is 1).  bins[n, k, r] is where part r (real,
    imaginary) of pair k's value at q power n lands in the flat float
    view of the (q power, entry) output.
    """

    shape: tuple
    rows: np.ndarray      # (_Q_POWERS, monomials used, 6)
    term: np.ndarray      # index into rows, ascending within an entry
    factor: np.ndarray    # multiplicity x row sign
    leftover: np.ndarray  # (pairs, max leftover count)
    bins: np.ndarray      # (_Q_POWERS, pairs, 2)


def _compile_block(shape, derivs, monomials, rows) -> _Block:
    """Differentiate every monomial by every entry's variables; keep the
    pairs whose leftover variables all sit on condensate slots, and the
    coefficient rows (q power, monomial, coupling) of their monomials."""
    by_var = {}
    for t, vars_ in enumerate(monomials):
        for v in set(vars_):
            by_var.setdefault(v, []).append(t)
    entry, term, factor, leftover = [], [], [], []
    for e, (dvars, sign) in enumerate(derivs):
        for t in by_var.get(dvars[0], ()):
            remaining = list(monomials[t])
            mult = 1
            for dv in dvars:
                cnt = remaining.count(dv)
                if cnt == 0:
                    break
                mult *= cnt
                remaining.remove(dv)
            else:
                if all(v < _N_CONDENSATE for v in remaining):
                    entry.append(e)
                    term.append(t)
                    factor.append(sign * mult)
                    leftover.append(remaining)
    width = max(map(len, leftover), default=0)
    padded = np.full((len(leftover), width), NVARS, dtype=np.intp)
    for k, rest in enumerate(leftover):
        padded[k, :len(rest)] = rest
    flat = (np.arange(_Q_POWERS)[:, None] * math.prod(shape)
            + np.array(entry, dtype=np.intp))
    bins = 2 * flat[:, :, None] + np.arange(2)
    used, term = np.unique(np.array(term, dtype=np.intp), return_inverse=True)
    return _Block(shape=shape, rows=rows[:, used], term=term,
                  factor=np.array(factor, dtype=float), leftover=padded,
                  bins=bins)


@cache
def _compiled_table() -> dict[str, _Block]:
    """The derivative table and coefficient rows of every block, read off
    one build_terms list, once per process."""
    terms = build_terms()
    monomials = [vars_ for _, vars_ in terms]
    # rows[n, t]: the couplings -> q^n coefficient map of monomial t
    rows = np.array([c for c, _ in terms]).transpose(1, 0, 2)
    return {name: _compile_block(shape, derivs, monomials, rows)
            for name, (shape, derivs) in _BLOCKS.items()}


def _reduce(block: _Block, couplings: np.ndarray, point: np.ndarray,
            powers: int = _Q_POWERS) -> np.ndarray:
    """Entries of one block at the q powers below powers, shaped
    (powers, *shape).

    The coefficients of the block's monomials are one matrix-vector
    product of its rows with the couplings.  Each entry is sum over its
    pairs of coeff x factor x prod point[leftover], accumulated in
    monomial order: one bincount sums the real and the imaginary parts of
    every q power, each into its own bins.  The values are formed as
    (q power, pair) rows, so every product runs along the pairs.
    """
    rows = block.rows[:powers]
    coeffs = (rows.reshape(-1, 6) @ couplings).reshape(rows.shape[:2])
    vals = coeffs.take(block.term, axis=1) * block.factor
    for var in block.leftover.T:
        vals *= point.take(var)
    size = math.prod(block.shape)
    parts = vals.view(float)
    out = np.bincount(block.bins[:powers].ravel(), parts.ravel(),
                      minlength=2 * powers * size)
    return out.view(complex).reshape((powers,) + block.shape)


class ModelExpansion:
    """Fluctuation expansion of the Hamiltonian around one mean field.

    Provides the polariton matrix F, the phonon matrices G(q) (exact
    quadratic polynomial in q, so per-q assembly is cheap), and the cubic
    interaction tensors V (phonon bilinears driving the polaritons) and W
    (polariton-phonon bilinears driving the phonons).
    """

    def __init__(self, p: ThermoParams, mf) -> None:
        root_n = math.sqrt(float(p.atom_number))
        self._root_n = root_n
        # one extra slot holding 1 pads the leftover lists of the table
        point = np.zeros(NVARS + 1, dtype=complex)
        a, b, g = (root_n * x for x in (mf.alpha, mf.beta, mf.gamma))
        point[:_N_CONDENSATE] = (a, a.conjugate(), b, b.conjugate(),
                                 g, g.conjugate())
        point[NVARS] = 1.0
        self._point = point
        self._couplings = _couplings(p, mf.mu)
        self._table = _compiled_table()
        # F, G's q-coefficients and V from one reduction; each bin sums the
        # pairs of its entry in the order a block of its own would, so the
        # entries are those of three separate reductions, bit for bit
        joint = _reduce(self._table["FGV"], self._couplings, point)
        joint.flags.writeable = False
        self._f = joint[0, :36].reshape(6, 6)
        self._g = joint[:, 36:72].reshape(3, 6, 6)
        self._v = joint[0, 72:].reshape(6, 6, 6)

    def _q0(self, name: str) -> np.ndarray:
        # W and the residual involve no q-dependent monomial
        return _reduce(self._table[name], self._couplings, self._point,
                       powers=1)[0]

    # -- linear sector -----------------------------------------------------

    def polariton_matrix(self) -> np.ndarray:
        """6x6 matrix F of the linearized (a, b0, c0) fluctuation dynamics,
        read-only."""
        return self._f

    @property
    def phonon_coefficients(self) -> np.ndarray:
        """(g0, g1, g2) of G(q) = g0 + q g1 + q^2 g2, a read-only (3, 6, 6)
        array: everything phonon_matrix computes its stacks from."""
        return self._g

    def phonon_matrix(self, q) -> np.ndarray:
        """Matrix G(q) = g0 + q g1 + q^2 g2 of the linearized phonon dynamics.

        A scalar q gives one 6x6 matrix; a 1-D array of n momenta gives
        the (n, 6, 6) stack.  q = 0 (anywhere in the array) raises
        ValueError.
        """
        q = np.asarray(q, dtype=float)
        if np.any(q == 0.0):
            raise ValueError("q = 0 is the polariton sector, not a phonon mode")
        g0, g1, g2 = self.phonon_coefficients
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
        return self.v_tensor(), self.w_tensor()

    def v_tensor(self) -> np.ndarray:
        """V of interaction_tensors alone: all the damping pipeline needs."""
        return 0.5 * self._root_n * self._v

    def w_tensor(self) -> np.ndarray:
        """W of interaction_tensors alone."""
        return self._root_n * self._q0("W")

    # -- diagnostics -------------------------------------------------------

    def meanfield_residual(self) -> np.ndarray:
        """Residual of the stationary mean-field equations, from the same
        polynomial (independent of the hand-coded solver equations)."""
        return self._q0("residual") / self._root_n
