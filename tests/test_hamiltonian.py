import math

import numpy as np
import pytest

from cavitybec import hamiltonian
from cavitybec.params import critical_coupling, default_params
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import (
    _COLLISION_CHANNELS, _MOM_LABELS, _MOMENTUM_COMBOS, _PHONON_ROWS,
    _POLARITON_ROWS, _V_VARS, _VAR, _W_DAG_VARS, _W_VARS, NVARS,
    ModelExpansion,
)
from cavitybec.bogoliubov import symmetry_residuals

P = default_params()
Y_CRIT = critical_coupling(P)


def _expansion(frac):
    p = P.with_pump(frac * Y_CRIT)
    mf = solve_steady_state(p)
    return p, mf, ModelExpansion(p, mf)


# -- oracle: the monomial list at one numeric q and a per-entry walker --------

def _oracle_terms(p, mu, q):
    """(coeff, vars) monomials with q baked in, zero coefficients dropped."""
    n_atoms = float(p.atom_number)
    eta = p.y / math.sqrt(2.0 * n_atoms)
    u0 = 4.0 * p.u / n_atoms
    g_half = p.g_coll / (2.0 * n_atoms)
    terms = []

    def add(coeff, *vars_):
        if coeff != 0.0:
            terms.append((complex(coeff), tuple(vars_)))

    add(-p.cavity_detuning, 1, 0)
    momenta = {0: 0.0, +1: q, -1: -q}
    for lab in _MOM_LABELS:
        qv = momenta[lab]
        b, c, s = _VAR[("b", lab)], _VAR[("c", lab)], _VAR[("s", lab)]
        add(qv * qv - mu, b + 1, b)
        add(1.0 + qv * qv - mu, c + 1, c)
        add(1.0 + qv * qv - mu, s + 1, s)
        add(2.0j * qv, s + 1, c)
        add(-2.0j * qv, c + 1, s)
        for photon in (0, 1):
            add(math.sqrt(2.0) / 2.0 * eta, photon, b + 1, c)
            add(math.sqrt(2.0) / 2.0 * eta, photon, c + 1, b)
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
    """Mixed partial derivative of the monomial list at a point, each
    variable of dvars differentiated once."""
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
        total += val
    return total


class _Oracle:
    """F, G(q), V, W and the mean-field residual entry by entry."""

    def __init__(self, p, mf):
        self.p, self.mf = p, mf
        self.root_n = math.sqrt(float(p.atom_number))
        amps = (mf.alpha, mf.beta, mf.gamma)
        self.point = np.zeros(NVARS, dtype=complex)
        for k, amp in enumerate(amps):
            self.point[2 * k] = self.root_n * amp
            self.point[2 * k + 1] = self.root_n * np.conj(amp)
        # F, V, W and the residual must not depend on q: reading them off
        # a term list at q != 0 lets a dropped q-dependent part show
        self.terms0 = _oracle_terms(p, mf.mu, 0.11)

    def _matrix(self, terms, rows):
        return np.array([[sign * _derivative_value(terms, (dvar, comp),
                                                   self.point)
                          for comp, _, _ in rows] for _, dvar, sign in rows])

    def _tensor(self, rows, first, second, scale):
        return np.array([[[scale * sign * _derivative_value(
            self.terms0, (dvar, a, b), self.point) for b in second]
            for a in first] for _, dvar, sign in rows])

    def polariton_matrix(self):
        return self._matrix(self.terms0, _POLARITON_ROWS)

    def phonon_matrix(self, q):
        return self._matrix(_oracle_terms(self.p, self.mf.mu, q), _PHONON_ROWS)

    def v_tensor(self):
        return self._tensor(_POLARITON_ROWS, _W_DAG_VARS, _W_VARS,
                            0.5 * self.root_n)

    def w_tensor(self):
        return self._tensor(_PHONON_ROWS, _V_VARS, _W_VARS, self.root_n)

    def meanfield_residual(self):
        return np.array([sign * _derivative_value(self.terms0, (dvar,),
                                                  self.point) / self.root_n
                         for _, dvar, sign in _POLARITON_ROWS[::2]])


def _assert_scaled_close(actual, expected, rel=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert np.max(np.abs(actual - expected)) <= rel * scale


ORACLE_Q = (0.071, 0.29, 0.5, -0.29, 1e-3)


@pytest.mark.parametrize("overrides", [{}, {"u": 2.0, "g_coll": 0.3,
                                            "cavity_detuning": -40.0}])
@pytest.mark.parametrize("frac", [0.3, 0.5, 0.78, 0.95, 1.2, 1.6])
def test_compiled_table_matches_monomial_walker(frac, overrides):
    base = default_params(**overrides)
    p = base.with_pump(frac * critical_coupling(base))
    mf = solve_steady_state(p)
    exp, oracle = ModelExpansion(p, mf), _Oracle(p, mf)
    _assert_scaled_close(exp.polariton_matrix(), oracle.polariton_matrix())
    _assert_scaled_close(exp.v_tensor(), oracle.v_tensor())
    _assert_scaled_close(exp.w_tensor(), oracle.w_tensor())
    np.testing.assert_allclose(exp.meanfield_residual(),
                               oracle.meanfield_residual(), rtol=0,
                               atol=1e-12)
    for q in ORACLE_Q:
        _assert_scaled_close(exp.phonon_matrix(q), oracle.phonon_matrix(q))


def test_zero_coefficient_corner_and_build_order_change_no_value():
    # y = 0, g_coll = 0, u = 0 zeroes the pump, collision and dispersive
    # coefficients; a term list that dropped them would no longer line up
    # with the compiled table, whichever parameter set came first
    corner = default_params(g_coll=0.0, u=0.0)
    p = P.with_pump(0.78 * Y_CRIT)
    mf_corner, mf = solve_steady_state(corner), solve_steady_state(p)

    def tables(first):
        hamiltonian._compiled_table.cache_clear()
        out = {}
        for key in first:
            pp, mff = (corner, mf_corner) if key == "corner" else (p, mf)
            exp = ModelExpansion(pp, mff)
            out[key] = (exp.polariton_matrix(), exp.phonon_matrix(0.29),
                        *exp.interaction_tensors(), exp.meanfield_residual())
        return out

    corner_first = tables(("corner", "default"))
    default_first = tables(("default", "corner"))
    for key in ("corner", "default"):
        for a, b in zip(corner_first[key], default_first[key]):
            np.testing.assert_array_equal(a, b)
    _, _, v_t, w_t, _ = corner_first["corner"]
    assert np.max(np.abs(v_t)) == 0.0
    assert np.max(np.abs(w_t)) == 0.0
    oracle = _Oracle(p, mf)
    f_mat, g_mat, v_t, w_t, _ = corner_first["default"]
    _assert_scaled_close(f_mat, oracle.polariton_matrix())
    _assert_scaled_close(g_mat, oracle.phonon_matrix(0.29))
    _assert_scaled_close(v_t, oracle.v_tensor())
    _assert_scaled_close(w_t, oracle.w_tensor())


def test_term_list_unlike_the_compiled_one_raises(monkeypatch):
    p = P.with_pump(0.5 * Y_CRIT)
    mf = solve_steady_state(p)
    hamiltonian._compiled_table()
    full = hamiltonian.build_terms
    monkeypatch.setattr(hamiltonian, "build_terms",
                        lambda pp, mu: full(pp, mu)[:-1])
    with pytest.raises(RuntimeError, match="derivative table"):
        ModelExpansion(p, mf)


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
    # the q-power polynomial must agree with the walker over a monomial
    # list built from scratch at arbitrary q
    p, mf, exp = _expansion(1.15)
    oracle = _Oracle(p, mf)
    qs = (0.071, 0.29, 0.5)
    for q in qs:
        direct = oracle.phonon_matrix(q)
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
