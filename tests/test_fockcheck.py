import numpy as np
import pytest

from cavitybec import fockcheck
from cavitybec.params import critical_coupling, default_params
from cavitybec.meanfield import solve_steady_state
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.fockcheck import (
    build_hamiltonian, coupling_residuals, oracle_residuals,
)


def test_operator_hamiltonian_is_hermitian():
    p = default_params()
    pp = p.with_pump(0.8 * critical_coupling(p))
    mf = solve_steady_state(pp)
    k = build_hamiltonian(pp, mf, 0.25)
    assert abs(k - k.conj().T).max() < 1e-9


def test_commutator_oracle_above_threshold():
    p = default_params()
    pp = p.with_pump(1.2 * critical_coupling(p))
    mf = solve_steady_state(pp)
    res = oracle_residuals(pp, mf, 0.3)
    assert max(res.values()) < 1e-10


def test_landau_beliaev_couplings_match_exact_commutators():
    p = default_params()
    pp = p.with_pump(1.2 * critical_coupling(p))
    mf = solve_steady_state(pp)
    res = coupling_residuals(pp, mf, 0.35)
    assert max(res.values()) < 1e-10


PLANT = 1e-6


def _bumped(array, index):
    out = np.array(array)
    out[index] += PLANT
    return out


@pytest.fixture(scope="module")
def point():
    p = default_params()
    pp = p.with_pump(1.2 * critical_coupling(p))
    mf = solve_steady_state(pp)
    return pp, mf, 0.3, build_hamiltonian(pp, mf, 0.3)


@pytest.mark.parametrize("owner, name, bump, residuals, caught", [
    (ModelExpansion, "polariton_matrix", lambda f: _bumped(f, (0, 0)),
     fockcheck._oracle_residuals, "polariton"),
    (ModelExpansion, "phonon_matrix", lambda g: _bumped(g, (0, 0)),
     fockcheck._oracle_residuals, "phonon"),
    (ModelExpansion, "interaction_tensors",
     lambda vw: (_bumped(vw[0], (0, 0, 0)), vw[1]),
     fockcheck._oracle_residuals, "polariton"),
    (ModelExpansion, "interaction_tensors",
     lambda vw: (vw[0], _bumped(vw[1], (0, 0, 0))),
     fockcheck._oracle_residuals, "phonon"),
    (fockcheck, "landau_beliaev_couplings", lambda g: (g[0] + PLANT, g[1]),
     fockcheck._coupling_residuals, "landau"),
    (fockcheck, "landau_beliaev_couplings", lambda g: (g[0], g[1] + PLANT),
     fockcheck._coupling_residuals, "beliaev"),
], ids=["F", "G", "V", "W", "g_L", "g_B"])
def test_oracle_catches_an_error_planted_in_one_entry(point, owner, name,
                                                      bump, residuals,
                                                      caught, monkeypatch):
    # 1e-6 in one entry shows as >= 1e-8 in its own residual (V and W
    # enter divided by sqrt(N) = 100), and the other residual stays exact
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: bump(original(*args)))
    res = residuals(*point)
    assert res.pop(caught) > 1e-10
    assert max(res.values()) < 1e-10
