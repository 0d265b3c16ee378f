"""Self-contained verification suite behind the `verify` subcommand.

Runs the structural identities (particle-hole and pseudo-Hermiticity of the
fluctuation matrices, the vertex-tensor connection and reflection rules,
the coefficient dualities), the independent Fock-space commutator oracle,
and the response-level checks (zero Landau rate at T = 0, spectral sum
rule, meromorphic-continuation agreement).  Each check returns
(name, passed, detail); the CLI prints one line per check.
"""

from __future__ import annotations

import numpy as np

from .params import ThermoParams, critical_coupling, default_params
from .meanfield import solve_steady_state, residual as mf_residual
from .hamiltonian import ModelExpansion
from .bogoliubov import (diagonalize_symplectic, mirrored_modes, soft_mode,
                         symmetry_residuals)
from .coupling import (vertex_coefficients, vw_connection_residual,
                       v_reflection_residual, vertex_duality_residuals)
from .response import build_response, spectral_sum_rule
from .continuation import reconstruct_meromorphic


def _random_params(rng) -> ThermoParams:
    return default_params(
        cavity_detuning=-float(rng.uniform(2.0, 2000.0)),
        u=float(rng.uniform(0.0, 5.0)),
        g_coll=float(rng.uniform(0.0, 0.5)),
    )


def fit_window(resp):
    """verify's comb-fit window: [0.3, 1.6], widened to the bath band
    +- 10 eps where the band leaves it.

    The comb cannot stand in for poles outside its window: NNLS then fills
    it to mimic them, which is slow and wrong off the axis.
    """
    eps = resp.bath.epsilon
    _, centres = resp.bath.active_poles
    return (min(0.3, np.min(centres, initial=np.inf) - 10.0 * eps),
            max(1.6, np.max(centres, initial=-np.inf) + 10.0 * eps))


def run_verification(p: ThermoParams, seed: int = 0):
    rng = np.random.default_rng(seed)
    y_crit = critical_coupling(p)
    results = []

    def check(name, value, tol, fmt="max residual {value:.3e} (tol {tol:g})"):
        results.append((name, value < tol, fmt.format(value=value, tol=tol)))

    # mean-field fixed points below and above threshold
    worst = 0.0
    for frac in (0.3, 0.629, 0.95, 1.2):
        pp = p.with_pump(frac * y_crit)
        mf = solve_steady_state(pp)
        worst = max(worst, float(np.max(np.abs(
            mf_residual(pp, pp.y, mf.as_array())))))
    check("meanfield-residual", worst, 1e-9)

    # structural symmetries of F and G(q) across random parameter sets
    worst = 0.0
    for _ in range(10):
        pr = _random_params(rng)
        yc = critical_coupling(pr)
        pp = pr.with_pump(float(rng.uniform(0.1, 0.95)) * yc)
        mf = solve_steady_state(pp)
        exp = ModelExpansion(pp, mf)
        f = exp.polariton_matrix()
        res = symmetry_residuals(f)
        worst = max(worst, res["gamma"], res["omega"])
        q = float(rng.uniform(0.05, 0.49))
        res = symmetry_residuals(exp.phonon_matrix(q), exp.phonon_matrix(-q))
        worst = max(worst, res["gamma"], res["omega"])
    check("matrix-symmetries", worst, 1e-9)

    # vertex identities along a pump sweep
    worst_conn = worst_dual = 0.0
    for frac in np.linspace(0.1, 1.3, 8):
        pp = p.with_pump(float(frac) * y_crit)
        mf = solve_steady_state(pp)
        exp = ModelExpansion(pp, mf)
        v_t, w_t = exp.interaction_tensors()
        worst_conn = max(worst_conn, vw_connection_residual(v_t, w_t),
                         v_reflection_residual(v_t))
        _, pol = soft_mode(exp)
        ms = diagonalize_symplectic(exp.phonon_matrix(0.25), "phonon")
        vs = vertex_coefficients(v_t, w_t, pol, ms, mirrored_modes(ms))
        worst_dual = max(worst_dual,
                         max(vertex_duality_residuals(vs).values()))
    check("vertex-connection", worst_conn, 1e-9)
    check("coefficient-duality", worst_dual, 1e-9)

    # independent truncated-Fock commutator oracle, both checks on one K
    # (building its 3^9 states is most of their cost)
    from .fockcheck import (_coupling_residuals, _oracle_residuals,
                            build_hamiltonian)

    pp = p.with_pump(0.629 * y_crit)
    mf = solve_steady_state(pp)
    k = build_hamiltonian(pp, mf, 0.35)
    res = _oracle_residuals(pp, mf, 0.35, k)
    check("fock-oracle", max(res.values()), 1e-10)
    res = _coupling_residuals(pp, mf, 0.35, k)
    check("coupling-oracle", max(res.values()), 1e-10)

    # response-level checks
    resp = build_response(pp)
    bm = resp.born_markov()
    zero_t = abs(bm.gamma_l) if p.temperature == 0.0 else 0.0
    check("landau-zero-at-t0", zero_t, 1e-15,
          fmt="gamma_l = {value:.3e} at T = 0 (tol {tol:g})")
    total, _, _ = spectral_sum_rule(resp)
    check("spectral-sum-rule", abs(total - 1.0), 1e-2,
          fmt="|integral/2pi - 1| = {value:.3e} (tol {tol:g})")

    # continuation: rebuild 1/G from real-axis data, compare off axis
    omega = np.arange(*fit_window(resp), resp.bath.epsilon / 8.0)
    model = reconstruct_meromorphic(omega, resp.green(omega),
                                    resp.bath.epsilon)
    # depths up to eps/2: the comb discretization of the pole line limits
    # accuracy closer to the line itself
    zs = (np.linspace(0.6, 1.3, 40)[:, None]
          - 1j * np.array([0.002, 0.003, 0.005])[None, :]).ravel()
    rel = np.abs(model.green(zs) - resp.green(zs)) / np.abs(resp.green(zs))
    check("continuation-agreement", float(np.max(rel)), 1e-3,
          fmt="max relative error {value:.3e} off the real axis (tol {tol:g})")

    return results
