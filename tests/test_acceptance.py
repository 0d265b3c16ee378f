"""Acceptance gate: twelve criteria, one test (and one pass/fail line) each.

Shared expensive sweeps are module-scoped fixtures.  Tolerances and grid
sizes are stated inline next to each check.
"""

import dataclasses
import time

import numpy as np
import pytest

from cavitybec.params import critical_coupling, default_params
from cavitybec.meanfield import solve_normal_phase, solve_steady_state
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.bogoliubov import (OMEGA, diagonalize_symplectic,
                                  mirrored_modes, soft_mode,
                                  symmetry_residuals)
from cavitybec.coupling import (vertex_coefficients, vertex_duality_residuals,
                                v_reflection_residual, vw_connection_residual)
from cavitybec.fockcheck import oracle_residuals
from cavitybec.response import build_response, damping_sweep, spectral_sum_rule
from cavitybec.continuation import pole_sweep, reconstruct_meromorphic
from cavitybec.verify import _random_params

P = default_params()
Y_CRIT = critical_coupling(P)


# -- 1 ---------------------------------------------------------------------

def test_criterion_01_symmetry_suite_50_random_sets_under_10s():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst_sym = worst_norm = worst_pair = 0.0
    for i in range(50):
        pr = _random_params(rng)
        yc = critical_coupling(pr)
        frac = rng.uniform(0.1, 0.9) if i % 2 == 0 else rng.uniform(1.05, 1.6)
        pp = pr.with_pump(float(frac) * yc)
        mf = solve_steady_state(pp)
        exp = ModelExpansion(pp, mf)
        f = exp.polariton_matrix()
        q = float(rng.uniform(0.05, 0.49))
        g = exp.phonon_matrix(q)
        res_f = symmetry_residuals(f)
        res_g = symmetry_residuals(g, exp.phonon_matrix(-q))
        scale = max(np.max(np.abs(f)), np.max(np.abs(g)))
        worst_sym = max(worst_sym, max(res_f.values()) / scale,
                        max(res_g.values()) / scale)
        for m in (f, g):
            vals = np.sort(np.linalg.eigvals(m).real)
            worst_pair = max(worst_pair,
                             float(np.max(np.abs(vals + vals[::-1]))) / scale)
        ms = diagonalize_symplectic(g, sector=f"q={q:g}")
        for j in range(len(ms.frequencies)):
            r = ms.right[:, j]
            worst_norm = max(worst_norm,
                             abs(np.real(np.conj(r) @ OMEGA @ r) - 1.0))
    elapsed = time.monotonic() - t0
    assert worst_sym < 1e-10, f"symmetry residual {worst_sym:.2e}"
    assert worst_pair < 1e-10, f"pairing residual {worst_pair:.2e}"
    assert worst_norm < 1e-10, f"normalization residual {worst_norm:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# -- 2 ---------------------------------------------------------------------

def test_criterion_02_vertex_identities_20_point_sweep_under_30s():
    t0 = time.monotonic()
    worst = 0.0
    fracs = np.linspace(0.1, 1.5, 20)
    fracs = fracs[np.abs(fracs - 1.0) > 5e-3]
    for frac in fracs:
        pp = P.with_pump(float(frac) * Y_CRIT)
        mf = solve_steady_state(pp)
        exp = ModelExpansion(pp, mf)
        v_t, w_t = exp.interaction_tensors()
        worst = max(worst, vw_connection_residual(v_t, w_t),
                    v_reflection_residual(v_t))
        _, pol = soft_mode(exp)
        ms = diagonalize_symplectic(exp.phonon_matrix(0.23), "phonon")
        vs = vertex_coefficients(v_t, w_t, pol, ms, mirrored_modes(ms))
        worst = max(worst, max(vertex_duality_residuals(vs).values()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-10, f"worst identity residual {worst:.2e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- 3 ---------------------------------------------------------------------

def test_criterion_03_fock_space_oracle_3_sets_under_2min():
    t0 = time.monotonic()
    worst = 0.0
    for frac, q in ((0.3, 0.2), (0.629, 0.35), (1.2, 0.11)):
        pp = P.with_pump(frac * Y_CRIT)
        mf = solve_steady_state(pp)
        res = oracle_residuals(pp, mf, q)
        worst = max(worst, max(res.values()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-10, f"worst commutator residual {worst:.2e}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# -- 4 ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def resp_629():
    return build_response(P.with_pump(0.629 * Y_CRIT))


def test_criterion_04_zero_temperature_kills_landau_channel(resp_629):
    assert np.all(resp_629.bath.nl == 0.0)
    bm = resp_629.born_markov()
    assert bm.gamma_l == 0.0 and bm.delta_l == 0.0


# -- 5 ---------------------------------------------------------------------

def test_criterion_05_spectral_sum_rule_three_pump_strengths(resp_629):
    for frac in (0.3, 0.629, 0.95):
        resp = resp_629 if frac == 0.629 else \
            build_response(P.with_pump(frac * Y_CRIT))
        total, _, _ = spectral_sum_rule(resp)
        assert abs(total - 1.0) < 1e-2, \
            f"sum rule off by {abs(total - 1.0):.2e} at y/y_crit = {frac}"


# -- 6 ---------------------------------------------------------------------

def test_criterion_06_continuation_matches_exact_meromorphic(resp_629):
    eps = resp_629.bath.epsilon
    omega = np.arange(0.3, 1.6, eps / 12.0)
    model = reconstruct_meromorphic(omega, resp_629.green(omega), eps)
    # probe the lower half plane above and below the bath pole line; every
    # bath pole sits at depth eps, so pole disks of radius eps/2 around
    # them exclude the band Im z in [-1.5 eps, -0.5 eps]
    depths = np.array([0.002, 0.004, 0.02, 0.05])
    pts = (np.linspace(0.5, 1.4, 60)[:, None]
           - 1j * depths[None, :]).ravel()
    keep = np.abs(pts.imag + eps) > 0.5 * eps
    pts = pts[keep]
    exact = resp_629.green(pts)
    rel = np.abs(model.green(pts) - exact) / np.abs(exact)
    assert float(np.max(rel)) < 1e-4, \
        f"max relative continuation error {np.max(rel):.2e}"


# -- 7 ---------------------------------------------------------------------

def test_criterion_07_soft_mode_softens_to_zero_under_1min():
    t0 = time.monotonic()
    fracs = np.linspace(0.0, 0.995, 100)
    omegas = []
    for frac in fracs:
        pp = P.with_pump(float(frac) * Y_CRIT)
        omega_s, _ = soft_mode(ModelExpansion(pp, solve_normal_phase(pp)))
        omegas.append(float(omega_s))
    elapsed = time.monotonic() - t0
    omegas = np.array(omegas)
    # analytic zero-pump value sqrt(w_R (w_R + 2 g)) = sqrt(1.2)
    assert abs(omegas[0] - np.sqrt(1.2)) < 1e-3
    assert np.all(np.diff(omegas) < 0.0), "not monotonically decreasing"
    assert omegas[-1] < 0.2 * omegas[0], "no softening towards threshold"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# -- 8 ---------------------------------------------------------------------

EPS_FAMILY = (0.03, 0.01, 0.003, 0.001)


@pytest.fixture(scope="module")
def beliaev_resonance_sweep():
    fracs = np.linspace(0.3, 1.6, 200)
    fracs = fracs[np.abs(fracs - 1.0) > 2e-3]
    t0 = time.monotonic()
    records = damping_sweep(P, fracs * Y_CRIT, epsilons=EPS_FAMILY)
    elapsed = time.monotonic() - t0
    table = {eps: {} for eps in EPS_FAMILY}
    for r in records:
        table[r["epsilon"]][r["y_frac"]] = r
    return table, elapsed


def test_criterion_08_beliaev_resonance_and_epsilon_family(
        beliaev_resonance_sweep):
    table, elapsed = beliaev_resonance_sweep
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s single-threaded"
    heights = []
    for eps in EPS_FAMILY:
        ys = np.array(sorted(table[eps]))
        gb = np.array([table[eps][y]["gamma_b"] for y in ys])
        below = ys < 1.0
        peak_y = ys[below][np.argmax(gb[below])]
        heights.append(float(np.max(gb[below])))
        assert abs(peak_y - 0.80) < 0.05, \
            f"peak at y/y_crit = {peak_y:.3f} for eps = {eps}"
        # second structure above threshold: an interior local maximum
        above = ys > 1.02
        ga = gb[above]
        interior_max = np.argmax(ga)
        assert 0 < interior_max < len(ga) - 1, \
            f"no above-threshold structure for eps = {eps}"
    # decreasing eps sharpens the resonance monotonically
    assert all(h1 < h2 for h1, h2 in zip(heights, heights[1:])), \
        f"peak heights not monotone in eps: {heights}"


# -- 9 ---------------------------------------------------------------------

def test_criterion_09_beliaev_dominates_landau_up_to_0p1_recoil():
    # Sweep the resonance-side range [0.3, 0.82]: once the soft-mode
    # frequency drops below the two-phonon band edge (y/y_crit ~ 0.835 at
    # these parameters), the Beliaev channel is off-resonant by
    # construction and its rate collapses — the very effect behind the
    # sharp resonance peak — so channel dominance is only a meaningful
    # contract on the resonant side.
    temps = (0.02, 0.05, 0.1)
    fracs = np.linspace(0.3, 0.82, 30)
    records = damping_sweep(P, fracs * Y_CRIT, temperatures=temps)
    by_key = {(r["y_frac"], r["temperature"]): r for r in records}
    for (yf, t), r in by_key.items():
        assert r["gamma_b"] >= r["gamma_l"], \
            f"Landau exceeds Beliaev at y/y_crit = {yf:.3f}, T = {t}"
    for yf in {k[0] for k in by_key}:
        gls = [by_key[(yf, t)]["gamma_l"] for t in temps]
        assert gls[0] < gls[1] < gls[2], \
            f"gamma_l not monotone in T at y/y_crit = {yf:.3f}: {gls}"


# -- 10 --------------------------------------------------------------------

def test_criterion_10_spectral_two_peaks_avoided_crossing():
    omega = np.linspace(0.55, 1.45, 3600)
    fracs = np.linspace(0.60, 0.95, 29)
    lower, upper = [], []
    for frac in fracs:
        resp = build_response(P.with_pump(float(frac) * Y_CRIT))
        rho = resp.spectral(omega)
        idx = np.where((rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:]))[0] + 1
        idx = idx[np.argsort(-rho[idx])][:2]
        if len(idx) == 2:
            a, b = np.sort(omega[idx])
            lower.append(a)
            upper.append(b)
        else:
            lower.append(np.nan)
            upper.append(np.nan)
    lower, upper = np.array(lower), np.array(upper)
    both = ~np.isnan(lower)
    assert np.sum(both) >= 10, "two-peak region too small"
    gap = upper[both] - lower[both]
    assert np.min(gap) > 0.0, "peak branches touch"
    k = int(np.argmin(gap))
    assert 0 < k < np.sum(both) - 1, "no interior closest approach"


# -- 11 --------------------------------------------------------------------

def test_criterion_11_pole_trajectories_avoided_crossing_ratio():
    fracs = np.linspace(0.70, 0.84, 15)
    records = pole_sweep(P, fracs * Y_CRIT, omega_window=(0.0, 3.0))
    re_gap = np.array([abs(r["poles"][0].z.real - r["poles"][1].z.real)
                       for r in records])
    assert np.min(re_gap) > 0.0, "trajectories touch in Re z"
    k = int(np.argmin(re_gap))
    assert 0 < k < len(records) - 1, "closest approach not interior"
    rec = records[k]
    small_im = min(abs(p.z.imag) for p in rec["poles"])
    bm = build_response(P.with_pump(rec["y"])).born_markov()
    ratio = bm.gamma_b / small_im
    assert 3.0 < ratio < 30.0, \
        f"gamma_B / min|Im z| = {ratio:.2f} at closest approach"


# -- 12 --------------------------------------------------------------------

def test_criterion_12_thermodynamic_convergence_and_linear_scaling():
    pp = P.with_pump(0.78 * Y_CRIT)
    gb = {}
    for n_modes in (1001, 2001):
        # fixed thermodynamic parameters: density N_c / L stays constant,
        # so the atom number scales with the box length
        scaled = dataclasses.replace(
            pp, site_count=n_modes,
            atom_number=pp.atom_number * n_modes / pp.site_count)
        gb[n_modes] = build_response(scaled).born_markov().gamma_b
    change = abs(gb[2001] - gb[1001]) / gb[1001]
    assert change < 0.01, f"gamma_B changed by {change:.2%} on grid doubling"

    # linear-density property: rescaling both channel couplings by sqrt(s)
    # at fixed bath spectrum multiplies shift and rate by s exactly
    resp = build_response(pp)
    s = 2.5
    bath2 = dataclasses.replace(resp.bath,
                                g_landau=resp.bath.g_landau * np.sqrt(s),
                                g_beliaev=resp.bath.g_beliaev * np.sqrt(s))
    resp2 = dataclasses.replace(resp, bath=bath2)
    bm, bm2 = resp.born_markov(), resp2.born_markov()
    assert bm2.gamma_b == pytest.approx(s * bm.gamma_b, rel=1e-12)
    assert bm2.delta_b == pytest.approx(s * bm.delta_b, rel=1e-12)
