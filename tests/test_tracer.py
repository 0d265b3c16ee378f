"""The benchmark's tracer (perfbench/tracer.py) against the package.

The tracer wraps module attributes of cavitybec by name, so a refactor
that drops or renames one of them breaks the benchmark's per-layer
report.  This runs each traced entry point once on a small grid.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cavitybec import continuation, response
from cavitybec.hamiltonian import ModelExpansion
from cavitybec.params import critical_coupling, default_params

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_and_restores_the_package():
    owners = (response, continuation, ModelExpansion, response.Response)
    before = [dict(vars(owner)) for owner in owners]
    p = default_params(site_count=101, atom_number=1010)
    y = 0.78 * critical_coupling(p)
    tracer = _tracer_module().Tracer()
    response._phonon_modes.cache_clear()
    with tracer.installed():
        resp = response.build_response(p.with_pump(y))
        calls = tracer.calls["response.self_energy"]
        resp.born_markov()
        assert tracer.calls["response.self_energy"] == calls + 2
        continuation.pole_sweep(p, [y])
        response.spectral_sum_rule(resp)
        eps = resp.bath.epsilon
        omega = np.arange(0.3, 1.6, eps / 8.0)
        continuation.reconstruct_meromorphic(omega, resp.green(omega), eps)
    assert tracer.calls["bogoliubov.diagonalize_symplectic"] > 0
    for name in ("response.build_response", "continuation.pole_sweep",
                 "response.spectral_sum_rule", "response.Response.spectral",
                 "continuation.companion_pole_candidates",
                 "continuation.reconstruct_meromorphic",
                 "meanfield.solve_steady_state", "hamiltonian.ModelExpansion",
                 "bath.build_bath_spectrum"):
        assert tracer.calls[name] > 0, name
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert now.keys() == attrs.keys()
        assert all(now[key] is value for key, value in attrs.items())


def _record_bytes(records):
    return [(r["y"], np.array([pl.z for pl in r["poles"]]).tobytes(),
             np.array(r["residues"]).tobytes()) for r in records]


@pytest.mark.parametrize("fracs, blocks", [((0.72, 0.8), 1),
                                           ((0.8, 1.2), 2)])
def test_tracer_counts_one_companion_call_per_block(fracs, blocks):
    # the poles workload's shape, two pump points: below threshold they
    # share their phonon stack and make one block, across it two
    p = default_params(site_count=101, atom_number=1010)
    ys = np.array(fracs) * critical_coupling(p)
    plain = continuation.pole_sweep(p, ys)
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        traced = continuation.pole_sweep(p, ys)
    assert tracer.calls["continuation.pole_sweep"] == 1
    assert tracer.calls["continuation.companion_pole_candidates"] == blocks
    assert _record_bytes(traced) == _record_bytes(plain)
