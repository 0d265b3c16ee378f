"""Per-layer timing of cavitybec from outside the package.

The package has no stage timers of its own, so the benchmark replaces
each layer's public functions with timed wrappers, at the place where the
calling module looks them up: the module attributes of
`cavitybec.response` and `cavitybec.continuation`, and the methods of
`ModelExpansion` and `Response`.  Nothing under `src/` is edited; the
original attributes are restored when the `installed()` block ends.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.  Work counts (matrices solved, bath modes, ...) are
taken from the call's arguments, so they stay the same when a later
version batches the calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Aggregated call count, total time and self time per span name."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []        # child time accumulated by each open span
        self._patches = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a timed wrapper recorded under `name`.

        count(args, kwargs, result) returns {counter name: amount}.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self._open.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_s[name] += duration - child
                if self._open:
                    self._open[-1] += duration
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counts[key] += amount
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every cavitybec layer for the duration of the block."""
        _wrap_cavitybec(self)
        try:
            yield self
        finally:
            self._restore()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matrices(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    return {"bogoliubov.matrices": int(np.prod(np.shape(m)[:-2]))}


def _bath_modes(args, kwargs, result):
    return {"bath.modes": int(np.size(_arg(args, kwargs, 0, "q")))}


def _self_energy_terms(args, kwargs, result):
    z = _arg(args, kwargs, 1, "z")
    bath = _arg(args, kwargs, 2, "bath")
    return {"response.self_energy.terms": int(np.size(z) * np.size(bath.q))}


def _companion_order(args, kwargs, result):
    # size of the arrowhead eigenproblem: the soft mode plus every bath
    # pole with non-zero weight, whatever method later finds its roots
    bath = _arg(args, kwargs, 0, "resp").bath
    active = (np.count_nonzero(np.abs(bath.g_landau) * bath.nl)
              + np.count_nonzero(np.abs(bath.g_beliaev) * bath.nb))
    return {"continuation.companion_pole_candidates.order": 1 + int(active)}


def _pole_seeds(args, kwargs, result):
    seeds = _arg(args, kwargs, 1, "seeds")
    return {"continuation.find_poles.seeds": len(seeds),
            "continuation.find_poles.failed_seeds": len(result.failed_seeds),
            "continuation.find_poles.poles": len(result.poles)}


def _comb_columns(args, kwargs, result):
    omega = np.asarray(_arg(args, kwargs, 0, "omega"), dtype=float)
    eps = _arg(args, kwargs, 2, "eps")
    h = omega[1] - omega[0]
    columns = len(np.arange(omega[0] - 5 * eps, omega[-1] + 5 * eps, h))
    return {"continuation.reconstruct_meromorphic.comb": columns}


def _wrap_cavitybec(tracer: Tracer) -> None:
    from cavitybec import continuation, response
    from cavitybec.hamiltonian import ModelExpansion

    tracer.wrap(response, "solve_steady_state", "meanfield.solve_steady_state")
    tracer.wrap(ModelExpansion, "__init__", "hamiltonian.ModelExpansion")
    for method in ("polariton_matrix", "phonon_matrix", "interaction_tensors"):
        tracer.wrap(ModelExpansion, method, f"hamiltonian.{method}")
    tracer.wrap(response, "diagonalize_symplectic",
                "bogoliubov.diagonalize_symplectic", _matrices)
    tracer.wrap(response, "vertex_coefficients", "coupling.vertex_coefficients")
    tracer.wrap(response, "build_bath_spectrum", "bath.build_bath_spectrum",
                _bath_modes)
    tracer.wrap(response, "self_energy", "response.self_energy",
                _self_energy_terms)
    tracer.wrap(response.Response, "spectral", "response.Response.spectral")
    for fn in ("build_response", "spectral_sum_rule", "damping_sweep"):
        tracer.wrap(response, fn, f"response.{fn}")
    tracer.wrap(continuation, "companion_pole_candidates",
                "continuation.companion_pole_candidates", _companion_order)
    tracer.wrap(continuation, "find_poles", "continuation.find_poles",
                _pole_seeds)
    tracer.wrap(continuation, "reconstruct_meromorphic",
                "continuation.reconstruct_meromorphic", _comb_columns)
    tracer.wrap(continuation, "pole_sweep", "continuation.pole_sweep")
