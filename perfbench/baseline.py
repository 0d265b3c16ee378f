#!/usr/bin/env python3
"""Single-point stage timings, for comparison with the ROADMAP baseline.

    python3 perfbench/baseline.py [--blas-threads N]

In one fresh process, at the default parameters and y = 0.78 y_crit:
  * the companion eigensolve's cold first call (the process's first
    dense eig) and its warm time;
  * build_response split by layer with perfbench/tracer.py;
  * spectral on 2000 omega and born_markov.
Warm figures are the shortest of REPEATS calls, as in the benchmark
(interference from other tenants only adds time).  --blas-threads sets the BLAS
thread count (the benchmark itself pins it to 1).  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPEATS = 7


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)

    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import numpy as np
    from cavitybec import continuation, critical_coupling, default_params, response
    from tracer import Tracer

    p = default_params()
    pp = p.with_pump(0.78 * critical_coupling(p))
    resp = response.build_response(pp)
    cold, _ = _timed(continuation.companion_pole_candidates, resp)
    warm = [_timed(continuation.companion_pole_candidates, resp)[0]
            for _ in range(REPEATS)]

    stages = {}
    for _ in range(REPEATS):
        tracer = Tracer()
        with tracer.installed():
            response.build_response(pp)
        for name, seconds in tracer.total.items():
            stages[name] = min(stages.get(name, seconds), seconds)

    omega = np.linspace(0.5, 1.5, 2000)
    spectral = [_timed(resp.spectral, omega)[0] for _ in range(REPEATS)]
    born_markov = [_timed(resp.born_markov)[0] for _ in range(REPEATS)]

    print(json.dumps({
        "blas_threads": args.blas_threads, "nproc": os.cpu_count(),
        "companion_cold_s": cold,
        "companion_warm_s": min(warm),
        "build_response_stage_s": dict(sorted(stages.items())),
        "spectral_2000_s": min(spectral),
        "born_markov_s": min(born_markov),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
