"""The benchmark's reference gate (perfbench/run.py) on tier 1.

At the default seed the benchmark compares the first operation of each
workload with its stored reference to REF_RTOL; a change that moves an
output past it fails only a full benchmark run.  This runs that first
operation of every workload through the benchmark's own run_op.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from cavitybec.params import critical_coupling

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    # run.py sets BLAS variables, puts perfbench/ on sys.path and imports
    # its tracer as a top-level module: all three are undone afterwards
    path, environ = list(sys.path), dict(os.environ)
    had_tracer = "tracer" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up there
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        os.environ.clear()
        os.environ.update(environ)
        sys.modules.pop(spec.name, None)
        if not had_tracer:
            sys.modules.pop("tracer", None)


@pytest.mark.parametrize("name", ["sweep", "poles", "spectral_fit"])
def test_first_default_seed_operation_matches_the_reference(run, name):
    wl = run.WORKLOADS[name]
    p = run._params(wl.site_count)
    fracs = run.Inputs(wl, run.DEFAULT_SEED).next()
    tally = run.Tally()
    run.run_op(name, p, fracs, critical_coupling(p), tally,
               reference=run.load_reference(name))
    assert tally.problems == []
    assert tally.ref_dev <= run.REF_RTOL
