"""What a fresh process loads: import and the plain sweeps stay off
scipy.optimize and scipy.sparse (each costs start-up time and memory)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cavitybec

SRC = Path(cavitybec.__file__).resolve().parents[1]
HEAVY = ("scipy.optimize", "scipy.sparse")


def _heavy_modules_after(code: str) -> list:
    """The HEAVY modules loaded once code has run in a fresh interpreter."""
    script = (f"{code}\nimport json, sys\n"
              f"print(json.dumps(sorted(m for m in sys.modules "
              f"if m in {HEAVY!r})))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_neither_scipy_optimize_nor_sparse():
    assert _heavy_modules_after("import cavitybec, cavitybec.cli") == []


def test_sweep_over_both_phases_loads_neither():
    assert _heavy_modules_after("""
from cavitybec import (critical_coupling, damping_sweep, default_params,
                       solve_steady_state)
p = default_params(site_count=101, atom_number=1010)
ys = [0.5 * critical_coupling(p), 1.3 * critical_coupling(p)]
assert solve_steady_state(p.with_pump(ys[1])).gamma > 0.0  # ordered
records = damping_sweep(p, ys, epsilons=(0.03, 0.01))
assert len(records) == 4
""") == []


def test_track_matching_loads_scipy_optimize():
    # the control: a two-point pole_sweep matches tracks with
    # scipy.optimize, which brings scipy.sparse with it
    assert _heavy_modules_after("""
from cavitybec import critical_coupling, default_params, pole_sweep
p = default_params(site_count=101, atom_number=1010)
pole_sweep(p, [0.72 * critical_coupling(p), 0.8 * critical_coupling(p)])
""") == sorted(HEAVY)
