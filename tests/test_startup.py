"""What a fresh process loads: import, the plain sweeps, the pole sweep,
the poles command's grid dump and the Fock oracle stay off scipy.optimize
and scipy.sparse (each costs start-up time and memory); only the NNLS comb
fit loads them."""

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


def test_pole_sweep_over_both_phases_loads_neither():
    # three points across threshold: two normal-phase points share a
    # block, the ordered one has its own, and the tracks are matched twice
    assert _heavy_modules_after("""
from cavitybec import (critical_coupling, default_params, pole_sweep,
                       solve_steady_state)
p = default_params(site_count=101, atom_number=1010)
ys = [f * critical_coupling(p) for f in (0.72, 0.8, 1.2)]
assert solve_steady_state(p.with_pump(ys[2])).gamma > 0.0  # ordered
assert len(pole_sweep(p, ys)) == 3
""") == []


def test_poles_grid_dump_loads_neither_and_writes_the_exact_g(tmp_path):
    # 101 sites at 1.462 y_crit: the bath band 1.355-1.705 leaves the
    # window (0.5, 1.6) that omega_max = 0.1 gives, and the grid reaches
    # below the bath line Im z = -eps
    settings = {"cavity_detuning": -1962.43, "u": 4.786, "g_coll": 0.0744,
                "temperature": 0.1741, "phonon_damping": 0.005662,
                "site_count": 101, "atom_number": 1010, "y_frac_min": 1.462,
                "y_frac_max": 1.462, "y_points": 1, "omega_max": 0.1,
                "dump_grid": 1}
    args = ["poles", "--output-dir", str(tmp_path)]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    assert _heavy_modules_after(f"""
import json
import numpy as np
from cavitybec import build_response, default_params
from cavitybec.cli import main
assert main({args!r}) == 0
with open({str(tmp_path / "green_grid.jsonl")!r}, encoding="utf-8") as fh:
    p = default_params(**json.loads(fh.readline()[1:])["params"])
    records = [json.loads(line) for line in fh]
z = np.array([r["re_z"] + 1j * r["im_z"] for r in records])
dumped = np.array([r["re_G"] + 1j * r["im_G"] for r in records])
exact = build_response(p).green(z)
assert len(z) == 2048 * 256 and z.imag.min() < -p.phonon_damping
assert np.max(np.abs(dumped - exact) / np.abs(exact)) <= 1e-12
""") == []


def test_fock_oracle_loads_neither():
    assert _heavy_modules_after("""
from cavitybec import critical_coupling, default_params, solve_steady_state
from cavitybec.fockcheck import coupling_residuals, oracle_residuals
p = default_params()
pp = p.with_pump(1.2 * critical_coupling(p))
mf = solve_steady_state(pp)
assert max(oracle_residuals(pp, mf, 0.3).values()) < 1e-10
assert max(coupling_residuals(pp, mf, 0.35).values()) < 1e-10
""") == []


def test_comb_fit_loads_scipy_optimize():
    # the control: NNLS still comes from scipy.optimize, which brings
    # scipy.sparse with it, so the harness can see a load
    assert _heavy_modules_after("""
import numpy as np
from cavitybec import reconstruct_meromorphic
omega = np.linspace(0.3, 1.6, 200)
green = 1.0 / (omega - 0.9 - 0.01 / (omega - 1.0 + 0.05j))  # one bath line
reconstruct_meromorphic(omega, green, 0.05)
""") == sorted(HEAVY)
