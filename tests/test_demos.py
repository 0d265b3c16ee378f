import importlib.util
from pathlib import Path

import numpy as np

from cavitybec.csvio import read_table

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_soft_mode_demo_writes_ascending_bands(tmp_path):
    _load("soft_mode").main(tmp_path)
    _, names, rows = read_table(tmp_path / "soft_mode.csv")
    assert names == ["y_frac", "omega_s"] and len(rows) == 34
    _, names, rows = read_table(tmp_path / "phonon_bands.csv")
    assert names == ["q", "omega1", "omega2", "omega3"] and rows
    table = np.array([[r["omega1"], r["omega2"], r["omega3"]] for r in rows])
    assert np.all(np.diff(table, axis=1) >= 0.0)


def test_damping_resonance_demo_writes_every_pump_and_epsilon(tmp_path):
    _load("damping_resonance").main(tmp_path)
    meta, names, rows = read_table(tmp_path / "damping_resonance.csv")
    assert meta["epsilons"] == [0.03, 0.01, 0.003]
    assert names == ["y_frac", "epsilon", "omega_s", "gamma_b", "delta_b",
                     "gamma_l"]
    # 120 pump points less the one within 5e-3 of threshold, 3 epsilons each
    assert len(rows) == 119 * 3


def test_pole_trajectories_demo_writes_the_poles_command_columns(tmp_path):
    _load("pole_trajectories").main(tmp_path)
    _, names, rows = read_table(tmp_path / "pole_trajectories.csv")
    assert names == ["y_frac", "re_z1", "im_z1", "abs_residue1",
                     "re_z2", "im_z2", "abs_residue2"]
    assert len(rows) == 15


def test_spectral_function_demo_writes_the_map_and_its_peaks(tmp_path):
    _load("spectral_function").main(tmp_path)
    _, names, rows = read_table(tmp_path / "spectral_map.csv")
    assert names == ["y_frac", "omega", "rho"] and len(rows) == 18 * 1800
    _, names, rows = read_table(tmp_path / "peak_locations.csv")
    assert names == ["y_frac", "omega_lower", "omega_upper", "n_peaks"]
    assert len(rows) == 18
