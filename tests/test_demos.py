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
